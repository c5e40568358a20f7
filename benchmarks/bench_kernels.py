"""Benchmark the hot kernels on the numba and pure-numpy backends.

Runs itself twice in subprocesses (TWINFO_NUMBA=1 / =0), times each kernel,
and prints a comparison table.  Without numba installed only the numpy run
is made.  Usage: python benchmarks/bench_kernels.py
"""

import importlib.util
import json
import os
import subprocess
import sys
import time

REPS = 3000
SIZES = [(2, 2), (3, 3)]


def measure():
    import numpy as np

    from twinfo import kernels as K
    from twinfo.linalg import Dims
    from twinfo.sampling import sample_random_density, sample_random_unitary

    results = {"backend": K.BACKEND, "timings": {}}
    for d1, d2 in SIZES:
        dims = Dims(d1, d2)
        rho = np.ascontiguousarray(sample_random_density(dims, dims.total, seed=1))
        u1 = np.ascontiguousarray(sample_random_unitary(d1, seed=2))
        u2 = np.ascontiguousarray(sample_random_unitary(d2, seed=3))
        params = np.linspace(-0.5, 0.5, d1 * d1)
        cases = {
            "vn_entropy": lambda: K.vn_entropy(rho, 1e-12),
            "ptrace_keep2": lambda: K.ptrace_keep2(rho, d1, d2),
            "info_gain_side1": lambda: K.info_gain_side1(rho, u1, d2, 1e-12),
            "joint_mutual_info": lambda: K.joint_mutual_info(rho, u1, u2, 1e-12),
            "unitary_from_params": lambda: K.unitary_from_params(params, d1),
        }
        for name, fn in cases.items():
            fn()  # warmup / JIT compile
            t0 = time.perf_counter()
            for _ in range(REPS):
                fn()
            dt = (time.perf_counter() - t0) / REPS
            results["timings"][f"{name}[{d1}x{d2}]"] = dt * 1e6
    print(json.dumps(results))


def main():
    here = os.path.abspath(__file__)
    runs = {}
    flags = ("1", "0") if importlib.util.find_spec("numba") is not None else ("0",)
    for flag in flags:
        env = dict(os.environ, TWINFO_NUMBA=flag)
        out = subprocess.run(
            [sys.executable, here, "--measure"], env=env, capture_output=True, text=True, check=True
        )
        data = json.loads(out.stdout.strip().splitlines()[-1])
        runs[data["backend"]] = data["timings"]
    if "numba" not in runs:
        print("numba backend unavailable; numpy timings only:")
        for name, t in runs["numpy"].items():
            print(f"  {name:36s} {t:9.2f} us")
        return
    print(f"{'kernel':36s} {'numba (us)':>12s} {'numpy (us)':>12s} {'speedup':>9s}")
    for name in runs["numba"]:
        tn = runs["numba"][name]
        tp = runs["numpy"][name]
        print(f"{name:36s} {tn:12.2f} {tp:12.2f} {tp / tn:8.1f}x")


if __name__ == "__main__":
    if "--measure" in sys.argv:
        measure()
    else:
        main()
