"""One benchmark worker process; started by run.py, not by hand.

The worker imports twinfo, builds the workload's inputs and prints ``READY``;
the time from its launch to that line is one set-up sample.  In ``setup``
mode it then exits.  In ``measure`` mode it runs whole cycles of operations
in a closed loop for ``--seconds`` at the reference machine speed; in
``trace`` mode it runs a fixed list of operations untraced and traced.  Either way it ends with one
``RESULT <json>`` line.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from importlib.util import find_spec
from time import perf_counter

import numpy as np
import scipy

import twinfo

from tracing import Tracer
from workloads import WORKLOADS

TAIL_BEYOND = 10
TRACE_CHUNKS = 4
TAIL_CAP = 99.0
CAL_INTERVAL_S = 0.05
CAL_WINDOW_S = 0.25
# Probe time that calibrated timings are scaled to; about the median probe
# time on a 2-CPU x86-64 cloud VM.
CAL_REF_S = 0.3e-3
_CAL_G = np.random.default_rng(0).standard_normal((8, 16)).view(complex)
CAL_MATRIX = _CAL_G @ _CAL_G.conj().T
MAX_REPORTED_FAILURES = 5
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_ops(ops, indices, failures):
    """Run ``ops[i]`` for each index; returns the timed latencies and agreements."""
    latencies, agreements = [], []
    for i in indices:
        op = ops[i % len(ops)]
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception:
            latencies.append(perf_counter() - t0)
            failures.append(f"{op.label}: {traceback.format_exc(limit=3).strip()}")
            continue
        latencies.append(perf_counter() - t0)
        try:
            agreement = op.check(out)
        except Exception:
            failures.append(f"{op.label}: {traceback.format_exc(limit=3).strip()}")
            continue
        if agreement is not None:
            agreements.append((i, agreement))
    return latencies, agreements


def calibration_probe() -> float:
    """Seconds for a fixed mix of small ``eigvalsh`` calls and Python arithmetic.

    The probe runs no twinfo code, so its time follows only the speed the
    machine gives this process, which on a shared host drifts by a fifth
    within minutes.  The best of three repeats drops a repeat that another
    process preempted.
    """
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(14):
            w = np.linalg.eigvalsh(CAL_MATRIX)
            float(np.sum(w * np.log2(w)))
            sum(k * 0.5 for k in range(20))
        best = min(best, perf_counter() - t0)
    return best


def _closed_loop(ops, cycle, seconds, failures):
    """Whole cycles of operations until they took ``seconds`` at the reference speed.

    Stopping only at a cycle boundary gives every run the same mix of
    operations, which matters when their costs differ a hundredfold.
    Counting time at the reference speed gives runs on a slow or a fast
    moment the same number of operations.  A calibration probe runs between
    operations every ``CAL_INTERVAL_S``; its time is left out of ``elapsed``.
    Returns the latencies, the machine speed at each operation, the restart
    agreements and the elapsed time.
    """
    latencies, agreements, spans, probes = [], [], [], []
    start = perf_counter()
    next_probe = start
    reference_s = 0.0
    i = 0
    while i % cycle or reference_s < seconds:
        if perf_counter() >= next_probe:
            probes.append((perf_counter(), calibration_probe()))
            next_probe = perf_counter() + CAL_INTERVAL_S
            speed = CAL_REF_S / statistics.median(p for _, p in probes[-5:])
        t0 = perf_counter()
        lat, agree = _run_ops(ops, (i,), failures)
        spans.append((t0, perf_counter()))
        reference_s += lat[0] * speed
        latencies += lat
        agreements += agree
        i += 1
    probes.append((perf_counter(), calibration_probe()))
    elapsed = perf_counter() - start - sum(p for _, p in probes)
    return latencies, _speeds(spans, probes), agreements, elapsed


def _speeds(spans, probes):
    """Machine speed during each operation: the reference probe time over the
    median of the probes taken within ``CAL_WINDOW_S`` of it."""
    times = [t for t, _ in probes]
    out = []
    for t0, t1 in spans:
        lo = bisect.bisect_left(times, t0 - CAL_WINDOW_S)
        hi = bisect.bisect_right(times, t1 + CAL_WINDOW_S)
        out.append(CAL_REF_S / statistics.median(p for _, p in probes[lo:hi]))
    return out


def tail(latencies):
    """(latency, percentile, ops beyond) at the highest percentile, up to p99,
    with at least ten operations beyond it.

    Beyond p99, single preemptions by other processes on the host set the
    value, not the program.  With ten or fewer operations this is the slowest
    one, with none beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    beyond = max(TAIL_BEYOND, math.ceil(n * (100.0 - TAIL_CAP) / 100.0))
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def _agree_frac(agreements, cycle):
    """Mean restart agreement over the first cycle; 1 when no supremum was computed."""
    values = [a for i, a in agreements if i < cycle]
    return statistics.fmean(values) if values else 1.0


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metadata(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": find_spec("numba") is not None,
        "twinfo_backend": twinfo.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARIABLES},
        "seed": seed,
    }


def measure(workload, seconds, failures) -> dict:
    """End-to-end figures, with timings scaled to the reference machine speed.

    Each latency is multiplied by the speed of the machine around it, from
    the calibration probes.  The unscaled figures are returned under ``raw``.
    """
    latencies, speeds, agreements, elapsed = _closed_loop(
        workload.ops, workload.cycle, seconds, failures)
    scaled = [lat * speed for lat, speed in zip(latencies, speeds)]
    mean_speed = sum(scaled) / sum(latencies)
    tail_s, percentile, beyond = tail(scaled)
    raw_tail_s, _, _ = tail(latencies)
    return {
        "attempted": len(latencies),
        "elapsed_s": elapsed,
        "ops_per_s": len(latencies) / (elapsed * mean_speed),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_tail_ms": 1e3 * tail_s,
        "tail_percentile": percentile,
        "tail_ops_beyond": beyond,
        "restarts_agree_frac": _agree_frac(agreements, workload.cycle),
        "peak_rss_mb": _peak_rss_mb(workload.children),
        "mean_speed": mean_speed,
        "raw": {"ops_per_s": len(latencies) / elapsed,
                "op_p50_ms": 1e3 * statistics.median(latencies),
                "op_tail_ms": 1e3 * raw_tail_s},
    }


def trace(workload, seconds, failures) -> dict:
    """The same operations untraced and traced, alternating in chunks.

    The number of operations depends only on ``seconds``, so the traced
    counts repeat exactly for a given seed.  Alternating chunks spreads any
    drift in machine speed over both sides of ``trace.overhead_frac``.
    """
    ops = workload.trace_ops or workload.ops
    count = max(1, math.ceil(workload.trace_rate * seconds / 2))
    _run_ops(ops, (0,), failures)  # warm-up, not timed
    tracer = Tracer()
    untraced, traced = [], []
    for chunk in range(TRACE_CHUNKS):
        indices = range(chunk * count // TRACE_CHUNKS, (chunk + 1) * count // TRACE_CHUNKS)
        untraced += _run_ops(ops, indices, failures)[0]
        tracer.install()
        try:
            traced += _run_ops(ops, indices, failures)[0]
        finally:
            tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (sum(traced) / sum(untraced) - 1.0, "ratio")
    return {"attempted": 2 * count + 1, "trace_ops": count,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    # Operations may print; protocol lines go to the original stdout.
    protocol = sys.stdout
    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    # Keep the collector from rescanning the inputs during every operation.
    gc.collect()
    gc.freeze()
    print("READY", file=protocol, flush=True)
    if args.mode == "setup":
        return 0
    failures = []
    run = measure if args.mode == "measure" else trace
    result = run(workload, args.seconds, failures)
    result["failed"] = len(failures)
    result["failures"] = failures[:MAX_REPORTED_FAILURES]
    result["metadata"] = metadata(args.seed)
    print("RESULT " + json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
