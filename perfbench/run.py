"""twinfo benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload suprema --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the run launches a fresh worker ``SETUP_LAUNCHES`` times (the
median launch-to-inputs-ready time is ``setup_s``), and the last worker runs
the workload in a closed loop for ``--seconds``.  With ``--trace 1`` one
worker runs a fixed list of operations untraced and traced, and reports
per-layer metrics; import costs come from ``python -X importtime``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Lines before it give
the run metadata and a readable table.  The exit code is 0 when the run
completed, whether or not every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from tracing import import_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("suprema", "sweep", "twins", "cli")
SETUP_LAUNCHES = 5
IMPORTTIME_REPEATS = 3
# Allowance on top of --seconds for one worker to finish its last operation.
WORKER_GRACE_S = 120
# The result format admits no metric that is zero on a correct run, so the
# failure share is reported as its complement, ok_frac = 1 - fail_frac.
ABSENT = {"fail_frac": "reported as ok_frac = 1 - fail_frac; failed/attempted are top-level keys"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "restarts_agree_frac": "ratio",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


class WorkerError(RuntimeError):
    pass


def launch(args, mode: str, work_dir: str, env: dict):
    """Start one worker; returns (seconds until READY, parsed RESULT or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--work-dir", work_dir]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        if ready.strip() != "READY":
            raise WorkerError(f"worker did not become ready: {ready!r}")
        rest, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    lines = [line for line in rest.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise WorkerError("worker printed no result")
    return setup_s, json.loads(lines[-1][len("RESULT "):])


def end_to_end(args, work_dir: str, env: dict):
    setups = [launch(args, "setup", work_dir, env)[0] for _ in range(SETUP_LAUNCHES - 1)]
    setup_s, result = launch(args, "measure", work_dir, env)
    setups.append(setup_s)
    values = {"setup_s": statistics.median(setups), **result,
              "ok_frac": (result["attempted"] - result["failed"]) / result["attempted"]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    notes = {
        "setup_samples_s": setups,
        "fail_frac": result["failed"] / result["attempted"],
        "tail_percentile": result["tail_percentile"],
        "tail_ops_beyond": result["tail_ops_beyond"],
        "elapsed_s": result["elapsed_s"],
        "mean_speed": result["mean_speed"],
        "raw": result["raw"],
    }
    return result, metrics, notes


def traced(args, work_dir: str, env: dict):
    _, result = launch(args, "trace", work_dir, env)
    metrics = result["metrics"]
    for name, value in import_times(env, IMPORTTIME_REPEATS).items():
        metrics[name] = {"value": value, "unit": "s"}
    return result, dict(sorted(metrics.items())), {"trace_ops_per_pass": result["trace_ops"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "twinfo", "__init__.py")):
        print(f"perfbench: no twinfo sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    env = worker_env()
    try:
        run = traced if args.trace else end_to_end
        result, metrics, notes = run(args, work_dir, env)
    except (WorkerError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    meta = {**result["metadata"], "git_sha": git_sha(), "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}
    print(json.dumps({"metadata": meta, "notes": notes}))
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"  {name:46s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'fail_frac':46s} {notes['fail_frac']:>16.6g} ratio  (also ok_frac)")
        print(f"  op_tail_ms is p{notes['tail_percentile']:.4g}"
              f" of {result['attempted']} ops ({notes['tail_ops_beyond']} beyond it)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
