#!/usr/bin/env python3
"""The qcontract benchmark.

    python3 perfbench/run.py --workload report --seed 1 --seconds 8 --trace 0

Runs one workload (``report``, ``nf-stress`` or ``contract-solve``; see
``perfbench/README.md``) from the root of a source checkout, in a fresh
interpreter that imports ``src/qcontract``: one closed-loop client, no
threads.  Every verdict is checked.  It prints each metric by name and unit,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced re-run with ``--trace 1``.
It exits 0 only when every verdict is right.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SRC = HERE.parent / "src"
#: fresh interpreters timed from spawn to ready, besides the measuring one
SETUP_PROBES = 15
#: wall-clock limit on the measuring process
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from layers import UNITS as PER_LAYER_UNITS  # noqa: E402

#: the end-to-end metrics in BENCHMARK.json: set-up time, and task costs in
#: reference units (see pace.py), which follow qcontract's work rather than
#: the shared host's speed
END_TO_END_UNITS = {
    "setup_s": "s",
    "task_cost_p50": "ref",
    "task_cost_tail": "ref",
    "task_cost_mean": "ref",
    "peak_rss_mb": "MB",
}
#: printed for information only: seconds follow the host's speed, which
#: swings too widely to bound, and failed_ratio reads 0 on correct code
#: (the result line carries it as ``attempted``/``failed``)
PRINTED_UNITS = {
    "task_s_p50": "s",
    "task_s_tail": "s",
    "cpu_s_per_task": "s",
    "tasks_per_s": "1/s",
    "reference_ms": "ms",
    "failed_ratio": "ratio",
}


def spawn(args: list[str], seed: int, timeout: float) -> tuple[float, dict]:
    """Run a worker; seconds from spawn to its first task being ready, and
    its report.  The worker's hash seed is part of the workload seed."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    return report["ready"] - t0, report


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    if len(xs) <= 10:
        return 100.0, xs[-1]
    idx = len(xs) - 11
    return 100.0 * (idx + 1) / len(xs), xs[idx]


def end_to_end(setups: list[float], report: dict) -> tuple[dict, list[str]]:
    walls, cpus, costs = report["walls"], report["cpus"], report["costs"]
    n = len(walls)
    pct, tail_cost = tail(costs)
    _, tail_wall = tail(walls)
    failed = len(report["failures"])
    metrics = {
        "setup_s": statistics.median(setups),
        "task_cost_p50": statistics.median(costs),
        "task_cost_tail": tail_cost,
        "task_cost_mean": statistics.fmean(costs),
        "peak_rss_mb": report["peak_rss_mb"],
        "task_s_p50": statistics.median(walls),
        "task_s_tail": tail_wall,
        "cpu_s_per_task": statistics.fmean(cpus),
        "tasks_per_s": n / sum(walls),
        "reference_ms": 1000 * report["reference_s"],
        "failed_ratio": failed / n,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "task_cost_p50": f"{n} tasks",
        "task_cost_tail": f"p{pct:.0f} of {n} tasks",
        "task_s_p50": "information only",
        "task_s_tail": f"p{pct:.0f} of {n} tasks, information only",
        "cpu_s_per_task": "information only",
        "tasks_per_s": "information only",
        "reference_ms": "median reference time, the host's speed",
        "failed_ratio": f"{failed} of {n}",
    }
    lines = [f"{name:<16} {metrics[name]:.6g} {unit}"
             + (f"  ({notes[name]})" if name in notes else "")
             for name, unit in {**END_TO_END_UNITS, **PRINTED_UNITS}.items()]
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("report", "nf-stress", "contract-solve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected-dir", type=Path,
                    help="pinned verdicts (default perfbench/expected)")
    ap.add_argument("--min-tasks", type=int,
                    help="fewest tasks an untraced run measures (default: "
                         "the workload's, 12 to 18); lower it for smoke "
                         "runs")
    args = ap.parse_args(argv)
    if not (SRC / "qcontract" / "__init__.py").is_file():
        print(f"perfbench: no qcontract sources under {SRC}", file=sys.stderr)
        return 2

    work_args = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
    min_tasks = 1 if args.trace else args.min_tasks
    if min_tasks:
        work_args += ["--min-tasks", str(min_tasks)]
    if args.expected_dir:
        work_args += ["--expected-dir", str(args.expected_dir.resolve())]
    # half the set-up probes run before the measuring process and half
    # after, so that setup_s spans the run rather than its first seconds
    probes = 0 if args.trace else SETUP_PROBES
    setups = [spawn(["--setup-only"], args.seed, 60)[0]
              for _ in range(probes // 2)]
    setup, report = spawn(work_args, args.seed, WORKER_TIMEOUT_S)
    setups.append(setup)
    setups += [spawn(["--setup-only"], args.seed, 60)[0]
               for _ in range(probes - probes // 2)]

    failures = report["failures"] + report.get("trace_problems", [])
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"closed loop, 1 client")
    if args.trace:
        metrics = report["per_layer"]
        units = PER_LAYER_UNITS
        for name, unit in units.items():
            print(f"{name:<34} {metrics[name]:.6g} {unit}")
    else:
        metrics, lines = end_to_end(setups, report)
        print("\n".join(lines))
        units = END_TO_END_UNITS
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": len(report["walls"]),
        "failed": len(report["failures"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
