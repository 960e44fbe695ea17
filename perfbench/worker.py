"""One benchmark process: set up qcontract, run one workload, verify it.

Started by ``run.py`` as a fresh interpreter.  It prints, on its standard
output, one JSON object: the ``time.monotonic()`` reading at which the first
task was ready (``CLOCK_MONOTONIC`` is shared by all processes on the host,
so the parent can subtract its spawn time), then, unless ``--setup-only``,
the raw per-task timings, the verdict failures and, with ``--trace 1``, the
per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from pace import Pacer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: no new cycle starts this long after the worker started, whatever
#: --seconds says, so that verification still ends inside run.py's timeout
DEADLINE_S = 60.0


def setup() -> float:
    sys.path.insert(0, str(SRC))
    import qcontract
    from qcontract import catalog, cli  # noqa: F401  (the whole program)

    if Path(qcontract.__file__).resolve().parent != SRC / "qcontract":
        raise SystemExit(f"qcontract imported from {qcontract.__file__}, "
                         f"not from {SRC}")
    for name in catalog.BUILTIN_NAMES:
        catalog.load_presentation(f"builtin:{name}")
    return time.monotonic()


@dataclass(frozen=True)
class Crash:
    """Outcome of a task that raised."""

    traceback: str


def attempt(run):
    try:
        return run()
    except Exception:  # a program bug fails the task, not the run
        return Crash(traceback.format_exc())


def run_cycles(workload, seconds: float, min_tasks: int, started: float):
    """Closed loop, one client: each task starts when the previous ended.
    Stops at the first cycle boundary after ``seconds`` once ``min_tasks``
    ran.  Returns (task, outcome, wall s, cpu s, cost) records (see
    ``pace.Pacer``) and the reference samples."""
    records = []
    t_start = time.perf_counter()
    with Pacer() as pacer:
        for cycle in workload.cycles():
            for task in cycle:
                records.append((task, *pacer.measure(
                    lambda: attempt(task.run))))
            elapsed = time.perf_counter() - t_start
            if (elapsed >= seconds and len(records) >= min_tasks
                    or time.monotonic() - started > DEADLINE_S):
                return records, pacer.samples


def verify(workload, records) -> list[str]:
    failures = []
    for task, outcome, *_ in records:
        if isinstance(outcome, Crash):
            errors = [outcome.traceback.strip().splitlines()[-1]]
        else:
            try:
                errors = workload.verify(task, outcome)
            except Exception as exc:  # malformed output fails the task
                errors = [f"unreadable output: {exc!r}"]
        if errors:
            failures.append(f"{task.label}: {'; '.join(errors[:3])}")
    return failures


def traced_rerun(records, seed: int, workload_name: str) -> tuple[dict, list]:
    """Re-run the tasks of ``records`` under the tracer; per-layer figures
    per task, and the reasons the trace itself is not sound."""
    from layers import per_layer_metrics
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    costs, problems = [], []
    try:
        with Pacer() as pacer:
            for i, (task, outcome, *_) in enumerate(records):
                again, _, _, cost = pacer.measure(
                    lambda: attempt(lambda: tracer.run_task(i, task.run)))
                costs.append(cost)
                if again != outcome:
                    problems.append(f"{task.label}: traced output differs")
    finally:
        tracer.uninstall()
    problems += tracer.nesting_errors()[:5]
    metrics = per_layer_metrics(tracer, len(records))
    metrics["trace.overhead_ratio"] = (
        statistics.median(costs) / statistics.median(r[4] for r in records))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{workload_name}-seed{seed}.jsonl")
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-tasks", type=int,
                    help="default: the workload's MIN_TASKS")
    ap.add_argument("--expected-dir", type=Path)
    args = ap.parse_args(argv)

    started = time.monotonic()
    ready = setup()
    result = {"ready": ready}
    if not args.setup_only:
        from workloads import EXPECTED_DIR, WORKLOADS

        workload = WORKLOADS[args.workload](
            args.seed, args.expected_dir or EXPECTED_DIR)
        # a traced run spends half its time untraced, to measure the overhead
        seconds = args.seconds / 2 if args.trace else args.seconds
        records, samples = run_cycles(
            workload, seconds, args.min_tasks or workload.MIN_TASKS, started)
        result.update(
            walls=[r[2] for r in records],
            cpus=[r[3] for r in records],
            costs=[r[4] for r in records],
            reference_s=statistics.median(samples),
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            failures=verify(workload, records),
        )
        if args.trace:
            result["per_layer"], result["trace_problems"] = traced_rerun(
                records, args.seed, args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
