"""Tests of the benchmark itself: smoke runs, a negative control and the
tracer's bookkeeping.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from layers import UNITS as PER_LAYER_UNITS  # noqa: E402
from pace import Pacer, reference  # noqa: E402
from run import END_TO_END_UNITS, PRINTED_UNITS, tail  # noqa: E402
from tracer import HOT, SPAN, Tracer  # noqa: E402

WORKLOADS = ("report", "nf-stress", "contract-solve")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace=0, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace),
         "--min-tasks", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def printed(stdout: str, name: str, unit: str) -> bool:
    number = r"[-+0-9.e]+"
    return re.search(rf"^{re.escape(name)}\s+{number} {re.escape(unit)}\b",
                     stdout, re.M) is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    proc, result = bench(workload)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for name, unit in {**END_TO_END_UNITS, **PRINTED_UNITS}.items():
        assert printed(proc.stdout, name, unit), name
    assert re.search(r"^task_cost_tail .*\(p\d+ of \d+ tasks\)",
                     proc.stdout, re.M)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    proc, result = bench(workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"]
    for name, unit in PER_LAYER_UNITS.items():
        assert printed(proc.stdout, name, unit), name
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cli.command_s"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    spans = ROOT / "perfbench" / "out" / f"spans-{workload}-seed7.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert first["name"] == "bench.task" and first["parent"] is None


@pytest.mark.parametrize("workload, file, corrupt", [
    ("report", "report_order1.json",
     lambda doc: doc["checks"][5].update(residual="1")),
    ("contract-solve", "contract_solve.json",
     lambda doc: doc.update(L_N={"K*N": "2*lam"})),
])
def test_corrupted_expected_value_fails(tmp_path, workload, file, corrupt):
    for f in (BENCH / "expected").iterdir():
        shutil.copy(f, tmp_path)
    doc = json.loads((tmp_path / file).read_text())
    corrupt(doc)
    (tmp_path / file).write_text(json.dumps(doc))
    proc, result = bench(workload, 0, "--expected-dir", str(tmp_path))
    assert proc.returncode != 0
    assert not result["correct"]
    assert result["failed"] > 0
    ratio = re.search(r"^failed_ratio\s+(\S+) ratio", proc.stdout, re.M)
    assert float(ratio.group(1)) > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spec_lists_every_metric():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert e2e == set(END_TO_END_UNITS)
    assert not e2e & set(PRINTED_UNITS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(PER_LAYER_UNITS)


def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 13)]
    pct, value = tail(values)
    assert value == 2.0 and sum(v > value for v in values) == 10
    assert round(pct) == 17
    assert tail([3.0, 1.0]) == (100.0, 3.0)


def test_pacer_nets_out_its_samples():
    assert reference() == reference()
    with Pacer() as pacer:
        outcome, wall, cpu, cost = pacer.measure(
            lambda: [reference() for _ in range(60)])
    assert len(outcome) == 60
    assert pacer.samples and pacer.busy > 0
    # sixty reference computations, with the sampler's own taken out
    assert 30 < cost < 120
    assert 0 < cpu and 0 < wall
    with Pacer() as pacer:  # shorter than one sampling interval
        assert pacer.measure(lambda: None)[3] >= 0


def test_tracer_counts_self_time_and_nesting():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    def outer():
        inner()
        return wrapped_leaf()

    inner = tracer.wrap(lambda: wrapped_leaf(), "m.inner", "m", SPAN, None,
                        None)
    wrapped_leaf = tracer.wrap(leaf, "m.leaf", "m", HOT, None, None)
    tracer.run_task(0, tracer.wrap(outer, "m.outer", "m", SPAN, None, None))
    assert tracer.calls == {"m.inner": 1, "m.leaf": 2, "m.outer": 1,
                            "bench.task": 1}
    assert [s[0] for s in tracer.spans] == ["bench.task", "m.outer",
                                            "m.inner"]
    assert tracer.nesting_errors() == []
    # leaf calls are one tick long; everything else is wrapper-to-wrapper
    assert tracer.self_s["m.leaf"] == 2.0
    name, start, end, parent, task = tracer.spans[2]
    tracer.spans[2] = (name, start, tracer.spans[1][2] + 1, parent, task)
    assert tracer.nesting_errors()


def test_tracer_uninstall_restores_the_program():
    from qcontract import catalog, cli, scalars

    before = (scalars.Scalar.__mul__, cli.main,
              catalog._BUILDERS["suq2"], catalog.parse_expression)
    tracer = Tracer()
    tracer.install()
    assert scalars.Scalar.__mul__ is not before[0]
    assert catalog._BUILDERS["suq2"] is not before[2]
    tracer.uninstall()
    assert (scalars.Scalar.__mul__, cli.main, catalog._BUILDERS["suq2"],
            catalog.parse_expression) == before
