"""Smoke test of ``scripts/snapshot_outputs.py`` on a few quick commands."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "snapshot_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("snapshot_outputs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_command_list_covers_the_pipeline():
    mod = load_script()
    lines = [" ".join(c) for c in mod.COMMANDS]
    assert len(lines) == len(set(lines))
    assert len({mod.file_name(c) for c in mod.COMMANDS}) == len(lines)
    for seed in (1, 7, 42):
        for k in range(5):
            assert (f"report --output json --order {k} --seed {seed}"
                    in lines)
    assert "report --lam-zero --output json" in lines
    assert "solve-commutator --order 4 --ln --lam-zero" in lines
    # one below the smallest limit at which report passes (test_step_budget)
    assert "report --step-limit 951" in lines
    bad = "tests/golden/suq2_bad_coproduct.preso"
    assert f"hopf-check -p {bad}" in lines
    assert f"hopf-check -p {bad} --output json" in lines
    assert f"contract -p {bad}" in lines
    assert "nf --output json a*d" in lines
    assert "solve-commutator --seed 5" in lines
    assert not any("--timings" in line for line in lines)


def test_snapshot_subset_is_deterministic(tmp_path):
    mod = load_script()
    subset = [c for c in mod.COMMANDS
              if c[0] == "nf" or c[:2] == ["confluence", "-p"]]
    first = mod.snapshot(tmp_path / "a", subset)
    second = mod.snapshot(tmp_path / "b", subset)
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()
    by_name = {p.name: p.read_text() for p in first}
    limited = by_name["nf_--step-limit_20_d_d_d_d_a_a_a_a.txt"]
    assert limited == (
        "$ qcontract nf --step-limit 20 d*d*d*d*a*a*a*a\nexit: 3\n"
        "--- stdout\n--- stderr\n"
        "step limit exceeded: step limit exceeded while reducing in suq2\n")
    assert by_name["confluence_-p_builtin_suq2.txt"].startswith(
        "$ qcontract confluence -p builtin:suq2\nexit: 0\n--- stdout\n")

