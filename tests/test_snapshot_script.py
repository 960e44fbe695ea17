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
    # a Hopf record whose residual holds L N, which the contraction refuses
    assert "hopf-check -p tests/golden/star_ln.preso" in lines
    # an error naming one of two excluded generators, under CI's hash seeds
    assert "hopf-check -p tests/golden/two_excluded.preso" in lines
    for part in ("antipode", "coproduct"):
        for seed in (1, 2, 3):
            assert (f"hopf-check -p tests/golden/suq2_bad_{part}.preso "
                    f"--seed {seed}" in lines)
    assert "nf --output json a*d" in lines
    assert 'nf --order 1 ((1/2 + eps)*a + (1 - i*eps)*b)^3' in lines
    assert "solve-commutator --seed 5" in lines
    # the per-ambiguity confluence records and report's counts of them
    klmn = "tests/golden/corrupted_klmn"
    assert "confluence --max-overlap 2" in lines
    assert f"confluence -p {klmn}/ekappa2_klmn.preso" in lines
    assert "report --max-overlap 2" in lines
    assert f"report --catalog-dir {klmn}" in lines
    assert not any("--timings" in line for line in lines)
    assert "--help" in lines
    for command in ("nf", "confluence", "hopf-check", "contract",
                    "solve-commutator", "report"):
        assert f"{command} --help" in lines


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
    # eps^2 and eps^3 are dropped from every product of the eps terms
    truncated = by_name[mod.file_name(
        ["nf", "--order", "1", "((1/2 + eps)*a + (1 - i*eps)*b)^3"])]
    assert truncated.startswith(
        "$ qcontract nf --order 1 ((1/2 + eps)*a + (1 - i*eps)*b)^3\n"
        "exit: 0\n--- stdout\n1/8*a^3 + 3/4*eps*a^3 + ")
    assert "eps*b^3\n--- stderr\n" in truncated and "eps^" not in truncated
    assert by_name["confluence_-p_builtin_suq2.txt"].startswith(
        "$ qcontract confluence -p builtin:suq2\nexit: 0\n--- stdout\n")

