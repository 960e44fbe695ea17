"""The step budget: one limit, set by ``rewrite.step_limit`` (the command
line's ``--step-limit``), bounds every reduction and expansion."""

import inspect

import pytest

from qcontract import catalog, cli, contract, hopf, parser, rewrite
from qcontract.cli import main
from qcontract.rewrite import StepLimitExceeded, allowance, step_limit


def _functions(module):
    """Every function and method defined in ``module``."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", [catalog, cli, contract, hopf, parser,
                                    rewrite], ids=lambda m: m.__name__)
def test_no_function_takes_a_step_limit(module):
    takers = [name for name, fn in _functions(module)
              if "step_limit" in inspect.signature(fn).parameters]
    assert takers == []


def test_step_limit_sets_and_restores_the_limit():
    before = allowance()
    with step_limit(7):
        assert allowance() == [7]
        with step_limit(3):
            assert allowance() == [3]
        assert allowance() == [7]
    assert allowance() == before == [rewrite.DEFAULT_STEP_LIMIT]


def test_step_limit_restores_the_previous_limit_after_an_exception(
        suq2, pe_suq2):
    x = pe_suq2("d*d*d*a*a*a")
    with step_limit(50):
        with pytest.raises(StepLimitExceeded), step_limit(3):
            suq2.base.normal_form(x)
        assert allowance() == [50]
        suq2.base.normal_form(x)  # reduces within 50 steps
    assert allowance() == [rewrite.DEFAULT_STEP_LIMIT]


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [
    # [L, N] is solved under the limit too, not only [eta, etabar]
    ("solve-commutator", "--ln", "--step-limit", "10"),
    # the antipode and fold normal forms of the Hopf suite are charged
    ("hopf-check", "-p", "builtin:ekappa2-klmn", "--step-limit", "672"),
])
def test_limit_bounds_every_normal_form_of_a_command(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 3
    assert err.startswith("step limit exceeded: ")


def test_hopf_check_reduces_through_the_table(capsys):
    # the slot-swap rewriter needed 1964 steps for this suite
    code, out, err = _run(capsys, "hopf-check", "-p", "builtin:ekappa2-klmn",
                          "--step-limit", "1417")
    assert (code, err) == (0, "")


# Smallest limits at which these commands pass: every normal form, the
# solvers' marker presentations included, reduces through the table, which
# charges one step per fill and per coefficient product formed.
@pytest.mark.parametrize("argv,limit", [
    (("contract",), 290),
    (("solve-commutator", "--ln"), 535),
    (("report",), 952),
], ids=["contract", "solve-commutator --ln", "report"])
def test_command_step_limit_threshold(capsys, argv, limit):
    code, out, err = _run(capsys, *argv, "--step-limit", str(limit - 1))
    assert code == 3
    assert err.startswith("step limit exceeded: ")
    code, out, err = _run(capsys, *argv, "--step-limit", str(limit))
    assert (code, err) == (0, "")
    assert out.endswith("failed: 0\n")


def test_limit_bounds_typed_products(capsys, tmp_path):
    # no rules, so nothing is reduced: 16 + 64 + 256 + 1024 pairs of terms
    # by the fifth factor
    src = tmp_path / "free.preso"
    src.write_text("[generators]\na b c d\n")
    code, out, err = _run(capsys, "nf", "-p", str(src), "--step-limit", "1000",
                          "*".join(["(a+b+c+d)"] * 8))
    assert (code, out) == (3, "")
    assert err == ("step limit exceeded: step limit exceeded while expanding "
                   "a product\n")


def test_limit_bounds_reduced_typed_products(capsys):
    code, out, err = _run(capsys, "nf", "--step-limit", "1000",
                          "*".join(["(a+b+c+d)"] * 8))
    assert (code, out) == (3, "")
    assert err == ("step limit exceeded: step limit exceeded while reducing "
                   "in suq2\n")


# Smallest limits at which ``nf`` (in suq2) passes, and the message one below.
# The expression is reduced factor by factor, so a power is charged on its
# reduced left operand: (a+b+c+d)^8 needed 912,084 when its 65,536 free
# words were reduced after expanding, (d*a)^5 only 36.
@pytest.mark.parametrize("expr,limit,trips", [
    ("(a+b+c+d)^8", 8720, "expanding a power"),
    ("*".join(["(a+b+c+d)"] * 8), 3663, "reducing in suq2"),
    ("(d*a)^4", 65, "expanding a power"),
    ("(d*a)^5", 116, "expanding a power"),
    ("(d*d*a*a)^3", 122, "reducing in suq2"),
    ("d*d*d*d*a*a*a*a", 92, "reducing in suq2"),
])
def test_nf_step_limit_threshold(capsys, expr, limit, trips):
    assert _run(capsys, "nf", "--step-limit", str(limit - 1), expr) == (
        3, "", f"step limit exceeded: step limit exceeded while {trips}\n")
    code, out, err = _run(capsys, "nf", "--step-limit", str(limit), expr)
    assert (code, err) == (0, "")


def test_repeated_products_are_not_charged_again(capsys):
    # a memoised product charges the coefficient products it forms, not the
    # fills it once cost, so this passes at the default limit
    code, out, err = _run(capsys, "nf", "-p", "builtin:ekappa2-klmn",
                          "(K+L+M+N)^9")
    assert (code, err) == (0, "")
    assert out.startswith("L^9 + L^8*N + ")


def test_limit_bounds_presentation_file_expansion(capsys, tmp_path):
    src = tmp_path / "cube.preso"
    src.write_text("[generators]\nb c\n\n[rules]\nc*c*c*c -> b^3\n")
    # b^3 costs 2 + 3 + 4 steps to expand
    assert _run(capsys, "nf", "-p", str(src), "--step-limit", "9",
                "c*c*c*c") == (0, "b^3\n", "")
    assert _run(capsys, "nf", "-p", str(src), "--step-limit", "8",
                "c*c*c*c") == (
        3, "", "step limit exceeded: step limit exceeded while expanding a "
               "power\n")


@pytest.mark.parametrize("value", ["0", "-5", "1.5"])
def test_non_positive_limit_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["nf", "--step-limit", value, "a"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"invalid positive integer: '{value}'" in out.err
