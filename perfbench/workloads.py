"""The three benchmark workloads: their seeded inputs, tasks and oracles.

A workload yields its tasks in cycles; a run ends only at a cycle boundary,
so every run holds the same mix (orders, builtins) and medians compare
across seeds.  ``MIN_TASKS`` (at least 11, for ``task_cost_tail``) is the
fewest tasks an untraced run measures, whatever ``--seconds`` says.
``Task.run`` is the timed part and calls qcontract the way a
user does; ``Workload.verify`` runs afterwards, outside the timed part, and
returns the reasons a task's verdict is wrong (empty when it is right).  A
task that raises (``StepLimitExceeded`` from a library call, say) fails
without reaching ``verify``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from fractions import Fraction
from pathlib import Path
from random import Random

from qcontract import catalog, cli, contract, rewrite
from qcontract.parser import parse_expression
from qcontract.reports import REPORT_SCHEMA
from qcontract.scalars import GaussianRational, ParamMonomial, Scalar

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """``qcontract <argv>`` in this process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Task:
    def __init__(self, label: str, run, data=None):
        self.label = label
        self.run = run
        self.data = data


# -- report ----------------------------------------------------------------


class Report:
    """``qcontract report --output json`` at orders 1 and 4 with seeded
    ``--seed`` values: the full pipeline, every layer."""

    ORDERS = (1, 4)
    CHECKS = 264
    #: the cost of one report varies by about 20% with ``--seed``
    MIN_TASKS = 18

    def __init__(self, seed: int, expected_dir: Path = EXPECTED_DIR):
        self.rng = Random(seed)
        self.expected = {
            k: _without_seed(json.loads(
                (expected_dir / f"report_order{k}.json").read_text()))
            for k in self.ORDERS}

    def cycles(self):
        while True:
            yield [self._task(k, self.rng.randrange(2**31))
                   for k in self.ORDERS]

    def _task(self, k: int, s: int) -> Task:
        argv = ["report", "--output", "json", "--order", str(k),
                "--seed", str(s)]
        return Task(f"report --order {k} --seed {s}",
                    lambda: call_cli(argv), data=k)

    def verify(self, task: Task, outcome) -> list[str]:
        import jsonschema

        code, out, err = outcome
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        doc = json.loads(out)
        errors = [e.message for e in
                  jsonschema.Draft7Validator(REPORT_SCHEMA).iter_errors(doc)]
        checks = doc.get("checks", [])
        if len(checks) != self.CHECKS:
            errors.append(f"{len(checks)} checks, expected {self.CHECKS}")
        errors += [f"check {c['name']} fails" for c in checks
                   if c.get("status") != "pass"]
        if _without_seed(doc) != self.expected[task.data]:
            errors.append(f"differs from expected/report_order{task.data}.json")
        return errors


def _without_seed(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    doc["config"].pop("seed", None)
    return doc


# -- nf-stress -------------------------------------------------------------

KLMN = ("ekappa2-klmn", {"K": 1, "L": 0, "M": 0, "N": 0}, "lam", (0, 1), 5)
#: one cycle: builtin, Hopf generators with their counits, parameter,
#: parameter exponents, number of linear-form factors.  A suq2 task costs
#: about 210 ref, klmn 490 and final 1300 (0.6, 1.3 and 3.5 s on a slow
#: host); with klmn twice, a 12-task run sorts into 3 suq2, 6 klmn and 3
#: final tasks, so the median falls in the middle of the klmn tasks and the
#: tail (10 beyond) in the middle of the suq2 tasks, not on the edge of a
#: group.  suq2 at 6 factors (about 1100 ref) would overlap final.
NF_INPUTS = (
    ("suq2", {"a": 1, "b": 0, "c": 0, "d": 1}, "q", (-1, 0, 1), 5),
    KLMN,
    KLMN,
    ("ekappa2-final", {"eta": 0, "etabar": 0, "E": 1, "F": 1}, "lam",
     (0, 1), 5),
)
ORDER = 1  # the CLI's default truncation order


class NfStress:
    """``qcontract nf`` on seeded products of random linear forms in the
    Hopf generators of each builtin: rewriting and expansion only."""

    MIN_TASKS = 12

    def __init__(self, seed: int, expected_dir: Path = EXPECTED_DIR):
        self.seed = seed
        self.rng = Random(seed)
        self._loaded = {}

    def cycles(self):
        while True:
            yield [self._task(*spec) for spec in NF_INPUTS]

    def _task(self, builtin, counits, param, exps, n) -> Task:
        forms = [[(g, self._coeff(param, exps)) for g in counits]
                 for _ in range(n)]
        expr = "*".join(
            "(" + " + ".join(f"{_format_coeff(c)}*{g}" for g, c in form) + ")"
            for form in forms)
        argv = ["nf", "-p", f"builtin:{builtin}", expr]
        return Task(f"nf builtin:{builtin} n={n}", lambda: call_cli(argv),
                    data=(builtin, counits, forms, expr))

    def _coeff(self, param, exps):
        re_ = im = 0
        while re_ == 0 and im == 0:
            re_, im = self.rng.randint(-3, 3), self.rng.randint(-2, 2)
        return (Fraction(re_, self.rng.randint(1, 3)), im, param,
                self.rng.choice(exps))

    def _presentation(self, builtin):
        if builtin not in self._loaded:
            self._loaded[builtin] = catalog.load_presentation(
                f"builtin:{builtin}", ORDER)
        return self._loaded[builtin]

    def verify(self, task: Task, outcome) -> list[str]:
        code, out, err = outcome
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        builtin, counits, forms, expr = task.data
        h = self._presentation(builtin)
        p = h.base
        params = tuple(sorted(set(p.params) | {"q", "lam"}))
        got = parse_expression(out.strip(), p.alphabet, params, ORDER)
        errors = []
        lhs = [tuple(g.name for g in r.lhs) for r in p.rules]
        for word in got.terms:
            names = tuple(g.name for g in word)
            for left in lhs:
                if any(names[i:i + len(left)] == left
                       for i in range(len(names) - len(left) + 1)):
                    errors.append(f"printed word {'*'.join(names)} contains "
                                  f"the rule left side {'*'.join(left)}")
                    break
        counit = Scalar.one(ORDER)
        for form in forms:
            counit = counit * sum(
                (_coeff_scalar(c) * counits[g] for g, c in form),
                Scalar.zero(ORDER))
        if h.apply_counit(got) != counit:
            errors.append(f"counit {h.apply_counit(got)} != {counit}")
        x = parse_expression(expr, p.alphabet, params, ORDER)
        rng = Random(f"oracle-{self.seed}-{expr}")
        if rewrite.normal_form_random(p, x, rng) != got:
            errors.append("differs from the randomized-strategy normal form")
        return errors


def _format_coeff(c) -> str:
    re_, im, param, exp = c
    sign = "-" if im < 0 else "+"
    mono = f"*{param}^{exp}" if exp else ""
    return f"({re_} {sign} {abs(im)}*i){mono}"


def _coeff_scalar(c) -> Scalar:
    re_, im, param, exp = c
    mono = ParamMonomial.of(param, exp) if exp else ParamMonomial.unit()
    return Scalar({(mono, 0): GaussianRational(re_, im)}, ORDER)


# -- contract-solve ----------------------------------------------------------

_COEFF = re.compile(r"^\[ok  \] solver/(\S+)/coefficient\[(\S+)\]"
                    r"(?:  \[[^]]*\])?(?:  = (.*))?$")


class ContractSolve:
    """The contraction engine and both commutator solvers at a seeded order:
    no Hopf random layer."""

    LN_DEGREE = 5
    #: four cycles of the four orders
    MIN_TASKS = 16

    def __init__(self, seed: int, expected_dir: Path = EXPECTED_DIR):
        self.rng = Random(seed)
        self.expected = json.loads(
            (expected_dir / "contract_solve.json").read_text())

    def cycles(self):
        while True:
            orders = [1, 2, 3, 4]
            self.rng.shuffle(orders)
            yield [self._task(k) for k in orders]

    def _task(self, k: int) -> Task:
        def run():
            out = {
                "contract": call_cli(["contract", "--order", str(k)]),
                "contract-lam-zero": call_cli(
                    ["contract", "--order", str(k), "--lam-zero"]),
                "solve": call_cli(["solve-commutator", "--ln",
                                   "--order", str(k)]),
            }
            basis = contract.ln_basis_kmn(k, self.LN_DEGREE)
            ln = contract.solve_ln_commutator(k, basis)
            ext = contract.klmn_with_ln_rule(ln.solution, basis, k)
            out["ln"] = (len(basis), ln.status,
                         {lab: str(c) for lab, c in ln.solution.items()
                          if not c.is_zero},
                         rewrite.check_local_confluence(ext).ok)
            return out
        return Task(f"contract-solve --order {k}", run, data=k)

    def verify(self, task: Task, outcome) -> list[str]:
        exp = self.expected
        errors = []
        for key in ("contract", "contract-lam-zero", "solve"):
            code, out, err = outcome[key]
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                errors.append(f"{key}: exit {code}: {err.strip()}")
                continue
            errors += [f"{key}: {line}" for line in lines[:-1]
                       if not line.startswith("[ok  ]")]
            if key.startswith("contract") and lines[-1] != (
                    f"checks: {exp['contract_checks']}  failed: 0"):
                errors.append(f"{key}: {lines[-1]}")
        solved = {"eta-etabar": {}, "L-N": {}}
        for line in outcome["solve"][1].splitlines():
            m = _COEFF.match(line)
            if m:
                solved[m.group(1)][m.group(2)] = m.group(3) or "0"
        if solved["eta-etabar"] != exp["eta_etabar"]:
            errors.append(f"[eta,etabar] solved as {solved['eta-etabar']}")
        if solved["L-N"] != exp["L_N"]:
            errors.append(f"[L,N] solved as {solved['L-N']}")
        size, status, solution, confluent = outcome["ln"]
        if (size, status) != (exp["ln_basis_size"], "unique"):
            errors.append(f"degree-{self.LN_DEGREE} [L,N] solve: {size} "
                          f"unknowns, {status}")
        if solution != exp["L_N"]:
            errors.append(f"degree-{self.LN_DEGREE} [L,N] solved as {solution}")
        if not confluent:
            errors.append("klmn with the solved [L,N] rule is not confluent")
        return errors


WORKLOADS = {
    "report": Report,
    "nf-stress": NfStress,
    "contract-solve": ContractSolve,
}
