#!/usr/bin/env python3
"""Snapshot the output of a fixed list of qcontract commands.

Usage: snapshot_outputs.py OUTDIR  (from the root of the repository: 20
commands read presentation files under ``tests/golden``)

Each command runs in-process through ``qcontract.cli.main``; its exit code,
stdout and stderr go to one file in OUTDIR named after its arguments.
Snapshots of two versions of the program compare with ``diff -r``: no
difference means every output is byte-identical.  ``--timings`` is left out
on purpose, since it stamps wall-clock time into the output.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qcontract.cli import main as cli_main

NF_INPUTS = {
    "suq2": "(a + b + c + d)^3",
    "ekappa2-klmn": "(K + L + M + N)^3",
    "ekappa2-final": "(eta + etabar + E + F)^3",
}

#: three linear forms with fractional Gaussian coefficients times parameter
#: powers, the nf-stress shape: the output prints multi-term coefficients
#: with denominators
FRACTIONAL_FORMS = (
    "((1/2 + i)*{0} + (2/3 - i)*{p}*{1} - 3/2*i*{2} + 1/3*{p}^2*{3})",
    "((1 - 1/2*i)*{p}*{0} + (1/3 + 2*i)*{1} - 5/2*{p}*{2} + (3/4 - i)*{3})",
    "(2/3*i*{0} + (1/2 - 1/3*i)*{p}*{1} + (1 + i)*{2} - 1/2*{p}*{3})",
)
NF_FRACTIONAL = {
    name: "*".join(f.format(*gens, p=param) for f in FRACTIONAL_FORMS)
    for name, gens, param in (("suq2", "abcd", "q"),
                              ("ekappa2-klmn", "KLMN", "lam"),
                              ("ekappa2-final", ("eta", "etabar", "E", "F"),
                               "lam"))}


COMMAND_NAMES = ("nf", "confluence", "hopf-check", "contract",
                 "solve-commutator", "report")


def _commands() -> list[list[str]]:
    cmds = [["report", "--output", "json", "--order", str(k), "--seed", str(s)]
            for s in (1, 7, 42) for k in range(5)]
    cmds += [["report", *lz, *out]
             for lz in ([], ["--lam-zero"])
             for out in ([], ["--output", "json"])]
    for name, expr in NF_INPUTS.items():
        p = ["-p", f"builtin:{name}"]
        cmds += [["nf", *p, expr], ["confluence", *p], ["hopf-check", *p]]
    for k in ("1", "4"):
        cmds += [["contract", "--order", k, *lz, *out]
                 for lz in ([], ["--lam-zero"])
                 for out in ([], ["--output", "json"])]
        cmds += [["solve-commutator", "--order", k, *ln, *lz]
                 for ln in ([], ["--ln"])
                 for lz in ([], ["--lam-zero"])]
    # one limit trips while expanding the power, one while reducing
    cmds.append(["nf", "--step-limit", "100", "(a + b + c + d)^6"])
    cmds.append(["nf", "--step-limit", "20", "d*d*d*d*a*a*a*a"])
    # stress inputs reduced factor by factor, and a power of a word, whose
    # charge counts its reduced left operand
    cmds.append(["nf", "(a + b + c + d)^10"])
    cmds.append(["nf", "-p", "builtin:ekappa2-klmn", "(K + L + M + N)^7"])
    cmds.append(["nf", "--step-limit", "100", "(d*a)^4"])
    cmds += [["nf", "-p", f"builtin:{name}", expr]
             for name, expr in NF_FRACTIONAL.items()]
    # products of coefficients holding eps: their eps^2 terms are dropped
    cmds.append(["nf", "--order", "1", "((1/2 + eps)*a + (1 - i*eps)*b)^3"])
    # the classical limit reads lam as 0 in an expression too
    cmds.append(["nf", "-p", "builtin:ekappa2-klmn", "--lam-zero",
                 "lam*K + L*K"])
    # report trips one below its smallest passing limit, and early under
    # lam = 0; each message names the presentation being reduced
    cmds.append(["report", "--step-limit", "951"])
    cmds.append(["report", "--lam-zero", "--step-limit", "100"])
    # a broken antipode: four generator checks and the random layer fail
    cmds.append(["hopf-check", "-p", "tests/golden/suq2_bad_antipode.preso"])
    # a broken coproduct: failing 2- and 3-slot residuals are printed
    cmds += [["hopf-check", "-p", "tests/golden/suq2_bad_coproduct.preso",
              *out] for out in ([], ["--output", "json"])]
    # a double star holding the subword L N: the Hopf checks record it as a
    # FAIL, where the contraction would refuse it as the undetermined [L, N]
    cmds.append(["hopf-check", "-p", "tests/golden/star_ln.preso"])
    # a normal form holding two excluded generators: the error names the
    # first in alphabet order, under every hash seed
    cmds.append(["hopf-check", "-p", "tests/golden/two_excluded.preso"])
    # the random layer's failure counts on both broken fixtures vary by seed
    cmds += [["hopf-check", "-p", f"tests/golden/suq2_bad_{part}.preso",
              "--seed", seed]
             for part in ("antipode", "coproduct") for seed in "123"]
    # contract, solve-commutator and report take no presentation, and no
    # command takes an option it would ignore
    cmds.append(["contract", "-p", "tests/golden/suq2_bad_coproduct.preso"])
    cmds += [["nf", "--output", "json", "a*d"],
             ["solve-commutator", "--seed", "5"]]
    # a klmn with a doubled L*K deformation and a flipped star of N: the
    # relation, star-square, identity and realization records fail, so
    # their residual strings are compared too
    cmds += [["contract", "--order", "1", "--catalog-dir",
              "tests/golden/corrupted_klmn", *out]
             for out in ([], ["--output", "json"])]
    # confluence records one check per ambiguity and report counts the
    # failing ones per builtin: 3-letter ambiguities skipped under
    # --max-overlap 2, and the corrupted klmn's unresolved ones
    cmds += [["confluence", "--max-overlap", "2"],
             ["confluence", "-p",
              "tests/golden/corrupted_klmn/ekappa2_klmn.preso"],
             ["report", "--max-overlap", "2"],
             ["report", "--catalog-dir", "tests/golden/corrupted_klmn"]]
    # grouplike eta and etabar: the [eta, etabar] solve is not linear
    cmds.append(["solve-commutator", "--catalog-dir",
                 "tests/golden/nonlinear_final"])
    # malformed files exit 2 with one line: a rule side nested too deep,
    # and a [counit] with no entry for b
    cmds.append(["nf", "-p", "tests/golden/deep_nesting.preso", "a"])
    cmds.append(["hopf-check", "-p",
                 "tests/golden/suq2_incomplete_counit.preso"])
    # malformed expressions exit 2 with one line: a stray character, an
    # open group, a name as exponent, an open commutator, a zero
    # denominator, a superscript digit and a tensor where nf reduces
    cmds += [["nf", expr] for expr in ("a*$", "(a", "a^b", "[a, b",
                                       "a + 1/0", "a^\u00b2", "a ox b")]
    # numbers longer than int() reads or str() writes exit 2 with one line:
    # a 5,000-digit literal, a power, a rule coefficient naming its line;
    # a power of a scalar is charged by the size of its numbers and exits 3
    cmds += [["nf", "7" * 5000 + "*a"], ["nf", "2^20000*a"],
             ["nf", "-p", "tests/golden/huge_coefficient.preso", "x"],
             ["nf", "2^99999999*a"]]
    # the help texts: a command's parser holds only its own options
    cmds += [["--help"]] + [[cmd, "--help"] for cmd in COMMAND_NAMES]
    return cmds


COMMANDS = _commands()


def file_name(argv: list[str]) -> str:
    """A file name that names the command: its arguments joined by ``_``;
    letters, digits, ``.`` and ``-`` are kept, each run of blanks and of
    the characters ``_:/*^()+`` becomes one ``_``, and any other character
    is written as ``u`` and its code point in hex (``$`` as ``u24``).  A
    name longer than 100 characters keeps its first 60 and a digest of the
    whole."""
    text = re.sub(r"[^A-Za-z0-9.\s_:/*^()+-]",
                  lambda m: f"_u{ord(m.group()):x}_", "_".join(argv))
    name = re.sub(r"[\s_:/*^()+]+", "_", text).strip("_")
    if len(name) > 100:
        name = f"{name[:60]}_{hashlib.sha256(name.encode()).hexdigest()[:12]}"
    return name + ".txt"


def run(argv: list[str]) -> tuple[int, str, str]:
    # argparse wraps its usage message to the terminal's width; fix it
    os.environ["COLUMNS"] = "80"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def snapshot(outdir: Path, commands=COMMANDS) -> list[Path]:
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for argv in commands:
        code, out, err = run(argv)
        path = outdir / file_name(argv)
        path.write_text(f"$ qcontract {' '.join(argv)}\nexit: {code}\n"
                        f"--- stdout\n{out}--- stderr\n{err}")
        written.append(path)
    return written


def main(args=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outdir", type=Path)
    ns = ap.parse_args(args)
    for path in snapshot(ns.outdir):
        print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
