import json
import re
import shutil
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from renaming import reversed_names, section_names, substituted

from qcontract import catalog, cli, contract, parser, rewrite, scalars
from qcontract.cli import main
from qcontract.freealg import format_word
from qcontract.reports import REPORT_SCHEMA

DATA = Path(__file__).parent.parent / "src" / "qcontract" / "data"
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _shipped_copy(tmp_path) -> Path:
    """A catalog directory holding a copy of the shipped files."""
    bad = tmp_path / "cat"
    bad.mkdir()
    for f in DATA.glob("*.preso"):
        shutil.copy(f, bad / f.name)
    return bad


def _corrupted_klmn(tmp_path) -> Path:
    """A copy of the shipped files whose klmn rule for L*K carries twice
    its lam*M^2 term; the file stays canonical."""
    bad = _shipped_copy(tmp_path)
    target = bad / "ekappa2_klmn.preso"
    text = target.read_text()
    assert "L*K -> lam*M^2 + K*L" in text
    target.write_text(text.replace("L*K -> lam*M^2 + K*L",
                                   "L*K -> 2*lam*M^2 + K*L"))
    return bad


def _nonlinear_final(tmp_path) -> Path:
    """A copy of the shipped files whose eta and etabar are grouplike, so
    the coproduct condition on [eta, etabar] holds the commutator twice in
    a word; the file stays canonical."""
    bad = _shipped_copy(tmp_path)
    target = bad / "ekappa2_final.preso"
    text = target.read_text()
    for old, new in (("eta -> F ox eta + eta ox 1 @ Eq. (30)",
                      "eta -> eta ox eta"),
                     ("etabar -> E ox etabar + etabar ox 1 @ Eq. (31)",
                      "etabar -> etabar ox etabar")):
        assert old in text
        text = text.replace(old, new)
    target.write_text(text)
    return bad


# builtin files parsed and Presentations built by one run of the command
@pytest.mark.parametrize("argv,parses,max_presentations", [
    (("report",), 3, 8),
    (("report", "--lam-zero"), 3, 10),
    (("contract",), 3, 4),
    (("solve-commutator", "--ln"), 2, 5),
], ids=["report", "report --lam-zero", "contract", "solve-commutator --ln"])
def test_each_builtin_is_loaded_once(capsys, monkeypatch, argv, parses,
                                     max_presentations):
    counts = {"parse": 0, "presentation": 0}
    parse = catalog.parse_presentation_text
    init = rewrite.Presentation.__init__

    def counting_parse(*args, **kwargs):
        counts["parse"] += 1
        return parse(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts["presentation"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(catalog, "parse_presentation_text", counting_parse)
    monkeypatch.setattr(rewrite.Presentation, "__init__", counting_init)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("failed: 0\n")
    assert counts["parse"] == parses
    assert counts["presentation"] <= max_presentations


def _table_entries_besides_the_units():
    return (len(scalars._PRODUCTS), len(scalars._SUMS),
            [s for s in scalars._SINGLES.values() if not s.is_one])


@pytest.mark.parametrize("argv,exit_code", [
    (("nf", "(a + b + c + d)^3"), 0),
    (("nf", "q*a + 2^20000*a"), 2),
    (("nf", "--step-limit", "20", "d*d*d*d*a*a*a*a"), 3),
])
def test_a_command_starts_and_ends_with_empty_scalar_tables(
        capsys, monkeypatch, argv, exit_code):
    at_start = []

    def cmd_nf(args):
        at_start.append(_table_entries_besides_the_units())
        return original(args)

    original = cli.cmd_nf
    monkeypatch.setattr(cli, "cmd_nf", cmd_nf)
    lam = scalars.Scalar.param("lam", 1)
    lam * lam + lam  # left over from before the command
    assert _table_entries_besides_the_units() != (0, 0, [])
    assert run(capsys, *argv)[0] == exit_code
    assert at_start == [(0, 0, [])]
    assert _table_entries_besides_the_units() == (0, 0, [])
    assert scalars.Scalar.one(1).is_one


def test_ln_basis_reads_the_alphabet_without_parsing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("parsed")

    klmn = catalog.ekappa2_klmn_presentation(2).base
    expected = {label: klmn.normal_form(x)
                for label, x in contract.ln_basis_kmn(2).items()}
    monkeypatch.setattr(catalog, "parse_presentation_text", refuse)
    monkeypatch.setattr(catalog, "parse_expression", refuse)
    monkeypatch.setattr(parser, "parse_expression", refuse)
    assert catalog.builtin_alphabet("ekappa2-klmn") == klmn.alphabet
    # normal monomials over the loaded alphabet
    assert contract.ln_basis_kmn(2) == expected
    assert len(expected) == 16


class TestNf:
    def test_q_commutation(self, capsys):
        code, out, _ = run(capsys, "nf", "-p", "builtin:suq2", "a*b")
        assert code == 0
        assert out.strip() == "q*b*a"

    def test_square_relation(self, capsys):
        code, out, _ = run(capsys, "nf", "-p", "builtin:ekappa2-klmn", "M^2")
        assert code == 0
        assert out.strip() == "K^2 - 1"

    def test_lam_zero_reads_lam_as_zero(self, capsys):
        code, out, err = run(capsys, "nf", "-p", "builtin:ekappa2-klmn",
                             "--lam-zero", "lam*K + L*K")
        assert (code, out, err) == (0, "K*L\n", "")
        assert run(capsys, "nf", "-p", "builtin:ekappa2-klmn", "--lam-zero",
                   "lam^-1*K") == (
            2, "", "error: negative power of lam at zero\n")

    def test_already_normal(self, capsys):
        code, out, _ = run(capsys, "nf", "-p", "builtin:suq2", "a")
        assert code == 0
        assert out.strip() == "a"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "nf", "-p", "builtin:suq2", "a*$")
        assert code == 2
        assert "line 1" in err

    def test_unknown_symbol_exits_2(self, capsys):
        code, _, err = run(capsys, "nf", "-p", "builtin:suq2", "a*zz")
        assert code == 2

    def test_step_limit_exits_3(self, capsys):
        code, _, err = run(capsys, "nf", "-p", "builtin:suq2",
                           "--step-limit", "2", "d*d*d*a*a*a")
        assert code == 3

    def test_huge_power_exits_3_within_the_step_limit(self, capsys):
        t0 = time.monotonic()
        code, out, err = run(capsys, "nf", "-p", "builtin:suq2", "a^99999999")
        assert time.monotonic() - t0 < 5
        assert code == 3
        assert out == ""
        assert err == ("step limit exceeded: step limit exceeded while "
                       "expanding a power\n")

    def test_huge_power_in_presentation_file_exits_3_within_the_step_limit(
            self, capsys, tmp_path):
        src = tmp_path / "huge.preso"
        src.write_text("[generators]\nb c\n\n[rules]\nc*b -> b^99999999\n")
        t0 = time.monotonic()
        code, out, err = run(capsys, "nf", "-p", str(src), "b")
        assert time.monotonic() - t0 < 5
        assert code == 3
        assert out == ""
        assert err == ("step limit exceeded: step limit exceeded while "
                       "expanding a power\n")

    def test_literal_longer_than_int_reads_exits_2(self, capsys):
        code, out, err = run(capsys, "nf", "a + " + "7" * 5000 + "*a")
        assert (code, out) == (2, "")
        assert err == ("error: line 1, col 5: number longer than "
                       f"{sys.get_int_max_str_digits()} digits\n")

    def test_number_longer_than_str_writes_exits_2(self, capsys):
        code, out, err = run(capsys, "nf", "2^20000*a")
        assert (code, out) == (2, "")
        assert err == ("error: number too long to print: more than "
                       f"{sys.get_int_max_str_digits()} digits\n")

    def test_unprintable_rule_names_its_file_line(self, capsys, tmp_path):
        src = tmp_path / "huge.preso"
        src.write_text("[generators]\nx y\n\n[rules]\ny*x -> 2^20000*x*y\n")
        code, out, err = run(capsys, "nf", "-p", str(src), "x")
        assert (code, out) == (2, "")
        assert err == ("error: line 5: number too long to print: more than "
                       f"{sys.get_int_max_str_digits()} digits\n")

    @pytest.mark.parametrize("expr", ["2^99999999*a", "2^-99999999*a"])
    def test_huge_scalar_power_exits_3_within_the_step_limit(self, capsys,
                                                             expr):
        # each product of the power is charged by the size of its numbers
        t0 = time.monotonic()
        code, out, err = run(capsys, "nf", expr)
        assert time.monotonic() - t0 < 5
        assert (code, out) == (3, "")
        assert err == ("step limit exceeded: step limit exceeded while "
                       "expanding a power\n")

    def test_non_ascii_digit_is_parse_error(self, capsys):
        code, out, err = run(capsys, "nf", "-p", "builtin:suq2", "a^\u00b2")
        assert code == 2
        assert out == ""
        assert err == "error: line 1, col 3: unexpected character '\u00b2'\n"

    def test_coproduct_hitting_excluded_generator_exits_2(self, capsys,
                                                          tmp_path):
        src = tmp_path / "excluded.preso"
        src.write_text("[generators]\na\n[coproduct]\na -> a ox a\n"
                       "[counit]\na -> 1\n[antipode]\na -> a\n[star]\n"
                       "a -> a\n[excluded]\na\n")
        code, _, err = run(capsys, "nf", "-p", str(src), "a")
        assert code == 2
        assert err == "error: coproduct of a hits excluded generator a\n"

    def test_small_power_unchanged(self, capsys):
        code, out, _ = run(capsys, "nf", "-p", "builtin:suq2", "a^5")
        assert code == 0
        assert out == "a^5\n"

    def test_division_by_zero_is_parse_error(self, capsys):
        code, out, err = run(capsys, "nf", "-p", "builtin:suq2", "a + 1/0")
        assert code == 2
        assert out == ""
        assert err.strip() == "error: line 1, col 5: division by zero"

    def test_misoriented_rule_file_exits_2(self, capsys, tmp_path):
        text = (DATA / "suq2.preso").read_text()
        assert "c*b -> b*c" in text
        src = tmp_path / "flipped.preso"
        src.write_text(text.replace("c*b -> b*c", "b*c -> c*b"))
        code, _, err = run(capsys, "nf", "-p", str(src), "a")
        assert code == 2
        assert err.startswith("error: ")
        assert "b*c -> c*b" in err
        assert len(err.strip().splitlines()) == 1

    def test_duplicate_generator_file_exits_2(self, capsys, tmp_path):
        src = tmp_path / "dup.preso"
        src.write_text("[generators]\na a b\n\n[rules]\nb*a -> a*b\n")
        code, _, err = run(capsys, "nf", "-p", str(src), "a")
        assert code == 2
        assert err.strip() == "error: line 2: duplicate generator 'a'"

    def test_reserved_generator_file_exits_2(self, capsys, tmp_path):
        # a generator i would be read as the imaginary unit
        src = tmp_path / "reserved.preso"
        src.write_text("[generators]\na i\n")
        assert run(capsys, "nf", "-p", str(src), "i*a") == (
            2, "", "error: line 2: 'i' is a reserved word\n")

    def test_binary_file_exits_2(self, capsys, tmp_path):
        src = tmp_path / "binary.preso"
        src.write_bytes(b"[generators]\na \xff\n")
        assert run(capsys, "nf", "-p", str(src), "a") == (
            2, "", f"error: {src}: not UTF-8 text (byte 15)\n")

    def test_directory_exits_2(self, capsys, tmp_path):
        assert run(capsys, "nf", "-p", str(tmp_path), "a") == (
            2, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")

    @pytest.mark.parametrize("make", ["binary", "directory"])
    def test_unreadable_catalog_file_exits_2(self, capsys, tmp_path, make):
        target = tmp_path / "suq2.preso"
        if make == "binary":
            target.write_bytes(b"\xff")
        else:
            target.mkdir()
        code, out, err = run(capsys, "nf", "--catalog-dir", str(tmp_path),
                             "a")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("section,lineno", [
        ("coproduct", 5), ("counit", 8), ("antipode", 11), ("star", 14)])
    def test_bad_map_line_names_its_file_line(self, capsys, tmp_path,
                                              section, lineno):
        images = {"coproduct": "a ox a", "counit": "1", "antipode": "a",
                  "star": "a"}
        images[section] = "a ox (a"
        src = tmp_path / "badmap.preso"
        src.write_text("[generators]\na\n" + "".join(
            f"\n[{name}]\na -> {text}\n" for name, text in images.items()))
        code, out, err = run(capsys, "nf", "-p", str(src), "a")
        assert code == 2
        assert out == ""
        assert err == f"error: line {lineno}: line 1, col 8: expected ')'\n"

    @pytest.mark.parametrize("section,line,lineno,message", [
        ("rule", "a ox a -> a", 5, "rule side must not be a tensor: 'a ox a'"),
        ("rule", "a*a + a -> a", 5,
         "rule left-hand side must be a single word: 'a*a + a'"),
        ("rule", "2*a*a -> a", 5,
         "rule left-hand side must be a plain word: '2*a*a'"),
        ("coproduct", "a -> a", 8,
         "image of a has the wrong tensor rank: 'a'"),
        ("counit", "a -> a", 11, "counit of a must be a scalar: 'a'"),
    ])
    def test_bad_file_entry_names_its_line(self, capsys, tmp_path, section,
                                           line, lineno, message):
        lines = {"rule": "a*a -> 1", "coproduct": "a -> a ox a",
                 "counit": "a -> 1"}
        lines[section] = line
        src = tmp_path / "bad.preso"
        src.write_text(
            "[generators]\na\n\n[rules]\n{rule}\n\n[coproduct]\n"
            "{coproduct}\n\n[counit]\n{counit}\n\n[antipode]\na -> a\n"
            "\n[star]\na -> a\n".format(**lines))
        code, out, err = run(capsys, "nf", "-p", str(src), "a")
        assert code == 2
        assert out == ""
        assert err == f"error: line {lineno}: {message}\n"

    @pytest.mark.parametrize("expr", [
        "(" * 3000 + "a" + ")" * 3000,
        "[" * 500 + "a" + ", b]" * 500,
    ], ids=["parentheses", "commutators"])
    def test_deep_nesting_exits_2(self, capsys, expr):
        assert run(capsys, "nf", expr) == (
            2, "", "error: line 1, col 101: nesting deeper than 100 levels\n")

    def test_deep_rule_side_names_its_file_line(self, capsys, tmp_path):
        src = tmp_path / "deep.preso"
        src.write_text("[generators]\na b\n\n[rules]\nb*a -> "
                       + "(" * 500 + "a*b" + ")" * 500 + "\n")
        assert run(capsys, "nf", "-p", str(src), "a") == (
            2, "", "error: line 5: line 1, col 101: nesting deeper than 100 "
                   "levels\n")

    # b is excluded: it needs a star entry only
    @pytest.mark.parametrize("section,missing", [
        ("coproduct", "a"), ("counit", "a"), ("antipode", "a"),
        ("star", "b")])
    def test_incomplete_hopf_map_exits_2(self, capsys, tmp_path, section,
                                         missing):
        entries = {"coproduct": {"a": "a ox a"}, "counit": {"a": "1"},
                   "antipode": {"a": "a"}, "star": {"a": "a", "b": "b"}}
        del entries[section][missing]
        src = tmp_path / "incomplete.preso"
        src.write_text("[generators]\na b\n[excluded]\nb\n" + "".join(
            f"[{name}]\n" + "".join(f"{g} -> {img}\n"
                                    for g, img in images.items())
            for name, images in entries.items()))
        for argv in (("hopf-check", "-p", str(src)),
                     ("nf", "-p", str(src), "a")):
            assert run(capsys, *argv) == (
                2, "", f"error: incomplete Hopf data: [{section}] has no "
                       f"entry for {missing!r}\n")

    def test_duplicate_hopf_map_entry_exits_2(self, capsys, tmp_path):
        src = tmp_path / "dup.preso"
        src.write_text("[generators]\na\n[coproduct]\na -> a ox a\n"
                       "[counit]\na -> 2\na -> 1\n[antipode]\na -> a\n"
                       "[star]\na -> a\n")
        assert run(capsys, "hopf-check", "-p", str(src)) == (
            2, "", "error: line 7: duplicate entry for 'a'\n")

    def test_file_presentation(self, capsys, tmp_path):
        src = tmp_path / "toy.preso"
        src.write_text("[generators]\nx y\n\n[rules]\ny*x -> x*y\n")
        code, out, _ = run(capsys, "nf", "-p", str(src), "y*x*y")
        assert code == 0
        assert out.strip() == "x*y^2"

    def test_undeclared_parameters_are_unknown_symbols(self, capsys,
                                                        tmp_path):
        src = tmp_path / "toy.preso"
        src.write_text("[generators]\nx y\n\n[rules]\ny*x -> x*y\n")
        assert run(capsys, "nf", "-p", str(src), "q*lam*y*x") == (
            2, "", "error: line 1, col 1: unknown symbol 'q'\n")
        assert run(capsys, "nf", "-p", "builtin:suq2", "lam*a") == (
            2, "", "error: line 1, col 1: unknown symbol 'lam'\n")
        assert run(capsys, "nf", "-p", "builtin:ekappa2-klmn", "q*K") == (
            2, "", "error: line 1, col 1: unknown symbol 'q'\n")
        assert run(capsys, "nf", "-p", "builtin:suq2", "q*a*b") == (
            0, "q^2*b*a\n", "")

    def test_deep_fill_chain_falls_back_to_the_rewriter(self, capsys,
                                                         tmp_path):
        # x1 -> x0, x2 -> x1, ...: reducing the letter x699 nests 699 fills
        n = 700
        src = tmp_path / "chain.preso"
        src.write_text("[generators]\n" + " ".join(f"x{i}" for i in range(n))
                       + "\n\n[rules]\n"
                       + "".join(f"x{i + 1} -> x{i}\n" for i in range(n - 1)))
        assert run(capsys, "nf", "-p", str(src), f"x{n - 1}^2 + x3") == (
            0, "x0^2 + x0\n", "")

    def test_tensor_expression_is_not_reduced(self, capsys):
        assert run(capsys, "nf", "a ox b") == (
            2, "", "error: element over Alphabet(names=('b', 'c', 'a', 'd'), "
                   "slot_count=2) fed to presentation over Alphabet(names="
                   "('b', 'c', 'a', 'd'), slot_count=1)\n")


class TestConfluence:
    def test_builtins_pass(self, capsys):
        for name in ("suq2", "ekappa2-klmn", "ekappa2-final"):
            code, out, _ = run(capsys, "confluence", "-p", f"builtin:{name}")
            assert code == 0
            assert "failed: 0" in out

    def test_ambiguities_beyond_max_overlap_fail(self, capsys):
        _, full, _ = run(capsys, "confluence", "-p", "builtin:suq2")
        code, out, _ = run(capsys, "confluence", "-p", "builtin:suq2",
                           "--max-overlap", "2")
        assert code == 1
        n = len(full.splitlines()) - 1
        assert n > 0
        assert out.splitlines()[-1] == f"checks: {n}  failed: {n}"
        assert all("skipped: 3 letters exceed --max-overlap 2" in line
                   for line in out.splitlines()[:-1])

    def test_max_overlap_below_longest_lhs_exits_2(self, capsys):
        code, out, err = run(capsys, "confluence", "-p", "builtin:suq2",
                             "--max-overlap", "1")
        assert code == 2
        assert out == ""
        assert err == ("error: max overlap 1 is below the longest left-hand "
                       "side (2 letters)\n")

    def test_non_confluent_file_fails(self, capsys, tmp_path):
        src = tmp_path / "bad.preso"
        src.write_text(
            "[generators]\nc b a\n\n[rules]\na*b -> 1\nb*c -> 1\n")
        code, out, _ = run(capsys, "confluence", "-p", str(src))
        assert code == 1
        assert "a*b*c" in out


class TestHopfCheck:
    def test_builtins_pass(self, capsys):
        for name in ("suq2", "ekappa2-klmn", "ekappa2-final"):
            code, out, _ = run(capsys, "hopf-check", "-p", f"builtin:{name}")
            assert code == 0, name

    def test_bare_presentation_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "toy.preso"
        src.write_text("[generators]\nx y\n\n[rules]\ny*x -> x*y\n")
        assert run(capsys, "hopf-check", "-p", str(src)) == (
            2, "", "error: presentation has no Hopf data\n")


class TestContractCommand:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "contract")
        assert code == 0
        assert "failed: 0" in out

    def test_catalog_dir_is_read(self, capsys, tmp_path):
        bad = _corrupted_klmn(tmp_path)
        code, out, _ = run(capsys, "contract", "--catalog-dir", str(bad))
        assert code == 1
        for name in ("rtt[12,12]", "rtt[21,21]", "determinant"):
            assert f"[FAIL] contract/relation/{name}/eps^1" in out

    def test_lam_zero(self, capsys):
        code, out, _ = run(capsys, "contract", "--lam-zero")
        assert code == 0

    def test_lam_zero_of_a_negative_power_of_lam_exits_2(self, capsys,
                                                         tmp_path):
        cat = _shipped_copy(tmp_path)
        target = cat / "ekappa2_klmn.preso"
        rule = "L*J -> J*L + lam*J^2 - lam"
        assert rule in target.read_text()
        target.write_text(target.read_text().replace(
            rule, rule + " + lam^-1*J"))
        assert run(capsys, "contract", "--lam-zero", "--catalog-dir",
                   str(cat)) == (
            2, "", "error: negative power of lam at zero\n")

    @pytest.mark.parametrize("command", ["contract", "report"])
    def test_renamed_final_generator_exits_2(self, capsys, tmp_path,
                                             command):
        cat = _shipped_copy(tmp_path)
        target = cat / "ekappa2_final.preso"
        target.write_text(re.sub(r"\beta\b", "h", target.read_text()))
        assert run(capsys, command, "--catalog-dir", str(cat)) == (
            2, "", "error: unknown generator 'eta'\n")

    def test_extra_final_generator_exits_2(self, capsys, tmp_path):
        cat = _shipped_copy(tmp_path)
        target = cat / "ekappa2_final.preso"
        text = target.read_text().replace("eta etabar\n", "eta etabar G\n")
        for section, entry in (("coproduct", "G -> G ox G"),
                               ("counit", "G -> 1"), ("antipode", "G -> G"),
                               ("star", "G -> G")):
            text = text.replace(f"[{section}]\n", f"[{section}]\n{entry}\n")
        target.write_text(text)
        assert run(capsys, "contract", "--catalog-dir", str(cat)) == (
            2, "", "error: no image for generator G\n")


@pytest.mark.parametrize("command", ["contract", "solve-commutator", "report"])
def test_commands_on_the_builtins_take_no_presentation(capsys, command):
    # -p was accepted and ignored: a path never read passed the checks
    with pytest.raises(SystemExit) as exc:
        main([command, "-p", "/nonexistent.preso"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -p" in capsys.readouterr().err
    code, out, _ = run(capsys, command, "--output", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["config"]["presentation"] is None
    # only report reads a seed and an overlap bound
    for key in ("seed", "max_overlap"):
        assert (doc["config"][key] is None) == (command != "report")


@pytest.mark.parametrize("command,option", [
    ("nf", "--seed"), ("nf", "--max-overlap"), ("nf", "--output"),
    ("nf", "--timings"), ("confluence", "--seed"), ("confluence", "--timings"),
    ("hopf-check", "--max-overlap"), ("contract", "--seed"),
    ("contract", "--max-overlap"), ("solve-commutator", "--seed"),
    ("solve-commutator", "--max-overlap"), ("solve-commutator", "--timings"),
])
def test_commands_take_no_option_they_ignore(capsys, command, option):
    # each was accepted and ignored: nf --output json printed plain text
    value = {"--timings": [], "--output": ["json"]}.get(option, ["3"])
    with pytest.raises(SystemExit) as exc:
        main([command, *(["a*d"] if command == "nf" else []), option, *value])
    assert exc.value.code == 2
    assert (f"unrecognized arguments: {' '.join([option, *value])}\n"
            in capsys.readouterr().err)


# Each directory holds the shipped files, one builtin listing its generators
# in another order that its rules still decrease in
@pytest.mark.parametrize("fixture", ["reordered_suq2", "reordered_klmn",
                                     "reordered_final"])
@pytest.mark.parametrize("argv,checks", [
    (("contract",), 104),
    (("contract", "--lam-zero"), 104),
    (("solve-commutator", "--ln"), 7),
], ids=["contract", "contract --lam-zero", "solve-commutator --ln"])
def test_generator_order_is_read_from_the_files(capsys, fixture, argv,
                                                checks):
    catalog_dir = GOLDEN / fixture
    changed = [f.name for f in DATA.glob("*.preso")
               if (catalog_dir / f.name).read_text() != f.read_text()]
    assert len(changed) == 1
    _, shipped, _ = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--catalog-dir", str(catalog_dir))
    assert (code, err) == (0, "")
    assert out.endswith(f"checks: {checks}  failed: 0\n")
    # the same records; a reordered final lists its realization checks in
    # its own generator order
    assert sorted(out.splitlines()) == sorted(shipped.splitlines())


def _verdicts(capsys, *argv) -> tuple[int, dict[str, str] | str]:
    """The exit code and each record's status by name, or the error."""
    code, out, err = run(capsys, *argv, "--output", "json")
    if code == 2:
        return code, err
    return code, {c["name"]: c["status"] for c in json.loads(out)["checks"]}


def _renamed_back(verdict, back: dict[str, str]):
    if isinstance(verdict, str):
        return substituted(verdict, back)
    return {substituted(name, back): status
            for name, status in verdict.items()}


def _distinct_preso_files() -> list[Path]:
    """Each presentation file shipped or under tests/golden, less the
    copies of one met before."""
    seen: dict[str, Path] = {}
    for f in [*sorted(DATA.glob("*.preso")), *sorted(GOLDEN.rglob("*.preso"))]:
        seen.setdefault(f.read_text(), f)
    return list(seen.values())


@pytest.mark.parametrize("path", _distinct_preso_files(),
                         ids=lambda f: f"{f.parent.name}/{f.name}")
def test_verdicts_do_not_depend_on_names(capsys, tmp_path, path):
    """Generators and parameters renamed, in their order, to names that
    sort the other way round: every hopf-check and confluence record keeps
    its status, and every error its text, once the names are mapped back."""
    text = path.read_text()
    gens = section_names(text, "generators")
    params = section_names(text, "params")
    assert gens
    rename = {**reversed_names(gens, "g"), **reversed_names(params, "p")}
    back = {new: old for old, new in rename.items()}
    (tmp_path / "new").mkdir()
    renamed = tmp_path / "new" / path.name
    renamed.write_text(substituted(text, rename))
    for command in ("hopf-check", "confluence"):
        code, original = _verdicts(capsys, command, "-p", str(path))
        new_code, new = _verdicts(capsys, command, "-p", str(renamed))
        assert new_code == code and original
        assert _renamed_back(new, back) == (
            original if code != 2 else original.replace(str(path),
                                                        str(renamed)))


class TestSolveCommutator:
    def test_solution_displayed(self, capsys):
        code, out, _ = run(capsys, "solve-commutator")
        assert code == 0
        assert "coefficient[eta]  [Eq. (35)]  = lam" in out
        assert "coefficient[etabar]  [Eq. (35)]  = lam" in out

    def test_ln_mode(self, capsys):
        code, out, _ = run(capsys, "solve-commutator", "--ln")
        assert code == 0
        assert "coefficient[K*N]  = lam" in out

    def test_lam_zero_solves_the_classical_limit(self, capsys):
        for order in ("1", "2"):
            code, out, _ = run(capsys, "solve-commutator", "--order", order,
                               "--lam-zero", "--output", "json")
            assert code == 0
            by_name = {c["name"]: c["residual"]
                       for c in json.loads(out)["checks"]}
            assert by_name.pop("solver/eta-etabar/status") == "unique"
            assert by_name == {
                f"solver/eta-etabar/coefficient[{label}]": "0"
                for label in ("eta", "etabar", "E-1", "F-1")}

    def test_zero_coefficients_print_their_value(self, capsys):
        code, out, _ = run(capsys, "solve-commutator", "--lam-zero")
        assert code == 0
        assert out.splitlines()[1:] == [
            f"[ok  ] solver/eta-etabar/coefficient[{label}]  [Eq. (35)]  = 0"
            for label in ("eta", "etabar", "E-1", "F-1")] + [
            "checks: 5  failed: 0"]
        # a check that passes with a zero residual still prints nothing more
        code, out, _ = run(capsys, "hopf-check", "-p", "builtin:suq2")
        assert code == 0
        assert "[ok  ] suq2/coassociativity/a  [Eq. (3)]\n" in out

    def test_ln_with_lam_zero_is_usage_error(self, capsys):
        code, out, err = run(capsys, "solve-commutator", "--ln", "--lam-zero")
        assert code == 2
        assert out == ""
        assert err.strip() == "error: --ln is not supported with --lam-zero"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "solve-commutator", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["solver/eta-etabar/coefficient[eta]"]["residual"] == "lam"

    def test_nonlinear_system_is_a_failed_solve(self, capsys, tmp_path):
        bad = _nonlinear_final(tmp_path)
        assert run(capsys, "solve-commutator", "--catalog-dir", str(bad)) == (
            1, "[FAIL] solver/eta-etabar/status  [Eq. (35)]  residual: "
               "nonlinear\nchecks: 1  failed: 1\n", "")


class TestReport:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "report")
        assert code == 0
        assert "failed: 0" in out

    def test_json_output_validates_and_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "report", "--output", "json")
        code2, out2, _ = run(capsys, "report", "--output", "json")
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical across runs
        doc = json.loads(out1)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["version"]
        assert all(c["status"] == "pass" for c in doc["checks"])
        tags = {c["paper_eq"] for c in doc["checks"] if c["paper_eq"]}
        assert "Eq. (35)" in tags and "Eq. (9)" in tags

    def test_text_output_deterministic(self, capsys):
        _, out1, _ = run(capsys, "report")
        _, out2, _ = run(capsys, "report")
        assert out1 == out2

    def test_corrupted_catalog_names_the_rule(self, capsys, tmp_path):
        bad = tmp_path / "cat"
        bad.mkdir()
        for f in DATA.glob("*.preso"):
            shutil.copy(f, bad / f.name)
        target = bad / "suq2.preso"
        target.write_text(target.read_text().replace(
            "a*b -> q*b*a", "b*a -> q^-1*a*b"))
        code, out, _ = run(capsys, "report", "--catalog-dir", str(bad))
        assert code == 1
        assert "b*a -> q^-1*a*b" in out

    def test_corrupted_coefficient_fails_verification(self, capsys, tmp_path):
        bad = tmp_path / "cat"
        bad.mkdir()
        for f in DATA.glob("*.preso"):
            shutil.copy(f, bad / f.name)
        target = bad / "suq2.preso"
        target.write_text(target.read_text().replace(
            "a*d -> q*b*c + 1", "a*d -> 2*q*b*c + 1"))
        code, out, _ = run(capsys, "report", "--catalog-dir", str(bad))
        assert code == 1
        # the file loads; the math checks on the loaded algebra catch it
        assert "[ok  ] catalog/load/suq2\n" in out
        assert "[FAIL] suq2/delta-respects/a*d -> 2*q*b*c + 1" in out
        assert "[FAIL] suq2/determinant-central" in out

    def test_catalog_dir_reaches_the_contraction_checks(self, capsys,
                                                        tmp_path):
        bad = _corrupted_klmn(tmp_path)
        code, out, _ = run(capsys, "report", "--catalog-dir", str(bad))
        assert code == 1
        assert "[FAIL] contract/relation/rtt[12,12]/eps^1" in out
        assert "[FAIL] change-of-variables/" in out

    def test_nonlinear_solve_keeps_every_other_record(self, capsys,
                                                      tmp_path):
        bad = _nonlinear_final(tmp_path)
        code, out, err = run(capsys, "report", "--output", "json",
                             "--catalog-dir", str(bad))
        assert (code, err) == (1, "")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["solver/eta-etabar/status"]["residual"] == "nonlinear"
        assert checks["catalog/load/ekappa2-final"]["status"] == "pass"
        _, shipped, _ = run(capsys, "report", "--output", "json")
        names = [c["name"] for c in json.loads(shipped)["checks"]]
        names.remove("solver/eta-etabar/matches-shipped-rule")
        assert list(checks) == names

    @pytest.mark.parametrize("make", ["binary", "directory"])
    def test_unreadable_catalog_file_is_a_failed_load(self, capsys, tmp_path,
                                                      make):
        bad = _shipped_copy(tmp_path)
        target = bad / "suq2.preso"
        target.unlink()
        if make == "binary":
            target.write_bytes(b"\xff")
            residual = f"{target}: not UTF-8 text (byte 0)"
        else:
            target.mkdir()
            residual = f"[Errno 21] Is a directory: '{target}'"
        assert run(capsys, "report", "--catalog-dir", str(bad)) == (
            1, f"[FAIL] catalog/load/suq2  residual: {residual}\n"
               "[ok  ] catalog/load/ekappa2-klmn\n"
               "[ok  ] catalog/load/ekappa2-final\n"
               "checks: 3  failed: 1\n", "")

    def test_incomplete_catalog_file_is_a_failed_load(self, capsys,
                                                      tmp_path):
        bad = _shipped_copy(tmp_path)
        target = bad / "suq2.preso"
        text = target.read_text()
        assert "\nb -> -q*c\n" in text
        target.write_text(text.replace("\nb -> -q*c\n", "\n"))
        assert run(capsys, "report", "--catalog-dir", str(bad)) == (
            1, "[FAIL] catalog/load/suq2  residual: incomplete Hopf data: "
               "[star] has no entry for 'b'\n"
               "[ok  ] catalog/load/ekappa2-klmn\n"
               "[ok  ] catalog/load/ekappa2-final\n"
               "checks: 3  failed: 1\n", "")

    def test_non_canonical_catalog_file_fails(self, capsys, tmp_path):
        bad = tmp_path / "cat"
        bad.mkdir()
        for f in DATA.glob("*.preso"):
            shutil.copy(f, bad / f.name)
        target = bad / "suq2.preso"
        target.write_text(target.read_text().replace(
            "a*d -> q*b*c + 1", "a*d -> 1 + q*b*c"))
        code, out, _ = run(capsys, "report", "--catalog-dir", str(bad))
        assert code == 1
        assert ("[FAIL] catalog/load/suq2  residual: not in canonical form"
                in out)

    def test_lam_zero_full_run(self, capsys):
        code, out, _ = run(capsys, "report", "--lam-zero")
        assert code == 0
        assert "failed: 0" in out

    def test_lam_zero_checks_name_rules_by_their_lam_zero_text(self, capsys):
        code, out, _ = run(capsys, "report", "--lam-zero", "--output", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        # rule label -> tag, from the lam = 0 sides of the shipped rules
        expected = {}
        for name in ("ekappa2-klmn", "ekappa2-final"):
            h = catalog.load_presentation(f"builtin:{name}", 1)
            for r in h.base.rules:
                rhs = r.rhs.map_scalars(lambda s: s.set_param_zero("lam"))
                text = f"{format_word(r.lhs, 1)} -> {rhs}"
                expected[text] = h.rule_tags.get(r.label)
        ruled = [c for c in checks
                 if any(part in c["name"] for part in (
                     "@lam=0/delta-respects/", "@lam=0/star-respects/",
                     "/realize/rule/"))]
        assert len(ruled) > 20
        for c in ruled:
            label = c["name"].split("/")[-1]
            assert label in expected, c["name"]
            assert c["paper_eq"] == expected[label], c["name"]
            assert "lam" not in label
        assert "ekappa2-klmn@lam=0/delta-respects/L*K -> K*L" in {
            c["name"] for c in ruled}
