"""Built-in presentations, RTT relation generation and the text format.

Three presentations ship with the package:

``suq2``
    The quantum SU(2) function algebra on generators a, b, c, d with the
    q-commutation rules and both orientations of the determinant relation.
``ekappa2-klmn``
    The contracted algebra on K, L, M, N plus the computational adjoint
    J = K^-1, i.e. the kappa-deformed Euclidean group in linear variables.
``ekappa2-final``
    The same algebra rewritten in the exponential variables eta, etabar,
    E and F = E^-1, including the consistency-determined commutator rule.

Each builtin exists only as a text file under ``data/``, equation tags
included; ``builtin:`` URIs and the loader functions below parse it, so the
parser is exercised on every load.  ``builtin_alphabet`` reads only the
``[params]`` and ``[generators]`` sections, for callers that need no more
than the alphabet.  The files are in canonical form: serializing a loaded
builtin reproduces its file byte for byte.

Some file entries are derived rather than free data.  In ``ekappa2-klmn``
the rule for L*J is the reduction of [L, J] = -J [L, K] J by M^2 -> K^2 - 1
and K*J -> 1, and the antipode is induced by that of the source algebra
through the contraction.  In ``ekappa2-final`` the F-rules follow from the
E-rules by conjugating with the inverse, and the counit and antipode solve
the Hopf axioms on generators.  The confluence and Hopf suites check all
of them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .freealg import (
    Alphabet,
    AlphabetMismatch,
    Element,
    GeneratorMap,
    MapKind,
    format_element,
)
from .hopf import HopfPresentation
from .parser import RESERVED, ParseError, parse_expression, tokenize
from .rewrite import Presentation, RewriteRule
from .scalars import NumberTooLong, Scalar, check_printable

BUILTIN_NAMES = ("suq2", "ekappa2-klmn", "ekappa2-final")
_BUILTIN_FILES = {
    "suq2": "suq2.preso",
    "ekappa2-klmn": "ekappa2_klmn.preso",
    "ekappa2-final": "ekappa2_final.preso",
}

# equation tags of checks that no presentation file carries
TAG_RTT = "Eq. (1)-(2)"
TAG_ANSATZ = "Eq. (5)-(6)"
TAG_DETERMINANT = "Eq. (7)"
TAG_D_SERIES = "Eq. (8)"


class PresentationFormatError(ValueError):
    """Malformed presentation source text."""


def _mk_rule(alphabet: Alphabet, params: tuple[str, ...], order: int,
             lhs_text: str, rhs_text: str) -> RewriteRule:
    lhs_elem = parse_expression(lhs_text, alphabet, params, order)
    rhs = parse_expression(rhs_text, alphabet, params, order)
    for side, text in ((lhs_elem, lhs_text), (rhs, rhs_text)):
        if side.alphabet != alphabet:
            raise PresentationFormatError(
                f"rule side must not be a tensor: {text!r}")
    if len(lhs_elem.terms) != 1:
        raise PresentationFormatError(
            f"rule left-hand side must be a single word: {lhs_text!r}")
    ((word, coeff),) = lhs_elem.terms.items()
    if not word or not coeff.is_one:
        raise PresentationFormatError(
            f"rule left-hand side must be a plain word: {lhs_text!r}")
    for c in rhs.terms.values():  # a number too long to print names its line
        check_printable(c)
    return RewriteRule(word, rhs)


def _parse_entry(lineno: int, text: str, alphabet: Alphabet,
                 params: tuple[str, ...], order: int) -> Element:
    """The right-hand side of a map line; a parse error names the line."""
    try:
        return parse_expression(text, alphabet, params, order)
    except ParseError as exc:
        raise PresentationFormatError(f"line {lineno}: {exc}") from exc


def _gen_map(alphabet: Alphabet, params, order, kind: MapKind,
             entries: dict[str, tuple[int, str]],
             target: Alphabet | None = None) -> GeneratorMap:
    """The map of one section from ``name -> (line number, image text)``."""
    target = target or alphabet
    images = {}
    for name, (lineno, text) in entries.items():
        img = _parse_entry(lineno, text, alphabet, params, order)
        if img.alphabet != target:
            # letter-free images (units, scalars) promote between slot counts
            try:
                img = img.rebind(target)
            except AlphabetMismatch as exc:
                raise PresentationFormatError(
                    f"line {lineno}: image of {name} has the wrong tensor "
                    f"rank: {text!r}") from exc
        images[alphabet.gen(name)] = img
    return GeneratorMap(images, kind, alphabet, target, order)


# --------------------------------------------------------------------------
# the builtins, loaded from their files
# --------------------------------------------------------------------------


def suq2_presentation(order: int = 1) -> HopfPresentation:
    return load_presentation("builtin:suq2", order)


def ekappa2_klmn_presentation(order: int = 1) -> HopfPresentation:
    return load_presentation("builtin:ekappa2-klmn", order)


def ekappa2_final_presentation(order: int = 1) -> HopfPresentation:
    return load_presentation("builtin:ekappa2-final", order)


def without_commutator_rule(h: HopfPresentation) -> HopfPresentation:
    """The ``-open`` variant of the final presentation ``h`` that the solver
    starts from: the same algebra without its etabar*eta rule, named like
    ``h`` with ``-open`` before any ``@lam=0`` suffix."""
    alph = h.base.alphabet
    pair = (alph.gen("etabar"), alph.gen("eta"))
    stem, at, limit = h.name.partition("@")
    name = f"{stem}-open{at}{limit}"
    base = Presentation(alph, [r for r in h.base.rules if r.lhs != pair],
                        h.order, name=name, params=h.base.params,
                        zero_params=h.base.zero_params)
    return replace(h, base=base, name=name)


#: the loader of each builtin by name; the benchmark's tracer test reads it
_BUILDERS = {
    "suq2": suq2_presentation,
    "ekappa2-klmn": ekappa2_klmn_presentation,
    "ekappa2-final": ekappa2_final_presentation,
}


# --------------------------------------------------------------------------
# classical limit
# --------------------------------------------------------------------------


def at_zero(params: frozenset[str], x):
    """``x``, a scalar or an element, with each parameter of ``params`` set
    to 0.  A presentation's ``zero_params`` go through here wherever an
    expression is read in it.  A negative power of one has no value there:
    a format error."""
    try:
        for name in params:
            x = (x.set_param_zero(name) if isinstance(x, Scalar)
                 else x.map_scalars(lambda s: s.set_param_zero(name)))
    except ZeroDivisionError as exc:
        raise PresentationFormatError(str(exc)) from None
    return x


def classical_limit(h: HopfPresentation) -> HopfPresentation:
    """The lam -> 0 degeneration: every deformation term is dropped, leaving
    the commutative function algebra with the same coproducts.  Each rule
    is named by its lam = 0 text and keeps its equation tag.  The
    result holds lam at zero (``zero_params``), so every expression read in
    it takes lam as 0 too.  It is a copy of ``h`` by ``replace``, so its
    table of kept images starts empty."""
    zero = frozenset({"lam"})

    def map0(m: GeneratorMap) -> GeneratorMap:
        return GeneratorMap({g: at_zero(zero, img)
                             for g, img in m.images.items()},
                            m.kind, m.source, m.target, m.order)

    base = Presentation(
        h.base.alphabet,
        [RewriteRule(r.lhs, at_zero(zero, r.rhs)) for r in h.base.rules],
        h.base.trunc_order,
        name=f"{h.base.name}@lam=0",
        params=h.base.params,
        zero_params=zero,
    )
    return replace(h, base=base, coproduct=map0(h.coproduct),
                   counit={k: at_zero(zero, v) for k, v in h.counit.items()},
                   antipode=map0(h.antipode), star=map0(h.star),
                   name=f"{h.name}@lam=0")


# --------------------------------------------------------------------------
# RTT relation generation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RttComponent:
    row: tuple[int, int]
    col: tuple[int, int]
    element: Element

    @property
    def is_trivial(self) -> bool:
        return self.element.is_zero


def r_matrix(order: int = 1) -> dict[tuple, Scalar]:
    """The 4x4 R matrix, rows and columns indexed by ordered index pairs:
    diagonal (q, 1, 1, q) and the single off-diagonal q - q^-1 entry at
    row (2,1), column (1,2)."""
    q = Scalar.param("q", order)
    qinv = Scalar.param("q", order, exp=-1)
    one = Scalar.one(order)
    return {
        ((1, 1), (1, 1)): q,
        ((1, 2), (1, 2)): one,
        ((2, 1), (2, 1)): one,
        ((2, 2), (2, 2)): q,
        ((2, 1), (1, 2)): q - qinv,
    }


INDEX_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


def rtt_relations(suq2: Presentation) -> list[RttComponent]:
    """The 16 entries of R T1 T2 - T2 T1 R over the free algebra on the
    alphabet of ``suq2`` (T holds a, b, c, d).  T1 = T tensor 1 and T2 = 1
    tensor T with the row-major pairing (i,j) for rows and (k,l) for
    columns; zero entries are kept and flagged trivial."""
    alph, order = suq2.alphabet, suq2.trunc_order
    T = {
        (1, 1): Element.generator(alph, "a", order),
        (1, 2): Element.generator(alph, "b", order),
        (2, 1): Element.generator(alph, "c", order),
        (2, 2): Element.generator(alph, "d", order),
    }
    R = r_matrix(order)
    out = []
    for u in INDEX_PAIRS:
        i, j = u
        for v in INDEX_PAIRS:
            k, l = v
            lhs = Element.zero(alph, order)
            rhs = Element.zero(alph, order)
            for w in INDEX_PAIRS:
                m, n = w
                r_uw = R.get((u, w))
                if r_uw is not None:
                    lhs = lhs + (T[(m, k)] * T[(n, l)]).scaled(r_uw)
                r_wv = R.get((w, v))
                if r_wv is not None:
                    rhs = rhs + (T[(j, n)] * T[(i, m)]).scaled(r_wv)
            out.append(RttComponent(u, v, lhs - rhs))
    return out


def commutation_moves(p: Presentation) -> Presentation:
    """Only the commutation moves of ``p``: its rules whose right-hand side
    is one word, with coefficient 1, over the letters of the left-hand
    side.  Raw expressions are compared up to these moves alone."""
    def is_move(r: RewriteRule) -> bool:
        if len(r.rhs.terms) != 1:
            return False
        ((word, coeff),) = r.rhs.terms.items()
        return coeff.is_one and sorted(word) == sorted(r.lhs)

    return Presentation(p.alphabet, [r for r in p.rules if is_move(r)],
                        p.trunc_order, name=f"{p.name}-commutation",
                        params=p.params)


def scale_to_unit_lead(x: Element) -> Element:
    """Divide by the leading coefficient (which must be an invertible
    monomial) so scalar multiples share one representative."""
    lead = x.terms[x.leading_word()]
    return x.scaled(lead.inverse_of_unit())


def canonical_relation_forms(xs: list[Element],
                             suq2: Presentation) -> list[Element]:
    """Representatives of relations up to scalar multiples and reordering of
    the commuting pair b, c (the commutation relation itself is part of the
    generated set, so it canonicalizes to its own scaled form)."""
    pc = commutation_moves(suq2)

    def canon(x: Element) -> Element:
        z = pc.normal_form(x)
        if z.is_zero:
            return x if x.is_zero else scale_to_unit_lead(x)
        return scale_to_unit_lead(z)

    return [canon(x) for x in xs]


def distinct_rtt_relations(suq2: Presentation) -> list[Element]:
    """The distinct nonzero RTT relations up to scalar multiples (and up to
    the commuting pair reordering), in order of first appearance."""
    nontrivial = [c.element for c in rtt_relations(suq2) if not c.is_trivial]
    distinct: dict[str, Element] = {}
    for canon in canonical_relation_forms(nontrivial, suq2):
        distinct.setdefault(str(canon), canon)
    return list(distinct.values())


def parse_in(p: Presentation, text: str) -> Element:
    """``text`` as an element of the free algebra on ``p``'s alphabet, with
    ``p``'s zero parameters at 0."""
    return at_zero(p.zero_params, parse_expression(
        text, p.alphabet, p.params, p.trunc_order))


def reference_rtt_relation_set(suq2: Presentation) -> list[Element]:
    """The six textbook relations {ab - q ba, ac - q ca, bc - cb,
    bd - q db, cd - q dc, ad - da - (q - q^-1) bc}, as written."""
    texts = [
        "a*b - q*b*a",
        "a*c - q*c*a",
        "b*c - c*b",
        "b*d - q*d*b",
        "c*d - q*d*c",
        "a*d - d*a - (q - q^-1)*b*c",
    ]
    return [parse_in(suq2, t) for t in texts]


def determinant_element(suq2: Presentation) -> Element:
    return parse_in(suq2, "a*d - q*b*c")


def determinant_relation(suq2: Presentation) -> Element:
    return parse_in(suq2, "a*d - q*b*c - 1")


# --------------------------------------------------------------------------
# named elements of the contracted algebra
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NamedElement:
    name: str
    definition: Element
    paper_eq: str | None = None


def klmn_named_elements(klmn: Presentation) -> dict[str, NamedElement]:
    """eta, etabar, E, F and the intermediate linear combinations, as
    elements of the K, L, M, N algebra ``klmn``."""
    vplus = parse_in(klmn, "K + M")
    vminus = parse_in(klmn, "K - M")
    wplus = parse_in(klmn, "L - 1/2*lam*M + i*N")
    wminus = parse_in(klmn, "L + 1/2*lam*M - i*N")
    return {
        "vplus": NamedElement("vplus", vplus, "Eq. (16)"),
        "vminus": NamedElement("vminus", vminus, "Eq. (16)"),
        "wplus": NamedElement("wplus", wplus, "Eq. (17)"),
        "wminus": NamedElement("wminus", wminus, "Eq. (17)"),
        "eta": NamedElement("eta", wplus * vminus, "Eq. (28)"),
        "etabar": NamedElement("etabar", -(vplus * wminus), "Eq. (29)"),
        "E": NamedElement("E", vplus * vplus, "Eq. (24)"),
        "F": NamedElement("F", vminus * vminus, "Eq. (24)"),
    }


def final_to_klmn_map(final: Presentation,
                      klmn: Presentation) -> GeneratorMap:
    """Realization of the exponential-variable generators of ``final``
    inside the K, L, M, N algebra ``klmn``."""
    named = klmn_named_elements(klmn)
    images = {
        final.alphabet.gen(n): named[n].definition
        for n in ("eta", "etabar", "E", "F")
    }
    return GeneratorMap(images, MapKind.HOMOMORPHISM, final.alphabet,
                        klmn.alphabet, klmn.trunc_order)


# --------------------------------------------------------------------------
# text format
# --------------------------------------------------------------------------

_SECTIONS = ("params", "generators", "rules", "coproduct", "counit",
             "antipode", "star", "excluded")
_HOPF_SECTIONS = ("coproduct", "counit", "antipode", "star")
#: sections whose lines may end in an ``@ tag`` (an equation tag); of the
#: section headers only ``[antipode]`` takes one
_TAGGED_SECTIONS = ("rules", "coproduct")


def _parse_counit(alphabet, params, order,
                  entries: dict[str, tuple[int, str]]) -> dict[str, Scalar]:
    out = {}
    for name, (lineno, text) in entries.items():
        elem = _parse_entry(lineno, text, alphabet, params, order)
        for w in elem.words():
            if w:
                raise PresentationFormatError(
                    f"line {lineno}: counit of {name} must be a scalar: "
                    f"{text!r}")
        out[name] = elem.coefficient(())
    return out


def _read_sections(text: str) -> tuple[dict, str | None]:
    """The ``(line number, line, tag)`` entries of each section of the
    presentation text, comments cut off, and the ``[antipode]`` header's
    tag."""
    sections: dict[str, list[tuple[int, str, str]]] = {}
    antipode_tag = None
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, tag = raw.split("#", 1)[0].partition("@")
        line, tag = line.strip(), tag.strip()
        if not line and not tag:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise PresentationFormatError(
                    f"line {lineno}: unknown section [{current}]")
            if tag and current != "antipode":
                raise PresentationFormatError(
                    f"line {lineno}: only the [antipode] header takes a tag")
            sections.setdefault(current, [])
            antipode_tag = tag or antipode_tag
            continue
        if current is None:
            raise PresentationFormatError(
                f"line {lineno}: content before any section header")
        if tag and current not in _TAGGED_SECTIONS:
            raise PresentationFormatError(
                f"line {lineno}: lines of [{current}] take no tag")
        sections[current].append((lineno, line, tag))
    if "generators" not in sections:
        raise PresentationFormatError("missing [generators] section")
    return sections, antipode_tag


def _names(sections: dict, section: str):
    """``(line number, name)`` for each name of ``section``, each one a
    name that expressions read back."""
    for lineno, line, _ in sections.get(section, ()):
        for n in line.split():
            try:
                kinds = [t.kind for t in tokenize(n)]
            except ParseError:
                kinds = []
            if n in RESERVED or kinds != ["NAME", "END"]:
                what = "a reserved word" if n in RESERVED else "not a name"
                raise PresentationFormatError(
                    f"line {lineno}: {n!r} is {what}")
            yield lineno, n


def _declared(sections: dict) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The parameter and generator names the sections declare."""
    params = tuple(n for _, n in _names(sections, "params"))
    gen_names: tuple[str, ...] = ()
    for lineno, n in _names(sections, "generators"):
        if n in gen_names:
            raise PresentationFormatError(
                f"line {lineno}: duplicate generator {n!r}")
        if n in params:
            raise PresentationFormatError(
                f"line {lineno}: {n!r} is both a generator and a parameter")
        gen_names += (n,)
    return params, gen_names


def builtin_alphabet(name: str) -> Alphabet:
    """The alphabet of the builtin ``name``, read from the ``[params]`` and
    ``[generators]`` sections of its file alone: no expression is
    parsed."""
    sections, _ = _read_sections(builtin_source(name))
    return Alphabet(_declared(sections)[1])


def parse_presentation_text(text: str, order: int = 1, name: str = ""):
    """Parse the line-oriented presentation format.

    Returns a :class:`HopfPresentation` when all four structure-map sections
    are present, otherwise a bare :class:`Presentation` (which keeps no
    tags).  A rule or coproduct line may end in ``@ tag`` and the
    ``[antipode]`` header in ``@ tag``; the tags label the checks in reports.
    """
    sections, antipode_tag = _read_sections(text)
    params, gen_names = _declared(sections)
    for lineno, n in _names(sections, "excluded"):
        if n not in gen_names:
            raise PresentationFormatError(
                f"line {lineno}: excluded {n!r} is not a generator")
    excluded = frozenset(n for _, n in _names(sections, "excluded"))
    alphabet = Alphabet(gen_names)

    def split_arrow(line: str, lineno: int) -> tuple[str, str]:
        if "->" not in line:
            raise PresentationFormatError(
                f"line {lineno}: expected 'lhs -> rhs'")
        lhs, rhs = line.split("->", 1)
        return lhs.strip(), rhs.strip()

    rules = []
    rule_tags = {}
    for lineno, line, tag in sections.get("rules", ()):
        lhs, rhs = split_arrow(line, lineno)
        try:
            rules.append(_mk_rule(alphabet, params, order, lhs, rhs))
        except (ParseError, PresentationFormatError, NumberTooLong) as exc:
            raise PresentationFormatError(
                f"line {lineno}: {exc}") from exc
        if tag:
            rule_tags[rules[-1].lhs] = tag
    base = Presentation(alphabet, rules, order, name=name, params=params)

    if not any(s in sections for s in _HOPF_SECTIONS):
        return base
    for s in _HOPF_SECTIONS:
        if s not in sections:
            raise PresentationFormatError(
                f"incomplete Hopf data: missing [{s}] section")

    def collect(section: str) -> tuple[dict[str, tuple[int, str]],
                                       dict[str, str]]:
        """One entry per generator: every generator for ``[star]``, every
        one not excluded for the other maps."""
        images, tags = {}, {}
        for lineno, line, tag in sections[section]:
            lhs, rhs = split_arrow(line, lineno)
            if lhs not in gen_names:
                raise PresentationFormatError(
                    f"line {lineno}: unknown generator {lhs!r}")
            if lhs in images:
                raise PresentationFormatError(
                    f"line {lineno}: duplicate entry for {lhs!r}")
            images[lhs] = (lineno, rhs)
            if tag:
                tags[lhs] = tag
        for n in gen_names:
            if n not in images and (section == "star" or n not in excluded):
                raise PresentationFormatError(
                    f"incomplete Hopf data: [{section}] has no entry for "
                    f"{n!r}")
        return images, tags

    coproduct, coproduct_tags = collect("coproduct")
    maps = dict(
        coproduct=_gen_map(alphabet, params, order, MapKind.HOMOMORPHISM,
                           coproduct, target=alphabet.at_slots(2)),
        counit=_parse_counit(alphabet, params, order, collect("counit")[0]),
        antipode=_gen_map(alphabet, params, order, MapKind.ANTIHOMOMORPHISM,
                          collect("antipode")[0]),
        star=_gen_map(alphabet, params, order, MapKind.STAR,
                      collect("star")[0]),
    )
    try:
        return HopfPresentation(
            base=base, excluded=excluded, name=name, rule_tags=rule_tags,
            coproduct_tags=coproduct_tags, antipode_tag=antipode_tag, **maps)
    except ValueError as exc:  # a coproduct image hits an excluded letter
        raise PresentationFormatError(str(exc)) from exc


def _tagged(line: str, tag: str | None) -> str:
    return f"{line} @ {tag}" if tag else line


def serialize_presentation(h) -> str:
    """Canonical text form, tags included; the shipped builtin files are
    fixpoints of parsing followed by serializing."""
    if isinstance(h, HopfPresentation):
        base, hopf = h.base, h
    else:
        base, hopf = h, None
    coeffs = [c for r in base.rules for c in r.rhs.terms.values()]
    if hopf:
        coeffs += [c for m in (hopf.coproduct, hopf.antipode, hopf.star)
                   for img in m.images.values() for c in img.terms.values()]
        coeffs += hopf.counit.values()
    params = {pname for c in coeffs for (mono, _eps) in c.terms
              for pname, _ in mono.exps}
    lines = [f"# presentation: {base.name}"]
    lines += ["", "[params]"] + sorted(params)
    lines += ["", "[generators]", " ".join(base.alphabet.names)]
    lines += ["", "[rules]"]
    lines += [_tagged(r.label, hopf and hopf.rule_tags.get(r.lhs))
              for r in base.rules]
    if hopf:
        alph = base.alphabet
        names = hopf.hopf_generators()

        def images(m: GeneratorMap, names, tags=None) -> list[str]:
            return [_tagged(f"{n} -> {format_element(m.images[alph.gen(n)])}",
                            (tags or {}).get(n)) for n in names]

        lines += ["", "[coproduct]"]
        lines += images(hopf.coproduct, names, hopf.coproduct_tags)
        lines += ["", "[counit]"] + [f"{n} -> {hopf.counit[n]}" for n in names]
        lines += ["", _tagged("[antipode]", hopf.antipode_tag)]
        lines += images(hopf.antipode, names)
        lines += ["", "[star]"] + images(hopf.star, alph.names)
        if hopf.excluded:
            lines += ["", "[excluded]", " ".join(sorted(hopf.excluded))]
    return "\n".join(lines) + "\n"


_builtin_dir: Path | None = None


@contextmanager
def builtin_dir(path: str | Path | None):
    """Read every builtin from the directory ``path`` within the block (the
    shipped files when ``None``); the previous directory comes back on
    leaving it, by an exception too."""
    global _builtin_dir
    previous = _builtin_dir
    _builtin_dir = None if path is None else Path(path)
    try:
        yield
    finally:
        _builtin_dir = previous


def builtin_source(name: str) -> str:
    """The text of the builtin ``name``, from the directory set by
    :func:`builtin_dir`."""
    fname = _BUILTIN_FILES[name]
    if _builtin_dir is not None:
        return _read_text(_builtin_dir / fname)
    return _shipped_source(fname)


def _read_text(path: Path) -> str:
    """The UTF-8 text of ``path``; other bytes are a format error."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise PresentationFormatError(
            f"{path}: not UTF-8 text (byte {exc.start})") from None


@lru_cache(maxsize=None)
def _shipped_source(fname: str) -> str:
    # the shipped files do not change while the program runs, and every
    # contraction and solver run loads several builtins
    return (resources.files("qcontract") / "data" / fname).read_text()


def load_presentation(source: str | Path, order: int = 1,
                      lam_zero: bool = False):
    """Load a presentation from a ``builtin:`` URI or a file path."""
    src = str(source)
    if src.startswith("builtin:"):
        name = src.split(":", 1)[1]
        if name not in BUILTIN_NAMES:
            raise PresentationFormatError(
                f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}")
        h = parse_presentation_text(builtin_source(name), order, name=name)
    else:
        path = Path(src)
        h = parse_presentation_text(_read_text(path), order, name=path.stem)
    if lam_zero:
        if not isinstance(h, HopfPresentation):
            raise PresentationFormatError(
                "classical limit requires full Hopf data")
        h = classical_limit(h)
    return h
