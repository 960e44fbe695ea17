"""The contraction engine.

Substitutes the singular-limit ansatz

    a = K + eps L,   b = M + i eps N,   c = M - i eps N,   q = exp(lam eps)

into the quantum SU(2) data, expands exactly in eps, reduces each order in
the contracted algebra, and checks every derived relation, coproduct and
star identity order by order.  The image of d is not free data: it is
derived from the determinant relation by series inversion of a.  The module
also hosts the linear solver that back-determines commutators (such as
[eta, etabar]) from coproduct consistency.

The suites take the presentations they check, loaded once by the caller;
their truncation order is read off them.  A classical limit holds lam at
zero (``zero_params``), so the q series and every text read in it take
lam as 0.  ``hopf.map_residual`` alone asks whether a map respects a
relation or a structure map, and ``hopf.check_rows`` alone records the
answers: every contraction square and change-of-variables identity is a
row it reduces and records, per eps order where asked.  The contraction's
``check_rows`` binds the guard against the undetermined [L, N], so every
one of its rows is guarded.  The coproduct squares take their tags from
the target's file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from . import catalog, hopf
from .catalog import klmn_named_elements
from .freealg import (
    Alphabet,
    Element,
    GeneratorMap,
    MapKind,
    accumulate_scaled,
    format_word,
    tensor_embed,
)
from .hopf import HopfPresentation
from .reports import CheckRecord, CheckReport
from .rewrite import Presentation, RewriteRule
from .scalars import GR_ONE, GR_ZERO, ParamMonomial, Scalar, q_power


class AdjointResidue(RuntimeError):
    """A normal form still contains the computational adjoint J."""


class UnknownCommutatorNeeded(RuntimeError):
    """A residual contains the subword L N, whose commutator the presented
    algebra deliberately leaves undetermined."""


def _guard_ln(x: Element, context: str):
    if x.contains_adjacent("L", "N"):
        raise UnknownCommutatorNeeded(
            f"{context}: residual needs the undetermined [L, N]")


def _eps_truncate(x: Element, max_degree: int) -> Element:
    """Drop every eps component above ``max_degree`` (keeps the ambient
    truncation order)."""
    out = Element.zero(x.alphabet, x.order)
    for k, comp in x.eps_components().items():
        if k <= max_degree:
            out = out + comp.scaled(Scalar.eps(x.order, power=k))
    return out


#: the row loop of ``hopf``, every row guarded against the undetermined
#: [L, N]
check_rows = partial(hopf.check_rows, guard=_guard_ln)


# --------------------------------------------------------------------------
# the ansatz
# --------------------------------------------------------------------------


@dataclass
class DSeries:
    a_inverse: Element
    raw: Element
    reduced: Element
    display_form: Element  # the classical two-term arrangement of the series


class ContractionAnsatz:
    """Generator images of the contraction of ``source`` (in its q-form)
    onto ``target``, with q eliminated eagerly."""

    #: the ansatz coefficients are written down through eps^1 only, so the
    #: derived d series and the checked eps orders stop there too
    DEPTH = 1

    def __init__(self, source: HopfPresentation, target: HopfPresentation):
        self.source = source
        self.target = target
        self.order = order = target.order
        self.depth = min(order, self.DEPTH)
        self._q_cache: dict[int, Scalar] = {}
        alph = target.base.alphabet
        pe = partial(catalog.parse_in, target.base)
        self.images: dict[str, Element] = {
            "a": pe("K + eps*L"),
            "b": pe("M + i*eps*N"),
            "c": pe("M - i*eps*N"),
        }
        #: the image of d the ansatz implies through its depth (Eq. (8))
        self.expected_d = pe("K - eps*L")
        self.d_series = self._derive_d()
        self.images["d"] = self.d_series.reduced
        src = source.base.alphabet
        self._map = GeneratorMap(
            {src.gen(n): img for n, img in self.images.items()},
            MapKind.HOMOMORPHISM, src, alph, order)

    # -- q elimination -------------------------------------------------------

    def q_series(self, m: int) -> Scalar:
        """q^m = exp(m lam eps), in the target's limit."""
        cached = self._q_cache.get(m)
        if cached is None:
            cached = self._q_cache[m] = catalog.at_zero(
                self.target.base.zero_params, q_power(m, self.order))
        return cached

    def _subst_scalar(self, s: Scalar) -> Scalar:
        return s.eliminate_param("q", self.q_series)

    # -- application ---------------------------------------------------------

    def apply(self, x: Element) -> Element:
        """Contract a source element, or a 2-slot one slot by slot, into
        the target free algebra (no reduction; q powers are expanded and
        truncated)."""
        return self._map.apply(x.map_scalars(self._subst_scalar))

    apply_tensor = apply

    # -- the d series ----------------------------------------------------------

    def _derive_d(self) -> DSeries:
        alph = self.target.base.alphabet
        p = self.target.base
        pe = partial(catalog.parse_in, p)
        J = pe("J")
        JL = pe("J*L")
        # order-by-order inverse of a = K + eps L: sum of (-1)^k eps^k (JL)^k J
        minus_eps = -Scalar.eps(self.order)
        a_inv = term = J
        for _ in range(self.depth):
            term = (JL * term).scaled(minus_eps)
            a_inv = a_inv + term
        one = Element.unit(alph, self.order)
        qbc = (self.images["b"] * self.images["c"]).scaled(self.q_series(1))
        raw = _eps_truncate(a_inv * (one + qbc), self.depth)
        reduced = p.normal_form(raw)
        if reduced.contains_letter("J"):
            raise AdjointResidue(
                "d-series normal form still contains J (missing relations)")
        display = pe("J + J*M*M + eps*(lam*J*M*M - J*L*J - J*L*J*M*M)")
        return DSeries(a_inverse=a_inv, raw=raw, reduced=reduced,
                       display_form=display)

    def checked_orders(self) -> range:
        return range(self.depth + 1)


# --------------------------------------------------------------------------
# order-by-order verification
# --------------------------------------------------------------------------


def _coproduct_tags(ansatz: ContractionAnsatz, gname: str) -> tuple:
    """Per checked order k, the target's coproduct tag of the generator
    whose multiple is the eps^k part of the image of ``gname``: its square
    at eps^k checks that generator's coproduct."""
    comps = ansatz.images[gname].eps_components()
    parts = [list(comps[k].terms) if k in comps else []
             for k in ansatz.checked_orders()]
    return tuple(ansatz.target.coproduct_tags.get(format_word(*words, 1))
                 if len(words) == 1 else None for words in parts)


def _square_rows(ansatz: ContractionAnsatz, square: str, kind: str,
                 source_map, tag):
    """The ``kind`` square of each source generator g, its image under
    ``source_map``; ``tag`` gives the row's tag from the generator name."""
    for gname in ("a", "b", "c", "d"):
        g = Element.generator(ansatz.source.base.alphabet, gname, ansatz.order)
        yield (f"contract/{square}/{gname}", kind, g, source_map(g), tag(gname))


def verify_star_contraction(ansatz: ContractionAnsatz) -> CheckReport:
    """The star square: contracting g* must agree with the target star of
    the contracted g, order by order (this is what fixes the star rules of
    the contracted generators), and the contracted star is involutive."""
    # the star is real-linear, so the square of -phi is phi(g*) - phi(g)*
    report = check_rows(
        ansatz.target, lambda x: -ansatz.apply(x), None,
        _square_rows(ansatz, "star-square", "star", ansatz.source.star.apply,
                     lambda g: "Eq. (15)"),
        ansatz.checked_orders())
    report.extend(hopf.star_involution(ansatz.target, ("K", "L", "M", "N"),
                                       "contract", "Eq. (15)"))
    return report


def verify_d_series(ansatz: ContractionAnsatz) -> CheckReport:
    """The derived d: J-free normal form K - eps L, the two determinant
    identities to first order, and agreement of the raw series with its
    classical two-term display up to commutation moves alone."""
    report = CheckReport()
    p = ansatz.target.base
    d = ansatz.d_series
    expected = ansatz.expected_d
    report.add(CheckRecord(
        name="contract/d-series/normal-form",
        ok=d.reduced == expected,
        residual=str(p.normal_form(d.reduced - expected)),
        paper_eq=catalog.TAG_D_SERIES,
        extra={"raw": str(d.raw)},
    ))
    moves = catalog.commutation_moves(p)
    report.add_residual("contract/d-series/raw-matches-display",
                        moves.normal_form(d.raw - d.display_form),
                        catalog.TAG_D_SERIES)
    report.extend(check_rows(ansatz.target, ansatz.apply, None, (
        (f"contract/relation/d-series/{label}", "relation",
         catalog.parse_in(ansatz.source.base, text), None,
         catalog.TAG_D_SERIES)
        for label, text in (("a*d", "a*d - 1 - q*b*c"),
                            ("d*a", "d*a - 1 - q^-1*b*c"))),
        ansatz.checked_orders()))
    # a^-1 sanity: a * a_inverse = 1 through the derived depth
    prod = ansatz.apply(Element.generator(ansatz.source.base.alphabet, "a",
                                          ansatz.order)) * d.a_inverse
    residual = p.normal_form(_eps_truncate(prod, ansatz.depth)
                             - Element.unit(p.alphabet, ansatz.order))
    report.add_residual("contract/d-series/a-inverse", residual,
                        catalog.TAG_D_SERIES)
    return report


def verify_star_determines_l(ansatz: ContractionAnsatz) -> CheckReport:
    """Exhibit that L* = -L (through a* = d with the raw d series) is
    equivalent to the first-order mixed relation: the reduction must fire
    the rules oriented from it."""
    report = CheckReport()
    if ansatz.order < 1:
        return report
    p = ansatz.target.base
    raw_o1 = ansatz.d_series.raw.eps_components().get(
        1, Element.zero(p.alphabet, ansatz.order))
    minus_l = -Element.generator(p.alphabet, "L", ansatz.order)
    fired: set[int] = set()
    residual = p.rewrite(raw_o1 - minus_l, fired=fired)
    mixed = {(p.alphabet.gen("L"), p.alphabet.gen(x)) for x in ("K", "J")}
    lk_rules = {i for i, r in enumerate(p.rules) if r.lhs in mixed}
    report.add(CheckRecord(
        name="contract/star-square/L-rule-link",
        ok=residual.is_zero and bool(fired & lk_rules),
        residual=str(residual),
        paper_eq="Eq. (10)",
        extra={"fired_mixed_rule": str(bool(fired & lk_rules))},
    ))
    return report


# --------------------------------------------------------------------------
# change of variables
# --------------------------------------------------------------------------


def _identities(target: HopfPresentation) -> list[tuple]:
    """The change of variables, one row per record: name, map, an element
    x of ``target``, the image of x under the map (none for a relation x),
    tag.  The tensor images multiply the normal forms of their legs."""
    p, order = target.base, target.order
    v = {n: e.definition for n, e in klmn_named_elements(p).items()}
    nf = {n: p.normal_form(x) for n, x in v.items()}
    v["1"] = nf["1"] = one = Element.unit(p.alphabet, order)
    lam = catalog.at_zero(p.zero_params, Scalar.param("lam", order))
    half_lam = lam * Scalar.from_rational(Fraction(1, 2), order)

    def ox(x, y, *more):  # x ox y + ... over the legs' normal forms
        t = tensor_embed(nf[x], 1) * tensor_embed(nf[y], 2)
        return t + ox(*more) if more else t

    def comm(x, y, s, z):  # [x, y] - s z
        return v[x] * v[y] - v[y] * v[x] - z.scaled(s)

    E = v["E"]
    return [
        *((f"{x}*{y}", "relation", v[x] * v[y] - one, None, "Eq. (24)")
          for x, y in (("vplus", "vminus"), ("vminus", "vplus"))),
        *((f"grouplike/{n}", "coproduct", nf[n], ox(n, n), "Eq. (16)")
          for n in ("vplus", "vminus")),
        *((f"coproduct/{w}", "coproduct", v[w], ox(w, u, u2, w), "Eq. (17)")
          for w, u, u2 in (("wplus", "vplus", "vminus"),
                           ("wminus", "vminus", "vplus"))),
        *((f"commutator/[{w},{u}]", "relation",
           comm(w, u, half_lam, v[g] - one), None, tag)
          for w in ("wplus", "wminus") for u, g, tag in (
              ("vplus", "E", "Eq. (25)"), ("vminus", "F", "Eq. (26)"))),
        *((f"coproduct/{x}", "coproduct", v[x], ox(x, "1", g, x), tag)
          for x, g, tag in (("eta", "F", "Eq. (30)"),
                            ("etabar", "E", "Eq. (31)"))),
        *((f"coproduct/{n}", "coproduct", nf[n], ox(n, n), "Eq. (32)")
          for n in ("E", "F")),
        *((f"commutator/[{x},E]", "relation", comm(x, "E", lam, z), None, tag)
          for x, z, tag in (("eta", E - one, "Eq. (33)"),
                            ("etabar", E - E * E, "Eq. (34)"))),
        *((f"star/{x}", "star", v[x], v[y], tag) for x, y, tag in (
            ("eta", "etabar", "Eq. (29)"), ("vplus", "vminus", "Eq. (24)"),
            ("E", "F", "Eq. (24)"))),
    ]


def verify_change_of_variables(target: HopfPresentation,
                               final: HopfPresentation) -> CheckReport:
    """All identities of the exponential-variable change, verified in the
    K, L, M, N algebra ``target``, plus the full realization of the final
    presentation (rules and Hopf data) inside it."""
    p, order, src = target.base, target.order, final.base.alphabet
    realize = catalog.final_to_klmn_map(final.base, p)
    report = check_rows(target, hopf.same, hopf.same, (
        (f"change-of-variables/{name}", *row)
        for name, *row in _identities(target)))
    # the realization leaves out the etabar*eta rule: its linear-variable
    # form needs the undetermined [L, N], so the solver fixes it instead
    rows = [(f"change-of-variables/realize/rule/{rule.label}", "relation",
             rule.as_element(src), None, final.rule_tags.get(rule.lhs))
            for rule in final.base.rules
            if rule.lhs != (src.gen("etabar"), src.gen("eta"))]
    for name in src.names:
        g = Element.generator(src, name, order)
        rows += [(f"change-of-variables/realize/{kind}/{name}", kind, g,
                  image, tag) for kind, image, tag in (
            ("coproduct", final.apply_coproduct(g),
             final.coproduct_tags.get(name)),
            ("star", final.star.apply(g), None),
            ("antipode", final.antipode.apply(g), None),
            ("counit", final.counit[name], None))]
    report.extend(check_rows(
        target, realize.apply,
        lambda x2: p.at_slots(2).normal_form(realize.apply(x2)), rows))
    return report


# --------------------------------------------------------------------------
# commutator solving
# --------------------------------------------------------------------------

MARKER = "Zc"


@dataclass
class SolveOutcome:
    status: str  # unique | inconsistent | underdetermined | nonlinear
    solution: dict[str, Scalar] | None
    rank: int
    unknowns: int
    free: list[tuple[str, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "unique"


def _commutator_rule(alph: Alphabet, x_name: str, y_name: str,
                     value: Element) -> RewriteRule:
    """[x, y] = value as the rule rewriting the deglex-larger of x y and
    y x: either y x -> x y - value or x y -> y x + value."""
    gx, gy = alph.gen(x_name), alph.gen(y_name)
    if alph.names.index(y_name) > alph.names.index(x_name):
        lhs = (gy, gx)
        rhs = Element.from_word(alph, (gx, gy), value.order) - value
    else:
        lhs = (gx, gy)
        rhs = Element.from_word(alph, (gy, gx), value.order) + value
    return RewriteRule(lhs, rhs)


def _split_marker(x: Element):
    """The marker-free terms of ``x`` and the context of each marked word
    (its slot words, the marker's slot and position, the coefficient), or
    None when a word holds the marker twice (``x`` is not affine in it)."""
    base = {}
    contexts = []
    for w, c in x.terms.items():
        parts = x.alphabet.parts(w)
        idxs = [(s, i) for s, u in enumerate(parts)
                for i, g in enumerate(u) if g.name == MARKER]
        if not idxs:
            base[w] = c
            continue
        if len(idxs) > 1:
            return None
        contexts.append((parts, *idxs[0], c))
    return base, contexts


def _gauss_solve(columns: list, rows) -> tuple:
    """Exact Gaussian elimination over Gaussian rationals on sparse rows.

    ``rows`` holds ``[entries, rhs]`` pairs, ``entries`` mapping a column
    index to its non-zero coefficient; they are eliminated in place.  Pivots
    are taken in column order; a pivot eliminates its column only from the
    rows that hold it, over its own non-zero entries, and the values follow
    by back-substitution.  Rank, pivot columns and values depend only on
    the system and the column order.  Returns (status, values by column,
    rank, free columns)."""
    pending = list(rows)
    pivots = {}  # column index -> (other entries, rhs) of its scaled row
    for col in range(len(columns)):
        holders = [row for row in pending if col in row[0]]
        if not holders:
            continue
        entries, rhs = pivot = holders[0]
        pending = [row for row in pending if row is not pivot]
        inv = GR_ONE / entries.pop(col)
        entries = {c: v * inv for c, v in entries.items()}
        rhs = rhs * inv
        pivots[col] = entries, rhs
        for row in holders[1:]:
            target = row[0]
            factor = target.pop(col)
            for c, v in entries.items():
                x = target.get(c, GR_ZERO) - factor * v
                if x.is_zero:
                    del target[c]
                else:
                    target[c] = x
            row[1] = row[1] - factor * rhs
    rank = len(pivots)
    if any(not rhs.is_zero for _, rhs in pending):
        return "inconsistent", None, rank, []
    if rank < len(columns):
        return "underdetermined", None, rank, [
            columns[c] for c in range(len(columns)) if c not in pivots]
    values = {}
    for col in reversed(pivots):
        entries, rhs = pivots[col]
        for c, v in entries.items():
            rhs = rhs - v * values[c]
        values[col] = rhs
    return "unique", {columns[c]: values[c] for c in range(rank)}, rank, []


def _solve_affine_system(base: Element, directions: dict[str, Element],
                         order: int) -> SolveOutcome:
    """Solve base + sum_w c_w * direction_w = 0 for scalars c_w, expanding
    each unknown over lambda degrees and matching coefficients of every
    irreducible word and monomial coordinate."""
    max_deg = base.terms and max(
        c.max_param_degree("lam") for c in base.terms.values()) or 0
    for d in directions.values():
        for c in d.terms.values():
            max_deg = max(max_deg, c.max_param_degree("lam"))
    width = max_deg + 2
    columns = [(label, dd) for label in directions for dd in range(width)]
    lam = [ParamMonomial.of("lam", dd) for dd in range(width)]
    # one row per (word, monomial, eps degree); an entry is met once, as
    # its monomial fixes its lambda degree, and scalars hold no zeros
    rows: dict = {}
    for n, direction in enumerate(directions.values()):
        for w, sc in direction.terms.items():
            for (mono, eps), gr in sc.terms.items():
                for dd in range(width):
                    rows.setdefault((w, mono * lam[dd], eps),
                                    [{}, GR_ZERO])[0][n * width + dd] = gr
    for w, sc in base.terms.items():
        for (mono, eps), gr in sc.terms.items():
            rows.setdefault((w, mono, eps), [{}, GR_ZERO])[1] -= gr

    status, values, rank, free = _gauss_solve(columns, rows.values())
    if status != "unique":
        return SolveOutcome(status, None, rank, len(columns), free)
    solution = {}
    for label in directions:
        terms = {}
        for dd in range(width):
            gr = values[(label, dd)]
            if not gr.is_zero:
                terms[(lam[dd], 0)] = gr
        solution[label] = Scalar(terms, order)
    return SolveOutcome("unique", solution, rank, len(columns))


def marker_presentation(p: Presentation, x_name: str,
                        y_name: str) -> Presentation:
    """``p`` plus the marker letter and, when no rule orders the x y / y x
    words, the rule setting [x, y] to the marker.  The marker is a free
    letter, so in general it is not confluent."""
    order = p.trunc_order
    alph_z = Alphabet(p.alphabet.names + (MARKER,))
    rules = [RewriteRule(r.lhs, r.rhs.rebind(alph_z)) for r in p.rules]
    gx, gy = p.alphabet.gen(x_name), p.alphabet.gen(y_name)
    if p.is_normal_word((gx, gy)) and p.is_normal_word((gy, gx)):
        rules.append(_commutator_rule(alph_z, x_name, y_name,
                                      Element.generator(alph_z, MARKER, order)))
    return Presentation(alph_z, rules, order, name=f"{p.name}+marker")


def _solve_marker(p: Presentation, x_name: str, y_name: str,
                  expr: Element, basis: dict[str, Element],
                  offsets: dict[str, Element] | None) -> SolveOutcome:
    """Solve for [x, y] = sum_w c_w w such that ``expr`` vanishes.

    ``p`` presents the algebra without a rule for the x y / y x words, and
    ``expr`` lives in it or in its tensor square.  A marker letter stands
    for [x, y] in the rule ordering the pair, so the normal form of
    ``expr`` is affine in the marker: its marker-free part is the constant
    term, and putting w in place of the marker (plus ``offsets[w]``, when
    given) gives the direction of each unknown c_w.
    """
    order = p.trunc_order
    slots = expr.alphabet.slot_count
    p_z = marker_presentation(p, x_name, y_name).at_slots(slots)
    alph = p_z.alphabet
    split = _split_marker(p_z.normal_form(expr.rebind(alph)))
    if split is None:
        return SolveOutcome("nonlinear", None, 0, 0)
    base_terms, contexts = split

    directions: dict[str, Element] = {}
    for label, w in basis.items():
        terms = dict(offsets[label].rebind(alph).terms) if offsets else {}
        for parts, s, i, coeff in contexts:  # w in place of the marker
            u = parts[s]
            for bw, bc in w.terms.items():
                nw = parts[:s] + (u[:i] + bw + u[i + 1:],) + parts[s + 1:]
                accumulate_scaled(terms, {nw if slots > 1 else nw[0]: bc},
                                  coeff)
        directions[label] = p_z.normal_form(Element._of(alph, terms, order))
    return _solve_affine_system(Element(alph, base_terms, order), directions,
                                order)


def solve_commutator(h: HopfPresentation, x_name: str, y_name: str,
                     basis: dict[str, Element]) -> SolveOutcome:
    """Determine [x, y] = sum_w c_w w from coproduct consistency.

    ``h`` must present the algebra without a rule for the x y / y x words;
    the commutator is treated symbolically on both sides of the coproduct
    homomorphism condition and the coefficient match is solved exactly.
    """
    order = h.order
    dx = h.apply_coproduct(Element.generator(h.base.alphabet, x_name, order))
    dy = h.apply_coproduct(Element.generator(h.base.alphabet, y_name, order))
    offsets = {label: -h.apply_coproduct(w) for label, w in basis.items()}
    return _solve_marker(h.base, x_name, y_name, dx * dy - dy * dx, basis,
                         offsets)


def standard_commutator_basis(final: Presentation) -> dict[str, Element]:
    alph, order = final.alphabet, final.trunc_order
    one = Element.unit(alph, order)
    return {
        "eta": Element.generator(alph, "eta", order),
        "etabar": Element.generator(alph, "etabar", order),
        "E-1": Element.generator(alph, "E", order) - one,
        "F-1": Element.generator(alph, "F", order) - one,
    }


def commutator_rule_from_solution(solution: dict[str, Element | Scalar],
                                  basis: dict[str, Element],
                                  x_name: str, y_name: str,
                                  order: int) -> RewriteRule:
    """Install [x, y] = sum c_w w as the rule rewriting the deglex-larger
    of x y and y x, over the alphabet of the basis."""
    alphabet = next(iter(basis.values())).alphabet
    value = Element.zero(alphabet, order)
    for label, coeff in solution.items():
        value = value + basis[label].scaled(coeff)
    return _commutator_rule(alphabet, x_name, y_name, value)


def solve_eta_etabar(final: HopfPresentation) -> tuple[SolveOutcome,
                                                      CheckReport]:
    """Solve [eta, etabar] from coproduct consistency on ``final`` without
    its etabar*eta rule; the report holds the status record."""
    basis = standard_commutator_basis(final.base)
    outcome = solve_commutator(catalog.without_commutator_rule(final),
                               "eta", "etabar", basis)
    return outcome, CheckReport([CheckRecord(
        name="solver/eta-etabar/status", ok=outcome.ok,
        residual=outcome.status, paper_eq="Eq. (35)")])


def eta_etabar_solution(final: HopfPresentation) -> CheckReport:
    """The [eta, etabar] status record and each solved coefficient."""
    outcome, report = solve_eta_etabar(final)
    for label, coeff in (outcome.solution or {}).items():
        report.add(CheckRecord(
            name=f"solver/eta-etabar/coefficient[{label}]", ok=True,
            residual=str(coeff), paper_eq="Eq. (35)", solved=True))
    return report


def solver_suite(final: HopfPresentation) -> CheckReport:
    """Solve [eta, etabar] from coproduct consistency and confirm the
    result matches the commutator rule of ``final``."""
    outcome, report = solve_eta_etabar(final)
    if outcome.ok:
        rule = commutator_rule_from_solution(
            outcome.solution, standard_commutator_basis(final.base),
            "eta", "etabar", final.order)
        shipped = next(r for r in final.base.rules
                       if r.lhs == rule.lhs)
        report.add_residual("solver/eta-etabar/matches-shipped-rule",
                            rule.rhs - shipped.rhs, "Eq. (35)")
    return report


# --------------------------------------------------------------------------
# the undetermined [L, N] (stretch solver)
# --------------------------------------------------------------------------


#: degree of the default [L, N] basis
LN_BASIS_DEGREE = 3


def ln_basis_kmn(order: int,
                 max_degree: int = LN_BASIS_DEGREE) -> dict[str, Element]:
    """The normal monomials K^i M^j N^k (j at most 1) of degree at most
    ``max_degree``, labelled by their words."""
    alph = catalog.builtin_alphabet("ekappa2-klmn")
    out: dict[str, Element] = {}
    for i in range(max_degree + 1):
        for j in (0, 1):
            for k in range(max_degree + 1 - i - j):
                word = tuple([alph.gen("K")] * i + [alph.gen("M")] * j
                             + [alph.gen("N")] * k)
                label = "1" if not word else "*".join(g.name for g in word)
                out[label] = Element.from_word(alph, word, order)
    return out


def solve_ln_commutator(order: int = 1,
                        basis: dict[str, Element] | None = None) -> SolveOutcome:
    """Back-solve the undetermined [L, N] from the final-variable
    commutator identity [eta, etabar] = lam (etabar + eta), treating
    L N -> N L + Z as an unknown rewrite; the basis defaults to
    ``ln_basis_kmn(order)``."""
    p = catalog.ekappa2_klmn_presentation(order).base
    if basis is None:
        basis = ln_basis_kmn(order)
    named = klmn_named_elements(p)
    eta = named["eta"].definition
    etabar = named["etabar"].definition
    lam = Scalar.param("lam", order)
    expr = (eta * etabar - etabar * eta) - (etabar + eta).scaled(lam)
    return _solve_marker(p, "L", "N", expr, basis, None)


def ln_solution(order: int) -> CheckReport:
    """The [L, N] status record and each nonzero solved coefficient."""
    ln = solve_ln_commutator(order)
    report = CheckReport([CheckRecord(name="solver/L-N/status", ok=ln.ok,
                                      residual=ln.status)])
    for label, coeff in (ln.solution or {}).items():
        if not coeff.is_zero:
            report.add(CheckRecord(
                name=f"solver/L-N/coefficient[{label}]", ok=True,
                residual=str(coeff), solved=True))
    return report


def klmn_with_ln_rule(solution: dict[str, Scalar], basis: dict[str, Element],
                      order: int = 1) -> Presentation:
    """The K, L, M, N presentation extended with the solved L N rule."""
    p = catalog.ekappa2_klmn_presentation(order).base
    rule = commutator_rule_from_solution(solution, basis, "L", "N", order)
    return Presentation(p.alphabet, list(p.rules) + [rule], order,
                        name="ekappa2-klmn+LN", params=p.params)


# --------------------------------------------------------------------------
# suite assembly
# --------------------------------------------------------------------------


def structural_ansatz_record(ansatz: ContractionAnsatz) -> CheckRecord:
    """First-order checks may only involve the written zeroth/first order
    ansatz coefficients; assert the images carry nothing beyond its depth."""
    ok = all(
        max(ansatz.images[g].eps_components(), default=0) <= ansatz.depth
        for g in ("a", "b", "c")
    )
    d_low = {k: v for k, v in ansatz.images["d"].eps_components().items()
             if k <= ansatz.depth}
    ok = ok and d_low == ansatz.expected_d.eps_components()
    return CheckRecord(
        name="contract/ansatz/eps-degree-structure",
        ok=ok,
        residual="0" if ok else "ansatz carries unexpected higher orders",
        paper_eq=catalog.TAG_ANSATZ,
    )


def contraction_suite(source: HopfPresentation,
                      target: HopfPresentation) -> CheckReport:
    """Relations, d series, coproduct and star squares for the contraction
    of ``source`` onto ``target``."""
    ansatz = ContractionAnsatz(source, target)
    src, orders = source.base, ansatz.checked_orders()
    report = CheckReport()
    report.add(structural_ansatz_record(ansatz))
    report.extend(verify_d_series(ansatz))
    relations = [
        (f"contract/relation/rtt[{c.row[0]}{c.row[1]},{c.col[0]}{c.col[1]}]",
         "relation", c.element, None, catalog.TAG_RTT)
        for c in catalog.rtt_relations(src)]
    relations.append(("contract/relation/determinant", "relation",
                      catalog.determinant_relation(src), None,
                      catalog.TAG_DETERMINANT))
    report.extend(check_rows(target, ansatz.apply, None, relations, orders))
    p2 = target.base.at_slots(2)
    report.extend(check_rows(
        target, ansatz.apply,
        lambda x2: p2.normal_form(ansatz.apply_tensor(x2)),
        _square_rows(ansatz, "coproduct-square", "coproduct",
                     source.apply_coproduct,
                     partial(_coproduct_tags, ansatz)),
        orders))
    report.extend(verify_star_contraction(ansatz))
    report.extend(verify_star_determines_l(ansatz))
    return report
