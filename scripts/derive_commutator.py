#!/usr/bin/env python3
"""Walk through the consistency derivation of [eta, etabar].

The exponential-variable algebra is loaded *without* a rule for the
etabar*eta word, the commutator is treated as an unknown linear combination
of basis elements, and coproduct consistency pins the coefficients.  The
same machinery then back-solves the [L, N] commutator that the first-order
contraction leaves open.
"""

from qcontract import catalog, contract


def main():
    order = 1
    h_open = catalog.without_commutator_rule(
        catalog.ekappa2_final_presentation(order))
    basis = contract.standard_commutator_basis(h_open.base)
    print("solving [eta, etabar] = c1*eta + c2*etabar + c3*(E-1) + c4*(F-1)")
    outcome = contract.solve_commutator(h_open, "eta", "etabar", basis)
    print(f"  status: {outcome.status} (rank {outcome.rank}/{outcome.unknowns})")
    for label, coeff in outcome.solution.items():
        print(f"  c[{label}] = {coeff}")
    rule = contract.commutator_rule_from_solution(outcome.solution, basis,
                                                  "eta", "etabar", order)
    print(f"  oriented rule: {rule.label}")

    print()
    print("back-solving [L, N] over normal monomials in K, M (degree <= 3)")
    kmn_basis = contract.ln_basis_kmn(order)
    km_basis = {label: x for label, x in kmn_basis.items()
                if "N" not in label}
    km = contract.solve_ln_commutator(order, basis=km_basis)
    print(f"  status: {km.status} (no K,M-only polynomial works)")

    print("back-solving [L, N] over normal monomials in K, M, N (degree <= 3)")
    kmn = contract.solve_ln_commutator(order, basis=kmn_basis)
    print(f"  status: {kmn.status}")
    for label, coeff in kmn.solution.items():
        if not coeff.is_zero:
            print(f"  [L, N] = {coeff}*{label}")
    p_ext = contract.klmn_with_ln_rule(kmn.solution, kmn_basis, order)
    from qcontract.rewrite import check_local_confluence
    print(f"  extended presentation confluent: "
          f"{check_local_confluence(p_ext, 6).ok}")


if __name__ == "__main__":
    main()
