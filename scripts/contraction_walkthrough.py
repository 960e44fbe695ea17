#!/usr/bin/env python3
"""Print the order-by-order contraction story.

Shows, for each quadratic relation of the quantum SU(2) algebra, the raw
eps-order residuals produced by the substitution a = K + eps L,
b = M + i eps N, c = M - i eps N, q = exp(lam eps), and their reduction in
the contracted algebra, followed by the derived d series and the change to
exponential variables.
"""

from qcontract import catalog, contract


def main():
    order = 1
    ansatz = contract.ContractionAnsatz(catalog.suq2_presentation(order),
                                        catalog.ekappa2_klmn_presentation(order))
    target = ansatz.target.base

    print("generator images:")
    for name in ("a", "b", "c", "d"):
        print(f"  {name} -> {ansatz.images[name]}")
    print()

    print("derived d series (raw, before reduction):")
    print(f"  {ansatz.d_series.raw}")
    print()

    relations = [
        ("a*b - q*b*a", "exchange of a and b"),
        ("a*c - q*c*a", "exchange of a and c"),
        ("b*c - c*b", "commutation of b and c"),
        ("a*d - q*b*c - 1", "determinant"),
    ]
    for text, title in relations:
        rel = catalog.parse_in(ansatz.source.base, text)
        comps = ansatz.apply(rel).eps_components()
        print(f"{title}: {text}")
        for k in ansatz.checked_orders():
            raw = comps.get(k)
            if raw is None:
                print(f"  eps^{k}: 0")
                continue
            reduced = target.normal_form(raw)
            print(f"  eps^{k} raw: {raw}")
            print(f"  eps^{k} reduced: {reduced}")
        print()

    named = catalog.klmn_named_elements(target)
    print("exponential variables (normal forms):")
    for key in ("eta", "etabar", "E", "F"):
        nf = target.normal_form(named[key].definition)
        print(f"  {key} = {nf}")


if __name__ == "__main__":
    main()
