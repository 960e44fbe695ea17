"""Per-layer metrics of a traced run, per task.

Names follow ``<layer>.<what>``, the layer being the qcontract module.
``*_calls`` count calls, ``*_s`` are seconds (inclusive time of the
outermost call unless the name says ``self``), all divided by the number of
traced tasks.  A layer the workload never enters reads 0.
"""

from __future__ import annotations

HOPF_SUITES = ("suq2", "ekappa2-klmn", "ekappa2-final")

#: metric name -> unit
UNITS = {
    "scalars.mul_calls": "calls/task",
    "scalars.add_calls": "calls/task",
    "scalars.gaussian_mul_calls": "calls/task",
    "scalars.self_s": "s/task",
    "freealg.element_mul_calls": "calls/task",
    "freealg.element_mul_terms_out": "terms/task",
    "freealg.map_apply_calls": "calls/task",
    "freealg.self_s": "s/task",
    "rewrite.nf_calls": "calls/task",
    "rewrite.nf_terms_in": "terms/task",
    "rewrite.nf_terms_out": "terms/task",
    "rewrite.find_match_calls": "calls/task",
    "rewrite.redexes_found": "count/task",
    "rewrite.find_match_per_term_out": "ratio",
    "rewrite.nf_self_s": "s/task",
    "rewrite.confluence_s": "s/task",
    "rewrite.critical_pairs": "count/task",
    "rewrite.at_slots_s": "s/task",
    **{f"hopf.suite_s.{name}": "s/task" for name in HOPF_SUITES},
    "hopf.delta_respects_s": "s/task",
    "hopf.coassociativity_s": "s/task",
    "hopf.counit_antipode_s": "s/task",
    "hopf.star_s": "s/task",
    "hopf.convolution_s": "s/task",
    "hopf.coproduct_calls": "calls/task",
    "hopf.coproduct_s": "s/task",
    "contract.contraction_suite_s": "s/task",
    "contract.change_of_variables_s": "s/task",
    "contract.solver_suite_s": "s/task",
    "contract.solve_commutator_s": "s/task",
    "contract.solve_ln_s": "s/task",
    "contract.ansatz_apply_calls": "calls/task",
    "catalog.load_s": "s/task",
    "catalog.build_s": "s/task",
    "catalog.rtt_s": "s/task",
    "catalog.serialize_s": "s/task",
    "parser.parse_calls": "calls/task",
    "parser.parse_s": "s/task",
    "cli.command_s": "s/task",
    "reports.json_s": "s/task",
    "trace.overhead_ratio": "ratio",
}


def per_layer_metrics(tracer, tasks: int) -> dict[str, float]:
    """Every metric of ``UNITS`` but ``trace.overhead_ratio``."""
    calls, group_s, counters = tracer.calls, tracer.group_s, tracer.counters

    def n(*names):
        return sum(calls.get(name, 0) for name in names)

    def t(*groups):
        return sum(group_s.get(g, 0.0) for g in groups)

    totals = {
        "scalars.mul_calls": n("scalars.Scalar.__mul__",
                               "scalars.Scalar.__rmul__"),
        "scalars.add_calls": n("scalars.Scalar.__add__",
                               "scalars.Scalar.__radd__"),
        "scalars.gaussian_mul_calls": n("scalars.GaussianRational.__mul__",
                                        "scalars.GaussianRational.__rmul__"),
        "scalars.self_s": tracer.layer_self_s.get("scalars", 0.0),
        "freealg.element_mul_calls": n("freealg.Element.__mul__"),
        "freealg.element_mul_terms_out":
            counters.get("freealg.element_mul_terms_out", 0),
        "freealg.map_apply_calls": n("freealg.GeneratorMap.apply"),
        "freealg.self_s": tracer.layer_self_s.get("freealg", 0.0),
        "rewrite.nf_calls": n("rewrite.Presentation.normal_form"),
        "rewrite.nf_terms_in": counters.get("rewrite.nf_terms_in", 0),
        "rewrite.nf_terms_out": counters.get("rewrite.nf_terms_out", 0),
        "rewrite.find_match_calls": n("rewrite.Presentation.find_match"),
        "rewrite.redexes_found": counters.get("rewrite.redexes_found", 0),
        "rewrite.nf_self_s": sum(
            tracer.self_s.get(name, 0.0)
            for name in ("rewrite.Presentation.normal_form",
                         "rewrite.Presentation.find_match")),
        "rewrite.confluence_s": t("rewrite.check_local_confluence"),
        "rewrite.critical_pairs": counters.get("rewrite.critical_pairs", 0),
        "rewrite.at_slots_s": t("rewrite.Presentation.at_slots"),
        **{f"hopf.suite_s.{name}": counters.get(f"hopf.suite_s.{name}", 0.0)
           for name in HOPF_SUITES},
        "hopf.delta_respects_s": t("hopf.check_delta_respects_relations"),
        "hopf.coassociativity_s": t("hopf.check_coassociativity"),
        "hopf.counit_antipode_s": t("hopf.check_counit_antipode"),
        "hopf.star_s": t("hopf.check_star"),
        "hopf.convolution_s": t("hopf.check_convolution_on_element"),
        "hopf.coproduct_calls": n("hopf.HopfPresentation.apply_coproduct"),
        "hopf.coproduct_s": t("hopf.HopfPresentation.apply_coproduct"),
        "contract.contraction_suite_s": t("contract.contraction_suite"),
        "contract.change_of_variables_s":
            t("contract.verify_change_of_variables"),
        "contract.solver_suite_s": t("contract.solver_suite"),
        "contract.solve_commutator_s": t("contract.solve_commutator"),
        "contract.solve_ln_s": t("contract.solve_ln_commutator"),
        "contract.ansatz_apply_calls": n("contract.ContractionAnsatz.apply",
                                         "contract.ContractionAnsatz.apply_tensor"),
        "catalog.load_s": t("catalog.load_presentation"),
        "catalog.build_s": t("catalog.build"),
        "catalog.rtt_s": t("catalog.rtt"),
        "catalog.serialize_s": t("catalog.serialize_presentation"),
        "parser.parse_calls": n("parser.parse_expression"),
        "parser.parse_s": t("parser.parse"),
        "cli.command_s": t("cli.main"),
        "reports.json_s": t("reports.report_to_json_dict"),
    }
    out = {name: value / tasks for name, value in totals.items()}
    terms_out = totals["rewrite.nf_terms_out"]
    out["rewrite.find_match_per_term_out"] = (
        totals["rewrite.find_match_calls"] / terms_out if terms_out else 0.0)
    return out
