"""Outside-in tracing of the qcontract layers.

The benchmark installs wrappers around public functions of each module in
``src/qcontract``; the program itself is not edited.  Every wrapped call
pushes a frame, so each call's self time is its duration minus the time spent
in wrapped callees, and self time adds up per layer (the module name).

Boundary functions (commands, suites, normal forms, loaders) also leave a
span ``(name, start, end, parent, task)`` kept in memory and written out at
the end.  Hot leaf methods (scalar and element arithmetic,
``Presentation.find_match``) leave no span: they only add to per-function
counts and times, because a span per call would cost more than the call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

SPAN = "span"
HOT = "hot"


def _terms_out(c, args, result, dur):
    c["freealg.element_mul_terms_out"] += len(result.terms)


def _nf_terms(c, args, result, dur):
    c["rewrite.nf_terms_in"] += len(args[1].terms)
    c["rewrite.nf_terms_out"] += len(result.terms)


def _redex(c, args, result, dur):
    if result is not None:
        c["rewrite.redexes_found"] += 1


def _pairs(c, args, result, dur):
    c["rewrite.critical_pairs"] += len(result)


def _suite(c, args, result, dur):
    c[f"hopf.suite_s.{args[0].name}"] += dur


# (module, qualified name, kind, time group or None, hook or None).  A time
# group sums the inclusive time of its outermost calls only, so nested or
# recursive members are not counted twice.
WRAPPED = [
    ("scalars", "Scalar.__mul__", HOT, None, None),
    ("scalars", "Scalar.__rmul__", HOT, None, None),
    ("scalars", "Scalar.__add__", HOT, None, None),
    ("scalars", "Scalar.__radd__", HOT, None, None),
    ("scalars", "Scalar.__sub__", HOT, None, None),
    ("scalars", "Scalar.__neg__", HOT, None, None),
    ("scalars", "Scalar.conjugate", HOT, None, None),
    ("scalars", "Scalar.eliminate_param", HOT, None, None),
    ("scalars", "Scalar.set_param_zero", HOT, None, None),
    ("scalars", "GaussianRational.__mul__", HOT, None, None),
    ("scalars", "GaussianRational.__rmul__", HOT, None, None),
    ("scalars", "q_power", HOT, None, None),
    ("freealg", "Element.__mul__", HOT, None, _terms_out),
    ("freealg", "Element.__add__", HOT, None, None),
    ("freealg", "Element.__sub__", HOT, None, None),
    ("freealg", "Element.__neg__", HOT, None, None),
    ("freealg", "Element.scaled", HOT, None, None),
    ("freealg", "Element.map_scalars", HOT, None, None),
    ("freealg", "Element.eps_components", HOT, None, None),
    ("freealg", "Element.rebind", HOT, None, None),
    ("freealg", "GeneratorMap.apply", HOT, None, None),
    ("freealg", "tensor_embed", HOT, None, None),
    ("freealg", "retag_slots", HOT, None, None),
    ("freealg", "format_element", HOT, None, None),
    ("rewrite", "Presentation.normal_form", SPAN, None, _nf_terms),
    ("rewrite", "Presentation.find_match", HOT, None, _redex),
    ("rewrite", "Presentation.at_slots", HOT, None, None),
    ("rewrite", "critical_pairs", SPAN, None, _pairs),
    ("rewrite", "check_local_confluence", SPAN, None, None),
    ("parser", "parse_expression", HOT, "parser.parse", None),
    ("catalog", "load_presentation", SPAN, None, None),
    ("catalog", "parse_presentation_text", SPAN, None, None),
    ("catalog", "serialize_presentation", SPAN, None, None),
    ("catalog", "suq2_presentation", SPAN, "catalog.build", None),
    ("catalog", "ekappa2_klmn_presentation", SPAN, "catalog.build", None),
    ("catalog", "ekappa2_final_presentation", SPAN, "catalog.build", None),
    ("catalog", "classical_limit", SPAN, None, None),
    ("catalog", "rtt_relations", SPAN, "catalog.rtt", None),
    ("catalog", "distinct_rtt_relations", SPAN, "catalog.rtt", None),
    ("catalog", "reference_rtt_relation_set", SPAN, "catalog.rtt", None),
    ("catalog", "klmn_named_elements", SPAN, None, None),
    ("hopf", "run_hopf_suite", SPAN, None, _suite),
    ("hopf", "check_delta_respects_relations", SPAN, None, None),
    ("hopf", "check_coassociativity", SPAN, None, None),
    ("hopf", "check_counit_antipode", SPAN, None, None),
    ("hopf", "check_star", SPAN, None, None),
    ("hopf", "check_convolution_on_element", SPAN, None, None),
    ("hopf", "grouplike_residual", SPAN, None, None),
    ("hopf", "central_residuals", SPAN, None, None),
    ("hopf", "HopfPresentation.apply_coproduct", SPAN, None, None),
    ("contract", "ContractionAnsatz.apply", HOT, None, None),
    ("contract", "ContractionAnsatz.apply_tensor", HOT, None, None),
    ("contract", "contraction_suite", SPAN, None, None),
    ("contract", "verify_change_of_variables", SPAN, None, None),
    ("contract", "solver_suite", SPAN, None, None),
    ("contract", "solve_commutator", SPAN, None, None),
    ("contract", "solve_ln_commutator", SPAN, None, None),
    ("contract", "klmn_with_ln_rule", SPAN, None, None),
    ("sampling", "random_element", HOT, None, None),
    ("reports", "report_to_json_dict", SPAN, None, None),
    ("cli", "main", SPAN, None, None),
    ("cli", "cmd_nf", SPAN, None, None),
    ("cli", "cmd_contract", SPAN, None, None),
    ("cli", "cmd_solve_commutator", SPAN, None, None),
    ("cli", "cmd_report", SPAN, None, None),
]


class Tracer:
    """Spans and per-function counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.task = None
        self._frames: list = []        # [child seconds] per active call
        self._open_spans: list = []    # span ids of active span calls
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, kind: str, group, hook):
        frames, open_spans, spans = self._frames, self._open_spans, self.spans
        calls, self_s, layer_self_s = self.calls, self.self_s, self.layer_self_s
        group_s, depth, counters = self.group_s, self._depth, self.counters
        clock = self.clock
        group = group or name
        is_span = kind == SPAN

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            depth[group] += 1
            if is_span:
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(sid)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                dur = t1 - t0
                frames.pop()
                depth[group] -= 1
                if is_span:
                    open_spans.pop()
                    spans[sid] = (name, t0, t1, parent, self.task)
                calls[name] += 1
                own = dur - frame[0]
                self_s[name] += own
                layer_self_s[layer] += own
                if frames:
                    frames[-1][0] += dur
                if not depth[group]:
                    group_s[group] += dur
                if ok and hook is not None:
                    hook(counters, args, result, dur)
            return result

        return traced

    def install(self, package: str = "qcontract"):
        """Wrap every entry of ``WRAPPED``; module-level functions are
        rebound wherever a module of the package holds a reference."""
        import importlib

        modules = {m: importlib.import_module(f"{package}.{m}")
                   for m in {w[0] for w in WRAPPED}}
        holders = [importlib.import_module(package), *modules.values()]
        for modname, qualname, kind, group, hook in WRAPPED:
            mod = modules[modname]
            name = f"{modname}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[attr]
                self._set(owner, attr,
                          self.wrap(orig, name, modname, kind, group, hook))
                continue
            orig = getattr(mod, qualname)
            traced = self.wrap(orig, name, modname, kind, group, hook)
            for other in holders:
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._set(other, key, traced)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                self._set_item(value, k, traced)

    def _set(self, owner, attr, value):
        self._undo.append((setattr, owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        while self._undo:
            setter, owner, key, orig = self._undo.pop()
            setter(owner, key, orig)

    # -- tasks -----------------------------------------------------------------

    def run_task(self, task_id, fn):
        """Run ``fn`` under a root span named ``bench.task``."""
        self.task = task_id
        root = self.wrap(fn, "bench.task", "bench", SPAN, None, None)
        try:
            return root()
        finally:
            self.task = None

    def nesting_errors(self) -> list[str]:
        """Spans that do not lie inside their parent or cross tasks."""
        errors = []
        for sid, (name, start, end, parent, task) in enumerate(self.spans):
            if parent is None:
                continue
            pname, pstart, pend, _, ptask = self.spans[parent]
            if not (pstart <= start <= end <= pend) or task != ptask:
                errors.append(f"span {sid} {name} escapes parent {parent} "
                              f"{pname}")
        return errors

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, task) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "task": task}) + "\n")
