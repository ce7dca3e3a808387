"""Spans around the public functions of each zecap layer, for traced runs.

Every wrapped function records a span (name, start, end, parent) in memory.
zecap modules bind some functions by name (``automata.spectral_radius`` is
``numerics.spectral_radius``), so a wrapper replaces the function wherever a
zecap module binds it.  A layer's time is the self time of its spans: the
duration minus the part covered by child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, function, span name, counter hook name)
TRACED = [
    ("graphs", "strong_product", "graphs.strong_power", "product_edges"),
    ("graphs", "strong_power", "graphs.strong_power", None),
    ("graphs", "independence_number", "graphs.independence", "bb_nodes"),
    ("varlen", "verify_zero_error", "varlen.verify", None),
    ("varlen", "rate", "varlen.rate", None),
    ("varlen", "count_concatenations", "varlen.count", None),
    ("intermingled", "build_transition_graph", "intermingled.build", "transition_graph"),
    ("intermingled", "count_sequences", "intermingled.count", "edge_steps"),
    ("intermingled", "rate", "intermingled.rate", None),
    ("intermingled", "verify_zero_error", "intermingled.verify", None),
    ("automata", "regex_to_dfa", "automata.dfa", "dfa"),
    ("automata", "generator_series", "automata.series", None),
    ("automata", "count_language", "automata.count_language", None),
    ("automata", "rational_code_rate", "automata.rate", None),
    ("automata", "channel_series_prefix", "automata.channel_prefix", None),
    ("numerics", "spectral_radius", "numerics.spectral_radius", "matrix_order"),
    ("numerics", "aberth_roots", "numerics.aberth", None),
    ("numerics", "series_coefficients", "numerics.series_coefficients", None),
    ("numerics", "polynomial_gcd", "numerics.gcd", "calls"),
    ("numerics", "unique_positive_root", "numerics.positive_root", None),
]
JOB_SPAN = "job"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.active: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.active[name] = self.active.get(name, 0) + 1
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.active[name] -= 1
            self.stack.pop()

    # counter hooks: (tracer, result, args, outermost) -> None
    def _product_edges(self, res, args, outermost):
        self.add("graphs.product_edges", res.edge_count())

    def _bb_nodes(self, res, args, outermost):
        if outermost:
            self.add("graphs.bb_nodes", res.nodes)

    def _transition_graph(self, res, args, outermost):
        self.add("intermingled.states", res.state_count())
        self.add("intermingled.edges", len(res.edges))

    def _edge_steps(self, res, args, outermost):
        self.add("intermingled.edge_steps", len(args[0].edges) * args[1])

    def _dfa(self, res, args, outermost):
        self.add("automata.dfa_calls", 1)
        self.add("automata.dfa_states", res.state_count())

    def _matrix_order(self, res, args, outermost):
        self.add("numerics.spectral_radius_dim", len(args[0]))

    def _calls(self, res, args, outermost):
        self.add("numerics.gcd_calls", 1)

    def install(self) -> None:
        """Replace each traced function in every zecap module that binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "zecap" or name.startswith("zecap.")]
        for mod_name, fn_name, span_name, hook in TRACED:
            original = getattr(sys.modules[f"zecap.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_name,
                                 getattr(self, f"_{hook}") if hook else None)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = not self.active.get(name)
            res = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(res, args, outermost)
            return res
        return wrapper

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics by name; a layer the workload never calls reads 0."""
        selft = self.self_times()
        m = {"cli.self_s": selft.get(JOB_SPAN, 0.0)}
        for _, _, span_name, _ in TRACED:
            m[f"{span_name}_s"] = selft.get(span_name, 0.0)
        m.update({k: v for k, v in self.counts.items() if k != "intermingled.edge_steps"})
        for key in ("graphs.product_edges", "graphs.bb_nodes", "intermingled.states",
                    "intermingled.edges", "automata.dfa_calls", "automata.dfa_states",
                    "numerics.spectral_radius_dim", "numerics.gcd_calls"):
            m.setdefault(key, 0)
        ind, cnt = m["graphs.independence_s"], m["intermingled.count_s"]
        m["graphs.bb_nodes_per_s"] = m["graphs.bb_nodes"] / ind if ind else 0.0
        m["intermingled.edge_steps_per_s"] = (
            self.counts.get("intermingled.edge_steps", 0) / cnt if cnt else 0.0)
        return m

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh)
