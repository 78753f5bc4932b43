"""In-memory spans around fracpack's public functions, and per-layer metrics.

install() rebinds each traced function in every fracpack module that holds
it, including names imported by value (fracpack.ifs.affine_sign_scaled and
fracpack.measure.affine_sign_scaled are the same function as
fracpack.numeric.affine_sign_scaled).  A span records its name, op, parent,
start and end.  The sign test runs millions of times per pass, so it is a
leaf counter instead: each call adds its count and time to the enclosing
span.  A span's self time is its duration minus the time its child spans
and leaf calls cover.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (module, function, span name, extractor of (count name, value) pairs)
SPANS = [
    ("cli", "main", "cli.main", None),
    ("config", "resolve_config", "config.resolve", None),
    ("numeric", "make_lacunary", "numeric.make_lacunary", None),
    ("ifs", "count_in_ball", "ifs.count", lambda a, r: [("ifs.count_hits", r.count)]),
    ("ifs", "project", "ifs.project", None),
    ("measure", "box_counting_profile", "measure.box",
     lambda a, r: [("measure.level_points", sum(3 ** n for n in range(1, a[1] + 1)))]),
    ("measure", "packing_premeasure_estimate", "measure.pack",
     lambda a, r: [("measure.level_points", 3 ** a[1])]),
    ("measure", "measure_bounds", "measure.bounds", None),
    ("measure", "density_profile", "measure.density", None),
    ("codespace", "sample_sequence", "codespace.sample",
     lambda a, r: [("codespace.symbols_drawn", a[1])]),
    ("codespace", "influence_count", "codespace.influence",
     lambda a, r: [("codespace.records_found", r.count)]),
    ("stats", "binom_tail", "stats.tail", None),
    ("stats", "binom_pmf", "stats.pmf", None),
    ("stats", "monte_carlo_growth", "stats.growth", None),
    ("stats", "empirical_X_law", "stats.xlaw", None),
    ("stats", "borel_cantelli_table", "stats.table", None),
]
LEAF = ("numeric", "affine_sign_scaled")


@dataclass
class Span:
    sid: int
    parent: int          # -1 for an op's root span
    op: int              # index of the op in the pass
    name: str
    t0: float
    t1: float = 0.0
    child_s: float = 0.0  # time covered by direct child spans
    leaf_s: float = 0.0   # time covered by direct leaf calls
    leaf_calls: int = 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _undo: list = field(default_factory=list)

    def begin(self, name: str, op: int) -> Span:
        parent = self.stack[-1].sid if self.stack else -1
        s = Span(len(self.spans), parent, op, name, time.perf_counter())
        self.spans.append(s)
        self.stack.append(s)
        return s

    def end(self, s: Span) -> None:
        s.t1 = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += s.t1 - s.t0

    def _span_wrapper(self, fn, name, extract):
        def traced(*args, **kwargs):
            s = self.begin(name, self.stack[-1].op if self.stack else -1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(s)
            if extract is not None:
                for key, value in extract(args, result):
                    self.counts[key] = self.counts.get(key, 0) + value
            return result
        return traced

    def _leaf_wrapper(self, fn):
        clock, stack = time.perf_counter, self.stack

        def traced(*args):
            t0 = clock()
            result = fn(*args)
            top = stack[-1]
            top.leaf_s += clock() - t0
            top.leaf_calls += 1
            return result
        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a fracpack module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "fracpack" or name.startswith("fracpack.")]
        targets = [(mod, fn, self._span_wrapper(getattr(sys.modules["fracpack." + mod], fn),
                                                name, extract))
                   for mod, fn, name, extract in SPANS]
        leaf_fn = getattr(sys.modules["fracpack." + LEAF[0]], LEAF[1])
        targets.append((LEAF[0], LEAF[1], self._leaf_wrapper(leaf_fn)))
        for mod, fn, wrapper in targets:
            original = getattr(sys.modules["fracpack." + mod], fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()


def self_time(s: Span) -> float:
    return (s.t1 - s.t0) - s.child_s - s.leaf_s


def layer_metrics(tracer: Tracer, passes: int, ops: int) -> dict:
    """Per-layer metrics, per pass over the op list (so counts repeat exactly)."""
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def dur(name):
        return sum(s.t1 - s.t0 for s in by_name.get(name, ())) / passes

    def own(name):
        return sum(self_time(s) for s in by_name.get(name, ())) / passes

    def count(key):
        return tracer.counts.get(key, 0) / passes

    sign_calls = sum(s.leaf_calls for s in tracer.spans)
    sign_s = sum(s.leaf_s for s in tracer.spans)
    count_calls = len(by_name.get("ifs.count", ()))
    count_signs = sum(s.leaf_calls for s in by_name.get("ifs.count", ()))
    return {
        "numeric.sign_calls": (sign_calls / passes, "count"),
        "numeric.sign_s": (sign_s / passes, "s"),
        "numeric.sign_calls_per_op": (sign_calls / max(ops, 1), "calls/op"),
        "numeric.make_lacunary_s": (dur("numeric.make_lacunary"), "s"),
        "ifs.count_calls": (calls("ifs.count"), "count"),
        "ifs.count_self_s": (own("ifs.count"), "s"),
        "ifs.count_hits": (count("ifs.count_hits"), "count"),
        "ifs.sign_calls_per_count": (count_signs / max(count_calls, 1), "calls/call"),
        "ifs.project_s": (dur("ifs.project"), "s"),
        "measure.box_self_s": (own("measure.box"), "s"),
        "measure.pack_self_s": (own("measure.pack"), "s"),
        "measure.bounds_self_s": (own("measure.bounds"), "s"),
        "measure.density_self_s": (own("measure.density"), "s"),
        "measure.level_points": (count("measure.level_points"), "count-computed"),
        "codespace.sample_calls": (calls("codespace.sample"), "count"),
        "codespace.sample_s": (dur("codespace.sample"), "s"),
        "codespace.symbols_drawn": (count("codespace.symbols_drawn"), "count"),
        "codespace.influence_calls": (calls("codespace.influence"), "count"),
        "codespace.influence_s": (dur("codespace.influence"), "s"),
        "codespace.records_found": (count("codespace.records_found"), "count"),
        "stats.tail_s": (dur("stats.tail"), "s"),
        "stats.pmf_s": (dur("stats.pmf"), "s"),
        "stats.growth_self_s": (own("stats.growth"), "s"),
        "stats.xlaw_self_s": (own("stats.xlaw"), "s"),
        "stats.table_s": (dur("stats.table"), "s"),
        "cli.calls": (calls("cli.main"), "count"),
        "cli.self_s": (own("cli.main"), "s"),
        "config.resolve_s": (dur("config.resolve"), "s"),
    }

