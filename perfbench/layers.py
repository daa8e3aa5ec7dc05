"""Spans around the program's public functions, recorded from outside.

The traced pass replaces every public function of each layer module with
a wrapper that records a span: layer, function, request, parent span,
start and end.  A span covers the whole public call, including what it
calls inside the program; calls from one public function into another
(for example `verify_exhaustive` into `algebraic_issues`) nest.  The
request itself, `omnikey.cli.main`, is the root span of layer "cli".

The memory pass is separate: it wraps only the functions whose peak
allocation is reported and turns `tracemalloc` on inside them, so its
slowdown never reaches a timed or traced span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("network", "omniscience", "secrecy", "connectivity", "fields", "protocols", "oracle")

SYNTH = ("synth_omniscience", "synth_sk", "synth_chain", "split_gap_protocol")


def _adds(key, measure):
    def count(tracer, result) -> None:
        tracer.counts[key] += measure(result)

    return count


def _count_protocol(tracer, proto) -> None:
    tracer.counts["protocols.field_order_sum"] += proto.field.q
    tracer.field_orders.add(proto.field.q)


# Results the traced pass reads counts from, keyed by function name.
_COUNTERS = {
    "min_broadcasts": _adds("omniscience.tight_sets", lambda r: len(r.tight_sets)),
    "build_report": _adds("secrecy.table_rows", lambda r: len(r.entries)),
    "verify_exhaustive": _adds("oracle.states", lambda r: r.states),
    **{name: _count_protocol for name in SYNTH},
}

# Per-layer time metrics: the functions whose outermost spans they sum.
TIMED = {
    "network.parse_s": ("parse_network",),
    "omniscience.min_broadcasts_s": ("min_broadcasts",),
    "omniscience.decision_s": ("broadcasts_at_most",),
    "secrecy.build_report_s": ("build_report",),
    "secrecy.minimum_cover_s": ("minimum_cover",),
    "secrecy.min_key_support_s": ("min_key_support",),
    "connectivity.partition_check_s": ("partition_bound_holds",),
    "connectivity.tree_packing_s": ("tree_packing_number", "extract_tree_packing"),
    "fields.field_setup_s": ("field_from_order",),
    "protocols.synth_s": SYNTH,
    "protocols.algebra_s": ("algebraic_issues",),
    "protocols.json_s": ("protocol_to_json", "protocol_from_json"),
    "oracle.verify_s": ("verify_exhaustive",),
}

COUNTS = ("omniscience.tight_sets", "secrecy.table_rows", "protocols.field_order_sum", "oracle.states")

# Memory pass: metric name and the function whose calls it covers.
MEMORY = {"omniscience.peak_alloc_mb": "min_broadcasts", "oracle.peak_alloc_mb": "verify_exhaustive"}


def public_functions():
    """(layer, name, function) for every plain function a layer exports."""
    for layer in LAYERS:
        module = importlib.import_module(f"omnikey.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                yield layer, name, obj


def _rebind(original, replacement) -> None:
    """Point every omnikey module attribute bound to `original` at the
    replacement, so calls from the CLI and between modules both see it."""
    for modname, module in list(sys.modules.items()):
        if modname == "omnikey" or modname.startswith("omnikey."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    """In-memory span recorder.  A span is a tuple
    (request, span_id, parent_id, layer, name, start, end)."""

    def __init__(self) -> None:
        self.request = ""
        self._stack: list[int] = []
        self._next = 0
        self.reset()

    def install(self) -> None:
        for layer, name, fn in public_functions():
            _rebind(fn, self.wrap(layer, name, fn))

    def wrap(self, layer: str, name: str, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs, counter)

        traced.__wrapped__ = fn
        return traced

    def call(self, layer, name, fn, args, kwargs, counter=None):
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.request, span_id, parent, layer, name, start, end))
        if counter is not None:
            counter(self, result)
        return result

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.field_orders: set[int] = set()


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer totals over the spans of one traced batch and its probe.

    Time metrics sum outermost spans only, so a function that reaches
    itself again through another public function is not counted twice."""
    by_id = {s[1]: s for s in spans}

    def outermost(span, names) -> bool:
        parent = span[2]
        while parent != -1:
            up = by_id[parent]
            if up[4] in names:
                return False
            parent = up[2]
        return True

    out: dict[str, float] = {}
    for metric, names in TIMED.items():
        out[metric] = sum(s[6] - s[5] for s in spans if s[4] in names and outermost(s, names))
    out["omniscience.min_broadcasts_calls"] = sum(1 for s in spans if s[4] == "min_broadcasts")
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    verify_s = out["oracle.verify_s"]
    out["oracle.states_per_s"] = out["oracle.states"] / verify_s if verify_s > 0 else 0.0
    return out


def self_times(spans) -> dict[str, float]:
    """Time spent in each layer outside the public calls it makes into
    other layers (or into itself), keyed by layer."""
    child_total: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[2] != -1:
            child_total[s[2]] += s[6] - s[5]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s[3]] += s[6] - s[5] - child_total[s[1]]
    return dict(out)


class MemoryProbe:
    """Peak traced allocation inside the calls named in MEMORY."""

    def __init__(self) -> None:
        self.peaks = {metric: 0.0 for metric in MEMORY}
        self._depth = 0

    def install(self) -> None:
        wanted = {name: metric for metric, name in MEMORY.items()}
        for _layer, name, fn in public_functions():
            if name in wanted:
                _rebind(fn, self.wrap(wanted[name], fn))

    def wrap(self, metric: str, fn):
        def measured(*args, **kwargs):
            outer = self._depth == 0
            if outer:
                tracemalloc.start()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if outer:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[metric] = max(self.peaks[metric], peak / 2**20)

        measured.__wrapped__ = fn
        return measured
