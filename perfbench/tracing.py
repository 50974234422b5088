"""Spans and counters around the public functions of the fgl modules.

The tracer measures from outside the package: it replaces each listed
function or method with a wrapper and restores the original afterwards.  A
module-level function is replaced in every fgl module that holds it, because
modules bind each other's functions with ``from .x import y``.

Every wrapped call pushes a frame on one stack.  When the call returns, its
duration is added to its parent frame, and its self time (duration minus the
time its wrapped children took) is added to per-name totals.  Calls of the
structural functions are also kept as span records (name, start, end,
parent span, op id).  Ring and series kernels run millions of times per op,
so they are kept as totals only.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

RING_CONTEXTS = (
    "IntegerRing",
    "RationalField",
    "PadicIntegers",
    "EisensteinExtension",
    "PolynomialQuotient",
)
RING_OPS = ("mul", "add", "normalize", "invert")
SERIES_KERNELS = {
    "mul": ("__mul__", "__rmul__"),
    "substitute": ("substitute",),
    "compositional_inverse": ("compositional_inverse",),
    "multiplicative_inverse": ("multiplicative_inverse",),
}
CLI_SUBCOMMANDS = (
    "from-log", "lubin-tate", "check", "log", "recover-add", "universal",
    "specialize", "classify",
)


def _action_pairs(counters, args, report):
    counters["laws.verify_action.pairs_checked"] += report.checked_pairs
    counters["laws.verify_action.pairs_skipped"] += report.skipped_pairs


def _table_counts(counters, args, ring):
    n = len(ring.elements)
    counters["recovery.build_addition_table.pairs"] += n * (n + 1) // 2
    for kind, count in ring.flag_counts().items():
        counters[f"recovery.build_addition_table.flags.{kind}"] += count


def _morphism_pairs(counters, args, _):
    morphism = args[0]
    if morphism.table is not None:
        counters["monoids.MonoidMorphism.verify.pairs"] += (
            len(morphism.source.payloads()) ** 2
        )


def _presentation_counts(counters, args, pres):
    counters["universal.generate_presentation.relations"] += len(pres.ideal)
    counters["universal.generate_presentation.nonzero_relations"] += len(
        pres.nonzero_ideal()
    )


# (module, attribute path, extra counters derived from the call)
STRUCTURAL = (
    ("laws", "verify_action", _action_pairs),
    ("laws", "from_logarithm", None),
    ("laws", "endomorphism_from_logarithm", None),
    ("laws", "check_axioms_series", None),
    ("laws", "FglEndomorphism.verify", None),
    ("lubin_tate", "build_fgl", None),
    ("lubin_tate", "build_endomorphism", None),
    ("lubin_tate", "build_action", None),
    ("monoids", "MonoidMorphism.verify", _morphism_pairs),
    ("monoids", "build_monoid_isomorphism", None),
    ("monoids", "padic_truncation_of", None),
    ("recovery", "build_addition_table", _table_counts),
    ("recovery", "transport_structure", None),
    ("recovery", "variation_demo", None),
    ("universal", "generate_presentation", _presentation_counts),
    ("universal", "specialize", None),
    ("universal", "classify_fgl", None),
    ("parsing", "parse_series", None),
    ("parsing", "parse_integer_polynomial", None),
)
UNCOVERED = ("op", "recovery.variation_demo")
COUNTER_NAMES = (
    "laws.verify_action.pairs_checked",
    "laws.verify_action.pairs_skipped",
    "recovery.build_addition_table.pairs",
    "recovery.build_addition_table.flags.cap",
    "recovery.build_addition_table.flags.precision",
    "monoids.MonoidMorphism.verify.pairs",
    "universal.generate_presentation.relations",
    "universal.generate_presentation.nonzero_relations",
    "series.objects",
    "cli.stdout_bytes",
)


class Tracer:
    """Stack-based span timer; one instance per traced phase."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # frames: [child seconds, span id]
        self.totals = {}  # name -> [calls, inclusive s, self s]
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.op_id = None
        self._next_span = 0
        self._undo = []

    def _close(self, name, start, frame, span_id, parent_span):
        end = self.clock()
        self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][0] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[0]
        if span_id is not None:
            self.spans.append((span_id, name, start, end, parent_span, self.op_id))

    def _open(self, record):
        parent_span = self.stack[-1][1] if self.stack else None
        span_id = None
        if record:
            span_id = self._next_span
            self._next_span += 1
        frame = [0.0, parent_span if span_id is None else span_id]
        self.stack.append(frame)
        return frame, span_id, parent_span

    @contextmanager
    def span(self, name):
        frame, span_id, parent_span = self._open(True)
        start = self.clock()
        try:
            yield
        finally:
            self._close(name, start, frame, span_id, parent_span)

    def wrap(self, name, fn, record=True, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, span_id, parent_span = tracer._open(record)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, start, frame, span_id, parent_span)
            if after is not None:
                after(tracer.counters, args, result)
            return result

        return traced

    # ---- patching ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "fgl" and not modname.startswith("fgl."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)

    def install(self):
        """Wrap every traced layer of the fgl package."""
        self.install_structural()
        self.install_kernels()

    def install_structural(self):
        """Wrap the STRUCTURAL functions only.  Their wrappers run a few
        thousand times per op, so without the kernels the stage times are
        close to untraced ones."""
        for modname, path, after in STRUCTURAL:
            mod = importlib.import_module(f"fgl.{modname}")
            name = f"{modname}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self.wrap(name, cls.__dict__[meth], after=after))
            else:
                orig = getattr(mod, path)
                self._patch_function(orig, self.wrap(name, orig, after=after))

    def install_kernels(self):
        """Wrap the series kernels and the ring operations, and count every
        series constructed."""
        series_cls = importlib.import_module("fgl.series").TruncatedSeries
        for kernel, attrs in SERIES_KERNELS.items():
            wrapper = self.wrap(f"series.{kernel}", series_cls.__dict__[attrs[0]],
                                record=False)
            for attr in attrs:
                self._set(series_cls, attr, wrapper)
        self._set(series_cls, "__init__", self._counting_init(series_cls.__init__))
        rings = importlib.import_module("fgl.rings")
        for ctx_name in RING_CONTEXTS:
            cls = getattr(rings, ctx_name)
            for op in RING_OPS:
                if op in cls.__dict__:
                    self._set(cls, op, self.wrap(f"rings.{ctx_name}.{op}",
                                                 cls.__dict__[op], record=False))

    def _counting_init(self, init):
        counters = self.counters

        @functools.wraps(init)
        def counted(*args, **kwargs):
            counters["series.objects"] += 1
            init(*args, **kwargs)

        return counted

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---- derived figures -----------------------------------------------

    def layer_metrics(self, ops: int) -> dict:
        """Every per-layer figure, per op, as {name: (value, unit)}."""

        def total(name):
            return self.totals.get(name, (0, 0.0, 0.0))

        out = {}
        for modname, path, _ in STRUCTURAL:
            name = f"{modname}.{path}"
            calls, incl, own = total(name)
            out[f"{name}.calls"] = (calls / ops, "count")
            out[f"{name}.s"] = (incl / ops, "s")
            out[f"{name}.self_s"] = (own / ops, "s")
        for kernel in SERIES_KERNELS:
            calls, incl, own = total(f"series.{kernel}")
            out[f"series.{kernel}.calls"] = (calls / ops, "count")
            out[f"series.{kernel}.self_s"] = (own / ops, "s")
        for ctx_name in RING_CONTEXTS:
            ctx_self = 0.0
            for op in RING_OPS:
                calls, _, own = total(f"rings.{ctx_name}.{op}")
                out[f"rings.{ctx_name}.{op}.calls"] = (calls / ops, "count")
                ctx_self += own
            out[f"rings.{ctx_name}.self_s"] = (ctx_self / ops, "s")
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.{sub}.s"] = (total(f"cli.{sub}")[1] / ops, "s")
        for name in COUNTER_NAMES:
            unit = "B" if name.endswith("_bytes") else "count"
            out[name] = (self.counters[name] / ops, unit)
        checked = self.counters["laws.verify_action.pairs_checked"]
        tried = checked + self.counters["laws.verify_action.pairs_skipped"]
        out["laws.verify_action.checked_ratio"] = (
            checked / tried if tried else 0.0, "ratio"
        )
        return out

    def self_coverage(self, op_seconds: float) -> float:
        """Share of the traced op time that the named layers' self times
        account for.  The op span's own remainder and variation_demo's self
        time (the catch-all around its stages, reported on its own) are
        left out, so time spent outside every wrapped layer lowers it."""
        return sum(
            t[2] for name, t in self.totals.items() if name not in UNCOVERED
        ) / op_seconds

    def spans_json(self) -> list:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "op": o}
            for i, n, s, e, p, o in self.spans
        ]
