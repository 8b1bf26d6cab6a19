"""Per-layer tracing for the traced run only.

Each trusskit module is a layer.  Its public module-level functions, and a
few public methods that are a layer's entry points, are wrapped in spans;
the name is patched in every trusskit module that imported it, so calls
between modules are seen too.  Hot carrier calls get a plain counter and
no span.  A layer's self time is its spans' time minus the time of the
spans nested inside them.  Nothing is patched in an untraced run.

Which end-to-end metric each layer metric should move, and on which
workload, is in LAYER_METRICS.
"""

from __future__ import annotations

import functools
import inspect
import time

from harness import TIMEOUT

LAYERS = ("core", "coproduct", "words", "rings", "trusses", "modules", "serialize",
          "cli", "reports")

# (layer, class, method) -> counter; no span, these are the hot carrier calls
COUNTED = {
    ("core", "FiniteHeap", "ternary"): "core.heap_ternary_calls",
    ("core", "FiniteGroup", "op"): "core.group_op_calls",
    ("coproduct", "DirectSum", "ternary"): "coproduct.ternary_calls",
    ("trusses", "FiniteTruss", "mul"): "trusses.mul_calls",
    ("trusses", "IntegerTruss", "mul"): "trusses.mul_calls",
    ("trusses", "ConstantTruss", "mul"): "trusses.mul_calls",
    ("trusses", "ExtensionTruss", "mul"): "trusses.mul_calls",
    ("rings", "RModule", "act"): "rings.module_op_calls",
    ("rings", "RModule", "plus"): "rings.module_op_calls",
    ("rings", "RModule", "neg"): "rings.module_op_calls",
    ("modules", "FiniteTModule", "act"): "modules.act_calls",
    ("modules", "FreeTModule", "act"): "modules.act_calls",
}

# methods that are a layer's entry points: spanned like public functions
SPANNED_METHODS = (
    ("coproduct", "DirectSum", "word_form"),
    ("coproduct", "DirectSum", "normalize_word"),
    ("reports", "Report", "to_json"),
)

# end-to-end metric and workload each layer metric should move
LAYER_METRICS = {
    "core.self_s": "verdict_s, decided_share on tables; cli through heap loading",
    "core.validate_heap_s": "verdict_s, decided_share on tables",
    "core.heap_ternary_calls": "verdict_s on tables and searches",
    "core.group_op_calls": "verdict_s on tables and searches",
    "coproduct.self_s": "verdict_s, decided_share on extensions; none on tables, searches",
    "coproduct.word_form_calls": "verdict_s, decided_share on extensions",
    "coproduct.normalize_word_calls": "verdict_s, decided_share on extensions",
    "coproduct.letters": "verdict_s, decided_share on extensions",
    "coproduct.ternary_calls": "verdict_s, decided_share on extensions",
    "trusses.self_s": "verdict_s, decided_share on extensions",
    "trusses.mul_calls": "verdict_s, decided_share on extensions",
    "trusses.checked": "decided_share on extensions",
    "trusses.letters_per_mul": "verdict_s on extensions",
    "rings.self_s": "verdict_s, decided_share on searches",
    "rings.module_op_calls": "verdict_s, decided_share on searches",
    "rings.homs_found": "decided_share on searches",
    "rings.ops_per_hom": "verdict_s on searches",
    "modules.self_s": "verdict_s, decided_share on searches",
    "modules.act_calls": "verdict_s on searches and extensions",
    "modules.checked": "decided_share on extensions",
    "modules.homs_found": "decided_share on searches",
    "serialize.self_s": "verdict_s, nonfailed_share on cli",
    "serialize.docs_loaded": "nonfailed_share on cli",
    "serialize.bytes_loaded": "verdict_s on cli",
    "cli.self_s": "verdict_s, nonfailed_share on cli",
    "cli.calls": "nonfailed_share on cli",
    "words.self_s": "verdict_s, nonfailed_share on cli",
    "words.prune_calls": "verdict_s on cli",
    "words.letters": "verdict_s on cli",
    "reports.findings": "fail-path cost on tables and cli; an exact validator keeps it",
    "reports.self_s": "fail-path cost on tables and cli",
    "trace.overhead": "none: traced verdict_s / untraced verdict_s",
}

COUNT_KEYS = sorted({k for k in LAYER_METRICS if not k.endswith("_s")
                     and k not in ("trusses.letters_per_mul", "rings.ops_per_hom",
                                   "trace.overhead")})


class Tracer:
    """Installs the wrappers into an imported trusskit and keeps the tallies."""

    def __init__(self, tk):
        self.package = tk.package
        self.mods = {name: getattr(tk, name) for name in LAYERS}
        self.report_cls = self.mods["reports"].Report
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.validate_heap_s = 0.0
        self.stack = []
        self._patches = []
        self._mark = None

    # -- tallies that can be rolled back for a case cut off by the limit --

    def mark(self):
        self._mark = (dict(self.counts), dict(self.self_s), self.validate_heap_s)

    def settle(self, outcome):
        if outcome == TIMEOUT:
            counts, self_s, vh = self._mark
            self.counts.update(counts)
            self.self_s.update(self_s)
            self.validate_heap_s = vh

    # -- hooks on span results --

    def _hooks(self):
        c = self.counts

        def add(key, value):
            c[key] += value

        return {
            "trusses.validate_truss": lambda a, r: add("trusses.checked", r.stats["checked"]),
            "modules.validate_module": lambda a, r: add("modules.checked", r.stats["checked"]),
            "rings.rmodule_homs": lambda a, r: add("rings.homs_found", len(r)),
            "modules.tmodule_homs_to_TN": lambda a, r: add("modules.homs_found", len(r)),
            "serialize.loads": lambda a, r: (add("serialize.docs_loaded", 1),
                                             add("serialize.bytes_loaded",
                                                 len(a[0].encode("utf-8")))),
            "cli.main": lambda a, r: add("cli.calls", 1),
            "words.prune": lambda a, r: (add("words.prune_calls", 1),
                                         add("words.letters", len(a[0]))),
            "words.abelian_normalize": lambda a, r: add("words.letters", len(a[0])),
            "coproduct.word_form": lambda a, r: (add("coproduct.word_form_calls", 1),
                                                 add("coproduct.letters", len(r))),
            "coproduct.normalize_word": lambda a, r: (add("coproduct.normalize_word_calls", 1),
                                                      add("coproduct.letters", len(a[1]))),
            "reports.to_json": lambda a, r: add("reports.findings", len(a[0].findings)),
        }

    def _span(self, layer, fn, hook, inclusive=False):
        stack, self_s, perf = self.stack, self.self_s, time.perf_counter
        report_cls, counts, tracer = self.report_cls, self.counts, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if inclusive:
                    tracer.validate_heap_s += dur
            if hook is not None:
                hook(args, result)
            if not stack and isinstance(result, report_cls):
                counts["reports.findings"] += len(result.findings)
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def install(self):
        hooks = self._hooks()
        every = [self.package] + list(self.mods.values())
        for layer, mod in self.mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                wrapped = self._span(layer, obj, hooks.get(key),
                                     inclusive=key == "core.validate_heap")
                for other in every:
                    for other_name, value in list(vars(other).items()):
                        if value is obj:
                            self._patch(other, other_name, wrapped)
        for layer, cls, meth in SPANNED_METHODS:
            klass = getattr(self.mods[layer], cls)
            self._patch(klass, meth, self._span(layer, getattr(klass, meth),
                                                hooks.get(f"{layer}.{meth}")))
        for (layer, cls, meth), key in COUNTED.items():
            klass = getattr(self.mods[layer], cls)
            self._patch(klass, meth, self._counter(key, getattr(klass, meth)))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def metrics(self, overhead):
        c = self.counts
        out = {f"{layer}.self_s": (self.self_s[layer], "s") for layer in LAYERS}
        out["core.validate_heap_s"] = (self.validate_heap_s, "s")
        for key in COUNT_KEYS:
            out[key] = (c[key], "bytes" if key.endswith("bytes_loaded") else "count")
        out["trusses.letters_per_mul"] = (
            c["coproduct.letters"] / c["trusses.mul_calls"] if c["trusses.mul_calls"] else 0.0,
            "ratio")
        out["rings.ops_per_hom"] = (
            c["rings.module_op_calls"] / c["rings.homs_found"] if c["rings.homs_found"] else 0.0,
            "ratio")
        out["trace.overhead"] = (overhead, "ratio")
        return {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())}
