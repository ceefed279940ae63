"""Spans around lexsem's layer boundaries, recorded from outside the package.

The traced run wraps two sets of calls: the package entry points the
benchmark calls itself, and every lexsem function that one lexsem module
imports from another (for example `lexsem.composition.normalize`).  No
file of the package changes; the wrappers replace module attributes and
are removed afterwards.  Calls inside one module are not wrapped, so they
count towards their caller's self time.

A span's self time is its duration minus the time its child spans cover.
Spans are kept in memory, up to a cap, and written out when the run ends;
the per-layer sums are kept for every call.
"""

from __future__ import annotations

import itertools
import json
import time
import types

LAYERS = ("kernel", "reduction", "logic", "lexicon", "composition", "cli")
ENTRY_CALLER = "bench"


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.stats: dict = {}     # "layer.fn@caller" -> [calls, total_ns, self_ns]
        self.counts = {"reduction.steps": 0, "composition.readings_kept": 0,
                       "composition.rejections": 0}
        self.spans: list = []     # (id, parent id, key, start ns, end ns)
        self.span_cap = span_cap
        self.spans_dropped = 0
        self._stack: list = []
        self._ids = itertools.count(1)
        self._sites: list = []    # (module, name, original, wrapper)

    def wrap(self, fn, key, classify=None, on_result=None):
        stack, stats, spans = self._stack, self.stats, self.spans
        clock, ids, tracer = time.perf_counter_ns, self._ids, self

        def traced(*args, **kwargs):
            k = classify(key, args) if classify else key
            frame = [0, next(ids)]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                st = stats.get(k)
                if st is None:
                    st = stats[k] = [0, 0, 0]
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if len(spans) < tracer.span_cap:
                    spans.append((frame[1], parent, k, t0, t1))
                else:
                    tracer.spans_dropped += 1
            if on_result:
                on_result(result)
            return result
        return traced

    def _hooks(self, fn):
        """Counters read from results: reduction steps and verdicts."""
        if fn.__module__ == "lexsem.reduction" and fn.__name__ == "normalize":
            def steps(result):
                self.counts["reduction.steps"] += len(result[1])
            return steps
        if fn.__module__ == "lexsem.composition" and fn.__name__ == "felicity":
            def verdict(v):
                self.counts["composition.readings_kept"] += len(v.readings)
                self.counts["composition.rejections"] += len(v.rejection_log)
            return verdict
        return None

    def _wrap_named(self, fn, caller):
        key = f"{layer_of(fn.__module__)}.{fn.__name__}@{caller}"
        classify = None
        if caller == "composition" and fn.__name__ == "alpha_equiv":
            from lexsem.kernel import is_term

            def classify(key, args):
                # alpha_equiv on terms, called from composition, is dedup
                return key + ".dedup" if args and is_term(args[0]) else key
        return self.wrap(fn, key, classify, self._hooks(fn))

    def entry(self, fn):
        """A package entry point that the benchmark calls itself."""
        return self._wrap_named(fn, ENTRY_CALLER)

    def install(self, modules: dict):
        """Wrap the cross-module imports of `modules` (layer -> module);
        `enable` and `disable` then switch the wrappers in and out."""
        for layer, module in modules.items():
            for name, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__.startswith("lexsem.")
                        and value.__module__ != module.__name__):
                    self._sites.append((module, name, value,
                                        self._wrap_named(value, layer)))
        self.enable()

    def enable(self):
        for module, name, _, wrapped in self._sites:
            setattr(module, name, wrapped)

    def disable(self):
        for module, name, fn, _ in self._sites:
            setattr(module, name, fn)

    def dump(self) -> dict:
        return {"stats": self.stats, "counts": self.counts,
                "spans": self.spans, "spans_dropped": self.spans_dropped}


def lexsem_modules() -> dict:
    import importlib
    return {layer: importlib.import_module(f"lexsem.{layer}")
            for layer in LAYERS}


# ---------------------------------------------------------------------------
# per-layer metrics from the sums


def merge(into: dict, dump: dict):
    for k, (calls, total, self_ns) in dump["stats"].items():
        st = into["stats"].setdefault(k, [0, 0, 0])
        st[0] += calls
        st[1] += total
        st[2] += self_ns
    for k, v in dump["counts"].items():
        into["counts"][k] = into["counts"].get(k, 0) + v


def empty_dump() -> dict:
    return {"stats": {}, "counts": {}}


def layer_metrics(dump: dict, rounds: int, output_bytes: int,
                  load_self_s=None) -> dict:
    """The per-layer metrics, per round (one pass over the inputs).

    The in-process workloads load their lexica once, outside the rounds;
    they pass the self time of that load as `load_self_s`.
    """
    stats = dump["stats"]
    counts = dump["counts"]

    def pick(fn, caller=None, field=0):
        total = 0
        for k, st in stats.items():
            name, _, who = k.partition("@")
            if name == fn and (caller is None or who == caller):
                total += st[field]
        return total

    def calls(fn, caller=None):
        return pick(fn, caller, 0) / rounds

    def self_s(fn, caller=None):
        return pick(fn, caller, 2) / 1e9 / rounds

    raw = pick("reduction.normalize", "composition")
    kept = counts.get("composition.readings_kept", 0)
    m = {}
    for fn in ("kernel.type_of", "kernel.alpha_equiv", "kernel.subst_term",
               "kernel.parse_term", "reduction.normalize",
               "logic.to_formula", "lexicon.poly_and", "lexicon.iota"):
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.self_s"] = self_s(fn)
    m["kernel.render.self_s"] = (self_s("kernel.render_term")
                                 + self_s("kernel.render_type"))
    m["reduction.steps"] = counts.get("reduction.steps", 0) / rounds
    m["logic.render_formula.self_s"] = self_s("logic.render_formula")
    m["lexicon.candidates.calls"] = calls("lexicon.candidates")
    m["lexicon.load_lexicon.self_s"] = (self_s("lexicon.load_lexicon")
                                        if load_self_s is None
                                        else load_self_s)
    m["composition.parse_tree.self_s"] = self_s("composition.parse_tree")
    m["composition.self_s"] = self_s("composition.felicity")
    m["composition.readings_raw"] = raw / rounds
    m["composition.readings_kept"] = kept / rounds
    m["composition.dedup_kept_ratio"] = kept / raw if raw else 0.0
    m["composition.dedup.self_s"] = self_s("kernel.alpha_equiv",
                                           "composition.dedup")
    m["composition.rejections"] = counts.get("composition.rejections",
                                             0) / rounds
    m["cli.self_s"] = self_s("cli.main")
    m["cli.renormalize.calls"] = calls("reduction.normalize", "cli")
    m["cli.renormalize.self_s"] = self_s("reduction.normalize", "cli")
    m["cli.output_bytes"] = output_bytes / rounds
    return m


def write_spans(path, dumps):
    """One JSON line per span: process, id, parent id, key, start, end."""
    with open(path, "w") as out:
        for proc, dump in enumerate(dumps):
            for span in dump.get("spans", ()):
                out.write(json.dumps([proc, *span]) + "\n")
