"""Outside-in tracing of the mevlens layers, and self-time analysis.

``install`` wraps the public functions of every layer module, plus a few
named methods, from outside the package: each wrapper replaces the
function at every ``mevlens`` module binding that holds it (for example
``mevlens.cli.load_fixture`` as well as ``mevlens.chain_model.load_fixture``),
so calls through imported names are traced too. Nothing under ``src/``
changes.

Each call becomes a span (name, start, end, parent, run id) kept in
memory and written when the process ends. A function's first
``SPAN_CAP`` calls in a process are stored as spans; later calls, and
every call nested inside one of them, are aggregated into their nearest
stored ancestor as (calls, total, self) per function name. This bounds
memory for functions called 10^5 times a run.

``analyze`` turns spans and aggregates into per-function calls, total
time and self time, where self time is a span's duration minus the time
its child spans cover and minus the time of its aggregated children.
"""

from __future__ import annotations

import importlib
import os
import types
from time import perf_counter

LAYERS = ("cli", "chain_model", "registry", "decoding", "detectors", "opportunity",
          "amm", "crosslayer", "bytecode", "keccak", "reporting")
# leaf helpers cheaper than the wrapper itself; their time stays with the caller
UNWRAPPED = {"decoding.decode_word", "chain_model.to_hex"}
METHODS = {
    "registry": {"TopicRegistry": ("lookup",)},
    "opportunity": {"StateProvider": ("from_jsonl", "pool_state", "health_factor",
                                      "shortfall")},
    "detectors": {"PriceProvider": ("from_csv", "lookup", "eth_usd")},
}
SPAN_CAP = 1000


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []        # [id, name, start, end, parent id, agg_direct_s]
        self.aggs = {}         # (parent span id, name) -> [calls, total_s, self_s]
        self.counters = {}     # name -> number
        self.errors = {}       # name -> calls that raised
        self._stack = []       # frames: [span id or None, child_s, agg_child_s]
        self._stored = {}      # name -> spans stored so far

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def call(self, name, fn, args, kwargs, probe=None):
        stack = self._stack
        parent = stack[-1] if stack else None
        store = ((parent is None or parent[0] is not None)
                 and self._stored.get(name, 0) < SPAN_CAP)
        if store:
            self._stored[name] = self._stored.get(name, 0) + 1
            span_id = len(self.spans)
            self.spans.append(None)   # reserve the id in call order
        else:
            span_id = None
        frame = [span_id, 0.0, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.errors[name] = self.errors.get(name, 0) + 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            dur = end - start
            if parent is not None:
                parent[1] += dur
                if span_id is None:
                    parent[2] += dur
            if span_id is not None:
                self.spans[span_id] = [span_id, name, start, end,
                                       parent[0] if parent else None, frame[2]]
            else:
                anchor = next(f[0] for f in reversed(stack) if f[0] is not None)
                agg = self.aggs.setdefault((anchor, name), [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
        if probe is not None:
            probe(self, args, result)
        return result

    def dump(self) -> dict:
        counters = dict(self.counters)
        digests = counters.pop("_digests", set())
        counters["bytecode.distinct_skeletons"] = len(digests)
        return {"run": self.run_id, "spans": self.spans,
                "aggs": [[p, n, *v] for (p, n), v in self.aggs.items()],
                "counters": counters, "errors": self.errors}


# --- probes: counts read from arguments and results at the call boundary ---

def _probe_load_fixture(t, args, ds):
    t.count("chain_model.records", len(ds.blocks) + len(ds.txs) + len(ds.logs))
    t.count("chain_model.logs_loaded", len(ds.logs))


def _probe_logs_in_range(t, args, result):
    t.count("chain_model.logs_in_range.logs_scanned", len(args[0].logs))
    t.count("chain_model.logs_in_range.hits", len(result))


def _probe_decode(t, args, result):
    if result is not None:
        t.count("decoding.yields")


def _probe_sandwiches(t, args, result):
    t.count("detectors.detect_sandwiches.transfers", len(args[0]))
    t.count("detectors.detect_sandwiches.findings", len(result))


def _probe_opportunity(t, args, result):
    if result.status == "found":
        t.count("opportunity.found")


def _probe_swap_out(t, args, result):
    if args[0].kind == "stableswap":
        t.count("amm.swap_out.stable")


def _probe_frontrun(t, args, result):
    if result[0] == 0:
        t.count("crosslayer.optimal_frontrun.zero_size")


def _probe_infer(t, args, result):
    candidates, links, diagnostics = result
    t.count("crosslayer.infer_victims.candidates", len(candidates))
    t.count("crosslayer.infer_victims.links", len(links))
    t.count("crosslayer.infer_victims.unlinked",
            len(diagnostics["unlinked_l1"]) + len(diagnostics["unlinked_l2"]))


def _probe_normalize(t, args, result):
    t.counters.setdefault("_digests", set()).add(result.digest)


def _probe_keccak(t, args, result):
    t.count("keccak.keccak256.bytes", len(args[0]))


def _probe_write(t, args, result):
    t.count("reporting.bytes_written", os.path.getsize(args[-1]))


def _probe_emit_report(t, args, result):
    t.count("reporting.bytes_written", sum(os.path.getsize(p) for p in result.values()))


PROBES = {
    "chain_model.load_fixture": _probe_load_fixture,
    "chain_model.logs_in_range": _probe_logs_in_range,
    "detectors.detect_sandwiches": _probe_sandwiches,
    "opportunity.find_arbitrage_opportunity": _probe_opportunity,
    "opportunity.find_liquidation_opportunity": _probe_opportunity,
    "amm.swap_out": _probe_swap_out,
    "crosslayer.optimal_frontrun": _probe_frontrun,
    "crosslayer.infer_victims": _probe_infer,
    "bytecode.normalize": _probe_normalize,
    "keccak.keccak256": _probe_keccak,
    "reporting.emit_report": _probe_emit_report,
}


def _probe_for(name):
    if name in PROBES:
        return PROBES[name]
    if name.startswith("decoding.decode_"):
        return _probe_decode
    if name.startswith("reporting.write_"):
        return _probe_write
    return None


def _wrap(tracer, name, fn):
    probe = _probe_for(name)

    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, probe)

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def install(run_id: str) -> Tracer:
    """Wrap every public function of the layer modules and the named
    methods; returns the tracer that records their calls."""
    tracer = Tracer(run_id)
    modules = {layer: importlib.import_module(f"mevlens.{layer}") for layer in LAYERS}
    package = importlib.import_module("mevlens")
    replaced = {}   # id(original) -> wrapper
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and f"{layer}.{attr}" not in UNWRAPPED):
                replaced[id(obj)] = _wrap(tracer, f"{layer}.{attr}", obj)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for m in methods:
                raw = cls.__dict__[m]
                name = f"{layer}.{cls_name}.{m}"
                if isinstance(raw, classmethod):
                    setattr(cls, m, classmethod(_wrap(tracer, name, raw.__func__)))
                else:
                    setattr(cls, m, _wrap(tracer, name, raw))
    for mod in list(modules.values()) + [package]:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    return tracer


# --- analysis ---

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def analyze(trace: dict) -> dict:
    """Per-function {calls, total_s, self_s} from one process's trace,
    plus ``under``: per (ancestor name, function name), the calls made
    anywhere below a span of that ancestor."""
    spans = trace["spans"]
    children: dict = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    funcs: dict = {}

    def add(name, calls, total, self_s):
        f = funcs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        f["calls"] += calls
        f["total_s"] += total
        f["self_s"] += self_s

    for span_id, name, start, end, _, agg_direct in spans:
        kids = [(c[2], c[3]) for c in children.get(span_id, ())]
        add(name, 1, end - start, end - start - covered(kids) - agg_direct)
    by_id = {s[0]: s for s in spans}
    under: dict = {}

    def ancestors(span_id):
        names = set()
        while span_id is not None:
            span = by_id[span_id]
            names.add(span[1])
            span_id = span[4]
        return names

    for span in spans:
        for anc in ancestors(span[4]):
            under[anc, span[1]] = under.get((anc, span[1]), 0) + 1
    for parent, name, calls, total, self_s in trace["aggs"]:
        add(name, calls, total, self_s)
        for anc in ancestors(parent):
            under[anc, name] = under.get((anc, name), 0) + calls
    return {"funcs": funcs, "under": under}
