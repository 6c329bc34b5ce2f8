"""Per-layer spans for the traced run, recorded from outside the library.

``Tracer.install`` replaces every binding of each listed ``ncsf`` function
(the defining module's and each copy that ``from ... import`` made
elsewhere) with a wrapper that records a span: name, parent span, start,
end and a work count.  Spans stay in memory and are written out when the
job ends.  A layer's self time is its span's duration minus the durations
of its direct child spans.  Cache hit ratios come from ``cache_info()``.
"""

import json
import sys
import time

# (layer name, whether to report calls, work count name, work count of one call)
LAYERS = (
    ("linalg.invert", True, "rows", lambda args, result: len(args[0])),
    ("linalg.matmul", True, None, None),
    ("tableaux.dhat_matrix", False, None, None),
    ("tableaux.enumerate_syct", False, "tableaux", lambda args, result: len(result)),
    ("tableaux.enumerate_syt", False, None, None),
    ("sym.schur", False, None, None),
    ("sym.transition_matrix", False, None, None),
    ("qsym.transition_matrix", False, None, None),
    ("nsym.transition_matrix", False, None, None),
    ("qsym.qsym_convert", True, None, None),
    ("nsym.nsym_convert", True, None, None),
    ("sym.sym_convert", True, None, None),
    ("nsym.duality_pairing", True, None, None),
    ("nsym.nsym_multiply", False, None, None),
    ("nsym.star_antiautomorphism", False, None, None),
    ("nsym.forgetful_map", False, None, None),
    ("qsym.symmetric_part", False, None, None),
    ("sym.sym_multiply", False, None, None),
    ("descent.descent_classes", False, "perms", lambda args, result: sum(map(len, result.values()))),
    ("descent.descent_span_coordinates", True, None, None),
    ("descent.psi", False, None, None),
    ("descent.psi_inverse", False, None, None),
    ("characters.theta", True, None, None),
    ("characters.ch_inverse", False, None, None),
    ("characters.irreducible_character", False, None, None),
    ("characters.verify_main_theorem", False, None, None),
    ("descent.xi", False, None, None),
    ("descent.convolve", False, "terms", lambda args, result: len(args[0].terms) * len(args[1].terms)),
    ("serialize.to_json", False, "bytes", lambda args, result: len(result)),
    ("cli.main", False, None, None),
    ("verification.run_suite", False, None, None),
)

# memoized functions whose hit ratio is reported
CACHED = (
    "compositions.compositions_of",
    "characters.young_character",
    "tableaux.dhat_matrix",
    "descent.descent_classes",
)

PACKAGE = "ncsf"


def metric_names() -> list:
    """Every per-layer metric, in the order the benchmark reports them."""
    names = []
    for layer, calls, work, _ in LAYERS:
        names.append(f"{layer}.self_s")
        if calls:
            names.append(f"{layer}.calls")
        if work:
            names.append(f"{layer}.{work}")
    return names + [f"{name}.hit_ratio" for name in CACHED]


def _lookup(dotted):
    module_name, attr = dotted.split(".")
    return getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), attr, None)


class Tracer:
    def __init__(self):
        self.spans = []  # (layer, parent span or -1, start, end, work)
        self.missing = []
        self._stack = []
        self._cache_base = {}

    def install(self) -> None:
        """Wrap every binding of each layer in every loaded ``ncsf`` module."""
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, _, _, work in LAYERS:
            original = _lookup(layer)
            if original is None:
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, original, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, layer, fn, work):
        spans, stack = self.spans, self._stack
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, parent, start, end, 0)
            # a memoized call does its work only on a miss
            if work and (cache_info is None or cache_info().misses > misses):
                spans[index] = (layer, parent, start, end, work(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def start(self) -> None:
        """Forget spans so far and note cache counters: timed work begins."""
        self.spans.clear()
        self._cache_base = {name: self._cache_counts(name) for name in CACHED}

    @staticmethod
    def _cache_counts(name):
        fn = _lookup(name)
        if not hasattr(fn, "cache_info"):  # a span wrapper around the memoized function
            fn = getattr(fn, "__wrapped__", None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        return (info.hits, info.misses) if info else (0, 0)

    def totals(self) -> dict:
        """``layers``: [self seconds, calls, work] per layer; ``caches``:
        [hits, misses] per memoized function, since ``start``."""
        child = [0.0] * len(self.spans)
        for layer, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers = {layer: [0.0, 0, 0] for layer, *_ in LAYERS}
        for i, (layer, _, start, end, work) in enumerate(self.spans):
            entry = layers[layer]
            entry[0] += end - start - child[i]
            entry[1] += 1
            entry[2] += work
        caches = {}
        for name in CACHED:
            (hits, misses), (hits0, misses0) = self._cache_counts(name), self._cache_base.get(name, (0, 0))
            caches[name] = [hits - hits0, misses - misses0]
        return {"layers": layers, "caches": caches}

    def write(self, path) -> None:
        """One JSON line per span: layer, parent, start, end, work."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def metrics(per_job_totals) -> dict:
    """Per-layer metric values from the ``totals`` of a round's jobs."""
    summed = {"layers": {}, "caches": {}}
    for totals in per_job_totals:
        for kind, entries in totals.items():
            for name, values in entries.items():
                acc = summed[kind].setdefault(name, [0] * len(values))
                for i, value in enumerate(values):
                    acc[i] += value
    out = {}
    for layer, calls, work, _ in LAYERS:
        self_s, count, amount = summed["layers"].get(layer, (0.0, 0, 0))
        out[f"{layer}.self_s"] = self_s
        if calls:
            out[f"{layer}.calls"] = count
        if work:
            out[f"{layer}.{work}"] = amount
    for name in CACHED:
        hits, misses = summed["caches"].get(name, (0, 0))
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out
