"""Outside-in tracing of the plumbcalc library.

The tracer rebinds public functions in their defining module and in every
plumbcalc module that imported them with ``from .x import name``, so calls
inside a module and calls across modules both pass through the wrapper.
Nothing under ``src/`` changes.

A span is ``(span_id, parent_id, name, start_ns, end_ns, job, info, failed)``:
``info`` carries one size or result per span where a layer metric needs it
(matrix size for ``det_exact``, homomorphisms found for ``count_homs``, log
length for ``standardize``) and ``failed`` marks a call that raised.  Spans
stay in memory; ``dump`` writes them out when the run ends and
``layer_metrics`` reads that file back.

Spans and counts are recorded only while a job is active, so the
benchmark's own answer checks, which run between jobs, stay out of the
trace.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

# module -> functions that get spans: the layer metrics' functions plus
# every other library function a job calls directly, so that top-level
# spans cover the job.  Each name is rebound wherever the plumbcalc
# package holds a reference to the original function.
TRACED = {
    "graphs": (
        "det_exact", "smith_normal_form", "canonical_ordering",
        "canonical_encoding", "graphs_isomorphic", "classify_segments",
        "intersection_matrix", "is_negative_definite",
    ),
    "divisor": (
        "standardize", "blow_up", "blow_down", "elementary_flow", "is_standard",
    ),
    "family": (
        "build_boundary_graph", "build_by_blowups", "picard_check",
        "verify_chart", "verify_volume_form",
    ),
    "plumbing": (
        "from_divisor_graph", "normalize", "move_R1", "move_R3",
        "gauge_canonicalize", "is_normal", "reverse_orientation",
        "h1_from_graph", "jsj_cut",
    ),
    "invariants": (
        "pi1_presentation", "abelianization", "count_homs",
        "alexander_polynomial", "two_bridge_fraction", "kirby_handle_data",
        "chain_complex_homology",
    ),
    "cli": ("main",),
}

MOVES = ("divisor.blow_up", "divisor.blow_down", "divisor.elementary_flow")


def _info_det(args, kwargs, result):
    return len(args[0])


def _info_result_int(args, kwargs, result):
    return result


def _info_log_len(args, kwargs, result):
    return len(result[1])


INFO = {
    "graphs.det_exact": _info_det,
    "invariants.count_homs": _info_result_int,
    "divisor.standardize": _info_log_len,
}


class Tracer:
    """Span recorder; ``install`` patches the library, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []

    def _span(self, name, fn):
        tracer = self
        info_fn = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job = tracer.job
            if job is None:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            info = None
            failed = False
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if info_fn is not None:
                    info = info_fn(args, kwargs, result)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, job, info, failed))

        return wrapper

    def install(self, modules: dict) -> None:
        """Rebind every traced name; ``modules`` maps short names to modules."""
        originals = {}
        for mod_name, funcs in TRACED.items():
            mod = modules[mod_name]
            for fname in funcs:
                fn = getattr(mod, fname)
                originals[id(fn)] = (fn, self._span(f"{mod_name}.{fname}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and value is hit[0]:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

        graph_cls = modules["graphs"].WeightedGraph
        init, edges_at = graph_cls.__init__, graph_cls.edges_at
        counts = self.counts
        tracer = self

        def counted_init(g, *args, **kwargs):
            if tracer.job is not None:
                counts["graphs.WeightedGraph.constructed"] += 1
            init(g, *args, **kwargs)

        def counted_edges_at(g, vid):
            if tracer.job is not None:
                counts["graphs.edges_at.calls"] += 1
                counts["graphs.edges_at.edges_scanned"] += len(g.edges)
            return edges_at(g, vid)

        self._patches.append((graph_cls, "__init__", init))
        self._patches.append((graph_cls, "edges_at", edges_at))
        graph_cls.__init__ = counted_init
        graph_cls.edges_at = counted_edges_at

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._patches):
            setattr(obj, attr, value)
        self._patches.clear()

    def dump(self, path, passes: list) -> None:
        """Write spans and the per-pass counters; ``passes`` holds one
        ``{"pass": i, "counts": {...}, "scale": f, "wall_ns": n}`` entry
        per traced pass, ``f`` being its host-speed factor."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "passes": passes}, fh)


def _self_times(spans):
    child = defaultdict(int)
    for sid, parent, name, t0, t1, *_ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    return {s[0]: (s[4] - s[3]) - child[s[0]] for s in spans}


def layer_metrics(path) -> dict:
    """Per-layer numbers from a span file, per traced pass.

    Counts must repeat in every traced pass (the inputs are fixed), so
    they come from the first pass and a mismatch is reported.  Times are
    scaled by their pass's host-speed factor, like the end-to-end ones,
    and are medians over passes.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    spans = [tuple(s) for s in data["spans"]]
    passes = data["passes"]
    selfs = _self_times(spans)
    by_pass = defaultdict(list)
    for s in spans:
        by_pass[s[5][0]].append(s)

    per_pass = []
    for p in passes:
        ps = by_pass.get(p["pass"], [])
        calls = Counter()
        self_ns = Counter()
        info_sum = Counter()
        info_max = Counter()
        failed = Counter()
        top_ns = 0
        f = p["scale"]
        for s in ps:
            sid, parent, name, t0, t1, job, info, bad = s
            calls[name] += 1
            self_ns[name] += selfs[sid] * f
            if info is not None:
                info_sum[name] += info
                info_max[name] = max(info_max[name], info)
            if bad:
                failed[name] += 1
            if parent is None:
                top_ns += (t1 - t0) * f
        per_pass.append({
            "calls": calls, "self_ns": self_ns, "info_sum": info_sum,
            "info_max": info_max, "failed": failed, "counts": p["counts"],
            "wall_ns": p["wall_ns"], "top_ns": top_ns, "spans": len(ps),
        })

    first = per_pass[0]
    stable = all(
        q["calls"] == first["calls"] and q["counts"] == first["counts"]
        and q["info_sum"] == first["info_sum"]
        for q in per_pass[1:]
    )

    def self_s(name):
        return statistics.median(q["self_ns"][name] for q in per_pass) / 1e9

    out = {}
    for name in ("graphs.det_exact", "graphs.smith_normal_form",
                 "graphs.canonical_ordering", "graphs.graphs_isomorphic",
                 "graphs.classify_segments", "divisor.standardize",
                 "plumbing.normalize", "plumbing.h1_from_graph",
                 "invariants.count_homs"):
        out[f"{name}.calls"] = first["calls"][name]
        out[f"{name}.self_s"] = self_s(name)
    out["graphs.det_exact.max_n"] = first["info_max"]["graphs.det_exact"]
    out["graphs.canonical_encoding.calls"] = first["calls"]["graphs.canonical_encoding"]
    for name in ("graphs.intersection_matrix", "graphs.is_negative_definite",
                 "divisor.blow_up", "divisor.blow_down", "divisor.is_standard",
                 "family.build_boundary_graph", "family.build_by_blowups",
                 "family.picard_check", "family.verify_chart",
                 "family.verify_volume_form", "plumbing.gauge_canonicalize",
                 "plumbing.is_normal", "plumbing.reverse_orientation",
                 "plumbing.jsj_cut", "invariants.pi1_presentation",
                 "invariants.abelianization", "invariants.alexander_polynomial",
                 "invariants.chain_complex_homology"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("graphs.WeightedGraph.constructed", "graphs.edges_at.calls",
                 "graphs.edges_at.edges_scanned"):
        out[name] = first["counts"].get(name, 0)
    attempted = sum(first["calls"][m] for m in MOVES)
    failed = sum(first["failed"][m] for m in MOVES)
    out["divisor.moves.attempted"] = attempted
    out["divisor.moves.failed"] = failed
    out["divisor.moves.ok_frac"] = (attempted - failed) / attempted if attempted else 1.0
    out["divisor.standardize.log_moves"] = first["info_sum"]["divisor.standardize"]
    out["plumbing.move_R1.calls"] = first["calls"]["plumbing.move_R1"]
    out["plumbing.move_R3.calls"] = first["calls"]["plumbing.move_R3"]
    out["invariants.count_homs.homs_found"] = first["info_sum"]["invariants.count_homs"]
    out["trace.spans"] = first["spans"]

    walls = [q["wall_ns"] for q in per_pass]
    tops = [q["top_ns"] for q in per_pass]
    return {
        "metrics": out,
        "counts_stable": stable,
        "traced_wall_s": statistics.median(walls) / 1e9,
        "top_span_s": statistics.median(tops) / 1e9,
    }
