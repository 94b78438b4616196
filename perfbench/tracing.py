"""Spans and per-layer metrics for the traced run.

The traced run replaces public layer functions at the module attribute
through which `activescan.cli` and `activescan.sbm` call them, so each
call an operation makes becomes a child span of that operation's span.
Counts are read from the returned objects at the same boundary. Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc
from contextlib import contextmanager


def _topq_counts(args, kwargs, result) -> dict:
    workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
    return {"q": args[1], "workers": workers,
            "computed": result.computed_count, "est1": result.est1_count,
            "est2": result.est2_count, "worker_counts": result.worker_exact_counts}


_COUNTS = {
    "graph.load_edge_list": lambda a, k, r: {"edges": r.m},
    "trimming.topq": _topq_counts,
    "similarity.build": lambda a, k, r: {"order": r.order},
    "spectral.cluster": lambda a, k, r: {"order": len(a[0])},
    "sbm.generate": lambda a, k, r: {"edges": r.graph.m},
}

# (module, attribute, span name) for every call site the traced run wraps
WRAPPED = [
    ("activescan", "psi_all", "locality.psi_all"),
    ("activescan.cli", "load_edge_list", "graph.load_edge_list"),
    ("activescan.cli", "topQ_lstat_parallel", "trimming.topq"),
    ("activescan.cli", "build_similarity_matrix", "similarity.build"),
    ("activescan.cli", "auto_sigma", "spectral.rbf"),
    ("activescan.cli", "rbf_affinity", "spectral.rbf"),
    ("activescan.cli", "model_selection_affinity", "spectral.model_selection"),
    ("activescan.cli", "estimate_num_clusters", "spectral.model_selection"),
    ("activescan.cli", "eigengap_floor_applied", "spectral.model_selection"),
    ("activescan.cli", "normalized_affinity_spectrum", "spectral.spectrum"),
    ("activescan.cli", "spectral_cluster", "spectral.cluster"),
    ("activescan.cli", "classical_mds", "spectral.mds"),
    ("activescan.cli", "monte_carlo_roc", "sbm.monte_carlo"),
    ("activescan.cli", "monte_carlo_ari", "sbm.monte_carlo"),
    ("activescan.sbm", "generate_sbm", "sbm.generate"),
    ("activescan.sbm", "psi_all", "locality.psi_all"),
    ("activescan.sbm", "roc_auc", "sbm.roc_auc"),
    ("activescan.sbm", "ari", "sbm.ari"),
    ("activescan.sbm", "build_similarity_matrix", "similarity.build"),
    ("activescan.sbm", "model_selection_affinity", "spectral.model_selection"),
    ("activescan.sbm", "estimate_num_clusters", "spectral.model_selection"),
    ("activescan.sbm", "normalized_affinity_spectrum", "spectral.spectrum"),
    ("activescan.sbm", "rbf_affinity", "spectral.rbf"),
    ("activescan.sbm", "spectral_cluster", "spectral.cluster"),
]

# layers whose time is reported as the summed duration of their spans
TIMED_LAYERS = [
    "graph.load_edge_list", "trimming.topq", "similarity.build",
    "spectral.model_selection", "spectral.spectrum", "spectral.rbf",
    "spectral.cluster", "spectral.mds", "locality.psi_all_k1",
    "locality.psi_all_k2", "sbm.generate", "sbm.roc_auc", "sbm.ari",
]

LAYER_METRICS = {
    **{f"{name}_ms": "ms" for name in TIMED_LAYERS},
    "trimming.computed_count": "count", "trimming.est1_count": "count",
    "trimming.est2_count": "count", "trimming.computed_per_q": "ratio",
    "trimming.worker_max_share": "ratio", "similarity.pairs": "count",
    "similarity.pairs_per_s": "1/s", "spectral.order": "count",
    "locality.psi_all_peak_mb": "MB", "sbm.edges": "count",
    "sbm.self_ms": "ms", "cli.self_ms": "ms", "trace.overhead_pct": "%",
}


class Tracer:
    """In-memory span recorder; wrappers record only inside an operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "parent": parent and parent["id"],
               "op": op if parent is None else parent["op"], "name": name,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        counts = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            if name == "locality.psi_all":
                return self._psi_all(fn, *args, **kwargs)
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counts:
                rec["counts"] = counts(args, kwargs, result)
            return result

        return traced

    def _psi_all(self, fn, g, k, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            with self.span(f"locality.psi_all_k{k}") as rec:
                result = fn(g, k, **kwargs)
            rec["counts"] = {"peak_mb": tracemalloc.get_traced_memory()[1] / 2**20}
        finally:
            if started:
                tracemalloc.stop()
        return result

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_time(span: dict, children: list[dict]) -> float:
    return (span["end"] - span["start"]) - _covered(
        [(c["start"], c["end"]) for c in children])


def round_metrics(spans: list[dict], op_ids: set[int]) -> dict[str, float]:
    """Per-layer metrics of one traced round: the spans of its operations."""
    mine = [s for s in spans if s["op"] in op_ids]
    children: dict[int, list[dict]] = {}
    for s in mine:
        children.setdefault(s["parent"], []).append(s)
    by_id = {s["id"]: s for s in mine}

    def outermost(s):  # a span not nested in a span of the same name
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"] == s["name"]:
                return False
            p = by_id.get(p["parent"])
        return True

    named: dict[str, list[dict]] = {}
    for s in mine:
        if outermost(s):
            named.setdefault(s["name"], []).append(s)

    def seconds(name):
        return sum(s["end"] - s["start"] for s in named.get(name, []))

    def self_ms(name):
        return 1e3 * sum(self_time(s, children.get(s["id"], [])) for s in named.get(name, []))

    def counted(prefix):  # counts of the spans whose call returned
        return [s["counts"] for s in mine if s["name"].startswith(prefix) and s["counts"]]

    m = {f"{name}_ms": 1e3 * seconds(name) for name in TIMED_LAYERS}
    serial = [c for c in counted("trimming.topq") if c["workers"] == 1]
    threaded = [c for c in counted("trimming.topq") if c["workers"] > 1]
    for key in ("computed", "est1", "est2"):
        m[f"trimming.{key}_count"] = sum(c[key] for c in serial)
    q_total = sum(c["q"] for c in serial)
    m["trimming.computed_per_q"] = m["trimming.computed_count"] / q_total if q_total else 0.0
    shares = [max(c["worker_counts"]) / sum(c["worker_counts"])
              for c in threaded if sum(c["worker_counts"])]
    m["trimming.worker_max_share"] = max(shares, default=0.0)
    m["similarity.pairs"] = sum(c["order"] * (c["order"] - 1) // 2
                                for c in counted("similarity.build"))
    build_s = seconds("similarity.build")
    m["similarity.pairs_per_s"] = m["similarity.pairs"] / build_s if build_s else 0.0
    m["spectral.order"] = max((c["order"] for c in counted("spectral.cluster")), default=0)
    m["locality.psi_all_peak_mb"] = max(
        (c["peak_mb"] for c in counted("locality.psi_all")), default=0.0)
    m["sbm.edges"] = sum(c["edges"] for c in counted("sbm.generate"))
    m["sbm.self_ms"] = self_ms("sbm.monte_carlo")
    m["cli.self_ms"] = self_ms("op.cli")
    return m


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
