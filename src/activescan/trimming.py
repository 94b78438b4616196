"""Top-Q search for the order-1 locality statistic with bound-based pruning.

The search computes the exact statistic on as few vertices as possible:
candidates are visited in degree-descending order, a cheap quadratic bound
is checked first, the tighter capped bound second, and the expensive exact
scan runs only while a bound stays at or above the running threshold.
Pruning is strict-less (a bound equal to the threshold is never pruned), so
ties at the Q-th position are always discovered.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import Graph
from .locality import (VertexMarker, _local_stat_value, est_lstat1, est_lstat2,
                       psi_all)


@dataclass
class TrimState:
    """Running state of a top-Q search.

    curr_max is the largest exact statistic discovered so far (monotone
    non-decreasing); known maps vertex -> exact statistic; pending holds the
    not-yet-computed vertices in degree-descending order.
    """

    curr_max: int = 0
    known: dict[int, int] = field(default_factory=dict)
    pending: list[int] = field(default_factory=list)

    def qth_value(self, q: int) -> int:
        if len(self.known) < q:
            return 0
        vals = np.fromiter(self.known.values(), dtype=np.int64, count=len(self.known))
        return int(np.partition(vals, vals.size - q)[vals.size - q])


@dataclass
class TopQResult:
    """Outcome of a top-Q search.

    entries is sorted by value descending (ascending vertex id within ties)
    and includes every discovered tie at the Q-th value, so its length is
    >= Q. The counters report distinct vertices whose exact statistic /
    bounds were evaluated.
    """

    entries: list[tuple[int, int]]
    computed_count: int
    est1_count: int
    est2_count: int
    wall_ms: float = 0.0
    worker_exact_counts: list[int] | None = None

    def values(self) -> list[int]:
        return [v for _, v in self.entries]


class _Bounds:
    """Lazy per-vertex caches for both upper bounds.

    A slot of -1 means not yet evaluated; the evaluation counts are the
    filled slots, so each vertex counts once however many passes reach it.
    """

    __slots__ = ("g", "_b1", "_b2")

    def __init__(self, g: Graph):
        self.g = g
        self._b1 = np.full(g.n, -1, dtype=np.int64)
        self._b2 = np.full(g.n, -1, dtype=np.int64)

    def bound1(self, v: int) -> int:
        val = self._b1[v]
        if val < 0:
            val = est_lstat1(self.g, v)
            self._b1[v] = val
        return int(val)

    def bound2(self, v: int) -> int:
        val = self._b2[v]
        if val < 0:
            val = est_lstat2(self.g, v)
            self._b2[v] = val
        return int(val)

    def counts(self) -> tuple[int, int]:
        return int((self._b1 >= 0).sum()), int((self._b2 >= 0).sum())


def _degree_desc_order(g: Graph, vertices: np.ndarray) -> np.ndarray:
    # ties broken by ascending vertex id for reproducibility
    return vertices[np.lexsort((vertices, -g.degrees()[vertices]))]


def _scan(g, ordered, floor, bounds, marker, trace):
    """One pruning pass over `ordered` (degree-descending candidates).

    The running threshold starts at `floor` and rises with every exact
    value found. Stopping once bound1 drops below the threshold is exact:
    bound1 is monotone in degree, the candidates are degree-sorted, and the
    threshold never decreases.
    """
    curr_max = floor
    computed: dict[int, int] = {}
    for i, v in enumerate(ordered):
        b1 = bounds.bound1(v)
        if b1 < curr_max:
            if trace is not None:
                for u in ordered[i:]:
                    trace[u] = ("est1", curr_max)
            break
        b2 = bounds.bound2(v)
        if b2 < curr_max:
            if trace is not None:
                trace[v] = ("est2", curr_max)
            continue
        val = _local_stat_value(g, v, marker)
        computed[v] = val
        if trace is not None:
            trace.pop(v, None)
        if val > curr_max:
            curr_max = val
    return computed


def top_lstat(g: Graph, candidates, floor: int = 0) -> dict[int, int]:
    """Scan candidates for the largest order-1 statistic above `floor`.

    Returns every vertex whose exact statistic was computed along the way,
    with its value. The maximum over the returned values equals the true
    maximum over the candidates whenever that maximum reaches `floor`;
    vertices whose upper bound fell below the running threshold are skipped.
    """
    cand = np.fromiter(candidates, dtype=np.int64) \
        if not isinstance(candidates, np.ndarray) else candidates.astype(np.int64)
    if cand.size == 0:
        raise ValueError("candidates must be non-empty")
    if cand.min() < 0 or cand.max() >= g.n:
        raise ValueError("candidate vertex out of range")
    if floor < 0:
        raise ValueError("floor must be non-negative")
    ordered = _degree_desc_order(g, cand).tolist()
    return _scan(g, ordered, floor, _Bounds(g), VertexMarker(g.n), None)


def _make_entries(vertices, values, q: int) -> list[tuple[int, int]]:
    """(vertex, value) pairs by value descending, ids ascending within ties,
    cut after the last vertex tied with the Q-th value."""
    vertices = np.asarray(vertices, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    order = np.lexsort((vertices, -values))
    ranked = values[order]
    # ranked descends, so the ties of the Q-th value directly follow it
    end = q + int(np.count_nonzero(ranked[q:] == ranked[q - 1]))
    return list(zip(vertices[order[:end]].tolist(), ranked[:end].tolist()))


def _check_q(g: Graph, q: int) -> None:
    if not 1 <= q <= g.n:
        raise ValueError(f"Q must be in [1, {g.n}], got {q}")


def _search(g, q, bounds, marker, trace):
    """Two-stage driver of the top-Q search.

    Stage 1 accumulates at least Q exact values by repeated scans with a
    zero floor. Stage 2 rescans the remaining vertices with the floor set
    to the current Q-th value and stops once a pass discovers no value
    above its floor: in that pass the threshold never rose past the floor,
    so every still-pending vertex has a bound strictly below the final
    Q-th value.
    """
    _check_q(g, q)
    state = TrimState()
    state.pending = _degree_desc_order(g, np.arange(g.n, dtype=np.int64)).tolist()

    def absorb(computed):
        state.known.update(computed)
        state.pending = [u for u in state.pending if u not in computed]
        if computed:
            state.curr_max = max(state.curr_max, max(computed.values()))

    while len(state.known) < q and state.pending:
        computed = _scan(g, state.pending, 0, bounds, marker, trace)
        absorb(computed)
        if not computed:
            break  # unreachable with floor 0; guards against a stalled loop
    while state.pending:
        kth = state.qth_value(q)
        computed = _scan(g, state.pending, kth, bounds, marker, trace)
        absorb(computed)
        if not computed or max(computed.values()) <= kth:
            break
    return state


def topQ_lstat(g: Graph, q: int, *, _trace: dict | None = None,
               _state_out: list | None = None) -> TopQResult:
    """Exact values of the Q largest order-1 locality statistics.

    The value multiset of the first Q entries equals the brute-force top-Q;
    all boundary ties are included beyond position Q.
    """
    t0 = time.perf_counter()
    bounds = _Bounds(g)
    state = _search(g, q, bounds, VertexMarker(g.n), _trace)
    if _state_out is not None:
        _state_out.append(state)
    e1, e2 = bounds.counts()
    known = state.known
    return TopQResult(
        entries=_make_entries(list(known), list(known.values()), q),
        computed_count=len(known),
        est1_count=e1,
        est2_count=e2,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )


def topQ_lstat_parallel(g: Graph, q: int, workers: int = 1) -> TopQResult:
    """topQ_lstat under the CLI's --workers setting.

    The search runs in one thread for every worker count: Python threads
    share the interpreter lock, and on measurement a threaded search was
    slower than the serial one. Results, counters included, are therefore
    identical for any `workers`; worker_exact_counts holds the one count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    result = topQ_lstat(g, q)
    result.worker_exact_counts = [result.computed_count]
    return result


def topQ_sweep(g: Graph, q: int, k: int) -> TopQResult:
    """Top-Q by the order-k statistic of every vertex, from one psi_all sweep.

    Ranks any order k (the bound-driven search is order-1 only). Entries
    follow topQ_lstat's ordering and tie rules; every vertex counts as
    computed and no bound is evaluated.
    """
    t0 = time.perf_counter()
    _check_q(g, q)
    entries = _make_entries(np.arange(g.n), psi_all(g, k), q)
    return TopQResult(entries=entries, computed_count=g.n, est1_count=0,
                      est2_count=0, wall_ms=(time.perf_counter() - t0) * 1e3)


def write_trim_report(result: TopQResult, q: int, path, fmt: str = "json") -> None:
    """Persist a trim report as JSON (one object) or CSV (metadata repeated)."""
    path = Path(path)
    if fmt == "json":
        payload = {
            "q": q,
            "computed_count": result.computed_count,
            "est1_count": result.est1_count,
            "est2_count": result.est2_count,
            "wall_ms": result.wall_ms,
            "entries": [[int(v), int(val)] for v, val in result.entries],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["q", "vertex", "psi1", "computed_count",
                        "est1_count", "est2_count", "wall_ms"])
            for v, val in result.entries:
                w.writerow([q, v, val, result.computed_count,
                            result.est1_count, result.est2_count,
                            f"{result.wall_ms:.3f}"])
    else:
        raise ValueError(f"unknown format {fmt!r}")


def read_trim_report(path) -> tuple[int, TopQResult]:
    """Read a report written by write_trim_report; returns (q, result)."""
    path = Path(path)
    text = path.read_text()
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        result = TopQResult(
            entries=[(int(v), int(val)) for v, val in obj["entries"]],
            computed_count=obj["computed_count"],
            est1_count=obj["est1_count"],
            est2_count=obj["est2_count"],
            wall_ms=obj["wall_ms"],
        )
        return int(obj["q"]), result
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"empty trim report: {path}")
    first = rows[0]
    result = TopQResult(
        entries=[(int(r["vertex"]), int(r["psi1"])) for r in rows],
        computed_count=int(first["computed_count"]),
        est1_count=int(first["est1_count"]),
        est2_count=int(first["est2_count"]),
        wall_ms=float(first["wall_ms"]),
    )
    return int(first["q"]), result
