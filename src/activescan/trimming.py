"""Top-Q ranking by the locality statistic of any order k.

topQ_lstat is the one entry point. The upper bounds exist only at order
1, where it runs the search below; any other order ranks one psi_all sweep.

The search computes the exact statistic on as few vertices as possible.
Both upper bounds are computed for every vertex up front, and b(v) is the
smaller. The search runs in rounds over `known`: the exact value where
computed, b elsewhere. Each round takes U, the Q-th largest value of
known, and evaluates every uncomputed vertex with b(v) >= U in one call
of the order-1 kernel, locality._psi1, on operands built once per search
(the unit undirected adjacency, LM and the degrees); it stops when no
such vertex remains. Known values only fall, so U never rises and never
drops below t, the final Q-th value: the computed vertices are exactly
{v : b(v) >= t}, the stop rule of the threshold algorithm (Fagin, Lotem &
Naor, 2001). A bound equal to U is never pruned, so ties at the Q-th
position are always discovered.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph
from .locality import _bounds, _psi1, _unit, oriented_pairs, psi_all


@dataclass
class TopQResult:
    """Outcome of a top-Q search.

    entries is sorted by value descending (ascending vertex id within ties)
    and includes every discovered tie at the Q-th value, so its length is
    >= Q. computed_count is the number of vertices whose exact statistic
    was evaluated; est1_count / est2_count are the numbers of vertices
    that the deg^2 + deg bound / the capped bound alone leaves at or above
    the final Q-th value, i.e. would leave to compute.
    """

    entries: list[tuple[int, int]]
    computed_count: int
    est1_count: int
    est2_count: int
    wall_ms: float = 0.0
    worker_exact_counts: list[int] | None = None

    def values(self) -> list[int]:
        return [v for _, v in self.entries]


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


def _search(g: Graph, q: int) -> TopQResult:
    """The order-1 bound-ordered search of the module docstring."""
    b1, b2 = _bounds(g)
    bound = np.minimum(b1, b2)
    order = np.argsort(-bound)
    falling = bound[order]
    rising = -falling
    unit, lm, deg = _unit(g), oriented_pairs(g), g.degrees()
    top = falling[:0]  # the Q largest exact values so far
    values = []
    done = 0  # order[:done] is computed
    while True:
        # the Q largest known values are among top and the next Q bounds
        known = np.concatenate((top, falling[done:done + q]))
        t = np.partition(known, known.size - q)[known.size - q]
        end = int(np.searchsorted(rising, -t, side="right"))
        if end == done:
            break
        rows = order[done:end]
        values.append(_psi1(deg[rows], unit[rows], lm))
        top = np.concatenate((top, values[-1]))
        top = np.partition(top, top.size - q)[-q:]
        done = end
    return TopQResult(
        entries=_make_entries(order[:done], np.concatenate(values), q),
        computed_count=done,
        est1_count=int(np.count_nonzero(b1 >= t)),
        est2_count=int(np.count_nonzero(b2 >= t)),
    )


def topQ_lstat(g: Graph, q: int, k: int = 1) -> TopQResult:
    """Exact values of the Q largest order-k locality statistics.

    The value multiset of the first Q entries equals the brute-force top-Q;
    all boundary ties are included beyond position Q. Order 1 runs the
    bound-ordered search; any other order ranks one psi_all sweep, where
    every vertex counts as computed and no bound is evaluated
    (est1_count = est2_count = 0).
    """
    t0 = time.perf_counter()
    _check_q(g, q)
    if k == 1:
        result = _search(g, q)
    else:
        entries = _make_entries(np.arange(g.n), psi_all(g, k), q)
        result = TopQResult(entries, computed_count=g.n, est1_count=0, est2_count=0)
    result.wall_ms = (time.perf_counter() - t0) * 1e3
    return result


def topQ_lstat_parallel(g: Graph, q: int, workers: int = 1, k: int = 1) -> TopQResult:
    """topQ_lstat under the CLI's --workers setting.

    The search runs in one thread for every worker count: Python threads
    share the interpreter lock, and on measurement a threaded search was
    slower than the serial one. Results, counters included, are therefore
    identical for any `workers`; worker_exact_counts holds the one count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    result = topQ_lstat(g, q, k)
    result.worker_exact_counts = [result.computed_count]
    return result


# a trim report's fields after q, in file order, with their types; the
# CSV writes a float with three decimals
_REPORT_FIELDS = {"computed_count": int, "est1_count": int, "est2_count": int,
                 "wall_ms": float}
# one [vertex, value] pair of the JSON entries, laid out as json.dumps(indent=2)
_JSON_ENTRY = "\n    [\n      %d,\n      %d\n    ]"


def write_trim_report(result: TopQResult, q: int, path, fmt: str = "json") -> None:
    """Persist a trim report as JSON (one object) or CSV (metadata repeated).

    The CSV repeats q and the counters on every entry row, so a result with
    no entries has nowhere to keep them there and raises ValueError.
    """
    path = Path(path)
    fields = {name: getattr(result, name) for name in _REPORT_FIELDS}
    if fmt == "json":
        # the bytes of json.dumps(payload, indent=2) + "\n", with the entries
        # formatted from one template rather than by the pure-Python encoder
        head = json.dumps({"q": q, **fields}, indent=2)[:-2]  # up to the closing "\n}"
        body = ",".join([_JSON_ENTRY % (v, val) for v, val in result.entries])
        entries = f"[{body}\n  ]" if body else "[]"
        path.write_text(f'{head},\n  "entries": {entries}\n}}\n')
    elif fmt == "csv":
        if not result.entries:
            raise ValueError("a trim report with no entries cannot be written as csv; use json")
        meta = [f"{fields[name]:.3f}" if kind is float else fields[name]
                for name, kind in _REPORT_FIELDS.items()]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["q", "vertex", "psi1", *_REPORT_FIELDS])
            for v, val in result.entries:
                w.writerow([q, v, val, *meta])
    else:
        raise ValueError(f"unknown format {fmt!r}")


def read_trim_report(path) -> tuple[int, TopQResult]:
    """Read a report written by write_trim_report; returns (q, result)."""
    path = Path(path)
    text = path.read_text()
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        entries = [(int(v), int(val)) for v, val in obj["entries"]]
    else:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            raise ValueError(f"empty trim report: {path}")
        obj = rows[0]
        entries = [(int(r["vertex"]), int(r["psi1"])) for r in rows]
    fields = {name: kind(obj[name]) for name, kind in _REPORT_FIELDS.items()}
    return int(obj["q"]), TopQResult(entries=entries, **fields)
