"""Locality statistic and the two upper bounds used for trimming.

The locality statistic of order k counts the directed edges inside the
closed k-th order neighborhood of a vertex (orientation ignored for
distance, kept for counting). Order 0 is in-degree + out-degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import (Graph, _out_targets, closed_neighborhood_rows,
                    degree_stat, induced_edge_count, neighborhood)


@dataclass(frozen=True)
class LocalityScore:
    vertex: int
    k: int
    value: int


class VertexMarker:
    """Epoch-stamped membership marks over [0, n).

    Reusing one stamp array avoids per-call set construction in the hot
    path; bumping the epoch invalidates all previous marks in O(1). Not
    thread-safe: each execution context owns its marker.
    """

    __slots__ = ("_stamp", "_epoch")

    def __init__(self, n: int):
        self._stamp = np.zeros(n, dtype=np.int64)
        self._epoch = 0

    def mark(self, center: int, others: np.ndarray) -> None:
        self._epoch += 1
        self._stamp[others] = self._epoch
        self._stamp[center] = self._epoch

    def count_marked(self, idx: np.ndarray) -> int:
        return int((self._stamp[idx] == self._epoch).sum())


def _local_stat_value(g: Graph, v: int, marker: VertexMarker) -> int:
    """Order-1 statistic via one gather of the members' out-edges.

    Marks N_1[v], gathers the out-lists of v and its neighbors and counts
    the marked targets; each inside edge has one source, so it is counted
    once.
    """
    nb = g.neighbors(v)
    marker.mark(v, nb)
    return marker.count_marked(_out_targets(g, np.append(nb, v)))


def local_stat(g: Graph, v: int, marker: VertexMarker | None = None) -> LocalityScore:
    """Order-1 locality statistic by incident-edge scan; equals psi_k(g, v, 1)."""
    g._check_vertex(v)
    if marker is None:
        marker = VertexMarker(g.n)
    return LocalityScore(vertex=v, k=1, value=_local_stat_value(g, v, marker))


def psi_k(g: Graph, v: int, k: int) -> LocalityScore:
    """Locality statistic of order k: edges induced by neighborhood(v, k)."""
    if k == 0:
        return LocalityScore(vertex=v, k=0, value=degree_stat(g, v))
    value = induced_edge_count(g, neighborhood(g, v, k))
    return LocalityScore(vertex=v, k=k, value=value)


def est_lstat1(g: Graph, v: int) -> int:
    """Loose O(1) upper bound on the order-1 statistic: deg^2 + deg."""
    g._check_vertex(v)
    d = int(g.degrees()[v])
    return d * d + d


def est_lstat2(g: Graph, v: int) -> int:
    """Tighter per-neighbor capped bound on the order-1 statistic.

    Each member u of N_1[v] can contribute at most min(deg(u), 2|N_1[v]|)
    edge endpoints; the sum counts every potential inside edge twice. The
    true doubled count is even and bounded by the sum, so flooring the
    halved sum keeps a valid upper bound.
    """
    g._check_vertex(v)
    nb = g.neighbors(v)
    size = nb.size + 1
    cap = 2 * size
    deg = g.degrees()
    total = min(int(deg[v]), cap) + int(np.minimum(deg[nb], cap).sum())
    return total // 2


def psi_all(g: Graph, k: int) -> np.ndarray:
    """Locality statistic of order k for every vertex (full-sweep evaluation).

    Batch formulation over the closed-neighborhood rows: row v of R_k marks
    N_k[v], and (R_k @ A) * R_k sums the directed edges with both endpoints
    marked. Used by the benchmark harness, where every vertex is scored.
    """
    if k == 0:
        return g.degrees().copy()
    n = g.n
    reach = closed_neighborhood_rows(g, np.arange(n), k)
    adj = sp.csr_matrix(
        (np.ones(g.m, dtype=np.int64), g._out_dst, g._out_off), shape=(n, n))
    inside = (reach @ adj).multiply(reach)
    return np.asarray(inside.sum(axis=1)).ravel().astype(np.int64)
