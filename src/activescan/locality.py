"""Locality statistic and the two upper bounds used for trimming.

The locality statistic of order k counts the directed edges inside the
closed k-th order neighborhood of a vertex (orientation ignored for
distance, kept for counting). Order 0 is in-degree + out-degree.

Order 1 has an exact kernel over any set of rows C:

    psi_1[C] = deg[C] + rowsum((U[C] @ LM) * U[C])

U is the undirected 0/1 adjacency, a unit-valued view of the graph's
M = A + A^T. LM holds each undirected pair once, oriented from its lower-
to its higher-ranked end by (undirected degree, id), with the pair's
directed multiplicity (1 or 2, the value in M) as its value. deg
counts the edges at v; every adjacent pair of neighbors {a, z} is counted
once, from its lower-ranked end, with weight M. A hub ranks highest, so
its LM row is empty and no neighbor's row drags in its list: the work is
O(m sqrt(m)) (degree-ordered triangle counting, Schank & Wagner 2005),
with no sum-of-deg^2 intermediate. The full order-1 sweep and the top-Q
search both use it; local_stat is the independent scalar reference.

Orders k >= 2 have no bounds and are ranked by the full sweep psi_all,
the column sums of (A^T C) * C over the blocks C = R_k[block]^T of
graph.neighborhood_blocks, where row v of R_k marks N_k[v].

The two upper bounds that the search ranks vertices by are here too:
est_lstat1 and est_lstat2 for one vertex, and _bounds for every vertex
in O(n + m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import (Graph, _csr, degree_stat, induced_edge_count, neighborhood,
                    neighborhood_blocks)


@dataclass(frozen=True)
class LocalityScore:
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


def local_stat(g: Graph, v: int, marker: VertexMarker | None = None) -> LocalityScore:
    """Order-1 statistic of one vertex by a scalar gather; equals psi_k(g, v, 1).

    Marks N_1[v], gathers the out-lists of v and its neighbors and counts
    the marked targets; each inside edge has one source, so it is counted
    once. It shares no code with the order-1 kernel and serves as its
    reference.
    """
    g._check_vertex(v)
    if marker is None:
        marker = VertexMarker(g.n)
    nb = g.neighbors(v)
    marker.mark(v, nb)
    return LocalityScore(marker.count_marked(g._adj[np.append(nb, v)].indices))


def psi_k(g: Graph, v: int, k: int) -> LocalityScore:
    """Locality statistic of order k: edges induced by neighborhood(v, k)."""
    if k == 0:
        return LocalityScore(degree_stat(g, v))
    return LocalityScore(induced_edge_count(g, neighborhood(g, v, k)))


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


def _bounds(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """est_lstat1 and est_lstat2 of every vertex, in O(n + m)."""
    deg = g.degrees()
    off, nb = g._und.indptr, g._und.indices
    sizes = np.diff(off)
    cap = 2 * (sizes + 1)
    # capped degree of every neighbor slot, summed per row by prefix sums
    capped = np.minimum(deg[nb], np.repeat(cap, sizes))
    prefix = np.concatenate(([0], np.cumsum(capped)))
    total = np.minimum(deg, cap) + prefix[off[1:]] - prefix[off[:-1]]
    return deg * deg + deg, total // 2


def oriented_pairs(g: Graph) -> sp.csr_array:
    """LM of the order-1 kernel: each undirected pair once, with its multiplicity.

    Row a holds the neighbors z that rank above a by (undirected degree,
    id), valued by the number of directed edges between a and z. Built in
    O(n + m) by masking M, so columns stay sorted.
    """
    off, nb = g._und.indptr, g._und.indices
    size = np.diff(off)
    rank = size * np.int64(g.n) + np.arange(g.n)
    up = np.repeat(rank, size) < rank[nb]
    offsets = np.concatenate(([0], np.cumsum(up)))[off]
    kept = np.flatnonzero(up)
    return _csr(g._und.data[kept].astype(np.int64), nb[kept], offsets, (g.n, g.n))


def _unit(g: Graph) -> sp.csr_array:
    """U: M with every value 1, sharing M's index arrays."""
    und = g._und
    return sp.csr_array((np.ones(und.nnz, dtype=np.int8), und.indices, und.indptr),
                         shape=und.shape)


def _psi1(deg: np.ndarray, rows: sp.csr_array, lm: sp.csr_array) -> np.ndarray:
    """The order-1 kernel on the rows C: deg is deg[C], rows U[C] and lm
    oriented_pairs(g)."""
    inside = (rows @ lm).multiply(rows)
    return deg + np.asarray(inside.sum(axis=1)).ravel()


def psi_all(g: Graph, k: int) -> np.ndarray:
    """Locality statistic of order k for every vertex (full-sweep evaluation).

    Order 1 runs the kernel of the module docstring on every row. Higher
    orders read R_k, whose row v marks N_k[v], in the blocks of
    graph.neighborhood_blocks: each block is C = R_k[block]^T, and the
    column sums of (A^T @ C) * C count the directed edges with both
    endpoints in each neighborhood (R A = (A^T R^T)^T). The sums are taken
    in int64: on a dense block they can pass what float32 holds exactly.
    """
    if k == 0:
        return g.degrees().copy()
    if k == 1:
        return _psi1(g.degrees(), _unit(g), oriented_pairs(g))
    spans, block = neighborhood_blocks(g, np.arange(g.n), k)
    psi = np.empty(g.n, dtype=np.int64)
    for lo, hi in spans:
        reach = block(lo, hi)
        inside = g._adj.T @ reach
        inside *= reach
        psi[lo:hi] = inside.sum(axis=0, dtype=np.int64)
    return psi
