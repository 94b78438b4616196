"""Jaccard similarity matrix over a set of selected vertices.

The intersections are R R^T for the closed-neighborhood rows R = R_k[S].
R is sparse CSR, or dense slabs once it fills in (graph.dense_slab_rows),
counted exactly in float32 below 2^24 and in float64 past it; both sides
give the same values.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import (Graph, closed_neighborhood_rows, closed_neighborhood_slab,
                    dense_slab_rows, neighborhood)

# Neighborhood entries allowed in the row blocks of one product; large
# enough that typical selections are processed in a single block.
ROW_BLOCK_ENTRIES = 50_000_000


@dataclass
class SimilarityMatrix:
    """Symmetric matrix of pairwise Jaccard values with unit diagonal."""

    vertices: np.ndarray
    values: np.ndarray

    @property
    def order(self) -> int:
        return len(self.vertices)


def jaccard(g: Graph, vi: int, vj: int, k: int = 1) -> float:
    """|N_k[vi] ∩ N_k[vj]| / |N_k[vi] ∪ N_k[vj]|.

    Both neighborhoods contain their own center, so the denominator is
    never zero.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    a = neighborhood(g, vi, k)
    b = neighborhood(g, vj, k)
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (a.size + b.size - inter)


def build_similarity_matrix(g: Graph, selected, k: int = 1) -> SimilarityMatrix:
    """All pairwise Jaccard values between the selected vertices.

    With R = R_k[S], the closed-neighborhood rows of the selection, the
    intersection sizes are the product R R^T and the union sizes follow
    from the row lengths. ROW_BLOCK_ENTRIES bounds the neighborhood
    entries that the row blocks of one product hold: when R has more, it
    is cut into row blocks of at most half the bound and the product is
    formed block pair by block pair.

    The density switch (graph.dense_slab_rows) picks the form of R. Sparse,
    R is one CSR matrix, cut into blocks by entries as above. Dense, R is
    cut into transposed slabs C = R[block]^T of at most
    graph.DENSE_SLAB_CELLS cells, and each intersection block on or above
    the diagonal is the dense product C_a^T C_b, counted exactly in float32
    while 2n and m stay below 2^24 and in float64 past that; the block
    below the diagonal is its transpose. Slab b is rebuilt for each pair,
    so at most two slabs are held, whatever the size of the selection.
    Unions and the division are the same integer arithmetic on both sides,
    so every value is the same.
    """
    verts = np.asarray(list(selected) if not isinstance(selected, np.ndarray)
                       else selected, dtype=np.int64)
    if verts.size == 0:
        raise ValueError("selected must be non-empty")
    if np.unique(verts).size != verts.size:
        raise ValueError("selected vertices must be distinct")
    if k < 1:
        raise ValueError("k must be >= 1")
    step = dense_slab_rows(g, verts, k)
    values = np.empty((verts.size, verts.size))
    if step:
        _dense_blocks(g, verts, k, step, values)
    else:
        _sparse_blocks(closed_neighborhood_rows(g, verts, k), values)
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(vertices=verts, values=values)


def _sparse_blocks(rows, values: np.ndarray) -> None:
    sizes = np.diff(rows.indptr)
    starts = [0]
    if rows.nnz > ROW_BLOCK_ENTRIES:
        for i in range(1, rows.shape[0]):
            if rows.indptr[i + 1] - rows.indptr[starts[-1]] > ROW_BLOCK_ENTRIES // 2:
                starts.append(i)
    blocks = list(zip(starts, starts[1:] + [rows.shape[0]]))
    for a, b in blocks:
        for c, d in blocks:
            inter = (rows[a:b] @ rows[c:d].T).toarray()
            _jaccard_block(inter, sizes[a:b], sizes[c:d], values[a:b, c:d])


def _dense_blocks(g: Graph, verts: np.ndarray, k: int, step: int,
                  values: np.ndarray) -> None:
    # Slab pairs on and above the diagonal only, each lower block being the
    # transpose of its upper one; partner slabs are rebuilt for every pair,
    # so at most two slabs are held between builds.
    for a in range(0, verts.size, step):
        left = closed_neighborhood_slab(g, verts[a:a + step], k)
        for c in range(a, verts.size, step):
            right = left if c == a else closed_neighborhood_slab(g, verts[c:c + step], k)
            block = values[a:a + step, c:c + step]
            _jaccard_block((left.T @ right).astype(np.int64), _column_sums(left),
                           _column_sums(right), block)
            if c != a:
                values[c:c + step, a:a + step] = block.T
            del right


def _column_sums(slab: np.ndarray) -> np.ndarray:
    return slab.sum(axis=0).astype(np.int64)


def _jaccard_block(inter: np.ndarray, sizes_a, sizes_b, out: np.ndarray) -> None:
    union = sizes_a[:, None] + sizes_b[None, :]
    union -= inter
    np.divide(inter, union, out=out)


def write_similarity_csv(s: SimilarityMatrix, path) -> None:
    """Row-major CSV dump; the header row carries the vertex ids."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([int(v) for v in s.vertices])
        for row in s.values:
            w.writerow([repr(float(x)) for x in row])


def read_similarity_csv(path) -> SimilarityMatrix:
    with open(Path(path), newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"empty similarity file: {path}")
    vertices = np.array([int(v) for v in rows[0]], dtype=np.int64)
    values = np.array([[float(x) for x in row] for row in rows[1:]])
    return SimilarityMatrix(vertices=vertices, values=values)
