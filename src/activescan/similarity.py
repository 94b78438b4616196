"""Jaccard similarity matrix over a set of selected vertices."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, closed_neighborhood_rows, neighborhood

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
    intersection sizes are the one sparse product R R^T and the union
    sizes follow from the row lengths. ROW_BLOCK_ENTRIES bounds the
    neighborhood entries that the row blocks of one product hold: when R
    has more entries, it is cut into row blocks of at most half the bound
    and the product is formed block pair by block pair.
    """
    verts = np.asarray(list(selected) if not isinstance(selected, np.ndarray)
                       else selected, dtype=np.int64)
    if verts.size == 0:
        raise ValueError("selected must be non-empty")
    if np.unique(verts).size != verts.size:
        raise ValueError("selected vertices must be distinct")
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = closed_neighborhood_rows(g, verts, k)
    sizes = np.diff(rows.indptr)
    starts = [0]
    if rows.nnz > ROW_BLOCK_ENTRIES:
        for i in range(1, verts.size):
            if rows.indptr[i + 1] - rows.indptr[starts[-1]] > ROW_BLOCK_ENTRIES // 2:
                starts.append(i)
    blocks = list(zip(starts, starts[1:] + [verts.size]))
    values = np.empty((verts.size, verts.size))
    for a, b in blocks:
        for c, d in blocks:
            inter = (rows[a:b] @ rows[c:d].T).toarray()
            union = sizes[a:b, None] + sizes[None, c:d]
            union -= inter
            np.divide(inter, union, out=values[a:b, c:d])
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(vertices=verts, values=values)


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
