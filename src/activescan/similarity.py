"""Jaccard similarity matrix over a set of selected vertices.

The intersections are R R^T for the closed-neighborhood rows R = R_k[S],
read in the blocks of graph.neighborhood_blocks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graph import Graph, count_width, neighborhood, neighborhood_blocks


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
    from the row lengths. R is read in the blocks C of
    graph.neighborhood_blocks, R[block]^T each: the intersection block of
    a block pair on or above the diagonal is C_a^T C_b, and the one below
    is its transpose. Block b is rebuilt for each pair, so at most two
    blocks are held, whatever the size of the selection.
    """
    verts = np.asarray(list(selected) if not isinstance(selected, np.ndarray)
                       else selected, dtype=np.int64)
    if verts.size == 0:
        raise ValueError("selected must be non-empty")
    if np.unique(verts).size != verts.size:
        raise ValueError("selected vertices must be distinct")
    if k < 1:
        raise ValueError("k must be >= 1")
    count = count_width(g)
    spans, block = neighborhood_blocks(g, verts, k)
    values = np.empty((verts.size, verts.size))
    for i, (a, b) in enumerate(spans):
        left = block(a, b)
        left_sizes = left.sum(axis=0, dtype=count)[:, None]
        for c, d in spans[i:]:
            right = left if c == a else block(c, d)
            inter = left.T @ right
            inter = inter.toarray() if sp.issparse(inter) else inter.astype(count)
            union = left_sizes + right.sum(axis=0, dtype=count)
            union -= inter
            out = values[a:b, c:d]
            np.divide(inter, union, out=out)
            if c != a:
                values[c:d, a:b] = out.T
            del right, inter, union  # the next block is built without them
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
    for line_no, row in enumerate(rows[1:], 2):
        if len(row) != vertices.size:
            raise ValueError(f"{path}: line {line_no} has {len(row)} values "
                             f"under {vertices.size} ids")
    if len(rows) - 1 != vertices.size:
        raise ValueError(f"{path}: {len(rows) - 1} rows under {vertices.size} ids")
    values = np.array([[float(x) for x in row] for row in rows[1:]])
    return SimilarityMatrix(vertices=vertices, values=values)
