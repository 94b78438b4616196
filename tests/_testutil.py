"""Shared graph builders, a CSV reader and independent brute-force oracles.

The oracles work on raw edge arrays with python sets and explicit loops so
they share no code path with the library implementations they check.
"""

from __future__ import annotations

import csv

import numpy as np

from activescan import Graph


# ---------------------------------------------------------------------------
# readers

def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    """A CSV file's header row and its other rows, as strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"empty CSV: {path}")
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# builders

def tri_graph() -> Graph:
    return Graph.from_edges(3, [0, 1, 2], [1, 2, 0])


def er_graph(n: int, p: float, seed: int) -> tuple[Graph, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return Graph.from_edges(n, src, dst), src, dst


def planted_clique_graph(n: int, p: float, clique: int,
                         seed: int) -> tuple[Graph, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    members = rng.choice(n, size=clique, replace=False)
    mask[np.ix_(members, members)] = True
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return Graph.from_edges(n, src, dst), src, dst


def triangles_graph(n: int) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Disjoint directed 3-cycles: every vertex ties at statistic 3."""
    n = (n // 3) * 3
    base = np.arange(0, n, 3)
    src = np.concatenate([base, base + 1, base + 2])
    dst = np.concatenate([base + 1, base + 2, base])
    return Graph.from_edges(n, src, dst), src, dst


def pa_graph(n: int, attach: int = 3,
             seed: int = 7) -> tuple[Graph, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    src, dst = [], []
    pool = [0]  # endpoint pool repeats vertices once per incident edge
    for v in range(1, n):
        picks = set()
        for _ in range(min(attach, v)):
            picks.add(int(pool[rng.integers(len(pool))]))
        for u in picks:
            src.append(v)
            dst.append(u)
            pool.append(u)
        pool.append(v)
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    return Graph.from_edges(n, src, dst), src, dst


def preferential_attachment(n: int, attach: int = 3, seed: int = 7) -> Graph:
    return pa_graph(n, attach, seed)[0]


def star_graph(n: int) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Hub 0 linked both ways to every leaf."""
    leaves = np.arange(1, n)
    hub = np.zeros(n - 1, dtype=np.int64)
    src = np.concatenate([hub, leaves])
    dst = np.concatenate([leaves, hub])
    return Graph.from_edges(n, src, dst), src, dst


def hub_er_graph(n: int, p: float, seed: int) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Star on hub 0 plus Erdos-Renyi edges, without repeated edges."""
    _, star_src, star_dst = star_graph(n)
    _, er_src, er_dst = er_graph(n, p, seed)
    pairs = sorted(set(zip(np.concatenate([star_src, er_src]).tolist(),
                           np.concatenate([star_dst, er_dst]).tolist())))
    src, dst = (np.array(x, dtype=np.int64) for x in zip(*pairs))
    return Graph.from_edges(n, src, dst), src, dst


# hub-heavy graph families: a star, a hub over ER, a small PA graph
HUB_FAMILIES = {
    "star": lambda: star_graph(30),
    "hub_er": lambda: hub_er_graph(60, 0.04, 21),
    "pa": lambda: pa_graph(120, 2, 3),
}


# ---------------------------------------------------------------------------
# oracles over raw edge arrays

def undirected_adj(n: int, src, dst) -> list[set]:
    adj = [set() for _ in range(n)]
    for a, b in zip(src, dst):
        if a != b:
            adj[int(a)].add(int(b))
            adj[int(b)].add(int(a))
    return adj


def raw_views(n: int, src, dst) -> tuple[list, list, list, list]:
    """Sorted out-, in- and undirected neighbor lists of every vertex, and
    each undirected neighbor's pair multiplicity (1, or 2 when both
    directed edges exist); self-loops and repeated edges are dropped."""
    out = [set() for _ in range(n)]
    inn = [set() for _ in range(n)]
    for a, b in zip(src, dst):
        if a != b:
            out[int(a)].add(int(b))
            inn[int(b)].add(int(a))
    und = [sorted(out[v] | inn[v]) for v in range(n)]
    mult = [[(z in out[v]) + (z in inn[v]) for z in und[v]] for v in range(n)]
    return [sorted(s) for s in out], [sorted(s) for s in inn], und, mult


def bfs_set(adj: list[set], v: int, k: int) -> set:
    seen = {v}
    frontier = {v}
    for _ in range(k):
        nxt = set()
        for u in frontier:
            nxt |= adj[u]
        frontier = nxt - seen
        seen |= frontier
    return seen


def count_edges_within(src, dst, members: set) -> int:
    """Naive scan over every directed edge."""
    total = 0
    for a, b in zip(src, dst):
        if a != b and int(a) in members and int(b) in members:
            total += 1
    return total


def psi_oracle(n: int, src, dst, v: int, k: int) -> int:
    if k == 0:
        return sum(1 for a, b in zip(src, dst) if a != b and v in (int(a), int(b)))
    adj = undirected_adj(n, src, dst)
    return count_edges_within(src, dst, bfs_set(adj, v, k))


def dense_psi_oracle(n: int, src, dst, k: int) -> np.ndarray:
    """Order-k statistic of every vertex by dense 0/1 matrix products.

    reach marks N_k[v] in row v, so (reach @ adj) * reach marks the edges
    with both endpoints inside; small graphs only.
    """
    adj = np.zeros((n, n))
    adj[np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)] = 1.0
    np.fill_diagonal(adj, 0.0)
    if k == 0:
        return (adj.sum(axis=0) + adj.sum(axis=1)).astype(np.int64)
    hood = ((adj + adj.T + np.eye(n)) > 0).astype(float)
    reach = np.eye(n)
    for _ in range(k):
        reach = ((reach @ hood) > 0).astype(float)
    return np.rint(((reach @ adj) * reach).sum(axis=1)).astype(np.int64)


def jaccard_oracle(n: int, src, dst, vi: int, vj: int, k: int) -> float:
    adj = undirected_adj(n, src, dst)
    a = bfs_set(adj, vi, k)
    b = bfs_set(adj, vj, k)
    return len(a & b) / len(a | b)


def ari_oracle(labels_a, labels_b) -> float:
    """Pair-counting form over all C(n,2) pairs."""
    a = list(labels_a)
    b = list(labels_b)
    n = len(a)
    n00 = n01 = n10 = n11 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                n11 += 1
            elif same_a:
                n10 += 1
            elif same_b:
                n01 += 1
            else:
                n00 += 1
    num = 2.0 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 1.0
    return num / den


def auc_oracle(scores, positive) -> float:
    """Probability a random positive outranks a random negative, ties 1/2."""
    pos = [s for s, y in zip(scores, positive) if y]
    neg = [s for s, y in zip(scores, positive) if not y]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))
