"""Stochastic block model generation and the Monte-Carlo evaluation harness.

Graphs are directed without self-loops: every ordered pair (u, v), u != v,
is an independent Bernoulli draw with the rate of its block pair. The
harness scores detection quality with ROC/AUC (activity ranking) and the
Adjusted Rand Index (clustering of the selected vertices).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .graph import Graph
from .locality import psi_all
from .seeds import derive_seed
from .similarity import build_similarity_matrix
from .spectral import (estimate_num_clusters, model_selection_affinity,
                       normalized_affinity_spectrum, rbf_affinity,
                       spectral_cluster)
from .trimming import topQ_lstat

ROC_GRID = np.linspace(0.0, 1.0, 101)
ARI_SIMILARITY_K = 1  # the ARI protocol's Jaccard order
ARI_MAX_CLUSTERS = 8  # and its largest cluster count


@dataclass(frozen=True)
class SBMParams:
    """Block sizes, symmetric Bernoulli rate matrix, and generator seed."""

    block_sizes: tuple[int, ...]
    p: np.ndarray
    seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        object.__setattr__(self, "block_sizes", sizes)
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        b = len(sizes)
        if b == 0 or any(s <= 0 for s in sizes):
            raise ValueError("block sizes must be positive")
        if p.shape != (b, b):
            raise ValueError(f"rate matrix must be {b}x{b}")
        if not np.allclose(p, p.T):
            raise ValueError("rate matrix must be symmetric")
        if (p < 0).any() or (p > 1).any():
            raise ValueError("rates must lie in [0, 1]")

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def n(self) -> int:
        return sum(self.block_sizes)


@dataclass
class LabeledGraph:
    graph: Graph
    labels: np.ndarray  # block id per vertex, 1-based


def paper_params(seed: int = 0) -> SBMParams:
    """Benchmark configuration: one large sparse block, three dense blocks.

    Four blocks of sizes (940, 20, 20, 20); background rate 0.01 with
    within-block rates (0.01, 0.2, 0.3, 0.4).
    """
    p = np.full((4, 4), 0.01) + np.diag([0.0, 0.19, 0.29, 0.39])
    return SBMParams(block_sizes=(940, 20, 20, 20), p=p, seed=seed)


def _bernoulli_hits(rng: np.random.Generator, p: float, count: int) -> np.ndarray:
    """Indices of successes among `count` independent Bernoulli(p) cells.

    Geometric gap skipping: expected work O(count * p) instead of O(count).
    """
    if count == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(count, dtype=np.int64)
    hits = []
    pos = -1
    while True:
        expect = int((count - pos) * p * 1.2) + 16
        gaps = rng.geometric(p, size=expect)
        positions = pos + np.cumsum(gaps)
        hits.append(positions[positions < count])
        if positions[-1] >= count:
            break
        pos = int(positions[-1])
    return np.concatenate(hits)


def generate_sbm(params: SBMParams) -> LabeledGraph:
    """Sample one labeled graph; deterministic for a fixed params.seed."""
    rng = np.random.default_rng(params.seed)
    sizes = np.array(params.block_sizes, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(starts[-1])
    src_parts, dst_parts = [], []
    for i in range(params.num_blocks):
        for j in range(params.num_blocks):
            hits = _bernoulli_hits(rng, float(params.p[i, j]), int(sizes[i] * sizes[j]))
            if hits.size == 0:
                continue
            # diagonal cells are drawn too; Graph.from_edges drops the self-loops
            src_parts.append(starts[i] + hits // sizes[j])
            dst_parts.append(starts[j] + hits % sizes[j])
    src = np.concatenate(src_parts) if src_parts else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dst_parts) if dst_parts else np.empty(0, dtype=np.int64)
    labels = np.repeat(np.arange(1, params.num_blocks + 1), sizes)
    return LabeledGraph(graph=Graph.from_edges(n, src, dst), labels=labels)


def expected_edge_count(params: SBMParams) -> float:
    """Analytic E[m] over all ordered off-diagonal cells."""
    sizes = np.array(params.block_sizes, dtype=float)
    cells = np.outer(sizes, sizes) - np.diag(sizes)
    return float((cells * params.p).sum())


def edge_count_sd(params: SBMParams) -> float:
    """Analytic sd of m (sum of independent Bernoulli cells)."""
    sizes = np.array(params.block_sizes, dtype=float)
    cells = np.outer(sizes, sizes) - np.diag(sizes)
    return float(np.sqrt((cells * params.p * (1.0 - params.p)).sum()))


def params_to_json(params: SBMParams, path=None) -> str:
    payload = json.dumps({
        "block_sizes": list(params.block_sizes),
        "p": params.p.tolist(),
        "seed": params.seed,
    }, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(payload)
    return payload


def params_from_json(path) -> SBMParams:
    obj = json.loads(Path(path).read_text())
    return SBMParams(block_sizes=tuple(obj["block_sizes"]),
                     p=np.array(obj["p"], dtype=float),
                     seed=int(obj.get("seed", 0)))


# ---------------------------------------------------------------------------
# metrics


@dataclass
class EvalCurve:
    """ROC curve: monotone points from (0,0) to (1,1) plus trapezoidal AUC."""

    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    @property
    def points(self):
        return list(zip(self.fpr.tolist(), self.tpr.tolist()))


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand Index under the permutation model.

    1 for identical partitions (up to relabeling), 0 in expectation for
    independent ones. Degenerate contingency (zero adjustment denominator)
    returns 1, as both partitions are then forced identical.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label sequences must have equal length")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 elements")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) // 2

    sum_cells = int(comb2(table).sum())
    sum_rows = int(comb2(table.sum(axis=1)).sum())
    sum_cols = int(comb2(table.sum(axis=0)).sum())
    total = comb2(n)
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def roc_auc(scores, positive) -> EvalCurve:
    """Empirical ROC sweeping each distinct score as a threshold.

    Tied scores form one threshold step (a diagonal segment), which makes
    the trapezoidal AUC equal the pairwise-ranking probability with ties
    counted one half.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(positive, dtype=bool)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one positive and one negative")
    order = np.argsort(-s, kind="stable")
    ys = y[order]
    ss = s[order]
    last = np.nonzero(np.diff(ss))[0]
    idx = np.concatenate([last, [ss.size - 1]])
    tp = np.cumsum(ys)[idx]
    fp = (idx + 1) - tp
    tpr = np.concatenate([[0.0], tp / n_pos])
    fpr = np.concatenate([[0.0], fp / n_neg])
    return EvalCurve(fpr=fpr, tpr=tpr, auc=float(np.trapezoid(tpr, fpr)))


# ---------------------------------------------------------------------------
# Monte-Carlo protocols


@dataclass
class RocResult:
    """Vertically averaged ROC over a fixed FPR grid plus per-run AUCs."""

    grid_fpr: np.ndarray
    mean_tpr: np.ndarray
    mean_auc: float
    run_aucs: np.ndarray


@dataclass
class AriResult:
    """Per-Q ARI samples (runs x Q), with mean and sample sd per Q."""

    q_values: tuple[int, ...]
    values: np.ndarray
    mean: np.ndarray = field(init=False)
    sd: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mean = self.values.mean(axis=0)
        ddof = 1 if self.values.shape[0] > 1 else 0
        self.sd = self.values.std(axis=0, ddof=ddof)


def _curve_envelope(curve: EvalCurve) -> tuple[np.ndarray, np.ndarray]:
    # keep the topmost tpr at each distinct fpr so interpolation follows
    # the curve's upper envelope across vertical segments
    last = np.nonzero(np.diff(curve.fpr))[0]
    idx = np.concatenate([last, [curve.fpr.size - 1]])
    return curve.fpr[idx], curve.tpr[idx]


def _map_runs(run, runs: int, seed: int, workers: int) -> list:
    """[run(s) for s in the run seeds], in run order, in a pool of `workers` threads.

    Run r's seed is derive_seed(seed, f"run:{r}"). Runs share no mutable
    state, so the rows are the same for every worker count.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(run, [derive_seed(seed, f"run:{r}") for r in range(runs)]))
    finally:
        pool.shutdown(cancel_futures=True)


def _roc_one_run(params: SBMParams, k: int, run_seed: int) -> tuple[np.ndarray, float]:
    lg = generate_sbm(replace(params, seed=run_seed))
    scores = psi_all(lg.graph, k)
    curve = roc_auc(scores, lg.labels >= 2)
    f, t = _curve_envelope(curve)
    return np.interp(ROC_GRID, f, t), curve.auc


def monte_carlo_roc(params: SBMParams, runs: int, k: int, seed: int,
                    workers: int = 1) -> RocResult:
    """Mean ROC of ranking vertices by the order-k statistic.

    Per run: sample a graph, score every vertex (full sweep), mark blocks
    2..B positive, and trace the ROC. Curves are averaged vertically on a
    fixed 101-point FPR grid. The runs are mapped in a pool of `workers`
    threads (_map_runs), and the result is the same bit for bit for fixed
    inputs and any worker count.
    """
    rows = _map_runs(lambda rs: _roc_one_run(params, k, rs), runs, seed, workers)
    tprs = np.stack([r[0] for r in rows])
    aucs = np.array([r[1] for r in rows])
    return RocResult(grid_fpr=ROC_GRID.copy(), mean_tpr=tprs.mean(axis=0),
                     mean_auc=float(aucs.mean()), run_aucs=aucs)


def _ari_one_run(params: SBMParams, k: int, q_values: tuple[int, ...],
                 run_seed: int) -> np.ndarray:
    lg = generate_sbm(replace(params, seed=run_seed))
    top = max(q_values)
    ranked = np.array([v for v, _ in topQ_lstat(lg.graph, top, k).entries[:top]],
                      dtype=np.int64)
    # a pair's Jaccard value does not depend on the other selected vertices,
    # so each Q reads the leading Q x Q block of the largest Q's matrix
    values = build_similarity_matrix(lg.graph, ranked, ARI_SIMILARITY_K).values
    out = np.empty(len(q_values))
    for qi, q in enumerate(q_values):
        sim = values[:q, :q]
        max_c = min(ARI_MAX_CLUSTERS, q)
        evals = normalized_affinity_spectrum(model_selection_affinity(sim), max_c,
                                             overwrite_w=True)
        bhat = estimate_num_clusters(evals, max_c)
        labels, _ = spectral_cluster(rbf_affinity(sim), bhat,
                                     derive_seed(run_seed, f"cluster:{q}"), overwrite_w=True)
        out[qi] = ari(labels, lg.labels[ranked[:q]])
    return out


def monte_carlo_ari(params: SBMParams, runs: int, k: int, q_values,
                    seed: int, *, workers: int = 1) -> AriResult:
    """Clustering accuracy of the pipeline on the top-Q vertices, per Q.

    Per run: select the top max(q_values) vertices by the order-k
    statistic as detect does, through topQ_lstat (ties by ascending id,
    boundary ties past max(q_values) left out), and build their
    order-ARI_SIMILARITY_K Jaccard matrix once. Per Q: cluster the leading
    Q x Q block, the Jaccard matrix of the top Q, with the RBF + spectral
    pipeline (cluster count from the eigengap, at most ARI_MAX_CLUSTERS),
    and score the labels against the true block labels of the selected
    vertices. As in monte_carlo_roc, the runs are mapped in a pool of
    `workers` threads, and the values do not depend on the worker count.
    """
    q_values = tuple(int(q) for q in q_values)
    if not q_values:
        raise ValueError("q_values must be non-empty")
    n = params.n
    for q in q_values:
        if not 2 <= q <= n:
            raise ValueError(f"q values must lie in [2, {n}], got {q}")
    rows = _map_runs(lambda rs: _ari_one_run(params, k, q_values, rs), runs, seed, workers)
    return AriResult(q_values=q_values, values=np.stack(rows))
