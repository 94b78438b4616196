"""Spectral clustering of the similarity matrix and classical MDS.

The clustering variant is fixed: RBF affinity on the distance 1 - S,
symmetric degree normalization, row-normalized top eigenvectors, k-means
with deterministic seeding. The eigengap of the normalized affinity
spectrum suggests the cluster count. Every stage needs only a few leading
eigenpairs of a dense Q x Q matrix, so each solves for just those.

Two rules hold for the work around the solves. Every output is fixed to the
bit: a faster or smaller way to form an array is used only when it gives
the same bytes as the direct element-wise formula. The one product pinned
otherwise is model selection's Gram product, P P^T by BLAS's symmetric
rank-k update, whose sums round differently from a general product such as
(2 P) P^T; its only outputs are the integer cluster count and the floor
flag, and tests check those decisions against the general product. And
symmetry is first tested exactly, tile by tile with no transposed copy; the
shortcuts that symmetry allows run only when that test passes, and
otherwise each stage takes its general path (spectral_cluster falls back to
np.allclose).

numpy and scipy each bundle their own OpenBLAS, and each keeps its own
thread pool. Every top-k solve with k < Q - 1, at every order, is ARPACK's
Lanczos iteration, whose own BLAS calls run in scipy's pool, so every BLAS
call of these stages (the solves' matvecs and model selection's Gram
product) goes to scipy's BLAS: one solver and one pool serve every Q, and
two pools never take turns, which would leave one's threads spinning while
the other works. A dense eigendecomposition is only the fallback, for
k >= Q - 1 and for a solve that ARPACK fails or does not finish. The
solves make matrix-vector products and smaller BLAS calls, and the tests
require their outputs to repeat bitwise under one and two BLAS threads;
the Gram product may round differently per thread count, but it feeds
only model selection's integer decisions.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

LOCAL_SCALE_K = 3  # model selection: bandwidth is the distance to this neighbour
KMEANS_RESTARTS = 10  # seeded k-means restarts per clustering
KMEANS_MAX_ITER = 300  # Lloyd iterations per restart
# Edge of the square tiles in which a matrix meets its transpose: two
# 512 KiB float64 tiles stay in cache, where a whole transposed pass misses.
_TILE = 256


@dataclass
class SpectralDiagnostics:
    eigenvalues: np.ndarray  # the num_clusters leading ones, descending
    kmeans_inertia: float
    restarts_used: int


@dataclass
class MdsResult:
    coords: np.ndarray
    eigenvalues: np.ndarray  # the dims leading ones, descending
    negative_clamped: bool


def _top_eigh(a: np.ndarray, k: int,
              vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """The k largest eigenvalues of symmetric a, descending, and their eigenvectors.

    For k < q - 1 this is ARPACK's Lanczos iteration from a fixed start
    vector and, where scipy's eigsh takes a seed, seeded restarts, so
    repeated calls agree bitwise even when k exceeds a's rank. Larger k,
    and any solve that ARPACK reports as failed or unconverged (a zero
    matrix, for one, zeroes the start vector), use the dense solver. Each
    eigenvector is signed so that its largest-magnitude entry is positive,
    which makes the result independent of the solver. The second element
    is None unless vectors is set.

    ARPACK's matvec a @ x is scipy's gemv on a as it lies in memory, so the
    whole solve runs in scipy's OpenBLAS pool (module docstring). It is the
    BLAS call numpy's @ makes for the same layout; tests check that the
    two give the same bits.
    """
    q = a.shape[0]
    found = None
    if k < q - 1:
        from scipy.linalg.blas import get_blas_funcs
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh
        gemv = get_blas_funcs("gemv", (a,))
        operand, trans = _blas_operand(a)
        op = LinearOperator(a.shape, dtype=a.dtype,
                            matvec=lambda x: gemv(1.0, operand, x, trans=trans))
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, q)
        # a rank below k makes ARPACK restart from random vectors, which
        # scipy's eigsh draws from fresh entropy unless it takes a seed
        seed = {"rng": 0} if "rng" in inspect.signature(eigsh).parameters else {}
        try:
            found = eigsh(op, k, which="LA", v0=v0, return_eigenvectors=vectors, **seed)
        except ArpackError:  # ArpackNoConvergence among them
            pass
    if found is None:
        found = np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
    evals, evecs = found if vectors else (found, None)
    order = np.argsort(evals, kind="stable")[::-1][:k]
    evals = evals[order]
    if vectors:
        evecs = evecs[:, order]
        pivots = np.abs(evecs).argmax(axis=0)
        evecs *= np.where(evecs[pivots, np.arange(evecs.shape[1])] < 0, -1.0, 1.0)
    return evals, evecs


def _blas_operand(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(b, trans) with op(b) = a for BLAS: a itself when Fortran-ordered, else a^T with trans=1.

    Either way BLAS reads a's memory with no copy; a that is neither C- nor
    Fortran-ordered is copied to C order once.
    """
    if a.flags.f_contiguous:
        return a, 0
    return np.ascontiguousarray(a).T, 1


def _tile_pairs(q: int):
    """Slices (I, J) of the tiles on and above the diagonal of a q x q matrix."""
    starts = range(0, q, _TILE)
    for i in starts:
        for j in starts[i // _TILE:]:
            yield slice(i, i + _TILE), slice(j, j + _TILE)


def _is_symmetric(a: np.ndarray) -> bool:
    """True when square a equals its transpose exactly (any NaN makes it False)."""
    return all(np.array_equal(a[i, j], a[j, i].T) for i, j in _tile_pairs(a.shape[0]))


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Overwrite square a with (a + a^T) / 2, tile pair by tile pair; returns a.

    Each pair of mirrored tiles is read before either is written, and the
    sum is commutative, so the result equals the out-of-place formula bitwise.
    """
    for i, j in _tile_pairs(a.shape[0]):
        block = a[i, j] + a[j, i].T
        block /= 2.0
        a[i, j] = block
        a[j, i] = block.T
    return a


def _gram(p: np.ndarray) -> np.ndarray:
    """P P^T by scipy's symmetric rank-k update, as a C-ordered full matrix.

    This is the BLAS call numpy's P @ P.T makes: syrk fills the lower
    triangle of its Fortran-ordered result, whose transpose is C-ordered
    with the upper triangle filled, and that is mirrored down tile pair by
    tile pair, with no transposed copy.
    """
    from scipy.linalg.blas import get_blas_funcs
    operand, trans = _blas_operand(p)
    g = get_blas_funcs("syrk", (p,))(1.0, operand, trans=trans, lower=1).T
    for i, j in _tile_pairs(g.shape[0]):
        if i == j:
            block = g[i, j]
            lower = np.tril_indices(block.shape[0], -1)
            block[lower] = block.T[lower]
        else:
            g[j, i] = g[i, j].T
    return g


def _square(a) -> np.ndarray:
    """a as a float array; ValueError unless it is a 2-D square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


def auto_sigma(values: np.ndarray) -> float:
    """Median heuristic: median off-diagonal distance 1 - S, 1.0 if degenerate.

    On an exactly symmetric S every off-diagonal value occurs twice, so the
    median of the strict upper triangle is the same number, bitwise, at
    half the memory.
    """
    values = _square(values)
    q = values.shape[0]
    if q < 2:
        return 1.0
    if _is_symmetric(values):
        dist = np.concatenate([values[i, i + 1:] for i in range(q - 1)])
    else:
        dist = values[~np.eye(q, dtype=bool)]
    np.subtract(1.0, dist, out=dist)
    med = float(np.median(dist, overwrite_input=True))
    return med if med > 0 else 1.0


def rbf_affinity(values: np.ndarray, sigma: float | None = None) -> np.ndarray:
    """W[i,j] = exp(-(1 - S[i,j])^2 / (2 sigma^2)), unit diagonal.

    sigma=None selects the median heuristic over off-diagonal distances.
    """
    values = _square(values)
    if sigma is None:
        sigma = auto_sigma(values)
    elif not sigma > 0:  # NaN too
        raise ValueError("sigma must be positive")
    w = 1.0 - values
    w **= 2
    np.negative(w, out=w)
    w /= 2.0 * sigma ** 2
    np.exp(w, out=w)
    np.fill_diagonal(w, 1.0)
    return w


def _normalized_affinity(w: np.ndarray, overwrite_w: bool = False) -> np.ndarray:
    """D^{-1/2} W D^{-1/2}, symmetrized; formed in w when overwrite_w and w is writable."""
    deg = w.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    out = w if overwrite_w and w.flags.writeable else None
    sym = np.multiply(w, inv_sqrt[:, None], out=out)
    sym *= inv_sqrt[None, :]
    return _symmetrize(sym)


def normalized_affinity_spectrum(w: np.ndarray, count: int | None = None,
                                 overwrite_w: bool = False) -> np.ndarray:
    """The `count` largest eigenvalues of D^{-1/2} W D^{-1/2} (all by default), descending.

    With overwrite_w the normalized matrix is formed in w's own memory, as
    scipy's overwrite_a, so a caller that owns w saves a Q x Q array; w's
    contents are then undefined. The eigenvalues are the same bits either way.
    """
    sym = _normalized_affinity(_square(w), overwrite_w)
    q = sym.shape[0]
    if count is None:
        count = q
    elif not 1 <= count <= q:
        raise ValueError(f"count must be in [1, {q}]")
    return _top_eigh(sym, count, vectors=False)[0]


def _largest_gap(eigenvalues, max_clusters: int) -> int:
    """1-based i < max_clusters of the largest lambda_i - lambda_{i+1}, first on ties."""
    evals = np.asarray(eigenvalues, dtype=float)
    if evals.size < 2:
        raise ValueError("need at least 2 eigenvalues")
    if not 2 <= max_clusters <= evals.size:
        raise ValueError("max_clusters must be in [2, len(eigenvalues)]")
    return int(np.argmax(evals[:max_clusters - 1] - evals[1:max_clusters])) + 1


def estimate_num_clusters(eigenvalues, max_clusters: int) -> int:
    """Largest consecutive eigengap position, floored at two clusters.

    A single-cluster answer is vacuous for community detection, so the
    result is floored at 2.
    """
    return max(_largest_gap(eigenvalues, max_clusters), 2)


def eigengap_floor_applied(eigenvalues, max_clusters: int) -> bool:
    """True when the raw eigengap choice was 1 and the floor of 2 bound."""
    return _largest_gap(eigenvalues, max_clusters) < 2


def model_selection_affinity(values: np.ndarray) -> np.ndarray:
    """Self-tuned affinity over similarity-row profiles, for cluster counting.

    The eigengap needs coherent groups to show up as near-unit eigenvalues
    of the normalized affinity, which a single global bandwidth cannot
    deliver when group densities differ. This affinity compares vertices by
    the Euclidean distance between their similarity-matrix rows (the
    self-similarity coordinate removed, since it carries no pair
    information) and applies local scaling: each vertex's bandwidth is its
    distance to the LOCAL_SCALE_K-th nearest neighbor, so every coherent
    group saturates toward affinity one at its own scale. sqrt is monotone
    and correctly rounded, so that distance is the root of the k-th
    smallest squared distance, bitwise, and no distance matrix is formed.

    The profiles are read in place: values' diagonal is zeroed while the
    squared norms and the Gram product P P^T are formed, then put back
    before anything else runs. The product of the profiles with their own
    transpose takes BLAS's symmetric rank-k update, scipy's syrk, so that
    it runs in the pool of the spectrum solve that follows it.
    Every later step runs in place on the product, in row tiles, so at the
    peak the only Q x Q arrays are values and the Gram product. A reader of
    values on another thread would see the zeroed diagonal during the call.
    Inputs that cannot be borrowed (read-only, not float64, neither C- nor
    F-contiguous) are copied first.

    Used only to choose the cluster count; the clustering itself embeds the
    RBF affinity of 1 - S.
    """
    profiles = _square(values)
    flags = profiles.flags
    if not (flags.writeable and (flags.c_contiguous or flags.f_contiguous)):
        profiles = np.array(profiles)
    diagonal = profiles.diagonal().copy()
    np.fill_diagonal(profiles, 0.0)
    try:
        sq = (profiles ** 2).sum(axis=1)
        d2 = _gram(profiles)
    finally:
        np.fill_diagonal(profiles, diagonal)
    del profiles
    q = d2.shape[0]
    kth = min(LOCAL_SCALE_K, q - 1)
    sigma = np.empty(q)
    for i in range(0, q, _TILE):  # max((sq_i + sq_j) - 2 G_ij, 0), then each row's kth
        rows = d2[i:i + _TILE]
        rows *= -2.0
        rows += np.add.outer(sq[i:i + _TILE], sq)
        np.maximum(rows, 0.0, out=rows)
        sigma[i:i + _TILE] = np.partition(rows, kth, axis=1)[:, kth]
    np.sqrt(sigma, out=sigma)
    sigma[sigma == 0] = 1.0
    for i in range(0, q, _TILE):  # exp(-d2_ij / (sigma_i sigma_j))
        rows = d2[i:i + _TILE]
        np.negative(rows, out=rows)
        rows /= np.outer(sigma[i:i + _TILE], sigma)
        np.exp(rows, out=rows)
    np.fill_diagonal(d2, 1.0)
    return d2


def _kmeans_once(x: np.ndarray, k: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, float]:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[c] = x[idx]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))

    labels = None
    for _ in range(KMEANS_MAX_ITER):
        dists = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        for c in range(k):
            if not (new_labels == c).any():
                # empty-cluster repair: re-seed at the point farthest from
                # its own centroid and hand that point to the empty cluster
                own = dists[np.arange(n), new_labels]
                p = int(own.argmax())
                centers[c] = x[p]
                new_labels[p] = c
                dists[:, c] = ((x - centers[c]) ** 2).sum(axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = x[labels == c].mean(axis=0)
    dists = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    inertia = float(dists[np.arange(n), labels].sum())
    return labels, inertia


def _kmeans(x: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, float]:
    """The restart with the lowest inertia, the first one on ties."""
    runs = [_kmeans_once(x, k, np.random.default_rng(child))
            for child in np.random.SeedSequence(seed).spawn(KMEANS_RESTARTS)]
    return min(runs, key=lambda run: run[1])


def spectral_cluster(w: np.ndarray, num_clusters: int, seed: int,
                     overwrite_w: bool = False) -> tuple[np.ndarray, SpectralDiagnostics]:
    """Normalized spectral clustering of a symmetric affinity matrix.

    Embeds each point by the top num_clusters eigenvectors of
    D^{-1/2} W D^{-1/2}, row-normalizes (zero rows left as zero), and runs
    seeded k-means, best of KMEANS_RESTARTS, over the embedding. Returns
    the int64 cluster label of every row of w, in row order, and the
    diagnostics; a caller that clusters selected vertices pairs its own
    vertex array with the labels. Identical (w, num_clusters, seed) always
    yields identical labels. overwrite_w is as in
    normalized_affinity_spectrum.
    """
    w = _square(w)
    q = w.shape[0]
    if not (_is_symmetric(w) or np.allclose(w, w.T, atol=1e-10)):
        raise ValueError("affinity matrix must be symmetric")
    if not 1 <= num_clusters <= q:
        raise ValueError(f"num_clusters must be in [1, {q}]")

    evals, embed = _top_eigh(_normalized_affinity(w, overwrite_w), num_clusters)
    norms = np.linalg.norm(embed, axis=1)
    pos = norms > 0
    embed[pos] /= norms[pos, None]

    if num_clusters == 1:
        labels = np.zeros(q, dtype=np.int64)
        inertia = float(((embed - embed.mean(axis=0)) ** 2).sum())
    else:
        labels, inertia = _kmeans(embed, num_clusters, seed)
        labels = labels.astype(np.int64)
    return labels, SpectralDiagnostics(eigenvalues=evals, kmeans_inertia=inertia,
                                       restarts_used=KMEANS_RESTARTS)


def classical_mds(values: np.ndarray, dims: int = 2) -> MdsResult:
    """Classical MDS of the distance 1 - S.

    Double-centers the squared distances with their row means and embeds
    with the top `dims` eigenpairs; negative eigenvalues among them are
    clamped to zero and flagged. Each axis is signed so that the point
    farthest along it has a positive coordinate.
    """
    values = _square(values)
    q = values.shape[0]
    if not 1 <= dims <= q:
        raise ValueError(f"dims must be in [1, {q}]")
    d2 = 1.0 - values
    d2 **= 2
    if not _is_symmetric(d2):  # (d2 + d2^T) / 2 would leave a symmetric d2 as it is
        _symmetrize(d2)
    r = d2.mean(axis=1)
    r_mean = r.mean()
    for i in range(0, q, _TILE):  # b = -0.5 (d2 - (r_i + r_j) + mean(r)), in place
        rows = d2[i:i + _TILE]
        rows -= np.add.outer(r[i:i + _TILE], r)
        rows += r_mean
        rows *= -0.5
    evals, evecs = _top_eigh(d2, dims)
    clamped = bool((evals < 0).any())
    coords = evecs * np.sqrt(np.clip(evals, 0, None))
    return MdsResult(coords=coords, eigenvalues=evals, negative_clamped=clamped)
