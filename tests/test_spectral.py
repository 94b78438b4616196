import functools
import inspect
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.blas import dsyrk

from activescan import (ari, auto_sigma, build_similarity_matrix, classical_mds,
                        estimate_num_clusters, generate_sbm, model_selection_affinity,
                        normalized_affinity_spectrum, paper_params,
                        rbf_affinity, spectral_cluster)
from activescan.sbm import ARI_MAX_CLUSTERS, ARI_SIMILARITY_K
from activescan.spectral import (_TILE, _is_symmetric, _kmeans_once, _normalized_affinity,
                                 _top_eigh, eigengap_floor_applied)
from activescan.trimming import topQ_lstat

# An order that crosses several tiles; smaller test matrices fit in one
LARGE = 600
LARGE_BLOCKS = [200, 170, 130, 100]  # sums to LARGE; distinct sizes
# Orders that cross several tiles and end in a partial one
TILED = [LARGE + 13, 2 * _TILE + 1]


def ideal_affinity(sizes):
    """Block-diagonal affinity: within 1, across 0."""
    q = sum(sizes)
    w = np.zeros((q, q))
    start = 0
    for s in sizes:
        w[start:start + s, start:start + s] = 1.0
        start += s
    return w


def block_labels(sizes):
    return np.repeat(np.arange(len(sizes)), sizes)


def test_rbf_pointwise_values():
    s = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = rbf_affinity(s, sigma=1.0)
    assert w[0, 0] == 1.0
    assert w[0, 1] == pytest.approx(np.exp(-0.5))


def test_rbf_block_constant_input_maps_block_constant():
    s = ideal_affinity([3, 2])
    w = rbf_affinity(s, sigma=0.7)
    off = np.exp(-1.0 / (2 * 0.49))
    assert w[0, 1] == 1.0 and w[0, 3] == pytest.approx(off)
    assert len(np.unique(np.round(w, 12))) == 2


def test_rbf_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        rbf_affinity(np.eye(3), sigma=0.0)
    with pytest.raises(ValueError):
        rbf_affinity(np.eye(3), sigma=-1.0)
    with pytest.raises(ValueError):
        rbf_affinity(np.eye(3), sigma=float("nan"))


@pytest.mark.parametrize("shape", [(3, 4), (), (3,), (2, 2, 2)],
                         ids=["3x4", "0-d", "1-d", "3-d"])
@pytest.mark.parametrize("stage", [
    auto_sigma, rbf_affinity, normalized_affinity_spectrum, model_selection_affinity,
    lambda w: spectral_cluster(w, 1, seed=0), classical_mds,
], ids=["auto_sigma", "rbf_affinity", "normalized_affinity_spectrum",
        "model_selection_affinity", "spectral_cluster", "classical_mds"])
def test_spectral_stages_reject_a_matrix_that_is_not_square(stage, shape):
    message = f"matrix must be square, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        stage(np.full(shape, 0.5))


def test_auto_sigma_median_and_degenerate_fallback():
    s = np.array([[1.0, 0.8, 0.4],
                  [0.8, 1.0, 0.6],
                  [0.4, 0.6, 1.0]])
    assert auto_sigma(s) == pytest.approx(np.median([0.2, 0.6, 0.4]))
    assert auto_sigma(np.ones((4, 4))) == 1.0


def test_estimate_gap_after_second():
    assert estimate_num_clusters([1.0, 1.0, 0.1, 0.09], 4) == 2


def test_estimate_floor_applies_on_degenerate_spectrum():
    assert estimate_num_clusters([1.0, 0.2, 0.19, 0.18], 4) == 2


def test_estimate_ties_resolve_to_smallest():
    assert estimate_num_clusters([1.0, 0.6, 0.2, 0.2, 0.2], 5) == 2


def test_estimate_ideal_three_block_spectrum():
    w = ideal_affinity([4, 3, 5])
    evals = normalized_affinity_spectrum(w)
    assert estimate_num_clusters(evals, 8) == 3


def test_estimate_validates_inputs():
    with pytest.raises(ValueError):
        estimate_num_clusters([1.0], 2)
    with pytest.raises(ValueError):
        estimate_num_clusters([1.0, 0.5, 0.1], 4)


def test_normalized_spectrum_descending_unit_top():
    w = rbf_affinity(np.eye(5), sigma=1.0)
    evals = normalized_affinity_spectrum(w)
    assert (np.diff(evals) <= 1e-12).all()
    assert evals[0] == pytest.approx(1.0)


def _large_symmetric(seed):
    """Random symmetric matrix with a well separated leading spectrum."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((LARGE, LARGE))
    basis = np.linalg.qr(rng.standard_normal((LARGE, 6)))[0]
    spikes = (basis * np.array([60.0, 50.0, 45.0, 40.0, -55.0, 35.0])) @ basis.T
    return (base + base.T) / 2 + spikes


def _dense_top(a, k):
    evals, evecs = np.linalg.eigh(a)
    return evals[::-1][:k], evecs[:, ::-1][:, :k]


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Count the ARPACK solves the code under test makes."""
    import scipy.sparse.linalg as sla
    calls = []
    real = sla.eigsh

    @functools.wraps(real)  # the code checks eigsh's signature for its seed keyword
    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(sla, "eigsh", counted)
    return calls


@pytest.fixture
def seeded_restarts():
    """True where scipy's eigsh takes a seed for the random vectors ARPACK restarts from.

    A matrix of rank below k makes ARPACK restart from random vectors, which
    scipy draws from fresh entropy unless given a seed; _top_eigh passes one
    where eigsh takes it.
    """
    import scipy.sparse.linalg as sla
    return "rng" in inspect.signature(sla.eigsh).parameters


@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("k", [1, 2, 4, 10])
@pytest.mark.parametrize("matrix", ["random", "blocks", "fortran"])
def test_top_eigh_scipy_matvec_matches_the_solve_on_the_array(matrix, k, vectors, monkeypatch,
                                                             seeded_restarts, eigsh_calls):
    # the solve's matvec is scipy's gemv; handing eigsh the array itself
    # (numpy's a @ x) must give the same bits, also on a Fortran-ordered
    # array, which gemv reads untransposed
    a = ideal_affinity(LARGE_BLOCKS) if matrix == "blocks" else _large_symmetric(1)
    if matrix == "fortran":
        a = np.asfortranarray(a)
    if k > len(LARGE_BLOCKS) and matrix == "blocks" and not seeded_restarts:
        pytest.skip("this scipy's eigsh takes no seed for its restart vectors")
    got = _top_eigh(a, k, vectors)
    assert eigsh_calls == [k]
    import scipy.sparse.linalg as sla
    counted = sla.eigsh
    monkeypatch.setattr(sla, "eigsh", functools.wraps(counted)(
        lambda op, *args, **kwargs: counted(a, *args, **kwargs)))
    want = _top_eigh(a, k, vectors)
    assert eigsh_calls == [k, k]
    assert np.array_equal(got[0], want[0])
    if vectors:
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1] is None


@pytest.mark.parametrize("matrix", ["random", "blocks"])
def test_top_eigh_lanczos_matches_dense(matrix, eigsh_calls):
    a = _large_symmetric(1) if matrix == "random" else ideal_affinity(LARGE_BLOCKS)
    k = 4
    evals, evecs = _top_eigh(a, k)
    assert eigsh_calls == [k]
    want_vals, want_vecs = _dense_top(a, k)
    assert np.abs(evals - want_vals).max() < 1e-10
    assert (np.abs((evecs * want_vecs).sum(axis=0)) >= 1 - 1e-10).all()
    only_vals, none = _top_eigh(a, k, vectors=False)
    assert none is None and np.abs(only_vals - want_vals).max() < 1e-10


def test_top_eigh_lanczos_is_deterministic():
    a = _large_symmetric(2)
    first, second = _top_eigh(a, 3), _top_eigh(a, 3)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


@pytest.mark.parametrize("order", [40, LARGE])
def test_top_eigh_sign_convention(order):
    rng = np.random.default_rng(order)
    base = rng.standard_normal((order, order))
    for k in (1, 3):
        _, evecs = _top_eigh((base + base.T) / 2, k)
        peaks = evecs[np.abs(evecs).argmax(axis=0), np.arange(k)]
        assert (peaks > 0).all()


def test_top_eigh_falls_back_to_dense_without_convergence(monkeypatch):
    import scipy.sparse.linalg as sla

    def no_convergence(*args, **kwargs):
        raise sla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(sla, "eigsh", no_convergence)
    a = _large_symmetric(3)
    evals, evecs = _top_eigh(a, 2)
    want_vals, want_vecs = _dense_top(a, 2)
    assert np.array_equal(evals, want_vals)
    assert np.array_equal(np.abs(evecs), np.abs(want_vecs))


def test_top_eigh_takes_arpack_exactly_below_q_minus_one_eigenpairs(eigsh_calls):
    # at every order: the dense solve is only the fallback
    for q in (3, 40, LARGE):
        a = _large_symmetric(5)[:q, :q]
        for k in sorted({1, q - 2, q - 1, q}):
            del eigsh_calls[:]
            _top_eigh(a, k)
            assert eigsh_calls == ([k] if k < q - 1 else []), (q, k)


@pytest.mark.parametrize("order", [40, LARGE])
def test_mds_of_identical_rows_falls_back_to_the_dense_solve(order):
    # every similarity 1: the centred matrix is zero, and ARPACK stops with
    # "starting vector is zero", an ArpackError that is not ArpackNoConvergence
    res = classical_mds(np.ones((order, order)), dims=2)
    assert np.array_equal(res.coords, np.zeros((order, 2)))
    assert np.array_equal(res.eigenvalues, np.zeros(2))
    assert not res.negative_clamped


def test_spectral_cluster_repeats_bitwise_above_the_affinity_rank(seeded_restarts):
    # rank 4 below k = 6: ARPACK restarts from random vectors, which only a
    # seed makes repeatable
    if not seeded_restarts:
        pytest.skip("this scipy's eigsh takes no seed for its restart vectors")
    w = ideal_affinity(LARGE_BLOCKS)
    first, *rest = [spectral_cluster(w, 6, seed=0) for _ in range(3)]
    for labels, diag in rest:
        assert np.array_equal(labels, first[0])
        assert np.array_equal(diag.eigenvalues, first[1].eigenvalues)


def test_spectral_cluster_recovers_ideal_blocks_on_lanczos_path(eigsh_calls):
    labels, diag = spectral_cluster(ideal_affinity(LARGE_BLOCKS), 4, seed=7)
    assert eigsh_calls == [4]
    assert ari(labels, block_labels(LARGE_BLOCKS)) == 1.0
    assert len(diag.eigenvalues) == 4
    assert np.abs(diag.eigenvalues - 1.0).max() < 1e-10


@pytest.mark.parametrize("order", [30, LARGE])
def test_partial_spectrum_is_prefix_of_full(order):
    w = rbf_affinity(np.clip(_large_symmetric(4)[:order, :order] / 80 + 0.5, 0, 1),
                     sigma=0.3)
    full = normalized_affinity_spectrum(w)
    assert len(full) == order
    for c in (2, 5, 9):
        part = normalized_affinity_spectrum(w, c)
        assert len(part) == c
        assert np.abs(part - full[:c]).max() < 1e-10
    with pytest.raises(ValueError):
        normalized_affinity_spectrum(w, order + 1)


def test_eigh_residual_sanity():
    rng = np.random.default_rng(0)
    base = rng.random((120, 120))
    w = (base + base.T) / 2
    np.fill_diagonal(w, 1.0)
    sym = _normalized_affinity(w)
    evals, evecs = np.linalg.eigh(sym)
    residual = sym @ evecs - evecs * evals
    assert np.abs(residual).max() < 1e-8


def test_spectral_cluster_recovers_two_ideal_blocks():
    sizes = [6, 4]
    w = ideal_affinity(sizes)
    labels, diag = spectral_cluster(w, 2, seed=3)
    assert ari(labels, block_labels(sizes)) == 1.0
    assert diag.eigenvalues.shape == (2,)  # the num_clusters leading ones
    assert diag.restarts_used == 10


@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_ideal_block_recovery_and_count(c):
    rng = np.random.default_rng(c)
    sizes = rng.integers(3, 7, size=c).tolist()
    w = ideal_affinity(sizes)
    evals = normalized_affinity_spectrum(w)
    assert estimate_num_clusters(evals, min(8, sum(sizes))) == c
    labels, _ = spectral_cluster(w, c, seed=11)
    assert ari(labels, block_labels(sizes)) == 1.0


def test_spectral_cluster_k1_all_zero_labels():
    w = ideal_affinity([5])
    labels, _ = spectral_cluster(w, 1, seed=0)
    assert labels.tolist() == [0] * 5


def test_spectral_cluster_seed_determinism():
    rng = np.random.default_rng(5)
    base = rng.random((40, 40))
    w = np.clip((base + base.T) / 2, 0, 1)
    np.fill_diagonal(w, 1.0)
    a1, d1 = spectral_cluster(w, 3, seed=42)
    a2, d2 = spectral_cluster(w, 3, seed=42)
    assert np.array_equal(a1, a2)
    assert d1.kmeans_inertia == d2.kmeans_inertia


def test_spectral_cluster_validation():
    w = ideal_affinity([3, 3])
    with pytest.raises(ValueError):
        spectral_cluster(w, 7, seed=0)
    bad = w.copy()
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        spectral_cluster(bad, 2, seed=0)


def test_kmeans_empty_cluster_repair_on_identical_points():
    # an all-ones affinity has one non-zero eigenvalue, so the second axis
    # of the embedding is some vector of its null space and the points are
    # not identical (the repair itself is reached only by the test below);
    # both clusters must still be non-empty
    w = np.ones((6, 6))
    labels, _ = spectral_cluster(w, 2, seed=1)
    assert len(np.unique(labels)) == 2


def test_kmeans_once_seeds_and_repairs_on_duplicate_points():
    # identical points: every seed after the first is drawn uniformly (all
    # distances are zero), every point joins cluster 0, and the empty
    # cluster takes the farthest point by the repair
    labels, inertia = _kmeans_once(np.zeros((6, 2)), 2, np.random.default_rng(0))
    assert sorted(np.bincount(labels, minlength=2).tolist()) == [1, 5]
    assert inertia == 0.0


def test_every_cluster_nonempty_randomized():
    rng = np.random.default_rng(9)
    for trial in range(5):
        base = rng.random((30, 30))
        w = np.clip((base + base.T) / 2, 0, 1)
        np.fill_diagonal(w, 1.0)
        for k in (2, 3, 5):
            labels, _ = spectral_cluster(w, k, seed=trial)
            assert len(np.unique(labels)) == k


def test_model_selection_affinity_is_valid_affinity():
    rng = np.random.default_rng(2)
    s = np.clip(rng.random((25, 25)), 0, 1)
    s = (s + s.T) / 2
    np.fill_diagonal(s, 1.0)
    w = model_selection_affinity(s)
    profiles = s.copy()
    np.fill_diagonal(profiles, 0.0)
    sq = (profiles ** 2).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (profiles @ profiles.T), 0.0)
    sigma = np.sort(np.sqrt(d2), axis=1)[:, 3]  # the LOCAL_SCALE_K-th neighbour by a full sort
    want = np.exp(-d2 / np.outer(sigma, sigma))
    np.fill_diagonal(want, 1.0)
    assert np.array_equal(w, want)
    assert np.array_equal(w, w.T)
    assert (np.diag(w) == 1.0).all()
    assert (w >= 0).all() and (w <= 1).all()


def test_model_selection_affinity_forms_no_distance_matrix():
    # the profiles are read in place and every step after the Gram product
    # runs on it in row tiles, so beside the input the peak is the Gram
    # product and a few row tiles (about 0.26 x 8Q^2 at this Q); a copy of
    # the profiles, a doubled operand or a distance matrix makes more
    q = 1000
    s = np.clip(np.random.default_rng(5).random((q, q)), 0, 1)
    s = (s + s.T) / 2
    np.fill_diagonal(s, 1.0)
    tracemalloc.start()
    try:
        model_selection_affinity(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 8 * q * q, peak / (8 * q * q)


@pytest.mark.parametrize("kind", ["float64", "read-only", "int"])
def test_model_selection_affinity_leaves_its_input_unchanged(kind):
    s = similarity_like(60, 9)
    s[3, 3] = np.nan  # the diagonal is put back bit for bit, NaN included
    s[7, 7] = -0.0
    if kind == "int":
        s = (np.nan_to_num(s) * 4).astype(np.int64)
    elif kind == "read-only":
        s.flags.writeable = False
    before = s.tobytes()
    model_selection_affinity(s)
    assert s.tobytes() == before
    assert s.flags.writeable == (kind != "read-only")


@pytest.mark.parametrize("kind", ["float64", "read-only", "int"])
@pytest.mark.parametrize("stage", [
    lambda w, **kw: normalized_affinity_spectrum(w, 5, **kw),
    lambda w, **kw: spectral_cluster(w, 3, seed=0, **kw),
], ids=["normalized_affinity_spectrum", "spectral_cluster"])
def test_affinity_stages_leave_their_input_unchanged_unless_told(stage, kind):
    w = rbf_affinity(similarity_like(60, 9), sigma=0.5)
    if kind == "int":
        w = (w * 4).astype(np.int64)
    elif kind == "read-only":
        w.flags.writeable = False
    before = w.tobytes()
    want = stage(w)
    assert w.tobytes() == before
    owned = w.copy() if kind == "float64" else w
    got = stage(owned, overwrite_w=True)
    # a writable float64 input is normalized in place; an int input is
    # converted first and a read-only one is not written
    assert (owned.tobytes() != before) == (kind == "float64")
    if isinstance(want, tuple):
        assert np.array_equal(got[0], want[0])
        want, got = want[1].eigenvalues, got[1].eigenvalues
    assert np.array_equal(got, want)


def test_mds_single_point_at_origin():
    res = classical_mds(np.ones((1, 1)), dims=1)
    assert res.coords.shape == (1, 1)
    assert res.coords[0, 0] == pytest.approx(0.0)


def test_mds_equilateral_triangle():
    s = np.full((3, 3), 0.0)
    np.fill_diagonal(s, 1.0)  # all pairwise distances 1
    res = classical_mds(s, dims=2)
    d01 = np.linalg.norm(res.coords[0] - res.coords[1])
    d02 = np.linalg.norm(res.coords[0] - res.coords[2])
    d12 = np.linalg.norm(res.coords[1] - res.coords[2])
    assert d01 == pytest.approx(1.0, abs=1e-9)
    assert d02 == pytest.approx(d01, abs=1e-9)
    assert d12 == pytest.approx(d01, abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_mds_recovers_planar_distances(seed):
    rng = np.random.default_rng(seed)
    for count in (12, LARGE):  # one tile and several
        pts = rng.random((count, 2))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        dist /= dist.max() * 1.01  # keep 1 - d a valid similarity
        res = classical_mds(1.0 - dist, dims=2)
        rec = np.linalg.norm(res.coords[:, None, :] - res.coords[None, :, :], axis=2)
        assert np.abs(rec - dist).max() < 1e-9
        assert not res.negative_clamped
        assert len(res.eigenvalues) == 2
        peaks = res.coords[np.abs(res.coords).argmax(axis=0), [0, 1]]
        assert (peaks > 0).all()


def test_mds_clamps_non_euclidean_eigenvalues():
    # triangle-inequality violation cannot embed; the used spectrum goes
    # negative and is clamped
    s = np.array([[1.0, 0.0, 0.9],
                  [0.0, 1.0, 0.9],
                  [0.9, 0.9, 1.0]])
    dist = 1.0 - s  # d(0,1)=1 but d(0,2)+d(2,1)=0.2
    res = classical_mds(s, dims=3)
    assert res.negative_clamped
    assert np.isfinite(res.coords).all()


def test_mds_dims_validation():
    with pytest.raises(ValueError):
        classical_mds(np.ones((2, 2)), dims=3)


def similarity_like(q, seed, symmetric=True):
    """Jaccard-like values: unit diagonal, mostly zero, exactly symmetric if asked."""
    rng = np.random.default_rng(seed)
    s = np.where(rng.random((q, q)) < 0.15, rng.random((q, q)), 0.0)
    if symmetric:
        s = np.triu(s, 1)
        s += s.T
    np.fill_diagonal(s, 1.0)
    return s


# The references below are the direct element-wise formulas, the stages'
# definitions; the stages must reproduce them bitwise.

def reference_auto_sigma(s):
    med = float(np.median(1.0 - s[~np.eye(s.shape[0], dtype=bool)]))
    return med if med > 0 else 1.0


def reference_rbf(s, sigma):
    w = np.exp(-((1.0 - s) ** 2) / (2.0 * sigma ** 2))
    np.fill_diagonal(w, 1.0)
    return w


def reference_normalized_affinity(w):
    deg = w.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    pos = deg > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(deg[pos])
    sym = w * inv_sqrt[:, None] * inv_sqrt[None, :]
    return (sym + sym.T) / 2.0


def reference_gram2(profiles, product):
    """2 P P^T by `product`: "code" takes the code's symmetric rank-k update,
    scipy's syrk, "numpy" numpy's P @ P.T, and "doubled" the general
    product (2 P) P^T that model selection used before either."""
    if product == "doubled":
        return (2.0 * profiles) @ profiles.T
    if product == "numpy":
        return 2.0 * (profiles @ profiles.T)
    c = dsyrk(1.0, profiles.T, trans=1, lower=1)  # only the lower triangle is filled
    return 2.0 * np.where(np.tri(len(profiles), dtype=bool), c, c.T)


def reference_model_selection(s, product="code"):
    """The direct formula, with the Gram product of reference_gram2."""
    profiles = s.copy()
    np.fill_diagonal(profiles, 0.0)
    sq = (profiles ** 2).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - reference_gram2(profiles, product), 0.0)
    sigma = np.sqrt(np.partition(d2, 3, axis=1)[:, 3])
    sigma[sigma == 0] = 1.0
    w = np.exp(-d2 / np.outer(sigma, sigma))
    np.fill_diagonal(w, 1.0)
    return w


def reference_mds(s, dims):
    d2 = (1.0 - s) ** 2
    d2 = (d2 + d2.T) / 2.0
    r = d2.mean(axis=1)
    b = -0.5 * (d2 - (r[:, None] + r[None, :]) + r.mean())
    evals, evecs = _top_eigh(b, dims)
    return evecs * np.sqrt(np.clip(evals, 0, None)), evals


@pytest.mark.parametrize("order", TILED)
def test_spectral_stages_match_direct_formulas_bitwise(order):
    s = similarity_like(order, order)
    sigma = auto_sigma(s)
    assert sigma == reference_auto_sigma(s)
    w = rbf_affinity(s, sigma)
    assert np.array_equal(w, reference_rbf(s, sigma))
    assert np.array_equal(_normalized_affinity(w), reference_normalized_affinity(w))
    assert np.array_equal(model_selection_affinity(s), reference_model_selection(s))
    mds = classical_mds(s, dims=2)
    coords, evals = reference_mds(s, 2)
    assert np.array_equal(mds.coords, coords)
    assert np.array_equal(mds.eigenvalues, evals)


@pytest.mark.parametrize("order", TILED)
def test_asymmetric_similarity_takes_the_general_paths(order):
    s = similarity_like(order, order + 1, symmetric=False)
    assert not _is_symmetric(s)
    assert auto_sigma(s) == reference_auto_sigma(s)
    mds = classical_mds(s, dims=2)
    coords, evals = reference_mds(s, 2)
    assert np.array_equal(mds.coords, coords)
    assert np.array_equal(mds.eigenvalues, evals)


@pytest.mark.parametrize("order", [40, 2 * _TILE + 1])
def test_is_symmetric_sees_one_changed_entry_in_any_tile(order):
    a = similarity_like(order, 3)
    assert _is_symmetric(a)
    for i, j in [(0, 1), (order - 1, 0), (order - 2, order - 1), (order // 3, order - 1)]:
        b = a.copy()
        b[i, j] += 1e-15
        assert not _is_symmetric(b)
    b = a.copy()
    b[order - 1, order - 1] = np.nan
    assert not _is_symmetric(b)


@pytest.mark.parametrize("order", [40, 2 * _TILE + 1])
def test_spectral_cluster_tolerates_only_tiny_asymmetry(order):
    w = rbf_affinity(similarity_like(order, 5), sigma=0.5)
    i, j = order - 2, 1  # a tile pair off the diagonal at the larger order
    w[i, j] = w[j, i] = 0.0  # so only np.allclose's absolute tolerance applies
    for delta, ok in ((1e-6, False), (1e-12, True)):
        bad = w.copy()
        bad[i, j] = delta
        if ok:
            spectral_cluster(bad, 3, seed=0)
        else:
            with pytest.raises(ValueError, match="must be symmetric"):
                spectral_cluster(bad, 3, seed=0)


def test_detect_spectral_chain_holds_one_square_array_beside_the_similarity():
    # detect's calls: model selection reads the similarity in place and
    # works on its Gram product, which the spectrum then normalizes in place;
    # the RBF affinity is formed after it and normalized in place, MDS
    # centres its squared distances in place, and no stage keeps a
    # transposed or spare Q x Q temporary, only row tiles
    q = 1000
    s = similarity_like(q, 8)

    def chain():
        sigma = auto_sigma(s)
        evals = normalized_affinity_spectrum(model_selection_affinity(s), 20, overwrite_w=True)
        spectral_cluster(rbf_affinity(s, sigma), estimate_num_clusters(evals, 20), seed=0,
                         overwrite_w=True)
        classical_mds(s, dims=2)

    chain()  # untraced, so ARPACK's first import is not counted
    tracemalloc.start()
    try:
        chain()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 8 * q * q, peak / (8 * q * q)


def paper_sbm_jaccard(seed, q):
    """The ARI protocol's Jaccard matrix of one paper-SBM run's top q vertices."""
    g = generate_sbm(replace(paper_params(), seed=seed)).graph
    selected = np.array([v for v, _ in topQ_lstat(g, q).entries[:q]], dtype=np.int64)
    return build_similarity_matrix(g, selected, ARI_SIMILARITY_K).values


def _decisions(w, max_c):
    evals = normalized_affinity_spectrum(w, max_c)
    return estimate_num_clusters(evals, max_c), eigengap_floor_applied(evals, max_c)


@pytest.mark.parametrize("source", ["similarity_like", "paper_sbm"])
def test_model_selection_decisions_match_the_doubled_operand_product(source):
    # the symmetric rank-k product rounds some Gram entries differently from
    # (2 P) P^T (similarity_like at orders 70, 100, 257 and 513 among them),
    # and scipy's, which the code takes, may round differently from numpy's;
    # but the cluster count and the floor flag, model selection's only
    # outputs, must agree with both
    if source == "similarity_like":
        matrices = [similarity_like(order, seed)
                    for order in (70, 100, 257, 513, 613, 777, 1000, 1500) for seed in (8, order)]
    else:
        # leading blocks of the top-200 matrix: Jaccard is per pair, so each
        # is the matrix of the top q vertices
        matrices = [s[:q, :q] for s in (paper_sbm_jaccard(seed, 200) for seed in range(20))
                    for q in (61, 70, 100, 150, 200)]
    for s in matrices:
        got = model_selection_affinity(s)
        for product in ("doubled", "numpy"):
            want = reference_model_selection(s, product)
            for max_c in (ARI_MAX_CLUSTERS, 10):  # the ARI harness's cap and detect's default
                assert _decisions(got, max_c) == _decisions(want, max_c), (len(s), product, max_c)
