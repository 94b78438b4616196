import sys
import threading
import time

import numpy as np
import pytest

import activescan.sbm as sbm
from activescan import (SBMParams, ari, expected_edge_count, generate_sbm,
                        monte_carlo_ari, monte_carlo_roc, paper_params,
                        params_from_json, params_to_json, roc_auc)
from activescan.cli import OPTIONS, _parse_q_values
from activescan.sbm import edge_count_sd
from activescan.seeds import derive_seed
from _testutil import ari_oracle, auc_oracle


def test_paper_params_values():
    p = paper_params()
    assert p.block_sizes == (940, 20, 20, 20)
    assert p.n == 1000
    assert p.p[1, 1] == pytest.approx(0.2)
    assert np.allclose(np.diag(p.p), [0.01, 0.2, 0.3, 0.4])
    off = p.p[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.01)


def test_params_validation():
    with pytest.raises(ValueError):
        SBMParams((3, 3), np.array([[0.5, 1.5], [1.5, 0.5]]))
    with pytest.raises(ValueError):
        SBMParams((3, 3), np.array([[0.5, 0.1], [0.2, 0.5]]))
    with pytest.raises(ValueError):
        SBMParams((3, 0), np.full((2, 2), 0.1))
    with pytest.raises(ValueError, match="^rate matrix must be 2x2$"):
        SBMParams((3, 3), np.full((2, 3), 0.1))


class GapStream:
    """A generator stub that deals out a fixed sequence of geometric gaps in order."""

    def __init__(self, gaps):
        self.gaps = np.asarray(gaps, dtype=np.int64)
        self.sizes = []

    def geometric(self, p, size):
        start = sum(self.sizes)
        self.sizes.append(size)
        return self.gaps[start:start + size]


def test_bernoulli_hits_draws_again_when_a_chunk_ends_short():
    # the first chunk's gaps of 1 end at cell len(gaps) - 1, well short of
    # count, so a second chunk continues from there
    p, count = 0.1, 100
    gaps = np.concatenate([np.ones(28, dtype=np.int64),
                           np.random.default_rng(0).geometric(p, 200)])
    stub = GapStream(gaps)
    hits = sbm._bernoulli_hits(stub, p, count)
    assert len(stub.sizes) >= 2 and stub.sizes[0] == 28
    positions = np.cumsum(gaps) - 1  # the same gaps as one chunk
    assert np.array_equal(hits, positions[positions < count])


def test_generate_all_zero_rate():
    lg = generate_sbm(SBMParams((4, 4), np.zeros((2, 2)), seed=1))
    assert lg.graph.m == 0
    assert lg.graph.n == 8


def test_generate_all_one_rate_complete_digraph():
    lg = generate_sbm(SBMParams((2, 2), np.ones((2, 2)), seed=1))
    assert lg.graph.n == 4
    assert lg.graph.m == 12  # complete directed, no self-loops


def test_generate_deterministic_and_labeled():
    p = paper_params(seed=33)
    a_run = generate_sbm(p)
    b_run = generate_sbm(p)
    assert a_run.graph == b_run.graph
    assert np.array_equal(a_run.labels, b_run.labels)
    counts = np.bincount(a_run.labels, minlength=5)
    assert counts[1:].tolist() == [940, 20, 20, 20]


def test_expected_edge_count_analytic():
    p = paper_params()
    # within block 1 + three dense blocks + cross-block background
    want = 940 * 939 * 0.01 \
        + 20 * 19 * (0.2 + 0.3 + 0.4) \
        + (1000 * 999 - 940 * 939 - 3 * 20 * 19) * 0.01
    assert expected_edge_count(p) == pytest.approx(want)
    assert want == pytest.approx(10320.6)


def test_sampled_edge_count_near_expectation():
    p = paper_params()
    ms = [generate_sbm(SBMParams(p.block_sizes, p.p, seed=s)).graph.m
          for s in range(10)]
    sd = edge_count_sd(p)
    assert abs(np.mean(ms) - expected_edge_count(p)) < 5 * sd / np.sqrt(10)


def test_ari_relabeling_invariance():
    assert ari([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0


def test_ari_one_sided_refinement_is_zero():
    assert ari([1, 1, 1, 1], [1, 1, 2, 2]) == pytest.approx(0.0)


def test_ari_symmetry_and_identity():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 4, size=25)
    y = rng.integers(0, 3, size=25)
    assert ari(x, y) == pytest.approx(ari(y, x))
    assert ari(x, x) == 1.0


def test_ari_degenerate_contingency_is_one():
    # one cluster on both sides, or singletons on both sides: the adjustment's
    # denominator is zero and the partitions are forced identical
    assert ari([1, 1, 1], [2, 2, 2]) == 1.0
    assert ari([0, 1, 2], [5, 4, 3]) == 1.0


def test_ari_validates_lengths():
    with pytest.raises(ValueError):
        ari([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        ari([1], [1])


@pytest.mark.parametrize("seed", range(10))
def test_ari_matches_pair_counting_oracle(seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, rng.integers(2, 6), size=30)
    y = rng.integers(0, rng.integers(2, 6), size=30)
    assert ari(x, y) == pytest.approx(ari_oracle(x, y), abs=1e-12)


def test_roc_perfect_separation():
    curve = roc_auc([5, 4, 3, 1, 0], [True, True, True, False, False])
    assert curve.auc == pytest.approx(1.0)


def test_roc_all_tied_scores_diagonal():
    curve = roc_auc([2, 2, 2, 2], [True, False, True, False])
    assert curve.auc == pytest.approx(0.5)
    assert curve.points[0] == (0.0, 0.0)
    assert curve.points[-1] == (1.0, 1.0)


def test_roc_curve_monotone_endpoints():
    rng = np.random.default_rng(8)
    scores = rng.integers(0, 5, size=40)
    labels = rng.random(40) < 0.3
    curve = roc_auc(scores, labels)
    assert (np.diff(curve.fpr) >= 0).all()
    assert (np.diff(curve.tpr) >= 0).all()
    assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
    assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)


def test_roc_validates_labels():
    with pytest.raises(ValueError):
        roc_auc([1, 2], [True, True])
    with pytest.raises(ValueError):
        roc_auc([1, 2], [False, False])
    with pytest.raises(ValueError):
        roc_auc([1, 2, 3], [True, False])


@pytest.mark.parametrize("seed", range(10))
def test_roc_equals_ranking_probability(seed):
    rng = np.random.default_rng(seed + 50)
    scores = rng.integers(0, 6, size=10)
    labels = np.zeros(10, dtype=bool)
    labels[rng.choice(10, size=rng.integers(1, 9), replace=False)] = True
    if labels.all() or not labels.any():
        labels[0] = not labels[0]
    curve = roc_auc(scores, labels)
    assert curve.auc == pytest.approx(auc_oracle(scores, labels), abs=1e-12)


def separated_params():
    # two dense blocks over a sparse tiny majority: ideal separation
    p = np.full((3, 3), 0.02) + np.diag([0.0, 0.88, 0.88])
    return SBMParams((30, 10, 10), p, seed=0)


def test_monte_carlo_roc_degenerate_auc_one():
    p = np.array([[0.0, 0.0], [0.0, 1.0]])
    params = SBMParams((6, 6), p, seed=0)
    res = monte_carlo_roc(params, runs=1, k=1, seed=5)
    assert res.mean_auc == pytest.approx(1.0)


def noisy_params():
    p = np.full((2, 2), 0.05) + np.diag([0.0, 0.15])
    return SBMParams((40, 12), p, seed=0)


def test_monte_carlo_roc_reproducible_bit_for_bit():
    params = noisy_params()
    r1 = monte_carlo_roc(params, runs=3, k=1, seed=7)
    r2 = monte_carlo_roc(params, runs=3, k=1, seed=7)
    assert np.array_equal(r1.mean_tpr, r2.mean_tpr)
    assert r1.mean_auc == r2.mean_auc
    assert np.array_equal(r1.run_aucs, r2.run_aucs)
    r3 = monte_carlo_roc(params, runs=3, k=1, seed=8)
    assert not np.array_equal(r1.run_aucs, r3.run_aucs)


def test_monte_carlo_roc_grid_shape():
    res = monte_carlo_roc(separated_params(), runs=2, k=0, seed=1)
    assert res.grid_fpr.shape == res.mean_tpr.shape == (101,)
    assert res.run_aucs.shape == (2,)
    assert (np.diff(res.grid_fpr) > 0).all()


def test_monte_carlo_ari_ideal_planted_case():
    res = monte_carlo_ari(separated_params(), runs=5, k=1, q_values=[20], seed=3)
    assert res.values.shape == (5, 1)
    assert res.mean[0] > 0.95


def test_monte_carlo_ari_reproducible():
    params = separated_params()
    r1 = monte_carlo_ari(params, runs=3, k=1, q_values=[10, 20], seed=9)
    r2 = monte_carlo_ari(params, runs=3, k=1, q_values=[10, 20], seed=9)
    assert np.array_equal(r1.values, r2.values)
    assert r1.sd.shape == (2,)


def assert_same_result(a, b):
    assert vars(a).keys() == vars(b).keys()
    for key, value in vars(a).items():
        assert np.array_equal(value, vars(b)[key]), key


def test_monte_carlo_workers_do_not_change_results():
    # the runs map in a pool of `workers` threads; a short switch interval
    # makes the threads hand the interpreter over often
    params = paper_params()
    q_values = _parse_q_values(OPTIONS["eval"]["q_values"][0])  # eval's default
    cases = [lambda w: monte_carlo_roc(params, runs=4, k=1, seed=4, workers=w),
             lambda w: monte_carlo_roc(params, runs=4, k=2, seed=4, workers=w),
             lambda w: monte_carlo_ari(params, runs=4, k=1, q_values=q_values, seed=4,
                                       workers=w)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for case in cases:
            one = case(1)
            for workers in (2, 8):
                assert_same_result(one, case(workers))
    finally:
        sys.setswitchinterval(interval)


def test_monte_carlo_ari_workers_agree_at_lanczos_orders():
    # orders that cross several tiles: concurrent runs make concurrent ARPACK
    # solves and scipy-BLAS Gram products; blocks this weak keep the ARI off 1
    p = np.full((4, 4), 0.02) + np.diag([0.02, 0.03, 0.04, 0.05])
    params = SBMParams((200, 170, 130, 100), p)
    q_values = (500, params.n)
    one = monte_carlo_ari(params, runs=2, k=1, q_values=q_values, seed=5)
    two = monte_carlo_ari(params, runs=2, k=1, q_values=q_values, seed=5, workers=2)
    assert_same_result(one, two)


def test_a_failing_run_propagates_and_leaves_no_pool_thread(monkeypatch):
    runs, started = 50, []
    first = derive_seed(0, "run:0")
    real = sbm.generate_sbm

    def generate(params):
        started.append(params.seed)
        if params.seed == first:
            raise RuntimeError("run 0 failed")
        time.sleep(0.05)
        return real(params)

    monkeypatch.setattr(sbm, "generate_sbm", generate)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="run 0 failed"):
        monte_carlo_roc(noisy_params(), runs=runs, k=1, seed=0, workers=2)
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert len(started) < runs  # the queued runs were cancelled, not run


def test_monte_carlo_validation():
    params = separated_params()
    with pytest.raises(ValueError):
        monte_carlo_roc(params, runs=0, k=1, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_ari(params, runs=1, k=1, q_values=[1], seed=0)
    with pytest.raises(ValueError):
        monte_carlo_ari(params, runs=1, k=1, q_values=[params.n + 1], seed=0)
    with pytest.raises(ValueError):
        monte_carlo_ari(params, runs=1, k=1, q_values=[], seed=0)


def test_params_json_roundtrip(tmp_path):
    p = paper_params(seed=12)
    path = tmp_path / "params.json"
    params_to_json(p, path)
    back = params_from_json(path)
    assert back.block_sizes == p.block_sizes
    assert np.array_equal(back.p, p.p)
    assert back.seed == 12


def test_params_from_json_reads_a_path_only(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(FileNotFoundError) as info:
        params_from_json(missing)
    assert info.value.filename == str(missing)
    with pytest.raises(FileNotFoundError):  # JSON text is not a path
        params_from_json('{"block_sizes": [2], "p": [[0.5]]}')
