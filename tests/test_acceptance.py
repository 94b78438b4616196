"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from activescan import (ari, est_lstat1, est_lstat2, estimate_num_clusters,
                        generate_sbm, monte_carlo_ari, monte_carlo_roc,
                        normalized_affinity_spectrum, paper_params, psi_all,
                        roc_auc, spectral_cluster, topQ_lstat,
                        topQ_lstat_parallel, write_edge_list)
from activescan.cli import main
from activescan.sbm import SBMParams, edge_count_sd, expected_edge_count
from _testutil import (ari_oracle, auc_oracle, er_graph, planted_clique_graph,
                       preferential_attachment, read_csv_rows)

# frozen from the first brute-force-verified run on this exact graph
PA_SEED = 7
PA_ATTACH = 3
PA_N = 100_000
PA_COMPUTED_Q100_FROZEN = 848


def build_corpus(count: int, seed0: int = 9000):
    """Mixed Erdos-Renyi / planted-clique corpus, n in [50, 500]."""
    corpus = []
    for i in range(count):
        rng = np.random.default_rng(seed0 + i)
        n = int(rng.integers(50, 501))
        if i % 2 == 0:
            g, _, _ = er_graph(n, float(rng.uniform(0.005, 0.06)), seed0 + i)
        else:
            g, _, _ = planted_clique_graph(n, float(rng.uniform(0.005, 0.03)),
                                           int(rng.integers(4, 10)), seed0 + i)
        corpus.append(g)
    return corpus


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(100)


def test_criterion_1_trimming_correctness(corpus):
    t0 = time.perf_counter()
    for g in corpus:
        exact_sorted = np.sort(psi_all(g, 1))[::-1]
        for q in sorted({1, 5, max(1, g.n // 10), g.n}):
            result = topQ_lstat(g, q)
            got = sorted((val for _, val in result.entries[:q]), reverse=True)
            assert got == exact_sorted[:q].tolist(), (g, q)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\n[criterion 1] PASS: exact top-Q value multisets on "
          f"{len(corpus)} graphs x 4 Q values in {elapsed:.1f}s")


def test_criterion_2_bound_soundness(corpus):
    checked = 0
    for g in corpus:
        exact = psi_all(g, 1)
        for v in range(g.n):
            assert exact[v] <= est_lstat1(g, v)
            assert exact[v] <= est_lstat2(g, v)
        checked += g.n
    print(f"\n[criterion 2] PASS: zero bound violations over {checked} vertices")


def test_criterion_3_parallel_determinism(corpus):
    for g in corpus[:20]:
        q = max(1, g.n // 10)
        base = sorted(topQ_lstat_parallel(g, q, 1).values(), reverse=True)
        for workers in (2, 8):
            got = sorted(topQ_lstat_parallel(g, q, workers).values(), reverse=True)
            assert got == base, (g, q, workers)
    print("\n[criterion 3] PASS: identical value multisets for "
          "workers in {1,2,8} on 20 graphs")


def test_criterion_4_auc_reproduction():
    params = paper_params()
    means = {}
    for k in (0, 1, 2):
        res = monte_carlo_roc(params, runs=200, k=k, seed=0)
        means[k] = res.mean_auc
        assert res.mean_auc >= 0.88, (k, res.mean_auc)
    print("\n[criterion 4] PASS: mean AUC over 200 runs = "
          + ", ".join(f"k={k}: {v:.4f}" for k, v in means.items())
          + " (all >= 0.88)")


def test_criterion_5_ari_reproduction():
    params = paper_params()
    res = monte_carlo_ari(params, runs=200, k=1, q_values=[70, 200], seed=0)
    table = {q: (m, s) for q, m, s in zip(res.q_values, res.mean, res.sd)}
    assert table[70][0] >= 0.6, table
    assert table[200][0] >= 0.45, table
    raw = " | ".join(f"Q={q}: {m:.4f} +/- {s:.4f}" for q, (m, s) in table.items())
    print(f"\n[criterion 5] PASS: mean ARI over 200 runs {raw} "
          f"(bars: 0.6 at Q=70, 0.45 at Q=200)")


def test_criterion_6_generator_calibration():
    params = paper_params()
    ms = np.array([generate_sbm(SBMParams(params.block_sizes, params.p, seed=s)).graph.m
                   for s in range(50)])
    expect = expected_edge_count(params)
    sd = edge_count_sd(params)
    mean_err = abs(ms.mean() - expect)
    assert mean_err <= 3 * sd / np.sqrt(50), (ms.mean(), expect)
    band = (ms.mean() - 3 * ms.std(ddof=1), ms.mean() + 3 * ms.std(ddof=1))
    assert band[0] <= 10358 <= band[1], band
    print(f"\n[criterion 6] PASS: mean m = {ms.mean():.1f} vs analytic "
          f"{expect:.1f} (|err| = {mean_err:.1f} <= {3 * sd / np.sqrt(50):.1f}); "
          f"reference sample 10358 inside [{band[0]:.0f}, {band[1]:.0f}]")


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(777)
    for _ in range(200):
        size = int(rng.integers(5, 30))
        x = rng.integers(0, rng.integers(2, 6), size=size)
        y = rng.integers(0, rng.integers(2, 6), size=size)
        assert ari(x, y) == pytest.approx(ari_oracle(x, y), abs=1e-12)
    for _ in range(200):
        size = int(rng.integers(4, 25))
        scores = rng.integers(0, 8, size=size).astype(float)
        labels = rng.random(size) < 0.5
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        curve = roc_auc(scores, labels)
        assert abs(curve.auc - auc_oracle(scores, labels)) <= 1e-12
    print("\n[criterion 7] PASS: ARI matches pair counting on 200 label "
          "pairs; AUC matches ranking probability on 200 score sets (<=1e-12)")


def test_criterion_8_spectral_ideal_recovery():
    trials = 0
    for c in (2, 3, 4, 5):
        for t in range(20):
            rng = np.random.default_rng(1000 * c + t)
            sizes = rng.integers(3, 8, size=c)
            q = int(sizes.sum())
            w = np.zeros((q, q))
            labels = np.repeat(np.arange(c), sizes)
            start = 0
            for s in sizes:
                w[start:start + s, start:start + s] = 1.0
                start += int(s)
            evals = normalized_affinity_spectrum(w)
            assert estimate_num_clusters(evals, min(8, q)) == c, (c, t)
            got, _ = spectral_cluster(w, c, seed=t)
            assert ari(got, labels) == 1.0, (c, t)
            trials += 1
    print(f"\n[criterion 8] PASS: eigengap count and exact block recovery "
          f"on {trials}/80 ideal-affinity trials")


def test_criterion_9_trimming_efficiency(tmp_path):
    g = preferential_attachment(PA_N, PA_ATTACH, PA_SEED)
    edges = tmp_path / "pa.edges"
    write_edge_list(g, edges)
    bench = tmp_path / "bench.csv"
    rc = main(["bench-trim", "--input", str(edges), "--workers", "1",
               "--q-values", f"100,{PA_N}", "--out", str(bench)])
    assert rc == 0
    _, rows = read_csv_rows(bench)
    computed = {int(r[0]): int(r[2]) for r in rows}
    ratio = computed[100] / g.n
    assert computed[100] <= PA_COMPUTED_Q100_FROZEN, computed
    assert ratio < 0.10
    assert computed[100] < computed[PA_N]
    assert computed[PA_N] == g.n
    # value correctness of the trimmed search against the independent sweep
    want = np.sort(psi_all(g, 1))[::-1][:100].tolist()
    got = sorted(topQ_lstat(g, 100).values(), reverse=True)[:100]
    assert got == want
    print(f"\n[criterion 9] PASS: computed {computed[100]}/{g.n} vertices "
          f"(ratio {ratio:.5f} <= frozen {PA_COMPUTED_Q100_FROZEN / PA_N:.5f}) "
          f"and computed(Q=100) < computed(Q=n) = {computed[PA_N]}")
