import numpy as np
import pytest

from activescan import (Graph, build_similarity_matrix, generate_sbm, jaccard,
                        paper_params, psi_all, read_similarity_csv,
                        write_similarity_csv)
from activescan import similarity
from _testutil import HUB_FAMILIES, er_graph, jaccard_oracle, tri_graph


def test_jaccard_identity():
    g = tri_graph()
    assert jaccard(g, 0, 0) == 1.0


def test_jaccard_explicit_half():
    # N1[2] = {0,1,2} and N1[3] = {0,1,3}: intersection 2, union 4
    g = Graph.from_edges(4, [2, 2, 3, 3], [0, 1, 0, 1])
    assert jaccard(g, 2, 3) == 0.5


def test_jaccard_disjoint_components_is_zero():
    g = Graph.from_edges(4, [0, 2], [1, 3])
    assert jaccard(g, 0, 2) == 0.0


def test_jaccard_rejects_k0():
    with pytest.raises(ValueError):
        jaccard(tri_graph(), 0, 1, k=0)


@pytest.mark.parametrize("seed", range(5))
def test_jaccard_matches_set_oracle(seed):
    g, src, dst = er_graph(50, 0.08, seed + 60)
    rng = np.random.default_rng(seed)
    for _ in range(15):
        vi, vj = rng.integers(g.n, size=2)
        for k in (1, 2):
            got = jaccard(g, int(vi), int(vj), k)
            want = jaccard_oracle(g.n, src, dst, int(vi), int(vj), k)
            assert got == pytest.approx(want, abs=1e-12)


def test_matrix_single_vertex():
    s = build_similarity_matrix(tri_graph(), [1])
    assert s.values.shape == (1, 1)
    assert s.values[0, 0] == 1.0


def test_matrix_three_cycle_all_ones():
    s = build_similarity_matrix(tri_graph(), [0, 1, 2])
    assert np.array_equal(s.values, np.ones((3, 3)))


def test_matrix_symmetric_unit_diagonal_in_range():
    g, _, _ = er_graph(80, 0.06, 13)
    s = build_similarity_matrix(g, list(range(0, 80, 4)))
    assert np.array_equal(s.values, s.values.T)
    assert np.array_equal(np.diag(s.values), np.ones(s.order))
    assert (s.values >= 0).all() and (s.values <= 1).all()


def test_matrix_on_sbm_top60_matches_pairwise_oracle():
    lg = generate_sbm(paper_params(seed=14))
    g = lg.graph
    scores = psi_all(g, 1)
    sel = np.lexsort((np.arange(g.n), -scores))[:60]
    s = build_similarity_matrix(g, sel, 1)
    src, dst = g.edge_arrays()
    rng = np.random.default_rng(0)
    for _ in range(40):
        i, j = rng.integers(60, size=2)
        want = 1.0 if i == j else jaccard_oracle(g.n, src, dst,
                                                 int(sel[i]), int(sel[j]), 1)
        assert s.values[i, j] == pytest.approx(want, abs=1e-12)


def test_matrix_rejects_duplicates_and_empty():
    g = tri_graph()
    with pytest.raises(ValueError):
        build_similarity_matrix(g, [0, 0, 1])
    with pytest.raises(ValueError):
        build_similarity_matrix(g, [])


def test_blocked_computation_matches_unblocked(monkeypatch):
    g, _, _ = er_graph(90, 0.07, 17)
    sel = list(range(0, 90, 3))
    full = build_similarity_matrix(g, sel)
    monkeypatch.setattr(similarity, "ROW_BLOCK_ENTRIES", 40)
    blocked = build_similarity_matrix(g, sel)
    assert np.array_equal(full.values, blocked.values)


@pytest.mark.parametrize("family", HUB_FAMILIES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_matrix_equals_pairwise_jaccard_on_hub_graphs(family, k):
    g, src, dst = HUB_FAMILIES[family]()
    sel = list(range(0, g.n, g.n // 30))
    s = build_similarity_matrix(g, sel, k)
    for i in range(len(sel)):
        for j in range(i, len(sel)):
            assert s.values[i, j] == jaccard(g, sel[i], sel[j], k)
    for i, j in [(0, 1), (1, 2), (2, len(sel) - 1)]:
        assert s.values[i, j] == jaccard_oracle(g.n, src, dst, sel[i], sel[j], k)


@pytest.mark.parametrize("family", HUB_FAMILIES)
def test_blocked_matches_unblocked_on_hub_graphs_k2(family, monkeypatch):
    g, _, _ = HUB_FAMILIES[family]()
    sel = list(range(0, g.n, g.n // 30))
    full = build_similarity_matrix(g, sel, 2)
    monkeypatch.setattr(similarity, "ROW_BLOCK_ENTRIES", 40)
    blocked = build_similarity_matrix(g, sel, 2)
    assert np.array_equal(full.values, blocked.values)


def test_similarity_csv_roundtrip(tmp_path):
    g, _, _ = er_graph(40, 0.1, 19)
    s = build_similarity_matrix(g, [3, 7, 11, 19])
    path = tmp_path / "sim.csv"
    write_similarity_csv(s, path)
    back = read_similarity_csv(path)
    assert back.vertices.tolist() == s.vertices.tolist()
    assert np.array_equal(back.values, s.values)
