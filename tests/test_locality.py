import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from activescan import (Graph, VertexMarker, est_lstat1, est_lstat2,
                        local_stat, paper_params, generate_sbm, psi_all, psi_k)
from activescan import graph, locality
from activescan.locality import _psi1, _unit, oriented_pairs
from _testutil import (HUB_FAMILIES, dense_psi_oracle, er_graph, pa_graph,
                       planted_clique_graph, psi_oracle, tri_graph,
                       triangles_graph)


def out_star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [0] * leaves, list(range(1, leaves + 1)))


def test_psi_k_three_cycle():
    g = tri_graph()
    assert psi_k(g, 0, 1).value == 3
    assert psi_k(g, 0, 0).value == 2
    assert psi_k(g, 0, 2).value == 3


def test_local_stat_star_counts_only_internal_edges():
    g = out_star(5)
    assert local_stat(g, 0).value == 5
    assert local_stat(g, 1).value == 1


def test_local_stat_reciprocal_pair():
    g = Graph.from_edges(2, [0, 1], [1, 0])
    assert psi_k(g, 0, 0).value == 2
    assert local_stat(g, 0).value == 2


@pytest.mark.parametrize("seed", range(4))
def test_local_stat_equals_psi1_everywhere(seed):
    g, _, _ = er_graph(200, 0.05, seed)
    marker = VertexMarker(g.n)
    for v in range(g.n):
        assert local_stat(g, v, marker).value == psi_k(g, v, 1).value


@pytest.mark.parametrize("k", [0, 1, 2])
def test_psi_matches_raw_edge_oracle(k):
    g, src, dst = er_graph(60, 0.1, 11)
    for v in range(g.n):
        assert psi_k(g, v, k).value == psi_oracle(g.n, src, dst, v, k)


@pytest.mark.parametrize("family", HUB_FAMILIES)
@pytest.mark.parametrize("k", [1, 2])
def test_psi_matches_raw_edge_oracle_on_hub_graphs(family, k):
    g, src, dst = HUB_FAMILIES[family]()
    sweep = psi_all(g, k)
    for v in range(g.n):
        want = psi_oracle(g.n, src, dst, v, k)
        assert psi_k(g, v, k).value == want
        assert sweep[v] == want


@pytest.mark.parametrize("k", [1, 2])
def test_psi_all_matches_per_vertex_on_sbm(k):
    lg = generate_sbm(paper_params(seed=5))
    g = lg.graph
    sweep = psi_all(g, k)
    for v in range(g.n):
        assert sweep[v] == psi_k(g, v, k).value


def reciprocal_graph():
    """Reciprocal pairs (multiplicity 2) in and around triangles; 4 and 8 isolated."""
    src = [0, 1, 1, 2, 0, 2, 3, 5, 6, 6, 7, 5, 3]
    dst = [1, 0, 2, 1, 2, 3, 0, 6, 5, 7, 6, 7, 1]
    return (Graph.from_edges(9, src, dst), np.array(src), np.array(dst))


def kernel_rows(g, rows, lm):
    """The order-1 kernel on the given rows, called as the top-Q search calls it."""
    rows = np.asarray(rows, dtype=np.int64)
    return _psi1(g.degrees()[rows], _unit(g)[rows], lm)


def kernel_graphs(style):
    if style in HUB_FAMILIES:
        return [HUB_FAMILIES[style]()]
    if style == "er":
        return [er_graph(90, 0.03 + 0.03 * s, s + 70) for s in range(3)]
    if style == "clique":
        return [planted_clique_graph(80, 0.04, 7, s + 50) for s in range(3)]
    if style == "ties":
        return [triangles_graph(30)]
    return [reciprocal_graph()]


@pytest.mark.parametrize("style", ["er", "clique", "ties", "reciprocal", *HUB_FAMILIES])
def test_psi1_kernel_matches_raw_edge_oracle(style):
    for g, src, dst in kernel_graphs(style):
        want = np.array([psi_oracle(g.n, src, dst, v, 1) for v in range(g.n)])
        assert np.array_equal(psi_all(g, 1), want)
        rng = np.random.default_rng(g.n)
        lm = oriented_pairs(g)
        for size in (0, 1, g.n // 3, g.n):
            rows = rng.choice(g.n, size, replace=False)
            got = kernel_rows(g, rows, lm)
            assert got.dtype == np.int64 and got.tolist() == want[rows].tolist()


def test_psi1_kernel_empty_rows_and_graph():
    g = reciprocal_graph()[0]
    assert kernel_rows(g, [], oriented_pairs(g)).tolist() == []
    empty = Graph.from_edges(0, [], [])
    assert kernel_rows(empty, [], oriented_pairs(empty)).tolist() == []
    assert psi_all(empty, 1).tolist() == []


def test_oriented_pairs_hold_each_pair_once_towards_higher_rank():
    g = reciprocal_graph()[0]
    lm = oriented_pairs(g).toarray()
    size = [g.neighbors(v).size for v in range(g.n)]
    for a in range(g.n):
        for z in range(g.n):
            if z in g.neighbors(a):
                mult = int(z in g.out_neighbors(a)) + int(a in g.out_neighbors(z))
                upward = (size[a], a) < (size[z], z)
                assert lm[a, z] == (mult if upward else 0)
            else:
                assert lm[a, z] == 0


def test_psi_all_k0_is_degrees():
    g, _, _ = er_graph(50, 0.1, 2)
    assert np.array_equal(psi_all(g, 0), g.degrees())


def test_est_lstat1_formula():
    g = out_star(3)
    assert est_lstat1(g, 0) == 12  # degree 3
    g2 = Graph.from_edges(3, [0], [1])
    assert est_lstat1(g2, 2) == 0  # isolated vertex
    tri = tri_graph()
    assert est_lstat1(tri, 0) == 6
    assert est_lstat1(tri, 0) >= psi_k(tri, 0, 1).value


def test_est_lstat2_examples():
    tri = tri_graph()
    assert est_lstat2(tri, 0) == 3  # tight on the cycle
    star = out_star(5)
    assert est_lstat2(star, 0) == 5  # tight on the star


@pytest.mark.parametrize("seed", range(3))
def test_bound_soundness_sweep(seed):
    g, _, _ = er_graph(500, 0.02, seed)
    exact = psi_all(g, 1)
    for v in range(g.n):
        e2 = est_lstat2(g, v)
        assert exact[v] <= e2
        assert exact[v] <= est_lstat1(g, v)
        size = g.neighbors(v).size + 1
        # the exact statistic respects the simple-digraph edge cap; the
        # capped-sum bound itself can only reach size^2
        assert exact[v] <= size * (size - 1)
        assert e2 <= size * size


@pytest.mark.parametrize("seed", range(3))
def test_psi_monotone_in_k_with_ceiling(seed):
    g, _, _ = er_graph(80, 0.05, seed + 20)
    for v in range(0, g.n, 7):
        prev = 0
        for k in range(5):
            cur = psi_k(g, v, k).value
            if k >= 1:
                assert cur >= prev
            prev = cur
        # once the neighborhood covers everything the statistic is m
        from activescan import neighborhood
        if neighborhood(g, v, 6).size == g.n:
            assert psi_k(g, v, 6).value == g.m


def test_locality_score_edge_cap():
    g, _, _ = er_graph(100, 0.08, 31)
    from activescan import neighborhood
    for v in range(0, g.n, 9):
        size = neighborhood(g, v, 1).size
        assert psi_k(g, v, 1).value <= size * (size - 1)


def test_marker_reuse_is_equivalent():
    g, _, _ = er_graph(60, 0.1, 8)
    shared = VertexMarker(g.n)
    for v in range(g.n):
        assert local_stat(g, v, shared).value == local_stat(g, v).value


def test_negative_k_rejected():
    g = tri_graph()
    with pytest.raises(ValueError):
        psi_k(g, 0, -1)
    with pytest.raises(ValueError):
        psi_all(g, -1)


# (DENSE_MIN_FILL, block cells / n): a fill of 0 sends every selection to the
# dense side and one above 1 none; 7n cells cut a dense sweep into blocks of
# 7 rows and a sparse one into blocks of 7n entries, so both into many
SWITCH_SIDES = {"sparse": (2.0, None), "dense": (0.0, None), "dense7": (0.0, 7),
                "sparse7": (2.0, 7)}


def force_side(monkeypatch, g, side):
    fill, rows = SWITCH_SIDES[side]
    monkeypatch.setattr(graph, "DENSE_MIN_FILL", fill)
    if rows:
        monkeypatch.setattr(graph, "BLOCK_CELLS", rows * g.n)


def switch_graphs(family):
    if family in HUB_FAMILIES:
        return HUB_FAMILIES[family]()
    if family.startswith("er"):
        s = int(family[2:])
        return er_graph(70, 0.02 + 0.02 * s, s + 80)
    g = generate_sbm(paper_params(seed=int(family[3:]))).graph
    return (g, *g.edge_arrays())


@pytest.mark.parametrize("family", [*HUB_FAMILIES, "er0", "er1", "er2",
                                    "sbm0", "sbm1", "sbm2"])
def test_psi_all_exact_on_both_sides_of_the_switch(family, monkeypatch):
    g, src, dst = switch_graphs(family)
    # psi_oracle on every vertex of the small graphs, on every 25th of the SBM
    # (1,000 vertices), where the dense-matrix oracle covers every vertex
    checked = range(0, g.n, 25 if family.startswith("sbm") else 1)
    for k in (2, 3, 5):
        want = dense_psi_oracle(g.n, src, dst, k)
        assert [want[v] for v in checked] == [psi_oracle(g.n, src, dst, v, k)
                                              for v in checked]
        for side in SWITCH_SIDES:
            with monkeypatch.context() as patch:
                force_side(patch, g, side)
                got = psi_all(g, k)
            assert got.dtype == np.int64 and np.array_equal(got, want), (side, k)


def test_psi_all_sums_dense_columns_past_float32(monkeypatch):
    # one float32 block whose column 0 gives (A^T C) * C = [0, 2^22, 2^22,
    # 2^22, 2^22 + 1]: it sums to 2^24 + 1, which float32 rounds to 2^24
    g = Graph.from_edges(5, [0, 0, 0, 0], [1, 2, 3, 4])
    reach = np.zeros((5, 5), dtype=np.float32)
    reach[:, 0] = [1, 2**22, 2**22, 2**22, 2**22 + 1]
    monkeypatch.setattr(locality, "neighborhood_blocks",
                        lambda *args: ([(0, 5)], lambda lo, hi: reach))
    assert psi_all(g, 2).tolist() == [2**24 + 1, 0, 0, 0, 0]


def test_psi_all_sbm_k2_takes_the_dense_side():
    g = generate_sbm(paper_params(seed=0)).graph
    spans, block = graph.neighborhood_blocks(g, np.arange(g.n), 2)
    assert spans == [(0, g.n)] and isinstance(block(0, 1), np.ndarray)  # one slab
    spans, block = graph.neighborhood_blocks(g, np.arange(g.n), 1)
    assert spans == [(0, g.n)] and sp.issparse(block(0, 1))  # R_1 is ~2% full


def test_psi_all_k2_memory_is_bounded_on_a_pa_graph():
    # R_2 of every vertex holds ~15M entries; the sweep builds it in blocks
    # of ~4M entries (~122 MiB traced), where forming it whole peaked at 692 MiB
    g = pa_graph(20_000)[0]
    tracemalloc.start()
    try:
        psi = psi_all(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    checked = np.arange(0, g.n, 997)
    assert psi[checked].tolist() == [psi_k(g, int(v), 2).value for v in checked]
    assert peak <= 256 * 2**20


def edge_case_graphs():
    """Isolated vertices; a self-loop and a repeated edge in the input; a
    path of diameter 4 with an isolated vertex, whose orders 5 and 9 reach
    past the diameter. Each comes with the edges the graph keeps."""
    out = [(Graph.from_edges(5, [0, 1], [1, 0]), [0, 1], [1, 0])]
    src, dst = [0, 1, 1, 2, 2, 3, 0], [1, 1, 2, 0, 0, 2, 1]
    kept = sorted({(a, b) for a, b in zip(src, dst) if a != b})
    out.append((Graph.from_edges(4, src, dst), *map(list, zip(*kept))))
    path_src, path_dst = [0, 1, 2, 4, 3], [1, 2, 3, 3, 4]
    out.append((Graph.from_edges(6, path_src, path_dst), path_src, path_dst))
    return out


@pytest.mark.parametrize("side", SWITCH_SIDES)
def test_psi_all_edge_cases_on_both_sides_of_the_switch(side, monkeypatch):
    empty = Graph.from_edges(0, [], [])
    force_side(monkeypatch, empty, side)
    for k in (2, 3, 5):
        assert psi_all(empty, k).tolist() == []
    for g, src, dst in edge_case_graphs():
        force_side(monkeypatch, g, side)
        for k in (2, 3, 5, 9):
            want = [psi_oracle(g.n, src, dst, v, k) for v in range(g.n)]
            assert psi_all(g, k).tolist() == want, (g, k)
    g = tri_graph()
    force_side(monkeypatch, g, side)
    with pytest.raises(ValueError, match="k must be non-negative"):
        psi_all(g, -1)
