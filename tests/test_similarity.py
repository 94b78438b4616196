import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from activescan import (Graph, build_similarity_matrix, generate_sbm, jaccard,
                        paper_params, psi_all, read_similarity_csv,
                        write_similarity_csv)
from activescan import graph
from activescan.graph import BLOCK_CELLS
from _testutil import (HUB_FAMILIES, er_graph, jaccard_oracle, star_graph,
                       tri_graph)


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
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        build_similarity_matrix(g, [0, 1], k=0)


def test_blocked_computation_matches_unblocked(monkeypatch):
    g, _, _ = er_graph(90, 0.07, 17)
    sel = list(range(0, 90, 3))
    full = build_similarity_matrix(g, sel)
    monkeypatch.setattr(graph, "BLOCK_CELLS", 40)
    assert len(graph.neighborhood_blocks(g, sel, 1)[0]) > 1
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
    # R_2 of a hub graph fills in: the full build is one dense slab
    spans, block = graph.neighborhood_blocks(g, sel, 2)
    assert spans == [(0, len(sel))] and isinstance(block(0, 1), np.ndarray)
    monkeypatch.setattr(graph, "BLOCK_CELLS", 3 * g.n)
    spans, block = graph.neighborhood_blocks(g, sel, 2)
    # dense slabs of three rows
    assert spans[0] == (0, 3) and isinstance(block(0, 1), np.ndarray)
    blocked = build_similarity_matrix(g, sel, 2)
    assert np.array_equal(full.values, blocked.values)
    monkeypatch.setattr(graph, "DENSE_MIN_FILL", 2.0)
    spans, block = graph.neighborhood_blocks(g, sel, 2)
    assert len(spans) > 1 and sp.issparse(block(0, 1))  # sparse row blocks
    blocked = build_similarity_matrix(g, sel, 2)
    assert np.array_equal(full.values, blocked.values)


def switch_cases():
    for family in HUB_FAMILIES:
        yield family, HUB_FAMILIES[family]()[0]
    for s in range(2):
        yield f"er{s}", er_graph(80, 0.04 + 0.05 * s, s + 90)[0]


# (block cells on the sparse side, dense slab rows); None keeps the default
# budget. 40 cells cut the sparse side into many blocks at k >= 2, 300 into a few.
@pytest.mark.parametrize("blocks,rows", [(None, None), (40, 1), (2000, 7), (300, 3)])
def test_dense_side_equals_sparse_side_byte_for_byte(blocks, rows, monkeypatch):
    for name, g in switch_cases():
        sel = list(range(1, g.n, 3))
        dense_cells = rows * g.n if rows else BLOCK_CELLS
        for k in (1, 2, 3):
            sides = []
            # every selection dense, then none
            for fill, cells in ((0.0, dense_cells), (2.0, blocks or BLOCK_CELLS)):
                monkeypatch.setattr(graph, "DENSE_MIN_FILL", fill)
                monkeypatch.setattr(graph, "BLOCK_CELLS", cells)
                sides.append(build_similarity_matrix(g, sel, k).values)
            assert np.array_equal(sides[0], sides[1]), (name, k)


def test_hub_jaccard_k2_memory_is_bounded():
    # R_2 of 200 leaves of a 2,000-vertex star holds every vertex: the sparse
    # product R R^T peaked at ~19 MiB, the dense slab holds 1.6 MB
    g = star_graph(2000)[0]
    sel = np.arange(1, g.n, 10)
    tracemalloc.start()
    try:
        s = build_similarity_matrix(g, sel, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(s.values, np.ones((sel.size, sel.size)))
    assert peak <= 8 * 2**20


def test_dense_jaccard_holds_two_slabs_not_the_selection(monkeypatch):
    # 1,000 leaves of a 20,000-vertex star in 40-row slabs: R_2[S] is 80 MB
    # of float32 and one slab 3.2 MB. The build holds the 8 MB result, two
    # slabs and a third while a partner slab grows (~17 MB); before that,
    # the fill check's 32 sparse rows of R_2 and their sum reach ~15 MB
    g = star_graph(20_000)[0]
    sel = np.arange(1, g.n, 20)
    monkeypatch.setattr(graph, "BLOCK_CELLS", 40 * g.n)
    spans, block = graph.neighborhood_blocks(g, sel, 2)
    assert spans[0] == (0, 40) and isinstance(block(0, 1), np.ndarray)
    tracemalloc.start()
    try:
        s = build_similarity_matrix(g, sel, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(s.values, np.ones((sel.size, sel.size)))
    assert peak <= 32 * 2**20


def test_similarity_csv_roundtrip(tmp_path):
    g, _, _ = er_graph(40, 0.1, 19)
    s = build_similarity_matrix(g, [3, 7, 11, 19])
    path = tmp_path / "sim.csv"
    write_similarity_csv(s, path)
    back = read_similarity_csv(path)
    assert back.vertices.tolist() == s.vertices.tolist()
    assert np.array_equal(back.values, s.values)


def test_similarity_csv_rejects_a_body_that_is_not_header_by_header(tmp_path):
    path = tmp_path / "sim.csv"
    path.write_text("3,7,11\n1.0,0.5\n0.5,1.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2 has 2 values under 3 ids")):
        read_similarity_csv(path)
    path.write_text("3,7\n1.0,0.5\n0.5\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3 has 1 values under 2 ids")):
        read_similarity_csv(path)
    path.write_text("3,7\n1.0,0.5\n0.5,1.0\n0.5,1.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: 3 rows under 2 ids")):
        read_similarity_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match=re.escape(f"empty similarity file: {path}")):
        read_similarity_csv(path)
