import json
import re
import tracemalloc

import numpy as np
import pytest

from activescan import (Graph, TopQResult, est_lstat1, est_lstat2,
                        generate_sbm, paper_params, psi_all, read_trim_report,
                        topQ_lstat, topQ_lstat_parallel, write_trim_report)
from activescan.locality import _bounds
from _testutil import (HUB_FAMILIES, dense_psi_oracle, er_graph,
                       planted_clique_graph, star_graph, tri_graph,
                       triangles_graph)


def brute_topq_values(g, q):
    return np.sort(psi_all(g, 1))[::-1][:q].tolist()


def result_values(result, q):
    return sorted((val for _, val in result.entries[:q]), reverse=True)


def sweep_entries(g, q, k):
    """Every vertex whose order-k statistic reaches the Q-th value, by
    (-value, id): the top-Q entries with all boundary ties. The statistic
    comes from the dense-matrix oracle, not from the library's sweep."""
    scores = dense_psi_oracle(g.n, *g.edge_arrays(), k)
    kth = np.sort(scores)[::-1][q - 1]
    return sorted(((v, int(s)) for v, s in enumerate(scores) if s >= kth),
                  key=lambda e: (-e[1], e[0]))


def clique_plus_paths() -> Graph:
    # directed 5-clique (vertices 0..4) plus 50 disjoint 2-paths
    src, dst = [], []
    for u in range(5):
        for v in range(5):
            if u != v:
                src.append(u)
                dst.append(v)
    base = 5
    for i in range(50):
        a = base + 2 * i
        src += [a]
        dst += [a + 1]
    return Graph.from_edges(base + 100, src, dst)


def bound_graphs(style):
    if style in HUB_FAMILIES:
        return [HUB_FAMILIES[style]()[0]]
    if style == "er":
        return [er_graph(150, 0.02 + 0.02 * s, s + 60)[0] for s in range(3)]
    if style == "clique":
        return [planted_clique_graph(120, 0.03, 6, s + 40)[0] for s in range(3)]
    if style == "ties":
        return [triangles_graph(30)[0]]
    return [Graph.from_edges(6, [0, 1, 1, 2], [1, 0, 2, 0])]  # isolated 3..5


def per_vertex_bounds(g):
    e1 = np.array([est_lstat1(g, v) for v in range(g.n)], dtype=np.int64)
    e2 = np.array([est_lstat2(g, v) for v in range(g.n)], dtype=np.int64)
    return e1, e2


def test_topq_skips_most_of_a_skewed_graph():
    g = clique_plus_paths()
    r = topQ_lstat(g, 1)
    assert r.entries[0][1] == max(brute_topq_values(g, 1))
    assert r.computed_count < 20  # 105 vertices, only the dense head computed


@pytest.mark.parametrize("style", ["er", "clique", "ties", "isolated", *HUB_FAMILIES])
def test_vectorised_bounds_equal_per_vertex_bounds(style):
    for g in bound_graphs(style):
        b1, b2 = _bounds(g)
        e1, e2 = per_vertex_bounds(g)
        assert b1.tolist() == e1.tolist()
        assert b2.tolist() == e2.tolist()


@pytest.mark.parametrize("style", ["er", "clique", "ties", *HUB_FAMILIES])
def test_counters_and_pruning_against_final_threshold(style):
    for g in bound_graphs(style):
        exact = psi_all(g, 1)
        e1, e2 = per_vertex_bounds(g)
        bound = np.minimum(e1, e2)
        for q in sorted({1, 5, max(1, g.n // 10), g.n}):
            r = topQ_lstat(g, q)
            t = r.entries[q - 1][1]  # the final Q-th value
            # one descending-bound pass computes exactly {v : bound(v) >= t}
            assert r.computed_count == np.count_nonzero(bound >= t), (style, q)
            assert r.est1_count == np.count_nonzero(e1 >= t), (style, q)
            assert r.est2_count == np.count_nonzero(e2 >= t), (style, q)
            # every pruned vertex is soundly pruned: psi_1 <= bound < t
            pruned = bound < t
            assert np.all(exact[pruned] <= bound[pruned]), (style, q)
            assert np.all(exact[pruned] < t), (style, q)


def test_top_lstat_three_cycle():
    r = topQ_lstat(tri_graph(), 1)
    assert r.entries[0][1] == 3


def test_top_lstat_empty_candidates_error():
    # a graph without vertices leaves no candidate to search
    with pytest.raises(ValueError):
        topQ_lstat(Graph.from_edges(0, [], []), 1)


def test_topq_three_cycle_all_tie():
    r = topQ_lstat(tri_graph(), 3)
    assert result_values(r, 3) == [3, 3, 3]


@pytest.mark.parametrize("style,seed", [(s, i) for i in range(8) for s in ("er", "clique", "ties")]
                         + [(f, 0) for f in HUB_FAMILIES])
def test_topq_matches_brute_force(style, seed):
    rng = np.random.default_rng(seed * 31 + {"er": 0, "clique": 1, "ties": 2}.get(style, 0))
    n = int(rng.integers(30, 220))
    if style in HUB_FAMILIES:  # fixed hub-heavy graphs; seed is unused
        g, _, _ = HUB_FAMILIES[style]()
    elif style == "er":
        g, _, _ = er_graph(n, float(rng.uniform(0.01, 0.1)), seed)
    elif style == "clique":
        g, _, _ = planted_clique_graph(n, 0.02, int(rng.integers(4, 9)), seed)
    else:
        g, _, _ = triangles_graph(n)
    for q in {1, 5, max(1, g.n // 10), g.n}:
        r = topQ_lstat(g, q)
        assert result_values(r, q) == brute_topq_values(g, q), (style, seed, q)
        assert r.computed_count <= g.n
        assert r.est1_count > 0
        # strict-less pruning finds every boundary tie the full sweep lists
        assert r.entries == sweep_entries(g, q, 1), (style, seed, q)


def test_topq_q_equals_n_is_lossless():
    g, _, _ = er_graph(150, 0.04, 77)
    r = topQ_lstat(g, g.n)
    assert r.computed_count == g.n
    assert result_values(r, g.n) == brute_topq_values(g, g.n)


def test_topq_on_sbm_sample_q60():
    # near-uniform degrees leave little to prune here; only value
    # correctness is asserted (efficiency belongs to skewed graphs)
    lg = generate_sbm(paper_params(seed=9))
    r = topQ_lstat(lg.graph, 60)
    assert result_values(r, 60) == brute_topq_values(lg.graph, 60)


def test_topq_invalid_q():
    g = tri_graph()
    with pytest.raises(ValueError):
        topQ_lstat(g, 0)
    with pytest.raises(ValueError):
        topQ_lstat(g, 4)


def test_entries_ordering_and_boundary_ties():
    g, _, _ = triangles_graph(30)  # all statistics equal 3
    r = topQ_lstat(g, 4)
    assert len(r.entries) >= 4
    values = [val for _, val in r.entries]
    assert values == sorted(values, reverse=True)
    # all discovered boundary ties are present and ordered by id
    ids = [v for v, _ in r.entries]
    assert ids == sorted(ids)
    assert all(val == 3 for val in values)


def test_vertex_identity_when_boundary_is_strict():
    # one clique clearly above everything else: vertex-level equality holds
    g = clique_plus_paths()
    r = topQ_lstat(g, 5)
    assert sorted(v for v, _ in r.entries[:5]) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_parallel_value_multisets_match_serial(workers):
    for seed in range(6):
        g, _, _ = er_graph(int(120 + 17 * seed), 0.04, seed + 500)
        q = max(1, g.n // 5)
        serial = topQ_lstat(g, q)
        par = topQ_lstat_parallel(g, q, workers)
        assert result_values(par, q) == result_values(serial, q)
        # one search for every worker count: counters are reproducible too
        assert (par.entries, par.computed_count, par.est1_count, par.est2_count) == \
               (serial.entries, serial.computed_count, serial.est1_count, serial.est2_count)
        assert par.worker_exact_counts == [par.computed_count]
    with pytest.raises(ValueError):
        topQ_lstat_parallel(g, q, 0)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_sweep_ranks_any_order_with_boundary_ties(k):
    g, _, _ = er_graph(90, 0.05, 33)
    for q in (1, 10, g.n):
        r = topQ_lstat(g, q, k)
        assert r.entries == sweep_entries(g, q, k)
        if k != 1:  # a sweep computes every vertex and evaluates no bound
            assert (r.computed_count, r.est1_count, r.est2_count) == (g.n, 0, 0)
        assert r.wall_ms > 0
    with pytest.raises(ValueError):
        topQ_lstat(g, 0, k)
    with pytest.raises(ValueError):
        topQ_lstat(g, g.n + 1, k)


def test_counters_populated_and_bounded():
    g, _, _ = er_graph(200, 0.03, 12)
    r = topQ_lstat(g, 20)
    assert 0 < r.computed_count <= g.n
    assert 0 < r.est1_count <= g.n
    assert 0 <= r.est2_count <= g.n
    assert r.wall_ms >= 0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_trim_report_roundtrip(fmt, tmp_path):
    g, _, _ = er_graph(80, 0.05, 21)
    r = topQ_lstat(g, 7)
    path = tmp_path / f"report.{fmt}"
    write_trim_report(r, 7, path, fmt)
    q, back = read_trim_report(path)
    assert q == 7
    assert back.entries == r.entries
    assert back.computed_count == r.computed_count
    assert back.est1_count == r.est1_count
    assert back.est2_count == r.est2_count


def test_hub_sweep_and_search_memory_is_bounded():
    # a leaf row that pulled in the hub's list would hold ~n^2 entries
    for run in (lambda g: psi_all(g, 1), lambda g: topQ_lstat(g, g.n // 10)):
        g = star_graph(3000)[0]
        tracemalloc.start()
        try:
            run(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


def test_trim_report_bytes_are_pinned(tmp_path):
    r = TopQResult(entries=[(4, 9), (0, 7), (2, 7)], computed_count=5,
                   est1_count=6, est2_count=3, wall_ms=1.25)
    write_trim_report(r, 2, tmp_path / "r.json", "json")
    assert (tmp_path / "r.json").read_bytes() == (
        b'{\n  "q": 2,\n  "computed_count": 5,\n  "est1_count": 6,\n'
        b'  "est2_count": 3,\n  "wall_ms": 1.25,\n  "entries": [\n'
        b'    [\n      4,\n      9\n    ],\n    [\n      0,\n      7\n    ],\n'
        b'    [\n      2,\n      7\n    ]\n  ]\n}\n')
    write_trim_report(r, 2, tmp_path / "r.csv", "csv")
    assert (tmp_path / "r.csv").read_bytes() == (
        b"q,vertex,psi1,computed_count,est1_count,est2_count,wall_ms\r\n"
        b"2,4,9,5,6,3,1.250\r\n2,0,7,5,6,3,1.250\r\n2,2,7,5,6,3,1.250\r\n")


def test_trim_report_rejects_an_unknown_format_and_an_empty_csv(tmp_path):
    r = TopQResult(entries=[], computed_count=0, est1_count=0, est2_count=0)
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        write_trim_report(r, 2, tmp_path / "r.xml", "xml")
    assert not (tmp_path / "r.xml").exists()
    # the CSV keeps q and the counters on its entry rows, so with no entry
    # the writer refuses it, and the reader refuses a header alone
    path = tmp_path / "r.csv"
    with pytest.raises(ValueError, match="^a trim report with no entries cannot be "
                                         "written as csv; use json$"):
        write_trim_report(r, 2, path, "csv")
    assert not path.exists()
    path.write_text("q,vertex,psi1,computed_count,est1_count,est2_count,wall_ms\r\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'empty trim report: {path}')}$"):
        read_trim_report(path)
    write_trim_report(r, 2, tmp_path / "r.json", "json")  # JSON keeps them with no entry
    assert read_trim_report(tmp_path / "r.json") == (2, r)


@pytest.mark.parametrize("wall_ms", [0.0, 1e-05, 12345.678])
@pytest.mark.parametrize("entries", [
    [], [(3, 5)], [(4, 9), (0, 7), (2, 7), (5, 7)],  # ties at the Q-th value
    [(2**31, 2**31 + 1), (2**63 - 1, 2**40), (0, 0)]])
def test_trim_report_writer_matches_json_dumps(entries, wall_ms, tmp_path):
    r = TopQResult(entries=entries, computed_count=11, est1_count=2**33,
                   est2_count=0, wall_ms=wall_ms)
    path = tmp_path / "r.json"
    write_trim_report(r, 2, path, "json")
    payload = {"q": 2, "computed_count": 11, "est1_count": 2**33, "est2_count": 0,
               "wall_ms": wall_ms, "entries": [list(e) for e in entries]}
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()
    q, back = read_trim_report(path)
    assert (q, back) == (2, r)
    if not entries:  # the CSV has no row to keep the counters in
        with pytest.raises(ValueError, match="no entries"):
            write_trim_report(r, 2, tmp_path / "r.csv", "csv")
        return
    write_trim_report(r, 2, tmp_path / "r.csv", "csv")
    assert (tmp_path / "r.csv").read_bytes() == "".join(
        f"{row}\r\n" for row in ["q,vertex,psi1,computed_count,est1_count,est2_count,wall_ms",
                                  *(f"2,{v},{val},11,{2**33},0,{wall_ms:.3f}"
                                    for v, val in entries)]).encode()
