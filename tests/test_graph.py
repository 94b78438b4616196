import io
import logging
import os
import re
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from activescan import (EdgeListParseError, Graph, generate_sbm, induced_edge_count,
                        load_edge_list, neighborhood, paper_params, psi_all,
                        read_binary, write_binary, write_edge_list)
from activescan import graph
from activescan.graph import (_dense_ids, _fast_pairs, _head_length, _loop_pairs,
                              _parse_pairs, closed_neighborhood_rows, count_width,
                              neighborhood_blocks)
from _testutil import (HUB_FAMILIES, bfs_set, count_edges_within, er_graph,
                       pa_graph, raw_views, tri_graph, undirected_adj)


def test_load_three_cycle():
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0"))
    assert (g.n, g.m) == (3, 3)
    assert [a.tolist() for a in g.edge_arrays()] == [[0, 1, 2], [1, 2, 0]]
    assert g.neighbors(0).tolist() == [1, 2]


def test_load_drops_self_loop_with_warning(caplog):
    with caplog.at_level(logging.WARNING):
        g = load_edge_list(io.StringIO("5 5\n5 6"))
    assert (g.n, g.m) == (2, 1)
    assert g.ids.tolist() == [5, 6]
    assert "1 self-loop" in caplog.text


def test_load_drops_duplicates_with_warning(caplog):
    with caplog.at_level(logging.WARNING):
        g = load_edge_list(io.StringIO("0 1\n0 1\n1 0"))
    assert (g.n, g.m) == (2, 2)
    assert "1 duplicate" in caplog.text


@pytest.mark.parametrize("header", ["", "# forces the line-by-line parse\n"])
def test_load_counts_loops_and_duplicates_once(tmp_path, caplog, header):
    # 7 7 is a repeated self-loop, 3 9 a tripled edge, 9 3 its reciprocal
    path = tmp_path / "dirty.edges"
    path.write_text(header + "7 7\n3 9\n7 7\n3 9\n9 3\n3 9\n9 7\n7 7\n5 5\n")
    with caplog.at_level(logging.WARNING):
        g = load_edge_list(path)
    assert [r.getMessage() for r in caplog.records] == [
        "dropped 4 self-loop(s)", "dropped 2 duplicate edge(s)"]
    assert g.ids.tolist() == [3, 5, 7, 9]
    assert g == Graph.from_edges(4, [0, 3, 3], [3, 0, 2])
    assert g.degrees().tolist() == [2, 0, 1, 3]  # 3 9 and 9 3 count twice
    assert g.neighbors(3).tolist() == [0, 2]


def test_load_skips_comments_and_blanks():
    g = load_edge_list(io.StringIO("# header\n\n0 1\n\n# tail\n1 0\n"))
    assert (g.n, g.m) == (2, 2)


def test_load_accepts_bytes_and_tabs():
    g = load_edge_list(io.BytesIO(b"10\t20\n20\t10\n"))
    assert (g.n, g.m) == (2, 2)


def test_parse_error_reports_line_number():
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list(io.StringIO("0 1\nx 2\n"))
    assert exc.value.line_no == 2
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list(io.StringIO("0 1\n1 2 3\n"))
    assert exc.value.line_no == 2
    with pytest.raises(EdgeListParseError):
        load_edge_list(io.StringIO("0 -1\n"))


def test_empty_input_is_error():
    with pytest.raises(ValueError):
        load_edge_list(io.StringIO("# nothing\n"))


# Lines the C-level parse must leave to the line loop, or read exactly as the
# loop does: comments, floats, hex, digit separators, signs, blank and
# whitespace-only lines, other whitespace and line ends inside a line.
PARSE_CASES = [
    "1 2 # c", "1.5 2", "0x1 2", "1_0 2", "+1 2", "01 2", "1 -0", "-1 2",
    "1 2 3", "1", "", "   ", "\t", "# header", "1 2\r", "1 2\r3 4", "1\x0c2",
    "1\xa02", "1\u20282 3 4", "\ufeff1 2", "1e3 2", "9223372036854775808 1",
    "\u0661 2",
]
# a SNAP-style header: comment and blank lines before the first edge
HEADER = ["# Directed graph: case.edges", "", "  # FromNodeId\tToNodeId \t"]


@pytest.mark.parametrize("case", PARSE_CASES)
def test_fast_parse_agrees_with_line_loop(case, tmp_path):
    for lines in ([case], ["5 6", case, "7 8"], ["# head", case],
                  [*HEADER, case, "7 8"], [x.encode() + b"\n" for x in ("5 6", case)]):
        fast = _fast_pairs(lines, _head_length(lines))
        if fast is None:
            continue
        assert fast.dtype == np.int64
        assert fast.tolist() == _loop_pairs(lines).tolist()
    # a path is parsed by name, after a header too
    path = tmp_path / "case.edges"
    for lines in (["5 6", case, "7 8", ""], [*HEADER, case, "7 8", ""]):
        path.write_text("\n".join(lines), encoding="utf-8", newline="")
        try:
            want = _loop_pairs(lines).tolist()
        except ValueError as exc:  # the same error, raised by the loop
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _parse_pairs(path)
        else:
            assert _parse_pairs(path).tolist() == want


def test_a_leading_header_keeps_the_c_level_parse(tmp_path, monkeypatch):
    # SNAP-style '#' lines and blank lines before the first edge are skipped
    # by the C-level parse; a comment after it still sends the lines to the loop
    path = tmp_path / "snap.edges"
    path.write_text("\n".join([*HEADER, "5 6", "", "7 8", ""]))
    lines = [*HEADER, "5 6", "7 8"]
    assert _fast_pairs(lines, _head_length(lines)).tolist() == [[5, 6], [7, 8]]
    mid = [*HEADER, "5 6", "# mid", "7 8"]
    assert _fast_pairs(mid, _head_length(mid)) is None
    monkeypatch.setattr(graph, "_loop_pairs", None)  # the loop must not run
    assert load_edge_list(path).ids.tolist() == [5, 6, 7, 8]
    assert load_edge_list(lines).ids.tolist() == [5, 6, 7, 8]


def test_fast_parse_reads_plain_edge_lists():
    for lines in (["1 2", "3 4", ""], ["1\t2\r\n", "  3 4  \n", "\n", " \t \n"],
                  [b"10 20\n", b"20 10\n"]):
        assert _fast_pairs(lines, _head_length(lines)).tolist() == _loop_pairs(lines).tolist()


def test_load_edge_list_parity_cases(tmp_path):
    for text, line_no in (("0 1\n1 2 # c\n", 2), ("0 1\n\n1.5 2\n", 3),
                          ("0x1 2\n", 1), ("0 1\n1 2\r3 4\n", 2), ("2 -1\n", 1),
                          ("0 1\n9223372036854775808 1\n", 2)):
        path = tmp_path / "bad.edges"
        path.write_text(text, newline="")
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(path)
        assert exc.value.line_no == line_no
    path = tmp_path / "ok.edges"
    path.write_bytes(b"# header\n1_0 2\r\n\n  \t\n2 10\n")
    g = load_edge_list(path)
    assert g.ids.tolist() == [2, 10] and g.m == 2
    path.write_bytes(b"0 1\n1 \xff\n")
    with pytest.raises(EdgeListParseError) as exc:
        load_edge_list(path)
    assert exc.value.line_no == 2


# The parity inputs above as file bytes: each PARSE_CASES line between two
# valid lines and after a header, and the whole files of
# test_load_edge_list_parity_cases.
PATH_CORPUS = [f"5 6\n{case}\n7 8\n".encode() for case in PARSE_CASES] + [
    "\n".join([*HEADER, case, "7 8", ""]).encode() for case in PARSE_CASES] + [
    b"0 1\n1 2 # c\n", b"0 1\n\n1.5 2\n", b"0x1 2\n", b"0 1\n1 2\r3 4\n",
    b"2 -1\n", b"# header\n1_0 2\r\n\n  \t\n2 10\n", b"0 1\n1 \xff\n", b"",
    b"1 2\r", b"1 2\r\n3 4\r\n", b"1 2\r\r\n3 4\n"]


CR_CASES = [b"", b"\r", b"\n", b"\r\n", b"ab\r\ncd", b"ab\r\r\n", b"a\rb",
            b"1 2\r\n3 4\r", b"\r\n" * 7, b"\r\n\r\n\r\r\n", b"12\r\n\r"]


def _outcome(parse):
    """Pairs as lists, or the error's type, message and line number."""
    try:
        return parse().tolist()
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        return type(exc), str(exc), getattr(exc, "line_no", None)


@pytest.mark.parametrize("suffix", [".edges", ".gz", ".bz2", ".xz", ".lzma"])
@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
def test_path_parse_agrees_with_line_loop(suffix, eol, tmp_path):
    # plain text under a decompressor's suffix, CRLF and bare-'\r' line ends:
    # every path gives the loop's values or the loop's located error
    path = tmp_path / f"case{suffix}"
    for data in PATH_CORPUS:
        data = data.replace(b"\n", eol)
        path.write_bytes(data)
        try:
            lines = data.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            lines = data.split(b"\n")
        assert _outcome(lambda: _parse_pairs(path)) == _outcome(lambda: _loop_pairs(lines))


def _loadtxt_sources(monkeypatch) -> list:
    """Record whether each np.loadtxt call got a file name."""
    names = []
    loadtxt = np.loadtxt

    def recording(source, *args, **kwargs):
        names.append(isinstance(source, str))
        return loadtxt(source, *args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", recording)
    return names


def test_regular_plain_files_are_parsed_by_name(tmp_path, monkeypatch):
    names = _loadtxt_sources(monkeypatch)
    (tmp_path / "a:").mkdir()
    for name, data, by_name in (
            ("plain.edges", b"0 1\n1 2\n", True), ("crlf.edges", b"0 1\r\n1 2\r\n", True),
            ("noeol.edges", b"0 1\n1 2", True), ("plain.gz", b"0 1\n1 2\n", False),
            ("plain.bz2", b"0 1\n1 2\n", False), ("plain.xz", b"0 1\n1 2\n", False),
            ("plain.lzma", b"0 1\n1 2\n", False), ("a://b", b"0 1\n1 2\n", False),
            ("bare.edges", b"0 1\n1 2\r", False)):
        path = f"{tmp_path}/{name}"
        with open(path, "wb") as fh:
            fh.write(data)
        names.clear()
        assert _parse_pairs(path).tolist() == [[0, 1], [1, 2]], name
        assert names == [by_name], name
    names.clear()
    assert _parse_pairs(["0 1", "1 2"]).tolist() == [[0, 1], [1, 2]]
    assert names == [False]
    # under a plain name, exactly the files without a bare '\r' go by name
    path = tmp_path / "cr.edges"
    for data in CR_CASES:
        path.write_bytes(data)
        names.clear()
        _outcome(lambda: _parse_pairs(path))
        assert names == [re.search(b"\r(?!\n)", data) is None], data


def test_random_files_parse_as_the_line_loop(tmp_path):
    # short edge lists with up to three bytes swapped for digits, whitespace,
    # line ends, comment marks, signs, separators or an invalid UTF-8 byte:
    # each path gives the loop's values or the loop's located error
    rng = np.random.default_rng(25)
    alphabet = np.frombuffer(b"0123456789 \t\r\n#-+_.x\xff", dtype=np.uint8)
    path = tmp_path / "random.edges"
    for _ in range(300):
        data = bytearray(b"".join(b"%d %d\n" % tuple(rng.integers(0, 20, 2))
                                  for _ in range(rng.integers(0, 5))))
        for i in rng.integers(0, len(data) + 1, rng.integers(0, 4)):
            data[i:i + 1] = rng.choice(alphabet, 1).tobytes()
        data = bytes(data)
        path.write_bytes(data)
        try:
            lines = data.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            lines = data.split(b"\n")
        assert _outcome(lambda: _parse_pairs(path)) == _outcome(lambda: _loop_pairs(lines)), data


def _load_fifo(fifo, data: bytes):
    """load_edge_list(fifo) while a thread writes data into it: the graph, or
    the error raised."""
    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    def read():
        try:
            out.append(load_edge_list(fifo))
        except Exception as exc:
            out.append(exc)
    out = []
    threads = [threading.Thread(target=f, daemon=True) for f in (write, read)]
    for t in threads:
        t.start()
    threads[1].join(timeout=30)
    if threads[1].is_alive():  # a second open of the FIFO waits for a writer
        with open(fifo, "wb"):
            pass
        threads[1].join(timeout=30)
        pytest.fail("the FIFO was opened twice")
    return out[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 1 << 20])
def test_bare_cr_scan_across_chunks(chunk, tmp_path):
    # a pipe written in chunk-byte pieces, a '\r' and its '\n' often in
    # different writes, parses as the loop parses the whole bytes
    fifo = tmp_path / "cr.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb", buffering=0) as fh:
            for i in range(0, len(data), chunk):
                fh.write(data[i:i + chunk])
    for data in CR_CASES:
        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        got = _outcome(lambda: _parse_pairs(fifo))
        writer.join(timeout=30)
        assert not writer.is_alive(), data
        assert got == _outcome(lambda: _loop_pairs(data.decode().split("\n"))), data


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fifo_is_read_once(tmp_path):
    # the C parse fails on the comment; the loop must get the same lines
    fifo = tmp_path / "edges.fifo"
    os.mkfifo(fifo)
    g = _load_fifo(fifo, b"0 1\n# c\n1 2\n")
    assert g.ids.tolist() == [0, 1, 2] and g == Graph.from_edges(3, [0, 1], [1, 2])
    exc = _load_fifo(fifo, b"0 1\nx 2\n")
    assert isinstance(exc, EdgeListParseError) and exc.line_no == 2
    assert str(exc) == "line 2: non-integer token in 'x 2'"


@pytest.mark.parametrize("route", ["bitmap", "sort", "loop", "fifo"])
def test_load_edge_list_carries_the_input_ids(route, tmp_path, monkeypatch):
    # every route to the dense ids keeps their table: a bitmap of a narrow
    # id range, a sort of ids up to 2^63 - 1, the line loop (a comment after
    # the first edge) and a pipe, read once
    a, b, c, d = (10, 2**40, 2**62, 2**63 - 1) if route == "sort" else (3, 5, 7, 9)
    data = f"{b} {c}\n{c} {a}\n{'# c' if route == 'loop' else ''}\n{a} {b}\n{c} {d}\n"
    calls = []
    for module, name in ((graph, "_loop_pairs"), (np, "unique")):
        def spy(*args, _f=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    if route == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("needs named pipes")
        os.mkfifo(tmp_path / "edges.fifo")
        g = _load_fifo(tmp_path / "edges.fifo", data.encode())
    else:
        (tmp_path / "g.edges").write_text(data)
        g = load_edge_list(tmp_path / "g.edges")
    assert calls == {"sort": ["unique"], "loop": ["_loop_pairs"]}.get(route, [])
    assert g.ids.dtype == np.int64 and g.ids.tolist() == [a, b, c, d]
    assert g == Graph.from_edges(4, [1, 2, 0, 2], [2, 0, 1, 3])
    with pytest.raises(ValueError, match="read-only"):
        g.ids[0] = 0


def test_only_a_loaded_edge_list_carries_ids(tmp_path):
    g = Graph.from_edges(3, [0, 1], [1, 2])
    write_binary(g, tmp_path / "g.bin")
    assert g.ids is None and read_binary(tmp_path / "g.bin").ids is None
    assert generate_sbm(paper_params(seed=1)).graph.ids is None
    # equality is structural: the same edges under other input ids compare equal
    loaded = load_edge_list(io.StringIO("10 20\n20 30\n"))
    assert loaded.ids.tolist() == [10, 20, 30] and loaded == g


@pytest.mark.parametrize("top", [0, 1, 50, 399, 400, 401, 10**6, 2**62])
def test_dense_ids_match_np_unique(top):
    # 100 ids: the bitmap serves tops below 400, the sort every other
    rng = np.random.default_rng(top)
    raw = rng.integers(0, top + 1, 100)
    raw[0] = top
    ids, inverse = _dense_ids(raw)
    want_ids, want_inverse = np.unique(raw, return_inverse=True)
    assert ids.dtype == want_ids.dtype and inverse.dtype == want_inverse.dtype
    assert np.array_equal(ids, want_ids) and np.array_equal(inverse, want_inverse)


def test_neighborhood_basics():
    g = tri_graph()
    assert neighborhood(g, 0, 0).tolist() == [0]
    assert neighborhood(g, 0, 1).tolist() == [0, 1, 2]
    path = Graph.from_edges(4, [0, 1, 2], [1, 2, 3])
    assert neighborhood(path, 0, 2).tolist() == [0, 1, 2]
    assert neighborhood(path, 0, 5).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("seed", range(5))
def test_neighborhood_monotone_in_k(seed):
    g, _, _ = er_graph(60, 0.05, seed)
    rng = np.random.default_rng(seed)
    for v in rng.choice(g.n, 8, replace=False):
        prev = set()
        for k in range(4):
            cur = set(neighborhood(g, int(v), k).tolist())
            assert prev <= cur
            prev = cur


@pytest.mark.parametrize("family", HUB_FAMILIES)
def test_neighborhood_matches_set_bfs_on_hub_graphs(family):
    g, src, dst = HUB_FAMILIES[family]()
    adj = undirected_adj(g.n, src, dst)
    for v in range(g.n):
        for k in (1, 2, 3):
            assert neighborhood(g, v, k).tolist() == sorted(bfs_set(adj, v, k))


@pytest.mark.parametrize("family", HUB_FAMILIES)
def test_undirected_matrix_is_built_once(family):
    # M is built with the graph; later calls read it and leave it as it was
    g, src, dst = HUB_FAMILIES[family]()
    rows = closed_neighborhood_rows(g, np.arange(g.n), 2)
    und = g._und
    again = closed_neighborhood_rows(g, np.arange(g.n), 2)
    assert again.dtype == rows.dtype
    for a, b in ((again.indptr, rows.indptr), (again.indices, rows.indices),
                 (again.data, rows.data)):
        assert np.array_equal(a, b)
    adj = undirected_adj(g.n, src, dst)
    assert np.array_equal(np.diff(und.indptr), [len(a) for a in adj])
    _, _, _, mult = raw_views(g.n, src, dst)
    for v in range(g.n):
        assert und.indices[und.indptr[v]:und.indptr[v + 1]].tolist() == sorted(adj[v])
        assert und.data[und.indptr[v]:und.indptr[v + 1]].tolist() == mult[v]


@pytest.mark.parametrize("seed", range(3))
def test_undirected_slots_carry_pair_multiplicity(seed):
    g, src, dst = er_graph(40, 0.15, seed)  # many reciprocal pairs
    directed = set(zip(src.tolist(), dst.tolist()))
    und = g._und
    for v in range(g.n):
        got = und.data[und.indptr[v]:und.indptr[v + 1]].tolist()
        want = [((v, z) in directed) + ((z, v) in directed) for z in g.neighbors(v).tolist()]
        assert got == want
    assert int(und.data.sum()) == 2 * g.m


def view_cases():
    cases = {name: build() for name, build in HUB_FAMILIES.items()}
    for seed in range(3):
        cases[f"er{seed}"] = er_graph(40, 0.15, seed)  # many reciprocal pairs
    # a self-loop, a repeated edge, a reciprocal pair; 3, 4, 6, 7 isolated
    src = np.array([0, 1, 1, 2, 5, 5, 0])
    dst = np.array([1, 0, 2, 0, 2, 5, 1])
    cases["isolated"] = (Graph.from_edges(8, src, dst), src, dst)
    # shuffled: one pair 256 times (an 8-bit count wraps to 0), a self-loop 5
    # times, reciprocal pairs and the highest id, 9, isolated
    src = np.array([4] * 256 + [3] * 5 + [0, 1, 2, 7, 8, 6, 2, 5])
    dst = np.array([2] * 256 + [3] * 5 + [1, 0, 7, 2, 6, 8, 4, 0])
    order = np.random.default_rng(0).permutation(src.size)
    src, dst = src[order], dst[order]
    cases["repeats"] = (Graph.from_edges(10, src, dst), src, dst)
    return cases


VIEW_CASES = view_cases()


def assert_views_match_raw_edges(g, src, dst):
    out, inn, und, mult = raw_views(g.n, src, dst)
    assert g.m == sum(len(row) for row in out)
    g_src, g_dst = g.edge_arrays()
    assert g_src.tolist() == [v for v in range(g.n) for _ in out[v]]
    assert g_dst.tolist() == [z for v in range(g.n) for z in out[v]]
    for v in range(g.n):
        assert g.neighbors(v).tolist() == und[v]
        lo, hi = g._und.indptr[v], g._und.indptr[v + 1]
        assert g._und.data[lo:hi].tolist() == mult[v]
    assert g.degrees().tolist() == [len(out[v]) + len(inn[v]) for v in range(g.n)]


@pytest.mark.parametrize("case", VIEW_CASES)
@pytest.mark.parametrize("build", ["from_edges", "load_edge_list", "read_binary"])
def test_every_view_matches_raw_edges(tmp_path, case, build):
    g, src, dst = VIEW_CASES[case]
    if build == "load_edge_list":
        path = tmp_path / "g.edges"
        path.write_text("".join(f"{a} {b}\n" for a, b in zip(src.tolist(), dst.tolist())))
        g = load_edge_list(path)
        src, dst = np.searchsorted(g.ids, src), np.searchsorted(g.ids, dst)
    elif build == "read_binary":
        write_binary(g, tmp_path / "g.bin")
        g = read_binary(tmp_path / "g.bin")
    assert_views_match_raw_edges(g, src, dst)


def test_graph_memory_per_edge_is_bounded():
    # A and M with int32 indices and int8 values, plus the degree array,
    # and nothing the order-1 sweep leaves behind
    n = 20_000
    _, src, dst = pa_graph(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = Graph.from_edges(n, src, dst)
        psi_all(g, 1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 32 * g.m, held / g.m


def test_induced_edge_count_cases():
    g = tri_graph()
    assert induced_edge_count(g, [0, 1, 2]) == 3
    assert induced_edge_count(g, [0, 1]) == 1
    assert induced_edge_count(g, []) == 0
    # the same error as every other entry point, also where no edge is read
    for h in (g, Graph.from_edges(3, [], [])):
        for s in ([-1], [-3], [3], [0, 5], np.array([1, -2])):
            with pytest.raises(ValueError, match=re.escape("vertex out of range [0, 3)")):
                induced_edge_count(h, s)


@pytest.mark.parametrize("seed", range(10))
def test_induced_edge_count_matches_edge_scan(seed):
    g, src, dst = er_graph(30, 0.15, seed)
    rng = np.random.default_rng(seed + 100)
    members = rng.choice(30, size=rng.integers(1, 30), replace=False)
    want = count_edges_within(src, dst, set(int(x) for x in members))
    assert induced_edge_count(g, members) == want


def test_induced_edge_count_full_graph_is_m():
    g, _, _ = er_graph(80, 0.06, 3)
    assert induced_edge_count(g, np.arange(g.n)) == g.m


@pytest.mark.parametrize("n,p,seed", [(50, 0.1, 0), (200, 0.02, 1), (10_000, 3e-4, 2)])
def test_transpose_consistency(n, p, seed):
    g, _, _ = er_graph(n, p, seed)
    src, dst = g.edge_arrays()
    assert Graph.from_edges(n, src, dst) == g
    # M = A + A^T: every edge adds 1 at (src, dst) and at (dst, src), so each
    # M slot, in row-major order, holds the pair's count over both directions
    keys, counts = np.unique(np.concatenate((src * n + dst, dst * n + src)),
                             return_counts=True)
    rows = np.repeat(np.arange(n), np.diff(g._und.indptr))
    assert np.array_equal(rows * n + g._und.indices, keys)
    assert np.array_equal(g._und.data, counts)


def test_adjacency_strictly_increasing():
    g, _, _ = er_graph(120, 0.05, 9)
    src, dst = g.edge_arrays()
    assert (np.diff(src * g.n + dst) > 0).all()
    for v in range(g.n):
        assert (np.diff(g.neighbors(v)) > 0).all()


def test_graph_arrays_are_read_only():
    g = tri_graph()
    for view in (g.degrees(), g.neighbors(1)):
        with pytest.raises(ValueError, match="read-only"):
            view[0] += 5
    for arr in (g._adj.indptr, g._adj.indices, g._adj.data,
                g._und.indptr, g._und.indices, g._und.data):
        assert not arr.flags.writeable
    assert psi_all(g, 1).tolist() == [3, 3, 3]


def test_reload_idempotent(tmp_path):
    g, _, _ = er_graph(70, 0.08, 4)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert load_edge_list(path) == g
    # second round trip is identical text
    path2 = tmp_path / "g2.edges"
    write_edge_list(load_edge_list(path), path2)
    assert path.read_text() == path2.read_text()
    # a text stream takes the same lines
    stream = io.StringIO()
    write_edge_list(g, stream)
    assert stream.getvalue() == path.read_text()


def test_binary_roundtrip_and_layout(tmp_path):
    g, _, _ = er_graph(40, 0.1, 5)
    path = tmp_path / "g.bin"
    write_binary(g, path)
    raw = path.read_bytes()
    n = int.from_bytes(raw[:8], "little")
    m = int.from_bytes(raw[8:16], "little")
    assert (n, m) == (g.n, g.m)
    assert len(raw) == 8 * (2 + n + 1 + m)
    assert read_binary(path) == g


# each file's words: n, m, the n + 1 offsets, the m targets
@pytest.mark.parametrize("words,match", [
    ([3, 2, 0, 2, 2, 2, 1, 1], r"row 0 is not strictly increasing"),
    ([3, 2, 0, 2, 1, 2, 1, 2], r"decrease at row 1"),
    ([3, 2, 1, 1, 2, 2, 1, 2], r"out_offsets\[0\] = 1 "),
    ([3, 2, 0, 1, 1, 1, 1, 2], r"out_offsets\[3\] = 1$"),
    ([3, 2, 0, 1, 2, 2, 1, 3], r"out_targets\[1\] = 3"),
    ([3, 2, 0, 1, 2, 2, 1, 1], r"row 1 has a self-loop"),
    ([3], r"^truncated binary graph file$"),
    ([3, 2, 0, 1, 2, 2, 1], r"^binary graph file has inconsistent sizes$"),
], ids=["repeated-target", "non-monotone-offsets", "bad-first-offset",
        "bad-last-offset", "target-out-of-range", "self-loop", "truncated",
        "inconsistent-sizes"])
def test_read_binary_rejects_broken_layout(tmp_path, words, match):
    path = tmp_path / "bad.bin"
    np.array(words, dtype="<u8").tofile(path)
    with pytest.raises(ValueError, match=match):
        read_binary(path)


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [0], [2])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [-1], [0])
    with pytest.raises(ValueError, match="^src and dst must have equal length$"):
        Graph.from_edges(2, [0, 1], [1])


def test_neighborhood_counts_are_int32_while_2n_stays_below_2_31():
    # every count on the neighborhood rows, row sizes and unions included,
    # stays below 2n
    for n, want in [(2**30 - 1, np.int32), (2**30, np.int64), (0, np.int32)]:
        assert count_width(SimpleNamespace(n=n)) is want


@pytest.mark.parametrize("fill", [0.0, 2.0], ids=["dense", "sparse"])
def test_neighborhood_blocks_cover_the_selection_with_its_rows(fill, monkeypatch):
    # every selection on one side, cut into dense blocks of 3 rows or sparse
    # blocks of 5 entries (at least one row each)
    monkeypatch.setattr(graph, "DENSE_MIN_FILL", fill)
    for family in HUB_FAMILIES:
        g = HUB_FAMILIES[family]()[0]
        monkeypatch.setattr(graph, "BLOCK_CELLS", 5 if fill > 1 else 3 * g.n)
        sel = np.arange(g.n - 1, -1, -2)
        for k in (0, 1, 2, 3):
            spans, block = neighborhood_blocks(g, sel, k)
            assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
            assert spans[-1][1] == sel.size and all(lo < hi for lo, hi in spans)
            assert len(spans) > 1
            for lo, hi in spans:
                got = block(lo, hi)
                assert sp.issparse(got) == (fill > 1)
                assert got.dtype == (count_width(g) if fill > 1 else np.float32)
                got = got.toarray() if sp.issparse(got) else got
                want = closed_neighborhood_rows(g, sel[lo:hi], k).toarray()
                assert np.array_equal(got.T, want), (family, k, lo)
    assert neighborhood_blocks(g, [], 2)[0] == []
