"""Directed simple-graph container with sorted CSR adjacency, and its readers
and writers. Vertices are dense ids in [0, n); a graph read from an edge list
also carries the input id of each vertex (Graph.ids)."""

from __future__ import annotations

import io
import logging
import os
import stat
import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

# Binary layout (documented bit-exactly in README.md):
#   u64 n, u64 m, u64 out_offsets[n+1], u64 out_targets[m], all little-endian.
_BIN_DTYPE = np.dtype("<u8")
# Ids are remapped through a bitmap of their range while the largest id is
# below this multiple of the endpoint count (at most 9 bytes per slot, so 36
# per endpoint); sparser ids are sorted instead.
_BITMAP_MAX_RATIO = 4
# The density switch of neighborhood_blocks: rows go dense once their mean
# entries reach this share of n. Measured on ER, ring-lattice and PA graphs
# (n = 1k-4k, k = 2-4), the dense side wins from a fill of about 0.07-0.12.
DENSE_MIN_FILL = 0.1
# Cells of one neighborhood block: a dense row counts n cells (16 MiB of
# float32 per block), a sparse row its entries; longer selections are cut.
BLOCK_CELLS = 1 << 22
# Rows sampled to measure the entries of R_k at k >= 2 (fewer where one
# dense block holds fewer).
FILL_SAMPLE_ROWS = 32
# np.loadtxt opens a file name with these suffixes through a decompressor
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _csr(data, indices, indptr, shape) -> sp.csr_array:
    """A CSR array with int32 index arrays where they fit: scipy's sparse
    arrays, unlike its sparse matrices, keep the index type they are given."""
    idx = np.int32 if max(*shape, len(indices)) < 2**31 else np.int64
    return sp.csr_array((data, np.asarray(indices, dtype=idx),
                         np.asarray(indptr, dtype=idx)), shape=shape)


class Graph:
    """Immutable directed graph without self-loops or duplicate edges.

    Vertices are dense integers in [0, n). The graph is two n x n scipy CSR
    arrays with strictly increasing column indices per row: A, the
    directed 0/1 adjacency (row v holds the out-neighbors of v), and
    M = A + A^T, the undirected view, whose value at (v, z) is the pair's
    directed multiplicity (1, or 2 for a reciprocal pair). Both are built
    in O(n + m) from sorted rows: scipy forms A^T by a counting transpose
    and merges sorted rows into M. In-neighbors, degrees and the unit
    undirected matrix are derived from A and M. Both are sparse arrays, not
    sparse matrices, so * is elementwise on every product built from them,
    as on numpy arrays. ids is the input id of each vertex, ascending, for a
    graph that load_edge_list read, and None for any other; equality ignores
    it. Every array is read-only, so instances are safe to share between any
    number of concurrent readers.
    """

    __slots__ = ("n", "m", "ids", "_adj", "_und", "_deg")

    def __init__(self, n, offsets, targets):
        """Graph on n vertices from CSR rows that are sorted, loop-free and
        free of repeats (what from_edges and read_binary guarantee)."""
        self.n = int(n)
        self.ids = None
        self._adj = _csr(np.ones(len(targets), dtype=np.int8), targets, offsets,
                         (self.n, self.n))
        self._und = self._adj + self._adj.T
        self.m = int(self._adj.nnz)
        self._deg = np.asarray(self._und.sum(axis=1), dtype=np.int64).ravel()
        # the accessors hand out views, so a caller's write must not reach the graph
        for arr in (self._deg, self._adj.indptr, self._adj.indices, self._adj.data,
                    self._und.indptr, self._und.indices, self._und.data):
            arr.flags.writeable = False

    @classmethod
    def from_edges(cls, n: int, src, dst) -> "Graph":
        """Build a graph on n vertices from directed edge arrays.

        Self-loops and duplicate edges are silently dropped; use
        load_edge_list for counted warnings on external input.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have equal length")
        if src.size and (src.min() < 0 or dst.min() < 0
                         or src.max() >= n or dst.max() >= n):
            raise ValueError(f"edge endpoint out of range for n={n}")
        keep = src != dst
        src, dst = src[keep], dst[keep]
        # the conversion sorts each row and merges repeats; the graph never reads
        # the data, and a bool sum cannot wrap to 0 however often a pair repeats
        rows = sp.coo_array((np.ones(src.size, dtype=bool), (src, dst)), shape=(n, n)).tocsr()
        return cls(n, rows.indptr, rows.indices)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def out_neighbors(self, v: int) -> np.ndarray:
        """Sorted out-neighbors of v (read-only view)."""
        return self._adj.indices[self._adj.indptr[v]:self._adj.indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sorted in-neighbors of v, derived from row v of M in O(deg)."""
        lo, hi = self._und.indptr[v], self._und.indptr[v + 1]
        nb = self._und.indices[lo:hi]
        # a neighbor points at v unless it is an out-neighbor of v only
        return nb[(self._und.data[lo:hi] == 2) | ~np.isin(nb, self.out_neighbors(v))]

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted distinct undirected neighbors of v, excluding v (read-only view)."""
        return self._und.indices[self._und.indptr[v]:self._und.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        """Per-vertex in-degree + out-degree, the row sums of M (read-only view)."""
        return self._deg

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All directed edges as (src, dst), sorted by (src, dst)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self._adj.indptr))
        return src, self._adj.indices.astype(np.int64)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.m == other.m
                and np.array_equal(self._adj.indptr, other._adj.indptr)
                and np.array_equal(self._adj.indices, other._adj.indices))

    __hash__ = None

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def degree_stat(g: Graph, v: int) -> int:
    """In-degree plus out-degree of v; a reciprocal pair counts twice."""
    g._check_vertex(v)
    return int(g._deg[v])


def _check_rows(g: Graph, vertices, k: int) -> np.ndarray:
    vertices = np.asarray(vertices, dtype=np.int64)
    if k < 0:
        raise ValueError("k must be non-negative")
    if vertices.size and (vertices.min() < 0 or vertices.max() >= g.n):
        raise ValueError(f"vertex out of range [0, {g.n})")
    return vertices


def count_width(g: Graph) -> type:
    """The integer type that counts on g's neighborhood rows: every value
    of a product of such rows with M, A or each other, and every row size
    or union of two, stays below 2n, so int32 while 2n < 2^31."""
    return np.int32 if 2 * g.n < 2**31 else np.int64


def _expansions(g: Graph, vertices: np.ndarray, k: int):
    """R_0[vertices], R_1[vertices], ..., R_k[vertices] as 0/1 CSR rows,
    counted in count_width(g), column indices unsorted: each grows from the
    one before by the frontier expansion r <- r @ M + r with the values
    clipped back to 1."""
    rows = _csr(np.ones(vertices.size, dtype=count_width(g)), vertices,
                np.arange(vertices.size + 1), (vertices.size, g.n))
    yield rows
    for _ in range(k):
        rows = rows @ g._und + rows
        rows.data.fill(1)
        yield rows


def closed_neighborhood_rows(g: Graph, vertices, k: int) -> sp.csr_array:
    """Rows of the closed k-th order neighborhood incidence matrix R_k.

    Row i of the returned len(vertices) x n 0/1 CSR array marks
    N_k[vertices[i]] on the undirected view, centre included, with sorted
    column indices. The rows grow from the identity rows by k frontier
    expansions r <- r @ M + r, with the values clipped back to 1 after
    each, so only the requested rows are ever materialised. They are the
    sparse side of neighborhood_blocks; neighborhood() always takes them.
    """
    for rows in _expansions(g, _check_rows(g, vertices, k), k):
        pass
    rows.sort_indices()
    return rows


def closed_neighborhood_slab(g: Graph, vertices, k: int) -> np.ndarray:
    """R_k[vertices] transposed, as a dense n x len(vertices) 0/1 array.

    Column i marks N_k[vertices[i]], like row i of closed_neighborhood_rows.
    The slab starts from the sparse rows of R_1 and grows by k - 1
    expansions C <- min(C + M @ C, 1): M is symmetric, so M @ C is the
    transpose of R @ M, a sparse @ dense product.

    The slab is float32, which holds every integer up to 2^24: an
    expansion's values stay below 2n (M's entries are 1 or 2) and a
    product of the slab with A or another slab at most n, so every value is
    exact while 2n <= 2^24. neighborhood_blocks, the only caller, builds
    slabs only while n <= BLOCK_CELLS = 2^22. Sums down a column of such a
    product can pass 2^24 and are taken in a wider type.
    """
    first = closed_neighborhood_rows(g, vertices, min(k, 1))
    size = first.shape[0]
    slab = np.zeros((g.n, size), dtype=np.float32)
    slab[first.indices, np.repeat(np.arange(size), np.diff(first.indptr))] = 1
    for _ in range(k - 1):
        grown = g._und @ slab
        grown += slab
        np.minimum(grown, 1, out=grown)
        slab = grown
    return slab


def _entries_per_row(g: Graph, vertices: np.ndarray, k: int) -> float:
    """Mean entries per row of R_k[vertices], the number the switch reads.

    Exact at orders 0 and 1, from the row lengths of M in O(rows). Higher
    orders are measured on the sparse rows of at most FILL_SAMPLE_ROWS
    evenly spaced vertices of the selection, and of no more than one dense
    block holds, grown one expansion at a time. The growth stops early
    once the sample reaches DENSE_MIN_FILL of n where the dense side is
    open: N_j[v] only grows with j, so the rows go dense either way.
    """
    if k <= 1:
        entries = vertices.size
        if k:
            ind = g._und.indptr
            entries += int((ind[vertices + 1] - ind[vertices]).sum())
        return entries / vertices.size
    sample_rows = max(1, min(FILL_SAMPLE_ROWS, BLOCK_CELLS // g.n))
    sample = vertices[::-(-vertices.size // sample_rows)]
    for rows in _expansions(g, sample, k):
        if g.n <= BLOCK_CELLS and rows.nnz >= DENSE_MIN_FILL * sample.size * g.n:
            break
    return rows.nnz / sample.size


def neighborhood_blocks(g: Graph, vertices, k: int):
    """R_k[vertices] in row blocks, built on demand: (spans, block).

    spans are the (lo, hi) row ranges that cover the selection in order,
    without overlap; block(lo, hi) builds R_k[vertices[lo:hi]] transposed,
    n x (hi - lo), column i marking N_k[vertices[lo + i]]. The full sweep
    and the Jaccard stage read R_k only through this function.

    It holds the density switch. Sparse rows cost one hashed entry per
    product term, so once R_k is mostly ones a sparse product does dense
    work at sparse cost; the rows then go dense (the frontier-density
    switch of direction-optimizing BFS, Beamer, Asanovic & Patterson,
    SC 2012). One measured number, the mean entries per row
    (_entries_per_row), picks both the side and the cut:

    - the rows go dense when it reaches DENSE_MIN_FILL of n and one row of
      n cells fits BLOCK_CELLS. A dense block is closed_neighborhood_slab,
      in float32; a sparse block is the CSC transpose of
      closed_neighborhood_rows, in count_width(g);
    - a block holds at most BLOCK_CELLS cells, a dense row counting n
      cells and a sparse row its mean entries.

    Both kinds of block are arrays (numpy or scipy sparse), on which @ and
    * mean the same, and give the same integers in every product.
    """
    vertices = _check_rows(g, vertices, k)
    if not vertices.size:
        return [], None
    per_row = _entries_per_row(g, vertices, k)
    dense = g.n <= BLOCK_CELLS and per_row >= DENSE_MIN_FILL * g.n
    step = max(1, int(BLOCK_CELLS // (g.n if dense else per_row)))
    spans = [(lo, min(lo + step, vertices.size))
             for lo in range(0, vertices.size, step)]
    if dense:
        return spans, lambda lo, hi: closed_neighborhood_slab(g, vertices[lo:hi], k)
    return spans, lambda lo, hi: closed_neighborhood_rows(g, vertices[lo:hi], k).T


def neighborhood(g: Graph, v: int, k: int) -> np.ndarray:
    """Closed k-th order neighborhood of v on the undirected view.

    Distances ignore edge orientation; always contains v. Returned sorted.
    """
    g._check_vertex(v)
    return closed_neighborhood_rows(g, [v], k).indices.astype(np.int64)


def induced_edge_count(g: Graph, s) -> int:
    """Number of directed edges with both endpoints in s.

    Gathers the out-lists of the members (the CSR rows of A) and counts
    the targets that are members; each inside edge has exactly one source,
    so it is counted once.
    """
    s = _check_rows(g, list(s) if not isinstance(s, np.ndarray) else s, 0)
    s = np.unique(s)  # set semantics even if the caller passed repeats
    mask = np.zeros(g.n, dtype=bool)
    mask[s] = True
    return int(mask[g._adj[s].indices].sum())


def _split_lines(data: bytes) -> list:
    """The lines of a file's bytes split at '\n' only, for the line loop.

    Bytes that are not valid UTF-8 stay bytes, so the line loop reports the
    first undecodable line by its number.
    """
    try:
        return data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return data.split(b"\n")


def _head_length(lines) -> int:
    """How many leading lines the line loop skips: blank, or '#' once stripped."""
    count = 0
    for raw in lines:
        try:
            line = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip()
        except UnicodeDecodeError:
            break  # the loop raises it at its line
        if line and not line.startswith("#"):
            break
        count += 1
    return count


def _fast_pairs(source, skip: int) -> np.ndarray | None:
    """All pairs by one C-level parse of a file name or a list of lines, or
    None where the line loop must decide.

    The parse skips the first skip lines, the header that _head_length
    counts on the same lines. Accepts only what the loop accepts with the
    same values: it reads optionally signed decimal integers split by
    whitespace, and any other token (comment marks after the header,
    floats, hex, digit separators), a column count other than 2, a negative
    id or an empty input sends the lines back to the loop, which reports
    the located error or skips comments.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty input warns; the loop rejects it
            pairs = np.loadtxt(source, dtype=np.int64, comments=None, ndmin=2,
                               skiprows=skip, encoding="utf-8")
    except (ValueError, TypeError):  # UnicodeDecodeError is a ValueError
        return None
    if pairs.size == 0 or pairs.shape[1] != 2 or pairs.min() < 0:
        return None
    return pairs


def _loop_pairs(lines: list) -> np.ndarray:
    srcs: list[int] = []
    dsts: list[int] = []
    for line_no, raw in enumerate(lines, 1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise EdgeListParseError(f"invalid UTF-8 in {raw!r}", line_no) from None
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected 'src dst', got {line!r}", line_no)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer token in {line!r}", line_no) from None
        if a < 0 or b < 0:
            raise EdgeListParseError(f"negative vertex id in {line!r}", line_no)
        if max(a, b) >= 1 << 63:  # past int64
            raise EdgeListParseError(f"vertex id above 2^63 - 1 in {line!r}", line_no)
        srcs.append(a)
        dsts.append(b)
    if not srcs:
        raise ValueError("empty edge list")
    return np.column_stack([np.array(srcs, dtype=np.int64),
                            np.array(dsts, dtype=np.int64)])


def _parse_pairs(source) -> np.ndarray:
    """All pairs of an edge-list path or iterable of lines; lines end at '\n' only.

    A path is opened once and its bytes read; every later step works on
    those bytes. np.loadtxt reads a file given by name in C-level chunks,
    but opens it through numpy's data sources with universal newlines. A
    path goes there only when that reads the lines the loop reads: a
    regular file whose name picks no decompressor (_COMPRESSED_SUFFIXES)
    and is no URL, and whose bytes hold no bare '\r' ('\r\n' becomes '\n',
    and the loop strips the '\r'). If that parse declines, the loop runs on
    the bytes already read. Any other path (a pipe, a device, an odd name,
    a bare '\r') has both parses run on its lines in memory.
    """
    if isinstance(source, (str, Path)):
        name = os.fspath(source)
        with open(name, "rb") as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            data = fh.read()
        if (regular and not name.endswith(_COMPRESSED_SUFFIXES) and "://" not in name
                and not (b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))):
            pairs = _fast_pairs(name, _head_length(io.BytesIO(data)))
            return pairs if pairs is not None else _loop_pairs(_split_lines(data))
        lines = _split_lines(data)
    else:
        lines = list(source)
    pairs = _fast_pairs(lines, _head_length(lines))
    return pairs if pairs is not None else _loop_pairs(lines)


def _dense_ids(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(raw, return_inverse=True) of non-negative ids, dtypes included.

    While the largest id is below _BITMAP_MAX_RATIO times the number of ids,
    a bitmap of the id range and its running count replace the sort.
    """
    top = int(raw.max())
    if top >= _BITMAP_MAX_RATIO * raw.size:
        return np.unique(raw, return_inverse=True)
    seen = np.zeros(top + 1, dtype=bool)
    seen[raw] = True
    rank = np.cumsum(seen, dtype=np.intp)
    rank -= 1
    return np.flatnonzero(seen).astype(raw.dtype, copy=False), rank[raw]


def load_edge_list(source) -> Graph:
    """Parse a plain-text edge list into a Graph.

    Each non-comment line is "src dst" with arbitrary whitespace; lines
    starting with '#' and blank lines are skipped. Vertex ids may be any
    integers in [0, 2^63) and are remapped to dense [0, n) in id order;
    the graph's ids holds the input id of each dense vertex.
    Self-loops and duplicate edges are dropped with a counted warning.
    Malformed input raises EdgeListParseError with its line number.
    """
    pairs = _parse_pairs(source)
    ids, inverse = _dense_ids(pairs.T.ravel())
    src = inverse[:len(pairs)]
    dst = inverse[len(pairs):]
    g = Graph.from_edges(ids.size, src, dst)
    ids.flags.writeable = False
    g.ids = ids
    n_loops = int((src == dst).sum())
    n_dups = src.size - n_loops - g.m
    if n_loops:
        log.warning("dropped %d self-loop(s)", n_loops)
    if n_dups:
        log.warning("dropped %d duplicate edge(s)", n_dups)
    return g


def write_edge_list(g: Graph, sink) -> None:
    """Write the canonical edge list (dense ids, not g.ids, sorted by (src, dst))."""
    src, dst = g.edge_arrays()
    lines = "".join(f"{a} {b}\n" for a, b in zip(src.tolist(), dst.tolist()))
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(lines)
    else:
        sink.write(lines)


def write_binary(g: Graph, path) -> None:
    """Write the binary graph format (see module header for the layout)."""
    with open(path, "wb") as fh:
        np.array([g.n, g.m], dtype=_BIN_DTYPE).tofile(fh)
        g._adj.indptr.astype(_BIN_DTYPE).tofile(fh)
        g._adj.indices.astype(_BIN_DTYPE).tofile(fh)


def read_binary(path) -> Graph:
    """Read a graph written by write_binary.

    Rejects, with the offending row or index, any file that breaks what
    the format promises: offsets from 0 to m without decreasing, targets
    in [0, n) and strictly increasing within each row, no self-loops.
    """
    buf = np.fromfile(path, dtype=_BIN_DTYPE)
    if buf.size < 2:
        raise ValueError("truncated binary graph file")
    n, m = int(buf[0]), int(buf[1])
    if buf.size != 2 + (n + 1) + m:
        raise ValueError("binary graph file has inconsistent sizes")
    offsets = buf[2:2 + n + 1].astype(np.int64)
    targets = buf[2 + n + 1:].astype(np.int64)
    if offsets[0] != 0 or offsets[n] != m:
        raise ValueError(f"out_offsets must run from 0 to m={m}, got out_offsets[0] = "
                         f"{offsets[0]} and out_offsets[{n}] = {offsets[n]}")
    bad = np.flatnonzero(np.diff(offsets) < 0)
    if bad.size:
        raise ValueError(f"out_offsets decrease at row {bad[0]}")
    bad = np.flatnonzero((targets < 0) | (targets >= n))
    if bad.size:
        raise ValueError(f"out_targets[{bad[0]}] = {targets[bad[0]]} "
                         f"is out of range [0, {n})")
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    bad = np.flatnonzero((src[1:] == src[:-1]) & (targets[1:] <= targets[:-1]))
    if bad.size:
        raise ValueError(f"row {src[bad[0]]} is not strictly increasing "
                         f"at out_targets[{bad[0] + 1}]")
    bad = np.flatnonzero(src == targets)
    if bad.size:
        raise ValueError(f"row {src[bad[0]]} has a self-loop at out_targets[{bad[0]}]")
    return Graph(n, offsets, targets)
