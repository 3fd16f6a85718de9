"""Directed weighted graphs as sorted edge rows.

A graph is immutable once built. Its forward (out-neighbor) adjacency is one
canonical edge multiset: parallel edges merged, edges sorted by source, then
destination, weights finite positive doubles.
Self-loops are legal. Because the form is canonical, graph equality is plain
array equality, which the determinism suite relies on.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "NeighborUnion",
    "Strengths",
    "aggregate",
    "canonicalize_labels",
    "compose_labels",
    "dump_edge_list",
    "load_edge_list",
    "read_partition",
    "strengths",
    "write_partition",
]


class GraphFormatError(ValueError):
    """Malformed edge-list or partition input."""


@dataclass(frozen=True)
class Strengths:
    """Out/in strength per node and the total edge weight m_w."""

    s_out: np.ndarray
    s_in: np.ndarray
    m_w: float


@dataclass(frozen=True)
class NeighborUnion:
    """Per-node union of out- and in-neighbors, self-loops excluded.

    For row i, entry e covers neighbor j = nbr[e] with w[e] = W(i, j) +
    W(j, i), 0 for a direction that has no edge; entry (j, i) holds the same
    sum, so the union is symmetric.  Rows are sorted by neighbor id. This is
    the access pattern of every gain kernel, so it is built once per graph
    and cached.
    """

    ptr: np.ndarray
    nbr: np.ndarray
    w: np.ndarray

    def gather(self, rows):
        """The entries of ``rows``, row after row in the order given and
        each row's entries in order: per entry the position of its row in
        ``rows``, the neighbor, and w."""
        start = self.ptr[rows]
        size = self.ptr[rows + 1] - start
        pos = np.repeat(np.arange(rows.size), size)
        ent = (start - (np.cumsum(size) - size))[pos]
        ent += np.arange(pos.size)
        return pos, self.nbr[ent], self.w[ent]


class Graph:
    """Immutable directed weighted graph; dense 0-based node ids.

    Edge e runs from ``out_src[e]`` to ``out_dst[e]`` with weight
    ``out_w[e]``; the rows are read-only and sorted by (source,
    destination), each pair once.  Every kernel reads the edges in this
    form; the per-node view is the cached ``neighbor_union``."""

    def __init__(self, n, out_src, out_dst, out_w):
        self.n = int(n)
        self.out_src = out_src
        self.out_dst = out_dst
        self.out_w = out_w
        for arr in (out_src, out_dst, out_w):
            arr.setflags(write=False)
        self._union: NeighborUnion | None = None

    @property
    def edge_count(self) -> int:
        return int(self.out_dst.shape[0])

    @classmethod
    def from_edges(cls, n, src, dst, w) -> "Graph":
        """Build the canonical form from parallel arrays of directed edges.

        The merged weights must have a finite total, summed as
        ``strengths`` sums m_w.  Every merged weight and every union entry
        W(i, j) + W(j, i) is then finite too: rounding is monotone, so a
        float sum of positive terms is at least the rounded sum of any two
        of them."""
        n = int(n)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if not (src.shape == dst.shape == w.shape):
            raise ValueError("src, dst, w must have equal length")
        if src.size:
            if src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n:
                raise ValueError("edge endpoint out of range")
            if not np.isfinite(w).all() or (w <= 0).any():
                raise ValueError("edge weights must be finite and positive")
        with np.errstate(over="ignore"):  # an inf total is rejected below
            _, src, dst, w = _merge_pairs(n, n, src, dst, w)
            total = w.sum()
        if not np.isfinite(total):
            raise ValueError("edge weights must sum to a finite total")
        return cls(n, src, dst, w)

    def neighbor_union(self) -> NeighborUnion:
        if self._union is None:
            self._union = _build_union(self)
        return self._union

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("out_src", "out_dst", "out_w"))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _merge_pairs(n, ncols, row, nbr, w):
    """(ptr, row, nbr, w) of the (row, nbr, w) triples, 0 <= row < n and
    0 <= nbr < ncols, merged: one triple per distinct (row, nbr) pair,
    sorted by row, then neighbor, with the weights of equal pairs summed,
    and ``ptr`` the CSR pointer of the merged rows (row i's triples are
    ``ptr[i]:ptr[i + 1]``).  This is the one sort-and-merge kernel: the
    graph, its union and the plan's per-row community sums are all built
    here.

    Pairs are grouped by a stable sort of the key row * ncols + nbr, which
    orders them as (row, nbr) does and keeps input order inside each group.
    ``np.add.reduceat`` sums a group pairwise beyond 8 terms, as
    ``ndarray.sum`` does, not one term at a time, so its bits can differ
    from a sequential ``np.bincount``; but a group's sum depends only on
    its own terms in that fixed order, so every merged sum is
    deterministic.  The largest key, n * ncols - 1, must fit in int64, so
    n * ncols > 2**63 raises ValueError before anything of size n is
    allocated."""
    if n * ncols > 2**63:
        raise ValueError(f"{n} rows x {ncols} columns overflow the int64 "
                         "pair key")
    key = row * np.int64(ncols) + nbr
    order = np.argsort(key, kind="stable")
    key = key[order]
    # a group starts where the sorted key changes, and at the first pair
    starts = np.empty(key.size, dtype=bool)
    starts[:1] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    w = np.add.reduceat(w[order], starts)
    order = order[starts]
    row = row[order]
    ptr = np.r_[0, np.cumsum(np.bincount(row, minlength=n))]
    return ptr, row, nbr[order], w


def _build_union(g: Graph) -> NeighborUnion:
    # edge i -> j enters as (i, j) and as (j, i); as the edges are merged, a
    # (row, nbr) group holds at most one of each, and sums W(i, j) + W(j, i)
    keep = g.out_dst != g.out_src
    src, dst, w = g.out_src[keep], g.out_dst[keep], g.out_w[keep]
    ptr, _, nbr, wsum = _merge_pairs(g.n, g.n, np.concatenate([src, dst]),
                                     np.concatenate([dst, src]),
                                     np.concatenate([w, w]))
    for arr in (ptr, nbr, wsum):
        arr.setflags(write=False)
    return NeighborUnion(ptr, nbr, wsum)


def _unit_scaled(g: Graph) -> Graph:
    """``g`` with every weight multiplied by 2**-e, where e is the binary
    exponent of the total weight m_w, so that the copy's m_w lies in
    [0.5, 1); an edgeless graph keeps its weights.  Modularity and every
    gain are ratios of weights to m_w and do not change.  Multiplying by a
    power of two is exact while the product stays normal, so inputs that
    differ only by such a factor give the same copy, bit for bit.  The copy
    shares ``out_src``, ``out_dst`` and the union's ``ptr`` and ``nbr``; the
    union is built on ``g``, where it stays cached."""
    # ldexp, because the factor 2**-e alone overflows when m_w is subnormal
    shift = -math.frexp(float(g.out_w.sum()))[1]
    u = g.neighbor_union()
    out = Graph(g.n, g.out_src, g.out_dst, np.ldexp(g.out_w, shift))
    w = np.ldexp(u.w, shift)
    w.setflags(write=False)
    out._union = NeighborUnion(u.ptr, u.nbr, w)
    return out


def load_edge_list(path: str) -> Graph:
    """Parse `src dst [weight]` lines; weight defaults to 1.0.

    `#` starts a comment; the special comment `# nodes N`, N >= 0, declares
    trailing isolated nodes. Bad ids, bad headers and non-positive or
    non-finite weights are rejected with the offending line number.

    The common shape (comment lines, then rows of 2 or 3 numbers) is parsed
    in bulk; anything else, and every rejection, goes through the line
    parser, which gives the same graph or raises the error.
    """
    raw = Path(path).read_bytes()
    edges = _bulk_edges(raw)
    if edges is None:
        edges = _parse_edge_lines(_text_lines(raw))
    del raw  # the sort in from_edges needs the parsed edges only
    return Graph.from_edges(*edges)


_INT64_MAX = 2**63 - 1
# the characters the bulk path accepts outside comment lines; anything else
# (the letters of nan or inf, `_`, non-ASCII digits or whitespace) sends
# the file to the line parser
_ROW_CHARS = b"0123456789+-.eE \t\n"
_EDGE_ROWS = (np.dtype([("src", np.int64), ("dst", np.int64),
                        ("w", np.float64)]),
              np.dtype([("src", np.int64), ("dst", np.int64)]))
_WRITE_BLOCK = 2**14  # rows per write of dump_edge_list


def _text_lines(raw):
    """The lines of the file contents ``raw`` as iterating the file in text
    mode gives them: UTF-8, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")


def _bulk_rows(raw):
    """The rows of the edge-list contents ``raw`` as one structured array
    of an ``_EDGE_ROWS`` dtype, parsed by one ``np.loadtxt`` call, and its
    comment lines, decoded and stripped.

    This is the one place that decides whether a file's format lets it skip
    the line parser.  It returns None, and the caller re-parses ``raw`` line
    by line, unless the line parser would read the same rows with the same
    values:

    - every `#` is preceded on its line by spaces or tabs only, so the line
      is a comment to both parsers (loadtxt cuts a line at any `#`; the
      line parser rejects `0 1 1.0 # note`), and every comment line is
      UTF-8;
    - the other lines hold only ASCII digits, `+`, `-`, `.`, `e`, `E`,
      spaces and tabs, so both split them into the same tokens, an int64
      field takes what ``int`` takes or fails, and a float64 field converts
      as ``float`` does (loadtxt calls the same ``PyOS_string_to_double``);
    - every row has as many tokens as the fields of one dtype of
      ``_EDGE_ROWS``, tried in order; loadtxt raises on a row that does
      not;
    - loadtxt warns about nothing: numpy before 2.0 parses `1.0` into an
      int64 field with a DeprecationWarning, where ``int`` fails.

    Values the line parser rejects after conversion (negative ids,
    non-positive or non-finite weights) are the caller's to check; the
    caller falls back to its line parser on them too."""
    if b"\r" in raw:  # universal newlines, as the line parser reads
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    lines = []  # the comment lines
    pos = raw.find(b"#")
    while pos >= 0:
        bol = raw.rfind(b"\n", 0, pos) + 1
        if raw[bol:pos].strip(b" \t"):
            return None
        eol = raw.find(b"\n", pos)
        if eol < 0:
            eol = len(raw)
        lines.append(raw[bol:eol])
        pos = raw.find(b"#", eol)
    try:
        comments = [line.decode("utf-8").strip() for line in lines]
    except UnicodeDecodeError:
        return None
    # the other lines hold row characters only iff deleting those from the
    # whole file leaves what it leaves of the comment lines; a check on the
    # file in place, as a copy without the comments would double the bytes
    # alive while loadtxt parses
    lines = b"".join(lines)
    if raw.translate(None, _ROW_CHARS) != lines.translate(None, _ROW_CHARS):
        return None
    for dtype in _EDGE_ROWS:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(io.BytesIO(raw), dtype=dtype, comments="#",
                                  ndmin=1, encoding="utf-8")
        except (ValueError, Warning):
            continue
        return rows, comments
    # loadtxt warns on a file without rows: only spaces, tabs and newlines
    # outside the comment lines
    if (len(raw.translate(None, b" \t\n"))
            == len(lines.translate(None, b" \t\n"))):
        return np.empty(0, _EDGE_ROWS[0]), comments
    return None


def _node_count(comment):
    """N of the comment line ``comment`` (stripped, starting with `#`) if it
    is a `# nodes N` header, else None; a header is malformed where N < 0,
    and N is -1 where it is not an integer."""
    parts = comment[1:].split()
    if len(parts) != 2 or parts[0] != "nodes":
        return None
    try:
        return int(parts[1])
    except ValueError:
        return -1


def _bulk_edges(raw):
    """(n, src, dst, w) of an edge list by the bulk path, or None where
    the line parser must read it."""
    parsed = _bulk_rows(raw)
    if parsed is None:
        return None
    rows, comments = parsed
    counts = [c for c in map(_node_count, comments) if c is not None]
    src, dst = rows["src"], rows["dst"]
    w = rows["w"] if "w" in rows.dtype.names else np.ones(rows.size)
    max_id = -1
    if rows.size:
        if min(src.min(), dst.min()) < 0 or not ((w > 0) & (w < np.inf)).all():
            return None
        max_id = int(max(src.max(), dst.max()))
    declared = max(counts, default=-1)
    if min(counts, default=0) < 0 or 0 <= declared <= max_id:
        return None
    return max(declared, max_id + 1), src, dst, w


def _parse_edge_lines(lines):
    """(n, src, dst, w) of an edge list, read line by line."""
    srcs: list[int] = []
    dsts: list[int] = []
    ws: list[float] = []
    declared = -1
    max_id = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            count = _node_count(line)
            if count is not None:
                if count < 0:
                    raise GraphFormatError(
                        f"line {lineno}: bad node-count header: {line!r}")
                declared = max(declared, count)
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphFormatError(
                f"line {lineno}: expected 'src dst [weight]', got {line!r}")
        try:
            s = int(parts[0])
            d = int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: node ids must be integers: {line!r}")
        if s < 0 or d < 0:
            raise GraphFormatError(
                f"line {lineno}: node ids must be non-negative: {line!r}")
        if s > _INT64_MAX or d > _INT64_MAX:
            raise GraphFormatError(
                f"line {lineno}: node ids must fit in int64: {line!r}")
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: bad weight: {line!r}")
        else:
            weight = 1.0
        if not math.isfinite(weight) or weight <= 0.0:
            raise GraphFormatError(
                f"line {lineno}: weight must be finite and > 0: {line!r}")
        srcs.append(s)
        dsts.append(d)
        ws.append(weight)
        if s > max_id:
            max_id = s
        if d > max_id:
            max_id = d
    if declared >= 0 and declared < max_id + 1:
        raise GraphFormatError(
            f"node-count header declares {declared} nodes but ids reach {max_id}")
    n = max(declared, max_id + 1, 0)
    return (n, np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64),
            np.array(ws, dtype=np.float64))


def dump_edge_list(graph: Graph, path: str, header_lines=()) -> None:
    """Write the canonical edge list: `# nodes N`, then `src dst %.17g` rows."""
    src, dst, w = graph.out_src, graph.out_dst, graph.out_w
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"# {h}\n" for h in header_lines)
        handle.write(f"# nodes {graph.n}\n")
        # formats plain values, a block at a time to bound the text held
        for lo in range(0, src.size, _WRITE_BLOCK):
            part = slice(lo, lo + _WRITE_BLOCK)
            handle.write("".join(map("%d %d %.17g\n".__mod__, zip(
                src[part].tolist(), dst[part].tolist(), w[part].tolist()))))


def strengths(graph: Graph) -> Strengths:
    s_out = np.bincount(graph.out_src, weights=graph.out_w, minlength=graph.n)
    s_in = np.bincount(graph.out_dst, weights=graph.out_w, minlength=graph.n)
    m_w = float(graph.out_w.sum())
    s_out.setflags(write=False)
    s_in.setflags(write=False)
    return Strengths(s_out, s_in, m_w)


def aggregate(graph: Graph, labels) -> Graph:
    """Collapse communities into super-nodes; intra weight becomes self-loops.

    Labels must be a dense relabeling 0..c-1 (use canonicalize_labels first).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (graph.n,):
        raise ValueError("labels must cover every node exactly once")
    if graph.n == 0:
        return Graph.from_edges(0, labels, labels, np.empty(0))
    c = int(labels.max()) + 1
    if labels.min() < 0 or np.bincount(labels, minlength=c).min() == 0:
        raise ValueError("labels must be a dense relabeling 0..c-1")
    return Graph.from_edges(c, labels[graph.out_src], labels[graph.out_dst],
                            graph.out_w)


def canonicalize_labels(labels) -> np.ndarray:
    """Dense labels 0..c-1 ordered by each community's smallest member."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        return labels.copy()
    uniq, first = np.unique(labels, return_index=True)
    remap = np.empty(uniq.size, dtype=np.int64)
    remap[np.argsort(first, kind="stable")] = np.arange(uniq.size)
    return remap[np.searchsorted(uniq, labels)]


def compose_labels(inner, outer) -> np.ndarray:
    """Flatten two stacked partitions: node -> inner community -> outer."""
    inner = np.asarray(inner, dtype=np.int64)
    outer = np.asarray(outer, dtype=np.int64)
    return outer[inner]


def write_partition(labels, path: str) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(map("%d %d".__mod__,
                                   enumerate(labels.tolist()))))
        handle.write("\n")


def read_partition(path: str) -> np.ndarray:
    """Labels from `node community` lines, each node 0..n-1 exactly once,
    read line by line: no benchmark workload times this read, so it has no
    bulk path beside the parser that reports the errors."""
    with open(path, encoding="utf-8") as handle:
        return _parse_partition_lines(handle)


def _parse_partition_lines(lines):
    nodes: list[int] = []
    comms: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"line {lineno}: expected 'node community', got {line!r}")
        try:
            node, comm = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: bad integer: {line!r}")
        if comm < 0:
            raise GraphFormatError(
                f"line {lineno}: community labels must be non-negative: "
                f"{line!r}")
        if comm > _INT64_MAX:
            raise GraphFormatError(
                f"line {lineno}: community labels must fit in int64: "
                f"{line!r}")
        nodes.append(node)
        comms.append(comm)
    labels = np.zeros(len(nodes), dtype=np.int64)
    seen = np.zeros(len(nodes), dtype=bool)
    for node, comm in zip(nodes, comms):
        if node < 0 or node >= len(nodes) or seen[node]:
            raise GraphFormatError(
                f"partition file must list each node 0..n-1 exactly once "
                f"(offending node {node})")
        seen[node] = True
        labels[node] = comm
    return labels
