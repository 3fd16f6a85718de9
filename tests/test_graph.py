import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synclouvain.graph import (
    Graph,
    GraphFormatError,
    _bulk_edges,
    _merge_pairs,
    _parse_edge_lines,
    _stable_order,
    _unit_scaled,
    aggregate,
    canonicalize_labels,
    compose_labels,
    dump_edge_list,
    load_edge_list,
    read_partition,
    strengths,
    write_partition,
)

from conftest import build_graph, two_triangles
from oracles import dense_weights, random_edges


def test_load_basic(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n0 1 2.5\n1 0\n\n2 2 0.5\n")
    g = load_edge_list(str(path))
    assert g.n == 3
    assert g.edge_count == 3
    st_ = strengths(g)
    assert st_.m_w == pytest.approx(4.0)
    assert st_.s_out[0] == 2.5
    assert st_.s_in[2] == 0.5  # self-loop kept


def test_load_default_weight_is_one(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n")
    g = load_edge_list(str(path))
    assert strengths(g).m_w == 1.0


def test_load_nodes_header_allows_isolated(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# nodes 5\n0 1 1.0\n")
    g = load_edge_list(str(path))
    assert g.n == 5


def test_load_nodes_header_too_small_rejected(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# nodes 2\n0 3 1.0\n")
    with pytest.raises(GraphFormatError):
        load_edge_list(str(path))


@pytest.mark.parametrize(
    "line",
    ["0 1 0.0", "0 1 -2", "0 1 nan", "0 1 inf", "0 x 1.0", "0 1.5 1.0", "-1 2 1.0", "0 1 2 3",
     "# nodes -5", "99999999999999999999 1 1.0"],
)
def test_load_rejects_bad_lines_with_line_number(tmp_path, line):
    path = tmp_path / "g.txt"
    path.write_text("0 1 1.0\n%s\n" % line)
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(str(path))
    assert "line 2" in str(err.value)


def _outcome(parse, path):
    """What ``parse(path)`` gives: the result, or the error's type and text."""
    try:
        return parse(path)
    except ValueError as exc:  # GraphFormatError and the finite-total check
        return type(exc), str(exc)


def _line_parsed_graph(path):
    with open(path, encoding="utf-8") as handle:
        return Graph.from_edges(*_parse_edge_lines(handle))


def _assert_paths_agree(tmp_path, text, bulk=None):
    """``load_edge_list`` (bulk where it may) and the line parser alone give
    equal graphs, or the same error; ``bulk`` pins whether the bulk path
    read the file."""
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    got, want = _outcome(load_edge_list, path), _outcome(_line_parsed_graph, path)
    if isinstance(want, Graph):
        assert isinstance(got, Graph) and got == want
    else:
        assert got == want
    if bulk is not None:
        assert (_bulk_edges(path.read_bytes()) is not None) == bulk


_WEIGHT_FORMS = [lambda w: "%.17g" % w, repr, lambda w: "%.25e" % w,
                 lambda w: "%.3g" % w, lambda w: "%.0f" % w if w < 1e6 else repr(w)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bulk_path_matches_line_parser(tmp_path_factory, data):
    # rows of 2, 3 or mixed token counts; weights in several text forms from
    # subnormal to near the largest double; blank and whitespace-only lines,
    # comments and `# nodes` headers between rows, `\r\n` and tabs
    draw = data.draw
    shape = draw(st.sampled_from(["2", "3", "mixed"]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines, max_id, counts, headers, weights = [], -1, set(), [], []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "comment", "nodes"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t", " \t "])))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["", " ", "\t"]))
                         + "#" + draw(st.sampled_from(["", " note", "#x", " 0 1 2"])))
        elif kind == "nodes":
            headers.append(draw(st.integers(0, 60)))
            lines.append("# nodes %d" % headers[-1])
        else:
            s, d = draw(st.integers(0, 50)), draw(st.integers(0, 50))
            max_id = max(max_id, s, d)
            sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
            row = [str(s), str(d)]
            if shape == "3" or shape == "mixed" and draw(st.booleans()):
                w = draw(st.floats(min_value=0.0, exclude_min=True,
                                   allow_infinity=False))
                row.append(draw(st.sampled_from(_WEIGHT_FORMS))(w))
                weights.append(float(row[-1]))
            counts.add(len(row))
            lines.append(draw(st.sampled_from(["", " "])) + sep.join(row))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    # the line parser rejects a short header and a weight that rounds to 0
    # or to inf
    bulk = (len(counts) <= 1 and max(headers, default=max_id + 1) > max_id
            and all(0 < w < np.inf for w in weights))
    _assert_paths_agree(tmp_path_factory.mktemp("g"), text, bulk)


@pytest.mark.parametrize("text", [
    "# benchmark N=3\n# nodes 3\n0 1 0.90000000000000002\n2 0 1e-300\n",
    "0 1\n1 2\n\n2 0\n",
    "\t# indented comment\n  0\t1\t2.5  \n\n   \n1 0 +1.5e-3\n",
    "# nodes 9\r\n0 1 1\r\n1 0 5e-324\r\n",
    "# nodes 3\r0 1 1.0\r\r\n1 2 2.0\r",
    "0 1 1.7976931348623157e308\n",
    "",
    "# only a comment\n# nodes 4\n",
    "# caf\u00e9, non-ASCII in a comment\n0 1 2.5\n",
])
def test_bulk_path_reads_the_common_shapes(tmp_path, text):
    _assert_paths_agree(tmp_path, text, bulk=True)


# each case with whether the bulk path reads it; it declines every file the
# line parser rejects and every row with a character outside its alphabet
@pytest.mark.parametrize("text, bulk", [
    ("0 1 1.0 # note\n", False),
    ("0 1 1.0 #\n", False),
    ("\x0b# a comment after a vertical tab\n0 1\n", False),
    ("1_0 1 1.0\n", False),
    ("0 1 1_0.5\n", False),
    ("+1 2 1.0\n", True),
    ("-0 1 1\n", True),
    ("0x1 2 1.0\n", False),
    ("0 1 0x1\n", False),
    ("1.0 2 1.0\n", False),
    ("0 1 nan\n", False),
    ("0 1 inf\n", False),
    ("0 1 -3\n", False),
    ("0 1 1e-400\n", False),
    ("0 1 1e400\n", False),
    ("99999999999999999999 1 1.0\n", False),
    ("0 9223372036854775808\n", False),
    ("0 1 1.0\n0 1\n1 0 2\n", False),
    ("0 1 1.0\n2 3 4 5\n", False),
    ("0\n", False),
    ("0\r1 2\n", False),
    ("0 1 1e308\n1 0 1e308\n", True),  # the total overflows in from_edges
    ("# nodes 2\n0 2 1.0\n", False),
    ("# nodes -1\n0 1\n", False),
    ("# nodes x\n0 1\n", False),
    ("# nodes 1_0\n0 9\n", True),
    ("\u0663 1 1.0\n", False),
    ("0\xa01 1.0\n", False),
    ("0 1 1.0\x0c\n", False),
])
def test_bulk_path_edge_cases_match_line_parser(tmp_path, text, bulk):
    _assert_paths_agree(tmp_path, text, bulk)


def test_comment_only_file_loads_without_a_warning(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# nodes 3\n# nothing else\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = load_edge_list(str(path))
    assert g.n == 3 and g.edge_count == 0


def test_parallel_edges_merge_and_sorted_rows(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 2 1.0\n0 1 1.0\n0 2 2.0\n")
    g = load_edge_list(str(path))
    assert g.edge_count == 2
    assert list(g.out_src) == [0, 0]
    assert list(g.out_dst) == [1, 2]
    assert list(g.out_w) == [1.0, 3.0]


def _assert_canonical_rows(g):
    """Sources never decrease and (source, destination) pairs strictly
    increase: sorted, each pair once; the rows are read-only."""
    assert (np.diff(g.out_src) >= 0).all()
    key = g.out_src * g.n + g.out_dst
    assert (np.diff(key) > 0).all()
    assert g.out_src.size == g.out_dst.size == g.out_w.size == g.edge_count
    assert not any(a.flags.writeable for a in (g.out_src, g.out_dst, g.out_w))


def test_rows_are_canonical(rng):
    for n in (1, 4, 13, 30):
        edges = random_edges(rng, n, density=0.4, self_loops=True)
        edges += edges[::2]  # parallel edges, self-loops among them
        src, dst, w = map(np.array, zip(*edges))
        order = rng.permutation(src.size)
        g = Graph.from_edges(n, src[order], dst[order], w[order])
        _assert_canonical_rows(g)
        assert g.edge_count == len(set(zip(src.tolist(), dst.tolist())))
        labels = canonicalize_labels(rng.integers(0, max(1, n // 3), n))
        agg = aggregate(g, labels)
        _assert_canonical_rows(agg)
        want = {(int(labels[i]), int(labels[j])) for i, j, _ in edges}
        assert set(zip(agg.out_src.tolist(), agg.out_dst.tolist())) == want


def test_unit_scaled_shares_the_structure(rng):
    g = build_graph(12, random_edges(rng, 12, density=0.4, self_loops=True)
                    + [(0, 1, 3e40)])  # a total far from [0.5, 1)
    out = _unit_scaled(g)
    assert 0.5 <= out.out_w.sum() < 1.0
    assert np.shares_memory(out.out_src, g.out_src)
    assert np.shares_memory(out.out_dst, g.out_dst)
    u, v = g.neighbor_union(), out.neighbor_union()
    assert np.shares_memory(v.ptr, u.ptr) and np.shares_memory(v.nbr, u.nbr)


def _lexsort_merge(row, nbr, w):
    """The pair merge as a lexsort over (row, nbr), for reference."""
    order = np.lexsort((nbr, row))
    row, nbr, w = row[order], nbr[order], w[order]
    if row.size:
        new = np.r_[True, (row[1:] != row[:-1]) | (nbr[1:] != nbr[:-1])]
        starts = np.flatnonzero(new)
        row, nbr = row[starts], nbr[starts]
        w = np.add.reduceat(w, starts)
    return row, nbr, w


def test_merge_pairs_matches_lexsort_reference(rng):
    # many duplicates (few distinct pairs), empty rows, an empty input and
    # ncols both below and above n; weights are not dyadic, so equal bits
    # need the same summation order inside each group
    cases = [(0, 0, 0), (5, 3, 0), (1, 1, 40)]
    for _ in range(40):
        cases.append((int(rng.integers(1, 30)), int(rng.integers(1, 30)),
                      int(rng.integers(0, 300))))
    for n, ncols, size in cases:
        row = rng.integers(0, max(1, n // 2), size)  # upper rows stay empty
        nbr = rng.integers(0, min(ncols, 4), size)
        w = rng.uniform(0.1, 3.0, size)
        got = _merge_pairs(n, ncols, row, nbr, w)
        want = _lexsort_merge(row, nbr, w)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def test_stable_order_matches_stable_argsort(rng):
    # ties, keys already in order, sizes 0 and 1; each key under a tight
    # bound, which packs its index below it, and under 2**62, too wide to
    # pack from 3 keys on; and tied keys near 2**62, which packing would
    # overflow
    cases = [np.empty(0, np.int64), np.array([5]), np.arange(10),
             np.zeros(7, np.int64), np.array([3, 3, 1, 1, 2]),
             np.array([2, 1]), np.sort(rng.integers(0, 5, 50)),
             rng.choice([0, 2**61, 2**62 - 1], 50)]
    for _ in range(40):
        cases.append(rng.integers(0, rng.integers(1, 20),
                                  rng.integers(2, 300)))
    for key in cases:
        want = np.argsort(key, kind="stable")
        for bound in (int(key.max(initial=0)) + 1, 2**62):
            order, sorted_key = _stable_order(key, bound)
            assert order.dtype == want.dtype
            assert order.tobytes() == want.tobytes()
            assert sorted_key.tobytes() == key[want].tobytes()


def test_from_edges_leaves_the_callers_arrays_alone():
    # the rows are read-only copies even when the input needs no sort or
    # merge; a caller's arrays stay writable and unshared
    for src, dst in (([0, 0, 1], [1, 2, 0]), ([1, 0, 0], [0, 2, 1]),
                     ([0, 0], [1, 1]), ([], [])):
        src, dst = np.array(src, np.int64), np.array(dst, np.int64)
        w = np.ones(src.size)
        g = Graph.from_edges(3, src, dst, w)
        _assert_canonical_rows(g)
        for mine, rows in ((src, g.out_src), (dst, g.out_dst), (w, g.out_w)):
            assert mine.flags.writeable
            assert not np.shares_memory(mine, rows)


def test_pair_key_overflow_is_rejected():
    with pytest.raises(ValueError, match="int64"):
        Graph.from_edges(2**32, [0], [1], [1.0])
    with pytest.raises(ValueError, match="int64"):
        _merge_pairs(2**40, 2**23 + 1, np.zeros(1, np.int64),
                     np.zeros(1, np.int64), np.ones(1))
    # n * ncols == 2**63: the largest key, 2**63 - 1, still fits
    row, nbr, w = _merge_pairs(2, 2**62, np.array([1]),
                               np.array([2**62 - 1]), np.ones(1))
    assert row.tolist() == [1] and nbr.tolist() == [2**62 - 1]


def test_union_rows_match_dense_weights(rng):
    for n in (2, 5, 12, 25):
        edges = random_edges(rng, n, density=0.4, self_loops=True)
        u = build_graph(n, edges).neighbor_union()
        dense = dense_weights(n, edges)
        np.fill_diagonal(dense, 0.0)
        for i in range(n):
            lo, hi = u.ptr[i], u.ptr[i + 1]
            nb = u.nbr[lo:hi]
            np.testing.assert_array_equal(
                nb, np.flatnonzero(dense[i] + dense[:, i]))
            assert u.w[lo:hi].tobytes() == (dense[i, nb] + dense[nb, i]).tobytes()


def test_roundtrip_bit_exact(tmp_path, rng):
    edges = random_edges(rng, 15, density=0.3, self_loops=True)
    g = build_graph(15, edges)
    path = tmp_path / "g.txt"
    dump_edge_list(g, str(path))
    g2 = load_edge_list(str(path))
    assert g == g2
    dump_edge_list(g2, str(tmp_path / "g2.txt"))
    assert (tmp_path / "g.txt").read_bytes() == (tmp_path / "g2.txt").read_bytes()


def test_writers_match_per_value_formatting(tmp_path, rng):
    # the writers format plain Python values; the bytes are those of
    # formatting each numpy value on its own
    g = build_graph(15, random_edges(rng, 15, density=0.3, self_loops=True))
    dump_edge_list(g, str(tmp_path / "g.txt"), header_lines=("h",))
    want = ["# h", f"# nodes {g.n}"] + [
        "%d %d %.17g" % e for e in zip(g.out_src, g.out_dst, g.out_w)]
    assert (tmp_path / "g.txt").read_text() == "\n".join(want + [""])
    labels = rng.integers(0, 2**62, 40)
    write_partition(labels, str(tmp_path / "p.txt"))
    want = "".join(f"{i} {c}\n" for i, c in enumerate(labels))
    assert (tmp_path / "p.txt").read_text() == want


def test_strengths_identities_exact_for_dyadic(rng):
    edges = random_edges(rng, 20, density=0.3, dyadic=True, self_loops=True)
    g = build_graph(20, edges)
    st_ = strengths(g)
    assert st_.s_out.sum() == st_.m_w
    assert st_.s_in.sum() == st_.m_w
    dense = dense_weights(20, edges)
    np.testing.assert_array_equal(st_.s_out, dense.sum(axis=1))
    np.testing.assert_array_equal(st_.s_in, dense.sum(axis=0))


def test_aggregate_two_triangles():
    n, edges = two_triangles()
    g = build_graph(n, edges)
    labels = np.array([0, 0, 0, 1, 1, 1])
    agg = aggregate(g, labels)
    assert agg.n == 2
    st_ = strengths(agg)
    assert st_.m_w == 6.0
    # all weight became self-loops
    assert agg.edge_count == 2
    assert list(agg.out_dst) == [0, 1]
    assert list(agg.out_w) == [3.0, 3.0]


def test_aggregate_rejects_sparse_labels():
    n, edges = two_triangles()
    g = build_graph(n, edges)
    with pytest.raises(ValueError):
        aggregate(g, np.array([0, 0, 0, 2, 2, 2]))  # label 1 missing


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_aggregate_preserves_mw_exactly_dyadic(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, n, density=0.4, dyadic=True, self_loops=True)
    g = build_graph(n, edges)
    raw = rng.integers(0, max(1, n // 2 + 1), size=n)
    labels = canonicalize_labels(raw)
    agg = aggregate(g, labels)
    assert strengths(agg).m_w == strengths(g).m_w


def test_aggregate_identity_labels_keeps_graph(rng):
    edges = random_edges(rng, 9, density=0.4, self_loops=True)
    g = build_graph(9, edges)
    agg = aggregate(g, np.arange(9))
    assert agg == g


def test_canonicalize_labels_orders_by_smallest_member():
    raw = np.array([7, 3, 7, 3, 9])
    out = canonicalize_labels(raw)
    np.testing.assert_array_equal(out, [0, 1, 0, 1, 2])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), k=st.integers(1, 60),
       big=st.sampled_from((0, 1, 2**40, 2**62)), seed=st.integers(0, 2**31))
def test_canonicalize_labels_matches_the_unique_reference(n, k, big, seed):
    # labels with gaps (k up to 1.5 n), large ids (offset ``big``, beyond n
    # for any offset but 0), and empty input, against the np.unique path
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, k, n) + big
    uniq, first = np.unique(raw, return_index=True)
    remap = np.empty(uniq.size, dtype=np.int64)
    remap[np.argsort(first, kind="stable")] = np.arange(uniq.size)
    want = remap[np.searchsorted(uniq, raw)]
    got = canonicalize_labels(raw)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


def test_unit_scaled_drops_edges_that_underflow():
    # weights spread over 1e-300 to 1e300: the smallest fall below 2**-1075
    # of the total, become 0 when scaled, and are dropped, so the copy
    # still has only positive weights and its own union
    rng = np.random.default_rng(5)
    n = 60
    src, dst = np.nonzero(rng.random((n, n)) < 0.15)
    w = 10.0 ** rng.uniform(-300, 300, src.size)
    g = Graph.from_edges(n, src, dst, w)
    out = _unit_scaled(g)
    keep = np.ldexp(w, -math.frexp(float(w.sum()))[1]) > 0.0
    assert 0 < keep.sum() < w.size
    assert (out.out_w > 0.0).all()
    np.testing.assert_array_equal(out.out_src, src[keep])
    np.testing.assert_array_equal(out.out_dst, dst[keep])
    u = out.neighbor_union()
    assert (u.w > 0.0).all() and u.nbr.size < g.neighbor_union().nbr.size


def test_compose_labels():
    inner = np.array([0, 0, 1, 2, 2])
    outer = np.array([1, 0, 0])
    np.testing.assert_array_equal(compose_labels(inner, outer), [1, 1, 0, 0, 0])


def test_partition_io_roundtrip(tmp_path):
    labels = np.array([0, 1, 1, 0, 2])
    path = tmp_path / "p.txt"
    write_partition(labels, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "0 0"
    np.testing.assert_array_equal(read_partition(str(path)), labels)


@pytest.mark.parametrize("text, lineno", [
    ("0 -1\n0 5\n", 1),  # -1 must not pass as "unseen": node 0 twice, 1 missing
    ("0 -3\n1 0\n", 1),
    ("0 0\n1 -2\n", 2),
], ids=["minus-one-then-duplicate", "minus-three-first", "negative-on-line-2"])
def test_read_partition_rejects_negative_labels(tmp_path, text, lineno):
    path = tmp_path / "p.txt"
    path.write_text(text)
    with pytest.raises(GraphFormatError) as err:
        read_partition(str(path))
    assert f"line {lineno}" in str(err.value)


def test_read_partition_rejects_duplicate_and_missing_nodes(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("0 0\n0 5\n")
    with pytest.raises(GraphFormatError):
        read_partition(str(path))


def test_read_partition_label_past_int64_is_a_format_error(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("0 0\n1 99999999999999999999\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        read_partition(str(path))


@pytest.mark.parametrize("text, want", [
    ("2 1\n0 0\n1 1\n", [0, 1, 1]),
    ("# truth\n0 3\r\n  1\t3\n\n", [3, 3]),
    ("", []),
    ("0 0\n0 5\n", "exactly once \\(offending node 0\\)"),
    ("0 0\n2 1\n", "exactly once \\(offending node 2\\)"),
    ("0 -1\n1 0\n", "line 1: community labels must be non-negative"),
    ("0 0 # note\n", "line 1: expected 'node community'"),
    ("0 1.0\n", "line 1: bad integer"),
    ("0 0\n1 1 1\n", "line 2: expected 'node community'"),
    ("0 99999999999999999999\n", "line 1: community labels must fit in int64"),
], ids=["shuffled", "comment-crlf-tab", "empty", "duplicate", "gap",
        "negative", "trailing-comment", "float-label", "three-tokens",
        "label-past-int64"])
def test_read_partition_reads_or_rejects_each_shape(tmp_path, text, want):
    path = tmp_path / "p.txt"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(want, str):
        with pytest.raises(GraphFormatError, match=want):
            read_partition(str(path))
    else:
        got = read_partition(str(path))
        assert got.dtype == np.int64 and got.tolist() == want


def test_union_adjacency_merges_directions(rng):
    edges = [(0, 1, 2.0), (1, 0, 0.5), (0, 2, 1.0), (2, 2, 9.0)]
    g = build_graph(3, edges)
    u = g.neighbor_union()
    dense = dense_weights(3, edges)
    # row 0: neighbors 1 (out 2.0, in 0.5) and 2 (out 1.0, in 0)
    lo, hi = u.ptr[0], u.ptr[1]
    nb = u.nbr[lo:hi]
    assert list(nb) == [1, 2]
    assert u.w[lo:hi].tobytes() == (dense[0, nb] + dense[nb, 0]).tobytes()
    assert list(u.w[lo:hi]) == [2.5, 1.0]
    # self-loop at 2 excluded
    lo, hi = u.ptr[2], u.ptr[3]
    assert list(u.nbr[lo:hi]) == [0]


def test_empty_graph_allowed():
    g = Graph.from_edges(0, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    assert g.n == 0 and g.edge_count == 0


def test_from_edges_rejects_a_node_count_that_is_no_count():
    # -1 used to fail later, in numpy, and 2.7 to build a 2-node graph
    for n, edges in ((-1, ([], [], [])), (2.7, ([0], [1], [1.0])),
                     (3.0, ([0], [1], [1.0])), ("3", ([0], [1], [1.0]))):
        with pytest.raises(ValueError, match="node count"):
            Graph.from_edges(n, *edges)
    assert Graph.from_edges(np.int64(3), [0], [1], [1.0]).n == 3


@pytest.mark.parametrize("edges", [
    [(0, 1, 1e308), (1, 0, 1e308)],  # a total past the largest double
    [(0, 1, 1e308), (0, 1, 1e308)],  # parallel edges that merge past it
])
def test_from_edges_rejects_an_infinite_weight_total(edges):
    with pytest.raises(ValueError, match="finite total"):
        build_graph(2, edges)


def test_from_edges_accepts_a_total_just_below_the_largest_double():
    big = np.finfo(np.float64).max / 2
    g = build_graph(2, [(0, 1, big), (1, 0, big)])
    assert np.isfinite(strengths(g).m_w)
    assert np.isfinite(g.neighbor_union().w).all()
