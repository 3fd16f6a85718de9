import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synclouvain.graph import (
    Graph,
    GraphFormatError,
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
    ["0 1 0.0", "0 1 -2", "0 1 nan", "0 1 inf", "0 x 1.0", "0 1.5 1.0", "-1 2 1.0", "0 1 2 3"],
)
def test_load_rejects_bad_lines_with_line_number(tmp_path, line):
    path = tmp_path / "g.txt"
    path.write_text("0 1 1.0\n%s\n" % line)
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(str(path))
    assert "line 2" in str(err.value)


def test_parallel_edges_merge_and_sorted_rows(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 2 1.0\n0 1 1.0\n0 2 2.0\n")
    g = load_edge_list(str(path))
    assert g.edge_count == 2
    lo, hi = g.out_ptr[0], g.out_ptr[1]
    assert list(g.out_dst[lo:hi]) == [1, 2]
    assert list(g.out_w[lo:hi]) == [1.0, 3.0]


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
