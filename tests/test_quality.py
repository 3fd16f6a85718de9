import itertools

import numpy as np
import pytest

from synclouvain.graph import Graph, canonicalize_labels, strengths
from synclouvain.quality import (
    CommunityAggregates,
    gain_insert,
    gain_switch,
    join_gain,
    local_gain,
    local_gains,
    score,
    switch_gain,
)

from conftest import build_graph, two_triangles
from oracles import oracle_score, random_edges


def make(n, edges):
    g = build_graph(n, edges)
    return g, strengths(g)


def aggregates_for(st_, labels):
    return CommunityAggregates.from_labels(st_, labels)


# --- frozen values on two disjoint 3-cycles (m_w = 6) ---

def test_triangles_score_half():
    n, edges = two_triangles()
    g, st_ = make(n, edges)
    labels = np.array([0, 0, 0, 1, 1, 1])
    assert score(g, st_, labels) == 0.5


def test_one_community_scores_zero():
    n, edges = two_triangles()
    g, st_ = make(n, edges)
    assert abs(score(g, st_, np.zeros(n, dtype=np.int64))) <= 1e-15


def test_singletons_score_minus_one_sixth():
    n, edges = two_triangles()
    g, st_ = make(n, edges)
    q = score(g, st_, np.arange(n))
    assert q == pytest.approx(-1.0 / 6.0, abs=1e-15)


def test_gain_insert_frozen_value():
    # moving node 0 next to node 1 alone: (W(0,1)+W(1,0))/6 - 2/36 = 1/6 - 1/18 = 1/9
    n, edges = two_triangles()
    g, st_ = make(n, edges)
    labels = np.arange(n)  # all singletons; node 0 inserted into {1}
    agg = aggregates_for(st_, labels)
    got = gain_insert(g, st_, labels, agg, 0, 1)
    assert got == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_local_gain_frozen_value():
    # triangle member against the rest of its triangle: 2/6 - 4/36 = 2/9
    n, edges = two_triangles()
    g, st_ = make(n, edges)
    labels = np.array([0, 0, 0, 1, 1, 1])
    agg = aggregates_for(st_, labels)
    for i in range(6):
        assert local_gain(g, st_, labels, agg, i) == pytest.approx(2.0 / 9.0, abs=1e-15)
    np.testing.assert_allclose(local_gains(g, st_, labels, agg),
                               np.full(6, 2.0 / 9.0), atol=1e-15)


# --- oracle agreement ---

def corpus(seed, cases=30, nmax=9):
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(2, nmax + 1))
        edges = random_edges(rng, n, density=float(rng.uniform(0.2, 0.6)),
                             self_loops=bool(rng.integers(0, 2)))
        labels = canonicalize_labels(rng.integers(0, max(1, n // 2 + 1), size=n))
        yield n, edges, labels, rng


def test_score_matches_oracle():
    for n, edges, labels, _ in corpus(7):
        g, st_ = make(n, edges)
        assert score(g, st_, labels) == pytest.approx(
            oracle_score(n, edges, labels), abs=1e-12)


def test_score_bounds_and_empty():
    for n, edges, labels, _ in corpus(11, cases=60):
        g, st_ = make(n, edges)
        assert -1.0 - 1e-12 <= score(g, st_, labels) <= 1.0 + 1e-12
    from synclouvain.graph import Graph
    g0 = Graph.from_edges(3, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    assert score(g0, strengths(g0), np.zeros(3, dtype=np.int64)) == 0.0


def test_gain_insert_is_exact_score_difference():
    for n, edges, labels, rng in corpus(13):
        g, st_ = make(n, edges)
        i = int(rng.integers(0, n))
        # isolate i, then insert into some other community
        iso = labels.copy()
        iso[i] = labels.max() + 1
        iso = canonicalize_labels(iso)
        others = sorted(set(iso[np.arange(n) != i].tolist()))
        if not others:
            continue
        c = others[int(rng.integers(0, len(others)))]
        agg = aggregates_for(st_, iso)
        moved = iso.copy()
        moved[i] = c
        want = oracle_score(n, edges, moved) - oracle_score(n, edges, iso)
        got = gain_insert(g, st_, iso, agg, i, c)
        assert got == pytest.approx(want, abs=1e-12)


def test_gain_insert_empty_community_is_zero():
    n, edges = two_triangles()
    g, st_ = make(n, edges)
    labels = np.arange(n)
    agg = aggregates_for(st_, labels)
    # a fresh label with no members
    assert gain_insert(g, st_, labels, agg, 0, None) == 0.0
    # an empty community of from_labels aggregates prices +0.0 by arithmetic
    gappy = np.array([0, 0, 0, 2, 2, 2])
    for i in range(n):
        got = gain_insert(g, st_, gappy, aggregates_for(st_, gappy), i, 1)
        assert float(got).hex() == (0.0).hex()
    # an edgeless graph (m_w 0) has no gain, into any community
    none = np.empty(0, dtype=np.int64)
    g0 = Graph.from_edges(3, none, none, np.empty(0))
    st0, lab = strengths(g0), np.array([0, 1, 1])
    assert gain_insert(g0, st0, lab, aggregates_for(st0, lab), 0, 1) == 0.0


def test_local_gain_is_exact_score_difference():
    for n, edges, labels, rng in corpus(17):
        g, st_ = make(n, edges)
        agg = aggregates_for(st_, labels)
        i = int(rng.integers(0, n))
        split = labels.copy()
        split[i] = labels.max() + 1
        want = oracle_score(n, edges, labels) - oracle_score(n, edges, split)
        assert local_gain(g, st_, labels, agg, i) == pytest.approx(want, abs=1e-12)
        vec = local_gains(g, st_, labels, agg)
        assert vec[i] == pytest.approx(want, abs=1e-12)
        # a masked call gives the same bits for the nodes it covers
        mask = rng.random(n) < 0.5
        assert local_gains(g, st_, labels, agg,
                           np.flatnonzero(mask)).tobytes() == \
            vec[mask].tobytes()


def test_pair_gain_is_symmetric_bit_for_bit(rng):
    # the premise of the no-cycle-above-2 proof in detector.positive_correction
    for n in (3, 9, 20, 40):
        g, st_ = make(n, random_edges(rng, n, density=0.3, self_loops=True))
        u = g.neighbor_union()
        rows = np.repeat(np.arange(n), np.diff(u.ptr))
        back = np.searchsorted(u.nbr + rows * n, rows + u.nbr * n)
        np.testing.assert_array_equal(u.nbr[back], rows)
        fwd = join_gain(st_.m_w, u.w, st_.s_out[rows], st_.s_in[rows],
                        st_.s_out[u.nbr], st_.s_in[u.nbr])
        rev = join_gain(st_.m_w, u.w[back], st_.s_out[u.nbr], st_.s_in[u.nbr],
                        st_.s_out[rows], st_.s_in[rows])
        assert fwd.size > 0 and fwd.tobytes() == rev.tobytes()


def test_gain_switch_is_exact_score_difference():
    # two labels on up to 24 nodes give sums of many terms, where a
    # pairwise sum would round differently from the one order
    coarse = ((n, edges, labels % 2, rng)
              for n, edges, labels, rng in corpus(23, cases=10, nmax=24))
    for n, edges, labels, rng in itertools.chain(corpus(19, cases=40),
                                                 coarse):
        g, st_ = make(n, edges)
        agg = aggregates_for(st_, labels)
        frm = int(labels[int(rng.integers(0, n))])
        members = np.flatnonzero(labels == frm)
        take = int(rng.integers(1, len(members) + 1))
        moved_set = members[np.sort(rng.permutation(len(members))[:take])]
        targets = sorted(set(labels.tolist()) - {frm})
        to = targets[int(rng.integers(0, len(targets)))] if targets and rng.random() < 0.7 else None
        after = labels.copy()
        after[moved_set] = to if to is not None else labels.max() + 1
        want = oracle_score(n, edges, after) - oracle_score(n, edges, labels)
        got = gain_switch(g, st_, labels, agg, moved_set, frm, to)
        assert got == pytest.approx(want, abs=1e-12)
        # one price per set: its sums add one term at a time, over the
        # nodes in ascending order and each row's entries in order,
        # whatever order the set is passed in
        shuffled = rng.permutation(moved_set)
        assert gain_switch(g, st_, labels, agg, shuffled, frm,
                           to).hex() == got.hex()
        u = g.neighbor_union()
        w_to = w_from = so_b = si_b = 0.0
        for x in moved_set.tolist():
            so_b += st_.s_out[x]
            si_b += st_.s_in[x]
            for e in range(u.ptr[x], u.ptr[x + 1]):
                c = labels[u.nbr[e]]
                if c == to:
                    w_to += u.w[e]
                elif c == frm and u.nbr[e] not in moved_set:
                    w_from += u.w[e]
        so_t, si_t = (0.0, 0.0) if to is None else (agg.s_out[to],
                                                    agg.s_in[to])
        ref = switch_gain(st_.m_w, w_to, w_from, so_b, si_b, agg.s_out[frm],
                          agg.s_in[frm], so_t, si_t)
        assert float(ref).hex() == got.hex()


def test_gain_switch_identity_and_whole_community():
    n, edges = two_triangles()
    g, st_ = make(n, edges)
    labels = np.array([0, 0, 0, 1, 1, 1])
    agg = aggregates_for(st_, labels)
    members = np.array([0, 1, 2])
    assert gain_switch(g, st_, labels, agg, members, 0, 0) == 0.0
    # whole community to a fresh label: same partition, zero gain
    assert gain_switch(g, st_, labels, agg, members, 0, None) == pytest.approx(0.0, abs=1e-15)


def test_modularity_beta_sums_to_mw():
    n, edges = two_triangles()
    g, st_ = make(n, edges)
    total = sum(st_.s_out[i] * st_.s_in[j] / st_.m_w
                for i in range(n) for j in range(n))
    assert total == pytest.approx(st_.m_w, abs=1e-9)


def test_argmax_invariant_under_exact_scaling():
    # power-of-two weight scaling keeps every gain bit-identical
    for n, edges, labels, _ in corpus(29, cases=10):
        g, st_ = make(n, edges)
        agg = aggregates_for(st_, labels)
        scaled = [(s, d, w * 4.0) for s, d, w in edges]
        g2, st2 = make(n, scaled)
        agg2 = aggregates_for(st2, labels)
        for i in range(n):
            cands = sorted(set(labels.tolist()))
            gains1 = [gain_insert(g, st_, labels, agg, i, c) for c in cands]
            gains2 = [gain_insert(g2, st2, labels, agg2, i, c) for c in cands]
            assert int(np.argmax(gains1)) == int(np.argmax(gains2))


def test_aggregates_incremental_matches_scratch(rng):
    n, edges = two_triangles()
    g, st_ = make(n, edges)
    labels = np.array([0, 0, 0, 1, 1, 1])
    agg = aggregates_for(st_, labels)
    agg.move_nodes(st_, np.array([2]), 0, 1)
    labels2 = np.array([0, 0, 1, 1, 1, 1])
    scratch = CommunityAggregates.from_labels(st_, labels2)
    np.testing.assert_allclose(agg.s_out[:2], scratch.s_out, atol=1e-12)
    np.testing.assert_allclose(agg.s_in[:2], scratch.s_in, atol=1e-12)
    assert agg.check(st_, labels2, atol=1e-9)
