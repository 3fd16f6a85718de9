import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from synclouvain import detector
from synclouvain.detector import (
    Hierarchy,
    RunConfig,
    RunStats,
    _MovePrices,
    _Pool,
    _PriceRounds,
    _attach_target,
    _changed_nodes,
    _debug_validate,
    _first_max,
    _map_rows,
    _tail,
    find_assignment,
    maximal_correction,
    positive_correction,
    run,
)
from synclouvain.forest import extract_components, reverse_assignment
from synclouvain.graph import (_unit_scaled, canonicalize_labels,
                               compose_labels, strengths)
from synclouvain.quality import (CommunityAggregates, gain_switch, join_gain,
                                 local_gains, score)

from conftest import build_graph, two_triangles
from oracles import dense_weights, oracle_score, random_edges


def test_config_validation():
    RunConfig(threads=2, seed=5, accept_prob=1.0)
    with pytest.raises(ValueError):
        RunConfig(threads=0)
    with pytest.raises(ValueError):
        RunConfig(accept_prob=0.0)
    with pytest.raises(ValueError):
        RunConfig(accept_prob=1.5)


def test_assignment_two_triangles_ties_to_lowest_id():
    n, edges = two_triangles()
    g = build_graph(n, edges)
    a = find_assignment(g, strengths(g))
    # in-triangle gains all tie at 1/9; lowest neighbor id wins
    np.testing.assert_array_equal(a, [1, 0, 0, 4, 3, 3])
    forest = extract_components(a)
    assert forest.n_comms == 2
    np.testing.assert_array_equal(forest.comm, [0, 0, 0, 1, 1, 1])


def test_assignment_single_edge_pair_stays_singleton():
    # gain of joining = 1/1 - (1*1 + 0*0)/1 = 0, not > 0: both self-assigned
    g = build_graph(2, [(0, 1, 1.0)])
    a = find_assignment(g, strengths(g))
    np.testing.assert_array_equal(a, [0, 1])


@pytest.mark.parametrize("threads", [1, 2])
def test_find_assignment_matches_brute_force_pick(threads):
    # per node, the lowest-id neighbor with the largest pair gain if that
    # gain is positive, else the node itself, from a dense weight matrix;
    # a third of the graphs unit-weight (tie-heavy), half with self-loops
    rng = np.random.default_rng(77)
    pool = _Pool(threads)
    try:
        for t in range(45):
            n = int(rng.integers(2, 41))
            edges = random_edges(rng, n, density=float(rng.uniform(0.05, 0.5)),
                                 self_loops=t % 2 == 1)
            if t % 3 == 0:
                edges = [(i, j, 1.0) for i, j, _ in edges]
            g = build_graph(n, edges)
            st = strengths(g)
            w = dense_weights(n, edges)
            want = np.arange(n)
            for i in range(n):
                best = 0.0
                for j in range(n):
                    if j == i or w[i, j] + w[j, i] == 0.0:
                        continue
                    gain = join_gain(st.m_w, w[i, j] + w[j, i], st.s_out[i],
                                     st.s_in[i], st.s_out[j], st.s_in[j])
                    if gain > best:
                        best, want[i] = gain, j
            got = find_assignment(g, st, pool)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    finally:
        pool.close()


@pytest.mark.parametrize("threads", [1, 2])
def test_best_targets_matches_brute_force_pick(threads):
    # per planned node, the lowest-label community with the largest join
    # gain if it beats staying, else the node's own, from a dense weight
    # matrix and community sums; random labelings (empty labels included),
    # random planned rows, dyadic weights, so every sum is exact in any order
    rng = np.random.default_rng(91)
    pool = _Pool(threads)
    try:
        for t in range(40):
            n = int(rng.integers(2, 41))
            edges = random_edges(rng, n, density=float(rng.uniform(0.05, 0.5)),
                                 dyadic=True, self_loops=t % 2 == 1)
            g = build_graph(n, edges)
            st = strengths(g)
            w = dense_weights(n, edges)
            k = int(rng.integers(1, n + 2))
            labels = rng.integers(0, k, n)
            agg = CommunityAggregates.from_labels(st, labels, k)
            rows = np.flatnonzero(rng.random(n) < 0.7) if t % 4 else np.arange(n)
            want = labels[rows]
            for r, i in enumerate(rows.tolist()):
                to = np.zeros(k)
                np.add.at(to, labels, w[i] + w[:, i])
                to[labels[i]] -= w[i, i] + w[i, i]
                near = {int(labels[j]) for j in range(n)
                        if j != i and w[i, j] + w[j, i] > 0.0}
                own = labels[i]
                best = join_gain(st.m_w, to[own], st.s_out[i], st.s_in[i],
                                 agg.s_out[own] - st.s_out[i],
                                 agg.s_in[own] - st.s_in[i])
                for c in sorted(near - {int(own)}):
                    gain = join_gain(st.m_w, to[c], st.s_out[i], st.s_in[i],
                                     agg.s_out[c], agg.s_in[c])
                    if gain > best:
                        best, want[r] = gain, c
            got = _map_rows(g, pool, lambda lo, hi, r: detector._best_targets(
                g, st, labels, agg, lo, hi, r), rows)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    finally:
        pool.close()


def test_positive_correction_detaches_external_heavy_pendant():
    # triangle 0-1-2, pendant 3 lightly tied to the triangle, heavily to 4
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
             (3, 0, 0.5), (3, 4, 5.0)]
    g = build_graph(5, edges)
    st = strengths(g)
    a = np.array([1, 2, 0, 0, 4])  # pendant assigned into the triangle
    forest = extract_components(a)
    agg = CommunityAggregates.from_labels(st, forest.comm, forest.n_comms)
    assert local_gains(g, st, forest.comm, agg)[3] < 0
    forest2, unresolved, gains, left = positive_correction(
        g, st, forest, None)
    assert len(gains) == 1 and unresolved == 0 and not left.any()
    assert gains[0] > 0
    # pendant is its own community now
    np.testing.assert_array_equal(forest2.comm, [0, 0, 0, 1, 2])
    assert forest2.a[3] == 3
    # the applied bisection is the best single-cut split by the oracle
    before = oracle_score(5, edges, forest.comm)
    after = oracle_score(5, edges, forest2.comm)
    candidates = []
    # all ways to bisect {0,1,2,3} by one branch cut or one cycle pair cut
    for part in ([3], [1], [2], [0], [0, 3], [1, 3], [2, 3], [0, 1], [1, 2],
                 [0, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]):
        lab = forest.comm.copy()
        lab[part] = lab.max() + 1
        candidates.append(oracle_score(5, edges, lab))
    assert after == pytest.approx(max(candidates), abs=1e-12)
    assert after > before


def test_positive_correction_cuts_two_cycle_when_no_branch_cut_improves():
    # triangles {0,1,2} and {3,4,5} joined by a light 2-cycle 0 <-> 3; both
    # cycle nodes are tied heavily to outside node 6, so their local gains
    # are negative, yet detaching any leaf loses score
    edges = [(0, 3, 0.5), (3, 0, 0.5), (0, 6, 3.0), (6, 0, 3.0),
             (3, 6, 3.0), (6, 3, 3.0)]
    for tri in ((0, 1, 2), (3, 4, 5)):
        edges += [(i, j, 1.0) for i in tri for j in tri if i != j]
    g = build_graph(7, edges)
    st = strengths(g)
    forest = extract_components(np.array([3, 0, 0, 0, 3, 3, 6]))
    agg = CommunityAggregates.from_labels(st, forest.comm, forest.n_comms)
    lg = local_gains(g, st, forest.comm, agg)
    assert lg[0] < 0 and lg[3] < 0
    before = oracle_score(7, edges, forest.comm)
    cuts = {}
    for part in ([1], [2], [4], [5], [3, 4, 5]):  # four branch cuts, one pair
        lab = forest.comm.copy()
        lab[part] = lab.max() + 1
        cuts[tuple(part)] = oracle_score(7, edges, lab) - before
    assert all(cuts[(x,)] <= 0 for x in (1, 2, 4, 5)) and cuts[(3, 4, 5)] > 0
    forest2, unresolved, gains, left = positive_correction(
        g, st, forest, None)
    assert len(gains) == 1 and unresolved == 0 and not left.any()
    assert gains[0] == pytest.approx(max(cuts.values()), abs=1e-12)
    np.testing.assert_array_equal(forest2.comm, [0, 0, 0, 1, 1, 1, 2])
    np.testing.assert_array_equal(forest2.a, [0, 0, 0, 3, 3, 3, 6])


def test_positive_correction_cuts_again_above_an_earlier_cut():
    # chain 4 -> 3 -> 2 -> 1 -> 0 of strong pairs {1, 2} and {3, 4} on weak
    # links, next to a K4 on 5..8: the first cut detaches {3, 4}, the second
    # {1, 2}, from node 1, whose subtree before any cut held node 3
    pairs = [(0, 1, 0.5), (1, 2, 5.0), (2, 3, 0.5), (3, 4, 5.0), (0, 5, 2.0)]
    pairs += [(i, j, 1.0) for i in range(5, 9) for j in range(i + 1, 9)]
    edges = pairs + [(j, i, w) for i, j, w in pairs]
    g = build_graph(9, edges)
    forest = extract_components(np.array([0, 0, 1, 2, 3, 5, 5, 5, 5]))
    forest2, unresolved, gains, left = positive_correction(
        g, strengths(g), forest, None)
    assert len(gains) == 2 and unresolved == 0 and not left.any()
    steps = [forest.comm, [0, 0, 0, 1, 1, 2, 2, 2, 2], forest2.comm]
    for gain, before, after in zip(gains, steps, steps[1:]):
        assert gain == pytest.approx(oracle_score(9, edges, after)
                                     - oracle_score(9, edges, before),
                                     abs=1e-12)
    np.testing.assert_array_equal(forest2.comm, [0, 1, 1, 2, 2, 3, 3, 3, 3])
    np.testing.assert_array_equal(forest2.a, [0, 1, 1, 3, 3, 5, 5, 5, 5])


def test_positive_correction_gains_are_oracle_differences_on_random_forests(
        monkeypatch):
    # every cut is applied through the aggregates' move_nodes; record them
    # to replay the pieces step by step on the input labeling
    moves, aggs = [], []

    class Recording(CommunityAggregates):
        def move_nodes(self, st, nodes, frm, to):
            moves.append((np.array(nodes), to))
            aggs.append(self)
            super().move_nodes(st, nodes, frm, to)

    monkeypatch.setattr(detector, "CommunityAggregates", Recording)
    rng = np.random.default_rng(8)
    most_cuts = 0
    for t in range(36):
        n = int(rng.integers(6, 31))
        edges = random_edges(rng, n, density=float(rng.uniform(0.1, 0.4)),
                             self_loops=t % 2 == 1)
        if t % 3 == 0:
            edges = [(i, j, 1.0) for i, j, _ in edges]
        g = build_graph(n, edges)
        st = strengths(g)
        u = g.neighbor_union()
        if t % 4 == 0:
            a = find_assignment(g, st)
        else:
            # random pointers into union neighbors (lower ones only for
            # t % 4 == 1, giving trees under self-assigned roots)
            a = np.arange(n)
            for i in range(n):
                nb = u.nbr[u.ptr[i]:u.ptr[i + 1]]
                nb = nb[nb < i] if t % 4 == 1 else nb
                if nb.size:
                    a[i] = rng.choice(nb)
        forest = extract_components(a)
        moves.clear()
        aggs.clear()
        forest2, unresolved, gains, left = positive_correction(
            g, st, forest, None)
        assert len(gains) == len(moves)
        labels = forest.comm.copy()
        before = oracle_score(n, edges, labels)
        start = before
        for gain, (nodes, to) in zip(gains, moves):
            assert gain > 0.0
            labels[nodes] = to
            after = oracle_score(n, edges, labels)
            assert gain == pytest.approx(after - before, abs=1e-12)
            before = after
        np.testing.assert_array_equal(canonicalize_labels(labels),
                                      forest2.comm)
        _assert_is_extraction(forest2)
        assert sum(gains) == pytest.approx(before - start, abs=1e-12)
        assert all(agg.check(st, labels) for agg in aggs)
        # the same tolerance as _debug_validate: a zero gain may round
        # either way between incremental and fresh aggregates
        agg = CommunityAggregates.from_labels(st, forest2.comm)
        lg = local_gains(g, st, forest2.comm, agg)
        assert not ((lg < -1e-12) & ~left).any()
        cuts = np.bincount(forest.comm[[nodes[0] for nodes, _ in moves]],
                           minlength=forest.n_comms)
        most_cuts = max(most_cuts, int(cuts.max()))
    assert most_cuts >= 3  # several pieces of one community were priced


def _assert_is_extraction(forest):
    """A forest a phase derived from its labels equals a fresh
    ``extract_components`` of its pointers."""
    fresh = extract_components(forest.a)
    assert forest.n_comms == fresh.n_comms
    np.testing.assert_array_equal(forest.comm, fresh.comm)
    np.testing.assert_array_equal(forest.on_cycle, fresh.on_cycle)


def test_debug_validate_flags_a_stale_component_labeling():
    # the derived forests are checked against a fresh extraction only here:
    # one wrong community label, or one wrong cycle flag, is reported
    n, edges = two_triangles()
    g = build_graph(n, edges)
    st = strengths(g)
    forest = extract_components(np.array([1, 0, 0, 4, 3, 3]))  # 2-cycles
    comm = forest.comm.copy()
    comm[2] = 1
    on_cycle = forest.on_cycle.copy()
    on_cycle[0] = False
    stale = ["hand: stale component labeling"]
    for bad, want in ((forest, []), (replace(forest, comm=comm), stale),
                      (replace(forest, on_cycle=on_cycle), stale)):
        stats = RunStats()
        _debug_validate(g, st, bad, "hand", stats, unresolved=None)
        assert stats.debug_failures == want


def test_debug_validate_flags_cycles_longer_than_two():
    n, edges = two_triangles()
    g = build_graph(n, edges)
    stats = RunStats()
    forest = extract_components(np.array([1, 2, 0, 4, 5, 3]))
    _debug_validate(g, strengths(g), forest, "hand", stats,
                    unresolved=None)
    assert stats.debug_failures == [
        "hand: community 0 has a cycle of length 3",
        "hand: community 1 has a cycle of length 3"]
    stats = RunStats()
    forest = extract_components(np.array([1, 0, 0, 4, 3, 3]))  # 2-cycles
    _debug_validate(g, strengths(g), forest, "hand", stats,
                    unresolved=None)
    assert stats.debug_failures == []


def test_debug_validate_flags_pointer_to_non_neighbor():
    n, edges = two_triangles()
    g = build_graph(n, edges)
    stats = RunStats()
    forest = extract_components(np.array([1, 0, 4, 4, 3, 0]))
    _debug_validate(g, strengths(g), forest, "hand", stats,
                    unresolved=None)
    assert stats.debug_failures == [
        "hand: node 2 points at non-neighbor 4",
        "hand: node 5 points at non-neighbor 0"]


def test_debug_validate_flags_negative_gain_outside_unresolved():
    # pendant 3 sits in the triangle's community with a negative local gain
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
             (3, 0, 0.5), (3, 4, 5.0)]
    g = build_graph(5, edges)
    st = strengths(g)
    forest = extract_components(np.array([1, 0, 0, 0, 4]))
    lg = local_gains(g, st, forest.comm,
                     CommunityAggregates.from_labels(st, forest.comm))
    stats = RunStats()
    _debug_validate(g, st, forest, "hand", stats,
                    unresolved=np.zeros(5, dtype=bool))
    assert stats.debug_failures == [
        f"hand: negative local gain {lg[3]:.3e} left behind at node 3"]
    stats = RunStats()
    _debug_validate(g, st, forest, "hand", stats,
                    unresolved=forest.comm == forest.comm[3])
    assert stats.debug_failures == []


def test_changed_nodes_matches_member_set_brute_force(rng):
    def groups(lab):
        out = {}
        for i, c in enumerate(lab.tolist()):
            out.setdefault(c, set()).add(i)
        return [frozenset(out[c]) for c in lab.tolist()]

    for trial in range(300):
        n = int(rng.integers(1, 30))
        old = canonicalize_labels(rng.integers(0, max(1, n // 3), n))
        new = old.copy()
        k = int(old.max()) + 1
        for op in rng.permutation(4)[:int(rng.integers(0, 4))].tolist():
            c = int(rng.integers(0, k))
            if op == 0:  # move a few nodes, possibly to a fresh community
                pick = rng.random(n) < 0.15
                new[pick] = rng.integers(0, k + 1, int(pick.sum()))
            elif op == 1:  # merge two communities
                new[new == c] = int(rng.integers(0, k))
            elif op == 2:  # split one community
                new[(new == c) & (rng.random(n) < 0.5)] = k + 1
            else:  # one community vanishes into the others
                sel = new == c
                new[sel] = rng.integers(0, k, int(sel.sum()))
        # a pure relabel of every community, then canonical order again
        new = canonicalize_labels(rng.permutation(k + 2)[new])
        expect = [a != b for a, b in zip(groups(old), groups(new))]
        np.testing.assert_array_equal(_changed_nodes(old, new), expect)


def _pieces_of(g, pool, rows):
    """The (lo, hi, piece) calls ``_map_rows`` makes on ``rows``, after
    checking that it returns the pieces' results in row order."""
    seen = []

    def fn(lo, hi, piece):
        seen.append((lo, hi, piece))
        return piece

    out = _map_rows(g, pool, fn, rows)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, rows)
    return sorted(seen, key=lambda call: call[0])


def test_map_rows_balances_entries_of_the_given_rows(rng, monkeypatch):
    # pieces are cut by the entries of the given rows, not of all rows: at
    # most PIECE_ENTRIES each unless a single row, about 2 * total / PIECE
    # of them, contiguous, ascending and together the input
    g = build_graph(60, random_edges(rng, 60, density=0.2))
    ptr = g.neighbor_union().ptr
    rows = np.flatnonzero(rng.random(60) < 0.5)
    rows = rows[rows < 25]  # concentrated in low ids
    total = int((ptr[rows + 1] - ptr[rows]).sum())
    for threads in (1, 2):
        pool = _Pool(threads)
        try:
            for piece in (1, 7, 16, 50, total // 3, total, 2**14):
                monkeypatch.setattr(detector, "PIECE_ENTRIES", piece)
                seen = _pieces_of(g, pool, rows)
                assert len(seen) <= 2 * total // piece + 1
                np.testing.assert_array_equal(
                    np.concatenate([p for _, _, p in seen]), rows)
                for lo, hi, p in seen:
                    assert (lo, hi) == (p[0], p[-1] + 1)
                    assert p.size == 1 or int(
                        (ptr[p + 1] - ptr[p]).sum()) <= piece
                assert _pieces_of(g, pool, np.empty(0, dtype=np.int64)) == []
        finally:
            pool.close()


def test_map_rows_runs_small_frontiers_as_one_piece(rng, monkeypatch):
    # one piece while the rows hold at most PIECE_ENTRIES / 2 entries, at
    # any thread count; twice that many entries make two pieces
    g = build_graph(60, random_edges(rng, 60, density=0.2))
    rows = np.arange(60)
    entries = int(g.neighbor_union().ptr[-1])
    for threads in (1, 2):
        pool = _Pool(threads)
        try:
            for piece, pieces in ((2 * entries, 1), (entries, 2)):
                monkeypatch.setattr(detector, "PIECE_ENTRIES", piece)
                assert len(_pieces_of(g, pool, rows)) == pieces
        finally:
            pool.close()


def test_map_rows_plan_bits_do_not_depend_on_the_piece_size(monkeypatch):
    # the plan of random rows under random labels, on random graphs (a
    # third unit-weight), has the same bytes for any piece size and thread
    # count
    rng = np.random.default_rng(23)
    pools = {t: _Pool(t) for t in (1, 2)}
    try:
        for t in range(24):
            n = int(rng.integers(2, 80))
            edges = random_edges(rng, n, density=float(rng.uniform(0.03, 0.4)),
                                 self_loops=t % 2 == 1)
            if t % 3 == 0:
                edges = [(i, j, 1.0) for i, j, _ in edges]
            g = build_graph(n, edges)
            st = strengths(g)
            k = int(rng.integers(1, n + 1))
            labels = rng.integers(0, k, n)
            agg = CommunityAggregates.from_labels(st, labels, k)
            rows = (np.flatnonzero(rng.random(n) < 0.7) if t % 4
                    else np.arange(n))
            got = set()
            for piece in (1, 7, 2**14):
                monkeypatch.setattr(detector, "PIECE_ENTRIES", piece)
                for pool in pools.values():
                    got.add(_map_rows(g, pool, lambda lo, hi, r: (
                        detector._best_targets(g, st, labels, agg, lo, hi, r)),
                        rows).tobytes())
            assert len(got) == 1
    finally:
        for pool in pools.values():
            pool.close()


def _random_pointers(rng, g, two_cycles):
    """Each node points at a random union neighbor or at itself; then
    ``two_cycles`` random neighbor pairs point at each other."""
    u = g.neighbor_union()
    a = np.arange(g.n)
    for i in range(g.n):
        nb = u.nbr[u.ptr[i]:u.ptr[i + 1]]
        if nb.size and rng.random() < 0.8:
            a[i] = rng.choice(nb)
    for _ in range(two_cycles):
        i = int(rng.integers(0, g.n))
        nb = u.nbr[u.ptr[i]:u.ptr[i + 1]]
        if nb.size:
            j = int(rng.choice(nb))
            a[i], a[j] = j, i
    return a


@settings(max_examples=80, deadline=None)
@given(seed=strategies.integers(0, 2**31),
       scale=strategies.sampled_from((-500, 0, 500)),
       unit=strategies.booleans(), loops=strategies.booleans(),
       chain=strategies.booleans())
def test_price_rounds_are_exact_and_bounded(seed, scale, unit, loops, chain):
    # the serial commit over rounds of batch prices: every price a
    # candidate is reached with equals the one-move kernels, bit for bit,
    # at the labels and aggregates of that moment, whether it is the
    # round's price or a re-price after a commit touched its target.  A
    # round prices one candidate per untouched source, so the tails priced
    # sum to at most those reached plus n.  With ``chain`` nodes point at
    # their predecessor: long nested tails within one community.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    edges = [(i, j, math.ldexp(1.0 if unit else w, scale)) for i, j, w in
             random_edges(rng, n, density=float(rng.uniform(0.05, 0.4)),
                          self_loops=loops)]
    if chain:
        edges += [(i, i + 1, math.ldexp(1.0, scale)) for i in range(n - 1)]
    g = _unit_scaled(build_graph(n, edges))
    st = strengths(g)
    if chain:
        a = np.where(rng.random(n) < 0.15, np.arange(n),
                     np.maximum(np.arange(n) - 1, 0))
    else:
        a = _random_pointers(rng, g, int(rng.integers(0, 3)))
    forest = extract_components(a)
    if forest.n_comms < 2:
        return
    labels = forest.comm.copy()
    agg = CommunityAggregates.from_labels(st, labels, forest.n_comms)
    roots = np.flatnonzero(rng.random(n) < 0.8)
    cstar = (labels + rng.integers(1, forest.n_comms, size=n)) % forest.n_comms
    rptr, rkids = reverse_assignment(a)
    book = _PriceRounds(g, st, labels, agg, rptr, rkids, roots, cstar,
                        forest.n_comms)
    seen = np.zeros(n, dtype=bool)
    reached = 0
    for k, i in enumerate(roots.tolist()):
        frm = int(labels[i])
        if book.touched[frm] >= 0:
            continue
        mp, s, gain, j = book.price(k)
        to = int(cstar[i])
        moved = mp.tail(s)
        reached += moved.size
        np.testing.assert_array_equal(moved,
                                      np.sort(_tail(rptr, rkids, i, seen)))
        assert j == _attach_target(g, st, labels, i, to)
        if j >= 0:
            want = gain_switch(g, st, labels, agg, moved, frm, to)
            assert gain.hex() == want.hex()
        if gain > 0.0 and j >= 0:
            labels[moved] = to
            agg.move(frm, to, mp.so_b[s], mp.si_b[s], moved.size)
            book.commit(frm, to)
    priced = 0
    for mp, _ in book.rounds:
        assert np.unique(mp.frm).size == mp.frm.size
        priced += mp.nodes.size
    assert priced <= reached + n


@settings(max_examples=60, deadline=None)
@given(seed=strategies.integers(0, 2**31),
       shape=strategies.sampled_from(("chain", "two-cycles", "three-cycles")),
       accept_prob=strategies.sampled_from((1.0, 0.5)))
def test_maximal_correction_forest_is_a_fresh_extraction(seed, shape,
                                                         accept_prob):
    # the forest a sweep hands back is derived from its labels and the old
    # cycle flags; it must equal a fresh extraction, sweep after sweep, on
    # chains, 2-cycles and hand-built 3-cycles (which run never makes)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    edges = random_edges(rng, n, density=float(rng.uniform(0.05, 0.4)))
    if shape == "chain":
        edges += [(i, i + 1, 1.0) for i in range(n - 1)]
    g = build_graph(n, edges)
    st = strengths(g)
    if shape == "chain":
        a = np.where(rng.random(n) < 0.15, np.arange(n),
                     np.maximum(np.arange(n) - 1, 0))
    else:
        a = _random_pointers(rng, g, int(rng.integers(0, 3)))
    if shape == "three-cycles":
        for _ in range(int(rng.integers(1, 3))):
            i, j, k = rng.choice(n, size=3, replace=False)
            a[[i, j, k]] = [j, k, i]
    forest = extract_components(a)
    config = RunConfig(seed=seed % 97, accept_prob=accept_prob)
    stats = RunStats()
    for sweep in range(4):
        forest, improved, _, _ = maximal_correction(g, st, forest, config, 0,
                                                    sweep, None, stats)
        _assert_is_extraction(forest)
        if not improved:
            break
    assert stats.debug_failures == []


def test_debug_flags_a_move_priced_against_a_stale_target(monkeypatch):
    # a commit that took the snapshot price of a touched target would be
    # wrong; the debug check re-prices every applied move from scratch
    monkeypatch.setattr(_MovePrices, "reprice", lambda self, k, frm, to, *_:
                        (float(self.gain[k]), int(self.attach[k])))
    rng = np.random.default_rng(3)
    failures = []
    for seed in range(4):
        g = build_graph(80, random_edges(rng, 80, density=0.08))
        res = run(g, RunConfig(seed=seed, accept_prob=1.0, debug_checks=True))
        failures += res.stats.debug_failures
    assert any(" priced " in msg for msg in failures)


def test_first_max_picks_first_row_maximum_above_floor():
    ptr = np.array([0, 3, 3, 5, 6])  # entry rows 0, 0, 0, 2, 2, 3
    val = np.array([1.0, 3.0, 3.0, 0.5, 0.25, 2.0])
    # row 0 ties at entries 1 and 2; row 1 has no entries; row 2's maximum
    # 0.5 does not beat its floor 0.5; row 3's 2.0 beats its floor 1.0
    np.testing.assert_array_equal(
        _first_max(ptr, val, np.array([0.0, 0.0, 0.5, 1.0])), [1, -1, -1, 5])
    np.testing.assert_array_equal(_first_max(ptr, val, 0.0), [1, -1, 3, 5])
    np.testing.assert_array_equal(_first_max(ptr, val, 3.0), [-1, -1, -1, -1])
    empty = _first_max(np.zeros(1, np.int64), np.empty(0), 0.0)
    assert empty.size == 0 and empty.dtype == np.int64
    np.testing.assert_array_equal(
        _first_max(np.zeros(3, np.int64), np.empty(0), 0.0), [-1, -1])


def test_run_stops_level_at_sweep_cap(rng, monkeypatch):
    edges = random_edges(rng, 60, density=0.1)
    g = build_graph(60, edges)
    assert run(g, RunConfig(seed=1)).stats.sweeps_per_level[0] > 1
    monkeypatch.setattr(detector, "MAX_SWEEPS", 1)
    res = run(g, RunConfig(seed=1, debug_checks=True))
    assert res.stats.sweeps_per_level[0] == 1
    assert "level 0: stopped after 1 sweeps" in res.stats.warnings
    assert res.stats.debug_failures == []


def test_debug_flags_a_level_stopped_with_an_applicable_move(
        rng, monkeypatch):
    # the level of test_run_stops_level_at_sweep_cap, forced to report a
    # dead stop after its first sweep
    g = build_graph(60, random_edges(rng, 60, density=0.1))
    real = detector.maximal_correction

    def forced(*args):
        forest, _, applied, gains = real(*args)
        return forest, False, applied, gains

    monkeypatch.setattr(detector, "maximal_correction", forced)
    res = run(g, RunConfig(seed=1, debug_checks=True))
    assert res.stats.sweeps_per_level[0] == 1
    assert any(msg.startswith("level 0: stopped with ")
               and msg.endswith(" moves still applicable")
               for msg in res.stats.debug_failures)


def test_phase_seconds_leave_out_the_trace_scores(rng, monkeypatch):
    # every level scores its start and end for the trace; neither call is
    # charged to a phase
    g = build_graph(60, random_edges(rng, 60, density=0.1))
    real = detector.score
    delay = 0.2

    def slow(*args):
        time.sleep(delay)
        return real(*args)

    monkeypatch.setattr(detector, "score", slow)
    res = run(g, RunConfig(seed=1))
    assert res.stats.levels >= 2
    assert all(v < delay for v in res.stats.phase_seconds.values())


def test_pool_workers_keep_the_callers_error_state():
    pool = _Pool(2)
    try:
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                pool.map(lambda x: np.float64(x) * 1e300, [1.0, 1e300])
    finally:
        pool.close()


def test_run_edgeless_graph_short_circuits():
    # no edge (m_w 0), and self-loops only (m_w > 0): both have an empty
    # union, so no node can move and one sweep ends the only level
    for edges in ([], [(0, 0, 1.5), (2, 2, 0.25)]):
        g = build_graph(4, edges)
        with np.errstate(all="raise"):
            res = run(g, RunConfig(threads=2, debug_checks=True))
        np.testing.assert_array_equal(res.hierarchy.flat, np.arange(4))
        assert len(res.hierarchy.levels) == 1 and res.stats.levels == 1
        q = oracle_score(4, edges, np.arange(4))
        assert res.final_score == pytest.approx(q, abs=1e-15)
        assert res.stats.sweeps_per_level == [1]
        assert res.stats.trace_level_starts == [0]
        assert res.stats.score_trace == []
        assert res.stats.drift_checks == [(res.final_score,) * 2]
        assert res.stats.debug_failures == []


@settings(max_examples=40, deadline=None)
@given(k=strategies.integers(-1000, 1000), seed=strategies.integers(0, 2**31))
def test_run_does_not_depend_on_weight_scale(k, seed):
    # the two-triangle graph, or a random one with non-dyadic weights; every
    # weight times 2**k stays normal, so the scaled run must match bit for bit
    rng = np.random.default_rng(seed)
    if seed % 4 == 0:
        n, edges = two_triangles()
    else:
        n = int(rng.integers(2, 30))
        edges = random_edges(rng, n, density=float(rng.uniform(0.05, 0.3)),
                             self_loops=seed % 2 == 1)

    def detect(e):
        g = build_graph(n, [(i, j, math.ldexp(w, e)) for i, j, w in edges])
        with np.errstate(all="raise"):
            return run(g, RunConfig(seed=seed % 97, debug_checks=True))

    ref, got = detect(0), detect(k)
    assert got.stats.debug_failures == []
    np.testing.assert_array_equal(got.hierarchy.flat, ref.hierarchy.flat)
    assert len(got.hierarchy.levels) == len(ref.hierarchy.levels)
    for la, lb in zip(got.hierarchy.levels, ref.hierarchy.levels):
        np.testing.assert_array_equal(la, lb)
    assert got.final_score.hex() == ref.final_score.hex()
    assert [x.hex() for x in got.stats.score_trace] == [
        x.hex() for x in ref.stats.score_trace]


def test_positive_correction_noop_when_all_gains_nonnegative():
    n, edges = two_triangles()
    g = build_graph(n, edges)
    st = strengths(g)
    forest = extract_components(np.array([1, 2, 0, 4, 5, 3]))
    forest2, unresolved, gains, left = positive_correction(
        g, st, forest, None)
    assert gains == [] and forest2 is forest


def test_maximal_merges_weak_pair_into_strong_pair_at_p1():
    # {2,3} is weakly tied internally and strongly tied to {0,1}; node 2 is
    # on its pair's cycle, so committing it drags node 3 along: full merge
    edges = [(0, 1, 3.0), (1, 0, 3.0), (2, 3, 0.2), (3, 2, 0.2),
             (1, 2, 2.0), (2, 1, 2.0)]
    g = build_graph(4, edges)
    st = strengths(g)
    forest = extract_components(np.array([1, 0, 3, 2]))
    cfg = RunConfig(accept_prob=1.0)
    forest2, improved, applied, gains = maximal_correction(
        g, st, forest, cfg, level=0, sweep=0, pool=None)
    assert improved and applied == 1
    assert gains[0] == pytest.approx(
        oracle_score(4, edges, [0, 0, 0, 0]) - oracle_score(4, edges, [0, 0, 1, 1]),
        abs=1e-12)
    assert forest2.n_comms == 1


def test_maximal_reports_fixed_point():
    n, edges = two_triangles()
    g = build_graph(n, edges)
    st = strengths(g)
    forest = extract_components(np.array([1, 2, 0, 4, 5, 3]))
    forest2, improved, applied, gains = maximal_correction(
        g, st, forest, RunConfig(accept_prob=1.0), level=0, sweep=0, pool=None)
    assert not improved and applied == 0 and forest2.comm is forest.comm


def _pendant_pull_graph():
    # A = {0, 1, 2} with 2 tied hard to 0; node 1 is pulled to B = {3, 4}
    pairs = [(0, 2, 5.0), (0, 1, 0.5), (1, 2, 0.5), (1, 3, 3.0), (1, 4, 3.0),
             (3, 4, 2.0)]
    edges = pairs + [(j, i, w) for i, j, w in pairs]
    return edges, build_graph(5, edges)


def test_maximal_dead_sweep_ends_the_level():
    # node 1's only planned move is to B, but 2 points at it and would be
    # dragged along, so the move cannot apply whatever the coin says
    edges, g = _pendant_pull_graph()
    st = strengths(g)
    forest = extract_components(np.array([0, 0, 1, 3, 3]))
    q = oracle_score(5, edges, forest.comm)
    assert oracle_score(5, edges, [0, 1, 0, 1, 1]) > q  # node 1 alone
    assert oracle_score(5, edges, [0, 1, 1, 1, 1]) <= q  # with its tail
    cfg = RunConfig(seed=1, accept_prob=0.5)  # seed 1 rejects node 1's coin
    forest2, improved, applied, gains = maximal_correction(
        g, st, forest, cfg, level=0, sweep=0, pool=None)
    assert improved is False and applied == 0 and forest2 is forest
    # with every coin accepted the move is tried and skipped (the next test
    # has the same labels, hence the same plan, and applies it)
    assert maximal_correction(g, st, forest, RunConfig(accept_prob=1.0),
                              level=0, sweep=0, pool=None)[1:3] == (False, 0)


def test_maximal_coin_blocked_sweep_continues_the_level():
    # 2 points at 0 now, so node 1 moves alone and would apply but for the coin
    _, g = _pendant_pull_graph()
    st = strengths(g)
    forest = extract_components(np.array([0, 0, 0, 3, 3]))
    forest2, improved, applied, gains = maximal_correction(
        g, st, forest, RunConfig(seed=1, accept_prob=0.5), level=0, sweep=0,
        pool=None)
    assert improved is True and applied == 0 and forest2 is forest
    assert maximal_correction(g, st, forest, RunConfig(accept_prob=1.0),
                              level=0, sweep=0, pool=None)[2] == 1


def test_run_two_triangles_full_hierarchy():
    n, edges = two_triangles()
    g = build_graph(n, edges)
    res = run(g, RunConfig(accept_prob=1.0))
    hier = res.hierarchy
    assert len(hier.levels) == 2
    np.testing.assert_array_equal(hier.levels[0], [0, 0, 0, 1, 1, 1])
    np.testing.assert_array_equal(hier.levels[1], [0, 1])  # identity on 2 super-nodes
    np.testing.assert_array_equal(hier.flat, [0, 0, 0, 1, 1, 1])
    assert res.final_score == 0.5


def test_run_k4_single_community():
    edges = [(i, j, 1.0) for i in range(4) for j in range(4) if i != j]
    g = build_graph(4, edges)
    res = run(g, RunConfig(accept_prob=1.0))
    np.testing.assert_array_equal(res.hierarchy.flat, [0, 0, 0, 0])
    assert res.final_score == pytest.approx(0.0, abs=1e-12)
    assert res.final_score >= oracle_score(4, edges, np.arange(4)) - 1e-12


def test_run_single_edge_pair():
    g = build_graph(2, [(0, 1, 1.0)])
    res = run(g)
    np.testing.assert_array_equal(res.hierarchy.flat, [0, 1])
    assert len(res.hierarchy.levels) == 1  # first level already identity


def test_run_rejects_empty_graph():
    from synclouvain.graph import Graph
    g = Graph.from_edges(0, np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    with pytest.raises(ValueError):
        run(g)


def test_hierarchy_levels_compose_to_flat(rng):
    edges = random_edges(rng, 40, density=0.15)
    g = build_graph(40, edges)
    res = run(g, RunConfig(seed=9))
    flat = res.hierarchy.levels[0]
    for lv in res.hierarchy.levels[1:]:
        flat = compose_labels(flat, lv)
    np.testing.assert_array_equal(flat, res.hierarchy.flat)
    # final level is the identity partition of its (aggregated) graph
    last = res.hierarchy.levels[-1]
    np.testing.assert_array_equal(last, np.arange(last.size))


def test_aggregation_level_scores_consistent(rng):
    from synclouvain.graph import aggregate
    edges = random_edges(rng, 30, density=0.2)
    g = build_graph(30, edges)
    res = run(g, RunConfig(seed=3))
    # score of each level's labels on its own graph equals the composed score
    gt = g
    flat = None
    for lv in res.hierarchy.levels:
        flat = lv if flat is None else compose_labels(flat, lv)
        st_t = strengths(gt)
        assert score(gt, st_t, lv) == pytest.approx(
            score(g, strengths(g), flat), abs=1e-9)
        if lv.max() + 1 < gt.n:
            gt = aggregate(gt, lv)


def test_determinism_across_threads_and_reruns(rng):
    edges = random_edges(rng, 80, density=0.12)
    g = build_graph(80, edges)
    base = run(g, RunConfig(threads=1, seed=42))
    for threads in (2, 4, 8):
        other = run(g, RunConfig(threads=threads, seed=42))
        np.testing.assert_array_equal(base.hierarchy.flat, other.hierarchy.flat)
        assert len(base.hierarchy.levels) == len(other.hierarchy.levels)
        for la, lb in zip(base.hierarchy.levels, other.hierarchy.levels):
            np.testing.assert_array_equal(la, lb)
        assert base.final_score == other.final_score
    again = run(g, RunConfig(threads=1, seed=42))
    np.testing.assert_array_equal(base.hierarchy.flat, again.hierarchy.flat)


def test_score_trace_monotone_within_levels_and_reconciled(rng):
    # corrections carry strictly positive gains, so each level's stretch of
    # the trace is nondecreasing; the re-assignment between levels has no
    # such guarantee on unstructured random graphs
    for trial in range(4):
        edges = random_edges(rng, 50, density=0.15)
        g = build_graph(50, edges)
        res = run(g, RunConfig(seed=trial))
        trace = np.array(res.stats.score_trace)
        bounds = res.stats.trace_level_starts + [trace.size]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo > 1:
                assert (np.diff(trace[lo:hi]) >= -1e-9).all()
        for incremental, exact in res.stats.drift_checks:
            assert incremental == pytest.approx(exact, abs=1e-9)


def test_debug_checks_clean_on_random_graphs(rng):
    for trial in range(3):
        edges = random_edges(rng, 40, density=0.2, self_loops=True)
        g = build_graph(40, edges)
        res = run(g, RunConfig(seed=trial, debug_checks=True))
        assert res.stats.debug_failures == []
        assert res.stats.unresolved_negative == 0
    # unit weights tie many pair gains, the case the lowest-id tie break
    # must keep free of cycles longer than 2; a single cut may not repair
    # every negative gain here, so unresolved nodes are allowed
    for trial in range(20):
        n = int(rng.integers(5, 40))
        edges = [(i, j, 1.0) for i, j, _ in
                 random_edges(rng, n, density=float(rng.uniform(0.05, 0.4)),
                              self_loops=trial % 2 == 1)]
        g = build_graph(n, edges)
        res = run(g, RunConfig(seed=trial, debug_checks=True))
        assert res.stats.debug_failures == []


def test_small_graph_reaches_good_optimum():
    # sanity preview of the exhaustive acceptance gate on one instance
    from oracles import oracle_best_partition
    rng = np.random.default_rng(5)
    edges = random_edges(rng, 6, density=0.4)
    g = build_graph(6, edges)
    best_q, _ = oracle_best_partition(6, edges)
    res = run(g, RunConfig(accept_prob=1.0, seed=1))
    assert res.final_score >= 0.95 * best_q - 1e-12
