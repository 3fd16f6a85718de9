import hashlib
import math
import sys
from collections import Counter
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from synclouvain import BenchSpec, Graph, detector, generate
from synclouvain.detector import (
    Hierarchy,
    RunConfig,
    RunStats,
    _Pool,
    _Frontier,
    _commit_rounds,
    _debug_validate,
    _first_max,
    _map_rows,
    find_assignment,
    maximal_correction,
    positive_correction,
    run,
)
from synclouvain.forest import extract_components, subtrees
from synclouvain.graph import (_unit_scaled, canonicalize_labels,
                               compose_labels, strengths)
from synclouvain.quality import (CommunityAggregates, gain_switch, join_gain,
                                 local_gains, score)
from synclouvain.rng import uniform01

from conftest import build_graph, two_triangles
from oracles import (dense_weights, oracle_best_targets, oracle_commit,
                     oracle_local_gains, oracle_row_cache, oracle_score,
                     oracle_split, oracle_tail, random_edges)


def test_config_validation():
    RunConfig(threads=2, seed=5, accept_prob=1.0)
    RunConfig(threads=np.int64(2))
    with pytest.raises(ValueError):
        RunConfig(threads=0)
    for threads in (2.5, 2.0, "2", None):
        with pytest.raises(ValueError):
            RunConfig(threads=threads)
    with pytest.raises(ValueError):
        RunConfig(accept_prob=0.0)
    with pytest.raises(ValueError):
        RunConfig(accept_prob=1.5)
    RunConfig(seed=np.int64(5))
    for seed in (1.5, "1", None):
        with pytest.raises(ValueError):
            RunConfig(seed=seed)
    for accept_prob in ("0.5", None, 0.5j):
        with pytest.raises(ValueError):
            RunConfig(accept_prob=accept_prob)
    # bool is an int subclass, but no thread count, seed or probability
    for field in ("threads", "seed", "accept_prob"):
        for flag in (True, False, np.True_):
            with pytest.raises(ValueError):
                RunConfig(**{field: flag})


def test_numpy_integer_seed_runs_as_its_int(rng):
    g = build_graph(80, random_edges(rng, 80, density=0.08))
    want, got = (run(g, RunConfig(seed=s)) for s in (7, np.int64(7)))
    np.testing.assert_array_equal(got.hierarchy.flat, want.hierarchy.flat)
    assert len(got.hierarchy.levels) == len(want.hierarchy.levels)
    for x, y in zip(got.hierarchy.levels, want.hierarchy.levels):
        np.testing.assert_array_equal(x, y)
    assert got.final_score.hex() == want.final_score.hex()


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


@pytest.mark.parametrize("shape", [(400, 16, 32, 0.2, 0.1),
                                   (400, 16, 32, 0.5, 0.4),
                                   (500, 4, 8, 0.3, 0.2)])
def test_best_targets_bits_match_the_oracle_on_run_pieces(shape, monkeypatch):
    # every piece two runs plan, against the plain kernel of oracles.py, bit
    # for bit, on a planted graph of each benchmark shape; planted weights
    # are not dyadic, so equal bits need the same sums in the same order.
    # Two isolated nodes give degree-0 rows, a separate triangle rows whose
    # neighbors all share their community, and the second run's pieces of
    # 12 entries rows larger than a piece (the sparse graph's largest row
    # has 16).  Both runs go at threads 1 and
    # 2, and must plan pieces whose rows are a node range and pieces with
    # gaps between their rows
    n, k, kmax, mu_t, mu_w = shape
    g = generate(BenchSpec(N=n, k=k, kmax=kmax, mu_t=mu_t, mu_w=mu_w,
                           seed=7)).graph
    tri = n + 2 + np.arange(3)
    g = Graph.from_edges(n + 5, np.r_[g.out_src, tri],
                         np.r_[g.out_dst, np.roll(tri, 1)],
                         np.r_[g.out_w, 0.3, 0.7, 1.1])
    real = detector._best_targets
    seen = set()

    def checked(graph, st, labels, agg, lo, hi, rows, memo=None):
        got = real(graph, st, labels, agg, lo, hi, rows, memo)
        u = graph.neighbor_union()
        want = oracle_best_targets(u.ptr, u.nbr, u.w, st.s_out, st.s_in,
                                   st.m_w, labels, agg.s_out, agg.s_in, rows)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        pos, nbr, _ = u.gather(rows)
        deg = np.bincount(pos, minlength=rows.size)
        away = np.bincount(pos[labels[nbr] != labels[rows][pos]],
                           minlength=rows.size)
        seen.add("node range" if hi - lo == rows.size else "gapped")
        if (deg == 0).any():
            seen.add("degree 0")
        if ((deg > 0) & (away == 0)).any():
            seen.add("own only")
        if rows.size == 1 and deg[0] > detector.PIECE_ENTRIES:
            seen.add("large row")
        return got

    monkeypatch.setattr(detector, "_best_targets", checked)
    for entries in (detector.PIECE_ENTRIES, 12):
        monkeypatch.setattr(detector, "PIECE_ENTRIES", entries)
        for threads in (1, 2):
            run(g, RunConfig(threads=threads, seed=3))
    assert seen == {"node range", "gapped", "degree 0", "own only",
                    "large row"}


def _cache_shapes():
    """(name, graph) of the row-cache checks: a planted graph of each
    benchmark shape, the first of them with each weight scaled by 2**-530,
    2**-500, 1 or 2**500 (once scaled to a unit total, terms near and
    below the subnormal range next to terms of order 2**-11), a
    unit-weight path and an equal-weight clique."""
    for n, k, kmax, mu_t, mu_w in [(400, 16, 32, 0.2, 0.1),
                                   (400, 16, 32, 0.5, 0.4),
                                   (500, 4, 8, 0.3, 0.2)]:
        yield f"planted-{mu_t}", generate(BenchSpec(
            N=n, k=k, kmax=kmax, mu_t=mu_t, mu_w=mu_w, seed=7)).graph
    g = generate(BenchSpec(N=400, k=16, kmax=32, mu_t=0.2, mu_w=0.1,
                           seed=7)).graph
    scale = np.random.default_rng(7).choice([-530, -500, 0, 500], g.out_w.size)
    yield "scales", Graph.from_edges(g.n, g.out_src, g.out_dst,
                                     np.ldexp(g.out_w, scale))
    path = np.arange(299)
    yield "path", Graph.from_edges(300, path, path + 1, np.ones(299))
    i, j = np.nonzero(~np.eye(30, dtype=bool))
    yield "clique", Graph.from_edges(30, i, j, np.ones(i.size))


def test_row_cache_and_settled_rows_match_the_oracles(monkeypatch):
    # at every maximal sweep, once the moved rows are marked stale (x_max
    # +inf) and their neighbors' caches widened: every fresh row's cached
    # w_own is at most, and its x_max at least, a row-by-row recompute at
    # the current labels, with the recompute's bits on the rows none of
    # whose neighbors moved since their plan; and every row the settle test
    # keeps is kept in its community by the full plan kernel of
    # oracles.py.  The second run of each graph writes the cache from 3
    # threads (more than the cores), in pieces of at most 64 entries,
    # switching threads often.  Rows are widened by every widen call, the
    # positive phases' screens included, so those calls are tracked
    real, real_widen = _Frontier.settled, _Frontier.widen
    seen = {"fresh": 0, "settled": 0, "widened": 0, "exact": 0}
    widened = {}  # per memo, kept alive: rows widened since their plan

    def tracked(self, graph, st, labels):
        _, wide = widened.setdefault(id(self), (self, np.zeros(graph.n,
                                                               dtype=bool)))
        moved = np.flatnonzero(self.moved)
        wide[graph.neighbor_union().gather(moved)[1]] = True
        real_widen(self, graph, st, labels)

    def checked(self, graph, st, labels, agg):
        u = graph.neighbor_union()
        keep = real(self, graph, st, labels, agg)
        wide = widened[id(self)][1]
        fresh = np.flatnonzero(self.x_max < np.inf)
        w_own, x_max = oracle_row_cache(u.ptr, u.nbr, u.w, labels, fresh)
        assert (self.w_own[fresh] <= w_own).all()
        assert (self.x_max[fresh] >= x_max).all()
        same = ~wide[fresh]
        assert self.w_own[fresh[same]].tobytes() == w_own[same].tobytes()
        assert self.x_max[fresh[same]].tobytes() == x_max[same].tobytes()
        kept = np.flatnonzero(keep)
        want = oracle_best_targets(u.ptr, u.nbr, u.w, st.s_out, st.s_in,
                                   st.m_w, labels, agg.s_out, agg.s_in, kept)
        np.testing.assert_array_equal(want, labels[kept])
        wide[~keep] = False  # planned next, so exact again
        seen["fresh"] += fresh.size
        seen["settled"] += kept.size
        seen["widened"] += int(wide[kept].sum())
        seen["exact"] += int(same.sum())
        return keep

    monkeypatch.setattr(_Frontier, "settled", checked)
    monkeypatch.setattr(_Frontier, "widen", tracked)
    switch = sys.getswitchinterval()
    try:
        for name, g in _cache_shapes():
            for seed, threads in ((1, 1), (2, 3)):
                monkeypatch.setattr(detector, "PIECE_ENTRIES",
                                    64 if threads > 1 else 2**15)
                sys.setswitchinterval(1e-5 if threads > 1 else switch)
                res = run(g, RunConfig(threads=threads, seed=seed,
                                       debug_checks=True))
                assert res.stats.debug_failures == [], name
    finally:
        sys.setswitchinterval(switch)
    assert seen["settled"] > 0 and seen["fresh"] > seen["settled"]
    assert seen["widened"] > 0 and seen["exact"] > 0


def test_debug_flags_a_row_settled_from_a_corrupt_cache():
    # a cached x_max lowered to -inf settles a row whose plan moves it; the
    # debug comparison plans every row without the cache, so it sees that
    g = generate(BenchSpec(N=300, k=8, kmax=16, mu_t=0.3, mu_w=0.2,
                           seed=4)).graph
    st = strengths(g)
    forest = extract_components(np.arange(g.n))
    labels = forest.comm
    agg = CommunityAggregates.from_labels(st, labels, forest.n_comms)
    failures = {}
    for corrupt in (False, True):
        memo = _Frontier(g.n)
        plan = _map_rows(g, None, lambda lo, hi, r: detector._best_targets(
            g, st, labels, agg, lo, hi, r, memo), np.arange(g.n))
        assert (memo.x_max < np.inf).all()
        if corrupt:
            memo.x_max[np.flatnonzero(plan != labels)[0]] = -np.inf
        stats = RunStats()
        maximal_correction(g, st, forest, RunConfig(seed=1), 0, 0, None,
                           stats, memo)
        failures[corrupt] = [m for m in stats.debug_failures
                             if "frontier plan differs" in m]
    assert failures == {False: [], True: [
        "frontier plan differs from the full plan at level 0 sweep 0"]}


def test_screened_rows_have_no_negative_local_gain(monkeypatch):
    # at every positive phase, each dirty row the screen passes has a local
    # gain of at least 0.0 by the row-by-row oracle, and the planted shapes
    # do pass rows.  The small random graphs make local gains near 0.0
    # common.  The second run of each graph writes the cache from 3
    # threads, in pieces of at most 64 entries, switching threads often
    real = _Frontier.screen
    passed = Counter()

    def checked(self, graph, st, labels, agg):
        rows, safe = real(self, graph, st, labels, agg)
        u = graph.neighbor_union()
        gains = oracle_local_gains(u.ptr, u.nbr, u.w, st.s_out, st.s_in,
                                   st.m_w, labels, safe)
        assert (gains >= 0.0).all()
        passed[name] += safe.size
        return rows, safe

    monkeypatch.setattr(_Frontier, "screen", checked)
    rng = np.random.default_rng(4)
    small = [(f"random-{t}", build_graph(n, random_edges(
        rng, n, density=float(rng.uniform(0.05, 0.4)))))
        for t, n in enumerate(rng.integers(10, 60, 30).tolist())]
    switch = sys.getswitchinterval()
    try:
        for name, g in list(_cache_shapes()) + small:
            for seed, threads in ((1, 1), (2, 3)):
                monkeypatch.setattr(detector, "PIECE_ENTRIES",
                                    64 if threads > 1 else 2**15)
                sys.setswitchinterval(1e-5 if threads > 1 else switch)
                run(g, RunConfig(threads=threads, seed=seed))
    finally:
        sys.setswitchinterval(switch)
    assert all(passed[name] > 0 for name, _ in _cache_shapes()
               if name.startswith("planted"))


def test_debug_flags_a_row_screened_from_a_corrupt_cache():
    # pendant 3 has a negative local gain in the triangle's community; a
    # cached w_own raised by 10 lets the screen pass it, and the debug
    # recompute of every passed row sees that
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
             (3, 0, 0.5), (3, 4, 5.0)]
    g = build_graph(5, edges)
    st = strengths(g)
    forest = extract_components(np.array([1, 2, 0, 0, 4]))
    agg = CommunityAggregates.from_labels(st, forest.comm, forest.n_comms)
    failures = {}
    for corrupt in (False, True):
        memo = _Frontier(g.n)
        _map_rows(g, None, lambda lo, hi, r: detector._best_targets(
            g, st, forest.comm, agg, lo, hi, r, memo), np.arange(g.n))
        assert (memo.x_max < np.inf).all()
        memo.w_own[3] += 10.0 * corrupt
        stats = RunStats()
        positive_correction(g, st, forest, stats, memo)
        failures[corrupt] = [m for m in stats.debug_failures
                             if "screen" in m]
    assert failures == {False: [], True: [
        "positive: the screen passed a negative local gain"]}


def test_debug_flags_a_cut_priced_off_gain_switch(monkeypatch):
    # a batch price one ulp above gain_switch's, on the cut that detaches
    # pendant 3 from the triangle's community, is flagged by the debug
    # comparison of every applied cut with gain_switch
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
             (3, 0, 0.5), (3, 4, 5.0)]
    g = build_graph(5, edges)
    forest = extract_components(np.array([1, 2, 0, 0, 4]))
    real = detector._best_cut
    failures = {}
    for corrupt in (False, True):
        def priced(*args):
            gain, b_nodes, cut = real(*args)
            return (np.nextafter(gain, np.inf) if corrupt else gain,
                    b_nodes, cut)

        monkeypatch.setattr(detector, "_best_cut", priced)
        stats = RunStats()
        gains = positive_correction(g, strengths(g), forest, stats)[2]
        assert len(gains) == 1
        failures[corrupt] = stats.debug_failures
    assert failures[False] == [] and len(failures[True]) == 1
    assert failures[True][0].startswith("positive: cut of node 3 mispriced")


def test_moved_and_entryless_rows_stay_stale_until_planned():
    # x_max is +inf at level start; a plan makes a row fresh, a move of its
    # node makes it stale again at the next settle, widening its neighbors
    # keeps it so, and a piece whose rows have no entry (isolated nodes 4
    # and 5) leaves them stale
    g = build_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    st = strengths(g)
    labels = np.arange(g.n)
    agg = CommunityAggregates.from_labels(st, labels, g.n)
    memo = _Frontier(g.n)
    assert (memo.x_max == np.inf).all()
    for rows in (np.arange(4), np.array([4, 5])):
        _map_rows(g, None, lambda lo, hi, r: detector._best_targets(
            g, st, labels, agg, lo, hi, r, memo), rows)
    np.testing.assert_array_equal(memo.x_max == np.inf,
                                  [0, 0, 0, 0, 1, 1])
    memo.moved[1] = True
    keep = memo.settled(g, st, labels, agg)
    np.testing.assert_array_equal(memo.x_max == np.inf, [0, 1, 0, 0, 1, 1])
    assert not keep[[1, 4, 5]].any()
    memo.moved[[0, 2]] = True  # their neighbor 1 is widened, and stays +inf
    memo.settled(g, st, labels, agg)
    np.testing.assert_array_equal(memo.x_max == np.inf, [1, 1, 1, 0, 1, 1])


def _unresolved_graphs():
    """Unit-weight random graphs whose runs at seed 1 leave a community
    unrepaired in two or more positive phases, so that the next phase
    re-examines it: the first three such generator seeds from 0 up (3, 3
    and 4 such phases)."""
    for seed in (505, 775, 1016):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 40))
        edges = random_edges(rng, n, density=float(rng.uniform(0.05, 0.3)))
        yield f"random-{seed}", build_graph(n, [(i, j, 1.0)
                                                for i, j, _ in edges])


def test_carried_memo_examines_what_a_fresh_memo_finds(monkeypatch):
    # at every positive phase, positive correction with the level's carried
    # memo hands back what it does with a fresh memo, which examines every
    # node: the same forest arrays, unresolved count, gains and left mask
    real = detector.positive_correction
    seen = {"cuts": 0, "unresolved": 0}

    def checked(graph, st, forest, stats=None, memo=None):
        want = real(graph, st, forest)
        got = real(graph, st, forest, stats, memo)
        for f in ("a", "comm", "on_cycle"):
            assert (getattr(got[0], f).tobytes()
                    == getattr(want[0], f).tobytes())
        assert got[0].n_comms == want[0].n_comms
        assert got[1] == want[1]
        assert [x.hex() for x in got[2]] == [x.hex() for x in want[2]]
        np.testing.assert_array_equal(got[3], want[3])
        seen["cuts"] += len(got[2])
        seen["unresolved"] += got[1] > 0
        return got

    monkeypatch.setattr(detector, "positive_correction", checked)
    shapes = [(name, g) for name, g in _cache_shapes()
              if name.startswith("planted")]
    for name, g in shapes + list(_unresolved_graphs()):
        res = run(g, RunConfig(seed=1, debug_checks=True))
        assert res.stats.debug_failures == [], name
    assert seen["cuts"] > 0 and seen["unresolved"] >= 6


def test_debug_flags_a_memo_that_misses_a_bad_community():
    # pendant 3 sits in the triangle's community with a negative local gain;
    # a memo that marks no node dirty does not examine it, and the debug
    # comparison with a full recompute sees that
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
             (3, 0, 0.5), (3, 4, 5.0)]
    g = build_graph(5, edges)
    st = strengths(g)
    forest = extract_components(np.array([1, 0, 0, 0, 4]))
    failures = {}
    for cleared in (False, True):
        memo = _Frontier(g.n)
        memo.dirty[:] = not cleared
        stats = RunStats()
        out = positive_correction(g, st, forest, stats, memo)
        assert (out[2] == []) == cleared
        failures[cleared] = stats.debug_failures
    assert failures == {False: [], True: [
        "positive: a negative local gain lies at a clean node"]}


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


def _random_forest(rng, n, scales=(0,)):
    """A random graph on n nodes, its weights multiplied by 2**s for an s
    drawn from ``scales`` per edge and scaled to a unit total, and the
    forest of random pointers into each node's union neighbors."""
    edges = random_edges(rng, n, density=float(rng.uniform(0.1, 0.4)))
    g = _unit_scaled(build_graph(n, [(i, j, math.ldexp(w, int(s)))
                                     for (i, j, w), s in zip(
                                         edges, rng.choice(scales,
                                                           len(edges)))]))
    u = g.neighbor_union()
    a = np.arange(n)
    for i in range(n):
        if u.ptr[i + 1] > u.ptr[i]:
            a[i] = rng.choice(u.nbr[u.ptr[i]:u.ptr[i + 1]])
    return g, extract_components(a)


def test_best_cut_matches_the_per_cut_oracle(monkeypatch):
    # every piece positive correction prices on random forests against the
    # per-cut loop of oracles.py, bit for bit: the gain, the detached nodes
    # and the cut.  Weights spread over 2**-500, 1 and 2**500, random
    # pointers close 2-cycles, pieces cut before hold slices with nodes of
    # other labels, and at PIECE_ENTRIES 4 most cuts are priced in several
    # batches
    real = detector._best_cut
    seen = Counter()

    def checked(graph, st, labels, agg, tree, c, mem, cycle):
        got = real(graph, st, labels, agg, tree, c, mem, cycle)
        want = oracle_split(graph, st, labels, agg, tree, c, mem, cycle)
        assert got[0].hex() == want[0].hex() and got[2] == want[2]
        if got[2] is not None:
            assert got[1].tobytes() == want[1].tobytes()
        seen[len(got[2] or ())] += 1
        order, start, size, _ = tree
        off = mem[~cycle[mem]]
        seen["batches"] += np.unique(np.cumsum(size[off]) // 4).size
        seen["pieces"] += 1
        if (labels[np.concatenate([order[start[x]:start[x] + size[x]]
                                   for x in off] + [[c]])] != c).any():
            seen["filtered"] += 1
        return got

    monkeypatch.setattr(detector, "_best_cut", checked)
    rng = np.random.default_rng(30)
    for t in range(80):
        g, forest = _random_forest(rng, int(rng.integers(6, 40)),
                                   (-500, 0, 500) if t % 2 else (0,))
        monkeypatch.setattr(detector, "PIECE_ENTRIES", 4 if t % 4 < 2
                            else 2**15)
        positive_correction(g, strengths(g), forest, None)
    assert seen[0] and seen[1] and seen[2] and seen["filtered"]
    assert seen["batches"] > 2 * seen["pieces"]


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


def _commit_against_oracle(g, st, forest, roots, cstar):
    """Commit the ascending candidates ``roots`` of one sweep, moving to
    ``cstar``, in rounds, and check the pointers, labels, aggregates,
    moved mask and gains against ``oracle_commit``, bit for bit, with the
    rounds' debug checks clean.  Returns a Counter of the largest round
    (``biggest``), the rounds, the applied moves, those whose target
    (``late``) or source (``resumed``) an earlier applied move touched,
    the rounds that decide two or more moves into one target (``shared``)
    and those of them where such a move, priced after the earlier applied
    ones of its target, was rejected (``mid``)."""
    labels = forest.comm.copy()
    agg = CommunityAggregates.from_labels(st, labels, forest.n_comms)
    want_a, want_labels, want_agg, moves = oracle_commit(
        g, st, forest.a, labels, agg, roots, cstar)
    a = forest.a.copy()
    moved = np.zeros(g.n, dtype=bool)
    stats = RunStats()
    gain = np.zeros(roots.size)
    applied = np.zeros(roots.size, dtype=bool)
    seen = Counter()
    for done, price, ok in _commit_rounds(
            g, st, labels, agg, forest, subtrees(forest, np.arange(g.n)),
            roots, cstar, a, moved, stats):
        seen["biggest"] = max(seen["biggest"], done.size)
        seen["rounds"] += 1
        gain[done] = price
        applied[done] = ok
        _, group, size = np.unique(cstar[roots[done]], return_inverse=True,
                                   return_counts=True)
        seen["shared"] += int((size > 1).any())
        seen["mid"] += int((~ok & (size[group] > 1)).any())
    assert stats.debug_failures == []
    assert a.tobytes() == want_a.tobytes()
    assert labels.tobytes() == want_labels.tobytes()
    for got, want in ((agg.s_out, want_agg.s_out), (agg.s_in, want_agg.s_in)):
        assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(moved, labels != forest.comm)
    np.testing.assert_array_equal(roots[applied], [mv[0] for mv in moves])
    assert ([x.hex() for x in gain[applied].tolist()]
            == [mv[3].hex() for mv in moves])
    touched = set()
    for _, frm, to, _ in moves:
        seen["late"] += to in touched
        seen["resumed"] += frm in touched
        touched |= {frm, to}
    seen["applied"] = len(moves)
    return seen


@settings(max_examples=80, deadline=None)
@given(seed=strategies.integers(0, 2**31),
       scale=strategies.sampled_from((-500, 0, 500)),
       unit=strategies.booleans(), loops=strategies.booleans(),
       chain=strategies.booleans())
def test_commit_rounds_match_the_serial_oracle(seed, scale, unit, loops,
                                               chain):
    # the commit's rounds against the serial walk, on random targets: any
    # community, a neighbor there or not.  With ``chain`` nodes point at
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
    roots = np.flatnonzero(rng.random(n) < 0.8)
    cstar = ((forest.comm + rng.integers(1, forest.n_comms, size=n))
             % forest.n_comms)
    _commit_against_oracle(g, st, forest, roots, cstar)


def test_commit_rounds_match_the_serial_oracle_on_planted_sweeps():
    # the planned first sweep of planted graphs, with every candidate
    # accepted and with half of them: rounds of several candidates, moves
    # into a target and moves out of a source that an earlier move of the
    # sweep touched
    seen = Counter()
    coins = np.random.default_rng(1)
    for mu_t, mu_w in ((0.2, 0.1), (0.5, 0.4)):
        g = _unit_scaled(generate(BenchSpec(N=400, k=8, kmax=16, mu_t=mu_t,
                                            mu_w=mu_w, seed=7)).graph)
        st = strengths(g)
        forest = positive_correction(
            g, st, extract_components(find_assignment(g, st)))[0]
        agg = CommunityAggregates.from_labels(st, forest.comm,
                                              forest.n_comms)
        cstar = detector._best_targets(g, st, forest.comm, agg, 0, g.n,
                                       np.arange(g.n))
        cand = np.flatnonzero(cstar != forest.comm)
        for roots in (cand, cand[coins.random(cand.size) < 0.5]):
            got = _commit_against_oracle(g, st, forest, roots, cstar)
            seen["biggest"] = max(seen["biggest"], got.pop("biggest"))
            seen.update(got)
    assert seen["biggest"] >= 2
    assert seen["late"] >= 1
    assert seen["resumed"] >= 1
    assert seen["shared"] >= 1


def _crowded(rng, scales):
    """A sweep whose candidates crowd onto a few targets: 2 or 3 cliques of
    3 to 5 nodes, each a community (its nodes point at its first), then 8
    to 40 leaves, each tied to a random clique node.  A leaf points at
    itself or, tied to it, at an earlier leaf, and a third as many random
    leaf pairs are tied, so that some tails moving to one target touch.
    Each weight is drawn from [0.5, 2) and scaled by 2**s, s drawn from
    ``scales``.  Returns (graph, forest, roots, cstar): the roots are about
    90% of the leaves, and each leaf's target is a random clique's
    community."""
    c, size, nl = (int(x) for x in rng.integers((2, 3, 8), (4, 6, 41)))
    n0 = c * size
    edges = [(b + x, b + y) for b in range(0, n0, size)
             for x in range(size) for y in range(size) if x != y]
    a = list(np.arange(n0) // size * size)
    for v in range(n0, n0 + nl):
        edges.append((v, int(rng.integers(0, n0))))
        a.append(int(rng.integers(n0, v)) if v > n0 and rng.random() < 0.3
                 else v)
        edges += [(v, a[v])] if a[v] != v else []
    edges += [tuple(rng.choice(nl, 2, replace=False) + n0)
              for _ in range(nl // 3)]
    src, dst = np.array(edges).T
    w = np.ldexp(rng.uniform(0.5, 2.0, src.size),
                 rng.choice(scales, src.size))
    g = _unit_scaled(Graph.from_edges(n0 + nl, src, dst, w))
    forest = extract_components(np.array(a))
    cstar = forest.comm[rng.integers(0, c, n0 + nl) * size]
    return g, forest, n0 + np.flatnonzero(rng.random(nl) < 0.9), cstar


def test_commit_rounds_match_the_serial_oracle_on_crowded_targets():
    # leaves crowding onto a few targets, against the serial walk, bit for
    # bit: rounds decide several moves into one target, tails next to an
    # earlier one of their target are priced with it in the target, and,
    # with weights spread over 2**-500, 1 and 2**500, some moves priced
    # after the earlier applied ones of their target are rejected
    seen = Counter()

    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=strategies.integers(0, 2**31), wide=strategies.booleans())
    def check(seed, wide):
        g, forest, roots, cstar = _crowded(np.random.default_rng(seed),
                                           (-500, 0, 500) if wide else (0,))
        seen.update(_commit_against_oracle(g, strengths(g), forest, roots,
                                           cstar))

    check()
    assert seen["shared"] > 0 and seen["mid"] > 0


def _four_cliques(leaves=4000):
    """4 unit 10-node cliques, each a community rooted at its first node,
    and ``leaves`` singleton leaves, leaf v tied by one unit edge to node
    (v mod 4) * 10 + v mod 10."""
    i, j = np.nonzero(~np.eye(10, dtype=bool))
    base = 10 * np.arange(4)[:, None]
    leaf = 40 + np.arange(leaves)
    src = np.concatenate([(base + i).ravel(), leaf])
    dst = np.concatenate([(base + j).ravel(), leaf % 4 * 10 + leaf % 10])
    g = _unit_scaled(Graph.from_edges(40 + leaves, src, dst,
                                      np.ones(src.size)))
    a = np.arange(g.n)
    a[:40] = np.arange(40) // 10 * 10
    return g, extract_components(a)


def test_crowded_sweep_decides_in_one_round():
    # 4,000 leaves planned into 4 cliques share only their targets and no
    # edge, so one round decides them all, as the serial walk does; at
    # accept_prob 1.0 the sweep applies all 4,000 with its debug checks
    # clean
    g, forest = _four_cliques()
    st = strengths(g)
    agg = CommunityAggregates.from_labels(st, forest.comm, forest.n_comms)
    cstar = detector._best_targets(g, st, forest.comm, agg, 0, g.n,
                                   np.arange(g.n))
    cand = np.flatnonzero(cstar != forest.comm)
    assert cand.size == 4000
    got = _commit_against_oracle(g, st, forest, cand, cstar)
    assert got["rounds"] == 1 and got["applied"] == 4000
    stats = RunStats()
    assert maximal_correction(g, st, forest, RunConfig(accept_prob=1.0), 0,
                              0, None, stats)[2] == 4000
    assert stats.debug_failures == []


def _hand_sweep(n, pairs, a):
    """One sweep with every coin accepted over the forest of the pointers
    ``a`` on the graph of the symmetric ``pairs`` (i, j, w).  Returns the
    candidates, each one's snapshot price of moving its tail alone, and
    the candidates that applied: those whose pointer changed."""
    edges = [e for i, j, w in pairs for e in ((i, j, w), (j, i, w))]
    g = _unit_scaled(build_graph(n, edges))
    st = strengths(g)
    forest = extract_components(np.array(a))
    agg = CommunityAggregates.from_labels(st, forest.comm, forest.n_comms)
    cstar = detector._best_targets(g, st, forest.comm, agg, 0, n,
                                   np.arange(n))
    cand = np.flatnonzero(cstar != forest.comm)
    alone = [gain_switch(g, st, forest.comm, agg,
                         np.array(oracle_tail(a, i)), forest.comm[i],
                         cstar[i]) for i in cand.tolist()]
    stats = RunStats()
    out = maximal_correction(g, st, forest, RunConfig(accept_prob=1.0), 0, 0,
                             None, stats)[0]
    assert stats.debug_failures == []
    _assert_is_extraction(out)
    return cand.tolist(), alone, np.flatnonzero(out.a != a).tolist()


def test_commit_applies_two_leaves_of_one_community():
    # leaves 1 and 2 of {0, 1, 2} each join their own 2-cycle: the second
    # leaf's tail is untouched by the first move, so both apply
    cand, alone, applied = _hand_sweep(7, [
        (0, 1, 0.1), (0, 2, 0.1), (1, 3, 5), (1, 4, 5), (3, 4, 5),
        (2, 5, 5), (2, 6, 5), (5, 6, 5)], [0, 0, 0, 4, 3, 6, 5])
    assert cand == applied == [1, 2]


def test_commit_drops_a_parent_after_its_childs_move():
    # 1 -> 2 -> 0: child 1 leaves first, so parent 2's tail lost a node
    cand, alone, applied = _hand_sweep(7, [
        (0, 2, 0.1), (1, 2, 0.1), (1, 3, 5), (1, 4, 5), (3, 4, 5),
        (2, 5, 5), (2, 6, 5), (5, 6, 5)], [0, 2, 0, 4, 3, 6, 5])
    assert cand == [1, 2] and min(alone) > 0.0
    assert applied == [1]


@pytest.mark.parametrize("attach, applied", [(3, [1]), (6, [1, 3])])
def test_commit_drops_a_candidate_whose_tail_an_attach_reached(attach,
                                                                applied):
    # 1 joins {2, 3, 6} (3 -> 2, 6 -> 2) at its one neighbor there, then 3
    # would leave for {4, 5}: attached at 3, 1 now hangs in 3's tail, which
    # is dropped; attached at 6, 3's tail is untouched and applies
    cand, alone, got = _hand_sweep(7, [
        (0, 1, 0.1), (2, 3, 0.1), (2, 6, 5), (3, 4, 10), (3, 5, 10),
        (4, 5, 10), (1, attach, 2)], [0, 0, 2, 2, 5, 4, 2])
    assert cand == [1, 3] and min(alone) > 0.0
    assert got == applied


def test_commit_drops_an_on_cycle_candidate_of_a_touched_community():
    # leaf 0 of {0, 1, 2}, rooted at 2, leaves first; 2 lies on the cycle,
    # so its tail is the whole community, which lost a node
    cand, alone, applied = _hand_sweep(7, [
        (0, 2, 0.1), (1, 2, 0.1), (0, 3, 5), (0, 4, 5), (3, 4, 5),
        (2, 5, 5), (2, 6, 5), (5, 6, 10)], [2, 2, 2, 4, 3, 6, 5])
    assert cand == [0, 2] and min(alone) > 0.0
    assert applied == [0]


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
    # a commit that priced every round at the sweep's snapshot would be
    # wrong once a move touched a later round's target; the debug check
    # prices every applicable move afresh
    real = detector._MovePrices
    snaps = {}  # per sweep, keyed by its one preorder, which it keeps alive

    def stale(graph, st, labels, agg, order, *rest):
        if id(order) not in snaps:
            snaps[id(order)] = (order, labels.copy(), CommunityAggregates(
                agg.s_out.copy(), agg.s_in.copy()))
        _, labels, agg = snaps[id(order)]
        return real(graph, st, labels, agg, order, *rest)

    monkeypatch.setattr(detector, "_MovePrices", stale)
    rng = np.random.default_rng(3)
    failures = []
    for seed in range(4):
        g = build_graph(80, random_edges(rng, 80, density=0.08))
        res = run(g, RunConfig(seed=seed, accept_prob=1.0, debug_checks=True))
        failures += res.stats.debug_failures
    assert any(" priced " in msg for msg in failures)


def test_debug_flags_a_round_ready_by_its_source_alone(monkeypatch):
    # a readiness rule that looks only at sources lets a round hold a
    # candidate whose source is another's target; the debug check of the
    # rounds' bound flags it
    real = detector._ready
    monkeypatch.setattr(detector, "_ready",
                        lambda frm, to, n_comms: real(frm, frm, n_comms))
    rng = np.random.default_rng(3)
    failures = []
    for seed in range(4):
        g = build_graph(80, random_edges(rng, 80, density=0.08))
        res = run(g, RunConfig(seed=seed, accept_prob=1.0, debug_checks=True))
        failures += res.stats.debug_failures
    assert any(msg.endswith(": a round shares a source") for msg in failures)


def test_debug_flags_pricing_blind_to_earlier_tails_of_a_target(
        monkeypatch):
    # pricing each tail without the earlier tails of its target in its
    # round (``set_sums`` without ``owner``) misses the edges into them
    # once they moved; the debug walk over each round's decided moves sees
    # that
    real = detector.set_sums
    monkeypatch.setattr(detector, "set_sums", lambda *args: real(*args[:8]))
    failures = []
    for seed in range(20):
        g, forest, roots, cstar = _crowded(np.random.default_rng(seed), (0,))
        st = strengths(g)
        labels = forest.comm.copy()
        stats = RunStats()
        for _ in _commit_rounds(
                g, st, labels, CommunityAggregates.from_labels(
                    st, labels, forest.n_comms), forest,
                subtrees(forest, np.arange(g.n)), roots, cstar,
                forest.a.copy(), np.zeros(g.n, dtype=bool), stats):
            pass
        failures += stats.debug_failures
    assert any(" priced " in msg for msg in failures)


def test_first_max_picks_first_row_maximum_above_floor():
    row = np.array([0, 0, 0, 2, 2, 3, 4])
    val = np.array([1.0, 3.0, 3.0, 0.5, 0.25, 2.0, -np.inf])
    # row 0 ties at entries 1 and 2; row 1 has no entries; row 2's maximum
    # 0.5 does not beat its floor 0.5; row 3's 2.0 beats its floor 1.0;
    # row 4's only value is -inf, which beats no floor
    np.testing.assert_array_equal(
        _first_max(5, row, val, np.array([0.0, 0.0, 0.5, 1.0, -np.inf])),
        [1, -1, -1, 5, -1])
    np.testing.assert_array_equal(_first_max(5, row, val, 0.0),
                                  [1, -1, 3, 5, -1])
    np.testing.assert_array_equal(_first_max(5, row, val, -np.inf),
                                  [1, -1, 3, 5, -1])
    np.testing.assert_array_equal(_first_max(5, row, val, 3.0),
                                  [-1, -1, -1, -1, -1])
    empty = _first_max(0, np.empty(0, np.int64), np.empty(0), 0.0)
    assert empty.size == 0 and empty.dtype == np.int64
    np.testing.assert_array_equal(
        _first_max(2, np.empty(0, np.int64), np.empty(0), 0.0), [-1, -1])


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


def test_setup_seconds_time_the_level_0_union_build(rng, monkeypatch):
    # the level-0 union is built inside _unit_scaled, before any phase: a
    # slow build of it (the later levels' unions are built in the phases)
    # shows in setup_seconds and in no phase, and setup plus the phases
    # stay within the wall time
    from synclouvain import graph as graph_mod
    g = build_graph(60, random_edges(rng, 60, density=0.1))
    real = graph_mod._build_union
    delay = 0.2

    def slow(graph):
        time.sleep(delay if graph is g else 0.0)
        return real(graph)

    monkeypatch.setattr(graph_mod, "_build_union", slow)
    st = run(g, RunConfig(seed=1)).stats
    assert delay <= st.setup_seconds < 2 * delay
    assert all(v < delay for v in st.phase_seconds.values())
    assert st.setup_seconds + sum(st.phase_seconds.values()) <= st.wall_seconds


def test_pool_workers_keep_the_callers_error_state():
    pool = _Pool(2)
    try:
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                pool.map(lambda x: np.float64(x) * 1e300, [1.0, 1e300])
    finally:
        pool.close()


def test_run_closes_its_pool_when_a_phase_raises(rng, monkeypatch):
    # tiny pieces make the assignment hand work to the pool's worker, which
    # must be gone once the failing maximal phase has left ``run``
    g = build_graph(40, random_edges(rng, 40, density=0.2))
    base = threading.active_count()

    def fail(*args, **kwargs):
        raise RuntimeError("phase failed")

    monkeypatch.setattr(detector, "PIECE_ENTRIES", 8)
    monkeypatch.setattr(detector, "maximal_correction", fail)
    with pytest.raises(RuntimeError, match="phase failed"):
        run(g, RunConfig(threads=2))
    assert threading.active_count() == base


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
    # no community holds a negative local gain, on two triangles or on an
    # edgeless graph, so the phase examines every dirty node, clears the
    # mask and hands back the input forest untouched
    n, edges = two_triangles()
    for g, a in ((build_graph(n, edges), np.array([1, 2, 0, 4, 5, 3])),
                 (build_graph(5, []), np.arange(5))):
        forest = extract_components(a)
        memo = _Frontier(g.n)
        stats = RunStats()
        forest2, unresolved, gains, left = positive_correction(
            g, strengths(g), forest, stats, memo)
        assert forest2 is forest and unresolved == 0 and gains == []
        assert left.dtype == bool and left.shape == (g.n,)
        assert not left.any() and not memo.dirty.any()
        assert not memo.moved.any() and stats.debug_failures == []


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


def test_coin_accepts_more_at_each_later_sweep_of_a_level(monkeypatch):
    # 20 disjoint copies of the pendant pull; the commit's first call takes
    # the accepted candidates, all of them at accept_prob 1.0
    copies = 20
    base = 5 * np.arange(copies)[:, None]
    edges, _ = _pendant_pull_graph()
    src, dst, w = (np.array(x) for x in zip(*edges))
    g = Graph.from_edges(5 * copies, (base + src).ravel(),
                         (base + dst).ravel(), np.tile(w, copies))
    st = strengths(g)
    forest = extract_components((base + [0, 0, 0, 3, 3]).ravel())
    calls = []
    real = detector._commit_rounds

    def spy(graph, st, labels, agg, forest, tree, roots, *rest):
        calls.append(roots.copy())
        return real(graph, st, labels, agg, forest, tree, roots, *rest)

    monkeypatch.setattr(detector, "_commit_rounds", spy)
    maximal_correction(g, st, forest, RunConfig(accept_prob=1.0), level=0,
                       sweep=0, pool=None)
    cand = calls[0]
    sizes = []
    for sweep in range(6):
        calls.clear()
        maximal_correction(g, st, forest, RunConfig(seed=1, accept_prob=0.5),
                           level=0, sweep=sweep, pool=None)
        want = cand[uniform01(1, (0, sweep), cand)
                    < 1 - (1 - 0.5) ** (sweep + 1)]
        np.testing.assert_array_equal(calls[0], want)
        sizes.append(want.size)
    assert 0 < sizes[0] < sizes[-1] < cand.size


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_coin_rejected_move_applies_at_the_first_later_sweep_that_passes(p):
    # seed 1 rejects node 1's coin at sweep 0 (as in the dead-sweep test); the
    # unchanged forest offers the same move at every later sweep, and the
    # first sweep whose draw passes its rising threshold applies it.  Node
    # 1's draw at sweep 1 is 0.31: below 0.3's second threshold, 0.51, and
    # not below 0.3 itself
    _, g = _pendant_pull_graph()
    st = strengths(g)
    forest = extract_components(np.array([0, 0, 0, 3, 3]))
    cfg = RunConfig(seed=1, accept_prob=p)
    passes = [uniform01(1, (0, s), [1])[0] < 1 - (1 - p) ** (s + 1)
              for s in range(8)]
    first = passes.index(True)
    assert first == 1
    for sweep in range(first + 1):
        forest2, improved, applied, _ = maximal_correction(
            g, st, forest, cfg, level=0, sweep=sweep, pool=None)
        assert improved is True and applied == (sweep == first)
    assert forest2.comm[1] == forest2.comm[3]


CERTAIN_COIN_DIGEST = (
    "9f7546617e22ee496bdc71d6f03b31cfc625d3d504e37b86a016731e83201792")


def test_certain_coin_runs_keep_their_bits():
    # at accept_prob 1.0 every sweep's threshold is 1.0, so every candidate
    # is accepted, as before sweeps had their own threshold: a digest of
    # flat, levels, final_score and sweeps over the random corpus of
    # tools/equivalence.py, recorded before the schedule, still matches
    # (re-record it when a change alters partitions on purpose)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
    try:
        from equivalence import random_graphs
    finally:
        sys.path.pop(0)
    digest = hashlib.sha256()
    for graph in random_graphs(np.random.default_rng(0), 60):
        res = run(graph, RunConfig(accept_prob=1.0))
        for labels in [res.hierarchy.flat, *res.hierarchy.levels]:
            digest.update(labels.tobytes())
        digest.update(res.final_score.hex().encode())
        digest.update(repr(res.stats.sweeps_per_level).encode())
    assert digest.hexdigest() == CERTAIN_COIN_DIGEST


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


def adversarial_shapes():
    """Named accepted shapes that stress the corrections: deep pointer
    tails (paths, a cycle), one wide tail (a star), all-tie gains (an
    equal-weight clique and a chain of cliques) and weights at both ends
    of the double range."""
    rng = np.random.default_rng(7)
    path = np.arange(299)
    ring = np.arange(300)
    spokes = np.arange(1, 201)
    i, j = np.nonzero(~np.eye(5, dtype=bool))
    base = 5 * np.arange(20)[:, None]
    chain_src = np.concatenate([(base + i).ravel(), base[1:, 0] - 1])
    chain_dst = np.concatenate([(base + j).ravel(), base[1:, 0]])
    ci, cj = np.nonzero(~np.eye(30, dtype=bool))
    adj = rng.random((80, 80)) < 0.1
    adj[np.diag_indices(80)] = False
    wi, wj = np.nonzero(adj)
    return {
        "path": Graph.from_edges(300, path, path + 1, np.ones(299)),
        "path-weighted": Graph.from_edges(300, path, path + 1,
                                          rng.uniform(0.1, 3.0, 299)),
        "cycle": Graph.from_edges(300, ring, (ring + 1) % 300, np.ones(300)),
        "star": Graph.from_edges(201, 0 * spokes, spokes, np.ones(200)),
        "clique": Graph.from_edges(30, ci, cj, np.ones(ci.size)),
        "clique-chain": Graph.from_edges(100, chain_src, chain_dst,
                                         np.ones(chain_src.size)),
        "wide-weights": Graph.from_edges(
            80, wi, wj, 10.0 ** rng.uniform(-300, 300, wi.size)),
    }


@pytest.mark.parametrize("name", sorted(adversarial_shapes()))
def test_adversarial_shapes_clean_and_thread_invariant(name):
    g = adversarial_shapes()[name]
    res = [run(g, RunConfig(threads=t, seed=3, debug_checks=True))
           for t in (1, 2)]
    for r in res:
        assert r.stats.debug_failures == []
    one, two = res
    np.testing.assert_array_equal(one.hierarchy.flat, two.hierarchy.flat)
    assert len(one.hierarchy.levels) == len(two.hierarchy.levels)
    for la, lb in zip(one.hierarchy.levels, two.hierarchy.levels):
        np.testing.assert_array_equal(la, lb)
    scaled = _unit_scaled(g)
    for r in res:
        assert r.final_score == score(scaled, strengths(scaled),
                                      r.hierarchy.flat)
