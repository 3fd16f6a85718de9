"""End-to-end acceptance suite.  One test per shipping criterion; each line
of `pytest -v` output is the pass/fail verdict for that criterion."""

import time
import warnings

import numpy as np
import pytest

from synclouvain.bench import BenchSpec, generate, nmi
from synclouvain.detector import RunConfig, run
from synclouvain.graph import Graph, strengths
from synclouvain.quality import (
    CommunityAggregates,
    gain_insert,
    gain_switch,
    local_gain,
    score,
)
from synclouvain.perf import amdahl, measure

from conftest import build_graph, two_triangles
from oracles import (
    oracle_best_partition,
    oracle_score,
    random_edges,
)


@pytest.fixture(scope="module")
def planted_corpus():
    specs = [BenchSpec(N=10_000, k=16, kmax=32, mu_t=0.2, mu_w=0.1,
                       cmin=40, cmax=100, seed=s) for s in range(10)]
    return [generate(sp) for sp in specs]


def test_c01_score_axioms():
    """One community scores 0 within 1e-12; all scores lie in [-1, 1]."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        g = build_graph(n, random_edges(rng, n, density=0.2))
        st = strengths(g)
        assert abs(score(g, st, np.zeros(n, np.int64))) <= 1e-12
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        g = build_graph(n, random_edges(rng, n, density=0.15,
                                        self_loops=True))
        st = strengths(g)
        labels = rng.integers(0, max(1, n // 2), size=n)
        labels = np.unique(labels, return_inverse=True)[1]
        q = score(g, st, labels)
        assert -1.0 <= q <= 1.0
    assert time.perf_counter() - t0 < 10.0


def test_c02_gain_kernels_match_score_differences():
    """insert/local/switch gains equal from-scratch score deltas, 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        edges = random_edges(rng, n, density=0.35, self_loops=True)
        g = build_graph(n, edges)
        st = strengths(g)
        labels = np.unique(rng.integers(0, max(1, n // 2), size=n),
                           return_inverse=True)[1]
        nc = int(labels.max()) + 1
        agg = CommunityAggregates.from_labels(st, labels, nc)

        i = int(rng.integers(0, n))
        # local gain: keep i vs make it a singleton
        solo = labels.copy()
        solo[i] = nc
        got = local_gain(g, st, labels, agg, i)
        want = oracle_score(n, edges, labels) - oracle_score(n, edges, solo)
        assert abs(got - want) <= 1e-12

        # insert gain: i (already isolated) joins community c
        agg_solo = CommunityAggregates.from_labels(st, solo, nc + 1)
        c = int(rng.integers(0, nc))
        if c != labels[i] or (labels == labels[i]).sum() > 1:
            joined = solo.copy()
            joined[i] = c
            got = gain_insert(g, st, solo, agg_solo, i, c)
            want = (oracle_score(n, edges, joined)
                    - oracle_score(n, edges, solo))
            assert abs(got - want) <= 1e-12

        # switch gain: a random block of one community moves to another
        frm = int(labels[i])
        members = np.flatnonzero(labels == frm)
        take = int(rng.integers(1, members.size + 1))
        block = np.sort(rng.choice(members, size=take, replace=False))
        to = int(rng.integers(0, nc + 1))
        if to != frm:
            moved = labels.copy()
            moved[block] = to
            got = gain_switch(g, st, labels, agg, block, frm,
                              to if to < nc else None)
            want = (oracle_score(n, edges, moved)
                    - oracle_score(n, edges, labels))
            assert abs(got - want) <= 1e-12
    assert time.perf_counter() - t0 < 30.0


def test_c03_two_triangle_instance_exact():
    """Two 3-cycles: flat = the triangles, Q = 0.5 exactly."""
    n, edges = two_triangles()
    g = build_graph(n, edges)
    res = run(g, RunConfig(accept_prob=1.0))
    np.testing.assert_array_equal(res.hierarchy.flat, [0, 0, 0, 1, 1, 1])
    assert res.final_score == 0.5
    st = strengths(g)
    assert score(g, st, np.arange(6)) == -1 / 6


def test_c04_near_optimal_on_exhaustive_oracle():
    """n<=8: Q >= 0.95 * exhaustive max; p=1 hits the max in >= 18/20."""
    # fixed 20-graph corpus; the bound is asserted for the default-p run,
    # the exact-hit count for the greedy p=1 run
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    exact_hits = 0
    for case in range(20):
        n = int(rng.integers(4, 9))
        edges = random_edges(rng, n, density=0.3)
        g = build_graph(n, edges)
        best_q, _ = oracle_best_partition(n, edges)
        res_default = run(g, RunConfig(seed=case))
        assert res_default.final_score >= 0.95 * best_q - 1e-12
        res_p1 = run(g, RunConfig(seed=case, accept_prob=1.0))
        if abs(res_p1.final_score - best_q) <= 1e-12:
            exact_hits += 1
    assert exact_hits >= 18
    assert time.perf_counter() - t0 < 120.0


def test_c05_thread_count_never_changes_output(planted_corpus):
    """threads 1/2/4/8 give bit-identical flats on 10 planted graphs."""
    t0 = time.perf_counter()
    for pg in planted_corpus:
        flats = []
        for threads in (1, 2, 4, 8):
            res = run(pg.graph, RunConfig(threads=threads, seed=11))
            flats.append(res.hierarchy.flat)
        for other in flats[1:]:
            np.testing.assert_array_equal(flats[0], other)
    assert time.perf_counter() - t0 < 300.0


def test_c06_score_trace_nondecreasing(planted_corpus):
    """Post-correction score sequence nondecreasing within 1e-9."""
    for pg in planted_corpus:
        res = run(pg.graph, RunConfig(seed=11))
        trace = np.asarray(res.stats.score_trace)
        if trace.size > 1:
            assert float(np.diff(trace).min()) >= -1e-9
        for incremental, exact in res.stats.drift_checks:
            assert incremental == pytest.approx(exact, abs=1e-9)


def test_c07_structural_invariants_every_phase(planted_corpus):
    """Each WCC has exactly one cycle; POSITIVE leaves no negative gain."""
    for pg in planted_corpus[:4]:
        res = run(pg.graph, RunConfig(seed=11, debug_checks=True))
        assert res.stats.debug_failures == []
        assert res.stats.unresolved_negative == 0


def test_c08_planted_recovery_quality():
    """Mean NMI >= 0.9 at (0.2, 0.1); easier mixing recovers better."""
    scores_easy = []
    scores_hard = []
    for seed in range(5):
        easy = generate(BenchSpec(N=1000, k=16, kmax=32, mu_t=0.2, mu_w=0.1,
                                  cmin=40, cmax=100, seed=seed))
        res = run(easy.graph, RunConfig(seed=seed))
        scores_easy.append(nmi(res.hierarchy.flat, easy.truth))
        hard = generate(BenchSpec(N=1000, k=16, kmax=32, mu_t=0.8, mu_w=0.7,
                                  cmin=40, cmax=100, seed=seed))
        res = run(hard.graph, RunConfig(seed=seed))
        scores_hard.append(nmi(res.hierarchy.flat, hard.truth))
    assert float(np.mean(scores_easy)) >= 0.9
    assert float(np.mean(scores_easy)) > float(np.mean(scores_hard))


def test_c09_speedup_model_values():
    """Model speedup: frozen values, boundary cases, and the N->inf limit."""
    assert amdahl(0.95, 12) == pytest.approx(7.7419, abs=1e-3)
    for n in (1, 2, 8, 64):
        assert amdahl(1.0, n) == pytest.approx(n, abs=1e-9)
        assert amdahl(0.0, n) == 1.0
    for p_fr in (0.05, 0.1):
        assert amdahl(p_fr, 10**6) == pytest.approx(1 / (1 - p_fr), abs=1e-6)
    # at large P the N=1e6 gap to the ceiling is itself ~P/(N(1-P)^2)
    gap = 0.95 / (10**6 * 0.05**2)
    assert abs(amdahl(0.95, 10**6) - 20.0) <= gap * 1.01


def test_c10_scaled_speedup_trend_informational():
    """N=1e5 speedup trend; machine-dependent, so warning-only."""
    t0 = time.perf_counter()
    pg = generate(BenchSpec(N=100_000, k=16, kmax=32, mu_t=0.2, mu_w=0.1,
                            cmin=50, cmax=200, seed=1))
    speedup = dict(measure(pg.graph, threads=[1, 2, 4], repeats=1,
                           config=RunConfig(seed=1)))
    assert speedup[1] == 1.0
    assert all(s > 0 for s in speedup.values())
    if not (speedup[4] > speedup[2] > 1.0):
        warnings.warn(
            "speedup trend not observed on this machine: "
            f"S(2)={speedup[2]:.3f} S(4)={speedup[4]:.3f}; informational "
            "only (a shared 2-core host often gives a process one CPU, "
            "which cannot show parallel gains)")
    assert time.perf_counter() - t0 < 600.0
