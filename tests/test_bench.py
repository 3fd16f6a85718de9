import math
import tracemalloc

import numpy as np
import pytest

from synclouvain.bench import (BenchSpec, PlantedGraph, _draw_degrees,
                               _draw_sizes, generate, nmi, write_benchmark)
from synclouvain.detector import RunConfig, run
from synclouvain.graph import Graph, load_edge_list, read_partition

from oracles import oracle_draws, oracle_generate, oracle_nmi


def spec_1k(**kw):
    base = dict(N=1000, k=16, kmax=32, mu_t=0.2, mu_w=0.1,
                cmin=40, cmax=100, seed=7)
    base.update(kw)
    return BenchSpec(**base)


def test_spec_validation():
    spec_1k()
    with pytest.raises(ValueError, match="mu_w"):
        spec_1k(mu_t=0.1, mu_w=0.2)
    with pytest.warns(UserWarning):
        spec_1k(mu_t=0.3, mu_w=0.3)
    with pytest.raises(ValueError, match="k"):
        spec_1k(k=40, kmax=32)
    with pytest.raises(ValueError, match="k"):
        spec_1k(N=30, kmax=30)
    with pytest.raises(ValueError, match="cmin"):
        spec_1k(cmin=2)
    with pytest.raises(ValueError, match="cmax"):
        spec_1k(cmin=50, cmax=40)
    with pytest.raises(ValueError, match="zero-weight"):
        spec_1k(mu_w=0.0)


def test_infeasible_size_range_rejected():
    with pytest.raises(ValueError, match="partitioned"):
        generate(BenchSpec(N=7, k=2, kmax=3, mu_t=0.2, mu_w=0.1,
                           cmin=5, cmax=6, seed=1))


def test_reproducible_and_seed_sensitive():
    a = generate(spec_1k())
    b = generate(spec_1k())
    assert a.graph == b.graph
    np.testing.assert_array_equal(a.truth, b.truth)
    c = generate(spec_1k(seed=8))
    assert not (a.graph == c.graph)


def test_community_sizes_and_coverage():
    pg = generate(spec_1k())
    assert pg.truth.shape == (1000,)
    sizes = np.bincount(pg.truth)
    assert sizes.sum() == 1000
    assert sizes.min() >= 40 and sizes.max() <= 100
    # labels are canonical: first occurrence in ascending order
    first = np.sort(np.unique(pg.truth, return_index=True)[1])
    assert (np.diff(pg.truth[first]) == 1).all()


def test_zero_topology_mixing_disconnects_communities():
    with pytest.warns(UserWarning):
        spec = BenchSpec(N=400, k=8, kmax=16, mu_t=0.0, mu_w=0.0,
                         cmin=40, cmax=100, seed=3)
    pg = generate(spec)
    g = pg.graph
    assert (pg.truth[g.out_dst] == pg.truth[g.out_src]).all()
    assert (g.out_w == 1.0).all()


def test_degree_targets():
    pg = generate(spec_1k())
    g = pg.graph
    out_deg = np.bincount(g.out_src, minlength=g.n)
    assert abs(out_deg.mean() - 16) <= 1.6
    assert out_deg.max() <= 32


def test_mean_degree_at_table_scale():
    # k=50 with small communities spills intra stubs but keeps degrees
    specs = [BenchSpec(N=1000, k=50, kmax=100, mu_t=0.2, mu_w=0.1, seed=s)
             for s in (21, 22)]
    graphs = [generate(s).graph for s in specs]
    assert not (graphs[0] == graphs[1])
    for g in graphs:
        mean_deg = g.out_dst.size / g.n
        assert 45 <= mean_deg <= 55


def test_mixing_fidelity():
    inter_edge = []
    inter_strength = []
    for seed in range(5):
        pg = generate(spec_1k(N=2000, seed=seed))
        g = pg.graph
        cross = pg.truth[g.out_src] != pg.truth[g.out_dst]
        inter_edge.append(cross.mean())
        inter_strength.append(g.out_w[cross].sum() / g.out_w.sum())
    assert abs(np.mean(inter_edge) - 0.2) <= 0.05
    assert abs(np.mean(inter_strength) - 0.1) <= 0.05


def test_weights_take_two_levels_aligned_with_truth():
    pg = generate(spec_1k())
    g = pg.graph
    cross = pg.truth[g.out_src] != pg.truth[g.out_dst]
    w_inter = 0.1 * (1 - 0.2) / 0.2
    np.testing.assert_allclose(g.out_w[~cross], 0.9)
    np.testing.assert_allclose(g.out_w[cross], w_inter)


def spec_of(kw):
    """``BenchSpec(**kw)``, which warns when mu_t == mu_w."""
    if kw["mu_t"] != kw["mu_w"]:
        return BenchSpec(**kw)
    with pytest.warns(UserWarning):
        return BenchSpec(**kw)


# (k, kmax, mu_t, mu_w) of the benchmark's three workload shapes
BENCH_SHAPES = ((16, 32, 0.2, 0.1), (16, 32, 0.5, 0.4), (4, 8, 0.3, 0.2))


def generator_grid():
    for k, kmax, mu_t, mu_w in BENCH_SHAPES:
        for seed in (1, 2):
            yield dict(N=1000, k=k, kmax=kmax, mu_t=mu_t, mu_w=mu_w,
                       seed=seed)
    # intra stubs spill beyond small communities; high mixing; no mixing
    yield dict(N=1000, k=50, kmax=100, mu_t=0.2, mu_w=0.1, cmin=10, seed=3)
    yield dict(N=1000, k=16, kmax=32, mu_t=0.9, mu_w=0.8, cmin=30, cmax=60,
               seed=4)
    yield dict(N=1000, k=8, kmax=16, mu_t=0.0, mu_w=0.0, cmin=40, cmax=100,
               seed=5)


GRID_IDS = dict(ids=lambda kw: "-".join(
    f"{key}{value}" for key, value in kw.items()))


def block_counts(sizes, src, dst):
    """Per node, its edges to its own block and to other blocks."""
    truth = np.repeat(np.arange(len(sizes)), sizes)
    same = truth[src] == truth[dst]
    n = truth.size
    return (np.bincount(src[same], minlength=n),
            np.bincount(src[~same], minlength=n))


@pytest.mark.parametrize("kw", list(generator_grid()), **GRID_IDS)
def test_generate_matches_per_node_oracle_bit_for_bit(kw):
    # the oracles' edges come unmerged in draw order; ``from_edges`` sorts
    # them, so equal arrays mean the same edges and weights.  The original
    # loop pins the truth and every node's intra and inter counts; the
    # node-by-node writing of today's draws pins the targets
    spec = spec_of(kw)
    pg = generate(spec)
    g = pg.graph
    src, dst, _, truth = oracle_generate(spec)
    assert pg.truth.tobytes() == truth.tobytes()
    sizes = np.bincount(truth)
    for got, want in zip(block_counts(sizes, g.out_src, g.out_dst),
                         block_counts(sizes, src, dst)):
        assert got.tobytes() == want.tobytes()
    ref = Graph.from_edges(spec.N, *oracle_draws(spec))
    for name in ("out_src", "out_dst", "out_w"):
        got, want = getattr(g, name), getattr(ref, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name


def test_generate_places_outsiders_that_fill_the_rest_of_the_graph():
    # two blocks of 200 and nearly every stub inter: a node of degree 200
    # wants every node of the other block.  Drawing just a node's shortfall
    # each round would take about 1.6 * 200 rounds to place the last few,
    # past the cap of 200; drawing short * out // free places them all
    spec = BenchSpec(N=400, k=110, kmax=200, mu_t=0.999, mu_w=0.5,
                     cmin=200, cmax=200, seed=2)
    pg = generate(spec)
    g = pg.graph
    inter = pg.truth[g.out_src] != pg.truth[g.out_dst]
    assert (np.bincount(g.out_src[inter], minlength=spec.N) == 200).any()
    ref = Graph.from_edges(spec.N, *oracle_draws(spec))
    for name in ("out_src", "out_dst", "out_w"):
        assert getattr(g, name).tobytes() == getattr(ref, name).tobytes()


@pytest.mark.parametrize("kw", list(generator_grid()) + [
    # blocks of 3 to 5 nodes: nearly every node spills, and its outsiders
    # fill much of the rest of the graph
    dict(N=60, k=20, kmax=40, mu_t=0.1, mu_w=0.05, cmin=3, cmax=5, seed=6),
    # nodes whose outsiders are every node of the other block
    dict(N=400, k=110, kmax=200, mu_t=0.999, mu_w=0.5, cmin=200, cmax=200,
         seed=2),
], **GRID_IDS)
def test_generated_targets_are_distinct_and_in_place(kw):
    # a node's edge count equals its degree only if no (src, dst) pair was
    # drawn twice, as ``from_edges`` merges repeats; intra edges, told by
    # their weight, stay in the block and off the node, inter edges leave
    spec = spec_of(kw)
    pg = generate(spec)
    g = pg.graph
    rng = np.random.default_rng(spec.seed)
    _draw_sizes(rng, spec.N, spec.cmin, spec.cmax, spec.mu_t > 0.0)
    deg = _draw_degrees(rng, spec.N, spec.k, spec.kmax)
    assert np.bincount(g.out_src, minlength=spec.N).tobytes() == deg.tobytes()
    intra = g.out_w == 1.0 - spec.mu_w
    assert (intra if spec.mu_t == 0.0 else ~intra).any()
    same = pg.truth[g.out_src] == pg.truth[g.out_dst]
    assert (same == intra).all()
    assert (g.out_src != g.out_dst).all()


@pytest.mark.parametrize("shape", BENCH_SHAPES, ids=("file", "mixed",
                                                     "sparse"))
def test_generator_statistics_over_16_seeds(shape):
    # mean degree, the share of edges inside blocks and the share of weight
    # leaving them, averaged over 16 graphs, against the spec; and the
    # targets' places: intra slots spread evenly over a block, and
    # outsiders fall before a block as often as the nodes before it
    k, kmax, mu_t, mu_w = shape
    deg, intra, leave, slot, before = [], [], [], [], []
    for seed in range(16):
        pg = generate(BenchSpec(N=1000, k=k, kmax=kmax, mu_t=mu_t,
                                mu_w=mu_w, seed=seed))
        g, truth = pg.graph, pg.truth
        lo = np.searchsorted(truth, truth)
        size = np.bincount(truth)[truth]
        same = truth[g.out_src] == truth[g.out_dst]
        deg.append(g.edge_count / g.n)
        intra.append(same.mean())
        leave.append(g.out_w[~same].sum() / g.out_w.sum())
        s, d = g.out_src[same], g.out_dst[same]
        slot.append((d - lo[s] - (d > s)) / (size[s] - 2))
        s, d = g.out_src[~same], g.out_dst[~same]
        before.append((d < lo[s]) - lo[s] / (g.n - size[s]))
    assert abs(np.mean(deg) - k) <= 0.1 * k  # as ``_draw_degrees`` allows
    assert abs(np.mean(intra) - (1.0 - mu_t)) <= 0.02
    assert abs(np.mean(leave) - mu_w) <= 0.02
    assert abs(np.concatenate(slot).mean() - 0.5) <= 0.01
    assert abs(np.concatenate(before).mean()) <= 0.01


@pytest.mark.parametrize("kw, match", [
    # mu_t = 0: degrees up to 40 overflow communities of at most 15
    (dict(N=100, k=20, kmax=40, mu_t=0.0, mu_w=0.0, cmin=10, cmax=15,
          seed=1), "cannot absorb"),
    # two communities of 12: a node with more than 12 inter stubs cannot
    # place them; the original loop gives up after 200 rounds of draws,
    # the generator before it draws any
    (dict(N=24, k=12, kmax=20, mu_t=0.6, mu_w=0.5, cmin=12, cmax=12,
          seed=1), "cannot place"),
], ids=("absorb", "outsiders"))
def test_generate_raises_as_the_oracle(kw, match):
    spec = spec_of(kw)
    with pytest.raises(ValueError, match=match) as want:
        oracle_generate(spec)
    with pytest.raises(ValueError) as got:
        generate(spec)
    assert str(got.value) == str(want.value)


def test_nmi_frozen_values():
    assert nmi(np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1])) == 1.0
    assert nmi(np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0])) == 1.0
    got = nmi(np.array([0, 0, 1, 1]), np.array([0, 1, 2, 3]))
    assert got == pytest.approx(2.0 / 3.0, abs=1e-12)
    # hand check: I = ln2, H = ln2 and 2ln2
    assert got == pytest.approx(2 * math.log(2) / (3 * math.log(2)), abs=1e-12)
    assert nmi(np.zeros(5, int), np.zeros(5, int)) == 1.0
    with pytest.raises(ValueError):
        nmi(np.array([0, 1]), np.array([0, 1, 2]))


def test_nmi_relabel_invariant(rng):
    a = rng.integers(0, 5, size=60)
    b = rng.integers(0, 4, size=60)
    perm = rng.permutation(5)
    assert nmi(a, b) == pytest.approx(nmi(perm[a], b), abs=1e-12)


def test_nmi_matches_dense_table_bit_for_bit(rng):
    for trial in range(60):
        n = int(rng.integers(1, 400))
        a = rng.integers(0, int(rng.integers(1, 50)), size=n)
        b = rng.integers(0, int(rng.integers(1, 50)), size=n)
        if trial % 3 == 0:
            b = np.where(rng.random(n) < 0.8, a, b)  # mostly agreeing
        assert nmi(a, b).hex() == oracle_nmi(a, b).hex()


def test_nmi_memory_stays_linear():
    # a dense 200,000 x 2,000 joint table would take 3.2 GB
    a = np.arange(200_000)
    b = np.arange(200_000) % 2_000
    tracemalloc.start()
    try:
        got = nmi(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    h_a, h_b = math.log(200_000), math.log(2_000)
    assert got == pytest.approx(2 * h_b / (h_a + h_b), rel=1e-12)


def test_recovery_easier_when_mixing_is_low():
    for seed in (11, 12):
        scores = {}
        for mu_t, mu_w in ((0.2, 0.1), (0.9, 0.8)):
            pg = generate(BenchSpec(N=300, k=16, kmax=32, mu_t=mu_t,
                                    mu_w=mu_w, cmin=30, cmax=60, seed=seed))
            res = run(pg.graph, RunConfig(seed=seed))
            scores[mu_t] = nmi(res.hierarchy.flat, pg.truth)
        assert scores[0.2] > scores[0.9]


def test_write_benchmark_round_trip(tmp_path):
    pg = generate(spec_1k(N=400, cmin=40, cmax=80))
    gp = tmp_path / "bench.edges"
    tp = tmp_path / "bench.truth"
    write_benchmark(pg, gp, tp)
    g2 = load_edge_list(gp)
    assert g2 == pg.graph
    np.testing.assert_array_equal(read_partition(tp), pg.truth)
    head = gp.read_text().splitlines()[0]
    assert head.startswith("#") and "mu_t=0.2" in head and "seed=7" in head
