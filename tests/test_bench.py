import math

import numpy as np
import pytest

from synclouvain.bench import BenchSpec, PlantedGraph, generate, nmi, write_benchmark
from synclouvain.detector import RunConfig, run
from synclouvain.graph import load_edge_list, read_partition


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
