"""Planted-partition benchmark graphs with separate topology and weight
mixing, plus the NMI recovery metric."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph, dump_edge_list, write_partition


@dataclass(frozen=True)
class BenchSpec:
    N: int
    k: float
    kmax: int
    mu_t: float
    mu_w: float
    cmin: int = 10
    cmax: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.mu_t <= 1.0 and 0.0 <= self.mu_w <= 1.0):
            raise ValueError("mu_t and mu_w must lie in [0, 1]")
        if self.mu_w > self.mu_t:
            raise ValueError("mu_w must not exceed mu_t")
        if self.mu_w == self.mu_t:
            warnings.warn("mu_t == mu_w: topology and weight mixing coincide",
                          stacklevel=2)
        if not (2 <= self.k <= self.kmax < self.N):
            raise ValueError("k must satisfy 2 <= k <= kmax < N")
        if self.cmin < 3:
            raise ValueError("cmin must be at least 3")
        if self.cmax < self.cmin:
            raise ValueError("cmax must be >= cmin")
        if self.mu_t > 0.0 and (self.mu_w == 0.0 or self.mu_t == 1.0):
            raise ValueError(
                "spec would require zero-weight inter-community edges "
                "(mu_w == 0 or mu_t == 1 with mu_t > 0)")


@dataclass(frozen=True)
class PlantedGraph:
    graph: Graph
    truth: np.ndarray
    spec: BenchSpec


def _feasible(x, cmin, cmax):
    if x == 0:
        return True
    return x >= cmin and -(-x // cmax) <= x // cmin


def _draw_sizes(rng, n_total, cmin, cmax, need_multiple):
    if not _feasible(n_total, cmin, cmax):
        raise ValueError(
            f"N={n_total} cannot be partitioned into community sizes "
            f"in [{cmin}, {cmax}]")
    sizes = []
    remaining = n_total
    while remaining:
        cands = [s for s in range(cmin, min(cmax, remaining) + 1)
                 if _feasible(remaining - s, cmin, cmax)]
        if need_multiple and not sizes:
            cands = [s for s in cands if s < remaining]
            if not cands:
                raise ValueError(
                    "inter-community mixing needs at least two communities; "
                    f"N={n_total} < 2*cmin={2 * cmin}")
        sizes.append(int(cands[rng.integers(0, len(cands))]))
        remaining -= sizes[-1]
    return sizes


def _draw_degrees(rng, n, k, kmax):
    """Truncated power-law (exponent 2) on [k/2, kmax] by inverse CDF, then
    rescaled until the empirical mean lands within 10% of k."""
    lo = k / 2.0
    hi = float(kmax)
    u = rng.random(n)
    x = 1.0 / (1.0 / lo - u * (1.0 / lo - 1.0 / hi))
    scale = 1.0
    for _ in range(60):
        deg = np.clip(np.rint(scale * x), 1, kmax).astype(np.int64)
        mean = float(deg.mean())
        if abs(mean - k) <= 0.1 * k:
            return deg
        scale *= k / mean
    raise ValueError(
        f"cannot reach mean degree {k} within 10% under kmax={kmax}")


def _draw_outsiders(rng, n_total, lo, hi, want):
    """Distinct uniform targets outside the block [lo, hi), kept in first-
    draw order so results depend only on the stream."""
    out = []
    seen = set()
    for _ in range(200):
        batch = rng.integers(0, n_total, size=max(8, 2 * (want - len(out))))
        for j in batch.tolist():
            if lo <= j < hi or j in seen:
                continue
            seen.add(j)
            out.append(j)
            if len(out) == want:
                return out
    raise ValueError(
        f"cannot place {want} inter-community edges from a block of size "
        f"{hi - lo} in a graph of {n_total} nodes")


def generate(spec: BenchSpec) -> PlantedGraph:
    """Build a graph with planted communities.  A node's out-stubs stay
    inside its community with probability 1 - mu_t; intra edges weigh
    1 - mu_w and inter edges mu_w * (1 - mu_t) / mu_t, so both the edge
    fraction and the strength fraction leaving a community match the two
    mixing knobs in expectation.

    The graph is a function of the seed's stream, drawn in a fixed order:
    community sizes, degrees, intra stub counts, then per node in id order
    one ``rng.choice`` of its distinct intra targets (stubs beyond the
    rest of its block spill to inter) followed by the ``rng.integers``
    batches that place its distinct inter targets outside its block.  The
    loop makes only these draws; a node's intra draw x in [0, size - 1)
    is the block's x-th node after skipping the node itself.  No (src,
    dst) pair repeats, so the order in which edges reach
    ``Graph.from_edges`` does not change its arrays."""
    rng = np.random.default_rng(spec.seed)
    sizes = _draw_sizes(rng, spec.N, spec.cmin, spec.cmax, spec.mu_t > 0.0)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    truth = np.repeat(np.arange(len(sizes)), sizes)
    deg = _draw_degrees(rng, spec.N, spec.k, spec.kmax)
    n_intra = rng.binomial(deg, 1.0 - spec.mu_t)
    lo = bounds[truth]
    hi = bounds[truth + 1]
    room = hi - lo - 1
    ni = np.minimum(n_intra, room)  # overflow spills to inter
    ne = deg - ni
    if spec.mu_t == 0.0 and ne.any():
        i = int(np.argmax(ne > 0))
        raise ValueError(
            f"community of size {hi[i] - lo[i]} cannot absorb "
            f"{deg[i]} intra stubs with mu_t=0")
    picks, outsiders = [np.empty(0, np.int64)], []
    for lo_i, hi_i, room_i, ni_i, ne_i in zip(
            lo.tolist(), hi.tolist(), room.tolist(), ni.tolist(),
            ne.tolist()):
        if ni_i:
            picks.append(rng.choice(room_i, size=ni_i, replace=False))
        if ne_i:
            outsiders += _draw_outsiders(rng, spec.N, lo_i, hi_i, ne_i)
    nodes = np.arange(spec.N)
    intra_src = np.repeat(nodes, ni)
    intra_dst = lo[intra_src] + np.concatenate(picks)
    intra_dst += intra_dst >= intra_src
    inter_dst = np.array(outsiders, dtype=np.int64)
    w_inter = (spec.mu_w * (1.0 - spec.mu_t) / spec.mu_t
               if spec.mu_t > 0.0 else 0.0)
    w = np.repeat([1.0 - spec.mu_w, w_inter], [intra_dst.size, inter_dst.size])
    graph = Graph.from_edges(
        spec.N, np.concatenate([intra_src, np.repeat(nodes, ne)]),
        np.concatenate([intra_dst, inter_dst]), w)
    return PlantedGraph(graph=graph, truth=truth, spec=spec)


def nmi(labels_a, labels_b) -> float:
    """Normalized mutual information with arithmetic-mean normalization:
    2 I(A;B) / (H(A) + H(B)); defined as 1.0 when both entropies vanish.
    Only the label pairs that occur are counted, in ascending pair code,
    so memory is O(n) whatever the label counts."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("partitions must cover the same nonempty node set")
    n = a.size
    ai = np.unique(a, return_inverse=True)[1]
    bi = np.unique(b, return_inverse=True)[1]
    nb = int(bi.max()) + 1
    code, count = np.unique(ai * nb + bi, return_counts=True)
    joint = count / n
    pa = np.bincount(ai) / n
    pb = np.bincount(bi) / n
    outer = pa[code // nb] * pb[code % nb]
    info = float((joint * np.log(joint / outer)).sum())
    h_a = -float((pa * np.log(pa)).sum())
    h_b = -float((pb * np.log(pb)).sum())
    if h_a + h_b == 0.0:
        return 1.0
    return 2.0 * info / (h_a + h_b)


def write_benchmark(pg: PlantedGraph, graph_path, truth_path) -> None:
    s = pg.spec
    header = (f"benchmark N={s.N} k={s.k} kmax={s.kmax} mu_t={s.mu_t} "
              f"mu_w={s.mu_w} cmin={s.cmin} cmax={s.cmax} seed={s.seed}")
    dump_edge_list(pg.graph, graph_path, header_lines=(header,))
    write_partition(pg.truth, truth_path)
