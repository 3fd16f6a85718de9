"""Planted-partition benchmark graphs with separate topology and weight
mixing, plus the NMI recovery metric."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import (Graph, _run_starts, _stable_order, dump_edge_list,
                    write_partition)


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
    """Whether x nodes, an int or an array of them, split into sizes in
    [cmin, cmax]."""
    return (x == 0) | ((x >= cmin) & (-(-x // cmax) <= x // cmin))


def _draw_sizes(rng, n_total, cmin, cmax, need_multiple):
    if not _feasible(n_total, cmin, cmax):
        raise ValueError(
            f"N={n_total} cannot be partitioned into community sizes "
            f"in [{cmin}, {cmax}]")
    sizes = []
    remaining = n_total
    while remaining:
        cands = np.arange(cmin, min(cmax, remaining) + 1)
        cands = cands[_feasible(remaining - cands, cmin, cmax)]
        if need_multiple and not sizes:
            cands = cands[cands < remaining]
            if not cands.size:
                raise ValueError(
                    "inter-community mixing needs at least two communities; "
                    f"N={n_total} < 2*cmin={2 * cmin}")
        sizes.append(int(cands[rng.integers(0, cands.size)]))
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


PAIR_CHUNK = 2**15  # (node, slot) keys sorted at once by _draw_intra


def _draw_intra(rng, ni, room):
    """Per node i with ni[i] > 0, in id order, the slots in [0, room[i])
    of its ni[i] smallest keys, one key per slot.

    A slot's key is the top 48 - S bits of one ``random_raw`` word, S the
    bits of the largest slot, ties going to the lower slot; the words are
    drawn node by node and slot by slot.  The nodes are cut into chunks of
    at most PAIR_CHUNK slots (or one node), each sorted by one ``np.sort``
    of int64 words that hold, from the top, the node's place in its chunk
    (15 bits, as a chunk holds at most 2**15 nodes), the key and the slot.
    The key bits do not depend on the chunk, so neither does the result."""
    who = np.flatnonzero(ni)
    room, ni = room[who], ni[who]
    slot_bits = int(room.max(initial=1) - 1).bit_length()
    end = np.cumsum(room)
    picks, a = [np.empty(0, np.int64)], 0
    while a < who.size:
        b = max(int(np.searchsorted(end, end[a] - room[a] + PAIR_CHUNK,
                                    "right")), a + 1)
        r, want = room[a:b], ni[a:b]
        first = np.cumsum(r) - r
        key = rng.bit_generator.random_raw(r.sum()) >> np.uint64(16)
        key = key.view(np.int64) & -(1 << slot_bits)
        key |= np.arange(key.size) + np.repeat(
            (np.arange(b - a) << 48) - first, r)
        key.sort()
        take = np.repeat(first - (np.cumsum(want) - want), want)
        picks.append(key[take + np.arange(take.size)] & (1 << slot_bits) - 1)
        a = b
    return np.concatenate(picks)


def _draw_inter(rng, n_total, lo, size, ne):
    """Per node i, ne[i] distinct targets outside its block [lo[i], lo[i]
    + size[i]), as sorted keys i * n_total + target.  Each round, one
    ``rng.integers`` call with an array ``high`` draws, in id order,
    short * out // free targets for every node short of ``short``, out =
    n_total - size being the nodes outside its block and free those it has
    not got yet (a draw at or past lo skips the block).  About ``short`` of
    them are new, and the node keeps the first ``short`` new ones, in draw
    order.  Until a node has got out / (short + 1) targets it draws just
    its shortfall, so only a node that wants most of the nodes outside its
    block draws more.  A node that wants more targets than there are
    outside its block raises at once, as do nodes still short after 200
    rounds."""
    out = n_total - size
    got, short = np.empty(0, np.int64), ne
    bad = ne > out
    for _ in range(0 if bad.any() else 200):
        # a node placed in full may have no free target left
        draws = short * out // np.maximum(out - (ne - short), 1)
        src = np.repeat(np.arange(n_total), draws)
        x = rng.integers(0, out[src])
        x += (x >= lo[src]) * size[src]
        key = src * n_total + x
        if (draws > short).any():
            # a node keeps the first ``short`` of its draws new to it
            order, sorted_key = _stable_order(key, n_total * n_total)
            pos = np.sort(order[_run_starts(sorted_key)])
            pos = pos[~np.isin(key[pos], got)]
            s = src[pos]
            key = key[pos[np.arange(pos.size) - np.searchsorted(s, s)
                          < short[s]]]
        got = np.sort(np.concatenate([got, key]))
        got = got[_run_starts(got)]
        short = ne - np.bincount(got // n_total, minlength=n_total)
        bad = short > 0
        if not bad.any():
            return got
    i = int(np.argmax(bad))
    raise ValueError(
        f"cannot place {ne[i]} inter-community edges from a block of size "
        f"{size[i]} in a graph of {n_total} nodes")


def generate(spec: BenchSpec) -> PlantedGraph:
    """Build a graph with planted communities.  A node's out-stubs stay
    inside its community with probability 1 - mu_t; intra edges weigh
    1 - mu_w and inter edges mu_w * (1 - mu_t) / mu_t, so both the edge
    fraction and the strength fraction leaving a community match the two
    mixing knobs in expectation.

    The graph is a function of the seed's stream, drawn in a fixed order:
    community sizes, degrees and intra stub counts; then every node's
    distinct intra targets, the ni smallest of ``room`` = size - 1 random
    keys, one per other node of its block (``_draw_intra``; stubs beyond
    ``room`` spill to inter); then the rounds that place every node's
    distinct inter targets outside its block (``_draw_inter``).  Slot
    x of a node is the block's x-th node after skipping the node itself.
    No (src, dst) pair repeats, so the order in which edges reach
    ``Graph.from_edges`` does not change its arrays.
    ``tests/oracles.py`` pins this order: ``oracle_generate``, the earlier
    per-node loop, for the truth and each node's intra and inter counts, and
    ``oracle_draws`` for the targets, node by node."""
    rng = np.random.default_rng(spec.seed)
    sizes = _draw_sizes(rng, spec.N, spec.cmin, spec.cmax, spec.mu_t > 0.0)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    truth = np.repeat(np.arange(len(sizes)), sizes)
    deg = _draw_degrees(rng, spec.N, spec.k, spec.kmax)
    n_intra = rng.binomial(deg, 1.0 - spec.mu_t)
    lo = bounds[truth]
    size = bounds[truth + 1] - lo
    ni = np.minimum(n_intra, size - 1)  # overflow spills to inter
    ne = deg - ni
    if spec.mu_t == 0.0 and ne.any():
        i = int(np.argmax(ne > 0))
        raise ValueError(
            f"community of size {size[i]} cannot absorb "
            f"{deg[i]} intra stubs with mu_t=0")
    intra_src = np.repeat(np.arange(spec.N), ni)
    intra_dst = lo[intra_src] + _draw_intra(rng, ni, size - 1)
    intra_dst += intra_dst >= intra_src
    inter = _draw_inter(rng, spec.N, lo, size, ne)
    w_inter = (spec.mu_w * (1.0 - spec.mu_t) / spec.mu_t
               if spec.mu_t > 0.0 else 0.0)
    w = np.repeat([1.0 - spec.mu_w, w_inter], [intra_dst.size, inter.size])
    graph = Graph.from_edges(
        spec.N, np.concatenate([intra_src, inter // spec.N]),
        np.concatenate([intra_dst, inter % spec.N]), w)
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
