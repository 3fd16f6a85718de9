"""Partition quality and move-gain kernels.

The model is directed weighted modularity,

    Q = (1/m) * sum_c [ W_c - S_out(c) * S_in(c) / m ],

evaluated from per-community strength sums, never a pairwise loop. Every gain
below is an exact score difference of the partitions it compares; the
community-independent (i, i) self-pair term is excluded throughout, which is
why it cancels instead of appearing as a constant. Comparisons elsewhere use
strict > 0 with no epsilon, so each expression has one arithmetic shape and
one home: ``join_gain`` (a node joining a community) and ``switch_gain`` (a
set moving between two communities) are the only places the null-model term
is written, and every gain kernel here and in ``detector`` calls them.
Every sum over a node set adds its terms one at a time in one fixed order
(``segment_sums``), so a set price has the same bits wherever it is taken.
The kernels that take node ids (``local_gains``, ``gain_switch``) cost time
linear in those nodes' union-adjacency rows, not in n, so pricing a small
piece of a large graph stays cheap.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, Strengths

__all__ = [
    "CommunityAggregates",
    "gain_insert",
    "gain_switch",
    "join_gain",
    "local_gain",
    "local_gains",
    "score",
    "segment_sums",
    "segment_total",
    "set_sums",
    "switch_gain",
]


class CommunityAggregates:
    """Per-community strength sums and member counts.

    Updated incrementally during sweeps and rebuilt from labels between
    phases; check() re-derives from scratch for the debug mode.
    """

    __slots__ = ("s_out", "s_in", "count")

    def __init__(self, s_out, s_in, count):
        self.s_out = s_out
        self.s_in = s_in
        self.count = count

    @property
    def n_comms(self) -> int:
        return int(self.count.shape[0])

    @classmethod
    def from_labels(cls, st: Strengths, labels, n_comms: int | None = None):
        labels = np.asarray(labels, dtype=np.int64)
        if n_comms is None:
            n_comms = int(labels.max()) + 1 if labels.size else 0
        return cls(
            np.bincount(labels, weights=st.s_out, minlength=n_comms),
            np.bincount(labels, weights=st.s_in, minlength=n_comms),
            np.bincount(labels, minlength=n_comms).astype(np.int64),
        )

    def move_nodes(self, st: Strengths, nodes, frm: int, to: int) -> None:
        self.move(frm, to, segment_total(st.s_out[nodes]),
                  segment_total(st.s_in[nodes]), len(nodes))

    def move(self, frm: int, to: int, so, si, count: int) -> None:
        """Move a set with strength sums ``so``/``si`` (summed in the
        order of ``segment_sums``) and ``count`` members."""
        self.s_out[frm] -= so
        self.s_in[frm] -= si
        self.count[frm] -= count
        self.s_out[to] += so
        self.s_in[to] += si
        self.count[to] += count

    def check(self, st: Strengths, labels, atol: float = 1e-9) -> bool:
        fresh = CommunityAggregates.from_labels(st, labels, self.n_comms)
        return (np.array_equal(fresh.count, self.count)
                and np.allclose(fresh.s_out, self.s_out, atol=atol, rtol=0.0)
                and np.allclose(fresh.s_in, self.s_in, atol=atol, rtol=0.0))


def join_gain(m, wsum, so_i, si_i, so_c, si_c):
    """Gain of joining i (out/in strength so_i, si_i) with a community c
    (so_c, si_c) that does not count i, wsum being the weight between them
    in both directions; elementwise.  Symmetric bit for bit under swapping
    the two sides, since the weight is one operand and both products
    commute."""
    return wsum / m - (so_i * si_c + si_i * so_c) / (m * m)


def switch_gain(m, w_to, w_from, so_b, si_b, so_f, si_f, so_t=0.0, si_t=0.0):
    """Gain of moving a set b (so_b, si_b) from community f (so_f, si_f,
    counting b) to community t (so_t, si_t; default an empty community),
    where w_to and w_from are b's weight to t and to the rest of f in both
    directions."""
    d_null = (-so_f * si_b - so_b * si_f + so_t * si_b + so_b * si_t
              + 2.0 * so_b * si_b)
    return (w_to - w_from) / m - d_null / (m * m)


def segment_sums(seg, w, nseg: int) -> np.ndarray:
    """Per segment 0..nseg-1, the sum of the ``w`` whose ``seg`` is that
    segment, added one term at a time in input order, starting from 0.0
    (``np.bincount``).  This is the one summation order of every set price
    and every aggregate move.  ``ndarray.sum`` adds pairwise beyond 8 terms
    and would round differently."""
    return np.bincount(seg, weights=w, minlength=nseg)


def segment_total(w) -> float:
    """``segment_sums`` of ``w`` as one segment."""
    return float(segment_sums(np.zeros(len(w), dtype=np.intp), w, 1)[0])


def score(graph: Graph, st: Strengths, labels) -> float:
    """Partition quality; 0.0 for an edgeless graph."""
    labels = np.asarray(labels, dtype=np.int64)
    if st.m_w == 0.0:
        return 0.0
    m = st.m_w
    intra = float(graph.out_w[labels[graph.out_src]
                              == labels[graph.out_dst]].sum())
    agg = CommunityAggregates.from_labels(st, labels)
    null = float((agg.s_out * agg.s_in / m).sum())
    return (intra - null) / m


def gain_insert(graph: Graph, st: Strengths, labels, agg: CommunityAggregates,
                i: int, c: int | None) -> float:
    """Score gain of inserting isolated node i into community c.

    Precondition: i is not counted in c's aggregates. c=None (or an empty
    community) means a fresh label: gain 0.
    """
    if c is None or agg.count[c] == 0:
        return 0.0
    u = graph.neighbor_union()
    lo, hi = u.ptr[i], u.ptr[i + 1]
    sel = labels[u.nbr[lo:hi]] == c
    wsum = segment_total(u.w[lo:hi][sel])
    return join_gain(st.m_w, wsum, st.s_out[i], st.s_in[i],
                     agg.s_out[c], agg.s_in[c])


def local_gain(graph: Graph, st: Strengths, labels, agg: CommunityAggregates,
               i: int) -> float:
    """Gain of node i against the rest of its own community."""
    return float(local_gains(graph, st, labels, agg, np.array([i]))[0])


def local_gains(graph: Graph, st: Strengths, labels,
                agg: CommunityAggregates, nodes=None) -> np.ndarray:
    """local_gain of each of the ascending node ids ``nodes`` (None: every
    node), in one pass over their union-adjacency rows, so the cost is
    linear in those rows.  A node's value has the same bits whichever
    nodes are asked for: its own entries are summed in the same order."""
    labels = np.asarray(labels, dtype=np.int64)
    m = st.m_w
    nodes = (np.arange(graph.n) if nodes is None
             else np.asarray(nodes, dtype=np.int64))
    if m == 0.0:
        return np.zeros(nodes.size)
    lab = labels[nodes]
    pos, nbr, wsum = graph.neighbor_union().gather(nodes)
    same = labels[nbr] == lab[pos]
    w_own = np.bincount(pos[same], weights=wsum[same], minlength=nodes.size)
    so, si = st.s_out[nodes], st.s_in[nodes]
    return join_gain(m, w_own, so, si, agg.s_out[lab] - so, agg.s_in[lab] - si)


def set_sums(graph: Graph, st: Strengths, labels, seg, nodes, frm, to,
             nseg: int):
    """Weight and strength sums of node sets T_0, ..., T_{nseg-1}, given as
    ``nodes`` with the set ``seg`` of each, sorted by set, then by node.
    ``frm`` and ``to`` hold a community per set (-1 for none).

    Returns ((w_to, w_from, so_b, si_b), (eseg, nbr, w)): per set W(T, to)
    and W(T, frm minus T), both directions, and T's out- and in-strength
    sums; then the gathered entries of the sets' rows, with their set.
    Every sum is a ``segment_sums`` over the nodes in ascending order and
    each row's entries in order, so a set's sums do not depend on the
    other sets."""
    pos, nbr, w = graph.neighbor_union().gather(nodes)
    eseg = seg[pos]
    lab = labels[nbr]
    key = seg * graph.n + nodes
    ekey = eseg * graph.n + nbr
    inside = key[np.searchsorted(key, ekey).clip(max=key.size - 1)] == ekey
    hit_from = (lab == frm[eseg]) & ~inside
    hit_to = lab == to[eseg]
    sums = (segment_sums(eseg[hit_to], w[hit_to], nseg),
            segment_sums(eseg[hit_from], w[hit_from], nseg),
            segment_sums(seg, st.s_out[nodes], nseg),
            segment_sums(seg, st.s_in[nodes], nseg))
    return sums, (eseg, nbr, w)


def gain_switch(graph: Graph, st: Strengths, labels, agg: CommunityAggregates,
                nodes, frm: int, to: int | None) -> float:
    """Exact score difference of relabeling the node set ``nodes`` from
    ``frm`` to ``to``; to=None detaches the set to a fresh empty community.

    Cost is linear in the union-adjacency rows of the set, up to the log of
    its size.  The sums come from ``set_sums`` with the set in ascending
    order, whatever order it is passed in, so a set has one price, bit for
    bit, here and in ``detector``'s batch pricing.
    """
    if to is not None and to == frm:
        return 0.0
    nodes = np.sort(np.asarray(nodes, dtype=np.int64))
    (w_to, w_from, so_b, si_b), _ = set_sums(
        graph, st, labels, np.zeros(nodes.size, dtype=np.int64), nodes,
        np.array([frm]), np.array([-1 if to is None else to]), 1)
    so_t, si_t = (0.0, 0.0) if to is None else (agg.s_out[to], agg.s_in[to])
    return float(switch_gain(st.m_w, w_to[0], w_from[0], so_b[0], si_b[0],
                             agg.s_out[frm], agg.s_in[frm], so_t, si_t))
