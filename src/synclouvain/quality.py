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
    "stay_gain",
    "switch_gain",
]


class CommunityAggregates:
    """Per-community out- and in-strength sums, the only community state a
    gain reads.

    Updated incrementally during sweeps and rebuilt from labels between
    phases; check() re-derives from scratch for the debug mode.
    """

    __slots__ = ("s_out", "s_in")

    def __init__(self, s_out, s_in):
        self.s_out = s_out
        self.s_in = s_in

    @property
    def n_comms(self) -> int:
        return int(self.s_out.shape[0])

    @classmethod
    def from_labels(cls, st: Strengths, labels, n_comms: int | None = None):
        labels = np.asarray(labels, dtype=np.int64)
        if n_comms is None:
            n_comms = int(labels.max()) + 1 if labels.size else 0
        return cls(np.bincount(labels, weights=st.s_out, minlength=n_comms),
                   np.bincount(labels, weights=st.s_in, minlength=n_comms))

    def move_nodes(self, st: Strengths, nodes, frm: int, to: int) -> None:
        self.move(frm, to, segment_total(st.s_out[nodes]),
                  segment_total(st.s_in[nodes]))

    def move(self, frm, to, so, si) -> None:
        """Move a set with strength sums ``so``/``si`` (summed in the
        order of ``segment_sums``); or, elementwise, one set per entry of
        the arrays, when no source is named twice and no source is a
        target.  A repeated target takes its sets in the order given, one
        addition at a time (``np.add.at``), as a loop of single moves
        would."""
        self.s_out[frm] -= so
        self.s_in[frm] -= si
        np.add.at(self.s_out, to, so)
        np.add.at(self.s_in, to, si)

    def check(self, st: Strengths, labels, atol: float = 1e-9) -> bool:
        fresh = CommunityAggregates.from_labels(st, labels, self.n_comms)
        return (np.allclose(fresh.s_out, self.s_out, atol=atol, rtol=0.0)
                and np.allclose(fresh.s_in, self.s_in, atol=atol, rtol=0.0))


def join_gain(m, wsum, so_i, si_i, so_c, si_c):
    """Gain of joining i (out/in strength so_i, si_i) with a community c
    (so_c, si_c) that does not count i, wsum being the weight between them
    in both directions; elementwise.  Symmetric bit for bit under swapping
    the two sides, since the weight is one operand and both products
    commute.  The expression is wsum / m - (so_i * si_c + si_i * so_c) /
    (m * m), its steps taken in place on its own temporaries."""
    cross = so_i * si_c
    cross += si_i * so_c
    cross /= m * m
    gain = wsum / m
    gain -= cross
    return gain


def stay_gain(m, w_own, so_i, si_i, agg, c):
    """Gain of i (so_i, si_i) joining the rest of its own community c,
    which counts i, w_own being i's weight to the rest of c in both
    directions; elementwise.  This is the staying score of the plan
    (``detector._best_targets``, ``detector._Frontier.settled``) and the
    local gain of positive correction (``local_gains``), one expression."""
    return join_gain(m, w_own, so_i, si_i, agg.s_out[c] - so_i,
                     agg.s_in[c] - si_i)


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

    Precondition: i is not counted in c's aggregates. c=None means a fresh
    label, and an edgeless graph (m 0) has no gain: both give 0.0.  An
    empty community of ``from_labels`` aggregates prices exactly +0.0 too:
    no neighbor carries its label, so wsum is 0.0, both of its sums are the
    0.0 ``np.bincount`` starts from, and ``join_gain`` of those is 0.0 / m
    - (so_i * 0.0 + si_i * 0.0) / (m * m), with m > 0 and strengths finite
    and not negative.
    """
    if c is None or st.m_w == 0.0:
        return 0.0
    _, nbr, w = graph.neighbor_union().gather(np.array([i]))
    wsum = segment_total(w[labels[nbr] == c])
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
    w_own = segment_sums(pos[same], wsum[same], nodes.size)
    return stay_gain(m, w_own, st.s_out[nodes], st.s_in[nodes], agg, lab)


def set_sums(graph: Graph, st: Strengths, labels, seg, nodes, frm, to,
             nseg: int, owner=None):
    """Weight and strength sums of node sets T_0, ..., T_{nseg-1}, given as
    ``nodes`` with the set ``seg`` of each, sorted by set, then by node.
    ``frm`` and ``to`` hold a community per set (-1 for none).

    Returns (w_to, w_from, so_b, si_b, entries): per set W(T, to) and
    W(T, frm minus T), both directions, and T's out- and in-strength sums;
    and, per entry of the nodes' rows (``NeighborUnion.gather`` of
    ``nodes``, in its order), the position of its node in ``nodes``, its
    set, the neighbor, w and whether it counted in W(T, to).  Every sum is
    a ``segment_sums`` over the nodes in ascending order and each row's
    entries in order, so a set's sums do not depend on the other sets'.

    Given ``owner``, an array mapping each node to -1 (and left so), the
    sets must be disjoint and are taken as moving to ``to`` one after
    another, in set order: W(T, to) then also counts T's entries into an
    earlier set with the same ``to``, as a set priced after those moves
    sees them (``detector._MovePrices``).  Without it, each set is priced
    alone at ``labels``."""
    pos, nbr, w = graph.neighbor_union().gather(nodes)
    eseg = seg[pos]
    lab = labels[nbr]
    hit_to = lab == to[eseg]
    if owner is None:
        key = seg * graph.n + nodes
        ekey = eseg * graph.n + nbr
        inside = key[np.searchsorted(key, ekey).clip(max=key.size - 1)] == ekey
    else:
        owner[nodes] = seg
        near = owner[nbr]
        owner[nodes] = -1
        inside = near == eseg
        hit_to |= (np.append(to, -2)[near] == to[eseg]) & (near < eseg)
    hit_from = (lab == frm[eseg]) & ~inside
    return (segment_sums(eseg[hit_to], w[hit_to], nseg),
            segment_sums(eseg[hit_from], w[hit_from], nseg),
            segment_sums(seg, st.s_out[nodes], nseg),
            segment_sums(seg, st.s_in[nodes], nseg),
            (pos, eseg, nbr, w, hit_to))


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
    w_to, w_from, so_b, si_b, _ = set_sums(
        graph, st, labels, np.zeros(nodes.size, dtype=np.int64), nodes,
        np.array([frm]), np.array([-1 if to is None else to]), 1)
    so_t, si_t = (0.0, 0.0) if to is None else (agg.s_out[to], agg.s_in[to])
    return float(switch_gain(st.m_w, w_to[0], w_from[0], so_b[0], si_b[0],
                             agg.s_out[frm], agg.s_in[frm], so_t, si_t))
