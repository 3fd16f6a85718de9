"""Partition quality and move-gain kernels.

The model is directed weighted modularity,

    Q = (1/m) * sum_c [ W_c - S_out(c) * S_in(c) / m ],

evaluated from per-community strength sums, never a pairwise loop. Every gain
below is an exact score difference of the partitions it compares; the
community-independent (i, i) self-pair term is excluded throughout, which is
why it cancels instead of appearing as a constant. Comparisons elsewhere use
strict > 0 with no epsilon, so these expressions are kept in one arithmetic
shape everywhere.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, Strengths

__all__ = [
    "CommunityAggregates",
    "gain_insert",
    "gain_switch",
    "local_gain",
    "local_gains",
    "score",
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
        so = st.s_out[nodes].sum()
        si = st.s_in[nodes].sum()
        self.s_out[frm] -= so
        self.s_in[frm] -= si
        self.count[frm] -= len(nodes)
        self.s_out[to] += so
        self.s_in[to] += si
        self.count[to] += len(nodes)

    def check(self, st: Strengths, labels, atol: float = 1e-9) -> bool:
        fresh = CommunityAggregates.from_labels(st, labels, self.n_comms)
        return (np.array_equal(fresh.count, self.count)
                and np.allclose(fresh.s_out, self.s_out, atol=atol, rtol=0.0)
                and np.allclose(fresh.s_in, self.s_in, atol=atol, rtol=0.0))


def score(graph: Graph, st: Strengths, labels) -> float:
    """Partition quality; 0.0 for an edgeless graph."""
    labels = np.asarray(labels, dtype=np.int64)
    if st.m_w == 0.0:
        return 0.0
    m = st.m_w
    rows = graph.edge_rows()
    intra = float(graph.out_w[labels[rows] == labels[graph.out_dst]].sum())
    n_comms = int(labels.max()) + 1
    s_out_c = np.bincount(labels, weights=st.s_out, minlength=n_comms)
    s_in_c = np.bincount(labels, weights=st.s_in, minlength=n_comms)
    null = float((s_out_c * s_in_c / m).sum())
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
    wsum = float((u.w_out[lo:hi][sel] + u.w_in[lo:hi][sel]).sum())
    m = st.m_w
    return wsum / m - (st.s_out[i] * agg.s_in[c] + st.s_in[i] * agg.s_out[c]) / (m * m)


def local_gain(graph: Graph, st: Strengths, labels, agg: CommunityAggregates,
               i: int) -> float:
    """Gain of node i against the rest of its own community."""
    c = int(labels[i])
    u = graph.neighbor_union()
    lo, hi = u.ptr[i], u.ptr[i + 1]
    sel = labels[u.nbr[lo:hi]] == c
    wsum = float((u.w_out[lo:hi][sel] + u.w_in[lo:hi][sel]).sum())
    m = st.m_w
    return wsum / m - (st.s_out[i] * (agg.s_in[c] - st.s_in[i])
                       + st.s_in[i] * (agg.s_out[c] - st.s_out[i])) / (m * m)


def local_gains(graph: Graph, st: Strengths, labels,
                agg: CommunityAggregates, mask=None) -> np.ndarray:
    """local_gain for every node at once (one pass over the union adjacency),
    or only for the nodes of the boolean ``mask``, in ascending order.  A
    node's value has the same bits either way: its own entries are summed
    in the same order."""
    labels = np.asarray(labels, dtype=np.int64)
    m = st.m_w
    nodes = np.arange(graph.n) if mask is None else np.flatnonzero(mask)
    if m == 0.0:
        return np.zeros(nodes.size)
    lab = labels[nodes]
    pos, nbr, wsum = graph.neighbor_union().gather(nodes)
    same = labels[nbr] == lab[pos]
    w_own = np.bincount(pos[same], weights=wsum[same], minlength=nodes.size)
    so, si = st.s_out[nodes], st.s_in[nodes]
    return w_own / m - (so * (agg.s_in[lab] - si)
                        + si * (agg.s_out[lab] - so)) / (m * m)


def gain_switch(graph: Graph, st: Strengths, labels, agg: CommunityAggregates,
                nodes, frm: int, to: int | None, in_set: np.ndarray | None = None) -> float:
    """Exact score difference of relabeling `nodes` from `frm` to `to`.

    to=None detaches the set to a fresh empty community. Cost is linear in
    the union-adjacency rows of the moved set. `in_set` is an optional
    reusable n-bool scratch buffer (left all-False on return).
    """
    if to is not None and to == frm:
        return 0.0
    nodes = np.asarray(nodes, dtype=np.int64)
    if in_set is None:
        in_set = np.zeros(graph.n, dtype=bool)
    in_set[nodes] = True
    u = graph.neighbor_union()
    w_to = 0.0
    w_from = 0.0
    for x in nodes:
        lo, hi = u.ptr[x], u.ptr[x + 1]
        nb = u.nbr[lo:hi]
        lab = labels[nb]
        ws = u.w_out[lo:hi] + u.w_in[lo:hi]
        if to is not None:
            w_to += float(ws[lab == to].sum())
        w_from += float(ws[(lab == frm) & ~in_set[nb]].sum())
    in_set[nodes] = False
    so_b = float(st.s_out[nodes].sum())
    si_b = float(st.s_in[nodes].sum())
    so_t = float(agg.s_out[to]) if to is not None else 0.0
    si_t = float(agg.s_in[to]) if to is not None else 0.0
    d_null = (-float(agg.s_out[frm]) * si_b - so_b * float(agg.s_in[frm])
              + so_t * si_b + so_b * si_t + 2.0 * so_b * si_b)
    m = st.m_w
    return (w_to - w_from) / m - d_null / (m * m)
