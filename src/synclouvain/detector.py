"""Parallel community detection with synchronized move phases.

Each level runs five phases: assignment points every node at its best
neighbor, components turn the pointer forest into communities, positive
correction splits communities that hold a node with negative local gain,
maximal correction sweeps nodes to their best community (each improving
sweep followed by positive correction again), and aggregation contracts
the communities into the next level's nodes.  Components are extracted
once per level, after the assignment; each correction phase hands back the
forest of its new pointers, built from the labels it already holds.  A
level ends when a sweep applies no move and none of its coin-rejected
candidates could apply, or after ``MAX_SWEEPS`` sweeps.  ``run`` first
scales the weights by a power of two that brings the total weight into
[0.5, 1); modularity does not depend on the weight scale, and a power of
two keeps every normal weight's bits.

Every sweep plans all candidate moves from a frozen snapshot of the
current partition, then applies them in a fixed serial order.  Planning is
row-local: ``_best_targets`` is the one row kernel (the assignment is its
plan on singletons), and ``_map_rows`` the one place that splits rows,
into contiguous pieces of the planned rows of at most ``PIECE_ENTRIES``
union entries, which the threads share round-robin.  Within a level only
rows touching a changed community are planned again (``_Frontier``); the first
sweep plans every row through that same path.  The commit applies the
moves the coin accepted in ascending node order, skipping a move whose
source an earlier move touched.  It prices them in rounds of one numpy
pass each (``_PriceRounds``, ``_MovePrices``): a round prices the next
candidate of every untouched source community at once, and a price is
taken again only for a target community a move touched since.  Every sum
over a node set is one ``segment_sums`` order, so a set has the same
price, bit for bit, in a round, in a re-price and in ``gain_switch``.
Results depend only on (graph, seed, accept_prob), never on the thread
count.  Every run records its score trace, checked against ``score`` at
each level's end.
"""

from __future__ import annotations

import contextvars
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .forest import (AssignmentForest, extract_components,
                     reverse_assignment)
from .graph import (Graph, _merge_pairs, _unit_scaled, aggregate,
                    compose_labels, strengths)
from .quality import (CommunityAggregates, gain_switch, join_gain, local_gains,
                      score, segment_total, set_sums, switch_gain)
from .rng import uniform01

MAX_SWEEPS = 100  # maximal-correction sweeps per level
# the most union entries of a plan piece of two or more rows (see _map_rows);
# the pieces average about half of it, so the plan's temporaries, 8 bytes
# per entry each, stay near 128 KiB and come back from the heap instead of
# being page-faulted in again every sweep.  Threads-1 detect, 12 graphs of
# each benchmark shape on a 2-vCPU 2.1 GHz Xeon VM, median time relative
# to 2**15 (mixed / file / sparse): 2**13 1.26 / 1.18 / 1.09, 2**14
# 1.11 / 1.08 / 1.06, 2**16 1.01 / 0.99 / 1.00 but 82 minor faults per
# sparse run against 2, 2**17 about 5k
PIECE_ENTRIES = 2**15


@dataclass(frozen=True)
class RunConfig:
    threads: int = 1
    seed: int = 0
    accept_prob: float = 0.5
    debug_checks: bool = False

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not (0.0 < self.accept_prob <= 1.0):
            raise ValueError("accept_prob must be in (0, 1]")


@dataclass
class RunStats:
    levels: int = 0
    wall_seconds: float = 0.0
    sweeps_per_level: list = field(default_factory=list)
    accepted_moves: int = 0
    accepted_splits: int = 0
    unresolved_negative: int = 0
    phase_seconds: dict = field(default_factory=lambda: {
        k: 0.0 for k in ("assign", "components", "positive", "maximal",
                         "aggregate")})
    score_trace: list = field(default_factory=list)
    trace_level_starts: list = field(default_factory=list)
    drift_checks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    debug_failures: list = field(default_factory=list)


@dataclass
class Hierarchy:
    """Per-level labelings; ``levels[t][i]`` maps level-t node i to its
    community, which becomes node i of level t+1.  ``flat`` composes all
    levels down to the original nodes."""
    levels: list
    flat: np.ndarray


@dataclass
class RunResult:
    hierarchy: Hierarchy
    final_score: float
    stats: RunStats


class _Pool:
    """Thin thread-pool wrapper; parallelism is an implementation detail
    and never changes results because work is split on row boundaries.
    The calling thread is one of the ``threads``: it runs its own share of
    the items while ``threads - 1`` workers run theirs."""

    def __init__(self, threads):
        self.threads = threads
        self._ex = ThreadPoolExecutor(threads - 1) if threads > 1 else None

    def map(self, fn, items):
        """``[fn(it) for it in items]``.  With k threads, thread j runs
        items j, j + k, j + 2k, ..., so a worker is handed one share of the
        items, not one item at a time."""
        items = list(items)
        k = min(self.threads, len(items))
        if k <= 1:
            return [fn(it) for it in items]

        def run(share):
            return [fn(it) for it in share]

        # a worker runs its share in a copy of the caller's context, which
        # carries numpy's error state (``np.errstate``) into it
        futs = [self._ex.submit(contextvars.copy_context().run, run,
                                items[j::k]) for j in range(1, k)]
        out = [None] * len(items)
        out[0::k] = run(items[0::k])
        for j, fut in enumerate(futs, 1):
            out[j::k] = fut.result()
        return out

    def close(self):
        if self._ex is not None:
            self._ex.shutdown(wait=True)


def _map_rows(graph, pool, fn, rows):
    """Cut the ascending ``rows`` into contiguous pieces of at most
    ``PIECE_ENTRIES`` union entries, whatever the thread count, run ``fn(lo,
    hi, piece)`` on each piece through ``pool``, ``[lo, hi)`` being its
    span, and concatenate the results in row order.  A row goes to the piece
    its entries' midpoint falls in, the pieces tiling the entries of
    ``rows`` in steps of ``PIECE_ENTRIES / 2``.  The midpoints of a piece's
    first and last rows are less than a step apart, and each lies at least
    half its row beyond the other's row, so a piece of two or more rows
    holds fewer than ``PIECE_ENTRIES`` entries; a larger row is a piece of
    its own."""
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    ptr = graph.neighbor_union().ptr
    size = ptr[rows + 1] - ptr[rows]
    mid2 = 2 * np.cumsum(size) - size  # twice each row's entry midpoint
    cuts = np.flatnonzero(np.diff(mid2 // PIECE_ENTRIES)) + 1
    return np.concatenate((pool or _Pool(1)).map(
        lambda p: fn(int(p[0]), int(p[-1]) + 1, p), np.split(rows, cuts)))


def _smallest_members(labels):
    """Smallest member of each community of a canonical labeling, in label
    order: the nodes where the running label maximum grows."""
    top = np.maximum.accumulate(labels)
    return np.flatnonzero(np.diff(top, prepend=-1))


def _changed_nodes(old, new):
    """Mask of the nodes whose ``new`` community is not, member for member,
    a community of ``old``; both are canonical labelings of the same nodes,
    and ``old`` None (nothing computed yet) marks every node.  A new
    community is unchanged iff every member had the old label of its
    smallest member and that old community had the same size, so moves,
    merges, splits and vanished communities all count as changes."""
    if old is None:
        return np.ones(new.size, dtype=bool)
    rep = _smallest_members(new)
    was = old[rep]
    strayed = old != was[new]
    size_new = np.bincount(new, minlength=rep.size)
    unchanged = ((np.bincount(old)[was] == size_new)
                 & (np.bincount(new[strayed], minlength=rep.size) == 0))
    return ~unchanged[new]


class _Frontier:
    """One level's memo of the labeling its last maximal plan and its last
    local gains were computed on, so later sweeps redo only what changed.
    A fresh memo has computed nothing, so its first use marks every node
    changed and plans or computes them all.

    The plan keeps each node's target as the smallest member of the target
    community, a node id that survives relabeling.  A sweep re-plans only
    the changed nodes (``_changed_nodes``) and the rows with a changed
    neighbor; positive correction recomputes only the changed nodes' local
    gains.  This is exact, bit for bit:

    - an unchanged community has the same member set, so the bincounts of
      ``CommunityAggregates.from_labels`` give it the same bits;
    - it keeps its smallest member, so canonical order among unchanged
      communities is preserved and lowest-label ties pick the same one;
    - a row outside the frontier has the same entries with the same
      neighbor communities, so its groups, their order and their sums are
      identical, and so is an unchanged node's own-community sum.

    Under ``debug_checks`` both are compared with a full recompute."""

    def __init__(self, n):
        self.plan_comm = None
        self.target_rep = np.arange(n)
        self.lg_comm = None
        self.lg = np.zeros(n)


def _first_max(ptr, val, floor):
    """Per row of the CSR pointer ``ptr`` over ``val`` (as ``_merge_pairs``
    returns it): the index of the first entry holding the row's maximum of
    ``val`` when that maximum is above ``floor`` (a scalar or one value per
    row), else -1.  Entries are in neighbor order, so ties go to the lowest
    neighbor."""
    size = np.diff(ptr)
    has = np.flatnonzero(size)
    first = np.full(size.size, -1, dtype=np.int64)
    mx = np.full(size.size, -np.inf)
    mx[has] = np.maximum.reduceat(val, ptr[has])
    idx = np.where(val == np.repeat(mx, size), np.arange(val.size), val.size)
    beat = (mx > floor)[has]
    first[has[beat]] = np.minimum.reduceat(idx, ptr[has])[beat]
    return first


# --------------------------------------------------------------- assignment

def find_assignment(graph, st, pool=None):
    """Point every node at its best single neighbor (or itself when no
    pairing has positive gain).  Ties break to the lowest neighbor id.
    This is ``_best_targets`` on singletons, bit for bit: staying scores
    ``join_gain`` of zero sums, +0.0; the union has no self-loop and
    distinct neighbors per row, so each group is one entry (i, j), never
    i's own, with sum W(i, j) + W(j, i) and ``join_gain`` the pair gain;
    and the keys are already ascending, so the lowest-id maximum above 0.0
    wins."""
    labels = np.arange(graph.n)
    agg = CommunityAggregates.from_labels(st, labels, graph.n)
    return _map_rows(graph, pool, lambda lo, hi, rows: _best_targets(
        graph, st, labels, agg, lo, hi, rows), labels)


# ------------------------------------------------------- positive correction

def positive_correction(graph, st, forest, stats=None, memo=None):
    """Split every community that still contains a member with negative
    local gain, as long as some single cut strictly improves the score.
    Returns (forest, unresolved, gains, left): the forest of the cut
    pointers, the count of negative-gain members no cut could repair, the
    gain of each applied cut, and a mask of the nodes of the pieces holding
    them.  Only the local gains of nodes changed since the level's
    ``memo`` last saw them are recomputed; a ``stats`` turns on the
    comparison with a full recompute.

    One stack of pieces, seeded with the bad communities so that the
    smallest label is popped first, is bisected until no piece holds a
    negative local gain that a cut repairs; each piece carries its members,
    ascending, and the flags ``cycle`` mark every piece's cycle nodes.
    Pieces are labels of the scratch labeling ``labels``, and ``agg`` holds
    their aggregates, with room for a label per node.  A cut moves the
    detached nodes to the next label of the counter ``fresh``, so it is a
    maximal-correction commit to an empty community: ``local_gains`` tests a piece, ``gain_switch(...,
    to=None)`` prices a cut and ``agg.move_nodes`` applies it, each linear
    in the piece's rows.  Only the bad communities' nodes change in ``a``,
    ``labels`` and ``agg``.

    ``rptr``/``rkids`` is ``reverse_assignment`` of ``a`` before any cut.
    The nodes a cut detaches are the ``_tail`` of its node in that reverse
    map, walked with the piece's cycle nodes marked ``seen``, restricted to
    the piece.  That is the node's subtree in the current ``a``, because a
    cut only self-assigns the cut node and everything below that node in
    the piece leaves with it: inside a piece the reverse map and ``a`` have
    the same edges, and a walk that leaves a piece through a cut node never
    comes back into it.

    A cut is one tree edge (a branch cut: the subtree below a non-cycle
    node leaves) or, when no branch cut improves, both edges of a 2-cycle
    (c0, c1): c1's subtree leaves and both cycle nodes self-assign.  Branch
    cuts are tried in ascending node order and the first best one wins.
    No longer cycle can occur.  The pair gain of ``find_assignment`` is
    symmetric bit for bit (entries (i, j) and (j, i) of the union hold the
    same sum W(i, j) + W(j, i), and both products of ``join_gain``
    commute), so on a cycle i1 -> i2 -> ... -> ik each node's best gain is
    at least its predecessor's and all gains on the cycle are equal.  With
    ties broken to the lowest id, k >= 3 then forces i3 < i1, i5 < i3, ...
    around the cycle, a contradiction.  Positive correction only makes
    self-loops, and maximal correction points a node into another
    component, so neither closes a new cycle; ``_debug_validate`` asserts
    the bound.  Branch cuts still run on any cycle, so hand-built forests
    work.

    The returned forest takes no second extraction: its components are the
    pieces, and since a cut only self-assigns its cut nodes, each cut node
    becomes a 1-cycle and no node leaves a cycle.  A branch cut's node
    becomes the detached piece's cycle, and a 2-cycle cut splits the cycle
    between the two pieces, so ``cycle`` flags the old cycle nodes plus the
    last node of every cut, the detached piece's root."""
    if memo is None:
        memo = _Frontier(graph.n)
    comm = forest.comm
    agg = CommunityAggregates.from_labels(st, comm, graph.n)
    changed = np.flatnonzero(_changed_nodes(memo.lg_comm, comm))
    lg = memo.lg
    lg[changed] = local_gains(graph, st, comm, agg, changed)
    memo.lg_comm = comm
    if stats is not None and lg.tobytes() != local_gains(
            graph, st, comm, agg).tobytes():
        stats.debug_failures.append(
            "positive: cached local gains differ from a full recompute")
    left = np.zeros(graph.n, dtype=bool)
    bad = np.unique(comm[lg < 0.0])
    if bad.size == 0:
        return forest, 0, [], left
    order = np.argsort(comm, kind="stable")
    lo, hi = np.searchsorted(comm[order], [bad, bad + 1]).tolist()
    # (label, members) of the pieces left to split
    stack = [(c, order[i:j]) for c, i, j in zip(bad.tolist(), lo, hi)]
    stack.reverse()
    rptr, rkids = reverse_assignment(forest.a)
    a = forest.a.copy()
    labels = comm.copy()
    cycle = forest.on_cycle.copy()
    seen = np.zeros(graph.n, dtype=bool)
    fresh = itertools.count(forest.n_comms)
    gains = []
    unresolved = 0
    while stack:
        c, mem = stack.pop()
        if mem.size <= 1:
            continue
        g = local_gains(graph, st, labels, agg, mem)
        if not (g < 0.0).any():
            continue
        cyc = mem[cycle[mem]]
        cuts = [(x,) for x in mem[~cycle[mem]].tolist()]
        if cyc.size == 2:
            cuts.append(tuple(cyc.tolist()))  # only if no branch cut improves
        best_gain = 0.0
        best = None  # (detached nodes, pointer sources to self-assign)
        seen[cyc] = True
        for cut in cuts:
            if len(cut) == 2 and best is not None:
                break
            moved = _tail(rptr, rkids, cut[-1], seen)
            b_nodes = np.sort(moved[labels[moved] == c])
            gsp = gain_switch(graph, st, labels, agg, b_nodes, c, None)
            if gsp > best_gain:
                best_gain = gsp
                best = (b_nodes, cut)
        seen[cyc] = False
        if best is None:
            unresolved += int((g < 0.0).sum())
            left[mem] = True
            continue
        b_nodes, cut = best
        for x in cut:
            a[x] = x
        cycle[cut[-1]] = True
        gains.append(best_gain)
        b = next(fresh)
        labels[b_nodes] = b
        agg.move_nodes(st, b_nodes, c, b)
        stack.append((c, mem[labels[mem] == c]))
        stack.append((b, b_nodes))
    if gains:
        forest = AssignmentForest.from_labels(a, labels, cycle)
    return forest, unresolved, gains, left


# -------------------------------------------------------- maximal correction

def _best_targets(graph, st, labels, agg, lo, hi, rows):
    """Per node of the ascending ``rows``: the neighboring community with
    the highest switch score for moving the node alone, or its own
    community when no alternative strictly beats staying.  Pure snapshot
    computation; a row's result depends only on its own entries, so any
    split of the rows gives the same bits per row.  ``_merge_pairs`` sums
    each row's union weights per neighboring community, over its terms in
    entry order (pairwise beyond 8 terms, so the sum is fixed by the row's
    own entries), and returns the groups sorted by community with their
    row pointer, so ``_first_max`` breaks ties to the lowest community
    label.  It also returns each group's row ``g_pos``, the position of
    the group's node in ``rows``, which picks the group's per-row values.
    ``[lo, hi)`` spans ``rows``; it is not read here, and stays so that
    ``perfbench/spans.py`` can count the entries a call covers."""
    m = st.m_w
    pos, nbr, wsum = graph.neighbor_union().gather(rows)
    cstar = labels[rows]
    # before t_stay, so that an edgeless graph (m_w 0) never divides 0 by 0
    if pos.size == 0:
        return cstar
    so_r = st.s_out[rows]
    si_r = st.s_in[rows]
    t_stay = join_gain(m, 0.0, so_r, si_r, agg.s_out[cstar] - so_r,
                       agg.s_in[cstar] - si_r)
    gptr, g_pos, g_comm, gsum = _merge_pairs(rows.size, agg.n_comms, pos,
                                             labels[nbr], wsum)
    own = g_comm == cstar[g_pos]
    so_i = so_r[g_pos]
    si_i = si_r[g_pos]
    t = join_gain(m, gsum, so_i, si_i,
                  agg.s_out[g_comm] - np.where(own, so_i, 0.0),
                  agg.s_in[g_comm] - np.where(own, si_i, 0.0))
    t_stay[g_pos[own]] = t[own]
    t[own] = -np.inf
    first = _first_max(gptr, t, t_stay)
    ok = first >= 0
    cstar[ok] = g_comm[first[ok]]
    return cstar


def _tail(rptr, rkids, i, seen):
    """Node i plus everything whose pointer path runs through i, without
    entering a node ``seen`` already marks.  The guard matters when i sits
    on a cycle: cycle edges appear in the child lists too, so the walk
    would otherwise loop."""
    out = [i]
    seen[i] = True
    qi = 0
    while qi < len(out):
        x = out[qi]
        qi += 1
        for k in rkids[rptr[x]:rptr[x + 1]].tolist():
            if not seen[k]:
                seen[k] = True
                out.append(k)
    moved = np.asarray(out, dtype=np.int64)
    seen[moved] = False
    return moved


def _attach_target(graph, st, labels, i, to):
    """Best neighbor of i inside community ``to`` by pairwise gain; -1 if i
    has no neighbor there."""
    u = graph.neighbor_union()
    lo, hi = int(u.ptr[i]), int(u.ptr[i + 1])
    nb = u.nbr[lo:hi]
    sel = labels[nb] == to
    if not sel.any():
        return -1
    cand = nb[sel]
    pg = join_gain(st.m_w, u.w[lo:hi][sel], st.s_out[i], st.s_in[i],
                   st.s_out[cand], st.s_in[cand])
    return int(cand[int(np.argmax(pg))])


class _MovePrices:
    """Prices of moving each node of ``roots`` with its pointer tail
    (``_tail``) to its planned community ``cstar[root]``, taken in one
    numpy pass at the current ``labels``/``agg``.

    The tails' sums come from one ``set_sums`` call, the kernel of
    ``gain_switch``, so each ``gain`` has ``gain_switch``'s bits.
    ``attach`` is ``_attach_target``'s pick, the first maximum of the
    root's pairwise gains over its entries in ``to``, or -1.  A move
    applies iff ``gain > 0`` and ``attach >= 0``."""

    def __init__(self, graph, st, labels, agg, rptr, rkids, roots, cstar):
        u = graph.neighbor_union()
        k = roots.size
        self.m = m = st.m_w
        self.to = to = cstar[roots]
        self.frm = frm = labels[roots]
        seen = np.zeros(graph.n, dtype=bool)
        # a root without children is its own tail: walk the others only
        walk = np.flatnonzero(rptr[roots + 1] > rptr[roots])
        rest = [_tail(rptr, rkids, i, seen)[1:] for i in roots[walk].tolist()]
        size = np.array([t.size for t in rest], dtype=np.int64)
        key = np.concatenate([np.arange(k), np.repeat(walk, size)]) * graph.n
        key += np.concatenate([roots, *rest])
        key.sort()
        seg, self.nodes = np.divmod(key, graph.n)
        self.tptr = np.searchsorted(seg, np.arange(k + 1))
        sums, (eseg, self.nbr, self.w) = set_sums(graph, st, labels, seg,
                                                  self.nodes, frm, to, k)
        w_to, self.w_from, self.so_b, self.si_b = sums
        self.eptr = np.searchsorted(eseg, np.arange(k + 1))
        self.gain = switch_gain(m, w_to, self.w_from, self.so_b, self.si_b,
                                agg.s_out[frm], agg.s_in[frm], agg.s_out[to],
                                agg.s_in[to])
        rpos, self.rnbr, rw = u.gather(roots)
        self.rptr = np.searchsorted(rpos, np.arange(k + 1))
        self.pg = join_gain(m, rw, st.s_out[roots][rpos],
                            st.s_in[roots][rpos], st.s_out[self.rnbr],
                            st.s_in[self.rnbr])
        first = _first_max(self.rptr, np.where(
            labels[self.rnbr] == to[rpos], self.pg, -np.inf), -np.inf)
        ok = first >= 0
        self.attach = np.full(k, -1, dtype=np.int64)
        self.attach[ok] = self.rnbr[first[ok]]

    def tail(self, k):
        return self.nodes[self.tptr[k]:self.tptr[k + 1]]

    def reprice(self, k, frm, to, labels, agg):
        """(gain, attach target) of candidate k, moving from ``frm`` to
        ``to``, at the current ``labels`` and ``agg``.  Exact while no
        commit has touched the source community since the batch: the
        tail, W(T, frm minus T), T's strengths and ``agg[frm]`` are then
        unchanged, and only the terms of ``to`` are summed again, from the
        candidate's stored entries in the same order."""
        lo, hi = self.rptr[k], self.rptr[k + 1]
        nb = self.rnbr[lo:hi]
        sel = labels[nb] == to
        if not sel.any():
            return 0.0, -1
        j = int(nb[sel][np.argmax(self.pg[lo:hi][sel])])
        lo, hi = self.eptr[k], self.eptr[k + 1]
        w_to = segment_total(self.w[lo:hi][labels[self.nbr[lo:hi]] == to])
        g = switch_gain(self.m, w_to, self.w_from[k], self.so_b[k],
                        self.si_b[k], agg.s_out[frm], agg.s_in[frm],
                        agg.s_out[to], agg.s_in[to])
        return float(g), j


class _PriceRounds:
    """Prices of the ascending candidates ``roots`` of one sweep, taken in
    rounds as the serial commit reaches them.  Reaching a candidate not
    yet priced prices one round (a ``_MovePrices`` batch at the current
    labels): the first candidate at or after it of every source community
    no commit has touched.  A community's candidate thus waits until its
    earlier ones have been reached, and the round's tails, one per
    community, are disjoint.  Every candidate priced is one the commit
    reaches with its source untouched, except at most one per community
    that a commit touches first, so the tails priced in a sweep sum to at
    most those the commit reaches plus n.

    ``touched[c]`` is the index of the last commit that touched community
    c, -1 for none; ``commit`` records one."""

    def __init__(self, graph, st, labels, agg, rptr, rkids, roots, cstar,
                 n_comms):
        self.kernel = (graph, st, labels, agg, rptr, rkids)
        self.roots = roots
        self.frm = labels[roots]
        self.cstar = cstar
        self.batch = np.full(roots.size, -1)
        self.slot = np.zeros(roots.size, dtype=np.int64)
        self.rounds = []  # (prices, commits made before they were taken)
        self.touched = np.full(n_comms, -1)
        self.commits = 0

    def price(self, k):
        """(prices, slot, gain, attach target) of candidate k at the
        current labels, its source untouched.  The round's price holds
        unless a commit touched the target since, and is then re-priced
        (``_MovePrices.reprice``)."""
        if self.batch[k] < 0:
            q = k + np.unique(self.frm[k:], return_index=True)[1]
            q = np.sort(q[(self.batch[q] < 0)
                          & (self.touched[self.frm[q]] < 0)])
            self.batch[q] = len(self.rounds)
            self.slot[q] = np.arange(q.size)
            self.rounds.append((_MovePrices(*self.kernel, self.roots[q],
                                            self.cstar), self.commits))
        mp, born = self.rounds[self.batch[k]]
        s = int(self.slot[k])
        frm, to = int(mp.frm[s]), int(mp.to[s])
        if self.touched[to] >= born:
            _, _, labels, agg, _, _ = self.kernel
            return (mp, s) + mp.reprice(s, frm, to, labels, agg)
        return mp, s, float(mp.gain[s]), int(mp.attach[s])

    def commit(self, frm, to):
        self.touched[frm] = self.touched[to] = self.commits
        self.commits += 1


def maximal_correction(graph, st, forest, config, level, sweep, pool,
                       stats=None, memo=None):
    """One synchronized sweep: plan the best community switch for every
    node from a frozen snapshot, then commit accepted moves serially in
    ascending node order.  Each committed node drags its pointer tail
    along.  Only the nodes touching a community changed since the level's
    ``memo`` last planned are planned (see ``_Frontier``).

    The commit walks the candidates the coin accepted in ascending order.
    A candidate is skipped once its source community has been touched by
    an earlier commit this sweep, and otherwise applies iff its price at
    the current labels is strictly positive and it has a neighbor in the
    target to attach to.  The prices come in rounds (``_PriceRounds``):
    reaching a candidate not yet priced prices, in one batch at the
    current labels (``_MovePrices``), the next candidate of every source
    community still untouched.  A batch price stays exact until a commit
    touches its target: a commit changes only the labels of its tail, the
    aggregates of its source and target, and the pointer of its root.  So
    while the source is untouched its members, their pointers and
    ``agg[frm]`` are unchanged, hence the tail and W(T, frm minus T) too,
    and while the target is untouched its members and ``agg[to]`` are.  A
    touched target is re-priced from the candidate's stored entries
    (``_MovePrices.reprice``).  Every sum is a ``segment_sums`` in one
    order, so the batch price, the re-price and ``gain_switch`` agree bit
    for bit; under ``debug_checks`` every applied move is checked against
    ``gain_switch`` and ``_attach_target``.

    ``improved`` is False, ending the level, unless a move applied or a
    candidate the coin rejected would apply at the snapshot.  That is
    exact.  A sweep that applies nothing touches nothing, so each
    candidate's snapshot price is the price a later sweep would see: the
    forest stays the same, so do the frontier plan and the output of
    positive correction, which is idempotent on an unchanged forest.
    Later sweeps would then differ only in their coins, and none could
    apply a move that cannot apply now.  Under ``debug_checks`` the run
    loop re-checks every such stop with all coins accepted.

    The returned forest takes no second extraction: it is ``a``, the
    canonical ``labels``, and the cycle flags of the nodes that kept their
    label.  A commit moves root i's tail into another community and points
    i there.  If i is off its cycle, its tail holds no cycle node.  If i is
    on its cycle, every member's path runs through i, so the whole
    community moves and its cycle breaks.  No commit closes a new cycle,
    because i points into a component whose paths never reach the tail.
    So a node leaves a cycle iff it moved, and no node joins one.  Under
    ``debug_checks`` ``_debug_validate`` compares the forest with a fresh
    ``extract_components`` after every phase."""
    if memo is None:
        memo = _Frontier(graph.n)
    labels = forest.comm.copy()
    agg = CommunityAggregates.from_labels(st, labels, forest.n_comms)

    def plan(rows):
        return _map_rows(graph, pool, lambda lo, hi, r: _best_targets(
            graph, st, labels, agg, lo, hi, r), rows)

    changed = _changed_nodes(memo.plan_comm, labels)
    if not changed.all():
        # the union is symmetric: the rows with a changed neighbor are the
        # neighbors of the changed rows
        changed[graph.neighbor_union().gather(np.flatnonzero(changed))[1]] = True
    cstar = labels[memo.target_rep]
    cstar[changed] = plan(np.flatnonzero(changed))
    if stats is not None and not np.array_equal(
            cstar, plan(np.arange(graph.n))):
        stats.debug_failures.append(
            f"frontier plan differs from the full plan at level {level} "
            f"sweep {sweep}")
    memo.plan_comm = forest.comm
    memo.target_rep = _smallest_members(labels)[cstar]
    cand = np.flatnonzero(cstar != labels)
    if cand.size == 0:
        return forest, False, 0, []
    accept = uniform01(config.seed, (level, sweep), cand) < config.accept_prob
    rptr, rkids = reverse_assignment(forest.a)
    book = _PriceRounds(graph, st, labels, agg, rptr, rkids, cand[accept],
                        cstar, forest.n_comms)
    a = forest.a.copy()
    gains = []
    for k, (i, frm) in enumerate(zip(book.roots.tolist(),
                                     book.frm.tolist())):
        if book.touched[frm] >= 0:
            continue
        mp, s, g, j = book.price(k)
        if not (g > 0.0 and j >= 0):
            continue
        to = int(mp.to[s])
        moved = mp.tail(s)
        if stats is not None:
            fresh = (gain_switch(graph, st, labels, agg, moved, frm, to),
                     _attach_target(graph, st, labels, i, to))
            if fresh != (g, j):
                stats.debug_failures.append(
                    f"level {level} sweep {sweep}: move of node {i} priced "
                    f"{(g, j)}, fresh {fresh}")
        a[i] = j
        labels[moved] = to
        agg.move(frm, to, mp.so_b[s], mp.si_b[s], moved.size)
        book.commit(frm, to)
        gains.append(g)
    if stats is not None and gains and not agg.check(st, labels):
        stats.debug_failures.append(
            f"incremental aggregates drifted at level {level} sweep {sweep}")
    if gains:
        forest = AssignmentForest.from_labels(
            a, labels, forest.on_cycle & (labels == forest.comm))
        return forest, True, len(gains), gains
    # nothing applied, so nothing is touched and labels and agg are the
    # snapshot; the rejected candidates are priced until one applies
    idle = _PriceRounds(graph, st, labels, agg, rptr, rkids, cand[~accept],
                        cstar, forest.n_comms)
    improved = any(g > 0.0 and j >= 0 for _, _, g, j in map(
        idle.price, range(idle.roots.size)))
    return forest, improved, 0, gains


# ---------------------------------------------------------------- main loop

def _debug_validate(graph, st, forest, phase, stats, unresolved):
    """Record every broken invariant of ``forest`` in ``stats``.  After a
    positive phase, ``unresolved`` masks the nodes positive correction
    reported as left unrepaired, and any negative local gain outside it is
    a failure; None skips the gain check.  The comparison with a fresh
    ``extract_components`` is the one check that the forests the
    corrections derive from their labels match their pointers."""
    a = forest.a
    ptd = np.flatnonzero(a != np.arange(graph.n))
    pos, nbr, _ = graph.neighbor_union().gather(ptd)
    hit = np.zeros(ptd.size, dtype=bool)
    hit[pos[nbr == a[ptd][pos]]] = True
    for i in ptd[~hit].tolist():
        stats.debug_failures.append(
            f"{phase}: node {i} points at non-neighbor {a[i]}")
    fresh = extract_components(a)
    if not (np.array_equal(fresh.comm, forest.comm)
            and np.array_equal(fresh.on_cycle, forest.on_cycle)):
        stats.debug_failures.append(f"{phase}: stale component labeling")
    cyc_len = np.bincount(forest.comm[forest.on_cycle], minlength=forest.n_comms)
    for c in np.flatnonzero(cyc_len > 2).tolist():
        stats.debug_failures.append(
            f"{phase}: community {c} has a cycle of length {int(cyc_len[c])}")
    if unresolved is not None:
        agg = CommunityAggregates.from_labels(st, forest.comm, forest.n_comms)
        lg = local_gains(graph, st, forest.comm, agg)
        for i in np.flatnonzero((lg < -1e-12) & ~unresolved).tolist():
            stats.debug_failures.append(
                f"{phase}: negative local gain {lg[i]:.3e} left behind "
                f"at node {i}")


def _debug_stop(graph, st, forest, config, level, stats):
    """Record a failure if a sweep over the ``forest`` a level stopped at,
    planned afresh with every coin accepted, still applies a move."""
    applied = maximal_correction(graph, st, forest,
                                 replace(config, accept_prob=1.0), level,
                                 MAX_SWEEPS, None)[2]
    if applied:
        stats.debug_failures.append(
            f"level {level}: stopped with {applied} moves still applicable")


def run(graph: Graph, config: RunConfig | None = None) -> RunResult:
    """Detect communities and return the full level hierarchy.

    Levels are built until a level's partition is the identity (every
    aggregated node alone), so the last aggregation step would be a no-op.
    Every level and ``final_score`` are computed on the weights scaled to a
    total in [0.5, 1) (see ``graph._unit_scaled``), so neither depends on the
    weight scale.
    """
    if config is None:
        config = RunConfig()
    if graph.n == 0:
        raise ValueError("graph has no nodes")
    stats = RunStats()
    t_start = time.perf_counter()
    graph = _unit_scaled(graph)
    pool = _Pool(config.threads)
    clock = {"t": t_start}
    debug = stats if config.debug_checks else None
    running = 0.0

    def tick(phase):
        now = time.perf_counter()
        stats.phase_seconds[phase] += now - clock["t"]
        clock["t"] = now

    def record(gains):
        nonlocal running
        for gv in gains:
            running += gv
            stats.score_trace.append(running)

    def positive(forest):
        clock["t"] = time.perf_counter()
        forest, unresolved, gains, left = positive_correction(
            g, st, forest, debug, memo)
        tick("positive")
        stats.accepted_splits += len(gains)
        stats.unresolved_negative += unresolved
        record(gains)
        if config.debug_checks:
            _debug_validate(g, st, forest, f"positive@{level}", stats, left)
        return forest

    try:
        g = graph
        levels = []
        for level in itertools.count():
            st = strengths(g)
            memo = _Frontier(g.n)
            stats.trace_level_starts.append(len(stats.score_trace))
            clock["t"] = time.perf_counter()
            a = find_assignment(g, st, pool)
            tick("assign")
            forest = extract_components(a)
            tick("components")
            running = score(g, st, forest.comm)
            forest = positive(forest)
            for sweep in range(MAX_SWEEPS):
                clock["t"] = time.perf_counter()
                forest, improved, applied, gains = maximal_correction(
                    g, st, forest, config, level, sweep, pool, debug, memo)
                tick("maximal")
                stats.accepted_moves += applied
                record(gains)
                if config.debug_checks:
                    _debug_validate(g, st, forest, f"maximal@{level}", stats,
                                    None)
                if not improved:
                    if config.debug_checks:
                        _debug_stop(g, st, forest, config, level, stats)
                    break
                forest = positive(forest)
            else:
                stats.warnings.append(
                    f"level {level}: stopped after {MAX_SWEEPS} sweeps")
            stats.sweeps_per_level.append(sweep + 1)
            labels = forest.comm
            levels.append(labels)
            stats.drift_checks.append((running, score(g, st, labels)))
            if forest.n_comms == g.n:
                break
            clock["t"] = time.perf_counter()
            g = aggregate(g, labels)
            tick("aggregate")
        flat = levels[0]
        for lv in levels[1:]:
            flat = compose_labels(flat, lv)
        hierarchy = Hierarchy(levels=levels, flat=flat)
        final = score(graph, strengths(graph), flat)
        stats.levels = len(levels)
        stats.wall_seconds = time.perf_counter() - t_start
        return RunResult(hierarchy=hierarchy, final_score=final, stats=stats)
    finally:
        pool.close()
