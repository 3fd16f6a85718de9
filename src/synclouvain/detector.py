"""Parallel community detection with synchronized move phases.

``run`` builds levels until one leaves every node in its own community.
Each level runs five phases; the function named for each states its rules
and proves them:

1. assignment (``find_assignment``): every node points at its best
   neighbor, or itself;
2. components (``forest.extract_components``): the pointer forest becomes
   the level's communities, once per level;
3. positive correction (``positive_correction``): communities holding a
   member of negative local gain are split by improving cuts;
4. maximal correction (``maximal_correction``): each sweep plans every
   node's best community from one snapshot (``_best_targets``, on the rows
   ``_Frontier.settled`` leaves, split across threads by ``_map_rows``
   alone) and commits the moves its coin accepts as a serial walk would
   (``_commit_rounds``); each applying sweep is followed by positive
   correction again, until a sweep applies nothing or ``MAX_SWEEPS``;
5. aggregation (``graph.aggregate``): the communities become the next
   level's nodes.

Results depend only on (graph, seed, accept_prob), never on the thread
count.
"""

from __future__ import annotations

import contextvars
import itertools
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .forest import AssignmentForest, extract_components, subtrees
from .graph import (Graph, _merge_pairs, _run_starts, _unit_scaled,
                    aggregate, compose_labels, strengths)
from .quality import (CommunityAggregates, gain_switch, join_gain, local_gains,
                      score, segment_sums, set_sums, stay_gain, switch_gain)
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
    # the acceptance probability of a level's first sweep; sweep s accepts
    # with 1 - (1 - accept_prob)**(s + 1) (see maximal_correction)
    accept_prob: float = 0.5
    debug_checks: bool = False

    def __post_init__(self):
        # a bool is an int, but no thread count, seed or probability
        threads, seed, p = (None if isinstance(x, bool) else x for x in (
            self.threads, self.seed, self.accept_prob))
        if not isinstance(threads, (int, np.integer)) or threads < 1:
            raise ValueError("threads must be an integer >= 1")
        if not isinstance(seed, (int, np.integer)):
            raise ValueError("seed must be an integer")
        if not (isinstance(p, numbers.Real) and 0.0 < p <= 1.0):
            raise ValueError("accept_prob must be a real number in (0, 1]")


@dataclass
class RunStats:
    """What a run did and what it checked.

    - ``levels``: the levels built; ``wall_seconds``: ``run``'s wall time.
    - ``sweeps_per_level``: the maximal sweeps of each level.
    - ``accepted_moves``: the moves maximal correction applied.
    - ``accepted_splits``: the cuts positive correction applied.
    - ``unresolved_negative``: the negative-gain members that no single
      cut could repair, summed over the positive phases; a community left
      unrepaired is counted again in every positive phase that re-examines
      it.
    - ``phase_seconds``: wall seconds per phase; ``setup_seconds``: those
      of scaling the weights to a unit total, the level-0 union build
      included (``graph._unit_scaled``), which no phase is charged.
    - ``score_trace``: the running score after each applied cut or move,
      counted from the score of each level's assignment;
      ``trace_level_starts`` indexes each level's first entry.
    - ``drift_checks``: per level, the running score and ``score`` of the
      level's partition.
    - ``warnings``: the levels stopped by ``MAX_SWEEPS``.
    - ``debug_failures``: every broken invariant ``debug_checks`` found."""
    levels: int = 0
    wall_seconds: float = 0.0
    sweeps_per_level: list = field(default_factory=list)
    accepted_moves: int = 0
    accepted_splits: int = 0
    unresolved_negative: int = 0
    phase_seconds: dict = field(default_factory=lambda: {
        k: 0.0 for k in ("assign", "components", "positive", "maximal",
                         "aggregate")})
    setup_seconds: float = 0.0
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
    the items while ``threads - 1`` workers run theirs.  Leaving a ``with``
    block closes it."""

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

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _map_rows(graph, pool, fn, rows):
    """Cut the ascending ``rows`` into contiguous pieces of at most
    ``PIECE_ENTRIES`` union entries, whatever the thread count, run ``fn(lo,
    hi, piece)`` on each piece through ``pool``, ``[lo, hi)`` being its
    span, and concatenate the results in row order.  The plan kernel reads
    only the piece; ``perfbench/spans.py`` counts the span's entries.  A
    row goes to the piece its entries' midpoint falls in, the pieces tiling
    the entries of ``rows`` in steps of ``PIECE_ENTRIES / 2``.  The
    midpoints of a piece's first and last rows are less than a step apart,
    and each lies at least half its row beyond the other's row, so a piece
    of two or more rows holds fewer than ``PIECE_ENTRIES`` entries; a
    larger row is a piece of its own."""
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    ptr = graph.neighbor_union().ptr
    size = ptr[rows + 1] - ptr[rows]
    mid2 = 2 * np.cumsum(size) - size  # twice each row's entry midpoint
    cuts = np.flatnonzero(np.diff(mid2 // PIECE_ENTRIES)) + 1
    return np.concatenate((pool or _Pool(1)).map(
        lambda p: fn(int(p[0]), int(p[-1]) + 1, p), np.split(rows, cuts)))


class _Frontier:
    """One level's memo of what its maximal plans and its positive phases
    last computed, so later phases redo only what changed.  A fresh memo
    has computed nothing, so its first use plans or examines every node.

    Positive correction examines the ``dirty`` nodes alone, all of them at
    level start, and ``screen`` clears the mask.  It is marked where
    members change: an applying maximal sweep marks every member of each
    source and target community of an applied move, and positive
    correction marks the members of each piece it cuts and of each piece it
    leaves unrepaired (``left``).  The communities it examines, those with
    a dirty member of negative local gain, are then exactly those where a
    full recompute finds one, bit for bit:

    - every mark covers whole communities: a commit marks its communities
      after the moves, and every piece that positive correction hands on
      from a cut or left piece lies inside it; so a community with a clean
      member is clean throughout;
    - a clean community has the member set it had when it was last
      examined, since only commits and cuts change members, and its gains
      were not negative then, else it would have been cut or left;
    - the same member set gives the bincounts of
      ``CommunityAggregates.from_labels`` the same bits, and each member's
      weight to its community sums the same entries in the same order, so
      every gain keeps its bits and is still not negative.

    A cut piece is marked although its pieces were examined after the cut:
    they were judged against incrementally updated aggregates, whose bits
    need not be ``from_labels``'.

    A maximal sweep plans every row but those ``settled`` keeps in their
    community, with no gather or merge: the fresh rows that cannot beat
    staying.  Each planned row caches ``w_own``, its own group's sum, and
    ``x_max``, its largest group sum to another community (-inf for none).
    A row is stale, to be planned, iff its ``x_max`` is +inf: every row at
    level start, and each row whose node moved since its plan.  The commit
    flags each applied tail and positive correction each cut's nodes in the
    mask ``moved`` (a mask, not a list of the moved arrays, so that no
    commit's arrays outlive it).  ``widen``, which ``settled`` and
    ``screen`` call first at the labels they are given, sets those nodes'
    ``x_max`` to +inf and widens the cache of each union neighbor i of
    them, once per call, in O(n + their entries): with d the degree of i,
    S = s_out[i] + s_in[i] and A the sum of the weights w_iv to the moved v
    that are not in i's community now,

        D = A + M,  M = (d + 4) * (2**-49 * S + 2**-1070),
        x_max[i] = max(x_max[i], 0) + D,  w_own[i] -= D.

    Widening keeps a stale row's +inf, and no test reads a stale row's
    ``w_own``, so the stale rows stay stale until they are planned.  The
    settle test is then exact: every row it keeps, the kernel keeps.

    - Bounds suffice.  A fresh row stays when not ``x_max / m > t_stay``,
      ``t_stay`` being ``stay_gain`` of the cached ``w_own`` with the
      kernel's operands.  Let ``w_own`` be at most the own group's sum as
      the kernel would round it now, and ``x_max`` at least every other
      group's.  ``join_gain`` and division by m > 0 round monotonically, so
      every other group fails the kernel's ``gsum / m > t_stay``, and the
      own group cannot beat staying by the kernel's proof
      (``_best_targets``); so the kernel returns the own community.
    - A row with no neighbor moved since its plan has exact bits.  Only
      moves change which nodes share a community, and canonical relabeling
      renames the communities of unmoved nodes one to one, so the row's
      groups hold the same entries in the same order.
    - A widened row keeps the bounds in exact arithmetic.  Let L0 be the
      labels at its plan and L those now.  Unmoved nodes keep sharing, or
      not sharing, a community, so each group at L is the unmoved part of
      one group at L0 plus moved nodes.  A moved neighbor v is, at the last
      call that saw it moved, in the community it has now.  So each v that
      left i's community, and each v in another group now, is in that
      call's A.  The exact own sum thus fell by at most the calls' A's
      together, and each other exact group sum is at most max(x_max at L0,
      0) plus them.  The max matters: a row with no other community at its
      plan (-inf) can gain one.
    - The margin covers the rounding.  Let u = 2**-53, e = 2**-1075 and T
      the exact sum of i's union weights.  A rounding errs by at most u
      times its result plus e, in any range (an addition with a subnormal
      result is exact).  A union weight is one rounded addition of the two
      edge weights between its ends, which S counts, scaled at level 0 by
      ``_unit_scaled``'s power of two, so T <= 1.01 S + 4de for any d
      below 2**40.  A row is read at most two calls after its plan or
      after a test that kept it: ``screen`` reads it after positive
      correction's call, and the next ``settled`` after its own, once that
      phase's cuts moved more nodes.  Every value rounded here is at most
      4T plus three margins: a group sum, a call's A, and the cache, which
      starts at a plan's sums or, kept by the test, at 0 <= x_max <= w_own
      * (1 + 2u) + 2e, and then moves by at most T + M per call; and w_own
      never grows.  As 3uM < 0.01uS for any d below 2**40, each rounding
      errs by at most r = 4uT + 3uM + e <= 4.1uS + 2e.  The kernel's sum of
      a group's at most d terms errs by (d - 1)r, at L0 and at L; a call's
      A errs by (d - 1)r, and its three additions by r each.  Each call's
      margin, rounded, is at least (d + 4)(15.9uS + 30e), more than its own
      (d + 1)r plus the 2(d - 1)r of the kernel's two sums.

    ``screen`` proves a dirty row's local gain not negative from the cache
    alone, so positive correction computes ``local_gains`` on the rest.  It
    takes the fresh rows, whose ``w_own`` is at most their own group's sum
    as the kernel would round it at the labels given, and subtracts M
    once more: ``local_gains`` sums the same at most d terms in another
    order (``np.bincount``, where the kernel's ``np.add.reduceat`` may add
    pairwise), so the two sums differ by at most 2(d - 1)r, and the
    subtraction errs by r, which M covers as above.  The result is at most
    ``local_gains``' own sum, and ``join_gain`` rounds monotonically in
    ``wsum``; so with the same aggregates, ``from_labels``' of those
    labels, a ``stay_gain`` of it that is not negative bounds the local
    gain from below.  The row's community cannot be bad through it.

    Under ``debug_checks`` the plan and the examined communities, and so
    the cache and the marks, are compared with a full recompute, and every
    row ``screen`` passed has its local gain recomputed."""

    def __init__(self, n):
        self.dirty = np.ones(n, dtype=bool)
        self.w_own = np.zeros(n)
        self.x_max = np.full(n, np.inf)
        self.moved = np.zeros(n, dtype=bool)  # since the last ``widen``

    def widen(self, graph, st, labels):
        """Mark stale the nodes moved since the last call and widen their
        union neighbors' caches at ``labels``; a no-op when none moved."""
        moved = np.flatnonzero(self.moved)
        self.moved[moved] = False
        self.x_max[moved] = np.inf
        pos, nbr, w = graph.neighbor_union().gather(moved)
        w[labels[nbr] == labels[moved][pos]] = 0.0
        rows = np.flatnonzero(np.bincount(nbr, minlength=graph.n))
        wide = segment_sums(nbr, w, graph.n)[rows] + _margin(graph, st, rows)
        self.x_max[rows] = np.maximum(self.x_max[rows], 0.0) + wide
        self.w_own[rows] -= wide

    def settled(self, graph, st, labels, agg):
        """Mask of the nodes that keep their community at ``labels`` by the
        cache alone, after ``widen``; with m 0 it keeps none."""
        self.widen(graph, st, labels)
        keep = (self.x_max < np.inf) & (st.m_w > 0.0)
        r = np.flatnonzero(keep)
        t_stay = stay_gain(st.m_w, self.w_own[r], st.s_out[r], st.s_in[r],
                           agg, labels[r])
        keep[keep] = ~(self.x_max[r] / st.m_w > t_stay)
        return keep

    def screen(self, graph, st, labels, agg):
        """(rows, passed): the dirty nodes, ascending, split into those
        whose local gain at ``labels`` is to be computed and those whose
        gain the cache proves not negative, after ``widen``; clears the
        mask.  ``agg`` must be ``from_labels``' of ``labels``.  With m 0 it
        proves none."""
        self.widen(graph, st, labels)
        dirty = np.flatnonzero(self.dirty)
        self.dirty[dirty] = False
        safe = (self.x_max[dirty] < np.inf) & (st.m_w > 0.0)
        r = dirty[safe]
        safe[safe] = stay_gain(
            st.m_w, self.w_own[r] - _margin(graph, st, r), st.s_out[r],
            st.s_in[r], agg, labels[r]) >= 0.0
        return dirty[~safe], dirty[safe]


def _margin(graph, st, rows):
    """M of each of ``rows`` (see ``_Frontier``)."""
    ptr = graph.neighbor_union().ptr
    return (ptr[rows + 1] - ptr[rows] + 4) * (
        2.0**-49 * (st.s_out[rows] + st.s_in[rows]) + 2.0**-1070)


def _first_max(k, row, val, floor):
    """Per row r < k: the index of the first entry of ``val`` in row r,
    ``row`` holding the ascending row of each entry, that holds the row's
    maximum, when that maximum is above ``floor`` (a scalar or one value
    per row); else -1.  A row's entries are in neighbor or community
    order, so ties go to the lowest one.  Only the entries above their
    row's floor can hold such a maximum, and the first of them holding it
    is the row's first, so the maxima are taken over those entries
    alone."""
    first = np.full(k, -1, dtype=np.int64)
    up = np.flatnonzero(val > (floor[row] if np.ndim(floor) else floor))
    row, val = row[up], val[up]
    head = _run_starts(row)
    mx = np.maximum.reduceat(val, head)
    hit = np.flatnonzero(val == np.repeat(mx, np.diff(head, append=up.size)))
    lead = hit[_run_starts(row[hit])]
    first[row[lead]] = up[lead]
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
    wins.  Its aggregates are copies of the strengths, the bits
    ``CommunityAggregates.from_labels`` gives singletons, since
    ``np.bincount`` adds each strength to 0.0."""
    labels = np.arange(graph.n)
    agg = CommunityAggregates(st.s_out.copy(), st.s_in.copy())
    return _map_rows(graph, pool, lambda lo, hi, rows: _best_targets(
        graph, st, labels, agg, lo, hi, rows), labels)


# ------------------------------------------------------- positive correction

def positive_correction(graph, st, forest, stats=None, memo=None):
    """Split every community that still contains a member with negative
    local gain, as long as some single cut strictly improves the score.
    Returns (forest, unresolved, gains, left): the forest of the cut
    pointers, the count of negative-gain members no cut could repair, the
    gain of each applied cut, and a mask of the nodes of the pieces holding
    them.  Only the ``dirty`` nodes of the level's ``memo`` are examined,
    and of those only the ones its ``screen`` cannot prove safe from the
    row cache get their local gains computed; the pieces cut or left are
    marked dirty for the next phase (see ``_Frontier``).  A ``stats`` turns
    on the comparison with a full recompute and the check of every applied
    cut's price against ``gain_switch``.

    One stack of pieces, seeded with the bad communities (those with a
    dirty member of negative local gain) so that the smallest label is
    popped first, is bisected until no piece holds a negative local gain
    that a cut repairs; each piece carries its members, ascending, and the
    flags ``cycle`` mark every piece's cycle nodes.  Pieces are labels of
    the scratch labeling ``labels``, and ``agg`` holds their aggregates,
    with room for a label per node.  A cut moves the detached nodes to the
    next label of the counter ``fresh``, so it is a maximal-correction
    commit to an empty community: ``local_gains`` tests a piece,
    ``_best_cut`` prices its cuts, each at ``gain_switch(..., to=None)``'s
    bits, and ``agg.move_nodes`` applies the pick.  Testing and applying
    are linear in the piece's rows, pricing in the rows of the cuts'
    slices.  Only the bad communities' nodes change in ``a``, ``labels``
    and ``agg``.

    ``subtrees`` lays the bad communities out once, before any cut, with
    each community's smallest cycle node as its root.  The nodes a cut
    detaches are the slice of its last node, filtered by the piece's label
    and sorted.  For a branch cut that is the node's original subtree; for
    a 2-cycle cut (c0, c1), c0 < c1 is the root, so c1's slice is the tree
    hanging from c1.  The filtered slice is the node's subtree in the
    current ``a``, because a cut only self-assigns its cut node: every
    node below it in the original tree either still reaches it, and is in
    the piece, or was detached by an earlier cut below it, together with
    its whole current subtree, and carries another label.

    A cut is one tree edge (a branch cut: the subtree below a non-cycle
    node leaves) or, when no branch cut improves, both edges of a 2-cycle
    (c0, c1): c1's subtree leaves and both cycle nodes self-assign.  Of the
    branch cuts, the first best in ascending node order wins.  No longer
    cycle can occur.  The pair gain of ``find_assignment`` is
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
    rows, passed = memo.screen(graph, st, comm, agg)
    bad = np.unique(comm[rows[local_gains(graph, st, comm, agg, rows) < 0.0]])
    if stats is not None:
        full = local_gains(graph, st, comm, agg)
        if (full[passed] < 0.0).any():
            stats.debug_failures.append(
                "positive: the screen passed a negative local gain")
        if not np.array_equal(bad, np.unique(comm[full < 0.0])):
            stats.debug_failures.append(
                "positive: a negative local gain lies at a clean node")
    left = np.zeros(graph.n, dtype=bool)
    nodes = np.flatnonzero(np.isin(comm, bad))
    tree = order, start, _, root = subtrees(forest, nodes)
    # (label, members) of the pieces left to split: the bad communities'
    # slices, which tile ``order`` in label order
    parts = np.split(order, np.unique(start[root[nodes]])[1:])
    stack = [(c, np.sort(p)) for c, p in zip(bad.tolist(), parts)]
    stack.reverse()
    a = forest.a.copy()
    labels = comm.copy()
    cycle = forest.on_cycle.copy()
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
        gain, b_nodes, cut = _best_cut(graph, st, labels, agg, tree, c, mem,
                                       cycle)
        if cut is None:
            unresolved += int((g < 0.0).sum())
            left[mem] = True
            continue
        if stats is not None and gain != gain_switch(graph, st, labels, agg,
                                                     b_nodes, c, None):
            stats.debug_failures.append(
                f"positive: cut of node {cut[-1]} mispriced at {gain}")
        a[list(cut)] = cut
        cycle[cut[-1]] = True
        gains.append(gain)
        b = next(fresh)
        labels[b_nodes] = b
        memo.moved[b_nodes] = True
        memo.dirty[mem] = True
        agg.move_nodes(st, b_nodes, c, b)
        stack.append((c, mem[labels[mem] == c]))
        stack.append((b, b_nodes))
    memo.dirty |= left
    if gains:
        forest = AssignmentForest.from_labels(a, labels, cycle)
    return forest, unresolved, gains, left


def _slices(n, order, lo, size):
    """(seg, nodes): the slices ``order[lo[k]:lo[k] + size[k]]`` end to end,
    each in ascending order, and the slice ``seg`` of each node; every node
    id is below ``n``."""
    seg = np.repeat(np.arange(size.size), size)
    key = seg * n + order[np.arange(seg.size)
                          + np.repeat(lo - np.cumsum(size) + size, size)]
    key.sort()
    return seg, key - seg * n


def _best_cut(graph, st, labels, agg, tree, c, mem, cycle):
    """The cut that positive correction applies to the piece of label ``c``
    with the ascending members ``mem``: (gain, detached nodes, cut nodes),
    the detached nodes ascending, or (0.0, None, None) when no cut strictly
    improves.  ``tree`` is the phase's ``subtrees`` and ``cycle`` flags the
    pieces' cycle nodes.

    The branch cuts are priced in batches: the slices of consecutive
    off-cycle members, filtered to label ``c`` and laid end to end by
    ``_slices``, go to one ``set_sums`` call without ``owner``, so each set
    is priced alone at ``labels``, and one ``switch_gain`` against the
    empty community.  Each set's sums add its nodes' terms in ascending
    node order, so every gain has ``gain_switch``'s bits.  The first
    maximum of a batch is ``np.argmax``'s, and a later batch wins only with
    a strictly higher gain, so the pick is the first best cut in ascending
    node order.  A batch ends where the slices' running size crosses a
    multiple of ``PIECE_ENTRIES``, so a deep chain, whose slices hold about
    the square of its length, never lays them all out at once.  The 2-cycle
    cut (c0, c1) comes last, as a batch of c1's slice alone, priced only
    when no branch cut improves."""
    order, start, size, _ = tree
    off, cyc = mem[~cycle[mem]], mem[cycle[mem]]
    parts = [(p, None) for p in np.split(off, np.flatnonzero(np.diff(
        np.cumsum(size[off]) // PIECE_ENTRIES)) + 1) if p.size]
    if cyc.size == 2:
        parts.append((cyc[1:], tuple(cyc.tolist())))
    best = 0.0, None, None
    for part, pair in parts:
        if pair and best[2] is not None:
            break
        seg, nodes = _slices(graph.n, order, start[part], size[part])
        own = labels[nodes] == c
        seg, nodes = seg[own], nodes[own]
        w_to, w_from, so_b, si_b, _ = set_sums(
            graph, st, labels, seg, nodes, np.full(part.size, c),
            np.full(part.size, -1), part.size)
        gain = switch_gain(st.m_w, w_to, w_from, so_b, si_b, agg.s_out[c],
                           agg.s_in[c])
        j = int(np.argmax(gain))
        if gain[j] > best[0]:
            best = float(gain[j]), nodes[seg == j], pair or (int(part[j]),)
    return best


# -------------------------------------------------------- maximal correction

def _best_targets(graph, st, labels, agg, lo, hi, rows, memo=None):
    """Per node of the ascending ``rows``: the neighboring community with
    the highest switch score for moving the node alone, or its own
    community when no alternative strictly beats staying.  Pure snapshot
    computation; a row's result depends only on its own entries, so any
    split of the rows gives the same bits per row.  Given a ``memo``
    (``_Frontier``), it also caches each row's own group sum ``w_own`` and
    its largest group sum to another community ``x_max`` (the maximum of
    the group sums with the own group masked to -inf, so finite or -inf:
    the row is fresh); a piece writes only its own rows, so the threads'
    writes are disjoint.  A piece whose rows have no entry returns before
    the cache, so its rows stay stale.

    The rows' entries are one ``gather``; the span ``[lo, hi)`` is not
    read.  ``_merge_pairs`` sums each row's union weights per neighboring
    community, over its terms in entry order (in ``np.add.reduceat``'s
    order, so the sum is fixed by the row's own entries), and returns the
    groups sorted by row, then community, each with its row's position in
    ``rows``; so ``_first_max`` breaks ties to the lowest community label.
    A node's own group gives its staying score.

    Only the groups whose ``gsum / m`` beats their row's staying score are
    priced, each against its whole community.  A gain is that quotient
    less (so_i * si_c + si_i * so_c) / (m * m), whose factors are strengths
    or sums of them (``agg`` as ``CommunityAggregates.from_labels`` builds
    it), so not negative.  Rounding is monotone, so a rounded gain is at
    most its quotient, and a group that fails the test cannot strictly
    beat staying; and the own group, priced with the node still counted in
    its community, gets products at least as large as in its staying
    score, so it cannot either.  Every other group is priced by
    ``join_gain`` as it would be alone, so the pick is the same, bit for
    bit.  So a row whose ``x_max / m`` does not beat its staying score
    keeps its community: the settle test of ``_Frontier.settled``."""
    pos, nbr, wsum = graph.neighbor_union().gather(rows)
    cstar = labels[rows]
    # before t_stay, so that an edgeless graph (m_w 0) never divides 0 by 0
    if pos.size == 0:
        return cstar
    m = st.m_w
    so_r = st.s_out[rows]
    si_r = st.s_in[rows]
    g_pos, g_comm, gsum = _merge_pairs(rows.size, agg.n_comms, pos,
                                       labels[nbr], wsum)
    own = np.flatnonzero(g_comm == cstar[g_pos])
    w_own = np.zeros(rows.size)
    w_own[g_pos[own]] = gsum[own]
    if memo is not None:
        away = gsum.copy()
        away[own] = -np.inf
        head = _run_starts(g_pos)
        memo.x_max[rows] = -np.inf
        memo.x_max[rows[g_pos[head]]] = np.maximum.reduceat(away, head)
        memo.w_own[rows] = w_own
    t_stay = stay_gain(m, w_own, so_r, si_r, agg, cstar)
    up = np.flatnonzero(gsum / m > t_stay[g_pos])
    row, comm = g_pos[up], g_comm[up]
    t = join_gain(m, gsum[up], so_r[row], si_r[row], agg.s_out[comm],
                  agg.s_in[comm])
    first = _first_max(rows.size, row, t, t_stay)
    ok = first >= 0
    cstar[ok] = comm[first[ok]]
    return cstar


def _attach_target(graph, st, labels, i, to):
    """Best neighbor of i inside community ``to`` by pairwise gain; -1 if i
    has no neighbor there."""
    _, nb, w = graph.neighbor_union().gather(np.array([i]))
    sel = labels[nb] == to
    if not sel.any():
        return -1
    pg = join_gain(st.m_w, w[sel], st.s_out[i], st.s_in[i],
                   st.s_out[nb[sel]], st.s_in[nb[sel]])
    return int(nb[sel][np.argmax(pg)])


class _MovePrices:
    """Prices of moving each root of ``roots`` with its pointer tail from
    its source ``frm`` to its target ``to``, taken in one numpy pass at the
    current ``labels``/``agg``, each as if the earlier roots of its target
    in the batch had moved first.

    A root's tail is its slice ``[lo, lo + size)`` of the sweep's
    ``subtrees`` preorder ``order``; the tails must be disjoint.
    ``_slices`` lays them end to end, each in ascending order, with the
    tail ``seg`` of each node.  Their sums come from one ``set_sums`` call,
    the kernel of ``gain_switch``, given the scratch map ``owner`` (-1
    everywhere, and left so): a tail's weight to
    its target then also counts its entries into the tails of the earlier
    roots of that target.  A root of rank r among the roots of its target
    is priced against the target's sums plus the strength sums of the r
    roots before it, added one at a time in root order, as
    ``CommunityAggregates.move`` adds them.  So each ``gain`` has
    ``gain_switch``'s bits at the labels and aggregates those r moves
    leave.  ``attach`` is ``_attach_target``'s pick there: the first
    maximum of the root's pairwise gains over its own entries that
    ``set_sums`` counted in the target, in row order, or -1; so the roots'
    rows are gathered once, with their tails'.  A move applies iff ``gain
    > 0`` and ``attach >= 0``."""

    def __init__(self, graph, st, labels, agg, order, lo, size, roots, frm,
                 to, owner):
        k = roots.size
        m = st.m_w
        seg, nodes = _slices(graph.n, order, lo, size)
        self.seg, self.nodes = seg, nodes
        w_to, w_from, self.so_b, self.si_b, (pos, eseg, nbr, w, into) = \
            set_sums(graph, st, labels, seg, nodes, frm, to, k, owner)
        sums, b = np.array([agg.s_out[to], agg.s_in[to]]), np.array(
            [self.so_b, self.si_b])
        by = np.argsort(to, kind="stable")
        head = _run_starts(to[by])
        run = np.diff(head, append=k)
        for r in range(1, run.max()):
            p, q = by[head[run > r] + r], by[head[run > r] + r - 1]
            sums[:, p] = sums[:, q] + b[:, q]
        self.gain = switch_gain(m, w_to, w_from, self.so_b, self.si_b,
                                agg.s_out[frm], agg.s_in[frm], *sums)
        e = np.flatnonzero(into)
        e = e[nodes[pos[e]] == roots[eseg[e]]]
        s, j = eseg[e], nbr[e]
        pg = join_gain(m, w[e], st.s_out[roots[s]], st.s_in[roots[s]],
                       st.s_out[j], st.s_in[j])
        self.attach = np.append(j, -1)[_first_max(k, s, pg, -np.inf)]

    def tail(self, k):
        return self.nodes[self.seg == k]


def _ready(frm, to, n_comms):
    """Mask of the undecided candidates, given in ascending order by their
    source ``frm`` and target ``to`` communities, that a round may price:
    those of which no earlier one names the source, in either role, or has
    the target as its source, and of which every earlier one with the same
    target is ready too.  The first candidate is always ready."""
    k = np.arange(frm.size)
    src = np.full(n_comms, frm.size)
    np.minimum.at(src, frm, k)
    first = src.copy()
    np.minimum.at(first, to, k)
    go = (first[frm] == k) & (src[to] >= k)
    first.fill(frm.size)
    np.minimum.at(first, to[~go], k[~go])
    return go & (first[to] > k)


def _commit_rounds(graph, st, labels, agg, forest, tree, roots, cstar, a,
                   moved, stats=None, where=""):
    """Decide the ascending candidates ``roots`` of one sweep, each moving
    to its ``cstar``, as the serial walk of ``maximal_correction`` does,
    in rounds.  A round prices the candidates ``_ready`` admits in one
    ``_MovePrices`` batch at the current labels, passing each one's source,
    target and snapshot tail, its slice of ``tree`` (its community's when
    it lies on its cycle), all fixed for the sweep.  It decides them all
    but those of a target after that target's first rejection, which wait
    for a later round, and yields (done, gain, ok): the decided
    candidates' indices into ``roots``, ascending, their prices and the
    mask of those that apply.  Resumed, it applies those in one step to the
    pointers ``a``, ``labels``, ``agg`` and the mask ``moved``, and drops
    every undecided candidate whose snapshot tail holds a node that an
    applied move moved or attached to: their positions in ``tree``'s
    preorder (its ``start``, -1 off the tree), sorted, are searched at each
    slice's ends.  ``_ready`` and the rejections see the named communities
    numbered from 0, so no round costs time in n.  A consumer that stops
    at the first round with an applicable move thus applies nothing.

    This is the serial walk, bit for bit.  A candidate's outcome reads
    only its source and target community: its tail (its source's members
    and their pointers), which of the tail's neighbors lie in either, the
    two aggregates and the root's neighbors in the target.  A move changes
    only its tail's labels, its root's pointer and the aggregates of its
    own source and target.  Take a decided candidate j with target t.  No
    earlier undecided candidate names j's source or has source t, and
    every earlier undecided one with target t is ready, so it is in the
    round, and decided and applied, since j would wait after a rejection
    among them.  So of the moves the walk makes between the round's start
    and j, j sees exactly those into t, and its ``_MovePrices`` price is
    the walk's: their tails' nodes now lie in t, t's sums grew by theirs
    in candidate order, and their tails and roots lie in other sources,
    so j's tail, its weight to the rest of its source and its source's
    sums are as they were.  The other moves of the round touch neither
    j's source nor t.  The drop is the walk's skip.  A slice that holds no
    such node is the candidate's exact current tail: none of its nodes
    moved, so every pointer path in it to the root is intact, and no
    outside pointer lands in it, since only applied roots changed
    pointers, each to its attach node.  A slice that holds one is not: the
    root moved, a move below it took nodes away, or an attach hung another
    tail below it.  An on-cycle candidate's slice is its whole community,
    so any move out of it or into it drops the candidate.  Every move that
    can hit a slice shares the candidate's source, so it is decided first.
    A round's sources are distinct and none is one of its targets, so the
    fancy-indexed source updates repeat no index, and ``agg.move`` adds a
    target's moves in candidate order, as the prices assumed.  A round's
    tails lie in distinct sources, so they are disjoint and hold at most n
    nodes; its first candidate is always decided, so the rounds end.
    Every sum over a node set is one ``segment_sums`` order, so a batch
    prices a tail, bit for bit, as ``gain_switch`` does.

    Given ``stats``, it records under ``where`` a round whose decided
    candidates share a source or leave another's target, every priced tail
    that is not closed (a node outside its source or moved this sweep, or
    a pointer from outside it landing in it), and every decided move whose
    price and attach node are not those ``gain_switch`` and
    ``_attach_target`` give in a serial walk over the round's decided
    moves, on copies of the labels and aggregates."""
    frm, to = labels[roots], cstar[roots]
    order, start, size, root = tree
    top = np.where(forest.on_cycle[roots], root[roots], roots)
    lo, sz = start[top], size[top]  # each snapshot tail's slice
    # the communities the candidates name, numbered below 2 * roots.size
    kf, kt = np.unique(np.concatenate((frm, to)),
                       return_inverse=True)[1].reshape(2, -1)
    live = np.arange(roots.size)
    owner = np.full(graph.n, -1)
    while live.size:
        go = _ready(kf[live], kt[live], 2 * roots.size)
        ready = live[go]
        src, dst, tsize = frm[ready], to[ready], sz[ready]
        mp = _MovePrices(graph, st, labels, agg, order, lo[ready], tsize,
                         roots[ready], src, dst, owner)
        ok = (mp.gain > 0.0) & (mp.attach >= 0)
        # the roots of a target after its first rejection wait
        cut = np.full(2 * roots.size, ready.size)
        np.minimum.at(cut, kt[ready][~ok], np.flatnonzero(~ok))
        dec = np.arange(ready.size) <= cut[kt[ready]]
        ok &= dec
        if stats is not None:
            if (np.unique(src[dec]).size < dec.sum()
                    or np.isin(src[dec], dst[dec]).any()):
                stats.debug_failures.append(
                    f"{where}: a round shares a source")
            # a tail is closed: in its source, unmoved, and no pointer
            # from outside it lands in it
            seg = np.full(graph.n, -1)  # the priced tail a node lies in
            seg[mp.nodes] = np.repeat(np.arange(ready.size), tsize)
            into = seg[a]
            out = moved[mp.nodes] | (labels[mp.nodes]
                                     != np.repeat(src, tsize))
            for s in np.union1d(into[(into >= 0) & (seg != into)],
                                seg[mp.nodes[out]]).tolist():
                stats.debug_failures.append(
                    f"{where}: move of node {int(roots[ready[s]])} priced "
                    f"a tail that is not closed")
            # the walk over the decided moves, on copies
            lab, walk = labels.copy(), CommunityAggregates(
                agg.s_out.copy(), agg.s_in.copy())
            for s in np.flatnonzero(dec).tolist():
                i, f, t = int(roots[ready[s]]), int(src[s]), int(dst[s])
                got = (float(mp.gain[s]), int(mp.attach[s]))
                fresh = (gain_switch(graph, st, lab, walk, mp.tail(s), f, t),
                         _attach_target(graph, st, lab, i, t))
                if fresh != got:
                    stats.debug_failures.append(
                        f"{where}: move of node {i} priced {got}, fresh "
                        f"{fresh}")
                if ok[s]:
                    lab[mp.tail(s)] = t
                    walk.move_nodes(st, mp.tail(s), f, t)
        yield ready[dec], mp.gain[dec], ok[dec]
        tails = mp.nodes[np.repeat(ok, tsize)]
        a[roots[ready[ok]]] = mp.attach[ok]
        labels[tails] = np.repeat(dst[ok], tsize[ok])
        moved[tails] = True
        agg.move(src[ok], dst[ok], mp.so_b[ok], mp.si_b[ok])
        hit = np.sort(start[np.concatenate((tails, mp.attach[ok]))])
        go[go] = dec
        live = live[~go]
        live = live[np.searchsorted(hit, lo[live])
                    == np.searchsorted(hit, lo[live] + sz[live])]


def maximal_correction(graph, st, forest, config, level, sweep, pool,
                       stats=None, memo=None):
    """One synchronized sweep: plan the best community switch for every
    node from a frozen snapshot, then commit the accepted moves as a serial
    walk in ascending node order would.  Each committed node drags its
    pointer tail along.  The rows the level's ``memo`` settles keep their
    community unplanned, and an applying sweep marks dirty every member of
    the communities its moves touched (see ``_Frontier``).

    Sweep ``sweep`` of a level accepts candidate i iff
    ``uniform01(seed, (level, sweep), i) < 1 - (1 - accept_prob) ** (sweep
    + 1)``: ``accept_prob`` at the level's first sweep, more at each later
    one, and every candidate at ``accept_prob`` 1.0.  The threshold is
    ``accept_prob`` itself, bit for bit, for ``accept_prob`` >= 0.5, where
    ``1 - accept_prob`` is exact.  The commit is an exact serial walk
    whatever the coin accepts, so no sweep needs the coin for correctness;
    the rising threshold shortens a level's tail of sweeps that apply a few
    moves each.

    The walk takes the candidates the coin accepted in ascending order.  A
    candidate is skipped once an earlier applied move has changed its
    pointer tail, by moving one of its nodes or attaching to one, and
    otherwise applies iff its price at the current labels is strictly
    positive and it has a neighbor in the target to attach to.
    ``_commit_rounds`` decides them in rounds whose candidates share no
    source and leave no other's target, and proves that this is the walk,
    bit for bit.  The tails are slices of one ``subtrees`` preorder of the
    snapshot pointers, built once per sweep over the candidates' source
    communities and shared by the commit's rounds and the idle ones below.
    Under ``debug_checks`` every decided move is checked against
    ``gain_switch`` and ``_attach_target`` in a serial walk over its round,
    every priced tail is checked to be closed, and every round against the
    bound: its decided candidates share no source and leave no other's
    target.

    ``improved`` is False, ending the level, unless a move applied or a
    candidate the coin rejected would apply at the snapshot.  That is
    exact under any coin schedule.  A sweep that applies nothing changes
    nothing, so each candidate's snapshot price is the price a later sweep
    would see: the forest stays the same, so do the plan and the output of
    positive correction, which is idempotent on an unchanged forest.
    Later sweeps would then differ only in their coins, whatever their
    acceptance probability.  Their walks start at the snapshot, where this
    check has priced every candidate, accepted or rejected, and found none
    that applies; so each walk's first candidate applies nothing, and by
    induction neither does any later one.  The rejected candidates are
    priced in the commit's rounds, which stop at the first round in which
    one would apply.  A round's tails lie in distinct source communities,
    so they are disjoint and hold at most n nodes, where one batch of
    every rejected candidate's nested tails would hold up to n times the
    pointer depth.  Under ``debug_checks`` the run loop re-checks every
    such stop with all coins accepted.  A sweep without candidates takes
    the same path, with no return of its own: its coins, tree and rounds
    are empty, so it applies nothing and returns ``improved`` False.

    The returned forest takes no second extraction: it is ``a``, the
    canonical ``labels``, and the cycle flags of the nodes that kept their
    label.  A commit moves root i's tail into another community and points i
    there.  If i is off its cycle, its tail holds no cycle node.  If i is on
    its cycle, no move has left or entered its community, and every member's
    path runs through i, so the whole community moves and its cycle breaks.
    No commit closes a new cycle, because i points into a component whose
    paths never reach the tail.  So a node leaves a cycle iff it moved, and
    no node joins one.  Under ``debug_checks`` ``_debug_validate`` compares
    the forest with a fresh ``extract_components`` after every phase."""
    if memo is None:
        memo = _Frontier(graph.n)
    labels = forest.comm.copy()
    agg = CommunityAggregates.from_labels(st, labels, forest.n_comms)

    def plan(rows, memo=None):
        return _map_rows(graph, pool, lambda lo, hi, r: _best_targets(
            graph, st, labels, agg, lo, hi, r, memo), rows)

    cstar = labels.copy()
    rows = np.flatnonzero(~memo.settled(graph, st, labels, agg))
    cstar[rows] = plan(rows, memo)
    if stats is not None and not np.array_equal(
            cstar, plan(np.arange(graph.n))):
        stats.debug_failures.append(
            f"frontier plan differs from the full plan at level {level} "
            f"sweep {sweep}")
    cand = np.flatnonzero(cstar != labels)
    accept = (uniform01(config.seed, (level, sweep), cand)
              < 1 - (1 - config.accept_prob) ** (sweep + 1))
    tree = subtrees(forest, np.flatnonzero(np.isin(labels, labels[cand])))
    a = forest.a.copy()

    def rounds(roots):
        return _commit_rounds(graph, st, labels, agg, forest, tree, roots,
                              cstar, a, memo.moved, stats,
                              f"level {level} sweep {sweep}")

    roots = cand[accept]
    gain = np.zeros(roots.size)
    applied = np.zeros(roots.size, dtype=bool)
    for done, price, ok in rounds(roots):
        gain[done] = price
        applied[done] = ok
    gains = gain[applied].tolist()
    if stats is not None and gains and not agg.check(st, labels):
        stats.debug_failures.append(
            f"incremental aggregates drifted at level {level} sweep {sweep}")
    if gains:
        hit = np.zeros(forest.n_comms, dtype=bool)
        hit[forest.comm[roots[applied]]] = hit[cstar[roots[applied]]] = True
        memo.dirty |= hit[labels]
        forest = AssignmentForest.from_labels(
            a, labels, forest.on_cycle & (labels == forest.comm))
        return forest, True, len(gains), gains
    # nothing applied, so labels and agg are the snapshot, and stopping at
    # the first round in which a rejected candidate would apply applies
    # nothing
    return forest, any(ok.any() for _, _, ok in rounds(cand[~accept])), 0, []


# ---------------------------------------------------------------- main loop

def _debug_validate(graph, st, forest, phase, stats, unresolved):
    """Record every broken invariant of ``forest`` in ``stats``.  After a
    positive phase, ``unresolved`` masks the nodes positive correction
    reported as left unrepaired, and any negative local gain outside it is
    a failure; None skips the gain check.  The comparison with a fresh
    ``extract_components`` is the one check that the forests the
    corrections derive from their labels match their pointers.  Returns
    that fresh extraction for the run to go on from: ``subtrees`` needs a
    forest whose labels match its pointers, so a forest broken by a faulty
    commit is reported here and reaches no later phase (without
    ``debug_checks``, a ``subtrees`` over its broken communities raises
    InvariantError)."""
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
    return fresh


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
    stats.setup_seconds = time.perf_counter() - t_start
    debug = stats if config.debug_checks else None

    @contextmanager
    def phase(name):
        t = time.perf_counter()
        yield
        stats.phase_seconds[name] += time.perf_counter() - t

    def positive(forest):
        with phase("positive"):
            forest, unresolved, gains, left = positive_correction(
                g, st, forest, debug, memo)
        stats.accepted_splits += len(gains)
        stats.unresolved_negative += unresolved
        steps.extend(gains)
        if config.debug_checks:
            forest = _debug_validate(g, st, forest, f"positive@{level}",
                                     stats, left)
        return forest

    with _Pool(config.threads) as pool:
        g = graph
        levels = []
        for level in itertools.count():
            st = strengths(g)
            memo = _Frontier(g.n)
            steps = []  # the gain of each applied cut or move, in order
            with phase("assign"):
                a = find_assignment(g, st, pool)
            with phase("components"):
                forest = extract_components(a)
            start = score(g, st, forest.comm)
            forest = positive(forest)
            for sweep in range(MAX_SWEEPS):
                with phase("maximal"):
                    forest, improved, applied, gains = maximal_correction(
                        g, st, forest, config, level, sweep, pool, debug,
                        memo)
                stats.accepted_moves += applied
                steps.extend(gains)
                if config.debug_checks:
                    forest = _debug_validate(g, st, forest,
                                             f"maximal@{level}", stats, None)
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
            trace = list(itertools.accumulate(steps, initial=start))
            stats.trace_level_starts.append(len(stats.score_trace))
            stats.score_trace += trace[1:]
            stats.drift_checks.append((trace[-1], score(g, st, labels)))
            if forest.n_comms == g.n:
                break
            with phase("aggregate"):
                g = aggregate(g, labels)
        flat = levels[0]
        for lv in levels[1:]:
            flat = compose_labels(flat, lv)
        hierarchy = Hierarchy(levels=levels, flat=flat)
        final = score(graph, strengths(graph), flat)
        stats.levels = len(levels)
        stats.wall_seconds = time.perf_counter() - t_start
        return RunResult(hierarchy=hierarchy, final_score=final, stats=stats)
