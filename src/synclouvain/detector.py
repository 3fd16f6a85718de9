"""Parallel community detection with synchronized move phases.

Each level runs five phases: assignment points every node at its best
neighbor, components turn the pointer forest into communities, positive
correction splits communities that hold a node with negative local gain,
maximal correction sweeps nodes to their best community (each improving
sweep followed by positive correction again), and aggregation contracts
the communities into the next level's nodes.

Every sweep plans all candidate moves from a frozen snapshot of the
current partition, then applies them in a fixed serial order.  Planning is
row-local, and ``_map_rows`` is the one place that splits rows across
threads: contiguous pieces of the planned rows, of about equal entry
count.  Within a level only rows touching a changed community are planned
again (``_Frontier``); the first sweep plans every row through that same
path.  Results depend only on (graph, seed, accept_prob), never on the
thread count.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .forest import extract_components, reverse_assignment
from .graph import Graph, aggregate, compose_labels, strengths
from .quality import CommunityAggregates, gain_switch, local_gains, score
from .rng import uniform01


@dataclass(frozen=True)
class RunConfig:
    threads: int = 1
    seed: int = 0
    accept_prob: float = 0.5
    max_outer_iters: int = 100
    debug_checks: bool = False
    record_scores: bool = False

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not (0.0 < self.accept_prob <= 1.0):
            raise ValueError("accept_prob must be in (0, 1]")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be >= 1")


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
    and never changes results because work is split on row boundaries."""

    def __init__(self, threads):
        self.parts = threads
        self._ex = ThreadPoolExecutor(threads) if threads > 1 else None

    def map(self, fn, items):
        items = list(items)
        if self._ex is None or len(items) <= 1:
            return [fn(it) for it in items]
        return list(self._ex.map(fn, items))

    def close(self):
        if self._ex is not None:
            self._ex.shutdown(wait=True)


def _map_rows(graph, pool, fn, rows):
    """Cut the ascending ``rows`` into one contiguous piece per thread, run
    ``fn(lo, hi, piece)`` on each nonempty piece, ``[lo, hi)`` being its
    span, and concatenate the results in row order.  A row goes to the
    piece its entries' midpoint falls in, so each cut lies within half a
    row's entries of an equal split of the union entries of ``rows``."""
    pool = pool or _Pool(1)
    ptr = graph.neighbor_union().ptr
    size = ptr[rows + 1] - ptr[rows]
    mid2 = 2 * np.cumsum(size) - size  # twice each row's entry midpoint
    cuts = np.searchsorted(mid2 * pool.parts,
                           2 * int(size.sum()) * np.arange(1, pool.parts))
    pieces = [p for p in np.split(rows, cuts) if p.size]
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pool.map(
        lambda p: fn(int(p[0]), int(p[-1]) + 1, p), pieces))


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


def _in_sorted(sorted_arr, values):
    """Boolean mask: which of ``values`` occur in ``sorted_arr``."""
    pos = np.searchsorted(sorted_arr, values)
    pos[pos == sorted_arr.size] = 0
    return sorted_arr[pos] == values


# --------------------------------------------------------------- assignment

def _assign_targets(graph, st, lo, hi):
    u = graph.neighbor_union()
    m = st.m_w
    m2 = m * m
    res = np.arange(lo, hi, dtype=np.int64)
    e0, e1 = int(u.ptr[lo]), int(u.ptr[hi])
    if e1 > e0:
        row = u.row[e0:e1]
        nbr = u.nbr[e0:e1]
        g = (u.w_out[e0:e1] + u.w_in[e0:e1]) / m \
            - (st.s_out[row] * st.s_in[nbr] + st.s_in[row] * st.s_out[nbr]) / m2
        seg = np.searchsorted(row, np.arange(lo, hi + 1))
        has = seg[1:] > seg[:-1]
        mx = np.full(hi - lo, -np.inf)
        if has.any():
            mx[has] = np.maximum.reduceat(g, seg[:-1][has])
            # first index achieving the max, so ties go to the lowest
            # neighbor id (rows are sorted by neighbor)
            idx = np.where(g == mx[row - lo], np.arange(g.size), g.size)
            first = np.full(hi - lo, g.size)
            first[has] = np.minimum.reduceat(idx, seg[:-1][has])
            ok = (mx > 0.0) & (first < g.size)
            res[ok] = nbr[first[ok]]
    return res


def find_assignment(graph, st, pool=None):
    """Point every node at its best single neighbor (or itself when no
    pairing has positive gain).  Ties break to the lowest neighbor id."""
    return _map_rows(graph, pool,
                     lambda lo, hi, _: _assign_targets(graph, st, lo, hi),
                     np.arange(graph.n))


# ------------------------------------------------------- positive correction

def _detach_gain(u, st, mem, b_nodes, so_c, si_c):
    """Exact score change from splitting ``b_nodes`` out of the community
    ``mem`` into its own community."""
    m = st.m_w
    x_w = 0.0
    for y in b_nodes:
        lo, hi = int(u.ptr[y]), int(u.ptr[y + 1])
        nb = u.nbr[lo:hi]
        keep = _in_sorted(mem, nb)
        if keep.any():
            sub = nb[keep]
            ws = (u.w_out[lo:hi] + u.w_in[lo:hi])[keep]
            x_w += float(ws[~_in_sorted(b_nodes, sub)].sum())
    so_b = float(st.s_out[b_nodes].sum())
    si_b = float(st.s_in[b_nodes].sum())
    null = (-so_c * si_b - so_b * si_c + 2.0 * so_b * si_b)
    return -x_w / m - null / (m * m)


def _split_community(graph, st, a, members, cycle):
    """Repeatedly bisect one community while any member has negative local
    gain and some single cut yields a strictly positive score change.
    ``cycle`` holds the community's cycle nodes in ascending order.
    Mutates ``a`` in place for the community's own nodes only.  Returns
    (gains, unresolved, left): the gain of each applied cut, the count of
    negative-gain members no cut could repair, and the pieces holding
    them.

    A cut is one tree edge (a branch cut: the subtree below a non-cycle
    node leaves) or, when no branch cut improves, both edges of a 2-cycle
    (c0, c1): c1's subtree leaves and both cycle nodes self-assign.  No
    longer cycle can occur.  The pair gain of ``find_assignment`` is
    symmetric bit for bit (the weight sum and both products commute), so
    on a cycle i1 -> i2 -> ... -> ik each node's best gain is at least its
    predecessor's and all gains on the cycle are equal.  With ties broken
    to the lowest id, k >= 3 then forces i3 < i1, i5 < i3, ... around the
    cycle, a contradiction.  Positive correction only makes self-loops,
    and maximal correction points a node into another component, so
    neither closes a new cycle; ``_debug_validate`` asserts the bound.
    Branch cuts still run on any cycle, so hand-built forests work."""
    u = graph.neighbor_union()
    m = st.m_w
    m2 = m * m
    s_out, s_in = st.s_out, st.s_in
    gains = []
    unresolved = 0
    left = []
    stack = [(np.sort(np.asarray(members, dtype=np.int64)), tuple(cycle))]
    while stack:
        mem, cyc = stack.pop()
        if mem.size <= 1:
            continue
        so_c = float(s_out[mem].sum())
        si_c = float(s_in[mem].sum())
        g = np.empty(mem.size)
        for k, x in enumerate(mem.tolist()):
            lo, hi = int(u.ptr[x]), int(u.ptr[x + 1])
            nb = u.nbr[lo:hi]
            w_in_c = float((u.w_out[lo:hi] + u.w_in[lo:hi])[_in_sorted(mem, nb)].sum())
            g[k] = w_in_c / m - (s_out[x] * (si_c - s_in[x])
                                 + s_in[x] * (so_c - s_out[x])) / m2
        if not (g < 0.0).any():
            continue
        mem_list = mem.tolist()
        children = {x: [] for x in mem_list}
        for x in mem_list:
            if a[x] != x:  # pieces are components of ``a``: a[x] is in mem
                children[int(a[x])].append(x)

        def subtree(x):
            sub = [x]
            qi = 0
            while qi < len(sub):
                sub.extend(k for k in children[sub[qi]] if k not in cyc)
                qi += 1
            return np.sort(np.asarray(sub, dtype=np.int64))

        best_gain = 0.0
        best = None  # (detached nodes, pointer sources to self-assign)
        for x in mem_list:
            if x in cyc:
                continue
            b_nodes = subtree(x)
            gsp = _detach_gain(u, st, mem, b_nodes, so_c, si_c)
            if gsp > best_gain:
                best_gain = gsp
                best = (b_nodes, (x,))
        if best is None and len(cyc) == 2:
            b_nodes = subtree(cyc[1])
            gsp = _detach_gain(u, st, mem, b_nodes, so_c, si_c)
            if gsp > best_gain:
                best_gain = gsp
                best = (b_nodes, cyc)
        if best is None:
            unresolved += int((g < 0.0).sum())
            left.append(mem)
            continue
        b_nodes, cut = best
        for x in cut:
            a[x] = x
        gains.append(best_gain)
        # the detached piece's cycle is its self-assigned root cut[-1]
        rest = mem[~_in_sorted(b_nodes, mem)]
        stack.append((rest, tuple(c for c in cyc if c != cut[-1])))
        stack.append((b_nodes, (cut[-1],)))
    return gains, unresolved, left


def positive_correction(graph, st, forest, pool, stats=None, memo=None):
    """Split every community that still contains a member with negative
    local gain, as long as some single cut strictly improves the score.
    Returns (forest, splits, unresolved, gains, left), where ``left`` masks
    the nodes of the communities left with an unrepaired negative gain.
    Only the local gains of nodes changed since the level's ``memo`` last
    saw them are recomputed; a ``stats`` turns on the comparison with a
    full recompute."""
    if memo is None:
        memo = _Frontier(graph.n)
    comm = forest.comm
    agg = CommunityAggregates.from_labels(st, comm, forest.n_comms)
    changed = _changed_nodes(memo.lg_comm, comm)
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
        return forest, 0, 0, [], left
    members = forest.community_members()
    a = forest.a.copy()
    ctxs = [members[int(c)] for c in bad]
    out = (pool or _Pool(1)).map(
        lambda mem: _split_community(graph, st, a, mem,
                                     mem[forest.on_cycle[mem]].tolist()),
        ctxs)
    gains = []
    unresolved = 0
    for gl, un, pieces in out:
        gains.extend(gl)
        unresolved += un
        for mem in pieces:
            left[mem] = True
    new_forest = extract_components(a) if gains else forest
    return new_forest, len(gains), unresolved, gains, left


# -------------------------------------------------------- maximal correction

def _best_targets(graph, st, labels, agg, lo, hi, rows):
    """Per node of the ascending ``rows``: the neighboring community with
    the highest switch score for moving the node alone, or its own
    community when no alternative strictly beats staying.  Pure snapshot
    computation; a row's result depends only on its own entries, so any
    split of the rows gives the same bits per row.  ``[lo, hi)`` spans
    ``rows``; it is not read here, and stays so that ``perfbench/spans.py``
    can count the entries a call covers."""
    u = graph.neighbor_union()
    m = st.m_w
    m2 = m * m
    pos, nbr, wsum = u.gather(rows)
    cstar = labels[rows]
    so_r = st.s_out[rows]
    si_r = st.s_in[rows]
    t_stay = -(so_r * (agg.s_in[cstar] - si_r)
               + si_r * (agg.s_out[cstar] - so_r)) / m2
    if pos.size == 0:
        return cstar
    cn = labels[nbr]
    del nbr  # the gathered copy would otherwise outlive the sort
    key = pos * np.int64(agg.n_comms + 1) + cn
    order = np.argsort(key, kind="stable")
    ks = key[order]
    new_grp = np.empty(ks.size, dtype=bool)
    new_grp[0] = True
    new_grp[1:] = ks[1:] != ks[:-1]
    starts = np.flatnonzero(new_grp)
    gsum = np.add.reduceat(wsum[order], starts)
    g_pos = pos[order][starts]
    g_comm = cn[order][starts]
    own = g_comm == cstar[g_pos]
    so_i = so_r[g_pos]
    si_i = si_r[g_pos]
    sin_c = agg.s_in[g_comm] - np.where(own, si_i, 0.0)
    sout_c = agg.s_out[g_comm] - np.where(own, so_i, 0.0)
    t = gsum / m - (so_i * sin_c + si_i * sout_c) / m2
    t_stay[g_pos[own]] = t[own]
    seg = np.searchsorted(g_pos, np.arange(rows.size + 1))
    has = seg[1:] > seg[:-1]
    tc = np.where(own, -np.inf, t)
    mx = np.full(rows.size, -np.inf)
    mx[has] = np.maximum.reduceat(tc, seg[:-1][has])
    eligible = (~own) & (tc == mx[g_pos]) & (mx[g_pos] > t_stay[g_pos])
    gidx = np.where(eligible, np.arange(t.size), t.size)
    first = np.full(rows.size, t.size)
    first[has] = np.minimum.reduceat(gidx, seg[:-1][has])
    okr = first < t.size
    cstar[okr] = g_comm[first[okr]]
    return cstar


def _tail(rptr, rkids, i, seen):
    """Node i plus everything whose pointer path runs through i.  The
    ``seen`` guard matters when i sits on a cycle: cycle edges appear in
    the child lists too, so the walk would otherwise loop."""
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
    ws = (u.w_out[lo:hi] + u.w_in[lo:hi])[sel]
    m = st.m_w
    pg = ws / m - (st.s_out[i] * st.s_in[cand]
                   + st.s_in[i] * st.s_out[cand]) / (m * m)
    return int(cand[int(np.argmax(pg))])


def maximal_correction(graph, st, forest, config, level, sweep, pool,
                       stats=None, memo=None):
    """One synchronized sweep: plan the best community switch for every
    node from a frozen snapshot, then commit accepted moves serially in
    ascending node order.  Each committed node drags its pointer tail
    along.  Moves are re-priced at commit time and skipped unless still
    strictly positive; a node is also skipped once its source community
    has been touched by an earlier commit this sweep.  Only the nodes
    touching a community changed since the level's ``memo`` last planned
    are planned (see ``_Frontier``)."""
    if memo is None:
        memo = _Frontier(graph.n)
    labels = forest.comm.copy()
    agg = CommunityAggregates.from_labels(st, labels, forest.n_comms)

    def plan(rows):
        return _map_rows(graph, pool, lambda lo, hi, r: _best_targets(
            graph, st, labels, agg, lo, hi, r), rows)

    changed = _changed_nodes(memo.plan_comm, labels)
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
    a = forest.a.copy()
    dirty = np.zeros(forest.n_comms, dtype=bool)
    in_set = np.zeros(graph.n, dtype=bool)
    seen = np.zeros(graph.n, dtype=bool)
    applied = 0
    gains = []
    coin_blocked = False
    for k in range(cand.size):
        i = int(cand[k])
        frm = int(labels[i])
        to = int(cstar[i])
        if dirty[frm]:
            continue
        if not accept[k]:
            coin_blocked = True
            continue
        if agg.count[to] == 0:
            continue
        moved = _tail(rptr, rkids, i, seen)
        g = gain_switch(graph, st, labels, agg, moved, frm, to, in_set)
        if not g > 0.0:
            continue
        j = _attach_target(graph, st, labels, i, to)
        if j < 0:
            continue
        a[i] = j
        labels[moved] = to
        agg.move_nodes(st, moved, frm, to)
        dirty[frm] = True
        dirty[to] = True
        applied += 1
        gains.append(g)
    if stats is not None and applied:
        fresh = CommunityAggregates.from_labels(st, labels, forest.n_comms)
        for arr, ref in ((agg.s_out, fresh.s_out), (agg.s_in, fresh.s_in),
                         (agg.count, fresh.count)):
            if not np.allclose(arr, ref, atol=1e-9):
                stats.debug_failures.append(
                    f"incremental aggregates drifted at level {level} "
                    f"sweep {sweep}")
                break
    improved = applied > 0 or coin_blocked
    new_forest = extract_components(a) if applied else forest
    return new_forest, improved, applied, gains


# ---------------------------------------------------------------- main loop

def _debug_validate(graph, st, forest, phase, stats, unresolved):
    """Record every broken invariant of ``forest`` in ``stats``.  After a
    positive phase, ``unresolved`` masks the nodes positive correction
    reported as left unrepaired, and any negative local gain outside it is
    a failure; None skips the gain check."""
    a = forest.a
    n = graph.n
    u = graph.neighbor_union()
    for i in np.flatnonzero(a != np.arange(n)).tolist():
        nb = u.nbr[u.ptr[i]:u.ptr[i + 1]]
        p = int(np.searchsorted(nb, a[i]))
        if p == nb.size or nb[p] != a[i]:
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


def run(graph: Graph, config: RunConfig | None = None) -> RunResult:
    """Detect communities and return the full level hierarchy.

    Levels are built until a level's partition is the identity (every
    aggregated node alone), so the last aggregation step would be a no-op.
    """
    if config is None:
        config = RunConfig()
    if graph.n == 0:
        raise ValueError("graph has no nodes")
    stats = RunStats()
    t_start = time.perf_counter()
    if strengths(graph).m_w == 0.0:
        # no edge: every labeling scores 0 and no move can gain, so the
        # singleton level is the answer; planning it would divide 0 by 0
        flat = np.arange(graph.n, dtype=np.int64)
        stats.levels = 1
        stats.sweeps_per_level = [1]
        if config.record_scores:
            stats.trace_level_starts = [0]
            stats.drift_checks = [(0.0, 0.0)]
        stats.wall_seconds = time.perf_counter() - t_start
        return RunResult(Hierarchy(levels=[flat], flat=flat), 0.0, stats)
    pool = _Pool(config.threads)
    clock = {"t": t_start}
    trace = [] if config.record_scores else None
    debug = stats if config.debug_checks else None
    running = 0.0

    def tick(phase):
        now = time.perf_counter()
        stats.phase_seconds[phase] += now - clock["t"]
        clock["t"] = now

    def record(gains):
        nonlocal running
        if trace is not None:
            for gv in gains:
                running += gv
                trace.append(running)

    def positive(forest):
        forest, splits, unresolved, gains, left = positive_correction(
            g, st, forest, pool, debug, memo)
        tick("positive")
        stats.accepted_splits += splits
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
            if trace is not None:
                stats.trace_level_starts.append(len(trace))
            clock["t"] = time.perf_counter()
            a = find_assignment(g, st, pool)
            tick("assign")
            forest = extract_components(a)
            tick("components")
            running = score(g, st, forest.comm) if trace is not None else 0.0
            forest = positive(forest)
            for sweep in range(config.max_outer_iters):
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
                    break
                forest = positive(forest)
            else:
                stats.warnings.append(
                    f"level {level}: stopped after "
                    f"{config.max_outer_iters} sweeps")
            stats.sweeps_per_level.append(sweep + 1)
            labels = forest.comm
            levels.append(labels)
            if trace is not None:
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
        if trace is not None:
            stats.score_trace = trace
        stats.wall_seconds = time.perf_counter() - t_start
        return RunResult(hierarchy=hierarchy, final_score=final, stats=stats)
    finally:
        pool.close()
