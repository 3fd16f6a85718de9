"""Parallel community detection with synchronized move phases.

Every sweep computes all candidate moves from a frozen snapshot of the
current partition, then applies them in a fixed serial order.  Results
depend only on (graph, seed, accept_prob), never on the thread count.
"""

from __future__ import annotations

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


def _row_chunks(graph, parts):
    """Split [0, n) into contiguous row ranges of roughly equal edge count."""
    n = graph.n
    if parts <= 1 or n < 2:
        return [(0, n)]
    ptr = graph.neighbor_union().ptr
    total = int(ptr[-1])
    cuts = [0]
    for k in range(1, parts):
        b = int(np.searchsorted(ptr, total * k // parts, side="left"))
        b = min(max(b, cuts[-1]), n)
        if b > cuts[-1]:
            cuts.append(b)
    if cuts[-1] < n:
        cuts.append(n)
    return list(zip(cuts[:-1], cuts[1:]))


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
    chunks = _row_chunks(graph, pool.parts if pool else 1)
    a = np.empty(graph.n, dtype=np.int64)
    parts = (pool or _Pool(1)).map(
        lambda c: _assign_targets(graph, st, c[0], c[1]), chunks)
    for (lo, hi), arr in zip(chunks, parts):
        a[lo:hi] = arr
    return a


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
    (gains, unresolved, changed).

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
    changed = False
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
            continue
        b_nodes, cut = best
        for x in cut:
            a[x] = x
        changed = True
        gains.append(best_gain)
        # the detached piece's cycle is its self-assigned root cut[-1]
        rest = mem[~_in_sorted(b_nodes, mem)]
        stack.append((rest, tuple(c for c in cyc if c != cut[-1])))
        stack.append((b_nodes, (cut[-1],)))
    return gains, unresolved, changed


def positive_correction(graph, st, forest, config, pool):
    """Split every community that still contains a member with negative
    local gain, as long as some single cut strictly improves the score."""
    agg = CommunityAggregates.from_labels(st, forest.comm, forest.n_comms)
    lg = local_gains(graph, st, forest.comm, agg)
    bad = np.unique(forest.comm[lg < 0.0])
    if bad.size == 0:
        return forest, 0, 0, []
    members = forest.community_members()
    a = forest.a.copy()
    ctxs = [members[int(c)] for c in bad]
    out = (pool or _Pool(1)).map(
        lambda mem: _split_community(graph, st, a, mem,
                                     mem[forest.on_cycle[mem]].tolist()),
        ctxs)
    gains = []
    unresolved = 0
    changed = False
    for gl, un, ch in out:
        gains.extend(gl)
        unresolved += un
        changed = changed or ch
    new_forest = extract_components(a) if changed else forest
    return new_forest, len(gains), unresolved, gains


# -------------------------------------------------------- maximal correction

def _best_targets(graph, st, labels, agg, lo, hi):
    """Per node in [lo, hi): the neighboring community with the highest
    switch score for moving the node alone, or its own community when no
    alternative strictly beats staying.  Pure snapshot computation."""
    u = graph.neighbor_union()
    m = st.m_w
    m2 = m * m
    lab_r = labels[lo:hi]
    so_r = st.s_out[lo:hi]
    si_r = st.s_in[lo:hi]
    t_stay = -(so_r * (agg.s_in[lab_r] - si_r)
               + si_r * (agg.s_out[lab_r] - so_r)) / m2
    cstar = lab_r.copy()
    e0, e1 = int(u.ptr[lo]), int(u.ptr[hi])
    if e1 == e0:
        return cstar
    row = u.row[e0:e1]
    nbr = u.nbr[e0:e1]
    cn = labels[nbr]
    wsum = u.w_out[e0:e1] + u.w_in[e0:e1]
    key = (row - lo).astype(np.int64) * np.int64(agg.n_comms + 1) + cn
    order = np.argsort(key, kind="stable")
    ks = key[order]
    new_grp = np.empty(ks.size, dtype=bool)
    new_grp[0] = True
    new_grp[1:] = ks[1:] != ks[:-1]
    starts = np.flatnonzero(new_grp)
    gsum = np.add.reduceat(wsum[order], starts)
    g_row = row[order][starts]
    g_comm = cn[order][starts]
    own = g_comm == labels[g_row]
    so_i = st.s_out[g_row]
    si_i = st.s_in[g_row]
    sin_c = agg.s_in[g_comm] - np.where(own, si_i, 0.0)
    sout_c = agg.s_out[g_comm] - np.where(own, so_i, 0.0)
    t = gsum / m - (so_i * sin_c + si_i * sout_c) / m2
    t_stay[g_row[own] - lo] = t[own]
    seg = np.searchsorted(g_row, np.arange(lo, hi + 1))
    has = seg[1:] > seg[:-1]
    if not has.any():
        return cstar
    tc = np.where(own, -np.inf, t)
    mx = np.full(hi - lo, -np.inf)
    mx[has] = np.maximum.reduceat(tc, seg[:-1][has])
    row_l = g_row - lo
    eligible = (~own) & (tc == mx[row_l]) & (mx[row_l] > t_stay[row_l])
    gidx = np.where(eligible, np.arange(t.size), t.size)
    first = np.full(hi - lo, t.size)
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
                       stats=None):
    """One synchronized sweep: plan the best community switch for every
    node from a frozen snapshot, then commit accepted moves serially in
    ascending node order.  Each committed node drags its pointer tail
    along.  Moves are re-priced at commit time and skipped unless still
    strictly positive; a node is also skipped once its source community
    has been touched by an earlier commit this sweep."""
    labels = forest.comm.copy()
    agg = CommunityAggregates.from_labels(st, labels, forest.n_comms)
    chunks = _row_chunks(graph, pool.parts if pool else 1)
    parts = (pool or _Pool(1)).map(
        lambda c: _best_targets(graph, st, labels, agg, c[0], c[1]), chunks)
    cstar = np.empty(graph.n, dtype=np.int64)
    for (lo, hi), arr in zip(chunks, parts):
        cstar[lo:hi] = arr
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

def _debug_validate(graph, st, forest, phase, stats, expect_clean_gains):
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
    if expect_clean_gains:
        agg = CommunityAggregates.from_labels(st, forest.comm, forest.n_comms)
        worst = float(local_gains(graph, st, forest.comm, agg).min())
        if worst < -1e-12:
            stats.debug_failures.append(
                f"{phase}: negative local gain {worst:.3e} left behind")


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
    pool = _Pool(config.threads)
    t_start = time.perf_counter()
    clock = {"t": t_start}

    def tick(phase):
        now = time.perf_counter()
        stats.phase_seconds[phase] += now - clock["t"]
        clock["t"] = now

    try:
        g = graph
        levels = []
        level = 0
        trace = [] if config.record_scores else None
        while True:
            st = strengths(g)
            if trace is not None:
                stats.trace_level_starts.append(len(trace))
            clock["t"] = time.perf_counter()
            a = find_assignment(g, st, pool)
            tick("assign")
            forest = extract_components(a)
            tick("components")
            running = score(g, st, forest.comm) if trace is not None else 0.0
            forest, splits, unresolved, gains = positive_correction(
                g, st, forest, config, pool)
            tick("positive")
            stats.accepted_splits += splits
            stats.unresolved_negative += unresolved
            if trace is not None:
                for gv in gains:
                    running += gv
                    trace.append(running)
            if config.debug_checks:
                _debug_validate(g, st, forest, f"positive@{level}", stats,
                                expect_clean_gains=unresolved == 0)
            sweeps = 0
            while True:
                if sweeps >= config.max_outer_iters:
                    stats.warnings.append(
                        f"level {level}: stopped after "
                        f"{config.max_outer_iters} sweeps")
                    break
                clock["t"] = time.perf_counter()
                forest, improved, applied, gains = maximal_correction(
                    g, st, forest, config, level, sweeps, pool,
                    stats if config.debug_checks else None)
                tick("maximal")
                sweeps += 1
                stats.accepted_moves += applied
                if trace is not None:
                    for gv in gains:
                        running += gv
                        trace.append(running)
                if config.debug_checks:
                    _debug_validate(g, st, forest, f"maximal@{level}", stats,
                                    expect_clean_gains=False)
                if not improved:
                    break
                forest, splits, unresolved, gains = positive_correction(
                    g, st, forest, config, pool)
                tick("positive")
                stats.accepted_splits += splits
                stats.unresolved_negative += unresolved
                if trace is not None:
                    for gv in gains:
                        running += gv
                        trace.append(running)
                if config.debug_checks:
                    _debug_validate(g, st, forest, f"positive@{level}", stats,
                                    expect_clean_gains=unresolved == 0)
            stats.sweeps_per_level.append(sweeps)
            labels = forest.comm
            levels.append(labels)
            if trace is not None:
                exact = score(g, st, labels)
                stats.drift_checks.append((running, exact))
            if forest.n_comms == g.n:
                break
            clock["t"] = time.perf_counter()
            g = aggregate(g, labels)
            tick("aggregate")
            level += 1
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
