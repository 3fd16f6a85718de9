"""Independent reference implementations used to check the fast kernels.

Everything here is deliberately naive: dense matrices, double loops,
exhaustive enumeration. Nothing imports the package under test, so a bug in
the package cannot hide inside its own oracle; the two exceptions borrow
only what other tests check: ``oracle_generate`` and ``oracle_draws`` borrow
the degree draw and write out the rest, and ``oracle_commit`` prices each
move with the package's one-move kernels and writes out the walk.
"""

from __future__ import annotations

import numpy as np


def dense_weights(n, edges):
    """Dense weight matrix from an iterable of (src, dst, w), merging parallels."""
    w = np.zeros((n, n), dtype=np.float64)
    for s, d, wt in edges:
        w[s, d] += wt
    return w


def oracle_score(n, edges, labels):
    """Directed weighted modularity by the O(n^2) pairwise definition."""
    w = dense_weights(n, edges)
    s_out = w.sum(axis=1)
    s_in = w.sum(axis=0)
    m = w.sum()
    if m == 0:
        return 0.0
    labels = np.asarray(labels)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += w[i, j] - s_out[i] * s_in[j] / m
    return q / m


def set_partitions(n):
    """Yield every partition of range(n) as a list of lists (Bell enumeration)."""
    if n == 0:
        yield []
        return
    for smaller in set_partitions(n - 1):
        for idx in range(len(smaller)):
            yield smaller[:idx] + [smaller[idx] + [n - 1]] + smaller[idx + 1:]
        yield smaller + [[n - 1]]


def partition_to_labels(n, parts):
    labels = np.zeros(n, dtype=np.int64)
    for c, part in enumerate(parts):
        for node in part:
            labels[node] = c
    return labels


def oracle_best_partition(n, edges):
    """Exhaustive maximum modularity over all partitions of range(n)."""
    best_q = -np.inf
    best = None
    for parts in set_partitions(n):
        labels = partition_to_labels(n, parts)
        q = oracle_score(n, edges, labels)
        if q > best_q:
            best_q = q
            best = labels
    return best_q, best


def oracle_cycle_nodes(assignment):
    """Nodes on a cycle of the functional graph i -> assignment[i].

    Iterated-map detection: walk each node with per-walk stamps; a node seen
    twice inside one walk starts the walk's cycle.
    """
    a = list(assignment)
    n = len(a)
    state = [0] * n  # 0 unvisited, 1 on current walk, 2 done
    on_cycle = [False] * n
    for start in range(n):
        if state[start]:
            continue
        path = []
        x = start
        while state[x] == 0:
            state[x] = 1
            path.append(x)
            x = a[x]
        if state[x] == 1:  # fresh cycle, x is its entry point
            for node in path[path.index(x):]:
                on_cycle[node] = True
        for node in path:
            state[node] = 2
    return np.array(on_cycle)


def oracle_components(assignment):
    """Weakly connected components of the functional graph, as a label array."""
    n = len(assignment)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        ra, rb = find(i), find(assignment[i])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(i) for i in range(n)])


def oracle_tail(assignment, i, stop=()):
    """Pointer tail of node i: i plus every node whose path x -> a[x] -> ...
    reaches i without passing a node of ``stop``, ascending.  A walk down
    the pointers level by level, each level one pass over every pointer,
    never entering a node twice, so a cycle node's tail is its whole
    component."""
    a = np.asarray(assignment)
    out = np.zeros(a.size, dtype=bool)
    out[i] = True
    barred = out.copy()
    barred[list(stop)] = True
    level = [i]
    while len(level):
        level = np.flatnonzero(np.isin(a, level) & ~barred)
        out[level] = barred[level] = True
    return np.flatnonzero(out).tolist()


def oracle_commit(graph, st, a, labels, agg, roots, cstar):
    """The commit of one sweep as a plain serial walk over the ascending
    candidates ``roots``, each moving to its ``cstar``: a candidate whose
    label is no longer its label in ``labels``, or whose ``oracle_tail`` in
    the current pointers is not its tail in the given pointers ``a``, is
    skipped; any other moves that tail and applies iff ``gain_switch`` of
    it is positive and ``_attach_target`` finds a neighbor in the target.
    Works on copies.  Returns (a, labels, agg, moves), ``moves`` holding
    each applied (node, source, target, gain) in order."""
    from synclouvain.detector import _attach_target
    from synclouvain.quality import CommunityAggregates, gain_switch
    a0, labels0 = a, labels
    a, labels = a.copy(), labels.copy()
    agg = CommunityAggregates(agg.s_out.copy(), agg.s_in.copy())
    moves = []
    for i in roots.tolist():
        frm, to = int(labels[i]), int(cstar[i])
        tail = oracle_tail(a, i)
        if frm != labels0[i] or tail != oracle_tail(a0, i):
            continue
        tail = np.array(tail, dtype=np.int64)
        gain = gain_switch(graph, st, labels, agg, tail, frm, to)
        j = _attach_target(graph, st, labels, i, to)
        if gain > 0.0 and j >= 0:
            a[i] = j
            labels[tail] = to
            agg.move_nodes(st, tail, frm, to)
            moves.append((i, frm, to, gain))
    return a, labels, agg, moves


def oracle_best_targets(ptr, nbr, w, s_out, s_in, m, labels, c_out, c_in,
                        rows):
    """The plan kernel written out in full: per node of the ascending
    ``rows`` of the union (``ptr``, ``nbr``, ``w``), the community its
    highest join gain leads to, or its own community when none strictly
    beats staying, with ``c_out``/``c_in`` the community strength sums.
    Every group (row, neighboring community) is priced; the groups come
    from a stable key sort with ``np.add.reduceat`` sums, and each row's
    first maximum from a CSR row pointer and two reductions, so ties go to
    the lowest community."""
    def join_gain(wsum, so_i, si_i, so_c, si_c):
        return wsum / m - (so_i * si_c + si_i * so_c) / (m * m)

    start = ptr[rows]
    size = ptr[rows + 1] - start
    pos = np.repeat(np.arange(rows.size), size)
    ent = (start - (np.cumsum(size) - size))[pos] + np.arange(pos.size)
    nb, wsum = nbr[ent], w[ent]
    cstar = labels[rows]
    if pos.size == 0:
        return cstar
    so_r = s_out[rows]
    si_r = s_in[rows]
    t_stay = join_gain(0.0, so_r, si_r, c_out[cstar] - so_r,
                       c_in[cstar] - si_r)
    lab = labels[nb]
    key = pos * np.int64(c_out.size) + lab
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    gsum = np.add.reduceat(wsum[order], starts)
    order = order[starts]
    g_pos, g_comm = pos[order], lab[order]
    gptr = np.r_[0, np.cumsum(np.bincount(g_pos, minlength=rows.size))]
    own = g_comm == cstar[g_pos]
    so_i = so_r[g_pos]
    si_i = si_r[g_pos]
    t = join_gain(gsum, so_i, si_i, c_out[g_comm] - np.where(own, so_i, 0.0),
                  c_in[g_comm] - np.where(own, si_i, 0.0))
    t_stay[g_pos[own]] = t[own]
    t[own] = -np.inf
    gsize = np.diff(gptr)
    has = np.flatnonzero(gsize)
    first = np.full(rows.size, -1, dtype=np.int64)
    mx = np.full(rows.size, -np.inf)
    mx[has] = np.maximum.reduceat(t, gptr[has])
    idx = np.where(t == np.repeat(mx, gsize), np.arange(t.size), t.size)
    beat = (mx > t_stay)[has]
    first[has[beat]] = np.minimum.reduceat(idx, gptr[has])[beat]
    ok = first >= 0
    cstar[ok] = g_comm[first[ok]]
    return cstar


def oracle_row_cache(ptr, nbr, w, labels, rows):
    """Per node of ``rows``, row by row: (w_own, x_max), its union weight to
    its own community and its largest union weight to another community
    (-inf for none), each community's terms summed in entry order by
    ``np.add.reduceat``, as the plan kernel sums a group."""
    w_own = np.zeros(rows.size)
    x_max = np.full(rows.size, -np.inf)
    for r, i in enumerate(rows.tolist()):
        lab, wr = labels[nbr[ptr[i]:ptr[i + 1]]], w[ptr[i]:ptr[i + 1]]
        for c in np.unique(lab).tolist():
            s = np.add.reduceat(wr[lab == c], [0])[0]
            if c == labels[i]:
                w_own[r] = s
            else:
                x_max[r] = max(x_max[r], s)
    return w_own, x_max


def oracle_local_gains(ptr, nbr, w, s_out, s_in, m, labels, rows):
    """Per node of ``rows``, row by row: its local gain, the gain of joining
    the rest of its own community, with that community's strength sums and
    its own weight to it each added one term at a time from 0.0, in node
    and entry order, and the join gain written out."""
    c_out, c_in = np.zeros(labels.max() + 1), np.zeros(labels.max() + 1)
    for i, c in enumerate(labels.tolist()):
        c_out[c] += s_out[i]
        c_in[c] += s_in[i]
    gains = np.empty(rows.size)
    for r, i in enumerate(rows.tolist()):
        w_own = 0.0
        for j, x in zip(nbr[ptr[i]:ptr[i + 1]].tolist(),
                        w[ptr[i]:ptr[i + 1]].tolist()):
            if labels[j] == labels[i]:
                w_own += x
        c = labels[i]
        gains[r] = w_own / m - (s_out[i] * (c_in[c] - s_in[i]) + s_in[i]
                                * (c_out[c] - s_out[i])) / (m * m)
    return gains


def oracle_split(graph, st, labels, agg, tree, c, mem, cycle):
    """The cut positive correction applies to the piece of label ``c`` with
    the ascending members ``mem``, as a loop over the cuts: each branch cut
    of an off-cycle member x, in ascending order, then, only when none
    improves, the 2-cycle cut of the piece's two cycle nodes, each moving
    the nodes of label ``c`` in the slice of its last node in ``tree``'s
    preorder, priced by ``gain_switch`` to an empty community.  Returns
    (gain, detached nodes, cut nodes) of the first cut of the highest gain
    above 0.0, or (0.0, None, None)."""
    from synclouvain.quality import gain_switch
    order, start, size, _ = tree
    cuts = [(x,) for x in mem[~cycle[mem]].tolist()]
    cyc = mem[cycle[mem]]
    if cyc.size == 2:
        cuts.append(tuple(cyc.tolist()))  # only if no branch cut improves
    best = 0.0, None, None
    for cut in cuts:
        if len(cut) == 2 and best[2] is not None:
            break
        x = cut[-1]
        moved = order[start[x]:start[x] + size[x]]
        b_nodes = np.sort(moved[labels[moved] == c])
        gain = gain_switch(graph, st, labels, agg, b_nodes, c, None)
        if gain > best[0]:
            best = gain, b_nodes, cut
    return best


def random_edges(rng, n, density=0.3, dyadic=False, self_loops=False):
    """Random directed weighted edge list; weights positive, optionally dyadic."""
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j and not self_loops:
                continue
            if rng.random() < density:
                if dyadic:
                    w = rng.integers(1, 256) / 256.0
                else:
                    w = float(rng.uniform(0.1, 3.0))
                edges.append((i, j, w))
    if not edges:  # keep graphs non-degenerate
        edges.append((0, (1 % n) if n > 1 else 0, 1.0))
    return edges


def _oracle_outsiders(rng, n_total, lo, hi, want):
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


def _oracle_prefix(spec):
    """(rng, sizes, deg, n_intra) of the planted graph of ``spec``: the
    draws before the targets, community sizes by the original list of
    feasible candidates per community, then the package's degree draw and
    the intra stub counts."""
    from synclouvain.bench import _draw_degrees

    def feasible(x):
        return x == 0 or (x >= spec.cmin
                          and -(-x // spec.cmax) <= x // spec.cmin)

    rng = np.random.default_rng(spec.seed)
    sizes, remaining = [], spec.N
    while remaining:
        cands = [s for s in range(spec.cmin, min(spec.cmax, remaining) + 1)
                 if feasible(remaining - s)]
        if spec.mu_t > 0.0 and not sizes:
            cands = [s for s in cands if s < remaining]
        sizes.append(cands[rng.integers(0, len(cands))])
        remaining -= sizes[-1]
    deg = _draw_degrees(rng, spec.N, spec.k, spec.kmax)
    return rng, sizes, deg, rng.binomial(deg, 1.0 - spec.mu_t)


def _weights(spec):
    """(intra, inter) edge weights of ``spec``."""
    return 1.0 - spec.mu_w, (spec.mu_w * (1.0 - spec.mu_t) / spec.mu_t
                             if spec.mu_t > 0.0 else 0.0)


def oracle_generate(spec):
    """(src, dst, w, truth) of the planted graph of ``spec``, edges in draw
    order and unmerged, by the generator's original per-node loop: each
    node's intra targets drawn from an array of the rest of its block,
    then its outsiders.  The generator now draws other targets, but keeps
    the truth and each node's intra and inter counts.  Shares only the
    degree draw with the package."""
    rng, sizes, deg, n_intra = _oracle_prefix(spec)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    truth = np.repeat(np.arange(len(sizes)), sizes)
    w_intra, w_inter = _weights(spec)
    srcs, dsts, wgts = [], [], []
    for c in range(len(sizes)):
        lo, hi = int(bounds[c]), int(bounds[c + 1])
        for i in range(lo, hi):
            room = hi - lo - 1
            ni = min(int(n_intra[i]), room)  # overflow spills to inter
            ne = int(deg[i]) - ni
            if ni:
                others = np.concatenate(
                    [np.arange(lo, i), np.arange(i + 1, hi)])
                tgt = rng.choice(others, size=ni, replace=False)
                srcs.append(np.full(ni, i, dtype=np.int64))
                dsts.append(tgt.astype(np.int64))
                wgts.append(np.full(ni, w_intra))
            if ne:
                if spec.mu_t == 0.0:
                    raise ValueError(
                        f"community of size {hi - lo} cannot absorb "
                        f"{int(deg[i])} intra stubs with mu_t=0")
                tgt = _oracle_outsiders(rng, spec.N, lo, hi, ne)
                srcs.append(np.full(ne, i, dtype=np.int64))
                dsts.append(np.asarray(tgt, dtype=np.int64))
                wgts.append(np.full(ne, w_inter))
    src = np.concatenate(srcs) if srcs else np.empty(0, np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, np.int64)
    w = np.concatenate(wgts) if wgts else np.empty(0)
    return src, dst, w, truth


def oracle_draws(spec):
    """(src, dst, w) of the planted graph of a valid ``spec`` by the
    generator's draws, written out node by node.  Node i, in id order,
    draws one raw word per slot x of the other size - 1 nodes of its block
    and keeps the slots of the ni smallest (word >> 16 + S, x), S the bits
    of the largest slot of any node with intra stubs.  Then in each round
    every node short of outsiders, in id order, draws short * out // free
    targets by ``rng.integers`` from [0, out), out = N - size and free the
    outsiders it has not got, a draw at or past its block's first node
    skipping the block, and keeps the targets new to it until it has ne."""
    rng, sizes, deg, n_intra = _oracle_prefix(spec)
    w_intra, w_inter = _weights(spec)
    nodes, lo = [], 0
    for size in sizes:
        for i in range(lo, lo + size):
            ni = min(int(n_intra[i]), size - 1)
            nodes.append((i, lo, size, ni, int(deg[i]) - ni))
        lo += size
    slot_bits = (max([size - 1 for _, _, size, ni, _ in nodes if ni],
                     default=1) - 1).bit_length()
    edges = []
    for i, lo, size, ni, _ in nodes:
        if ni:
            words = rng.bit_generator.random_raw(size - 1).tolist()
            keys = sorted((word >> 16 + slot_bits, x)
                          for x, word in enumerate(words))
            edges += [(i, lo + x + (x >= i - lo), w_intra)
                      for _, x in keys[:ni]]
    placed = {i: [] for i, *_ in nodes}
    for _ in range(200):
        for i, lo, size, _, ne in nodes:
            got, out = placed[i], spec.N - size
            short = ne - len(got)
            if short:
                draws = short * out // (out - len(got))
                for x in rng.integers(0, np.full(draws, out)):
                    t = int(x) + size * (x >= lo)
                    if t not in got and len(got) < ne:
                        got.append(t)
    edges += [(i, t, w_inter) for i, ts in placed.items() for t in ts]
    return tuple(np.array(col) for col in zip(*edges))


def oracle_nmi(labels_a, labels_b):
    """NMI 2 I(A;B) / (H(A) + H(B)) from the dense na x nb joint table,
    1.0 when both entropies vanish."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    n = a.size
    ai = np.unique(a, return_inverse=True)[1]
    bi = np.unique(b, return_inverse=True)[1]
    na = int(ai.max()) + 1
    nb = int(bi.max()) + 1
    joint = np.bincount(ai * nb + bi, minlength=na * nb) / n
    pa = np.bincount(ai) / n
    pb = np.bincount(bi) / n
    outer = (pa[:, None] * pb[None, :]).ravel()
    nz = joint > 0
    info = float((joint[nz] * np.log(joint[nz] / outer[nz])).sum())
    h_a = -float((pa * np.log(pa)).sum())
    h_b = -float((pb * np.log(pb)).sum())
    if h_a + h_b == 0.0:
        return 1.0
    return 2.0 * info / (h_a + h_b)
