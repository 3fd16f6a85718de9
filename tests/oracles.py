"""Independent reference implementations used to check the fast kernels.

Everything here is deliberately naive: dense matrices, double loops,
exhaustive enumeration. Nothing imports the package under test, so a bug in
the package cannot hide inside its own oracle.
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
    reaches i without passing a node of ``stop``, ascending.  A walk over
    the child lists, never entering a node twice, so a cycle node's tail is
    its whole component."""
    kids = [[] for _ in assignment]
    for x, y in enumerate(assignment):
        if x != y:
            kids[y].append(x)
    out, todo = {i}, [i]
    while todo:
        for k in kids[todo.pop()]:
            if k not in out and k not in stop:
                out.add(k)
                todo.append(k)
    return sorted(out)


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
