"""Structure of a best-neighbor assignment map.

An assignment a(i) with a(i) = i allowed is a functional graph: every weakly
connected component contains exactly one directed cycle, and everything else
hangs off it in trees pointing toward the cycle. Components become the
working communities; the cycle flags drive the split and move rules.

Component labels and cycle flags are computed by pointer doubling (log n
rounds of numpy gathers), so no Python-level walk touches every node.
``subtrees`` lays the communities of chosen nodes out in preorder, so that
every pointer tail is one slice; it list-ranks an Euler tour by the same
pointer doubling, in O(m log m) for m nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _stable_order, canonicalize_labels

__all__ = ["AssignmentForest", "InvariantError", "extract_components",
           "subtrees"]


class InvariantError(RuntimeError):
    """A structure the detector built contradicts itself, such as a forest
    whose labels do not match its pointers: a fault of the program, not of
    its input."""


@dataclass
class AssignmentForest:
    """Assignment map plus its derived component structure.

    ``run`` builds one per level with ``extract_components``; after that
    each correction phase hands back the forest of its own pointers, built
    by ``from_labels`` from the labels it already holds instead of a second
    extraction.  The cycle flags follow two update rules: a committed
    maximal move clears the flags of exactly the nodes it moved, and a
    positive cut sets the flag of exactly the nodes it self-assigned (the
    proofs are in ``maximal_correction`` and ``positive_correction``)."""

    a: np.ndarray
    comm: np.ndarray          # dense labels ordered by smallest member
    n_comms: int
    on_cycle: np.ndarray      # node lies on its component's unique cycle

    @classmethod
    def from_labels(cls, a, labels, on_cycle) -> AssignmentForest:
        """The forest of ``a`` whose components are the communities of
        ``labels``, any labeling, and whose cycle nodes ``on_cycle`` marks."""
        comm = canonicalize_labels(labels)
        return cls(a, comm, int(comm.max(initial=-1)) + 1, on_cycle)


def extract_components(a) -> AssignmentForest:
    """Label weakly connected components of i -> a[i] and flag cycle nodes."""
    a = np.asarray(a, dtype=np.int64)
    n = a.size
    # land every node on its cycle: f = a applied >= n times
    f = a.copy()
    steps = 1
    while steps < n:
        f = f[f]
        steps *= 2
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[f] = True
    # propagate the minimum cycle id around each cycle as a component key
    minv = f.copy()
    hop = a.copy()
    steps = 1
    while steps < n:
        minv = np.minimum(minv, minv[hop])
        hop = hop[hop]
        steps *= 2
    return AssignmentForest.from_labels(a, minv, on_cycle)


def subtrees(forest, nodes):
    """Preorder of the pointer trees of the ascending ``nodes``, the members
    of whole communities of ``forest``.  Returns ``(order, start, size,
    root)``: ``root[x]`` is the smallest cycle node of x's community, whose
    pointer is cut so that the community is one tree rooted there, and
    x's subtree in it is ``order[start[x]:start[x] + size[x]]``.  So the
    root's slice is the community, an off-cycle node's slice is its pointer
    tail, and the other node of a 2-cycle gets the tree hanging from it.
    The communities follow each other in ascending label order.  ``start``,
    ``size`` and ``root`` are indexed by node id and hold -1 off ``nodes``,
    so ``start`` is each node's position in ``order``, or -1.  An empty
    ``nodes`` returns at once: an empty ``order`` and -1 everywhere.

    Each community's Euler tour enters and leaves every node once (entries
    x and m + x for the node at position x of ``nodes``, children in
    ascending order).  Pointer doubling counts the nodes each entry is
    still to enter, over the live entries only, so the rounds grow with the
    log of the largest community, not with the depth of its tree.

    A forest whose labels contradict its pointers raises InvariantError: a
    pointer that leaves its community, a community without a cycle node,
    or a pointer cycle other than the root's, whose tour never ends and so
    outlasts the ceil(log2(2m + 1)) rounds in which every entry of a true
    tour reaches the end."""
    n, m = forest.a.size, nodes.size
    start, size, root = np.full((3, n), -1)
    if not m:
        return np.empty(0, dtype=np.int64), start, size, root
    loc = np.empty(n, dtype=np.int64)
    loc[nodes] = np.arange(m)  # below, nodes go by position in nodes
    comm, up = forest.comm[nodes], forest.a[nodes]
    cyc = np.flatnonzero(forest.on_cycle[nodes])
    comms, first = np.unique(comm[cyc], return_index=True)
    c = np.searchsorted(comms, comm)  # community rank
    if ((forest.comm[up] != comm) | (np.append(comms, -1)[c] != comm)).any():
        raise InvariantError("subtrees: a pointer leaves its community, or "
                             "a community has no cycle node")
    rt = cyc[first][c]
    # each node's parent, m for a root, whose leaving ends the tour at 2m
    par = np.where(rt == np.arange(m), m, loc[up])
    # entering a node goes on to leave it, and leaving it to leave its
    # parent, unless entering goes into a first child and leaving a child
    # into its next sibling
    nxt = np.concatenate((np.arange(m, 2 * m), m + par, [2 * m]))
    kids, kpar = (x[:m - comms.size] for x in _stable_order(par, m + 1))
    head = np.diff(kpar, prepend=-1) != 0
    nxt[np.where(head, kpar, m + np.roll(kids, 1))] = kids
    # the nodes entered from each entry to the end, itself included
    ahead = np.repeat(np.array([1, 0]), [m, m + 1])
    live = np.arange(2 * m)
    for _ in range((2 * m).bit_length() + 1):
        hop = nxt[live]
        ahead[live] += ahead[hop]
        nxt[live] = hop = nxt[hop]
        live = live[hop < 2 * m]
        if not live.size:
            break
    else:
        raise InvariantError("subtrees: a pointer cycle is not cut")
    start[nodes] = np.cumsum(ahead[cyc[first]])[c] - ahead[:m]
    size[nodes] = ahead[:m] - ahead[m:2 * m]
    root[nodes] = nodes[rt]
    order = np.empty(m, dtype=np.int64)
    order[start[nodes]] = nodes
    return order, start, size, root
