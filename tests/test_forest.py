import numpy as np
import pytest
from hypothesis import given, settings, strategies

from synclouvain.forest import (AssignmentForest, InvariantError,
                                extract_components, subtrees)

from oracles import oracle_components, oracle_cycle_nodes, oracle_tail


def test_chain_single_cycle():
    a = np.array([0, 0, 1])  # 2 -> 1 -> 0 -> itself
    forest = extract_components(a)
    assert forest.n_comms == 1
    np.testing.assert_array_equal(forest.comm, [0, 0, 0])
    np.testing.assert_array_equal(forest.on_cycle, [True, False, False])


def test_two_triangles_all_on_cycle():
    a = np.array([1, 2, 0, 4, 5, 3])
    forest = extract_components(a)
    assert forest.n_comms == 2
    np.testing.assert_array_equal(forest.comm, [0, 0, 0, 1, 1, 1])
    assert forest.on_cycle.all()


def test_labels_ordered_by_smallest_member():
    # component of {1, 3} and component of {0, 2}: labels follow smallest member
    a = np.array([2, 3, 0, 1])
    forest = extract_components(a)
    np.testing.assert_array_equal(forest.comm, [0, 1, 0, 1])


def test_random_functional_graphs_match_oracles():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 201))
        a = rng.integers(0, n, size=n).astype(np.int64)
        forest = extract_components(a)
        comps = oracle_components(a)
        # same partition up to relabeling
        _, inv_a = np.unique(forest.comm, return_inverse=True)
        _, inv_b = np.unique(comps, return_inverse=True)
        assert forest.n_comms == len(np.unique(comps))
        pairs = set(zip(inv_a.tolist(), inv_b.tolist()))
        assert len(pairs) == forest.n_comms
        np.testing.assert_array_equal(forest.on_cycle, oracle_cycle_nodes(a))
        # exactly one cycle per component: every component has >= 1 cycle node
        # and cycle nodes of one component form a single orbit
        for c in range(forest.n_comms):
            members = np.flatnonzero(forest.comm == c)
            cyc = members[forest.on_cycle[members]]
            assert cyc.size >= 1
            seen = {int(cyc[0])}
            x = int(a[cyc[0]])
            while x not in seen:
                seen.add(x)
                x = int(a[x])
            assert seen == set(cyc.tolist())


def _pointers(rng, n, shape):
    """Pointers of n nodes.  "cycles" and "chains" place disjoint 1- to
    4-cycles first and point every later node at an earlier one: a random
    one, or for "chains" mostly the one just before, so trees are deep."""
    if shape == "self-loops":
        return np.arange(n)
    if shape == "random":
        return rng.integers(0, n, size=n)
    perm = rng.permutation(n)
    a = np.empty(n, dtype=np.int64)
    placed = 0
    while placed < n and (placed == 0 or rng.random() < 0.4):
        cyc = perm[placed:placed + int(rng.integers(1, 5))]
        a[cyc] = np.roll(cyc, -1)
        placed += cyc.size
    for p in range(placed, n):
        deep = shape == "chains" and rng.random() < 0.9
        a[perm[p]] = perm[p - 1 if deep else int(rng.integers(0, p))]
    return a


@settings(max_examples=150, deadline=None)
@given(seed=strategies.integers(0, 2**31),
       shape=strategies.sampled_from(("random", "cycles", "chains",
                                      "self-loops")),
       share=strategies.sampled_from((0.0, 0.5, 1.0)))
def test_subtrees_slices_are_pointer_tails(seed, shape, share):
    # every slice of the preorder, as a set, against the naive tail walk:
    # an off-cycle node's tail, the tree hanging from the larger node of a
    # 2-cycle, and the community at its root, the smallest cycle node; the
    # nodes cover all, some or none of the communities
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    a = _pointers(rng, n, shape)
    forest = extract_components(a)
    nodes = np.flatnonzero((rng.random(forest.n_comms) < share)[forest.comm])
    order, start, size, root = subtrees(forest, nodes)
    assert sorted(order.tolist()) == nodes.tolist()
    for x in nodes.tolist():
        got = set(order[start[x]:start[x] + size[x]].tolist())
        members = np.flatnonzero(forest.comm == forest.comm[x])
        cyc = members[forest.on_cycle[members]]
        assert root[x] == cyc.min()
        if x == root[x]:
            assert got == set(members.tolist())
        elif not forest.on_cycle[x]:
            assert got == set(oracle_tail(a, x))
        elif cyc.size == 2:
            assert got == set(oracle_tail(a, x, stop={int(root[x])}))


def test_subtrees_hold_minus_one_off_the_nodes():
    # two communities, {0, 1, 2} and {3, 4}, laid out without the second:
    # start, size and root hold -1 at its nodes, and start is each laid-out
    # node's position in the preorder
    forest = extract_components(np.array([0, 0, 1, 4, 3]))
    order, start, size, root = subtrees(forest, np.arange(3))
    for arr in (start, size, root):
        np.testing.assert_array_equal(arr[3:], [-1, -1])
    np.testing.assert_array_equal(start[order], np.arange(3))
    # no nodes: an empty preorder, and -1 at every node
    order, start, size, root = subtrees(forest, np.empty(0, dtype=np.int64))
    assert order.dtype == np.int64 and order.shape == (0,)
    for arr in (start, size, root):
        assert arr.dtype == np.int64
        np.testing.assert_array_equal(arr, [-1] * 5)


@pytest.mark.parametrize("a, comm, on_cycle, why", [
    # node 3 points into community 0
    ([1, 0, 3, 0], [0, 0, 1, 1], [1, 1, 1, 0], "leaves its community"),
    # community 1, the last, flags no cycle node
    ([1, 0, 3, 2], [0, 0, 1, 1], [1, 1, 0, 0], "leaves its community"),
    # one label over two 2-cycles: the root cuts one, the other stays closed
    ([1, 0, 3, 2], [0, 0, 0, 0], [1, 1, 1, 1], "is not cut"),
    # the flag sits on tree node 0, so the cycle 1 <-> 2 is never cut
    ([1, 2, 1], [0, 0, 0], [1, 0, 0], "is not cut"),
], ids=["pointer-leaves", "no-cycle-node", "two-cycles", "flag-off-cycle"])
def test_subtrees_rejects_labels_that_contradict_pointers(a, comm, on_cycle,
                                                          why):
    forest = AssignmentForest(np.array(a), np.array(comm), max(comm) + 1,
                              np.array(on_cycle, dtype=bool))
    with pytest.raises(InvariantError, match=why):
        subtrees(forest, np.arange(len(a)))
