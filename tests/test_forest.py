import numpy as np

from synclouvain.forest import AssignmentForest, extract_components, reverse_assignment

from oracles import oracle_components, oracle_cycle_nodes


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


def test_reverse_assignment():
    a = np.array([1, 1, 1, 2])
    ptr, kids = reverse_assignment(a)
    assert kids[ptr[1]:ptr[2]].tolist() == [0, 2]  # nodes assigned to 1 (1 itself excluded)
    assert kids[ptr[2]:ptr[3]].tolist() == [3]
    assert ptr[0] == ptr[1]  # nothing assigned to 0
