"""Structure of a best-neighbor assignment map.

An assignment a(i) with a(i) = i allowed is a functional graph: every weakly
connected component contains exactly one directed cycle, and everything else
hangs off it in trees pointing toward the cycle. Components become the
working communities; the cycle flags drive the split and move rules.

Component labels and cycle flags are computed by pointer doubling (log n
rounds of numpy gathers), so no Python-level walk touches every node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import canonicalize_labels

__all__ = ["AssignmentForest", "extract_components", "reverse_assignment"]


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


def reverse_assignment(a) -> tuple[np.ndarray, np.ndarray]:
    """CSR of assignment children: nodes j != i with a[j] == i, ascending."""
    a = np.asarray(a, dtype=np.int64)
    n = a.size
    mask = a != np.arange(n, dtype=np.int64)
    targets = a[mask]
    sources = np.flatnonzero(mask)
    kids = sources[np.argsort(targets, kind="stable")]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=n), out=ptr[1:])
    return ptr, kids
