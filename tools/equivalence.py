"""Check that the detector in this checkout gives the same bits as at REV.

    python3 tools/equivalence.py REV

Extracts ``src/`` at REV with ``git archive`` and runs one fixed corpus
through ``run`` on both trees, each in its own process, at threads 1 and 2
with ``debug_checks`` on (and ``record_scores``, on a tree whose
``RunConfig`` still has that switch).  Prints every field that
differs, with the number of runs it differs on, one of them and, for a
float field, the largest absolute difference between the two trees; then
the fields that are identical on every run.  Exits 1 on any difference or
any debug failure, else 0.
"""

import os, pickle, subprocess, sys, tempfile, zlib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# (N, k, kmax, mu_t, mu_w) of the benchmark's three workloads
SHAPES = {"planted-file": (6000, 16, 32, 0.2, 0.1),
          "planted-mixed": (5000, 16, 32, 0.5, 0.4),
          "planted-sparse": (8000, 4, 8, 0.3, 0.2)}
FIELDS = ("flat levels final_score "
          "score_trace trace_level_starts drift_checks sweeps_per_level warnings "
          "accepted_moves accepted_splits unresolved_negative debug_failures").split()
FLOATS = ("final_score", "score_trace", "drift_checks")


def corpus():
    from synclouvain import BenchSpec, Graph, generate
    for name, (n, k, kmax, mu_t, mu_w) in SHAPES.items():
        for seed in (1000, 2000):
            yield f"{name}-{seed}", generate(BenchSpec(
                N=n, k=k, kmax=kmax, mu_t=mu_t, mu_w=mu_w, seed=seed)).graph
    rng = np.random.default_rng(0)
    for t in range(60):  # a third unit-weight, half with self-loops
        n = int(rng.integers(4, 60))
        adj = rng.random((n, n)) < rng.uniform(0.03, 0.4)
        adj[np.diag_indices(n)] &= t % 2 == 1
        adj[0, 1] = True
        src, dst = np.nonzero(adj)
        w = np.ones(src.size) if t % 3 == 0 else rng.uniform(0.1, 3, src.size)
        yield f"random-{t}", Graph.from_edges(n, src, dst, w)
    # an empty or nearly empty union: no edge, self-loops only, and n=50
    # with 4 edges
    none = np.empty(0, dtype=np.int64)
    yield "edgeless", Graph.from_edges(20, none, none, np.empty(0))
    loops = np.arange(0, 20, 3)
    yield "self-loops", Graph.from_edges(20, loops, loops, loops + 0.5)
    yield "mostly-isolated", Graph.from_edges(
        50, [3, 4, 17, 40], [4, 3, 40, 41], [1.0, 2.5, 0.75, 1.0])
    # a unit path, alone and with 40 chords between non-adjacent nodes:
    # the shapes with the deepest pointer tails and chains
    path = np.arange(299)
    yield "path", Graph.from_edges(300, path, path + 1, np.ones(299))
    src = rng.integers(0, 300, 40)
    dst = (src + rng.integers(2, 299, 40)) % 300
    yield "path-chords", Graph.from_edges(
        300, np.concatenate([path, src]), np.concatenate([path + 1, dst]),
        np.ones(339))


def bits(x):
    """A value whose equality means bit equality of ``x``."""
    if hasattr(x, "tobytes"):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return tuple(bits(v) for v in x)
    return x.hex() if isinstance(x, float) else x


def dump():
    from synclouvain import RunConfig, run
    # a tree from before every run recorded its trace records it on request
    record = ({"record_scores": True}
              if "record_scores" in RunConfig.__dataclass_fields__ else {})
    out = {}
    for name, graph in corpus():
        for threads in (1, 2):
            res = run(graph, RunConfig(threads=threads,
                                       seed=zlib.crc32(name.encode()) % 97,
                                       debug_checks=True, **record))
            got = {**vars(res.stats), "flat": res.hierarchy.flat,
                   "levels": res.hierarchy.levels, "final_score": res.final_score}
            out[f"{name} threads={threads}"] = {f: got[f] for f in FIELDS}
    sys.stdout.buffer.write(pickle.dumps(out))


def largest_gap(f, keys, old, new):
    """``; max |diff| x`` over the runs ``keys`` where the float field ``f``
    has the same shape on both trees, else an empty string."""
    if f not in FLOATS:
        return ""
    gaps = [np.abs(np.subtract(new[k][f], old[k][f])).max(initial=0.0)
            for k in keys if np.shape(new[k][f]) == np.shape(old[k][f])]
    return f"; max |diff| {max(gaps):.3g}" if gaps else ""


def extract_src(rev, tmp):
    """``src/`` of this repository at ``rev``, extracted under ``tmp``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tmp], input=tar, check=True)
    return Path(tmp) / "src"


def main(rev):
    with tempfile.TemporaryDirectory() as tmp:
        procs = [subprocess.Popen(
            [sys.executable, __file__, "--dump"], stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
            for src in (extract_src(rev, tmp), ROOT / "src")]
        outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        sys.exit("a corpus run failed")
    old, new = map(pickle.loads, outs)
    differ = {f: [key for key in new
                  if bits(new[key][f]) != bits(old[key][f])] for f in FIELDS}
    for f, keys in differ.items():
        if keys:
            print(f"{f} differs from {rev} on {len(keys)} of {len(new)} "
                  f"runs, e.g. {keys[0]}{largest_gap(f, keys, old, new)}")
    same = [f for f, keys in differ.items() if not keys]
    failures = sum(len(fields["debug_failures"]) for fields in new.values())
    print(f"{len(new)} runs; bit-identical to {rev}: {' '.join(same)}; "
          f"{failures} debug failures")
    return 1 if failures or len(same) < len(FIELDS) else 0


if __name__ == "__main__":
    sys.exit(dump() if sys.argv[1:] == ["--dump"] else main(sys.argv[1]))
