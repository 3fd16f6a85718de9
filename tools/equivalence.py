"""Check that the detector in this checkout gives the same bits as at REV.

    python3 tools/equivalence.py REV

Extracts ``src/`` at REV with ``git archive`` and runs one fixed corpus
through ``run`` on both trees, each in its own process, at threads 1 and 2
with ``record_scores`` and ``debug_checks`` on.  Prints the first
difference and exits 1; exits 1 as well on any debug failure, else 0.
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


def bits(x):
    """A value whose equality means bit equality of ``x``."""
    if hasattr(x, "tobytes"):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return tuple(bits(v) for v in x)
    return x.hex() if isinstance(x, float) else x


def dump():
    from synclouvain import RunConfig, run
    out = {}
    for name, graph in corpus():
        for threads in (1, 2):
            res = run(graph, RunConfig(threads=threads,
                                       seed=zlib.crc32(name.encode()) % 97,
                                       record_scores=True, debug_checks=True))
            got = {**vars(res.stats), "flat": res.hierarchy.flat,
                   "levels": res.hierarchy.levels, "final_score": res.final_score}
            out[f"{name} threads={threads}"] = {f: bits(got[f]) for f in FIELDS}
    sys.stdout.buffer.write(pickle.dumps(out))


def main(rev):
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=tar, check=True)
        procs = [subprocess.Popen(
            [sys.executable, __file__, "--dump"], stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
            for src in (Path(tmp) / "src", ROOT / "src")]
        outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        sys.exit("a corpus run failed")
    old, new = map(pickle.loads, outs)
    for key, fields in new.items():
        for f in fields:
            if fields[f] != old[key][f]:
                print(f"{key}: {f} differs from {rev}")
                return 1
    failures = sum(len(fields["debug_failures"]) for fields in new.values())
    print(f"{len(new)} runs bit-identical to {rev}; {failures} debug failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(dump() if sys.argv[1:] == ["--dump"] else main(sys.argv[1]))
