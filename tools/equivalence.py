"""Check that the detector in this checkout gives the same bits as at REV.

    python3 tools/equivalence.py REV

Extracts ``src/`` at REV with ``git archive`` and runs one fixed corpus
through ``run`` on both trees, each in its own process, at threads 1 and 2
with ``debug_checks`` on.  The corpus is built once, in this checkout, and
both trees read the same edge arrays from a temporary file, so a change to
the generator does not change the graphs REV detects on.  REV must be
``71fc0e9`` or later; an older tree may need switches this tool does not
set.  Prints every field that
differs, with the number of runs it differs on, one of them and, for a
float field, the largest absolute difference between the two trees (for
``final_score`` also the runs this checkout scores lower and higher, and
the mean signed difference over the runs that differ); then the fields
that are identical on every run.  A run that raises is recorded
in the field ``error``, with every other field None, and printed; a run
that raised on either tree is compared by that field alone.  Exits 1 on
any difference, any debug failure or any run of this checkout that
raised, else 0.
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
          "accepted_moves accepted_splits unresolved_negative debug_failures "
          "error").split()
FLOATS = ("final_score", "score_trace", "drift_checks")


def random_graphs(rng, count):
    """``count`` random graphs of 4 to 59 nodes drawn from ``rng``, a third
    unit-weight, half with self-loops."""
    from synclouvain import Graph
    for t in range(count):
        n = int(rng.integers(4, 60))
        adj = rng.random((n, n)) < rng.uniform(0.03, 0.4)
        adj[np.diag_indices(n)] &= t % 2 == 1
        adj[0, 1] = True
        src, dst = np.nonzero(adj)
        w = np.ones(src.size) if t % 3 == 0 else rng.uniform(0.1, 3, src.size)
        yield Graph.from_edges(n, src, dst, w)


def corpus():
    from synclouvain import BenchSpec, Graph, generate
    for name, (n, k, kmax, mu_t, mu_w) in SHAPES.items():
        for seed in (1000, 2000):
            yield f"{name}-{seed}", generate(BenchSpec(
                N=n, k=k, kmax=kmax, mu_t=mu_t, mu_w=mu_w, seed=seed)).graph
    rng = np.random.default_rng(0)
    for t, graph in enumerate(random_graphs(rng, 60)):
        yield f"random-{t}", graph
    # the three draws under another seed whose runs, at their own seed
    # below, leave a community unrepaired in two or more positive phases
    # (3, 3 and 2 of them), so that a later phase re-examines it
    for t, graph in enumerate(random_graphs(np.random.default_rng(7), 140)):
        if t in (3, 137, 139):
            yield f"unresolved-{t}", graph
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
    # deep and wide tails: a 2,000-node unit path, a star of 200 unit
    # spokes, a 300-node unit directed cycle, and 20 unit 5-cliques
    # chained by single edges
    path = np.arange(1999)
    yield "path-2000", Graph.from_edges(2000, path, path + 1, np.ones(1999))
    spokes = np.arange(1, 201)
    yield "star", Graph.from_edges(201, 0 * spokes, spokes, np.ones(200))
    ring = np.arange(300)
    yield "cycle", Graph.from_edges(300, ring, (ring + 1) % 300, np.ones(300))
    i, j = np.nonzero(~np.eye(5, dtype=bool))
    base = 5 * np.arange(20)[:, None]
    src = np.concatenate([(base + i).ravel(), base[1:, 0] - 1])
    dst = np.concatenate([(base + j).ravel(), base[1:, 0]])
    yield "cliques", Graph.from_edges(100, src, dst, np.ones(src.size))
    # all ties and extreme scales: a 30-node clique of equal weights, and 80
    # random nodes whose weights spread log-uniformly over 1e-300 to 1e300
    i, j = np.nonzero(~np.eye(30, dtype=bool))
    yield "clique", Graph.from_edges(30, i, j, np.ones(i.size))
    adj = rng.random((80, 80)) < 0.1
    adj[np.diag_indices(80)] = False
    src, dst = np.nonzero(adj)
    yield "wide-weights", Graph.from_edges(
        80, src, dst, 10.0 ** rng.uniform(-300, 300, src.size))
    # moves crowding onto few targets: 4 unit 10-node cliques and 200 leaf
    # pairs (u, u + 1), tied by weight 2, each leaf tied by weight 1 to 3
    # nodes of its pair's clique.  The assignment pairs the leaves (a lone
    # leaf would join its clique at once), and the maximal sweeps move the
    # pairs into the cliques, many into one target per round; 120 random
    # leaf edges of weight 0.5 make some of those tails touch
    i, j = np.nonzero(~np.eye(10, dtype=bool))
    u = 40 + 2 * np.arange(200)
    c = 10 * rng.integers(0, 4, 200)
    x, y = rng.integers(40, 440, (2, 120))
    tie = [(v, c + (v + 3 * t) % 10) for v in (u, u + 1) for t in range(3)]
    src = np.concatenate([(10 * np.arange(4)[:, None] + i).ravel(), u]
                         + [v for v, _ in tie] + [x[x != y]])
    dst = np.concatenate([(10 * np.arange(4)[:, None] + j).ravel(), u + 1]
                         + [t for _, t in tie] + [y[x != y]])
    w = np.concatenate([np.ones(360), np.full(200, 2.0), np.ones(1200),
                        np.full((x != y).sum(), 0.5)])
    yield "crowded-cliques", Graph.from_edges(440, src, dst, w)


def bits(x):
    """A value whose equality means bit equality of ``x``."""
    if hasattr(x, "tobytes"):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return tuple(bits(v) for v in x)
    return x.hex() if isinstance(x, float) else x


def save_corpus(path):
    """Write ``corpus()``'s graphs, as (name, n, out_src, out_dst, out_w),
    to ``path``."""
    with open(path, "wb") as f:
        pickle.dump([(name, g.n, g.out_src, g.out_dst, g.out_w)
                     for name, g in corpus()], f)


def dump(path):
    from synclouvain import Graph, RunConfig, run
    out = {}
    with open(path, "rb") as f:
        saved = pickle.load(f)
    for name, *edges in saved:
        graph = Graph.from_edges(*edges)
        for threads in (1, 2):
            key = f"{name} threads={threads}"
            try:
                res = run(graph, RunConfig(threads=threads,
                                           seed=zlib.crc32(name.encode()) % 97,
                                           debug_checks=True))
            except Exception as exc:  # recorded per run; main exits 1 on it
                out[key] = {**dict.fromkeys(FIELDS),
                            "error": f"{type(exc).__name__}: {exc}"}
                continue
            got = {**vars(res.stats), "flat": res.hierarchy.flat,
                   "levels": res.hierarchy.levels,
                   "final_score": res.final_score, "error": None}
            out[key] = {f: got[f] for f in FIELDS}
    sys.stdout.buffer.write(pickle.dumps(out))


def largest_gap(f, keys, old, new):
    """``; max |diff| x`` over the runs ``keys`` where the float field ``f``
    has the same shape on both trees, else an empty string.  For
    ``final_score`` it adds the runs this checkout scores lower and higher
    and the mean signed difference, this checkout less REV."""
    if f not in FLOATS:
        return ""
    gaps = [np.abs(np.subtract(new[k][f], old[k][f])).max(initial=0.0)
            for k in keys if np.shape(new[k][f]) == np.shape(old[k][f])]
    if not gaps:
        return ""
    out = f"; max |diff| {max(gaps):.3g}"
    if f == "final_score":
        diff = [new[k][f] - old[k][f] for k in keys]
        out += (f"; lower on {sum(d < 0.0 for d in diff)}, higher on "
                f"{sum(d > 0.0 for d in diff)}, mean signed diff "
                f"{np.mean(diff):+.3g}")
    return out


def extract_src(rev, tmp):
    """``src/`` of this repository at ``rev``, extracted under ``tmp``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tmp], input=tar, check=True)
    return Path(tmp) / "src"


def main(rev):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.pickle"
        subprocess.run([sys.executable, __file__, "--corpus", str(path)],
                       check=True, env={**os.environ,
                                        "PYTHONPATH": str(ROOT / "src")})
        procs = [subprocess.Popen(
            [sys.executable, __file__, "--dump", str(path)],
            stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)})
            for src in (extract_src(rev, tmp), ROOT / "src")]
        outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        sys.exit("a corpus run failed")
    old, new = map(pickle.loads, outs)
    for key in new:
        for tree, out in ((rev, old), ("this checkout", new)):
            if out[key]["error"]:
                print(f"{key} raised at {tree}: {out[key]['error']}")
    # a run that raised has only its error to compare
    ran = [key for key in new if not (old[key]["error"] or new[key]["error"])]
    differ = {f: [key for key in (new if f == "error" else ran)
                  if bits(new[key][f]) != bits(old[key][f])] for f in FIELDS}
    for f, keys in differ.items():
        if keys:
            print(f"{f} differs from {rev} on {len(keys)} of {len(new)} "
                  f"runs, e.g. {keys[0]}{largest_gap(f, keys, old, new)}")
    same = [f for f, keys in differ.items() if not keys]
    failures = sum(len(fields["debug_failures"] or ())
                   for fields in new.values())
    raised = sum(bool(fields["error"]) for fields in new.values())
    print(f"{len(new)} runs, {len(ran)} finished on both trees; "
          f"bit-identical to {rev}: {' '.join(same)}; {failures} debug "
          f"failures; {raised} runs of this checkout raised")
    return 1 if failures or raised or len(same) < len(FIELDS) else 0


if __name__ == "__main__":
    if sys.argv[1] == "--corpus":
        save_corpus(sys.argv[2])
    elif sys.argv[1] == "--dump":
        dump(sys.argv[2])
    else:
        sys.exit(main(sys.argv[1]))
