"""Time the detector in this checkout against the one at REV, in pairs.

    python3 tools/abtime.py REV [--graphs 10] [--seed 1] [--threads 1]

Extracts ``src/`` at REV with ``git archive``, as ``equivalence.py``
does.  For each of the benchmark's three workload shapes
(``equivalence.SHAPES``) it starts one worker process per tree, each
importing only its own tree and so running on its own heap; a fresh pair
per workload, as the benchmark runs one
workload per process, because the heap a process keeps from earlier runs
changes how often it faults.  Both workers get ``--graphs`` planted graphs,
seeds 1000 * seed + i, alternately, the first to go alternating from graph
to graph, so that both trees see the same slow and fast minutes of a shared
machine.  A worker generates the graph and builds its neighbor union (the
benchmark's setup), then times one ``run`` at ``--threads`` and counts the
process's minor page faults during it (``resource.getrusage``
``ru_minflt``).  Each worker first detects one graph untimed, to warm up.

Per workload it prints each tree's median seconds per run, the median of
the per-graph time ratios this checkout / REV with their quartiles, the
graphs this checkout ran faster on out of all pairs, each tree's median
minor faults per run, and the number of graphs whose flat partitions differ
between the trees (0 for a change that keeps the bits).
"""

import argparse, json, os, resource, subprocess, sys, tempfile, time, zlib
from statistics import median

import numpy as np

from equivalence import ROOT, SHAPES, extract_src


def graph_of(shape, seed):
    from synclouvain import BenchSpec, generate
    n, k, kmax, mu_t, mu_w = SHAPES[shape]
    return generate(BenchSpec(N=n, k=k, kmax=kmax, mu_t=mu_t, mu_w=mu_w,
                              seed=seed)).graph


def work():
    """Worker loop: one JSON request per stdin line, one JSON reply per
    stdout line."""
    from synclouvain import RunConfig, run
    for line in sys.stdin:
        req = json.loads(line)
        graph = graph_of(req["shape"], req["seed"])
        graph.neighbor_union()  # setup, as in the benchmark, not detect
        cfg = RunConfig(threads=req["threads"])
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        res = run(graph, cfg)
        secs = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        print(json.dumps({"s": secs, "faults": faults,
                          "flat": zlib.crc32(res.hierarchy.flat.tobytes())}),
              flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--graphs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        srcs = [extract_src(args.rev, tmp), ROOT / "src"]
        for shape in SHAPES:
            pairs = compare(shape, args, srcs)
            ratio = [new["s"] / old["s"] for old, new in pairs]
            q1, q3 = np.percentile(ratio, [25, 75])
            secs, faults = ([median(r[f] for r in side)
                             for side in zip(*pairs)] for f in ("s", "faults"))
            print(f"{shape}: median seconds {secs[0]:.3f} -> {secs[1]:.3f}; "
                  f"time this/{args.rev} median {median(ratio):.3f} "
                  f"(quartiles {q1:.3f}, {q3:.3f}), faster on "
                  f"{sum(r < 1.0 for r in ratio)}/{len(pairs)} graphs; minor "
                  f"faults per run {faults[0]:.0f} -> {faults[1]:.0f}; flats "
                  f"differ on {sum(a['flat'] != b['flat'] for a, b in pairs)}",
                  flush=True)


def compare(shape, args, srcs):
    """(old, new) replies per graph of ``shape``, from a fresh worker per
    tree, as the benchmark runs one workload per process."""
    procs = [subprocess.Popen(
        [sys.executable, __file__, "--work"], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}) for src in srcs]

    def detect(proc, seed):
        proc.stdin.write(json.dumps({"shape": shape, "seed": seed,
                                     "threads": args.threads}) + "\n")
        proc.stdin.flush()
        reply = proc.stdout.readline()
        if not reply:
            sys.exit("a worker failed")
        return json.loads(reply)

    try:
        for proc in procs:
            detect(proc, 0)
        pairs = []
        for i in range(args.graphs):
            seed = 1000 * args.seed + i
            order = procs if i % 2 == 0 else procs[::-1]
            got = {id(p): detect(p, seed) for p in order}
            pairs.append(tuple(got[id(p)] for p in procs))
        return pairs
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()


if __name__ == "__main__":
    work() if sys.argv[1:] == ["--work"] else main()
