"""Time the detector in this checkout against the one at REV, in pairs.

    python3 tools/abtime.py REV [--graphs 10] [--seed 1] [--threads 1]

Extracts ``src/`` at REV with ``git archive``, as ``equivalence.py``
does.  REV must be ``71fc0e9`` or later, a tree with the settle test and
the commit rounds wrapped below.  For each of the benchmark's three
workload shapes (``equivalence.SHAPES``) it starts one worker process
per tree, each
importing only its own tree and so running on its own heap; a fresh pair
per workload, as the benchmark runs one
workload per process, because the heap a process keeps from earlier runs
changes how often it faults.  Both workers get ``--graphs`` planted graphs,
seeds 1000 * seed + i, alternately, the first to go alternating from graph
to graph, so that both trees see the same slow and fast minutes of a shared
machine.  A worker times generating the graph and building its neighbor
union (the benchmark's in-memory setup; on planted-file the benchmark
times the loader instead) and checksums the graph's arrays.  This
checkout's worker saves its graph to a temporary file, and REV's worker
detects on that graph, with its union built untimed, so that both trees
detect on the same graph even when the generator changed.  Each worker
then times one ``run`` at ``--threads`` and counts the process's minor
page faults during it (``resource.getrusage`` ``ru_minflt``).  Each worker
first detects one graph untimed, to warm up.
Each worker also wraps its tree's plan kernel, ``detector._best_targets``,
and adds up the seconds spent inside it and the union entries of the rows
it planned (the assignment's plan included), adds the seconds of the
settle test ``detector._Frontier.settled`` to the plan's and counts the
rows it tested and those it settled.

Per workload it first prints each tree's median setup seconds per graph,
the median of the per-graph setup ratios this checkout / REV with their
quartiles, the graphs whose setup ran faster, and the number of graphs
whose arrays differ between the trees (0 for a generator that keeps the
bits).  Then it prints each tree's median seconds per run, the median of
the per-graph time ratios this checkout / REV with their quartiles, the
graphs this checkout ran faster on out of all pairs, each tree's median
minor faults per run, and the number of graphs whose flat partitions differ
between the trees (0 for a change that keeps the bits).  A second line
gives each tree's median plan seconds per run, the median of their
per-graph ratios this checkout / REV with its quartiles and the graphs
where it was lower; then the same for plan microseconds per planned
entry, and each tree's share of the rows tested that settled without a
plan.  On the same line follow each tree's median commit seconds per
run and commit rounds per run, each with the median of its per-graph
ratios, quartiles and the graphs where it was lower, from a wrapper of
``detector._commit_rounds`` that adds the seconds
spent inside the generator, resumptions included, and counts the rounds
it yields; so the line shows each layer's share of a change in time.
A further line gives positive correction the same way: each tree's
median seconds per run inside ``detector.positive_correction`` and rows
per run whose local gain ``detector.local_gains`` computed, with the
per-graph ratios.
Then a line gives each tree's median level-0 sweeps and median
sweeps per run, summed over the levels (``RunStats.sweeps_per_level``).
A last line gives, from the same timed runs, each tree's mean
``final_score`` and its mean NMI against the planted truth (``nmi``), and
the difference this checkout less REV, so that a change that alters
partitions shows its quality next to its time.
Plan seconds per run is the figure to read: settled rows leave the plan,
and they are its cheapest, so the cost per planned entry rises when the
settle test saves time.
"""

import argparse, json, os, resource, subprocess, sys, tempfile, threading
import time, zlib
from pathlib import Path
from statistics import median

import numpy as np

from equivalence import ROOT, SHAPES, extract_src


def planted(shape, seed):
    from synclouvain import BenchSpec, generate
    n, k, kmax, mu_t, mu_w = SHAPES[shape]
    return generate(BenchSpec(N=n, k=k, kmax=kmax, mu_t=mu_t, mu_w=mu_w,
                              seed=seed))


PLAN_ZERO = {"plan_s": 0.0, "plan_entries": 0, "tested": 0, "settled": 0,
             "commit_s": 0.0, "rounds": 0, "positive_s": 0.0, "gain_rows": 0}


def timed_plan(detector):
    """Wrap ``detector._best_targets`` so that it adds its seconds and the
    union entries of its rows to the returned dict, and the settle test
    ``detector._Frontier.settled`` so that it adds its seconds, the rows it
    tested and the rows it settled.  The commit's rounds,
    ``detector._commit_rounds``, add their seconds and count their rounds,
    ``detector.positive_correction`` its seconds, and
    ``detector.local_gains`` the rows it computes (these run on the calling
    thread only, so no lock is needed)."""
    plan = dict(PLAN_ZERO)
    inner = detector._best_targets
    lock = threading.Lock()

    def timed(graph, st, labels, agg, lo, hi, rows, *memo):
        t0 = time.perf_counter()
        out = inner(graph, st, labels, agg, lo, hi, rows, *memo)
        secs = time.perf_counter() - t0
        ptr = graph.neighbor_union().ptr
        with lock:
            plan["plan_s"] += secs
            plan["plan_entries"] += int(ptr[rows + 1].sum() - ptr[rows].sum())
        return out

    detector._best_targets = timed
    settle = detector._Frontier.settled

    def timed_settle(self, graph, st, labels, agg):
        t0 = time.perf_counter()
        keep = settle(self, graph, st, labels, agg)
        secs = time.perf_counter() - t0
        with lock:
            plan["plan_s"] += secs
            plan["tested"] += keep.size
            plan["settled"] += int(keep.sum())
        return keep

    detector._Frontier.settled = timed_settle
    rounds = detector._commit_rounds

    def timed_rounds(*args, **kwargs):
        it = rounds(*args, **kwargs)
        while True:
            t0 = time.perf_counter()
            out = next(it, None)
            plan["commit_s"] += time.perf_counter() - t0
            if out is None:
                return
            plan["rounds"] += 1
            yield out

    detector._commit_rounds = timed_rounds
    positive, gains = detector.positive_correction, detector.local_gains

    def timed_positive(*args, **kwargs):
        t0 = time.perf_counter()
        out = positive(*args, **kwargs)
        plan["positive_s"] += time.perf_counter() - t0
        return out

    def counted_gains(graph, st, labels, agg, nodes=None):
        plan["gain_rows"] += graph.n if nodes is None else len(nodes)
        return gains(graph, st, labels, agg, nodes)

    detector.positive_correction = timed_positive
    detector.local_gains = counted_gains
    return plan


def work():
    """Worker loop: one JSON request per stdin line, one JSON reply per
    stdout line.  A request with a shape generates that graph, times it
    and, with ``save``, writes its edges and truth there; a request without
    detects on the last graph, or with ``load`` on the graph saved there."""
    from synclouvain import Graph, RunConfig, detector, nmi, run
    plan = timed_plan(detector)
    for line in sys.stdin:
        req = json.loads(line)
        if "shape" in req:
            t0 = time.perf_counter()
            pg = planted(req["shape"], req["seed"])
            graph, truth = pg.graph, pg.truth
            graph.neighbor_union()  # setup, as in the benchmark, not detect
            setup = time.perf_counter() - t0
            crc = 0
            for arr in (graph.out_src, graph.out_dst, graph.out_w):
                crc = zlib.crc32(arr.tobytes(), crc)
            if req["save"]:
                np.savez(req["save"], n=graph.n, src=graph.out_src,
                         dst=graph.out_dst, w=graph.out_w, truth=truth)
            print(json.dumps({"setup_s": setup, "graph": crc}), flush=True)
            continue
        if req["load"]:
            with np.load(req["load"]) as saved:
                graph = Graph.from_edges(int(saved["n"]), saved["src"],
                                         saved["dst"], saved["w"])
                truth = saved["truth"]
            graph.neighbor_union()
        cfg = RunConfig(threads=req["threads"])
        plan.update(PLAN_ZERO)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        res = run(graph, cfg)
        secs = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        print(json.dumps({"s": secs, "faults": faults,
                          "flat": zlib.crc32(res.hierarchy.flat.tobytes()),
                          "q": res.final_score,
                          "nmi": nmi(res.hierarchy.flat, truth),
                          "sweeps0": res.stats.sweeps_per_level[0],
                          "sweeps": sum(res.stats.sweeps_per_level),
                          "plan_s": plan["plan_s"],
                          "plan_us": 1e6 * plan["plan_s"]
                          / max(plan["plan_entries"], 1),
                          "settled": plan["settled"]
                          / max(plan["tested"], 1),
                          "commit_s": plan["commit_s"],
                          "rounds": plan["rounds"],
                          "positive_s": plan["positive_s"],
                          "gain_rows": plan["gain_rows"]}),
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
            pairs = compare(shape, args, srcs, Path(tmp) / "graph.npz")
            per = [median(r["setup_s"] for r in side) for side in zip(*pairs)]
            ratio = [new["setup_s"] / old["setup_s"] for old, new in pairs]
            q1, q3 = np.percentile(ratio, [25, 75])
            differ = sum(old["graph"] != new["graph"] for old, new in pairs)
            print(f"{shape}: setup s per graph {per[0]:.4f} -> {per[1]:.4f}, "
                  f"this/{args.rev} median {median(ratio):.3f} (quartiles "
                  f"{q1:.3f}, {q3:.3f}), faster on "
                  f"{sum(r < 1.0 for r in ratio)}/{len(pairs)} graphs; graphs "
                  f"differ on {differ}", flush=True)
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
            line = [layer(pairs, args.rev, f, unit) for f, unit in (
                ("plan_s", "plan s per run"),
                ("plan_us", "plan us per planned entry"),
                ("commit_s", "commit s per run"),
                ("rounds", "commit rounds per run"))]
            share = [median(r["settled"] for r in side)
                     for side in zip(*pairs)]
            line.insert(2, f"rows settled {share[0]:.1%} -> {share[1]:.1%} "
                           f"of those tested")
            print(f"{shape}: " + "; ".join(line), flush=True)
            print(f"{shape}: " + "; ".join(
                layer(pairs, args.rev, f, unit) for f, unit in (
                    ("positive_s", "positive s per run"),
                    ("gain_rows", "local gain rows per run"))), flush=True)
            s0, sw = ([median(r[f] for r in side) for side in zip(*pairs)]
                      for f in ("sweeps0", "sweeps"))
            print(f"{shape}: median level-0 sweeps {s0[0]:g} -> {s0[1]:g}; "
                  f"median sweeps per run {sw[0]:g} -> {sw[1]:g}", flush=True)
            q, nm = ([np.mean([r[f] for r in side]) for side in zip(*pairs)]
                     for f in ("q", "nmi"))
            print(f"{shape}: mean final_score {q[0]:.5f} -> {q[1]:.5f} "
                  f"({q[1] - q[0]:+.5f}); mean NMI against the planted truth "
                  f"{nm[0]:.4f} -> {nm[1]:.4f} ({nm[1] - nm[0]:+.4f})",
                  flush=True)


def layer(pairs, rev, f, unit):
    """Each tree's median of the reply field ``f`` per run, and the median,
    quartiles and count below 1 of its per-graph ratios this / ``rev``."""
    per = [median(r[f] for r in side) for side in zip(*pairs)]
    ratio = [new[f] / max(old[f], 1e-12) for old, new in pairs]
    q1, q3 = np.percentile(ratio, [25, 75])
    return (f"{unit} {per[0]:.4g} -> {per[1]:.4g}, this/{rev} median "
            f"{median(ratio):.3f} (quartiles {q1:.3f}, {q3:.3f}), lower on "
            f"{sum(r < 1.0 for r in ratio)}/{len(pairs)} graphs")


def compare(shape, args, srcs, path):
    """(old, new) replies per graph of ``shape``, from a fresh worker per
    tree, as the benchmark runs one workload per process; the new tree's
    graph goes through ``path`` to the old tree's worker."""
    procs = [subprocess.Popen(
        [sys.executable, __file__, "--work"], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}) for src in srcs]

    def ask(proc, req):
        proc.stdin.write(json.dumps(req) + "\n")
        proc.stdin.flush()
        reply = proc.stdout.readline()
        if not reply:
            sys.exit("a worker failed")
        return json.loads(reply)

    def pair(seed, order):
        old, new = procs
        got = {id(p): ask(p, {"shape": shape, "seed": seed,
                              "save": str(path) if p is new else None})
               for p in order}
        for p in order:
            load = str(path) if p is old else None
            got[id(p)].update(ask(p, {"threads": args.threads, "load": load}))
        return tuple(got[id(p)] for p in procs)

    try:
        pair(0, procs)
        return [pair(1000 * args.seed + i,
                     procs if i % 2 == 0 else procs[::-1])
                for i in range(args.graphs)]
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()


if __name__ == "__main__":
    work() if sys.argv[1:] == ["--work"] else main()
