"""synclouvain benchmark: seeded planted-partition workloads.

Run from the repository root:

    python3 perfbench/run.py --workload planted-mixed --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics of untraced runs, with times
rescaled to one machine speed by ``Clock`` (the raw wall means are
printed beside them); ``--trace 1`` repeats the pipeline on one graph with
spans around every layer boundary and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Machine and input facts, and in
traced runs the spans and per-sweep records, go to
``perfbench/work/<workload>-seed<n>-trace<t>.json``.

Every detect run is gated: threads=1 and threads=2 must give bit-identical
flats and levels, the graph first detected before timing must come out the
same again, written partition files must read back equal, and
``quality.score`` of the flat must equal ``final_score`` exactly; a loaded
edge list must equal the graph it was written from.  A run that fails the
gate or raises counts in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

UNION_ENTRY_BYTES = 32  # nbr and row as int64, w_out and w_in as float64
DETECT_SEED = 0  # the CLI default: coins stay fixed, graphs vary with --seed
INSTANCE_STRIDE = 1000  # instance i of seed s is generated with 1000*s + i
SMOKE_N = 400
REF_KERNEL_S = 0.05  # Clock's kernel on a quiet core of a 2.1 GHz Xeon


@dataclass(frozen=True)
class Workload:
    N: int
    k: float
    kmax: int
    mu_t: float
    mu_w: float
    from_file: bool


# Each run detects a sequence of planted graphs drawn from the seed: the
# detect time of one graph varies by about 20% with its sweep count, so a
# run reports means over a dozen or more small graphs rather than one large
# one.
WORKLOADS = {
    # The `synclouvain detect` path: the graph is written to an edge list
    # before timing and loaded from it; the only workload with the loader.
    "planted-file": Workload(6_000, 16, 32, 0.2, 0.1, from_file=True),
    # The `synclouvain bench` path, in memory.  High mixing makes the
    # snapshot plan heaviest and NMI lowest, so plan cost and quality
    # regressions show here first.
    "planted-mixed": Workload(5_000, 16, 32, 0.5, 0.4, from_file=False),
    # Sparse, in memory: level 0 hits the sweep cap, most sweeps apply no
    # move, and the serial commit is the largest share of detect.
    "planted-sparse": Workload(8_000, 4, 8, 0.3, 0.2, from_file=False),
}


def import_package():
    """Import synclouvain from this checkout's ``src``, never from an
    installed copy, so a checkout without sources fails."""
    pkg = SRC / "synclouvain"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no synclouvain sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import synclouvain
    if Path(synclouvain.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(
            f"perfbench: imported synclouvain from {synclouvain.__file__}, "
            f"not from {pkg}")
    return synclouvain


def cgroup_cpu_quota() -> str:
    """CPU quota of this process's cgroup as '<cpus> cpus', 'unlimited' or
    'unreadable'."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
    except OSError:
        try:
            quota = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text()
            period = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text()
        except OSError:
            return "unreadable"
    quota, period = quota.strip(), period.strip()
    if quota in ("max", "-1"):
        return "unlimited"
    return f"{int(quota) / int(period):.2f} cpus"


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Times sections of work and measures the machine's speed beside them.

    On a shared two-vCPU VM (2.1 GHz Xeon) the speed of a core swings by up
    to 1.8x from minute to minute as other tenants come and go, and every
    wall time moves with it.  A fixed kernel from this file (numpy gather,
    sort and segment sums plus an interpreter loop, like the detector's
    mix) is timed right before and right after each section, so kernel
    times are sampled all through a run.  ``scale()`` is REF_KERNEL_S over
    their median: a run's wall times times ``scale()`` are seconds at
    the speed where the kernel takes REF_KERNEL_S.  One kernel is too short
    to see the slowdowns inside the section next to it, so scaling each
    section by its own neighbours only adds the kernels' noise; the median
    over the run follows the drift between runs.  Only this file's code is
    in the kernel, so a change to synclouvain moves scaled and wall times
    alike.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random(200_000)
        self._idx = rng.integers(0, self._x.size, self._x.size)
        self._starts = np.arange(0, self._x.size, 7)
        self.kernels = []  # kernel seconds, in order
        self._ended = -1.0  # when the last kernel ended

    def _kernel(self):
        t0 = time.perf_counter()
        for _ in range(2):
            x = self._x[self._idx]
            np.add.reduceat(x[np.argsort(x, kind="stable")], self._starts)
            acc = 0
            for v in range(20_000):
                acc += v & 7
        end = time.perf_counter()
        self.kernels.append(end - t0)
        self._ended = end

    @contextlib.contextmanager
    def section(self):
        """Yields a dict that holds the wall seconds as ``raw`` on exit."""
        if time.perf_counter() - self._ended > 0.005:  # not adjacent
            self._kernel()
        rec = {}
        t0 = time.perf_counter()
        yield rec
        rec["raw"] = time.perf_counter() - t0
        self._kernel()

    def scale(self) -> float:
        return REF_KERNEL_S / median(self.kernels)


def _span(tracer, name, run=None):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, run)


class Bench:
    """One workload at one seed: prepares graphs, runs and gates detect."""

    def __init__(self, sl, work: Workload, seed: int, tmp: Path):
        self.sl = sl
        self.work = work
        self.seed = seed
        self.tmp = tmp
        self.clock = Clock()

    def spec(self, i: int):
        w = self.work
        return self.sl.BenchSpec(N=w.N, k=w.k, kmax=w.kmax, mu_t=w.mu_t,
                                 mu_w=w.mu_w,
                                 seed=INSTANCE_STRIDE * self.seed + i)

    def prepare(self, i: int, tracer=None, run=""):
        """Make graph i ready to detect.  Returns (graph, truth, setup,
        facts, problems); the ``setup`` section covers the load or generate
        call and the first neighbor-union build, and nothing else."""
        sl = self.sl
        spec = self.spec(i)
        facts = {"instance_seed": spec.seed, "N": spec.N}
        problems = []
        if self.work.from_file:
            with _span(tracer, "bench.generate", f"{run}prepare"):
                pg = sl.generate(spec)
            path = self.tmp / f"planted-{spec.seed}.edges"
            sl.write_benchmark(pg, str(path),
                               str(self.tmp / f"planted-{spec.seed}.truth"))
            facts["input_file_bytes"] = path.stat().st_size
            with self.clock.section() as setup:
                with _span(tracer, "graph.load_edge_list", f"{run}setup"):
                    graph = sl.load_edge_list(str(path))
                union = graph.neighbor_union()
            if graph != pg.graph:
                problems.append(f"graph {spec.seed}: loaded edge list "
                                "differs from the generated graph")
        else:
            with self.clock.section() as setup:
                with _span(tracer, "bench.generate", f"{run}setup"):
                    pg = sl.generate(spec)
                graph = pg.graph
                union = graph.neighbor_union()
        entries = int(union.nbr.size)
        facts.update(edges=graph.edge_count, union_entries=entries,
                     union_bytes_computed=entries * UNION_ENTRY_BYTES)
        return graph, pg.truth, setup, facts, problems

    def detect(self, graph, threads, tracer=None, run=""):
        """Returns (result, section)."""
        cfg = self.sl.RunConfig(threads=threads, seed=DETECT_SEED)
        if tracer is None:
            with self.clock.section() as sec:
                res = self.sl.run(graph, cfg)
            return res, sec
        with tracer.installed(self.sl):
            with self.clock.section() as sec:
                with tracer.span("detector.run", run):
                    res = self.sl.run(graph, cfg)
        return res, sec

    def write(self, res, name, tracer=None, run=""):
        """Write the flat and per-level partitions as `synclouvain detect`
        does; returns (section, [(path, labels)])."""
        out = self.tmp / name
        out.mkdir()
        h = res.hierarchy
        items = [(out / "graph.flat", h.flat)] + [
            (out / f"graph.level{t}", lv) for t, lv in enumerate(h.levels)]
        with self.clock.section() as sec:
            for path, labels in items:
                with _span(tracer, "graph.write_partition", run):
                    self.sl.write_partition(labels, str(path))
        return sec, items

    def check(self, graph, res, ref, files=()):
        """Problems with one detect result; ``ref`` is the result it must
        equal bit for bit."""
        sl = self.sl
        problems = []
        h, r = res.hierarchy, ref.hierarchy
        if not (np.array_equal(h.flat, r.flat) and len(h.levels) == len(
                r.levels) and all(np.array_equal(a, b)
                                  for a, b in zip(h.levels, r.levels))):
            problems.append("partition differs from the reference run")
        q = sl.score(graph, sl.strengths(graph), h.flat)
        if q != res.final_score:
            problems.append(f"score(flat)={q!r} != final_score="
                            f"{res.final_score!r}")
        for path, labels in files:
            if not np.array_equal(sl.read_partition(str(path)), labels):
                problems.append(f"{path.name} does not read back equal")
        return problems


def _report_failure(where, exc_or_problems):
    if isinstance(exc_or_problems, Exception):
        traceback.print_exception(exc_or_problems, file=sys.stderr)
    else:
        for p in exc_or_problems:
            print(f"perfbench: {where}: {p}", file=sys.stderr)


def measure_end_to_end(b: Bench, seconds: float):
    """Untraced closed loop: each iteration sets up a new graph, detects
    at threads=1, 2 and 1 again, and writes the partitions.  A graph's
    threads=1 time is the mean of its two runs: the machine's noise in one
    detect is as large as the spread of work between graphs, and a second
    run halves it without another setup.  The threads=2 run is there for
    the determinism gate; its times are printed and saved but are not
    metrics, because on a shared two-vCPU host they move with the other
    tenants' use of the second core far more than with the program (the
    traced run reports them per layer).
    Graph 0 is also detected once before the clock starts, as warm-up and
    as the reference its timed runs must match.  Times are means over the
    run's graphs of wall time times ``Clock.scale()``; the wall times go to
    the result file beside them.  The graphs are different inputs, not
    repeats of one: their detect times spread by about 20% with their
    sweep counts, in lumps (a graph needs one level more or a few dozen
    sweeps more), and the middle graph of a dozen jumps between lumps from
    seed to seed, while the mean moves a quarter as much."""
    sl = b.sl
    graph, _, _, _, problems = b.prepare(0)
    ref, _ = b.detect(graph, 1)
    problems += b.check(graph, ref, ref)
    attempted, failed = 1, int(bool(problems))
    _report_failure("warm-up", problems)
    del graph
    samples = []
    inputs = []
    b.clock.kernels.clear()
    start = time.perf_counter()
    longest = 0.0
    i = 0
    while i == 0 or time.perf_counter() - start + longest <= seconds:
        t_iter = time.perf_counter()
        attempted += 3
        try:
            graph, truth, setup, facts, problems = b.prepare(i)
            inputs.append(facts)
            (r1, d1), (r2, d2), (r1b, d1b) = (b.detect(graph, t)
                                              for t in (1, 2, 1))
            write, files = b.write(r1, f"graph-{i}")
            problems += b.check(graph, r1, r2, files)
            problems += b.check(graph, r2, r1)
            problems += b.check(graph, r1b, r1)
            if i == 0:
                problems += b.check(graph, r1, ref)
            if problems:
                failed += 3
                _report_failure(f"graph {facts['instance_seed']}", problems)
            detect = (d1["raw"] + d1b["raw"]) / 2
            samples.append({
                "setup_raw_s": setup["raw"],
                "detect_raw_s": detect,
                "detect_t2_raw_s": d2["raw"],
                "write_raw_s": write["raw"],
                "total_raw_s": setup["raw"] + detect + write["raw"],
                "modularity": r1.final_score,
                "nmi": sl.nmi(r1.hierarchy.flat, truth),
            })
        except Exception as exc:  # a failed run is counted, not fatal
            failed += 3
            _report_failure("iteration", exc)
        finally:
            graph = r1 = r2 = r1b = None  # one graph in memory at a time
            shutil.rmtree(b.tmp, ignore_errors=True)
            b.tmp.mkdir()
        longest = max(longest, time.perf_counter() - t_iter)
        i += 1
    if not samples:
        raise RuntimeError("every detect run raised")
    col = {k: [s[k] for s in samples] for k in samples[0]}
    scale = b.clock.scale()
    metrics = {
        "setup_s": (mean(col["setup_raw_s"]) * scale, "s"),
        "detect_s": (mean(col["detect_raw_s"]) * scale, "s"),
        "total_s": (mean(col["total_raw_s"]) * scale, "s"),
        "modularity": (median(col["modularity"]), "Q"),
        "nmi": (median(col["nmi"]), "ratio"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {k: mean(col[k]) for k in col if k.endswith("_raw_s")}
    raw["speedup_t2_raw"] = median([t1 / t2 for t1, t2 in zip(
        col["detect_raw_s"], col["detect_t2_raw_s"])])
    print("raw wall means: " + json.dumps(raw))
    print(f"clock scale: {scale!r} from {len(b.clock.kernels)} kernels")
    return metrics, attempted, failed, {"inputs": inputs, "samples": samples,
                                        "raw_means": raw, "scale": scale,
                                        "kernels_s": b.clock.kernels}


def _layer_metrics(tr, k, facts, res1, res_u, walls):
    """Per-layer numbers of traced iteration k; times are raw seconds."""
    s1 = tr.summary(f"{k}:detect-t1")
    setup = tr.summary(f"{k}:setup")

    def total(summary, name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(summary, name):
        return summary.get(name, {}).get("calls", 0)

    sw1 = tr.sweeps_of(f"{k}:detect-t1")
    plan1 = sum(s.plan_s for s in sw1)
    plan2 = sum(s.plan_s for s in tr.sweeps_of(f"{k}:detect-t2"))
    commit1 = sum(s.commit_s for s in sw1)
    coins = sum(s.coin_accepted for s in sw1)
    applied = sum(s.applied for s in sw1)
    load_s = total(setup, "graph.load_edge_list")
    st1, stu = res1.stats, res_u.stats
    return {
        "graph.load_s": (load_s, "s"),
        "graph.load_mb_per_s": (
            facts.get("input_file_bytes", 0) / 1e6 / load_s if load_s else 0.0,
            "MB/s"),
        "bench.generate_s": (total(setup, "bench.generate") + total(
            tr.summary(f"{k}:prepare"), "bench.generate"), "s"),
        "graph.union_s": (total(setup, "graph.union")
                          + total(s1, "graph.union"), "s"),
        "graph.union_entries": (
            tr.union_entries.get(f"{k}:setup", 0)
            + tr.union_entries.get(f"{k}:detect-t1", 0), "count"),
        "graph.aggregate_s": (total(s1, "graph.aggregate"), "s"),
        "graph.strengths_s": (total(s1, "graph.strengths"), "s"),
        "graph.write_s": (total(tr.summary(f"{k}:write"),
                                "graph.write_partition"), "s"),
        "detector.maximal_plan_s": (plan1, "s"),
        "detector.plan_entries": (sum(s.plan_entries for s in sw1), "count"),
        "detector.plan_speedup_t2": (plan1 / plan2 if plan2 else 0.0,
                                     "ratio"),
        "detector.maximal_commit_s": (commit1, "s"),
        "detector.commit_share": (commit1 / walls["t1"]["raw"], "ratio"),
        "detector.sweeps": (len(sw1), "count"),
        "detector.idle_sweeps": (sum(s.applied == 0 for s in sw1), "count"),
        "detector.sweep_cap_hits": (
            sum("stopped after" in w for w in st1.warnings), "count"),
        "detector.candidates": (sum(s.candidates for s in sw1), "count"),
        "detector.coin_accepted": (coins, "count"),
        "detector.applied_moves": (applied, "count"),
        "detector.apply_ratio": (applied / coins if coins else 0.0, "ratio"),
        "detector.assign_s": (total(s1, "detector.find_assignment"), "s"),
        "detector.positive_s": (total(s1, "detector.positive_correction"),
                                "s"),
        "detector.positive_splits": (st1.accepted_splits, "count"),
        "detector.positive_unresolved": (st1.unresolved_negative, "count"),
        "quality.gain_switch_calls": (calls(s1, "quality.gain_switch"),
                                      "count"),
        "quality.gain_switch_s": (total(s1, "quality.gain_switch"), "s"),
        "quality.local_gains_calls": (calls(s1, "quality.local_gains"),
                                      "count"),
        "quality.local_gains_s": (total(s1, "quality.local_gains"), "s"),
        "forest.extract_s": (total(s1, "forest.extract_components"), "s"),
        "forest.reverse_s": (total(s1, "forest.reverse_assignment"), "s"),
        "detector.levels": (st1.levels, "count"),
        "detector.uncovered_s": (
            s1.get("detector.run", {}).get("self_s", 0.0), "s"),
        "detector.phase_gap_s": (
            stu.wall_seconds - sum(stu.phase_seconds.values()), "s"),
        "detector.run_t2_s": (walls["u2"]["raw"], "s"),
        "detector.speedup_t2": (walls["u1"]["raw"] / walls["u2"]["raw"],
                                "ratio"),
        "trace.overhead_frac": (
            walls["t1"]["raw"] / walls["u1"]["raw"] - 1.0, "ratio"),
    }


_COUNTS = ("detector.sweeps", "detector.idle_sweeps", "detector.candidates",
           "detector.coin_accepted", "detector.applied_moves",
           "detector.plan_entries", "quality.gain_switch_calls",
           "quality.local_gains_calls", "graph.union_entries",
           "detector.levels")


def measure_traced(b: Bench, seconds: float):
    """Traced closed loop on graph 0: traced setup, traced detect at
    threads=1, untraced detects at threads=1 (for the overhead) and 2 (for
    the speedup) next to it in alternating order, traced write, traced
    detect at threads=2.  Counts must repeat exactly across iterations."""
    from spans import Tracer

    graph, _, _, facts, problems = b.prepare(0)
    ref, _ = b.detect(graph, 1)
    problems += b.check(graph, ref, ref)
    attempted, failed = 1, int(bool(problems))
    _report_failure("warm-up", problems)
    del graph
    tr = Tracer()
    per_iter = []
    start = time.perf_counter()
    longest = 0.0
    k = 0
    while k == 0 or time.perf_counter() - start + longest <= seconds:
        t_iter = time.perf_counter()
        attempted += 4
        try:
            with tr.installed(b.sl):
                graph, _, _, facts, problems = b.prepare(0, tr, f"{k}:")
            walls = {}
            for which in (("t1", "u1", "u2") if k % 2 == 0
                          else ("u2", "u1", "t1")):
                if which == "t1":
                    res1, walls["t1"] = b.detect(graph, 1, tr,
                                                 f"{k}:detect-t1")
                elif which == "u1":
                    res_u, walls["u1"] = b.detect(graph, 1)
                else:
                    res_u2, walls["u2"] = b.detect(graph, 2)
            with tr.installed(b.sl):
                _, files = b.write(res1, f"graph-{k}", tr, f"{k}:write")
            res2, walls["t2"] = b.detect(graph, 2, tr, f"{k}:detect-t2")
            problems += b.check(graph, res1, ref, files)
            problems += b.check(graph, res_u, ref)
            problems += b.check(graph, res_u2, ref)
            problems += b.check(graph, res2, ref)
            sw1 = tr.sweeps_of(f"{k}:detect-t1")
            if "synclouvain.detector.maximal_correction" not in tr.missing:
                if len(sw1) != sum(res1.stats.sweeps_per_level) or sum(
                        s.applied for s in sw1) != res1.stats.accepted_moves:
                    problems.append("traced sweeps disagree with RunStats")
            m = _layer_metrics(tr, k, facts, res1, res_u, walls)
            if per_iter and any(m[c] != per_iter[0][c] for c in _COUNTS):
                problems.append("per-layer counts changed between "
                                "iterations on the same graph")
            if problems:
                failed += 4
                _report_failure(f"traced iteration {k}", problems)
            per_iter.append(m)
        except Exception as exc:  # a failed run is counted, not fatal
            failed += 4
            _report_failure(f"traced iteration {k}", exc)
        finally:
            shutil.rmtree(b.tmp, ignore_errors=True)
            b.tmp.mkdir()
        longest = max(longest, time.perf_counter() - t_iter)
        k += 1
    if not per_iter:
        raise RuntimeError("every traced iteration raised")
    metrics = {name: (value if unit == "count"
                      else median([m[name][0] for m in per_iter]), unit)
               for name, (value, unit) in per_iter[0].items()}
    if tr.missing:
        print("perfbench: missing entry points (their metrics read 0): "
              + ", ".join(tr.missing))
    return metrics, attempted, failed, {"inputs": [facts], **tr.dump()}


def bench(sl, name: str, seed: int, seconds: float, trace: int,
          work: Workload | None = None) -> dict:
    work = work or WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        b = Bench(sl, work, seed, tmp)
        measure = measure_traced if trace else measure_end_to_end
        metrics, attempted, failed, detail = measure(b, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    facts = {"workload": name, "seed": seed, "trace": trace,
             "params": dataclasses.asdict(work), "detect_seed": DETECT_SEED,
             "machine": machine_facts()}
    with open(WORK / f"{name}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"facts": facts, "metrics": metrics, **detail}, handle)
    print("facts: " + json.dumps({**facts, "inputs": detail["inputs"]}))
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value!r} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}


def smoke(sl) -> int:
    """Run a tiny graph through every workload path, traced and untraced,
    and check that every metric in BENCHMARK.json is emitted with its
    unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for name, work in WORKLOADS.items():
        for trace in (0, 1):
            out = bench(sl, f"smoke-{name}", 1, 0.5, trace,
                        dataclasses.replace(work, N=SMOKE_N))
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want[trace]:
                errors.append(f"{name} trace={trace}: metrics {got} "
                              f"!= {want[trace]}")
            if not out["correct"]:
                errors.append(f"{name} trace={trace}: correctness gate")
    for e in errors:
        print(f"perfbench smoke: {e}", file=sys.stderr)
    print("smoke " + ("failed" if errors else "ok"))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs through every workload path")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    sl = import_package()
    if args.smoke:
        return smoke(sl)
    result = bench(sl, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
