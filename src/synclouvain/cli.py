"""Command-line front end: detect communities, generate benchmark graphs,
time runs across thread counts, and print the speedup model."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .bench import BenchSpec, generate, write_benchmark
from .detector import RunConfig, run
from .graph import load_edge_list, write_partition
from .perf import DeterminismError, amdahl, emit_plot_data, measure

ENV_THREADS = "SYNCLOUVAIN_THREADS"


def _thread_list(text):
    vals = [int(tok) for tok in text.split(",") if tok.strip()]
    if not vals or any(v < 1 for v in vals):
        raise argparse.ArgumentTypeError("thread counts must be >= 1")
    return vals


def _env_threads(flag_value, want_list):
    """Flag wins; environment applies only when the flag is absent."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(ENV_THREADS)
    if env:
        vals = _thread_list(env)
        return vals if want_list else vals[0]
    return [1] if want_list else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="synclouvain",
        description="community detection on directed weighted graphs")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_det = sub.add_parser("detect", help="partition an edge-list file")
    p_det.add_argument("input")
    p_det.add_argument("--out-dir", default=".")
    p_det.add_argument("--threads", type=int, default=None)
    p_det.add_argument("--seed", type=int, default=0)
    p_det.add_argument("--p", type=float, default=0.5,
                       help="move acceptance probability")
    p_det.add_argument("--debug", action="store_true",
                       help="run internal invariant checks every phase; "
                       "a floating-point fault exits 3")
    p_det.set_defaults(func=_cmd_detect)

    p_gen = sub.add_parser("generate", help="write a planted benchmark graph")
    for flag, typ in (("--N", int), ("--k", float), ("--kmax", int),
                      ("--mut", float), ("--muw", float)):
        p_gen.add_argument(flag, type=typ, required=True)
    p_gen.add_argument("--cmin", type=int, default=10)
    p_gen.add_argument("--cmax", type=int, default=100)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-dir", default=".")
    p_gen.add_argument("--name", default=None)
    p_gen.set_defaults(func=_cmd_generate)

    p_ben = sub.add_parser("bench", help="time runs across thread counts")
    p_ben.add_argument("--input", default=None,
                       help="edge-list file; omit to generate from spec flags")
    for flag, typ in (("--N", int), ("--k", float), ("--kmax", int),
                      ("--mut", float), ("--muw", float)):
        p_ben.add_argument(flag, type=typ, default=None)
    p_ben.add_argument("--cmin", type=int, default=10)
    p_ben.add_argument("--cmax", type=int, default=100)
    p_ben.add_argument("--seed", type=int, default=0)
    p_ben.add_argument("--p", type=float, default=0.5)
    p_ben.add_argument("--threads", type=_thread_list, default=None)
    p_ben.add_argument("--repeats", type=int, default=2)
    p_ben.add_argument("--amdahl-p", type=float, default=0.95)
    p_ben.add_argument("--out-dir", default=".")
    p_ben.set_defaults(func=_cmd_bench)

    p_amd = sub.add_parser("amdahl", help="print the model speedup table")
    p_amd.add_argument("--p", type=float, default=0.95)
    p_amd.add_argument("--threads", type=_thread_list,
                       default=[1, 2, 4, 8, 12])
    p_amd.set_defaults(func=_cmd_amdahl)
    return parser


def _cmd_detect(args):
    threads = _env_threads(args.threads, want_list=False)
    graph = load_edge_list(args.input)
    cfg = RunConfig(threads=threads, seed=args.seed, accept_prob=args.p,
                    debug_checks=args.debug)
    # under --debug a NaN or infinite value is a breach; underflow only
    # rounds a tiny product and stays silent
    faults = (dict(divide="raise", over="raise", invalid="raise")
              if args.debug else {})
    with np.errstate(**faults):
        res = run(graph, cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    write_partition(res.hierarchy.flat, out / f"{stem}.flat")
    for t, labels in enumerate(res.hierarchy.levels):
        write_partition(labels, out / f"{stem}.level{t}")
    n_comms = int(res.hierarchy.flat.max()) + 1
    print(f"score={res.final_score:.12g} levels={res.stats.levels} "
          f"communities={n_comms} threads={threads} "
          f"wall_seconds={res.stats.wall_seconds:.3f}")
    if res.stats.debug_failures:
        for msg in res.stats.debug_failures:
            print(f"invariant breach: {msg}", file=sys.stderr)
        return 3
    return 0


def _spec_from_args(args):
    return BenchSpec(N=args.N, k=args.k, kmax=args.kmax, mu_t=args.mut,
                     mu_w=args.muw, cmin=args.cmin, cmax=args.cmax,
                     seed=args.seed)


def _cmd_generate(args):
    spec = _spec_from_args(args)
    pg = generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = args.name or f"bench-N{spec.N}-seed{spec.seed}"
    graph_path = out / f"{name}.edges"
    truth_path = out / f"{name}.truth"
    write_benchmark(pg, graph_path, truth_path)
    print(graph_path)
    print(truth_path)
    return 0


def _cmd_bench(args):
    threads = _env_threads(args.threads, want_list=True)
    if args.input is not None:
        graph = load_edge_list(args.input)
    else:
        if args.N is None:
            raise ValueError("bench needs --input or the generator flags "
                             "--N/--k/--kmax/--mut/--muw")
        graph = generate(_spec_from_args(args)).graph
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = RunConfig(threads=1, seed=args.seed, accept_prob=args.p)
    curve = measure(graph, threads=threads, repeats=args.repeats,
                    config=cfg, csv_path=out / "runs.csv",
                    phase_path=out / "phases.tsv")
    emit_plot_data(curve, args.amdahl_p, out / "speedup.tsv")
    for t, s in curve.points:
        print(f"threads={t} speedup={s:.3f} "
              f"model={amdahl(args.amdahl_p, t):.3f}")
    return 0


def _cmd_amdahl(args):
    print("threads\tamdahl")
    for t in args.threads:
        print(f"{t}\t{amdahl(args.p, t):.6f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DeterminismError as exc:
        print(f"determinism breach: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"invariant breach: floating-point fault: {exc}",
              file=sys.stderr)
        return 3
    except (argparse.ArgumentTypeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
