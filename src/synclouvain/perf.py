"""The thread-speedup study.  ``measure`` times the detector at each thread
count on one graph, checks that every run lands on the same partition, and
writes the per-run and per-phase tables; ``emit_plot_data`` sets the
measured speedup beside the serial-fraction model ``amdahl``."""

from __future__ import annotations

import csv
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from .detector import RunConfig, run

__all__ = ["CSV_FIELDS", "DeterminismError", "amdahl", "measure",
           "emit_plot_data"]

CSV_FIELDS = ("threads", "repeat", "wall_seconds", "score", "levels",
              "seed", "p")


class DeterminismError(RuntimeError):
    """Raised when repeated runs disagree on the partition."""


def amdahl(p_fraction: float, n_threads: int) -> float:
    """Predicted speedup 1 / ((1-P) + P/N) for parallel fraction P on N
    execution units."""
    if not 0.0 <= p_fraction <= 1.0:
        raise ValueError("parallel fraction must lie in [0, 1]")
    if n_threads < 1:
        raise ValueError("thread count must be >= 1")
    return 1.0 / ((1.0 - p_fraction) + p_fraction / n_threads)


def measure(graph, threads=(1,), repeats=2, config=None, out_dir=None):
    """Run the detector ``repeats`` times per thread count on one graph and
    return the speedup points ``[(threads, mean wall at 1 thread / mean
    wall), ...]`` in ascending thread order.

    Every run's ``flat`` and ``levels`` must equal the first run's bit for
    bit; otherwise ``DeterminismError`` is raised before anything is
    written.  Given ``out_dir``, it creates that directory once every run
    has passed and writes there ``runs.csv``, one row of ``CSV_FIELDS`` per
    run with every float written by ``repr`` so it reads back exactly, and
    ``phases.tsv``, each phase's mean seconds per thread count."""
    threads = sorted(set(int(t) for t in threads))
    if 1 not in threads:
        raise ValueError("threads list must include 1 for the baseline")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    base_cfg = config if config is not None else RunConfig()
    graph.neighbor_union()  # one-time setup, not charged to the first run
    runs = [(t, rep, run(graph, replace(base_cfg, threads=t)))
            for t in threads for rep in range(repeats)]
    ref = runs[0][2].hierarchy
    for t, rep, res in runs:
        h = res.hierarchy
        if len(h.levels) != len(ref.levels) or not all(
                np.array_equal(x, y) for x, y in
                zip([h.flat, *h.levels], [ref.flat, *ref.levels])):
            raise DeterminismError(
                f"partition changed at threads={t} repeat={rep}")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "runs.csv", "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(CSV_FIELDS)
            for t, rep, res in runs:
                writer.writerow([t, rep, repr(res.stats.wall_seconds),
                                 repr(res.final_score), res.stats.levels,
                                 base_cfg.seed, repr(base_cfg.accept_prob)])
        phase_sums = {t: Counter() for t in threads}
        for t, _, res in runs:
            phase_sums[t].update(res.stats.phase_seconds)
        with open(out / "phases.tsv", "w", encoding="utf-8") as f:
            f.write("threads\tphase\tmean_seconds\n")
            for t in threads:
                for k, v in phase_sums[t].items():
                    f.write(f"{t}\t{k}\t{v / repeats:.6f}\n")
    wall = {t: float(np.mean([res.stats.wall_seconds
                              for tt, _, res in runs if tt == t]))
            for t in threads}
    return [(t, wall[1] / wall[t]) for t in threads]


def emit_plot_data(points, p_fraction: float = 0.95, path=None) -> str:
    """Tab-separated overlay of the measured speedup ``points``, as
    ``measure`` returns them, and the model curve."""
    if not points:
        raise ValueError("empty speedup curve")
    lines = ["threads\tempirical\tamdahl"]
    for t, s in points:
        if s > t + 1e-9:
            warnings.warn(
                f"superlinear speedup {s:.3f} at threads={t}; timing noise "
                "or cache effects suspected", stacklevel=2)
        lines.append(f"{t}\t{s:.6f}\t{amdahl(p_fraction, t):.6f}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
