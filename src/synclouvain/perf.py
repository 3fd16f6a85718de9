"""Wall-clock measurement across thread counts, speedup curves, and the
serial-fraction speedup model for comparison plots."""

from __future__ import annotations

import csv
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .detector import RunConfig, run

CSV_FIELDS = ("threads", "repeat", "wall_seconds", "score", "levels",
              "seed", "p")


class DeterminismError(RuntimeError):
    """Raised when repeated runs disagree on the partition."""


@dataclass
class RunRecord:
    threads: int
    repeat: int
    wall_seconds: float
    score: float
    levels: int
    seed: int
    p: float

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not self.wall_seconds > 0:
            raise ValueError("wall_seconds must be positive")
        if self.repeat < 0:
            raise ValueError("repeat must be >= 0")


@dataclass
class SpeedupCurve:
    points: list  # (threads, baseline mean wall / mean wall), sorted
    records: list = field(default_factory=list)


def amdahl(p_fraction: float, n_threads: int) -> float:
    """Predicted speedup 1 / ((1-P) + P/N) for parallel fraction P on N
    execution units."""
    if not 0.0 <= p_fraction <= 1.0:
        raise ValueError("parallel fraction must lie in [0, 1]")
    if n_threads < 1:
        raise ValueError("thread count must be >= 1")
    return 1.0 / ((1.0 - p_fraction) + p_fraction / n_threads)


def curve_from_records(records) -> SpeedupCurve:
    if not records:
        raise ValueError("no records")
    by_threads = {}
    for rec in records:
        by_threads.setdefault(rec.threads, []).append(rec)
    if 1 not in by_threads:
        raise ValueError("records must include a threads=1 baseline")
    mean_wall = {t: float(np.mean([r.wall_seconds for r in rs]))
                 for t, rs in by_threads.items()}
    points = [(t, mean_wall[1] / mean_wall[t]) for t in sorted(by_threads)]
    return SpeedupCurve(points=points, records=list(records))


def measure(graph, threads=(1,), repeats=2, config=None, csv_path=None,
            phase_path=None) -> SpeedupCurve:
    """Run the detector ``repeats`` times per thread count on one graph,
    check that every run lands on the same partition bit for bit, and
    assemble the speedup curve from mean wall times."""
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
    records = []
    phase_sums = {t: Counter() for t in threads}
    for t, rep, res in runs:
        h = res.hierarchy
        if len(h.levels) != len(ref.levels) or not all(
                np.array_equal(x, y) for x, y in
                zip([h.flat, *h.levels], [ref.flat, *ref.levels])):
            raise DeterminismError(
                f"partition changed at threads={t} repeat={rep}")
        records.append(RunRecord(
            threads=t, repeat=rep, wall_seconds=res.stats.wall_seconds,
            score=res.final_score, levels=res.stats.levels,
            seed=base_cfg.seed, p=base_cfg.accept_prob))
        phase_sums[t].update(res.stats.phase_seconds)
    curve = curve_from_records(records)
    if csv_path is not None:
        write_csv(records, csv_path)
    if phase_path is not None:
        with open(phase_path, "w", encoding="utf-8") as handle:
            handle.write("threads\tphase\tmean_seconds\n")
            for t in threads:
                for k, v in phase_sums[t].items():
                    handle.write(f"{t}\t{k}\t{v / repeats:.6f}\n")
    return curve


def write_csv(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for r in records:
            writer.writerow([r.threads, r.repeat, repr(r.wall_seconds),
                             repr(r.score), r.levels, r.seed, repr(r.p)])


def emit_plot_data(curve: SpeedupCurve, p_fraction: float = 0.95,
                   path=None) -> str:
    """Tab-separated overlay of measured speedup and the model curve."""
    if not curve.points:
        raise ValueError("empty speedup curve")
    lines = ["threads\tempirical\tamdahl"]
    for t, s in curve.points:
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
