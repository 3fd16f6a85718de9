import numpy as np
import pytest

from synclouvain.bench import BenchSpec, generate
from synclouvain.detector import RunConfig
import synclouvain.perf as perf
from synclouvain.perf import (
    CSV_FIELDS,
    DeterminismError,
    amdahl,
    emit_plot_data,
    measure,
)


def small_graph():
    with pytest.warns(UserWarning):
        spec = BenchSpec(N=200, k=8, kmax=16, mu_t=0.2, mu_w=0.2,
                         cmin=20, cmax=50, seed=5)
    return generate(spec).graph


def test_amdahl_frozen_values():
    assert amdahl(0.0, 1) == 1.0
    assert amdahl(0.0, 64) == 1.0
    assert amdahl(1.0, 8) == pytest.approx(8.0, abs=1e-12)
    assert amdahl(0.95, 12) == pytest.approx(7.7419, abs=1e-3)
    with pytest.raises(ValueError):
        amdahl(-0.1, 4)
    with pytest.raises(ValueError):
        amdahl(1.2, 4)
    with pytest.raises(ValueError):
        amdahl(0.5, 0)


def test_amdahl_monotone_and_limit():
    for p_fr in (0.2, 0.5, 0.9):
        vals = [amdahl(p_fr, n) for n in (1, 2, 4, 8, 1024)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert amdahl(0.5, 6) >= amdahl(0.3, 6)
    # convergence to the serial ceiling 1/(1-P)
    assert amdahl(0.1, 10**6) == pytest.approx(1 / 0.9, abs=1e-6)
    p_fr = 0.95
    gap = p_fr / (10**6 * (1 - p_fr) ** 2)  # first-order remainder bound
    assert abs(amdahl(p_fr, 10**6) - 20.0) <= gap * 1.01


def recording(monkeypatch):
    """Patch ``perf.run`` to keep each run's (threads, result)."""
    real_run = perf.run
    seen = []

    def recorded(graph, config):
        res = real_run(graph, config)
        seen.append((config.threads, res))
        return res

    monkeypatch.setattr(perf, "run", recorded)
    return seen


def test_measure_single_thread_baseline(tmp_path):
    g = small_graph()
    points = measure(g, threads=[1], repeats=2, out_dir=tmp_path)
    assert points == [(1, 1.0)]
    lines = (tmp_path / "runs.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 3


def test_measure_requires_baseline_thread_count():
    with pytest.raises(ValueError):
        measure(small_graph(), threads=[2, 4], repeats=1)
    with pytest.raises(ValueError):
        measure(small_graph(), threads=[1], repeats=0)


def test_measure_multi_thread_counts_records(monkeypatch):
    seen = recording(monkeypatch)
    g = small_graph()
    points = measure(g, threads=[2, 1, 2], repeats=2,
                     config=RunConfig(seed=3, accept_prob=1.0))
    assert [t for t, _ in seen] == [1, 1, 2, 2]
    wall = {t: float(np.mean([r.stats.wall_seconds for tt, r in seen
                              if tt == t])) for t in (1, 2)}
    assert points == [(1, 1.0), (2, wall[1] / wall[2])]


def test_measure_writes_no_file_without_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    measure(small_graph(), threads=[1], repeats=1)
    assert not list(tmp_path.iterdir())


def test_measure_detects_partition_mismatch(monkeypatch, tmp_path):
    g = small_graph()
    real_run = perf.run
    calls = {"k": 0}

    def flaky(graph, config):
        res = real_run(graph, config)
        calls["k"] += 1
        if calls["k"] == 2:
            res.hierarchy.flat = res.hierarchy.flat.copy()
            res.hierarchy.flat[0] = res.hierarchy.flat.max() + 1
        return res

    monkeypatch.setattr(perf, "run", flaky)
    with pytest.raises(DeterminismError):
        measure(g, threads=[1], repeats=2, out_dir=tmp_path)
    assert not list(tmp_path.iterdir())  # nothing written on a breach


def test_measure_builds_union_before_timed_runs(monkeypatch):
    # the lazy neighbor-union build is setup, not part of the first run
    g = small_graph()
    real_run = perf.run
    seen = []

    def checked(graph, config):
        seen.append(graph._union is not None)
        return real_run(graph, config)

    monkeypatch.setattr(perf, "run", checked)
    measure(g, threads=[1, 2], repeats=2)
    assert seen == [True] * 4


def test_csv_round_trip(tmp_path, monkeypatch):
    seen = recording(monkeypatch)
    cfg = RunConfig(seed=9, accept_prob=0.1 + 0.2)
    measure(small_graph(), threads=[1, 2], repeats=2, config=cfg,
            out_dir=tmp_path)
    rows = [line.split(",")
            for line in (tmp_path / "runs.csv").read_text().splitlines()]
    assert tuple(rows[0]) == CSV_FIELDS
    assert len(rows) == 1 + len(seen)
    for rep, (cells, (t, res)) in enumerate(zip(rows[1:], seen)):
        assert [int(cells[k]) for k in (0, 1, 4, 5)] == [
            t, rep % 2, res.stats.levels, 9]
        # floats are written so that they read back to the same value
        assert [float(cells[k]) for k in (2, 3, 6)] == [
            res.stats.wall_seconds, res.final_score, 0.1 + 0.2]


def test_emit_plot_data(tmp_path):
    path = tmp_path / "plot.tsv"
    text = emit_plot_data([(1, 1.0), (12, 7.0)], 0.95, path)
    assert path.read_text() == text
    lines = text.splitlines()
    assert lines[0] == "threads\tempirical\tamdahl"
    first = lines[1].split("\t")
    assert first == ["1", "1.000000", "1.000000"]
    last = lines[2].split("\t")
    assert last == ["12", "7.000000", last[2]]
    assert float(last[2]) == pytest.approx(7.7419, abs=1e-3)


def test_emit_plot_data_flags_superlinear(tmp_path):
    with pytest.warns(UserWarning, match="superlinear"):
        emit_plot_data([(1, 1.0), (2, 5.0)], 0.95, tmp_path / "p.tsv")


def test_phase_report(tmp_path):
    g = small_graph()
    measure(g, threads=[1], repeats=1, out_dir=tmp_path)
    lines = (tmp_path / "phases.tsv").read_text().splitlines()
    assert lines[0] == "threads\tphase\tmean_seconds"
    phases = {ln.split("\t")[1] for ln in lines[1:]}
    assert phases == {"assign", "components", "positive", "maximal",
                      "aggregate"}


def test_phase_report_means_the_runs_phase_seconds(tmp_path, monkeypatch):
    seen = recording(monkeypatch)
    measure(small_graph(), threads=[1, 2], repeats=2, out_dir=tmp_path)
    text = (tmp_path / "phases.tsv").read_text()
    rows = [ln.split("\t") for ln in text.splitlines()[1:]]
    assert [t for t, _ in seen] == [1, 1, 2, 2]
    assert len(rows) == 2 * 5
    for t, phase, mean in rows:
        runs = [r.stats.phase_seconds[phase] for tt, r in seen
                if tt == int(t)]
        assert mean == f"{sum(runs) / 2:.6f}"
