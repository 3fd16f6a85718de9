import numpy as np
import pytest

from synclouvain.bench import BenchSpec, generate
from synclouvain.detector import RunConfig
from synclouvain.perf import (
    DeterminismError,
    RunRecord,
    SpeedupCurve,
    amdahl,
    curve_from_records,
    emit_plot_data,
    measure,
    write_csv,
)

CSV_HEADER = "threads,repeat,wall_seconds,score,levels,seed,p"


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


def test_run_record_validation():
    RunRecord(1, 0, 0.5, 0.1, 2, 0, 0.5)
    with pytest.raises(ValueError):
        RunRecord(0, 0, 0.5, 0.1, 2, 0, 0.5)
    with pytest.raises(ValueError):
        RunRecord(1, 0, 0.0, 0.1, 2, 0, 0.5)


def test_measure_single_thread_baseline(tmp_path):
    g = small_graph()
    path = tmp_path / "runs.csv"
    curve = measure(g, threads=[1], repeats=2, csv_path=path)
    assert curve.points == [(1, 1.0)]
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_measure_requires_baseline_thread_count():
    with pytest.raises(ValueError):
        measure(small_graph(), threads=[2, 4], repeats=1)


def test_measure_multi_thread_counts_records():
    g = small_graph()
    curve = measure(g, threads=[1, 2], repeats=2,
                    config=RunConfig(seed=3, accept_prob=1.0))
    assert [t for t, _ in curve.points] == [1, 2]
    assert curve.points[0][1] == 1.0
    assert all(s > 0 for _, s in curve.points)
    assert len(curve.records) == 4
    assert {r.threads for r in curve.records} == {1, 2}
    assert all(r.seed == 3 and r.p == 1.0 for r in curve.records)


def test_measure_detects_partition_mismatch(monkeypatch):
    import synclouvain.perf as perf

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
        measure(g, threads=[1], repeats=2)


def test_measure_builds_union_before_timed_runs(monkeypatch):
    # the lazy neighbor-union build is setup, not part of the first run
    import synclouvain.perf as perf

    g = small_graph()
    real_run = perf.run
    seen = []

    def checked(graph, config):
        seen.append(graph._union is not None)
        return real_run(graph, config)

    monkeypatch.setattr(perf, "run", checked)
    measure(g, threads=[1, 2], repeats=2)
    assert seen == [True] * 4


def test_csv_round_trip(tmp_path):
    recs = [
        RunRecord(1, 0, 1.25, 0.4031, 3, 9, 0.5),
        RunRecord(1, 1, 1.75, 0.4031, 3, 9, 0.5),
        RunRecord(4, 0, 0.5, 0.1 + 0.2, 3, 9, 0.5),
    ]
    path = tmp_path / "r.csv"
    write_csv(recs, path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert ",".join(rows[0]) == CSV_HEADER
    assert len(rows) == 1 + len(recs)
    for cells, r in zip(rows[1:], recs):
        assert [int(cells[k]) for k in (0, 1, 4, 5)] == [
            r.threads, r.repeat, r.levels, r.seed]
        # floats are written so that they read back to the same value
        assert [float(cells[k]) for k in (2, 3, 6)] == [
            r.wall_seconds, r.score, r.p]
    curve = curve_from_records(recs)
    assert curve.points == [(1, 1.0), (4, 3.0)]  # mean wall 1.5 vs 0.5


def test_emit_plot_data(tmp_path):
    recs = [RunRecord(1, 0, 10.0, 0.5, 2, 0, 0.5),
            RunRecord(12, 0, 10.0 / 7.0, 0.5, 2, 0, 0.5)]
    curve = curve_from_records(recs)
    path = tmp_path / "plot.tsv"
    text = emit_plot_data(curve, 0.95, path)
    assert path.read_text() == text
    lines = text.splitlines()
    assert lines[0] == "threads\tempirical\tamdahl"
    first = lines[1].split("\t")
    assert first == ["1", "1.000000", "1.000000"]
    last = lines[2].split("\t")
    assert last[0] == "12" and float(last[2]) == pytest.approx(7.7419, abs=1e-3)


def test_emit_plot_data_flags_superlinear(tmp_path):
    recs = [RunRecord(1, 0, 10.0, 0.5, 2, 0, 0.5),
            RunRecord(2, 0, 2.0, 0.5, 2, 0, 0.5)]  # speedup 5 > 2
    curve = curve_from_records(recs)
    with pytest.warns(UserWarning, match="superlinear"):
        emit_plot_data(curve, 0.95, tmp_path / "p.tsv")


def test_phase_report(tmp_path):
    g = small_graph()
    path = tmp_path / "phases.tsv"
    measure(g, threads=[1], repeats=1, phase_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "threads\tphase\tmean_seconds"
    phases = {ln.split("\t")[1] for ln in lines[1:]}
    assert phases == {"assign", "components", "positive", "maximal",
                      "aggregate"}
