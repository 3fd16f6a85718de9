import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from synclouvain import cli
from synclouvain.cli import main
from synclouvain.forest import AssignmentForest, subtrees
from synclouvain.graph import read_partition

TRIANGLES = """0 1 1.0
1 2 1.0
2 0 1.0
3 4 1.0
4 5 1.0
5 3 1.0
"""


@pytest.fixture()
def tri_file(tmp_path):
    p = tmp_path / "tri.edges"
    p.write_text(TRIANGLES)
    return p


def test_detect_two_triangles(tri_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["detect", str(tri_file), "--out-dir", str(out), "--seed", "7"])
    assert rc == 0
    flat = read_partition(out / "tri.flat")
    np.testing.assert_array_equal(flat, [0, 0, 0, 1, 1, 1])
    assert (out / "tri.level0").exists() and (out / "tri.level1").exists()
    summary = capsys.readouterr().out
    assert "score=0.5" in summary and "levels=2" in summary


def test_detect_reruns_byte_identical(tri_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["detect", str(tri_file), "--out-dir", str(out),
                   "--threads", "4", "--seed", "7"])
        assert rc == 0
    for name in ("tri.flat", "tri.level0", "tri.level1"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_detect_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.edges"
    rc = main(["detect", str(missing)])
    assert rc == 2
    assert "nope.edges" in capsys.readouterr().err


def test_module_run_reaches_main(tmp_path):
    # ``python -m synclouvain.cli`` runs the same ``main`` as the script
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "synclouvain.cli", "detect",
         str(tmp_path / "nope.edges")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "nope.edges" in proc.stderr


def test_detect_bad_line(tmp_path, capsys):
    p = tmp_path / "bad.edges"
    p.write_text("0 1 1.0\n0 1 -3.0\n")
    rc = main(["detect", str(p)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_detect_id_past_int64_exits_2(tmp_path, capsys):
    p = tmp_path / "big.edges"
    p.write_text("0 1 1.0\n99999999999999999999 1 1.0\n")
    rc = main(["detect", str(p), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_detect_empty_graph(tmp_path, capsys):
    p = tmp_path / "empty.edges"
    p.write_text("# nodes 0\n")
    rc = main(["detect", str(p)])
    assert rc == 2


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("weight", ["1e-170", "1e160", "1.0"])
def test_detect_debug_weight_scale_exits_0(tmp_path, capsys, threads, weight):
    # products of the raw weights would vanish or overflow at either scale
    flats = []
    for w in ("1.0", weight):
        p = tmp_path / "tri.edges"
        p.write_text(TRIANGLES.replace("1.0", w))
        out = tmp_path / f"o{w}"
        rc = main(["detect", str(p), "--out-dir", str(out), "--debug",
                   "--threads", threads])
        assert rc == 0
        assert "score=0.5 " in capsys.readouterr().out
        flats.append((out / "tri.flat").read_bytes())
    assert flats[1] == flats[0]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("debug", [[], ["--debug"]])
def test_detect_infinite_weight_total_exits_2(tmp_path, capsys, threads,
                                              debug):
    # finite weights whose sum overflows: m_w would be inf and Q nan
    p = tmp_path / "big.edges"
    p.write_text("0 1 1e308\n1 0 1e308\n2 3 1e308\n3 2 1e308\n")
    rc = main(["detect", str(p), "--out-dir", str(tmp_path / "o"),
               "--threads", threads] + debug)
    assert rc == 2
    assert "finite total" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_detect_invariant_error_exits_3(tri_file, tmp_path, capsys,
                                       monkeypatch):
    # a forest whose labels contradict its pointers stops the run, and main
    # maps the error to exit 3
    def contradicted(graph, config):
        forest = AssignmentForest(np.array([1, 0]), np.array([0, 1]), 2,
                                  np.ones(2, dtype=bool))
        return subtrees(forest, np.arange(2))

    monkeypatch.setattr(cli, "run", contradicted)
    rc = main(["detect", str(tri_file), "--out-dir", str(tmp_path / "o")])
    assert rc == 3
    assert "invariant breach: subtrees:" in capsys.readouterr().err


def test_detect_debug_floating_point_fault_exits_3(tri_file, tmp_path,
                                                   capsys, monkeypatch):
    # --debug makes a floating-point fault raise, and main maps it to exit 3
    def overflowing(graph, config):
        return np.float64(1e300) * 1e300

    monkeypatch.setattr(cli, "run", overflowing)
    rc = main(["detect", str(tri_file), "--out-dir", str(tmp_path / "o"),
               "--debug"])
    assert rc == 3
    assert ("invariant breach: floating-point fault: overflow"
            in capsys.readouterr().err)


def test_detect_env_threads(tri_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYNCLOUVAIN_THREADS", "2")
    rc = main(["detect", str(tri_file), "--out-dir", str(tmp_path / "o")])
    assert rc == 0
    assert "threads=2" in capsys.readouterr().out
    # explicit flag wins over the environment
    rc = main(["detect", str(tri_file), "--out-dir", str(tmp_path / "o2"),
               "--threads", "3"])
    assert rc == 0
    assert "threads=3" in capsys.readouterr().out


@pytest.mark.parametrize("sub", ["detect", "bench"])
def test_env_threads_zero_exits_2(tri_file, tmp_path, capsys, monkeypatch,
                                  sub):
    monkeypatch.setenv("SYNCLOUVAIN_THREADS", "0")
    args = {"detect": ["detect", str(tri_file)],
            "bench": ["bench", "--input", str(tri_file)]}[sub]
    rc = main(args + ["--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: thread counts")
    assert not (tmp_path / "o").exists()


def test_detect_node_count_overflowing_pair_key_exits_2(tmp_path, capsys):
    # 2**32 nodes make the int64 pair key row * n + nbr overflow
    p = tmp_path / "huge.edges"
    p.write_text("# nodes 4294967296\n0 1\n")
    rc = main(["detect", str(p), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "o").exists()


def test_generate_reproducible(tmp_path, capsys):
    args = ["generate", "--N", "300", "--k", "8", "--kmax", "16",
            "--mut", "0.2", "--muw", "0.1", "--cmin", "30", "--cmax", "60",
            "--seed", "1", "--out-dir"]
    rc = main(args + [str(tmp_path / "g1")])
    assert rc == 0
    rc = main(args + [str(tmp_path / "g2")])
    assert rc == 0
    name = "bench-N300-seed1"
    a = (tmp_path / "g1" / f"{name}.edges").read_bytes()
    b = (tmp_path / "g2" / f"{name}.edges").read_bytes()
    assert a == b
    assert b"mu_t=0.2" in a.splitlines()[0]
    ta = (tmp_path / "g1" / f"{name}.truth").read_bytes()
    assert ta == (tmp_path / "g2" / f"{name}.truth").read_bytes()


def test_generate_rejects_inverted_mixing(tmp_path, capsys):
    rc = main(["generate", "--N", "300", "--k", "8", "--kmax", "16",
               "--mut", "0.1", "--muw", "0.4", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "mu_w" in capsys.readouterr().err


def test_bench_csv_and_plot(tmp_path):
    out = tmp_path / "bench"
    rc = main(["bench", "--N", "200", "--k", "8", "--kmax", "16",
               "--mut", "0.2", "--muw", "0.1", "--cmin", "20", "--cmax", "50",
               "--seed", "5", "--threads", "1,2", "--repeats", "2",
               "--amdahl-p", "0.95", "--out-dir", str(out)])
    assert rc == 0
    csv_lines = (out / "runs.csv").read_text().splitlines()
    assert csv_lines[0] == "threads,repeat,wall_seconds,score,levels,seed,p"
    assert len(csv_lines) == 5  # 2 thread counts x 2 repeats
    plot = (out / "speedup.tsv").read_text().splitlines()
    assert plot[0] == "threads\tempirical\tamdahl"
    assert len(plot) == 3
    assert (out / "phases.tsv").exists()


def test_bench_from_edge_file(tri_file, tmp_path):
    out = tmp_path / "bench"
    rc = main(["bench", "--input", str(tri_file), "--threads", "1",
               "--repeats", "1", "--out-dir", str(out)])
    assert rc == 0
    assert (out / "runs.csv").exists()


def test_bench_determinism_breach_exits_3(tmp_path, monkeypatch, capsys):
    import synclouvain.perf as perf

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
    rc = main(["bench", "--N", "200", "--k", "8", "--kmax", "16",
               "--mut", "0.2", "--muw", "0.1", "--cmin", "20", "--cmax", "50",
               "--threads", "1", "--repeats", "2",
               "--out-dir", str(tmp_path / "b")])
    assert rc == 3
    assert "partition" in capsys.readouterr().err
    for name in ("runs.csv", "phases.tsv", "speedup.tsv"):
        assert not (tmp_path / "b" / name).exists()


@pytest.mark.parametrize("spec, missing", [
    (["--N", "200"], "--k, --kmax, --mut, --muw"),
    (["--N", "200", "--k", "8", "--kmax", "16", "--mut", "0.2"], "--muw")])
def test_bench_partial_generator_spec_exits_2(spec, missing, tmp_path,
                                              capsys, monkeypatch):
    def no_graph(spec):
        raise AssertionError("generated a graph from a partial spec")

    monkeypatch.setattr(cli, "generate", no_graph)
    rc = main(["bench", *spec, "--out-dir", str(tmp_path / "b")])
    assert rc == 2
    assert capsys.readouterr().err.rstrip().endswith(f"missing {missing}")
    assert not (tmp_path / "b").exists()


def test_bench_rejected_after_loading_leaves_no_out_dir(tmp_path, capsys):
    # a thread list without 1 and an input graph without nodes are both
    # rejected once the graph is at hand; neither leaves an empty --out-dir
    empty = tmp_path / "empty.edges"
    empty.write_text("# nodes 0\n")
    for source, msg in (
            (["--N", "300", "--k", "8", "--kmax", "16", "--mut", "0.2",
              "--muw", "0.1", "--cmin", "20", "--cmax", "50",
              "--threads", "2"], "threads list must include 1"),
            (["--input", str(empty)], "graph has no nodes")):
        rc = main(["bench", *source, "--out-dir", str(tmp_path / "d")])
        assert rc == 2
        assert msg in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("args", [
    ["bench", "--N", "200", "--k", "8", "--kmax", "16", "--mut", "0.2",
     "--muw", "0.1", "--amdahl-p", "1.5"],
    ["amdahl", "--p", "-0.1"],
    ["amdahl", "--p", "nan"]])
def test_parallel_fraction_outside_unit_interval_exits_2_at_parse(
        args, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(args + (["--out-dir", "o"] if args[0] == "bench" else []))
    assert exc.value.code == 2
    assert "parallel fraction must lie in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert not list(tmp_path.rglob("runs.csv"))


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_bench_repeats_below_one_exits_2_at_parse(repeats, tmp_path, capsys,
                                                  monkeypatch):
    def no_graph(spec):
        raise AssertionError("generated a graph before checking --repeats")

    monkeypatch.setattr(cli, "generate", no_graph)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--N", "300", "--k", "8", "--kmax", "16", "--mut",
              "0.2", "--muw", "0.1", "--cmin", "20", "--cmax", "50",
              "--repeats", repeats, "--out-dir", str(tmp_path / "r0")])
    assert exc.value.code == 2
    assert "repeats must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "r0").exists()


def test_amdahl_subcommand(capsys):
    rc = main(["amdahl", "--p", "0.95", "--threads", "1,12"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "threads\tamdahl"
    assert out[1].startswith("1\t1.000000")
    assert abs(float(out[2].split("\t")[1]) - 7.7419) < 1e-3


def test_readme_command_lines_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [ln.strip() for ln in block.replace("\\\n", " ").splitlines()]
    commands = [ln for ln in lines if ln.startswith("synclouvain ")]
    assert commands
    for line in commands:
        cli.build_parser().parse_args(shlex.split(line)[1:])
