"""CLI subcommands: outputs, formats, determinism, exit codes."""

import json
import time

import numpy as np
import pytest

from perronnet import demo_network_path, load_multilayer
from perronnet import cli, recommend
from perronnet.cli import main
from perronnet.errors import ConvergenceError


DEMO = str(demo_network_path())


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_table(capsys):
    code, out, err = run_cli(capsys, "spectrum", DEMO, "--directed")
    assert code == 0
    assert "rho" in out and "2.3471" in out
    assert "1.0248" in out


def test_spectrum_json_six_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "spectrum", DEMO, "--directed",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["rho"] == pytest.approx(2.34711, abs=1e-5)
    assert doc["report"]["kappa"] == pytest.approx(1.02479, abs=1e-5)


def test_json_and_csv_emit_identical_values(capsys):
    _, js, _ = run_cli(capsys, "spectrum", DEMO, "--directed",
                       "--format", "json")
    _, cs, _ = run_cli(capsys, "spectrum", DEMO, "--directed",
                       "--format", "csv")
    doc = json.loads(js)["report"]
    csv_vals = dict(line.split(",", 1) for line in cs.strip().splitlines()[1:])
    for key, val in doc.items():
        assert float(csv_vals[key]) == pytest.approx(float(val), rel=1e-12)


def test_multiplex_spectrum_reports_structured_kappas(capsys, tmp_path):
    p = tmp_path / "m.edges"
    p.write_text("3 2\n1 1 2 1.0\n1 2 3 1.0\n2 1 3 1.0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", str(p), "--gamma", "1.0",
                           "--format", "json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["kappa_S"] <= rep["kappa_D"] <= rep["kappa"] * (1 + 1e-9)


def test_rank_add_reproduces_demo_table(capsys):
    code, out, _ = run_cli(capsys, "rank", "add", DEMO, "--directed",
                           "--top-k", "4", "--recompute", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["edge"] for r in rows] == [
        "2-4-3-2", "4-3-2-3", "2-3-3-3", "3-4-2-2"]
    assert [r["score"] for r in rows] == pytest.approx(
        [0.2241, 0.1725, 0.1717, 0.1694], abs=5e-5)
    assert [r["rho_new"] for r in rows] == pytest.approx(
        [2.4903, 2.4592, 2.4593, 2.4627], abs=1e-3)


def test_rank_remove_reports_connectivity(capsys):
    code, out, _ = run_cli(capsys, "rank", "remove", DEMO, "--directed",
                           "--top-k", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 3
    assert all(r["connected_after"] is True for r in rows)
    scores = [r["score"] for r in rows]
    assert scores == sorted(scores)


def test_communicability_values(capsys):
    code, out, _ = run_cli(capsys, "communicability", DEMO, "--directed",
                           "--format", "json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["lower"] <= rep["c_pn"] <= rep["upper_basic"]
    assert len(json.loads(out)["rows"]) == 4  # one per node, N=4


def test_communicability_two_cycle(capsys, tmp_path):
    p = tmp_path / "c.edges"
    p.write_text("2 1\n1 1 2 1.0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "communicability", str(p), "--gamma", "0",
                           "--format", "json")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["c_pn"] == pytest.approx(2 * (np.e - 1), rel=1e-5)


def test_sensitivity_summary(capsys):
    code, out, _ = run_cli(capsys, "sensitivity", DEMO, "--directed",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["worst_case_shift_at_epsilon"] == pytest.approx(
        0.3074, abs=1e-3)
    directions = {r["direction"] for r in doc["rows"]}
    assert directions == {"increase", "decrease"}


def test_experiment_auto_and_determinism(capsys):
    args = ("experiment", DEMO, "--directed", "--auto", "--top-k", "3",
            "--mode", "increase", "--format", "csv")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2  # byte-identical
    header = out1.strip().splitlines()[out1.strip().splitlines().index(
        "edge,score,rho_new,random_edge,random_rho_new,note")]
    assert header


def test_experiment_edges_file(capsys, tmp_path):
    ef = tmp_path / "edges.txt"
    ef.write_text("# rows\n2 4 3 2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "experiment", DEMO, "--directed",
                           "--edges-file", str(ef), "--mode", "increase",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["edge"] == "2-4-3-2"
    assert rows[0]["rho_new"] == pytest.approx(2.4903, abs=1e-3)


def test_experiment_no_mirror_flag(capsys, tmp_path):
    ef = tmp_path / "edges.txt"
    ef.write_text("1 4 1 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "experiment", DEMO, "--directed",
                           "--edges-file", str(ef), "--mode", "decrease",
                           "--no-mirror", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["rho_new"] == pytest.approx(
        2.3397, abs=1e-3)


def test_convert_roundtrip(capsys, tmp_path):
    src = tmp_path / "m.edges"
    src.write_text("3 2\n1 1 2 1.5\n2 2 3 0.5\n", encoding="utf-8")
    out_path = tmp_path / "general.edges"
    code, _, _ = run_cli(capsys, "convert", str(src), "--gamma", "0.8",
                         "-o", str(out_path))
    assert code == 0
    from perronnet import assemble_dense, load_multiplex
    general = load_multilayer(out_path, directed=False)
    original = load_multiplex(src, gamma=0.8, directed=False)
    assert np.allclose(assemble_dense(general), assemble_dense(original))


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "no_such_file.edges")
    assert code == 1
    assert "not found" in err


def test_parse_error_is_input_error(capsys, tmp_path):
    p = tmp_path / "bad.edges"
    p.write_text("2 1\n1 1 5 1.0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "spectrum", str(p))
    assert code == 1
    assert "out of range" in err


def test_infeasible_request_exit_code(capsys, tmp_path):
    p = tmp_path / "cycle.edges"
    p.write_text("2 1\n1 1 2 1.0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "rank", "remove", str(p), "--gamma", "0")
    assert code == 3
    assert "connected" in err


def test_numerical_failure_exit_code(capsys, monkeypatch):
    def exploding(op, tol=1e-10, max_iter=100000):
        raise ConvergenceError("no convergence", iterations=1,
                               residuals=(1.0, 1.0))
    monkeypatch.setattr(cli, "perron", exploding)
    code, _, err = run_cli(capsys, "spectrum", DEMO, "--directed")
    assert code == 2
    assert "numerical failure" in err


def test_disconnected_input_warns_but_proceeds(capsys, tmp_path):
    p = tmp_path / "disc.edges"
    p.write_text("2 2\n1 1 2 1.0\n2 1 2 1.0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "spectrum", str(p), "--gamma", "0")
    assert code == 0
    assert "not strongly connected" in err
    assert "rho" in out


def test_data_dir_resolution(capsys, tmp_path, monkeypatch):
    p = tmp_path / "indir.edges"
    p.write_text("2 1\n1 1 2 1.0\n", encoding="utf-8")
    monkeypatch.setenv("PERRON_DATA_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "spectrum", "indir.edges", "--gamma", "0")
    assert code == 0
    assert "1.0000" in out


def test_format_sniffing(capsys, tmp_path):
    mp = tmp_path / "a.edges"
    mp.write_text("2 1\n1 1 2 1.0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", str(mp), "--gamma", "0",
                           "--format", "json")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "spectrum", str(DEMO), "--directed",
                             "--input-format", "multilayer", "--format", "json")
    assert code2 == 0
    assert json.loads(out2)["report"]["rho"] == pytest.approx(2.34711, abs=1e-4)


def test_structured_rank_add_on_multiplex(capsys, tmp_path):
    p = tmp_path / "m.edges"
    p.write_text("4 2\n1 1 2 1.0\n1 2 3 1.0\n1 3 4 1.0\n2 1 4 1.0\n",
                 encoding="utf-8")
    code, out, _ = run_cli(capsys, "rank", "add", str(p), "--structured",
                           "--top-k", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    from perronnet import load_multiplex, EdgeKey
    net = load_multiplex(p, gamma=1.0)
    for r in rows:
        i, j, k, l = (int(v) for v in r["edge"].split("-"))
        assert net.weight(EdgeKey(i, j, k, l)) > 0


@pytest.mark.parametrize("args", [
    ("spectrum", "INF_WEIGHT"),
    ("spectrum", DEMO, "--directed", "--gamma", "nan"),
    ("spectrum", DEMO, "--directed", "--gamma", "inf"),
    ("spectrum", DEMO, "--directed", "--tol", "nan"),
    ("spectrum", DEMO, "--directed", "--tol", "inf"),
    ("sensitivity", DEMO, "--directed", "--epsilon", "nan"),
    ("experiment", DEMO, "--directed", "--auto", "--epsilon", "inf"),
])
def test_non_finite_input_exits_1_at_once(capsys, tmp_path, args):
    p = tmp_path / "inf.edges"
    p.write_text("2 1\n1 1 2 inf\n", encoding="utf-8")
    args = [str(p) if a == "INF_WEIGHT" else a for a in args]
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *args)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert "finite" in err


def test_experiment_solves_the_base_network_once(capsys, monkeypatch):
    cold = []

    def counting(solve):
        def wrapper(op, *args, **kwargs):
            if kwargs.get("x0") is None:
                cold.append(op)
            return solve(op, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "perron", counting(cli.perron))
    monkeypatch.setattr(recommend, "perron", counting(recommend.perron))
    code, _, _ = run_cli(capsys, "experiment", DEMO, "--directed", "--auto",
                         "--mode", "remove", "--top-k", "3")
    assert code == 0
    assert len(cold) == 1


def test_bad_flag_values_rejected(capsys):
    code, _, err = run_cli(capsys, "spectrum", DEMO, "--gamma", "-1")
    assert code == 1
    code, _, err = run_cli(capsys, "spectrum", DEMO, "--epsilon", "0")
    assert code == 1
    code, _, err = run_cli(capsys, "spectrum", DEMO, "--top-k", "0")
    assert code == 1


def test_experiment_flags_rows_whose_resolve_does_not_converge(capsys,
                                                               monkeypatch):
    def failing_warm(op, *args, x0=None, **kwargs):
        if x0 is not None:
            raise ConvergenceError("no convergence after 7 iterations",
                                   iterations=7, residuals=(1.0,))
        return cli.perron(op, *args, **kwargs)

    monkeypatch.setattr(recommend, "perron", failing_warm)
    code, out, _ = run_cli(capsys, "experiment", DEMO, "--directed", "--auto",
                           "--mode", "remove", "--top-k", "2",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["rho_new"] is None and row["random_rho_new"] is None
        assert row["note"] == "no convergence after 7 iterations"
