"""CLI subcommands: outputs, formats, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import perronnet
from perronnet import (EdgeKey, assemble_dense, demo_network_path,
                       load_multilayer, load_multiplex, perron,
                       supra_operator)
from perronnet import cli, recommend
from perronnet.cli import main
from perronnet.errors import ConvergenceError
from perronnet.model import apply_update

from conftest import (airlines_shaped, brute_insertion_ranking,
                      random_general_net, random_multiplex_net,
                      write_multiplex)


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


@pytest.mark.parametrize("line, message", [
    ("5 1 1 1", "node index out of range"),
    ("1 2 4 4", "layer index out of range"),
])
def test_experiment_edges_file_rejects_out_of_range_ids(capsys, tmp_path,
                                                        line, message):
    # node 5 of layer 1 must not pass as node 1 of layer 2
    ef = tmp_path / "edges.txt"
    ef.write_text(f"2 4 3 2\n# next\n{line}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "experiment", DEMO, "--directed",
                             "--edges-file", str(ef), "--mode", "increase")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {ef}:3: ") and message in err


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


def test_total_communicability_above_the_old_dense_size(capsys, tmp_path):
    # a ring in each of 4 layers with gamma = 1: every row of B sums to
    # 2 + 3 gamma = 5, so exp(B) 1 = e^5 1 and c_tn0 = NL (e^5 - 1), at
    # NL = 5004
    N, L = 1251, 4
    p = tmp_path / "rings.edges"
    p.write_text(f"{N} {L}\n" + "".join(f"{l} {i} {i % N + 1} 1.0\n"
                                        for l in range(1, L + 1)
                                        for i in range(1, N + 1)),
                 encoding="utf-8")
    code, out, err = run_cli(capsys, "communicability", str(p), "--total",
                             "--format", "json")
    assert (code, err) == (0, "")
    rep = json.loads(out)["report"]
    assert rep["c_tn0"] == pytest.approx(N * L * math.expm1(5), rel=1e-5)
    assert rep["c_tn0_over_kappa_cpn"] == pytest.approx(1.0, rel=1e-5)


def test_communicability_total_without_arcs_has_no_ratio(capsys, tmp_path):
    # rho = 0, so c_pn = 0 and c_tn0 / (kappa c_pn) is undefined
    p = tmp_path / "empty.edges"
    p.write_text("1 2\n", encoding="utf-8")
    outs = {}
    for fmt in ("table", "csv", "json"):
        code, outs[fmt], err = run_cli(capsys, "communicability", str(p),
                                       "--input-format", "multilayer",
                                       "--total", "--format", fmt)
        assert code == 0 and "not strongly connected" in err
    rep = json.loads(outs["json"])["report"]
    assert rep["c_tn0"] == 0 and rep["c_tn0_over_kappa_cpn"] is None
    assert "\nc_tn0_over_kappa_cpn,\n" in outs["csv"]
    assert "\nc_tn0_over_kappa_cpn  \n" in outs["table"]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("weight, args, key", [
    ("1000", (), "c_pn"),  # e^rho - 1 is past the float range
])
def test_overflow_is_a_numerical_failure(capsys, tmp_path, weight, args, key,
                                         fmt):
    p = tmp_path / "pair.edges"
    p.write_text(f"2 1\n1 1 2 {weight}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "communicability", str(p), *args,
                             "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"numerical failure: {key} is not finite (inf)\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_total_past_the_float_range_is_a_numerical_failure(capsys, tmp_path,
                                                           fmt):
    # a skewed directed pair, rho = sqrt(84720 * 5.8833) = 706.0: c_pn and
    # its bounds are below 1e307, 1'exp(B)1 = e^rho (1 + (a + b) / 2 rho)
    # is about 2.5e308
    p = tmp_path / "pair.edges"
    p.write_text("2 1\n1 1 2 84720\n1 2 1 5.8833\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "communicability", str(p), "--directed",
                             "--total", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "numerical failure: c_tn0 is not finite (inf)\n"


def test_total_below_the_float_range_is_printed(capsys, tmp_path):
    # 1'exp(B)1 - 2 = 2 (e^707 - 1), about 2.2e307, where the products of
    # exp(B) 1 overflow
    p = tmp_path / "pair.edges"
    p.write_text("2 1\n1 1 2 707\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "communicability", str(p), "--total",
                             "--format", "json")
    assert (code, err) == (0, "")
    want = float(f"{2 * math.expm1(707):.6g}")  # as json prints it
    assert json.loads(out)["report"]["c_tn0"] == want


def test_table_prints_values_from_1e16_at_six_significant_digits(capsys,
                                                                  tmp_path):
    # c_pn of this file is about 2.2e307, which '.4f' prints with 308 digits
    p = tmp_path / "pair.edges"
    p.write_text("2 1\n1 1 2 707\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "communicability", str(p))
    assert code == 0
    assert "\nc_pn         2.22448e+307\n" in out
    assert "\nlower        1.11224e+307\n" in out
    assert "\nphi          0.0000\n" in out
    fmt = cli._fmt_table_val
    assert [fmt(v) for v in (1e16, -1e16, 1.234567e20, 9999999999999998.0,
                             -9999999999999998.0, 0.5, 0.0, 3)] == [
        "1e+16", "-1e+16", "1.23457e+20", "9999999999999998.0000",
        "-9999999999999998.0000", "0.5000", "0.0000", "3"]


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


# node 1 is a source: no arc enters it, so no network of these arcs is
# strongly connected
SOURCE = "4 1\n1 1 1 2 1\n1 2 1 3 1\n1 3 1 4 1\n1 4 1 2 1\n1 3 1 2 0.5\n"


@pytest.mark.parametrize("args", [(), ("--recompute",)])
def test_removal_from_a_source_node_network_checks_the_base_once(
        capsys, tmp_path, monkeypatch, args):
    p = tmp_path / "source.edges"
    p.write_text(SOURCE, encoding="utf-8")
    checked, original = [], recommend.is_strongly_connected

    def counted(net):
        checked.append(net)
        return original(net)

    monkeypatch.setattr(recommend, "is_strongly_connected", counted)
    code, out, err = run_cli(capsys, "rank", "remove", str(p), "--directed",
                             *args)
    assert (code, out) == (3, "")
    assert err.endswith("\ninfeasible: no removal leaves the network "
                        "strongly connected\n")
    assert len(checked) <= 1


def test_numerical_failure_exit_code(capsys, monkeypatch):
    def exploding(op, tol=1e-10, max_iter=100000):
        raise ConvergenceError("no convergence", iterations=1,
                               residuals=(1.0, 1.0))
    monkeypatch.setattr(cli, "perron", exploding)
    code, _, err = run_cli(capsys, "spectrum", DEMO, "--directed")
    assert code == 2
    assert "numerical failure" in err


def test_undirected_spectrum_runs_lanczos(capsys, tmp_path, monkeypatch):
    # an even ring with uneven weights in each of two coupled layers: the
    # supra graph is bipartite, so -rho is an eigenvalue, and the power
    # iteration would hand the cold solve to ARPACK
    from perronnet import eigen

    def eigs(*args, **kwargs):
        raise AssertionError("ARPACK was called")

    lines = ["6 2"] + [f"{k} {i} {i % 6 + 1} {0.5 + 0.1 * (i + k)}"
                       for k in (1, 2) for i in range(1, 7)]
    p = tmp_path / "rings.edges"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    B = assemble_dense(load_multiplex(p, gamma=1.0))
    spectrum = np.linalg.eigvalsh(B)
    assert spectrum[0] == pytest.approx(-spectrum[-1], rel=1e-12)
    monkeypatch.setattr(eigen, "eigs", eigs)
    code, out, _ = run_cli(capsys, "spectrum", str(p), "--format", "json")
    assert code == 0
    assert json.loads(out)["report"]["rho"] == float(f"{spectrum[-1]:.6g}")


def test_disconnected_input_warns_but_proceeds(capsys, tmp_path):
    p = tmp_path / "disc.edges"
    p.write_text("2 2\n1 1 2 1.0\n2 1 2 1.0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "spectrum", str(p), "--gamma", "0")
    assert code == 0
    assert "not strongly connected" in err
    assert "rho" in out
    # layer 1 split, B strongly connected only through the coupling: an
    # undirected path across two layers, and a directed cycle 1 -> 2 -> 3
    # in layer 1 closed by the arc 3 -> 1 in layer 2 (with the 2-cycle
    # 1 <-> 2 in layer 1, so that rho > 0 without coupling too)
    split = {"path.edges": ("3 2\n1 1 2 1.0\n2 2 3 1.0\n", ()),
             "cycle.edges": ("3 2\n1 1 2 1.0\n1 2 1 1.0\n1 2 3 1.0\n"
                             "2 3 1 1.0\n", ("--directed",))}
    for name, (text, flags) in split.items():
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        for gamma, warns in (("1", False), ("0", True)):
            code, out, err = run_cli(capsys, "spectrum", str(p), *flags,
                                     "--gamma", gamma)
            assert code == 0 and "rho" in out, (name, gamma)
            assert ("not strongly connected" in err) is warns, (name, gamma)


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


def test_structured_rank_add_on_general_input_lists_inter_layer_arcs(capsys):
    # on general input every stored arc is an existing edge, inter-layer
    # ones too; only a multiplex keeps to its intra-layer edges
    code, out, err = run_cli(capsys, "rank", "add", DEMO, "--directed",
                             "--structured", "--format", "json")
    assert code == 0, err
    net = load_multilayer(DEMO, directed=True)
    edges = [EdgeKey(*(int(v) for v in r["edge"].split("-")))
             for r in json.loads(out)["rows"]]
    assert all(net.weight(e) > 0 for e in edges)
    assert any(e.k != e.l for e in edges)


def test_strengthening_skips_supra_self_loops(capsys, tmp_path):
    # a heavy stored self-loop on node 1 of layer 1, plus a 4-cycle
    p = tmp_path / "loop.edges"
    p.write_text("2 2\n1 1 1 1 5\n1 1 1 2 1\n1 2 2 2 1\n2 2 2 1 1\n"
                 "2 1 1 1 1\n", encoding="utf-8")
    net = load_multilayer(p, directed=True)
    t = perron(supra_operator(net))
    got = recommend.rank_insertions(t, net, 10, candidate_set="existing")
    want = brute_insertion_ranking(t.rho, t.x, t.y, net, 10, "existing")
    assert [(r.edge, r.score) for r in got] == [
        (e, pytest.approx(s, rel=1e-12)) for s, e in want]
    code, out, err = run_cli(capsys, "rank", "add", str(p), "--directed",
                             "--structured", "--format", "json")
    assert code == 0, err
    edges = [r["edge"].split("-") for r in json.loads(out)["rows"]]
    assert len(edges) == 4
    assert not any(i == j and k == l for i, j, k, l in edges)


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
    code, _, err = run_cli(capsys, "sensitivity", DEMO, "--epsilon", "0")
    assert (code, err) == (1, "error: --epsilon must be positive\n")
    code, _, err = run_cli(capsys, "sensitivity", DEMO, "--top-k", "0")
    assert (code, err) == (1, "error: --top-k must be >= 1\n")
    code, out, err = run_cli(capsys, "experiment", DEMO, "--directed",
                             "--auto", "--seed", "-1")
    assert (code, out, err) == (1, "", "error: --seed must be nonnegative\n")


def test_experiment_flags_rows_whose_resolve_does_not_converge(capsys,
                                                               monkeypatch):
    def failing_warm(op, *args, x0=None, **kwargs):
        if x0 is not None:
            raise ConvergenceError("no convergence after 7 iterations",
                                   iterations=7, residuals=(1.0,))
        return cli.perron(op, *args, **kwargs)

    monkeypatch.setattr(recommend, "perron", failing_warm)
    # the block pass accepts no row, so every row reaches the failing perron
    monkeypatch.setattr(recommend, "perron_block",
                        lambda op, updates, **kwargs: [None] * len(updates))
    code, out, _ = run_cli(capsys, "experiment", DEMO, "--directed", "--auto",
                           "--mode", "remove", "--top-k", "2",
                           "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row["rho_new"] is None and row["random_rho_new"] is None
        # the row's own error, then its failed baseline's
        assert row["note"] == (
            "no convergence after 7 iterations; random edge "
            f"{row['random_edge']}: no convergence after 7 iterations")


def test_experiment_on_a_directed_ring_flags_every_row_at_once(capsys,
                                                                 tmp_path):
    # removing any arc of a directed ring leaves a path, whose left and
    # right Perron vectors are orthogonal: no re-solve can succeed
    p = tmp_path / "ring.edges"
    p.write_text("5 1\n" + "".join(f"1 {i} {i % 5 + 1} 1.0\n"
                                    for i in range(1, 6)), encoding="utf-8")
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "experiment", str(p), "--directed",
                           "--auto", "--mode", "remove", "--format", "json")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 5
    for row in rows:
        assert row["rho_new"] is None and row["random_rho_new"] is None
        assert "orthogonal" in row["note"] and "reducible" in row["note"]


# node 4 of layer 1 is a sink: the base Perron vector x is zero there
SINK = ("4 2\n1 1 1 2 1\n1 2 1 3 1\n1 3 1 1 1\n1 3 1 4 1\n1 1 2 1 1\n"
        "2 1 1 1 1\n2 1 2 2 1\n2 2 2 1 1\n")


def test_resolves_start_cold_when_a_base_vector_has_a_zero(capsys, tmp_path):
    p = tmp_path / "sink.edges"
    p.write_text(SINK, encoding="utf-8")
    code, out, err = run_cli(capsys, "rank", "add", str(p), "--directed",
                             "--recompute", "--format", "json")
    assert code == 0, err
    assert all(r["rho_new"] > 0 for r in json.loads(out)["rows"])
    net = load_multilayer(p, directed=True)
    for mode in ("increase", "decrease", "remove"):
        code, out, err = run_cli(capsys, "experiment", str(p), "--directed",
                                 "--auto", "--mode", mode, "--format", "json")
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert rows and not any("start vector" in r["note"] for r in rows)
        if mode == "remove":  # removing baseline 1-1-2-1 leaves no root
            assert any(r["note"].startswith("random edge 1-1-2-1: ")
                       for r in rows)
        for r in rows:
            # a baseline without a root names its error after the row's own
            if r["random_edge"] and r["random_rho_new"] is None:
                assert f"random edge {r['random_edge']}: " in r["note"]
            if r["rho_new"] is None:
                assert r["note"]
                continue
            i, j, k, l = (int(v) for v in r["edge"].split("-"))
            update = recommend._edits(net, EdgeKey(i, j, k, l), mode, 0.3,
                                      mirror=True)
            cold = perron(supra_operator(apply_update(net, update)))
            assert r["rho_new"] == pytest.approx(cold.rho, rel=1e-5)


def test_resolved_rows_do_not_depend_on_how_many_are_asked_for(capsys,
                                                               tmp_path):
    _, B = random_general_net(31, N=6, L=3)
    p = tmp_path / "general.edges"
    p.write_text("6 3\n" + "".join(
        f"{a // 6 + 1} {a % 6 + 1} {b // 6 + 1} {b % 6 + 1} {float(B[a, b])!r}\n"
        for a, b in zip(*np.nonzero(B))), encoding="utf-8")
    firsts = []
    for k in ("3", "6"):
        code, out, _ = run_cli(capsys, "rank", "remove", str(p), "--directed",
                               "--recompute", "--top-k", k, "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == int(k) and all(r["rho_new"] for r in rows)
        firsts.append(rows[:3])
    assert firsts[0] == firsts[1]


UNDECODABLE = b"3 1\n1 1 \xff 1.0\n1 2 3 1.0\n"


def test_undecodable_input_while_sniffing_is_input_error(capsys, tmp_path,
                                                         monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("the format sniffer should have failed first")

    monkeypatch.setattr(cli, "load_multiplex", not_reached)
    monkeypatch.setattr(cli, "load_multilayer", not_reached)
    p = tmp_path / "bad.edges"
    p.write_bytes(UNDECODABLE)
    code, out, err = run_cli(capsys, "spectrum", str(p))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {p}: not UTF-8 text")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["multiplex", "multilayer"])
def test_undecodable_input_while_loading_is_input_error(capsys, tmp_path,
                                                        fmt):
    p = tmp_path / "bad.edges"
    p.write_bytes(UNDECODABLE)
    code, out, err = run_cli(capsys, "spectrum", str(p),
                             "--input-format", fmt)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {p}: not UTF-8 text")
    assert err.count("\n") == 1


def test_undecodable_input_to_convert_is_input_error(capsys, tmp_path):
    p = tmp_path / "bad.edges"
    p.write_bytes(b"3 2\n1 1 2 1.0\n1 2 3 1.0\xff\n")
    code, out, err = run_cli(capsys, "convert", str(p),
                             "--input-format", "multiplex")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {p}: not UTF-8 text")
    assert err.count("\n") == 1


def test_undecodable_edges_file_is_input_error(capsys, tmp_path):
    ef = tmp_path / "edges.txt"
    ef.write_bytes(b"2 4 3 2\n1 \xff 1 1\n")
    code, out, err = run_cli(capsys, "experiment", DEMO, "--directed",
                             "--edges-file", str(ef))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {ef}: not UTF-8 text")
    assert err.count("\n") == 1


@pytest.mark.parametrize("pad", [10, 100000])
@pytest.mark.parametrize("fmt", [(), ("--input-format", "multiplex")],
                         ids=["sniffed", "given"])
def test_a_fault_before_undecodable_bytes_comes_first(capsys, tmp_path, pad,
                                                      fmt):
    # at pad 10 the byte shares a decoder chunk with line 2; with line 2
    # clean the error gives the byte's offset in the file
    p = tmp_path / "bad.edges"
    tail = b"#" * pad + b"\n1 2 \xff 1.0\n"
    p.write_bytes(b"3 1\n1 1 9 1.0\n" + tail)
    assert run_cli(capsys, "spectrum", str(p), *fmt) == (
        1, "", f"error: {p}:2: node id 9 out of range 1..3\n")
    p.write_bytes(b"3 1\n1 1 2 1.0\n" + tail)
    assert run_cli(capsys, "spectrum", str(p), *fmt) == (
        1, "", f"error: {p}: not UTF-8 text ('utf-8' codec can't decode byte "
               f"0xff in position {pad + 19}: invalid start byte)\n")


def test_the_format_sniffer_names_a_file_it_cannot_classify(capsys,
                                                            tmp_path):
    p = tmp_path / "net.edges"
    p.write_text("3 1\n# c\n1 2 1.0\n", encoding="utf-8")
    assert run_cli(capsys, "spectrum", str(p)) == (
        1, "", f"error: {p}:3: cannot infer input format from 3-column "
               "line\n")
    p.write_text("3 1\n# no edges\n", encoding="utf-8")
    assert run_cli(capsys, "spectrum", str(p)) == (
        1, "", f"error: {p}: file has no edge lines; pass --input-format "
               "explicitly\n")


def test_convert_refuses_a_general_file(capsys):
    for fmt in ((), ("--input-format", "multilayer")):
        assert run_cli(capsys, "convert", DEMO, *fmt) == (
            1, "", f"error: {DEMO}: convert expects a multiplex input file\n")


def test_experiment_needs_an_edges_file_or_auto(capsys):
    assert run_cli(capsys, "experiment", DEMO, "--directed") == (
        1, "", "error: experiment needs --edges-file or --auto\n")


@pytest.mark.parametrize("line, message", [
    ("2 4 x 2", "edge lines must be integers"),
    ("2 4 3 2 1", "expected 'i j k l' (or 'i j l' for multiplex input)"),
    ("2 4 3", "expected 'i j k l' (or 'i j l' for multiplex input)"),
])
def test_experiment_edges_file_rejects_malformed_lines(capsys, tmp_path,
                                                       line, message):
    # the 'i j l' form is for multiplex input only
    ef = tmp_path / "edges.txt"
    ef.write_text(f"2 4 3 2\n{line}\n", encoding="utf-8")
    assert run_cli(capsys, "experiment", DEMO, "--directed",
                   "--edges-file", str(ef)) == (
        1, "", f"error: {ef}:2: {message}\n")


def test_multiplex_edges_file_reads_i_j_l_as_i_j_l_l(capsys, tmp_path):
    p = write_multiplex(random_multiplex_net(23, N=8, L=3),
                        tmp_path / "m.edges")
    outs = []
    for lines in ("1 3 2\n# c\n4 2 1\n", "1 3 2 2\n# c\n4 2 1 1\n"):
        ef = tmp_path / "edges.txt"
        ef.write_text(lines, encoding="utf-8")
        code, out, err = run_cli(capsys, "experiment", str(p), "--edges-file",
                                 str(ef), "--format", "json")
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert [r["edge"] for r in json.loads(outs[0])["rows"]] == ["1-3-2-2",
                                                                "4-2-1-1"]


def test_multiplex_auto_increase_experiment_json_is_deterministic(capsys,
                                                                  tmp_path):
    # its baselines are drawn by the multiplex branch of the draw
    p = write_multiplex(random_multiplex_net(23, N=8, L=3),
                        tmp_path / "m.edges")
    args = ("experiment", str(p), "--auto", "--mode", "increase",
            "--format", "json")
    first = run_cli(capsys, *args)
    assert first[0] == 0 and first[2] == ""
    assert all(r["random_edge"] for r in json.loads(first[1])["rows"])
    assert run_cli(capsys, *args) == first


@pytest.mark.parametrize("args, message", [
    (("spectrum", DEMO, "--gamma", "abc"),
     "perronnet spectrum: argument --gamma: invalid float value: 'abc'"),
    (("communicability", DEMO, "--total", "--dense-cap", "5"),
     "unrecognized arguments: --dense-cap 5"),
    (("spectrum", DEMO, "--directed", "--top-k", "3"),
     "perronnet: unrecognized arguments: --top-k 3"),
    (("convert", DEMO, "--tol", "1e-9"),
     "perronnet: unrecognized arguments: --tol 1e-9"),
    (("rank", "sideways", DEMO), "perronnet rank: argument rank_mode: "),
    ((), "perronnet: the following arguments are required: command"),
], ids=["bad-float", "removed-option", "option-spectrum-does-not-read",
        "option-convert-does-not-read", "bad-choice", "no-command"])
def test_usage_error_is_input_error(capsys, args, message):
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    assert err.startswith("error: perronnet") and message in err
    assert err.count("\n") == 1


GOLDEN_USAGE = Path(__file__).with_name("cli_usage_golden.json")


def test_help_and_usage_errors_keep_the_eager_parsers_text(capsys,
                                                           monkeypatch):
    # each subcommand's arguments are added only when it parses or prints
    # its help; the texts stay those of the parser that added them all
    golden = json.loads(GOLDEN_USAGE.read_text(encoding="utf-8"))
    if tuple(golden["python"]) != sys.version_info[:2]:
        pytest.skip("argparse words its help differently on this Python")
    monkeypatch.setenv("COLUMNS", str(golden["columns"]))
    for case in golden["cases"]:
        try:
            code = main(case["argv"])
        except SystemExit as exc:  # --help
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["code"], case["stdout"],
                                    case["stderr"]), case["argv"]


SPECTRUM = {"input", "--input-format", "--gamma", "--directed", "--format",
            "--tol"}
SENSITIVITY = SPECTRUM | {"--epsilon", "--top-k", "--structured"}


def test_each_subcommand_takes_only_the_options_it_reads():
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    # a subparser adds its arguments on its first parse or help text
    for p in sub.choices.values():
        p.format_usage()
    got = {name: {"/".join(a.option_strings) or a.dest for a in p._actions
                  if not isinstance(a, argparse._HelpAction)}
           for name, p in sub.choices.items()}
    assert got == {
        "spectrum": SPECTRUM,
        "communicability": SPECTRUM | {"--top-k", "--total"},
        "sensitivity": SENSITIVITY,
        "rank": SENSITIVITY | {"rank_mode", "--recompute"},
        "experiment": SENSITIVITY | {"--seed", "--mode", "--edges-file",
                                     "--auto", "--no-mirror"},
        "convert": SPECTRUM - {"--tol"} | {"-o/--output-file"},
    }
    assert sum(map(len, got.values())) == 54


def _subparsers(ap):
    [sub] = [a for a in ap._actions
             if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_a_named_subcommand_builds_only_its_own_parser(capsys, monkeypatch):
    only = _subparsers(cli.build_parser("rank"))
    assert list(only) == ["rank"]
    # its arguments are there before any parse or help text
    assert {a.dest for a in only["rank"]._actions} == {
        "help", "rank_mode", "input", "input_format", "gamma", "directed",
        "output", "tol", "epsilon", "top_k", "structured", "recompute"}
    six = ["spectrum", "communicability", "sensitivity", "rank",
           "experiment", "convert"]
    assert list(_subparsers(cli.build_parser())) == six
    for first in (None, "ranks", "--help", "-h"):
        assert list(_subparsers(cli.build_parser(first))) == six
    # run builds the parser of its first argument
    seen = []
    build = cli.build_parser

    def recorded(command=None):
        seen.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", recorded)
    for argv in (["spectrum", DEMO], ["ranks", DEMO], []):
        main(argv)
    capsys.readouterr()
    assert seen == ["spectrum", "ranks", None]


def _determinism_inputs(tmp_path):
    """The demo, two coupled all-equal directed rings (uniform Perron
    vectors, so every score ties) and a multiplex of complete bipartite
    layers, whose uniform start vector spans a Krylov space of dimension
    two."""
    ring = tmp_path / "ring.edges"
    ring.write_text("6 2\n" + "".join(f"{k} {i} {i % 6 + 1} 1.0\n"
                                      for k in (1, 2) for i in range(1, 7)),
                    encoding="utf-8")
    kbip = tmp_path / "kbip.edges"
    kbip.write_text("8 2\n" + "".join(f"{k} {i} {j} 1.0\n"
                                      for k in (1, 2) for i in range(1, 4)
                                      for j in range(4, 9)),
                    encoding="utf-8")
    return [[DEMO, "--directed"], [str(ring), "--directed"], [str(kbip)]]


def test_json_output_is_byte_identical_across_runs_and_interpreters(
        capsys, tmp_path):
    argvs = [[*cmd, *src, "--format", "json"]
             for src in _determinism_inputs(tmp_path)
             for cmd in (["spectrum"], ["sensitivity"],
                         ["rank", "remove", "--recompute"])]
    here = []
    for argv in argvs:
        first = run_cli(capsys, *argv)
        assert first[0] == 0 and first[1]
        assert run_cli(capsys, *argv) == first
        here.append(first[1])
    script = ("import contextlib, io, json, sys\n"
              "from perronnet.cli import main\n"
              "outs = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    buf = io.StringIO()\n"
              "    with contextlib.redirect_stdout(buf):\n"
              "        main(argv)\n"
              "    outs.append(buf.getvalue())\n"
              "sys.stdout.write(json.dumps(outs))\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(perronnet.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                           capture_output=True, text=True, env=env,
                           check=True, timeout=120)
    assert json.loads(fresh.stdout) == here


GOLDEN_RESOLVE = Path(__file__).with_name("airlines_resolve_golden.json")


def test_airlines_shaped_resolve_json_is_pinned(capsys, tmp_path):
    # the block pass hands every row of both commands to perron(), which
    # re-solves it by the Lanczos recurrence; CI runs this test on one and
    # on two BLAS threads too
    path = write_multiplex(airlines_shaped(), tmp_path / "airlines.edges")
    golden = json.loads(GOLDEN_RESOLVE.read_text(encoding="utf-8"))
    assert len(golden["cases"]) == 2
    for case in golden["cases"]:
        args = [str(path) if a == "{input}" else a for a in case["args"]]
        assert run_cli(capsys, *args) == (0, case["stdout"], "")


GOLDEN_BENCHMARK = Path(__file__).with_name("benchmark_json_golden.json")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_commands_json_is_pinned(capsys, tmp_path, monkeypatch):
    # the json bytes of the benchmark's four commands, on inputs its
    # generator makes; CI runs this test on one and on two BLAS threads
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    golden = json.loads(GOLDEN_BENCHMARK.read_text(encoding="utf-8"))
    assert len(golden["cases"]) == 4
    for case in golden["cases"]:
        path = tmp_path / f"{case['workload']}.edges"
        if not path.exists():
            gen.write_edges(gen.generate(case["workload"], golden["seed"],
                                         golden["part"]), path)
        args = [str(path) if a == "{input}" else a for a in case["args"]]
        assert run_cli(capsys, *args) == (0, case["stdout"], ""), args
