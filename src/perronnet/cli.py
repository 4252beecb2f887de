"""Command-line front end.

Subcommands: spectrum, communicability, sensitivity, rank {add,remove},
experiment, convert.  Outputs are deterministic given (input, flags,
seed): a human-readable table by default (4 decimal places), or machine
CSV/JSON via --format with all numbers at 6 significant digits.

Exit codes: 0 success, 1 input error (usage errors included), 2
numerical failure, 3 infeasible request.  Input paths not found
directly are also resolved against $PERRON_DATA_DIR.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .communicability import perron_communicability, total_communicability0
from .eigen import perron
from .errors import (ConvergenceError, InfeasibleError, InputError,
                     PerronNetError)
from .model import (EdgeKey, editable_arcs, is_strongly_connected,
                    load_multilayer, load_multiplex, supra_operator)
from .recommend import (perturbation_experiment, rank_insertions,
                        rank_removals)
from .sensitivity import (first_order_delta_rho, sensitivity_matrix,
                          structured_condition_number, wilkinson)


@dataclass
class RunConfig:
    input_path: Path
    input_format: str  # 'multiplex' | 'multilayer'
    gamma: float = 1.0
    directed: bool = False
    epsilon: float = 0.3
    top_k: int = 5
    seed: int = 42
    tol: float = 1e-10
    output: str = "table"  # 'table' | 'csv' | 'json'
    structured: bool = False
    recompute: bool = False
    mirror: bool = True

    def __post_init__(self):
        for flag, value in (("--gamma", self.gamma), ("--epsilon", self.epsilon),
                            ("--tol", self.tol)):
            if not math.isfinite(value):
                raise InputError(f"{flag} must be finite, got {value}")
        if self.gamma < 0:
            raise InputError("--gamma must be nonnegative")
        if self.epsilon <= 0:
            raise InputError("--epsilon must be positive")
        if self.top_k < 1:
            raise InputError("--top-k must be >= 1")
        if self.tol <= 0:
            raise InputError("--tol must be positive")
        if self.seed < 0:
            raise InputError("--seed must be nonnegative")


def _resolve_path(raw: str) -> Path:
    p = Path(raw)
    if p.exists():
        return p
    root = os.environ.get("PERRON_DATA_DIR")
    if root:
        q = Path(root) / raw
        if q.exists():
            return q
    raise InputError(f"input file not found: {raw}")


@contextmanager
def _decoded(path: Path):
    """Report input bytes that are not UTF-8 as an input error naming the
    file, instead of letting UnicodeDecodeError through."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})") from None


def _sniff_format(path: Path) -> str:
    """Infer the edge-list flavor from the first data line after the header:
    4 columns -> multiplex, 5 -> general multilayer."""
    with _decoded(path), open(path, "r", encoding="utf-8") as fh:
        seen_header = False
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not seen_header:
                seen_header = True
                continue
            n = len(line.split())
            if n == 4:
                return "multiplex"
            if n == 5:
                return "multilayer"
            raise InputError(f"cannot infer input format from {n}-column line")
    raise InputError("file has no edge lines; pass --input-format explicitly")


def load_network(cfg: RunConfig):
    with _decoded(cfg.input_path):
        if cfg.input_format == "multiplex":
            return load_multiplex(cfg.input_path, gamma=cfg.gamma,
                                  directed=cfg.directed)
        return load_multilayer(cfg.input_path, directed=cfg.directed)


def _solve(cfg: RunConfig, net):
    if not is_strongly_connected(net):
        print("warning: supra graph is not strongly connected; the dominant "
              "root may not be simple and positivity of the eigenvectors is "
              "not guaranteed", file=sys.stderr)
    return perron(supra_operator(net), tol=cfg.tol)


def _edge_str(e: EdgeKey) -> str:
    # dash-separated so the quadruple survives as one CSV field
    return f"{e.i}-{e.j}-{e.k}-{e.l}"


# ---------------------------------------------------------------------------
# report assembly: each command returns (scalars, columns, rows)

def cmd_spectrum(cfg: RunConfig):
    net = load_network(cfg)
    t = _solve(cfg, net)
    report = {
        "rho": t.rho,
        "kappa": t.kappa,
        "iterations": t.iterations,
        "residual_right": t.residuals[0],
        "residual_left": t.residuals[1],
    }
    if net.multiplex:
        report["kappa_D"] = structured_condition_number(t, "D", net)
        report["kappa_S"] = structured_condition_number(t, "S", net)
    return report, None, None


def cmd_communicability(cfg: RunConfig, with_total: bool = False):
    net = load_network(cfg)
    t = _solve(cfg, net)
    rep = perron_communicability(t, net.N, net.L)
    report = {
        "rho": t.rho,
        "c_pn": rep.c_pn,
        "lower": rep.lower,
        "upper_cos": rep.upper_cos,
        "upper_basic": rep.upper_basic,
        "phi": rep.phi,
    }
    if with_total:
        c0 = total_communicability0(net)
        report["c_tn0"] = c0
        report["c_tn0_over_kappa_cpn"] = c0 / (t.kappa * rep.c_pn)
    for l in range(net.L):
        report[f"c_Y[{l + 1}]"] = float(rep.c_Y[l])
    for l in range(net.L):
        report[f"c_X[{l + 1}]"] = float(rep.c_X[l])
    order = np.argsort(-rep.versatility, kind="stable")[:cfg.top_k]
    rows = [{"node": int(i) + 1, "versatility": float(rep.versatility[i])}
            for i in order]
    return report, ["node", "versatility"], rows


def cmd_sensitivity(cfg: RunConfig):
    net = load_network(cfg)
    t = _solve(cfg, net)
    W = wilkinson(t)
    report = {
        "rho": t.rho,
        "kappa": t.kappa,
        "sensitivity_fro_norm": sensitivity_matrix(t, net.N, net.L).frobenius_norm(),
        "worst_case_shift_at_epsilon": first_order_delta_rho(t, W, cfg.epsilon),
    }
    if net.multiplex:
        report["kappa_D"] = structured_condition_number(t, "D", net)
        report["kappa_S"] = structured_condition_number(t, "S", net)
    cand = "existing" if cfg.structured else "all"
    top = rank_insertions(t, net, cfg.top_k, candidate_set=cand)
    bottom = rank_removals(t, net, cfg.top_k)
    rows = []
    for r in top:
        rows.append({"direction": "increase", "edge": _edge_str(r.edge),
                     "score": r.score})
    for r in bottom:
        rows.append({"direction": "decrease", "edge": _edge_str(r.edge),
                     "score": r.score})
    return report, ["direction", "edge", "score"], rows


def cmd_rank(cfg: RunConfig, mode: str):
    net = load_network(cfg)
    t = _solve(cfg, net)
    report = {"rho": t.rho, "kappa": t.kappa, "mode": mode}
    rows = []
    if mode == "add":
        cand = "existing" if cfg.structured else "all"
        ranked = rank_insertions(t, net, cfg.top_k, candidate_set=cand,
                                 eps=cfg.epsilon, recompute=cfg.recompute,
                                 tol=cfg.tol)
        cols = ["edge", "score"] + (["rho_new"] if cfg.recompute else [])
        for r in ranked:
            row = {"edge": _edge_str(r.edge), "score": r.score}
            if cfg.recompute:
                row["rho_new"] = r.rho_after
            rows.append(row)
    else:
        ranked = rank_removals(t, net, cfg.top_k, require_connected=True,
                               recompute=cfg.recompute, tol=cfg.tol)
        cols = ["edge", "score", "connected_after"]
        if cfg.recompute:
            cols.append("rho_new")
        for r in ranked:
            row = {"edge": _edge_str(r.edge), "score": r.score,
                   "connected_after": r.connected_after}
            if cfg.recompute:
                row["rho_new"] = r.rho_after
            rows.append(row)
    return report, cols, rows


def _parse_edges_file(path: Path, net) -> list[EdgeKey]:
    """Edges of an --edges-file, each checked against the ids of ``net``."""
    edges = []
    with _decoded(path), open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            try:
                vals = [int(tk) for tk in toks]
            except ValueError:
                raise InputError(
                    f"{path}:{lineno}: edge lines must be integers") from None
            if net.multiplex and len(vals) == 3:
                i, j, l = vals
                e = EdgeKey(i, j, l, l)
            elif len(vals) == 4:
                e = EdgeKey(*vals)
            else:
                raise InputError(
                    f"{path}:{lineno}: expected 'i j k l' (or 'i j l' for "
                    "multiplex input)")
            try:
                e.validate(net.N, net.L)
            except InputError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            edges.append(e)
    return edges


def cmd_experiment(cfg: RunConfig, mode: str, edges_file: str | None,
                   auto: bool):
    net = load_network(cfg)
    t = _solve(cfg, net)
    if auto:
        if mode == "increase":
            cand = "existing" if cfg.structured else "all"
            picked = rank_insertions(t, net, cfg.top_k, candidate_set=cand)
        else:
            picked = rank_removals(t, net, cfg.top_k)
        edges = [r.edge for r in picked]
    elif edges_file is not None:
        edges = _parse_edges_file(_resolve_path(edges_file), net)
    else:
        raise InputError("experiment needs --edges-file or --auto")
    rows_out = perturbation_experiment(
        net, edges, eps=cfg.epsilon, mode=mode, seed=cfg.seed,
        mirror=cfg.mirror, tol=cfg.tol, triple=t)
    report = {"rho": t.rho, "kappa": t.kappa, "mode": mode,
              "epsilon": cfg.epsilon, "seed": cfg.seed}
    cols = ["edge", "score", "rho_new", "random_edge", "random_rho_new", "note"]
    rows = []
    for r in rows_out:
        notes = [r.error] if r.error else []
        if r.baseline_error:
            notes.append(f"random edge {_edge_str(r.baseline_edge)}: "
                         f"{r.baseline_error}")
        rows.append({
            "edge": _edge_str(r.edge),
            "score": r.score,
            "rho_new": r.rho_new,
            "random_edge": _edge_str(r.baseline_edge) if r.baseline_edge else "",
            "random_rho_new": r.baseline_rho_new,
            "note": "; ".join(notes),
        })
    return report, cols, rows


def cmd_convert(cfg: RunConfig, out_path: str | None):
    """Materialize a multiplex file (with its gamma coupling) as a general
    multilayer edge list."""
    if cfg.input_format != "multiplex":
        raise InputError("convert expects a multiplex input file")
    net = load_network(cfg)
    a, b, w = editable_arcs(net)
    if not net.directed:  # each edge once, as its arc with i < j
        keep = a < b
        a, b, w = a[keep], b[keep], w[keep]
    (k, i), (l, j) = np.divmod(a, net.N), np.divmod(b, net.N)
    order = np.lexsort((j, l, i, k))
    cols = (v[order].tolist() for v in (k + 1, i + 1, l + 1, j + 1, w))
    lines = [f"{net.N} {net.L}"]
    lines += [f"{k} {i} {l} {j} {w:.17g}" for k, i, l, j, w in zip(*cols)]
    if net.gamma > 0:
        for k in range(1, net.L + 1):
            for l in range(1, net.L + 1):
                if (k < l) if not net.directed else (k != l):
                    for i in range(1, net.N + 1):
                        lines.append(f"{k} {i} {l} {i} {net.gamma:.17g}")
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
        return {"written": out_path, "lines": len(lines)}, None, None
    sys.stdout.write(text)
    return None, None, None


# ---------------------------------------------------------------------------
# formatting

def _fmt6(v):
    if isinstance(v, float):
        if math.isfinite(v):
            return float(f"{v:.6g}")
        return v
    return v


def _csv_cell(v):
    if v is None:
        return ""
    return str(_fmt6(v))


def _fmt_table_val(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def emit(report, cols, rows, output: str) -> str:
    if output == "json":
        doc = {}
        if report is not None:
            doc["report"] = {k: _fmt6(v) for k, v in report.items()}
        if rows is not None:
            doc["rows"] = [{k: _fmt6(v) for k, v in row.items()} for row in rows]
        return json.dumps(doc, indent=2) + "\n"
    if output == "csv":
        out = []
        if report is not None:
            out.append("key,value")
            for k, v in report.items():
                out.append(f"{k},{_csv_cell(v)}")
        if rows is not None and cols:
            out.append(",".join(cols))
            for row in rows:
                out.append(",".join(_csv_cell(row.get(c, "")) for c in cols))
        return "\n".join(out) + "\n"
    # human table
    out = []
    if report is not None:
        width = max((len(k) for k in report), default=0)
        for k, v in report.items():
            out.append(f"{k:<{width}}  {_fmt_table_val(v)}")
    if rows is not None and cols:
        if report is not None:
            out.append("")
        rendered = [[_fmt_table_val(row.get(c, "")) for c in cols] for row in rows]
        widths = [max([len(c)] + [len(r[idx]) for r in rendered])
                  for idx, c in enumerate(cols)]
        out.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for r in rendered:
            out.append("  ".join(val.ljust(w) for val, w in zip(r, widths)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("input", help="edge-list file (resolved against "
                   "$PERRON_DATA_DIR when not found directly)")
    p.add_argument("--input-format", choices=["auto", "multiplex", "multilayer"],
                   default="auto")
    p.add_argument("--gamma", type=float, default=1.0,
                   help="multiplex inter-layer coupling weight (default 1.0)")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--structured", action="store_true",
                   help="restrict add-candidates to existing intra-layer edges")
    p.add_argument("--recompute", action="store_true",
                   help="re-solve the root for each ranked candidate")
    p.add_argument("--format", choices=["table", "csv", "json"],
                   default="table", dest="output")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit code 1); its
    subparsers are of this class too."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="perronnet",
        description="Perron-root communicability and edge sensitivity of "
                    "multilayer networks")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="Perron root and condition numbers")
    _add_common(sp)

    cp = sub.add_parser("communicability", help="communicability report")
    _add_common(cp)
    cp.add_argument("--total", action="store_true",
                    help="also compute the total communicability "
                         "1'(exp(B) - I)1 for comparison")

    sn = sub.add_parser("sensitivity", help="per-edge sensitivity summary")
    _add_common(sn)

    rk = sub.add_parser("rank", help="rank edge insertions or removals")
    rk.add_argument("rank_mode", choices=["add", "remove"])
    _add_common(rk)

    ex = sub.add_parser("experiment", help="re-solved perturbation experiments")
    _add_common(ex)
    ex.add_argument("--mode", choices=["increase", "decrease", "remove"],
                    default="increase")
    ex.add_argument("--edges-file", default=None,
                    help="file of edges 'i j k l' (or 'i j l' for multiplex)")
    ex.add_argument("--auto", action="store_true",
                    help="pick edges from the sensitivity ranking")
    ex.add_argument("--no-mirror", action="store_true",
                    help="perturb single arcs instead of both directions")

    cv = sub.add_parser("convert", help="materialize a multiplex file as a "
                                        "general multilayer edge list")
    _add_common(cv)
    cv.add_argument("-o", "--output-file", default=None)

    return ap


def _config_from(ns: argparse.Namespace) -> RunConfig:
    path = _resolve_path(ns.input)
    fmt = ns.input_format
    if fmt == "auto":
        fmt = _sniff_format(path)
    return RunConfig(
        input_path=path, input_format=fmt, gamma=ns.gamma,
        directed=ns.directed, epsilon=ns.epsilon, top_k=ns.top_k,
        seed=ns.seed, tol=ns.tol, output=ns.output,
        structured=ns.structured, recompute=ns.recompute,
        mirror=not getattr(ns, "no_mirror", False))


def run(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    cfg = _config_from(ns)
    if ns.command == "spectrum":
        result = cmd_spectrum(cfg)
    elif ns.command == "communicability":
        result = cmd_communicability(cfg, with_total=ns.total)
    elif ns.command == "sensitivity":
        result = cmd_sensitivity(cfg)
    elif ns.command == "rank":
        result = cmd_rank(cfg, ns.rank_mode)
    elif ns.command == "experiment":
        result = cmd_experiment(cfg, ns.mode, ns.edges_file, ns.auto)
    elif ns.command == "convert":
        result = cmd_convert(cfg, ns.output_file)
    else:  # pragma: no cover
        raise InputError(f"unknown command {ns.command}")
    report, cols, rows = result
    if report is not None or rows is not None:
        sys.stdout.write(emit(report, cols, rows, cfg.output))
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except PerronNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
