"""Command-line front end.

Subcommands, each taking only the options listed (any other option is a
usage error):

  spectrum INPUT         --input-format --gamma --directed --format --tol
  communicability INPUT  the spectrum options, --top-k --total
  sensitivity INPUT      the spectrum options, --epsilon --top-k --structured
  rank add|remove INPUT  the sensitivity options, --recompute
  experiment INPUT       the sensitivity options, --seed --mode --edges-file
                         --auto --no-mirror
  convert INPUT          --input-format --gamma --directed --format -o

Outputs are deterministic given (input, flags, seed): a human-readable
table by default (4 decimal places, 6 significant digits from 1e16 on),
or machine CSV/JSON via --format with all numbers at 6 significant
digits.

Exit codes: 0 success, 1 input error (usage errors included), 2
numerical failure (a result that is not finite too), 3 infeasible
request.  Input paths not found directly are also resolved against
$PERRON_DATA_DIR.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .communicability import perron_communicability, total_communicability0
from .eigen import DEFAULT_TOL, perron
from .errors import (ConvergenceError, InfeasibleError, InputError,
                     ParseError, PerronNetError)
from .model import (EdgeKey, _read_edge_lines, is_strongly_connected,
                    load_multilayer, load_multiplex, supra_operator)
from .recommend import (perturbation_experiment, rank_insertions,
                        rank_removals)
from .sensitivity import (first_order_delta_rho, sensitivity_matrix,
                          structured_condition_number, wilkinson)

# value checks of the options a subcommand holds, as (dest, requirement,
# message), in the order they are made; ``{}`` is the value
_CHECKS = (
    ("gamma", math.isfinite, "--gamma must be finite, got {}"),
    ("epsilon", math.isfinite, "--epsilon must be finite, got {}"),
    ("tol", math.isfinite, "--tol must be finite, got {}"),
    ("gamma", lambda v: v >= 0, "--gamma must be nonnegative"),
    ("epsilon", lambda v: v > 0, "--epsilon must be positive"),
    ("top_k", lambda v: v >= 1, "--top-k must be >= 1"),
    ("tol", lambda v: v > 0, "--tol must be positive"),
    ("seed", lambda v: v >= 0, "--seed must be nonnegative"),
)


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


def _sniff_format(path: Path) -> str:
    """Infer the edge-list flavor from the first data line after the header:
    4 columns -> multiplex, 5 -> general multilayer."""
    lines = _read_edge_lines(path)
    next(lines, None)  # the header
    for lineno, tokens in lines:
        n = len(tokens)
        if n == 4:
            return "multiplex"
        if n == 5:
            return "multilayer"
        raise ParseError(f"cannot infer input format from {n}-column line",
                         path, lineno)
    raise ParseError("file has no edge lines; pass --input-format explicitly",
                     path)


def load_network(ns: argparse.Namespace):
    if ns.input_format == "multiplex":
        return load_multiplex(ns.input, gamma=ns.gamma, directed=ns.directed)
    return load_multilayer(ns.input, directed=ns.directed)


def _solve(ns: argparse.Namespace):
    """The input network and its Perron triple."""
    net = load_network(ns)
    if not is_strongly_connected(net):
        print("warning: supra graph is not strongly connected; the dominant "
              "root may not be simple and positivity of the eigenvectors is "
              "not guaranteed", file=sys.stderr)
    return net, perron(supra_operator(net), tol=ns.tol)


def _edge_str(e: EdgeKey) -> str:
    # dash-separated so the quadruple survives as one CSV field
    return f"{e.i}-{e.j}-{e.k}-{e.l}"


def _candidates(ns: argparse.Namespace) -> str:
    """The insertion candidate set that --structured selects."""
    return "existing" if ns.structured else "all"


def _add_structured_kappas(report: dict, t, net) -> None:
    """kappa_D and kappa_S, which only a multiplex has."""
    if net.multiplex:
        report["kappa_D"] = structured_condition_number(t, "D", net)
        report["kappa_S"] = structured_condition_number(t, "S", net)


# ---------------------------------------------------------------------------
# report assembly: each command returns (scalars, columns, rows)

def cmd_spectrum(ns: argparse.Namespace):
    net, t = _solve(ns)
    report = {
        "rho": t.rho,
        "kappa": t.kappa,
        "iterations": t.iterations,
        "residual_right": t.residuals[0],
        "residual_left": t.residuals[1],
    }
    _add_structured_kappas(report, t, net)
    return report, None, None


def cmd_communicability(ns: argparse.Namespace):
    net, t = _solve(ns)
    rep = perron_communicability(t, net.N, net.L)
    report = {
        "rho": t.rho,
        "c_pn": rep.c_pn,
        "lower": rep.lower,
        "upper_cos": rep.upper_cos,
        "upper_basic": rep.upper_basic,
        "phi": rep.phi,
    }
    if ns.total:
        c0 = total_communicability0(net)
        scale = t.kappa * rep.c_pn  # 0 on a network without arcs
        report["c_tn0"] = c0
        report["c_tn0_over_kappa_cpn"] = c0 / scale if scale else None
    for l in range(net.L):
        report[f"c_Y[{l + 1}]"] = float(rep.c_Y[l])
    for l in range(net.L):
        report[f"c_X[{l + 1}]"] = float(rep.c_X[l])
    order = np.argsort(-rep.versatility, kind="stable")[:ns.top_k]
    rows = [{"node": int(i) + 1, "versatility": float(rep.versatility[i])}
            for i in order]
    return report, ["node", "versatility"], rows


def cmd_sensitivity(ns: argparse.Namespace):
    net, t = _solve(ns)
    W = wilkinson(t)
    report = {
        "rho": t.rho,
        "kappa": t.kappa,
        "sensitivity_fro_norm": sensitivity_matrix(t, net.N, net.L).frobenius_norm(),
        "worst_case_shift_at_epsilon": first_order_delta_rho(t, W, ns.epsilon),
    }
    _add_structured_kappas(report, t, net)
    top = rank_insertions(t, net, ns.top_k, candidate_set=_candidates(ns))
    bottom = rank_removals(t, net, ns.top_k)
    rows = []
    for r in top:
        rows.append({"direction": "increase", "edge": _edge_str(r.edge),
                     "score": r.score})
    for r in bottom:
        rows.append({"direction": "decrease", "edge": _edge_str(r.edge),
                     "score": r.score})
    return report, ["direction", "edge", "score"], rows


def cmd_rank(ns: argparse.Namespace):
    net, t = _solve(ns)
    report = {"rho": t.rho, "kappa": t.kappa, "mode": ns.rank_mode}
    if ns.rank_mode == "add":
        ranked = rank_insertions(t, net, ns.top_k,
                                 candidate_set=_candidates(ns), eps=ns.epsilon,
                                 recompute=ns.recompute, tol=ns.tol)
        cols = ["edge", "score"]
    else:
        ranked = rank_removals(t, net, ns.top_k, require_connected=True,
                               recompute=ns.recompute, tol=ns.tol)
        cols = ["edge", "score", "connected_after"]
    if ns.recompute:
        cols.append("rho_new")
    rows = []
    for r in ranked:
        row = {"edge": _edge_str(r.edge), "score": r.score,
               "connected_after": r.connected_after, "rho_new": r.rho_after}
        rows.append({c: row[c] for c in cols})
    return report, cols, rows


def _parse_edges_file(path: Path, net) -> list[EdgeKey]:
    """Edges of an --edges-file, each checked against the ids of ``net``."""
    edges = []
    for lineno, toks in _read_edge_lines(path):
        try:
            vals = [int(tk) for tk in toks]
        except ValueError:
            raise ParseError("edge lines must be integers", path,
                             lineno) from None
        if net.multiplex and len(vals) == 3:  # 'i j l' is (i, j, l, l)
            e = EdgeKey(*vals, vals[2])
        elif len(vals) == 4:
            e = EdgeKey(*vals)
        else:
            raise ParseError("expected 'i j k l' (or 'i j l' for multiplex "
                             "input)", path, lineno)
        try:
            e.validate(net.N, net.L)
        except InputError as exc:
            raise ParseError(str(exc), path, lineno) from None
        edges.append(e)
    return edges


def cmd_experiment(ns: argparse.Namespace):
    # usage first: a missing edges file is named before any load or solve
    if not ns.auto and ns.edges_file is None:
        raise InputError("experiment needs --edges-file or --auto")
    edges_path = None if ns.auto else _resolve_path(ns.edges_file)
    net, t = _solve(ns)
    if ns.auto:
        if ns.mode == "increase":
            picked = rank_insertions(t, net, ns.top_k,
                                     candidate_set=_candidates(ns))
        else:
            picked = rank_removals(t, net, ns.top_k)
        edges = [r.edge for r in picked]
    else:
        edges = _parse_edges_file(edges_path, net)
    rows_out = perturbation_experiment(
        net, edges, eps=ns.epsilon, mode=ns.mode, seed=ns.seed,
        mirror=not ns.no_mirror, tol=ns.tol, triple=t)
    report = {"rho": t.rho, "kappa": t.kappa, "mode": ns.mode,
              "epsilon": ns.epsilon, "seed": ns.seed}
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


def cmd_convert(ns: argparse.Namespace):
    """Materialize a multiplex file (with its gamma coupling) as a general
    multilayer edge list."""
    if ns.input_format != "multiplex":
        raise ParseError("convert expects a multiplex input file", ns.input)
    net = load_network(ns)
    B = net.supra.tocoo()
    a, b, w = B.row, B.col, B.data
    if not net.directed:  # each edge once, as its arc with a < b
        keep = a < b
        a, b, w = a[keep], b[keep], w[keep]
    (k, i), (l, j) = np.divmod(a, net.N), np.divmod(b, net.N)
    # the layers' arcs in (k, i, l, j) order, then the coupling in (k, l, i)
    order = np.lexsort((j, i, l, k, k != l))
    cols = (v[order].tolist() for v in (k + 1, i + 1, l + 1, j + 1, w))
    lines = [f"{net.N} {net.L}"]
    lines += [f"{k} {i} {l} {j} {w:.17g}" for k, i, l, j, w in zip(*cols)]
    text = "\n".join(lines) + "\n"
    if ns.output_file:
        Path(ns.output_file).write_text(text, encoding="utf-8")
        return {"written": ns.output_file, "lines": len(lines)}, None, None
    sys.stdout.write(text)
    return None, None, None


# ---------------------------------------------------------------------------
# formatting

def _fmt6(v):
    return float(f"{v:.6g}") if isinstance(v, float) else v


def _csv_cell(v):
    if v is None:
        return ""
    return str(_fmt6(v))


def _fmt_table_val(v):
    if v is None:
        return ""
    if isinstance(v, float):
        # from 1e16 on, '.4f' prints more digits than a float holds
        return f"{v:.4f}" if abs(v) < 1e16 else _csv_cell(v)
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
        # minimal quoting: only a cell holding a comma, a quote or a
        # newline, such as a note, is quoted
        out = io.StringIO()
        write = csv.writer(out, lineterminator="\n").writerow
        if report is not None:
            write(["key", "value"])
            for k, v in report.items():
                write([k, _csv_cell(v)])
        if rows is not None and cols:
            write(cols)
            for row in rows:
                write([_csv_cell(row.get(c, "")) for c in cols])
        return out.getvalue()
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

# the arguments that subcommands add by name: flags, space-separated, and
# the options of add_argument
_ARGS = {
    "rank_mode": dict(choices=["add", "remove"]),
    "input": dict(help="edge-list file (resolved against $PERRON_DATA_DIR "
                       "when not found directly)"),
    "--input-format": dict(choices=["auto", "multiplex", "multilayer"],
                           default="auto"),
    "--gamma": dict(type=float, default=1.0,
                    help="multiplex inter-layer coupling weight (default 1.0)"),
    "--directed": dict(action="store_true"),
    "--format": dict(choices=["table", "csv", "json"], default="table",
                     dest="output"),
    "--tol": dict(type=float, default=DEFAULT_TOL),
    "--epsilon": dict(type=float, default=0.3),
    "--top-k": dict(type=int, default=5),
    "--structured": dict(action="store_true",
                         help="restrict add-candidates to existing edges (on a "
                              "multiplex, its intra-layer edges)"),
    "--total": dict(action="store_true",
                    help="also compute the total communicability "
                         "1'(exp(B) - I)1 for comparison"),
    "--recompute": dict(action="store_true",
                        help="re-solve the root for each ranked candidate"),
    "--seed": dict(type=int, default=42),
    "--mode": dict(choices=["increase", "decrease", "remove"],
                   default="increase"),
    "--edges-file": dict(default=None,
                         help="file of edges 'i j k l' (or 'i j l' for "
                              "multiplex)"),
    "--auto": dict(action="store_true",
                   help="pick edges from the sensitivity ranking"),
    "--no-mirror": dict(action="store_true",
                        help="perturb single arcs instead of both directions"),
    "-o --output-file": dict(default=None),
}
_INPUT = ("input", "--input-format", "--gamma", "--directed", "--format")
_SOLVE = _INPUT + ("--tol",)
_RANK = _SOLVE + ("--epsilon", "--top-k", "--structured")


# the subcommands, as (name, function, help, keys of _ARGS)
_COMMANDS = (
    ("spectrum", cmd_spectrum, "Perron root and condition numbers", _SOLVE),
    ("communicability", cmd_communicability, "communicability report",
     _SOLVE + ("--top-k", "--total")),
    ("sensitivity", cmd_sensitivity, "per-edge sensitivity summary", _RANK),
    ("rank", cmd_rank, "rank edge insertions or removals",
     ("rank_mode",) + _RANK + ("--recompute",)),
    ("experiment", cmd_experiment, "re-solved perturbation experiments",
     _RANK + ("--seed", "--mode", "--edges-file", "--auto", "--no-mirror")),
    ("convert", cmd_convert, "materialize a multiplex file as a general "
     "multilayer edge list", _INPUT + ("-o --output-file",)),
)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an input error (exit code 1); its
    subparsers are of this class too."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The program's parser.  When ``command`` names a subcommand, only
    that subparser is built, as a command line that starts with the name
    reads no other; otherwise (None, an option, an unknown name) all are,
    for the program's help text and usage errors."""
    ap = _Parser(
        prog="perronnet",
        description="Perron-root communicability and edge sensitivity of "
                    "multilayer networks")
    sub = ap.add_subparsers(dest="command", required=True)
    named = [c for c in _COMMANDS if c[0] == command]
    for name, func, help, args in named or _COMMANDS:
        p = sub.add_parser(name, help=help)
        for arg in args:
            p.add_argument(*arg.split(), **_ARGS[arg])
        p.set_defaults(func=func)
    return ap


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ns = build_parser(argv[0] if argv else None).parse_args(argv)
    ns.input = _resolve_path(ns.input)
    if ns.input_format == "auto":
        ns.input_format = _sniff_format(ns.input)
    for dest, holds, message in _CHECKS:
        if hasattr(ns, dest) and not holds(getattr(ns, dest)):
            raise InputError(message.format(getattr(ns, dest)))
    report, cols, rows = ns.func(ns)
    for values in ([report] if report else []) + (rows or []):
        for key, v in values.items():
            # an overflow, say, which machine formats cannot carry
            if isinstance(v, float) and not math.isfinite(v):
                raise ConvergenceError(f"{key} is not finite ({v})")
    if report is not None or rows is not None:
        sys.stdout.write(emit(report, cols, rows, ns.output))
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
