"""Benchmark of the perronnet pipeline: load -> solve -> rank -> re-solve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run writes the workload's ``gen.PARTS`` seeded
inputs, then runs whole rounds for ``--seconds``, cycling through the
inputs.  A round times the import and load in a fresh interpreter
(``setup_s``), then runs the workload's CLI subcommands in-process, each
``perronnet.cli.main([...])`` with stdout captured.  A fixed calibration
loop is timed at the start of the round and before each command, and each
command's time is reported over the calibration times just before and
after it.  The run takes at least one round per input, and no round that
would end past ``--seconds`` if it took as long as the one before.  Every output is checked against the
independent computation in ``oracle.py`` and every round on one input must
print the same bytes.
With ``--trace 1`` rounds alternate between untraced and traced, and the
per-layer metrics of ``spans.py`` are reported instead of the end-to-end
ones.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# BLAS pools are sized before numpy is first imported, here and in the
# set-up interpreters, which inherit this environment.
THREADS = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

TOP_K, EPS, EXPERIMENT_SEED = 5, 0.3, 42
# the program's own import and load, in a fresh interpreter
SETUP_SNIPPET = (
    "import sys, perronnet as pn\n"
    "p, kind = sys.argv[1], sys.argv[2]\n"
    "pn.load_multiplex(p, gamma=1.0) if kind == 'multiplex' "
    "else pn.load_multilayer(p, directed=True)\n")
# A fixed scale, close to the calibration loop's time on the reference
# machine (2 cores, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  A command's
# normalized time is its wall time over the calibration times around it,
# times this scale: seconds at the reference speed (see ``normalized``).
CALIB_REF_S = 0.1


def make_calibration():
    """A fixed loop that uses neither perronnet nor the seed, with the
    program's mix of work: text parsed into a dict, a Python walk over it,
    and sparse products.  The host's speed moves between levels up to 1.7x
    apart for tens of seconds at a time, and this loop's time, taken
    throughout the run, moves with it.  Each call first runs
    ``gc.collect()``, so that no garbage of the program's is collected
    inside the timed loop."""
    n = 20000
    text = [f"{i % 4 + 1} {i % 997 + 1} {i * 7 % 1000 + 1} {1 + i % 64 / 64}"
            for i in range(n)]
    rng = np.random.default_rng(0)
    A = sp.csr_matrix((rng.random(6 * n), (rng.integers(0, n, 6 * n),
                                           rng.integers(0, n, 6 * n))),
                      shape=(n, n))

    def calibrate() -> float:
        gc.collect()
        t0 = time.perf_counter()
        edges = {}
        for line in text:
            k, i, j, w = line.split()
            edges[(int(k), int(i), int(j))] = float(w)
        total = 0.0
        for (k, i, j), w in edges.items():
            total += w * (k + i - j)
        x = np.ones(n)
        for _ in range(150):
            x = A @ x
            x /= x.max()  # no BLAS call, so no wait on a second thread
        return time.perf_counter() - t0

    return calibrate


def commands(workload, path):
    """[(role, argv, check, check kwargs)]: the query command, then the
    report command of the workload."""
    import oracle
    p, k = str(path), str(TOP_K)
    fmt = ["--format", "json"]
    if workload == "mpx-query":
        return [
            ("query", ["spectrum", p, "--gamma", "1"] + fmt, oracle.check_spectrum, {}),
            ("report", ["sensitivity", p, "--gamma", "1", "--top-k", k] + fmt,
             oracle.check_sensitivity, {}),
        ]
    return [
        ("query", ["rank", "remove", p, "--directed", "--recompute",
                   "--top-k", k] + fmt, oracle.check_rank_remove, {}),
        ("report", ["experiment", p, "--directed", "--auto", "--mode",
                    "remove", "--top-k", k] + fmt,
         oracle.check_experiment_remove, {}),
    ]


def run_cli(argv):
    """One in-process CLI call: (exit code, stdout, stderr)."""
    import perronnet.cli as cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # an escaped exception is a failed operation
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def normalized(samples, cals, traced):
    """Per command, seconds at the reference speed.  Each sample's time is
    divided by the mean of the calibrations just before and just after it;
    the median of these ratios per input is averaged over the inputs, so
    that no one graph of the seed sets the figure alone."""
    ratios = {}  # command -> input -> ratios
    for t, part, idx, secs, i in samples:
        if t == traced:
            ratios.setdefault(idx, {}).setdefault(part, []).append(
                2.0 * secs / (cals[i] + cals[i + 1]))
    return [CALIB_REF_S * statistics.fmean(map(statistics.median, by_input.values()))
            for _, by_input in sorted(ratios.items())]


def run_setup(path, kind):
    """Import and load once in a fresh interpreter: (exit code, seconds, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(path), kind],
                          env=env, cwd=ROOT, capture_output=True, text=True)
    return proc.returncode, time.perf_counter() - t0, proc.stderr


def main() -> int:
    ap = argparse.ArgumentParser(description="perronnet pipeline benchmark")
    ap.add_argument("--workload", required=True,
                    choices=list(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (SRC / "perronnet" / "__init__.py").is_file():
        print(f"error: no perronnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oracle
    import perronnet
    from spans import Tracer, layer_metrics
    if not Path(perronnet.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported perronnet from {perronnet.__file__}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    insts = [gen.generate(args.workload, args.seed, part)
             for part in range(gen.PARTS)]
    paths = [WORK / f"{tag}-{part}.edges" for part in range(gen.PARTS)]
    for inst, path in zip(insts, paths):
        gen.write_edges(inst, path)
    # a traced run takes each input twice in a row, untraced then traced
    step = 2 if args.trace else 1
    try:
        cmds = [commands(args.workload, path) for path in paths]
        roles = [c[0] for c in cmds[0]]
        tracer = Tracer()
        calibrate = make_calibration()
        first_out = [[None] * len(roles) for _ in paths]
        rounds = []  # per round: (traced, [seconds per command], ops)
        cals = []  # calibration times, in order
        # per round: (load succeeded, seconds, index in cals of the
        # calibration just before the load; the next one follows it)
        setups = []
        # per command: (traced, input, command, seconds, index in cals of
        # the calibration just before it; the next one follows it)
        samples = []
        attempted = failed = 0
        errors = []
        t_start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            part = len(rounds) // step % gen.PARTS
            traced = bool(args.trace) and len(rounds) % 2 == 1
            secs, ops = [], []
            cals.append(calibrate())
            rc, setup_s, err = run_setup(paths[part], insts[part].kind)
            setups.append((rc == 0, setup_s, len(cals) - 1))
            attempted += 1
            if rc != 0:
                failed += 1
                print(f"setup: exit {rc}: {err.strip()[-400:]}", file=sys.stderr)
            for idx, (role, argv, _check, _kw) in enumerate(cmds[part]):
                cals.append(calibrate())
                if traced:
                    ops.append(tracer.begin_op())
                    with tracer.installed(), tracer.span("cli"):
                        t0 = time.perf_counter()
                        rc, out, err = run_cli(argv)
                        secs.append(time.perf_counter() - t0)
                else:
                    t0 = time.perf_counter()
                    rc, out, err = run_cli(argv)
                    secs.append(time.perf_counter() - t0)
                samples.append((traced, part, idx, secs[-1], len(cals) - 1))
                attempted += 1
                if rc != 0:
                    failed += 1
                    print(f"{role}: exit {rc}: {err.strip()[-400:]}", file=sys.stderr)
                    continue
                if err:
                    errors.append(f"{role}: unexpected stderr: {err.strip()[:400]}")
                if first_out[part][idx] is None:
                    first_out[part][idx] = out
                elif out != first_out[part][idx]:
                    errors.append(f"{role}: stdout differs between rounds")
            rounds.append((traced, secs, ops))
            print(f"round {len(rounds)}{' traced' if traced else ''} input {part}: "
                  f"setup {setup_s:.4f}s "
                  + " ".join(f"{r} {t:.4f}s" for r, t in zip(roles, secs))
                  + "".join(f" calibration {c:.4f}s" for c in cals[-3:]),
                  file=sys.stderr)
            # after one pass over the inputs, stop before a round as long
            # as this one would end past --seconds
            now = time.perf_counter()
            if (len(rounds) >= step * gen.PARTS
                    and (now - t_start) + (now - t_round) > args.seconds):
                break
        cals.append(calibrate())  # the one after the last command
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        for inst, part_cmds, outs in zip(insts, cmds, first_out):
            orc = oracle.Oracle(inst)
            for (role, argv, check, kw), out in zip(part_cmds, outs):
                if out is None:
                    continue
                doc = json.loads(out)
                errors += [f"{role}: {e}" for e in
                           check(doc, orc, top_k=TOP_K, eps=EPS,
                                 seed=EXPERIMENT_SEED, **kw)]

        if args.trace:
            per_round = [layer_metrics(tracer, ops, insts[0].lines)
                         for t, _, ops in rounds if t]
            metrics = {name: statistics.median(r[name] for r in per_round)
                       for name in per_round[0]}
            metrics["trace.overhead_pct"] = 100.0 * (
                sum(normalized(samples, cals, True))
                / sum(normalized(samples, cals, False)) - 1.0)
            tracer.write(WORK / f"trace-{tag}.json")
        else:
            loads = ([s[1:] for s in setups if s[0]]
                     or [s[1:] for s in setups])
            norm = normalized(samples, cals, False)
            # set-up: one fresh-interpreter load per round, normalized like
            # a command; the median over all inputs, which are of one size
            metrics = {
                "setup_s": CALIB_REF_S * statistics.median(
                    2.0 * secs / (cals[i] + cals[i + 1]) for secs, i in loads),
                "query_norm_s": norm[0],
                "report_norm_s": norm[1],
                "peak_rss_mb": peak_rss_mb,
            }
    finally:
        for path in paths:
            path.unlink(missing_ok=True)

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_pct", "%"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
