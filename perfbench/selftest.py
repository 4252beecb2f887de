"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs the benchmark's commands on two tiny networks, the bundled demo
(directed general multilayer, N=4, L=3) and a seeded undirected multiplex
(N=60, L=3), and requires every check in ``oracle.py`` to pass.  Then it
corrupts each output in one way a faulty program could (rho off by 1e-3,
a removal row naming an absent edge, a re-solved root or a score off in
the 6th digit, a disconnecting removal, a wrong insertion pair) and
requires the check to fail.  Exit code 0 when all of that holds.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import run  # first: it pins the BLAS pools before numpy is imported

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402

ROOT = run.ROOT
sys.path.insert(0, str(run.SRC))

DEMO = ROOT / "src" / "perronnet" / "data" / "demo_multilayer.edges"


def read_general(path: Path) -> gen.Instance:
    """Directed general multilayer edge list -> instance, parsed here."""
    rows = [ln.split() for ln in path.read_text(encoding="utf-8").splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]
    N, L = (int(t) for t in rows[0])
    k, i, l, j = (np.array([int(r[c]) - 1 for r in rows[1:]]) for c in range(4))
    w = np.array([float(r[4]) for r in rows[1:]])
    return gen.Instance("multilayer", N, L, 0.0, True, k * N + i, l * N + j, w)


def absent_edge(orc) -> str:
    n = orc.inst.dim
    a, b = next((a, b) for a in range(n) for b in range(n)
                if a != b and (a, b) not in orc.arcs)
    return orc.show(a, b)


def main() -> int:
    work = run.WORK
    work.mkdir(exist_ok=True)
    mpx_path = work / "selftest-multiplex.edges"
    mpx = gen._multiplex(np.random.default_rng(7), N=60, L=3, degree=6)
    gen.write_edges(mpx, mpx_path)
    fmt = ["--format", "json"]
    d, m = str(DEMO), str(mpx_path)
    ok = True
    try:
        cases = [
            (read_general(DEMO), "demo spectrum", ["spectrum", d, "--directed"],
             oracle.check_spectrum, {}),
            (read_general(DEMO), "demo rank remove",
             ["rank", "remove", d, "--directed", "--recompute"],
             oracle.check_rank_remove, {}),
            (read_general(DEMO), "demo experiment remove",
             ["experiment", d, "--directed", "--auto", "--mode", "remove"],
             oracle.check_experiment_remove, {}),
            (mpx, "multiplex spectrum", ["spectrum", m], oracle.check_spectrum, {}),
            (mpx, "multiplex sensitivity", ["sensitivity", m],
             oracle.check_sensitivity, {}),
        ]
        docs = {}
        for inst, name, argv, check, kw in cases:
            rc, out, err = run.run_cli(argv + fmt)
            orc = oracle.Oracle(inst)
            errs = [f"exit {rc}: {err.strip()}"] if rc else \
                check(json.loads(out), orc, top_k=5, eps=run.EPS,
                      seed=run.EXPERIMENT_SEED, **kw)
            print(f"{'ok  ' if not errs else 'FAIL'} {name}")
            for e in errs:
                print(f"     {e}")
            ok &= not errs
            if not errs:
                docs[name] = (json.loads(out), orc, check, kw)
    finally:
        mpx_path.unlink(missing_ok=True)

    def bump(key, rel):
        def f(doc, orc):
            doc["rows"][0][key] *= 1 + rel
        return f

    def set_row(key, value):
        def f(doc, orc):
            doc["rows"][0][key] = value(orc) if callable(value) else value
        return f

    def rho_off(doc, orc):
        doc["report"]["rho"] += 1e-3

    def swap_first_rows(doc, orc):
        rows = [r for r in doc["rows"] if r["direction"] == "increase"]
        rows[0]["edge"], rows[-1]["edge"] = rows[-1]["edge"], rows[0]["edge"]

    corruptions = [
        ("demo spectrum", "rho off by 1e-3", rho_off),
        ("demo rank remove", "rho off by 1e-3", rho_off),
        ("demo rank remove", "row names an absent edge", set_row("edge", absent_edge)),
        ("demo rank remove", "rho_new off by 1e-4", bump("rho_new", 1e-4)),
        ("demo rank remove", "row not connected after", set_row("connected_after", False)),
        ("demo experiment remove", "random_rho_new off by 1e-4",
         bump("random_rho_new", 1e-4)),
        ("demo experiment remove", "rows name an absent edge",
         set_row("edge", absent_edge)),
        ("multiplex spectrum", "rho off by 1e-3", rho_off),
        ("multiplex sensitivity", "score off by 1e-4", bump("score", 1e-4)),
        ("multiplex sensitivity", "increase rows out of order", swap_first_rows),
    ]
    for name, what, corrupt in corruptions:
        if name not in docs:
            continue
        doc, orc, check, kw = docs[name]
        bad = copy.deepcopy(doc)
        corrupt(bad, orc)
        errs = check(bad, orc, top_k=5, eps=run.EPS, seed=run.EXPERIMENT_SEED, **kw)
        print(f"{'ok  ' if errs else 'FAIL'} {name}: {what} is caught")
        ok &= bool(errs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
