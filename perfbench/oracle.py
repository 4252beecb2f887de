"""Independent checks of perronnet's CLI output.

Everything here is computed from the generator's own arrays with
scipy.sparse and ARPACK (``eigsh`` for symmetric input, ``eigs``
otherwise), never through ``perronnet``: the supra matrix B, the Perron
root and unit positive vectors x and y, every exact re-solve of an edited
B, and strong connectivity.  Each ``check_*`` function takes one parsed
``--format json`` document and returns a list of failure messages; an
empty list means the output is correct.

Machine output carries 6 significant digits, so a reported number
matches when it lies within 0.6 units of the 6th digit of the exact one.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigs, eigsh

# below this order a dense eigensolver is used (ARPACK needs k < n - 1)
_DENSE_ORDER = 200
# relative score gap under which two ranked rows count as tied
_TIE_REL = 1e-9


def close6(reported, exact) -> bool:
    if not isinstance(reported, (int, float)) or isinstance(reported, bool):
        return False
    if exact == 0:
        return reported == 0
    unit = 10.0 ** (math.floor(math.log10(abs(exact))) - 5)
    return abs(reported - exact) <= 0.6 * unit


def edge_str(i, j, k, l) -> str:
    return f"{i}-{j}-{k}-{l}"


def _tie_key(s):
    """Scores rounded to 11 significant digits, so that products equal in
    exact arithmetic (from symmetric structure) sort as ties, as they do in
    the program, whatever the last bits of the reference vectors."""
    m, e = np.frexp(np.asarray(s, dtype=float))
    return np.ldexp(np.round(m, 11), e)


class Oracle:
    """Reference spectrum of one generated instance (see gen.Instance)."""

    def __init__(self, inst):
        self.inst = inst
        n, N = inst.dim, inst.N
        rows, cols, vals = [inst.src], [inst.dst], [inst.weight]
        if not inst.directed:
            rows.append(inst.dst)
            cols.append(inst.src)
            vals.append(inst.weight)
        if inst.kind == "multiplex" and inst.gamma > 0:
            node = np.arange(N)
            for k in range(inst.L):
                for l in range(inst.L):
                    if k != l:
                        rows.append(k * N + node)
                        cols.append(l * N + node)
                        vals.append(np.full(N, inst.gamma))
        self.B = sp.csr_matrix((np.concatenate(vals),
                                (np.concatenate(rows), np.concatenate(cols))),
                               shape=(n, n))
        # stored data arcs (coupling excluded) -> weight
        arcs = {}
        for a, b, w in zip(inst.src.tolist(), inst.dst.tolist(),
                           inst.weight.tolist()):
            arcs[(a, b)] = w
            if not inst.directed:
                arcs[(b, a)] = w
        self.arcs = arcs
        self.rho, self.x, self.y = self._triple(self.B)
        self.kappa = 1.0 / float(self.y @ self.x)

    # -- spectra -----------------------------------------------------------

    def _right(self, B, v0):
        if B.shape[0] <= _DENSE_ORDER:
            w, V = np.linalg.eig(B.toarray())
            idx = int(np.argmax(w.real))
            return float(w[idx].real), V[:, idx].real
        if not self.inst.directed:
            w, V = eigsh(B, k=1, which="LA", v0=v0)
        else:
            w, V = eigs(B, k=1, which="LM", v0=v0)
        return float(w[0].real), V[:, 0].real

    @staticmethod
    def _positive_unit(v):
        v = v * np.sign(v[np.argmax(np.abs(v))])
        return v / np.linalg.norm(v)

    def _triple(self, B):
        v0 = np.ones(B.shape[0])
        rho, x = self._right(B, v0)
        x = self._positive_unit(x)
        if self.inst.directed:
            _, y = self._right(B.T.tocsr(), v0)
            y = self._positive_unit(y)
        else:
            y = x
        return rho, x, y

    def edited(self, delta: dict):
        """B + D, D given as {(a, b): change}; entries that reach 0 vanish."""
        r, c = zip(*delta)
        D = sp.csr_matrix((list(delta.values()), (r, c)), shape=self.B.shape)
        B2 = (self.B + D).tocsr()
        B2.eliminate_zeros()
        return B2

    def edited_rho(self, delta: dict) -> float:
        return self._right(self.edited(delta), self.x)[0]

    def connected_after(self, delta: dict) -> bool:
        n_comp, _ = connected_components(self.edited(delta), directed=True,
                                         connection="strong")
        return n_comp == 1

    # -- edges ---------------------------------------------------------------

    def parse_edge(self, s):
        """'i-j-k-l' -> supra arc (a, b), or None when malformed/out of range."""
        try:
            i, j, k, l = (int(t) for t in s.split("-"))
        except (AttributeError, ValueError):
            return None
        N, L = self.inst.N, self.inst.L
        if not (1 <= i <= N and 1 <= j <= N and 1 <= k <= L and 1 <= l <= L):
            return None
        return (k - 1) * N + i - 1, (l - 1) * N + j - 1

    def show(self, a, b) -> str:
        N = self.inst.N
        return edge_str(a % N + 1, b % N + 1, a // N + 1, b // N + 1)

    def score(self, a, b) -> float:
        return self.kappa * float(self.y[a]) * float(self.x[b])

    def removal_order(self):
        """Removable edges in increasing score order, as the program walks
        them: one per undirected edge, intra-layer pairs shown with i < j."""
        a, b = self.inst.src, self.inst.dst
        if not self.inst.directed:
            a, b = np.minimum(a, b), np.maximum(a, b)
        s = self.kappa * self.y[a] * self.x[b]
        N = self.inst.N
        order = np.lexsort((b % N, a % N, b // N, a // N, _tie_key(s)))
        return list(zip(a[order].tolist(), b[order].tolist()))

    def top_insertions(self, top_k):
        """Top unordered intra-layer pairs of a multiplex by the larger
        directional product.  A pair of the top k has both ends within the
        top k+1 entries of y and x, so a grid of that size is exact."""
        N, m = self.inst.N, max(64, 2 * top_k + 2)
        best = {}
        for l in range(self.inst.L):
            sel = slice(l * N, (l + 1) * N)
            ty = np.argsort(-self.y[sel], kind="stable")[:m] + l * N
            tx = np.argsort(-self.x[sel], kind="stable")[:m] + l * N
            for a in ty.tolist():
                for b in tx.tolist():
                    if a == b:
                        continue
                    key = (min(a, b), max(a, b))
                    s = self.score(a, b)
                    if s > best.get(key, -1.0):
                        best[key] = s
        keys = list(best)
        ties = _tie_key(list(best.values()))
        order = sorted(range(len(keys)),
                       key=lambda t: (-ties[t], keys[t][0] // N, keys[t][1] // N,
                                      keys[t][0] % N, keys[t][1] % N))
        return [keys[t] for t in order[:top_k]]

    def removal_delta(self, a, b, mirror):
        delta = {(a, b): -self.arcs[(a, b)]}
        if (b, a) in self.arcs and (mirror or not self.inst.directed):
            delta[(b, a)] = -self.arcs[(b, a)]
        return delta


# ---------------------------------------------------------------------------
# per-command checks


def _check_report(rep, orc, errs, keys):
    for key in keys:
        exact = {"rho": orc.rho, "kappa": orc.kappa}[key]
        if not close6(rep.get(key), exact):
            errs.append(f"report {key}={rep.get(key)!r}, oracle {exact:.9g}")


def _structured_kappas(orc):
    """(kappa_D, kappa_S) of an undirected multiplex, whose stored edges
    each carry both arcs."""
    inst, N = orc.inst, orc.inst.N
    yx = float(orc.y @ orc.x)
    blocks = sum(float(orc.y[l * N:(l + 1) * N] @ orc.y[l * N:(l + 1) * N])
                 * float(orc.x[l * N:(l + 1) * N] @ orc.x[l * N:(l + 1) * N])
                 for l in range(inst.L))
    masked = float(np.sum((orc.y[inst.src] * orc.x[inst.dst]) ** 2)
                   + np.sum((orc.y[inst.dst] * orc.x[inst.src]) ** 2))
    return math.sqrt(blocks) / yx, math.sqrt(masked) / yx


def _check_kappa_chain(rep, orc, errs):
    kd, ks = _structured_kappas(orc)
    for key, exact in (("kappa_D", kd), ("kappa_S", ks)):
        if not close6(rep.get(key), exact):
            errs.append(f"report {key}={rep.get(key)!r}, oracle {exact:.9g}")
    try:
        if not rep["kappa_S"] <= rep["kappa_D"] <= rep["kappa"]:
            errs.append("kappa_S <= kappa_D <= kappa violated")
    except (KeyError, TypeError):
        errs.append("structured condition numbers missing")


def _check_ranked(rows, expected, orc, errs, what, existing):
    """Rows must name the expected arcs in order, up to exact score ties."""
    if len(rows) != len(expected):
        errs.append(f"{what}: {len(rows)} rows, oracle expects {len(expected)}")
        return []
    arcs, seen = [], set()
    for pos, (row, (ea, eb)) in enumerate(zip(rows, expected)):
        ab = orc.parse_edge(row.get("edge"))
        if ab is None:
            errs.append(f"{what} row {pos}: bad edge {row.get('edge')!r}")
            return []
        if existing and ab not in orc.arcs:
            errs.append(f"{what} row {pos}: edge {row['edge']} does not exist")
            return []
        if ab in seen:
            errs.append(f"{what} row {pos}: edge {row['edge']} repeated")
        seen.add(ab)
        s, s_exp = orc.score(*ab), orc.score(ea, eb)
        if ab != (ea, eb) and abs(s - s_exp) > _TIE_REL * s_exp:
            errs.append(f"{what} row {pos}: {row['edge']}, oracle "
                        f"{orc.show(ea, eb)}")
        if not close6(row.get("score"), s):
            errs.append(f"{what} row {pos}: score {row.get('score')!r}, "
                        f"oracle {s:.9g}")
        arcs.append(ab)
    return arcs


def _check_rho_new(value, exact, orc, errs, what, direction):
    if not close6(value, exact):
        errs.append(f"{what}: rho_new {value!r}, oracle {exact:.9g}")
    elif direction * (value - _round6(orc.rho)) < 0:
        errs.append(f"{what}: rho_new {value!r} moved the wrong way from "
                    f"rho {orc.rho:.9g}")


def _round6(v):
    return float(f"{v:.6g}")


def check_spectrum(doc, orc, **_):
    errs = []
    rep = doc.get("report", {})
    _check_report(rep, orc, errs, ("rho", "kappa"))
    tol = 1e-10 * max(1.0, orc.rho) * 1.00001
    for key in ("residual_right", "residual_left"):
        if not (isinstance(rep.get(key), float) and 0 <= rep[key] <= tol):
            errs.append(f"report {key}={rep.get(key)!r} above tolerance")
    if orc.inst.kind == "multiplex":
        _check_kappa_chain(rep, orc, errs)
    return errs


def check_sensitivity(doc, orc, top_k, eps, **_):
    errs = []
    rep = doc.get("report", {})
    _check_report(rep, orc, errs, ("rho", "kappa"))
    # W = y x^T has unit Frobenius norm, so |S|_F = kappa and the
    # worst-case first-order shift is eps * kappa
    for key, exact in (("sensitivity_fro_norm", orc.kappa),
                       ("worst_case_shift_at_epsilon", eps * orc.kappa)):
        if not close6(rep.get(key), exact):
            errs.append(f"report {key}={rep.get(key)!r}, oracle {exact:.9g}")
    if orc.inst.kind == "multiplex":
        _check_kappa_chain(rep, orc, errs)
    rows = doc.get("rows", [])
    up = [r for r in rows if r.get("direction") == "increase"]
    down = [r for r in rows if r.get("direction") == "decrease"]
    if len(up) + len(down) != len(rows):
        errs.append("rows with an unknown direction")
    _check_ranked(up, orc.top_insertions(top_k), orc, errs, "increase", False)
    _check_ranked(down, orc.removal_order()[:top_k], orc, errs, "decrease", True)
    return errs


def check_rank_remove(doc, orc, top_k, **_):
    errs = []
    rep = doc.get("report", {})
    _check_report(rep, orc, errs, ("rho", "kappa"))
    expected = []
    for a, b in orc.removal_order():
        if len(expected) == top_k:
            break
        if orc.connected_after(orc.removal_delta(a, b, mirror=False)):
            expected.append((a, b))
    rows = doc.get("rows", [])
    arcs = _check_ranked(rows, expected, orc, errs, "remove", True)
    for pos, (row, (a, b)) in enumerate(zip(rows, arcs)):
        delta = orc.removal_delta(a, b, mirror=False)
        if row.get("connected_after") is not True or not orc.connected_after(delta):
            errs.append(f"remove row {pos}: {row['edge']} not connected after")
        _check_rho_new(row.get("rho_new"), orc.edited_rho(delta), orc, errs,
                       f"remove row {pos}", -1)
    return errs


def check_experiment_remove(doc, orc, top_k, eps, seed, **_):
    """``experiment --auto --mode remove``: the bottom-k edges, each removed
    with its reverse arc, beside a seeded random existing edge."""
    errs = []
    rep = doc.get("report", {})
    _check_report(rep, orc, errs, ("rho", "kappa"))
    if (rep.get("mode"), rep.get("epsilon"), rep.get("seed")) != ("remove", eps, seed):
        errs.append(f"report mode/epsilon/seed {rep.get('mode')!r}/"
                    f"{rep.get('epsilon')!r}/{rep.get('seed')!r}")
    rows = doc.get("rows", [])
    arcs = _check_ranked(rows, orc.removal_order()[:top_k], orc, errs, "remove", True)
    for pos, (row, (a, b)) in enumerate(zip(rows, arcs)):
        what = f"remove row {pos}"
        if row.get("note") != "":
            errs.append(f"{what}: note {row.get('note')!r}")
        _check_rho_new(row.get("rho_new"),
                       orc.edited_rho(orc.removal_delta(a, b, mirror=True)),
                       orc, errs, what, -1)
        ab = orc.parse_edge(row.get("random_edge"))
        if ab not in orc.arcs:
            errs.append(f"{what}: random edge {row.get('random_edge')!r} "
                        "is not a stored edge")
            continue
        _check_rho_new(row.get("random_rho_new"),
                       orc.edited_rho(orc.removal_delta(*ab, mirror=True)),
                       orc, errs, f"{what} baseline", -1)
    return errs
