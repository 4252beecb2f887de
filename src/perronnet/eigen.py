"""Perron root and Perron vectors of a nonnegative irreducible operator.

The dominant eigenpair problem

    B x = rho x,    y^T B = rho y^T,

is solved by two-sided power iteration on the matrix-free operator; a
dense full eigendecomposition is available as an independent oracle for
small instances.  Vectors are normalized to unit Euclidean norm with all
entries positive, so the condition number of the root is
kappa = 1 / (y^T x) = 1 / cos(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError
from .model import SupraOperator

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

# entries of converged Perron vectors may only dip below zero by rounding noise
_POSITIVITY_SLACK = 1e-12


@dataclass(frozen=True)
class PerronTriple:
    """Dominant eigen-triple of a nonnegative irreducible operator.

    rho is the spectral radius, x / y the right / left unit-norm positive
    eigenvectors, kappa = 1/(y^T x) the eigenvalue condition number.
    residuals holds the final (right, left) residual norms.
    """

    rho: float
    x: np.ndarray
    y: np.ndarray
    kappa: float
    residuals: tuple[float, float]
    iterations: int


def condition_number(t: PerronTriple) -> float:
    """kappa(rho) = 1 / (y^T x): worst-case first-order amplification of a
    unit-norm perturbation into a shift of the root."""
    return 1.0 / float(t.y @ t.x)


def _start_vector(v0, n: int) -> np.ndarray:
    if v0 is None:
        return np.full(n, 1.0 / np.sqrt(n))
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (n,) or (v0 <= 0).any():
        raise InputError("start vector must be strictly positive of length n")
    return v0 / np.linalg.norm(v0)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Orient v so its largest-magnitude entry is positive, clamp rounding
    negatives to zero, renormalize.  Raises if genuinely signed."""
    v = np.array(v, dtype=float)
    v *= np.sign(v[np.argmax(np.abs(v))]) or 1.0
    if v.min() < -_POSITIVITY_SLACK * max(1.0, np.abs(v).max()):
        raise ConvergenceError(
            "computed eigenvector has nonpositive entries; the operator is "
            "likely reducible or the iteration broke down")
    np.clip(v, 0.0, None, out=v)
    n = np.linalg.norm(v)
    if n == 0:
        raise ConvergenceError("computed eigenvector vanished")
    return v / n


def perron(op: SupraOperator, tol: float = DEFAULT_TOL,
           max_iter: int = DEFAULT_MAX_ITER,
           x0: np.ndarray | None = None,
           y0: np.ndarray | None = None) -> PerronTriple:
    """Two-sided power iteration for the Perron triple of ``op``.

    Both iterates start from the strictly positive vector 1/sqrt(NL)
    (which cannot be orthogonal to the Perron vectors) unless warm-start
    vectors x0/y0 are supplied, e.g. the Perron pair of a nearby
    operator.  The iteration runs on the diagonally shifted operator
    B + sigma*I (sigma = half the largest row sum), which has the same
    Perron vectors but a strictly dominant root even for periodic
    graphs, whose supra spectra contain further eigenvalues of modulus
    rho.  The root estimate is the two-sided Rayleigh quotient
    y^T B x / (y^T x); convergence requires both residual norms and the
    root change to fall below tol * max(1, rho).
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    n = op.dim
    sigma = 0.5 * float(np.max(op.matvec(np.ones(n))))
    u = _start_vector(x0, n)
    v = u.copy() if y0 is None and x0 is None else _start_vector(y0, n)
    rho_prev = np.inf
    rho = 0.0
    res_r = res_l = np.inf

    for it in range(1, max_iter + 1):
        w = op.matvec(u)
        z = op.rmatvec(v)
        vu = float(v @ u)
        if vu <= 0:
            raise ConvergenceError(
                "left/right iterates lost overlap; operator may be reducible",
                iterations=it, residuals=(res_r, res_l))
        rho = float(v @ w) / vu
        scale = max(1.0, abs(rho))
        res_r = float(np.linalg.norm(w - rho * u))
        res_l = float(np.linalg.norm(z - rho * v))
        if not (math.isfinite(rho) and math.isfinite(res_r) and math.isfinite(res_l)):
            raise ConvergenceError(
                f"non-finite iterate at iteration {it} (rho = {rho}, "
                f"residuals {res_r}/{res_l}): the operator or a start vector "
                "holds inf or NaN, or its products overflow",
                iterations=it, residuals=(res_r, res_l))
        if (res_r <= tol * scale and res_l <= tol * scale
                and abs(rho - rho_prev) <= tol * scale):
            x = _fix_sign(u)
            y = _fix_sign(v)
            kappa = 1.0 / float(y @ x)
            return PerronTriple(rho=rho, x=x, y=y, kappa=kappa,
                                residuals=(res_r, res_l), iterations=it)
        w += sigma * u
        z += sigma * v
        nw = np.linalg.norm(w)
        nz = np.linalg.norm(z)
        if nw == 0 or nz == 0:
            raise ConvergenceError(
                "iterate annihilated; operator has a zero row or column",
                iterations=it, residuals=(res_r, res_l))
        u = w / nw
        v = z / nz
        rho_prev = rho

    raise ConvergenceError(
        f"no convergence after {max_iter} iterations "
        f"(rho ~ {rho:.6g}, residuals {res_r:.3e}/{res_l:.3e})",
        iterations=max_iter, residuals=(res_r, res_l))


def perron_dense_oracle(m: np.ndarray, imag_tol: float = 1e-8) -> PerronTriple:
    """Perron triple from a full dense eigendecomposition (verification path).

    Solves the complete nonsymmetric eigenproblem of ``m`` and of its
    transpose and extracts the dominant pair under the same normalization
    contract as :func:`perron`.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("expected a square matrix")

    def dominant(w):
        # periodic graphs put several eigenvalues on the spectral circle;
        # the Perron root is the real positive one among them
        near = np.abs(w) >= (1.0 - 1e-9) * np.abs(w).max()
        cands = np.flatnonzero(near)
        return int(cands[np.argmax(w[cands].real)])

    wr, vr = np.linalg.eig(m)
    kr = dominant(wr)
    if abs(wr[kr].imag) > imag_tol * max(1.0, abs(wr[kr])):
        raise ConvergenceError(
            f"dominant eigenvalue has imaginary part {wr[kr].imag:.3e}; "
            "input is likely not irreducible nonnegative")
    rho = float(wr[kr].real)
    x = _fix_sign(vr[:, kr].real)

    wl, vl = np.linalg.eig(m.T)
    kl = dominant(wl)
    y = _fix_sign(vl[:, kl].real)

    res_r = float(np.linalg.norm(m @ x - rho * x))
    res_l = float(np.linalg.norm(m.T @ y - rho * y))
    kappa = 1.0 / float(y @ x)
    return PerronTriple(rho=rho, x=x, y=y, kappa=kappa,
                        residuals=(res_r, res_l), iterations=0)
