"""Perron communicability, layer centralities, and versatility.

The global communicability of a network with supra spectral radius rho
and Perron vectors x, y is

    c_pn = exp0(rho) * (1^T y) (x^T 1),      exp0(t) = e^t - 1,

bounded by  exp0(rho) <= c_pn <= NL * exp0(rho) * cos(phi), where phi is
the angle between the marginal layer centrality vectors.  Reshaping x
and y into N x L matrices (column l = the l-th block of length N) gives
per-node-per-layer scores whose column sums are the marginal layer
centralities and whose row sums are the node versatilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .eigen import DEFAULT_MAX_ITER, DEFAULT_TOL, PerronTriple, perron
from .errors import InputError
from .model import Network, supra_operator


def exp0(t: float) -> float:
    """e^t - 1, stable for small arguments; inf past the float range."""
    try:
        return math.expm1(t)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Eigentensors:
    """N x L reshapes of the Perron vectors: X[i-1, l-1] = x[N(l-1)+i-1]."""

    X: np.ndarray
    Y: np.ndarray


@dataclass(frozen=True)
class CommunicabilityReport:
    c_pn: float
    lower: float
    upper_basic: float
    upper_cos: float
    c_Y: np.ndarray
    c_X: np.ndarray
    phi: float
    versatility: np.ndarray


def eigentensors(t: PerronTriple, N: int, L: int) -> Eigentensors:
    """Reshape the Perron vectors column-by-column into N x L matrices."""
    if N * L != t.x.size:
        raise InputError(f"N*L = {N * L} does not match vector length {t.x.size}")
    return Eigentensors(X=t.x.reshape(L, N).T.copy(),
                        Y=t.y.reshape(L, N).T.copy())


def marginal_layer_centralities(e: Eigentensors):
    """Column sums of the eigentensors: per-layer aggregate centrality."""
    return e.Y.sum(axis=0), e.X.sum(axis=0)


def versatility(e: Eigentensors, weights=None) -> np.ndarray:
    """Row sums of Y, optionally reweighted per layer: nu = Y w."""
    L = e.Y.shape[1]
    if weights is None:
        weights = np.ones(L)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (L,):
        raise InputError(f"weights must have length {L}")
    if not np.isfinite(weights).all():
        raise InputError("weights must be finite")
    if (weights < 0).any():
        raise InputError("weights must be nonnegative")
    return e.Y @ weights


def perron_communicability(t: PerronTriple, N: int, L: int) -> CommunicabilityReport:
    """Full communicability report for a solved Perron triple.

    The direct sum form exp0(rho)*(sum y)*(sum x) and the marginal form
    exp0(rho) * c_Y . c_X agree algebraically; both are computed here and
    the report carries the direct value.
    """
    e = eigentensors(t, N, L)
    c_Y, c_X = marginal_layer_centralities(e)
    ex = exp0(t.rho)
    c_pn = ex * float(t.y.sum()) * float(t.x.sum())
    denom = float(np.linalg.norm(c_Y) * np.linalg.norm(c_X))
    cos_phi = float(c_Y @ c_X) / denom if denom > 0 else 1.0
    cos_phi = min(1.0, max(-1.0, cos_phi))
    # acos is ill-conditioned near cos_phi = 1 (it turns a one-ulp error
    # into phi ~ 1.5e-8); the half-angle form gives phi = 0 for c_Y = c_X
    phi = 0.0
    if denom > 0:
        a = c_Y / np.linalg.norm(c_Y)
        b = c_X / np.linalg.norm(c_X)
        phi = 2.0 * math.atan2(float(np.linalg.norm(a - b)),
                               float(np.linalg.norm(a + b)))
    nl = N * L
    return CommunicabilityReport(
        c_pn=c_pn,
        lower=ex,
        upper_basic=nl * ex,
        upper_cos=nl * ex * cos_phi,
        c_Y=c_Y,
        c_X=c_X,
        phi=phi,
        versatility=versatility(e),
    )


def total_communicability0(net: Network) -> float:
    """1^T (exp(B) - I) 1 from the action of exp(B) on the ones vector
    (Al-Mohy and Higham, 2011), on the sparse supra matrix; inf past the
    float range.

    The comparison quantity of Perron communicability: for networks
    whose Perron root dominates the rest of the spectrum this is
    approximately kappa(rho) * c_pn.
    """
    from scipy.sparse.linalg import expm_multiply
    n = net.dim
    total = float(expm_multiply(net.supra, np.ones(n)).sum())
    if math.isfinite(total):
        return total - n
    # the products overflow once 1^T exp(B) 1 passes about 1e307; with c the
    # log of the largest float, s = 1^T exp(B - cI) 1 = e^-c 1^T exp(B) 1 is
    # at most 1 for every finite value.  (A bound on rho such as the largest
    # row sum can exceed log(1^T exp(B) 1) by over 745 on a skewed directed
    # network, and then s underflows to 0.)
    c = math.log(np.finfo(float).max)
    s = float(expm_multiply(net.supra - c * sp.identity(n), np.ones(n)).sum())
    try:
        return math.exp(c + math.log(s)) - n
    except OverflowError:
        return math.inf


def hub_authority_communicability(net: Network, tol: float = DEFAULT_TOL,
                                  max_iter: int = DEFAULT_MAX_ITER):
    """Perron communicabilities of the Gram operators B B^T and B^T B.

    Both share one spectral radius; for symmetric networks the two values
    coincide.  Returns (hub, authority).
    """
    op = supra_operator(net)
    out = []
    for gram in (op @ op.H, op.H @ op):
        gram.symmetric = True  # B B^T and B^T B are, for any B
        t = perron(gram, tol=tol, max_iter=max_iter)
        s = float(t.x.sum())
        out.append(exp0(t.rho) * s * s)
    return tuple(out)
