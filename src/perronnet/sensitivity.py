"""First-order sensitivity of the Perron root to edge-weight changes.

For a nonnegative unit-norm perturbation E of the supra matrix, the root
shift is  delta_rho = eps * y^T E x / (y^T x) + O(eps^2), maximized over
all such E by the rank-one worst-case perturbation W = y x^T.  The
per-edge sensitivities

    s(i, j, k, l) = kappa(rho) * y[N(k-1)+i] * x[N(l-1)+j]

assemble into the matrix kappa(rho) * W, whose Frobenius norm equals
kappa(rho).  For multiplex networks only intra-layer entries are
editable, so the admissible perturbations live in the cone D of
nonnegative block-diagonal matrices (further restricted to the existing
sparsity pattern: cone S).  Projecting W into a cone and renormalizing
gives the structured worst-case perturbation and the structured
condition numbers  kappa_S <= kappa_D <= kappa.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from .eigen import PerronTriple, _dot
from .errors import DenseCapError, InfeasibleError, InputError
from .model import DEFAULT_DENSE_CAP, EdgeKey, Network, editable_arcs


# ---------------------------------------------------------------------------
# the masked worst-case perturbation

class SensitivityMatrix(LinearOperator):
    """scale * diag(y) M diag(x): the worst-case perturbation y x^T of the
    Perron triple ``t``, masked by a 0/1 matrix M and scaled.

    M is block-diagonal with diagonal blocks of order ``block``.  With
    ``arcs`` None its blocks are all ones: ``block`` NL leaves y x^T whole,
    ``block`` N projects it onto the cone D of a multiplex.  Otherwise M
    is one exactly at the int64 supra positions ``arcs = (rows, cols)``,
    the stored intra-layer arcs (cone S).  ``variant`` names the mask, ``N``
    and ``L`` the network's shape, ``kappa`` the root's condition number.
    """

    def __init__(self, t: PerronTriple, scale: float, N: int, block: int,
                 arcs=None, variant: str = "unstructured"):
        n = t.x.size
        super().__init__(float, (n, n))
        self.y, self.x, self.kappa = t.y, t.x, t.kappa
        self.scale, self.N, self.L = float(scale), N, n // N
        self.block, self.arcs, self.variant = block, arcs, variant

    def _mask(self, z: np.ndarray, transpose: bool = False) -> np.ndarray:
        """M z, or M^T z with ``transpose``."""
        if self.arcs is None:
            return np.repeat(z.reshape(-1, self.block).sum(axis=1), self.block)
        rows, cols = self.arcs[::-1] if transpose else self.arcs
        return np.bincount(rows, weights=z[cols], minlength=z.size)

    def _mask_at(self, a, b):
        """M[a, b] for broadcastable arrays of supra positions."""
        if self.arcs is None:
            return a // self.block == b // self.block
        n = self.shape[0]
        rows, cols = self.arcs
        return np.isin(a * n + b, rows * n + cols)

    def _matvec(self, w):
        return self.scale * self.y * self._mask(self.x * np.ravel(w))

    def _rmatvec(self, w):
        return self.scale * self.x * self._mask(self.y * np.ravel(w), True)

    def frobenius_norm(self) -> float:
        """|scale| * sqrt((y o y)^T M (x o x))."""
        yMx = _dot(self.y * self.y, self._mask(self.x * self.x))
        return abs(self.scale) * math.sqrt(yMx)

    @property
    def kappa_variant(self) -> float:
        """The Frobenius norm: the condition number of the variant."""
        return self.frobenius_norm()

    def entry(self, e: EdgeKey) -> float:
        """Entry of the arc ``e``, checked against the network's N and L."""
        a, b = e.arc(self.N, self.L)
        return (self.scale * float(self.y[a]) * float(self.x[b])
                * float(self._mask_at(a, b)))

    def toarray(self) -> np.ndarray:
        n = self.shape[0]
        if n > DEFAULT_DENSE_CAP:
            raise DenseCapError(
                f"materializing order {n} exceeds cap {DEFAULT_DENSE_CAP}")
        pos = np.arange(n)
        return np.outer(self.scale * self.y, self.x) * self._mask_at(pos[:, None], pos)

    def argmax_entry(self) -> tuple[EdgeKey, float]:
        """Largest entry over edge positions (supra self-loops excluded),
        ties going to the first in row-major order, as in a dense argmax."""
        sy = self.scale * self.y
        if self.arcs is None:
            # the largest off-diagonal entry of an all-ones block pairs two
            # of its block's largest sy with two of its largest x
            k = min(2, self.block)
            start = np.arange(0, sy.size, self.block)[:, None]
            top = [np.argsort(-v.reshape(-1, self.block), axis=1,
                              kind="stable")[:, :k] + start for v in (sy, self.x)]
            a, b = (p.ravel() for p in np.broadcast_arrays(top[0][:, :, None],
                                                            top[1][:, None, :]))
        else:
            a, b = self.arcs
        keep = a != b
        a, b = a[keep], b[keep]
        if not a.size:
            raise InfeasibleError("matrix has no off-diagonal entries")
        val = sy[a] * self.x[b]
        p = np.lexsort((b, a, -val))[0]
        return EdgeKey.at(a[p], b[p], self.N), float(val[p])


# ---------------------------------------------------------------------------
# worst-case perturbations and the first-order formula

def wilkinson(t: PerronTriple) -> SensitivityMatrix:
    """Worst-case unit-norm perturbation W = y x^T (rank one, so its
    spectral and Frobenius norms both equal 1)."""
    return SensitivityMatrix(t, 1.0, t.x.size, t.x.size)


def first_order_delta_rho(t: PerronTriple, E, eps: float) -> float:
    """First-order estimate eps * y^T E x / (y^T x) of the root shift under
    B -> B + eps*E.  E is an ndarray, a sparse matrix or a LinearOperator."""
    return eps * _dot(t.y, E @ t.x) / _dot(t.y, t.x)


def _cone(t: PerronTriple, cone: str, net: Network,
          scale: float) -> SensitivityMatrix:
    """scale * (y x^T) projected onto cone 'D' (block-diagonal) or 'S'
    (masked to the stored intra-layer arcs)."""
    if not net.multiplex:
        raise InputError("structured sensitivity requires a multiplex network")
    if cone == "D":
        return SensitivityMatrix(t, scale, net.N, net.N, variant="D-structured")
    if cone == "S":
        return SensitivityMatrix(t, scale, net.N, net.N, editable_arcs(net)[:2],
                                 variant="S-structured")
    raise InputError(f"unknown cone {cone!r}; expected 'D' or 'S'")


def structured_wilkinson(t: PerronTriple, cone: str,
                         net: Network) -> SensitivityMatrix:
    """Worst-case unit-Frobenius perturbation restricted to a cone.

    cone 'D': nonnegative block-diagonal matrices; the projection of W is
    the per-layer outer products y_l x_l^T.  cone 'S': additionally masked
    to the existing intra-layer sparsity.  The returned perturbation is
    normalized to unit Frobenius norm; perturbing by eps times it shifts
    the root by eps * kappa_cone + O(eps^2).
    """
    nrm = _cone(t, cone, net, 1.0).frobenius_norm()
    if nrm == 0:
        raise InfeasibleError(
            f"projection of the worst-case perturbation onto cone {cone!r} "
            "is zero; no admissible perturbation direction exists")
    return _cone(t, cone, net, 1.0 / nrm)


def structured_condition_number(t: PerronTriple, cone: str,
                                net: Network) -> float:
    """kappa_cone = |(y x^T)|_cone|_F / (y^T x)."""
    return _cone(t, cone, net, 1.0).frobenius_norm() / _dot(t.y, t.x)


# ---------------------------------------------------------------------------
# sensitivity entries and matrices

def arc_sensitivity(t: PerronTriple, a, b):
    """Sensitivity kappa * y_a * x_b of the root to the supra entry (a, b),
    elementwise on arrays of positions.  Every arc score is rounded this
    one way, as (kappa * y_a) * x_b, so that one arc never carries two
    scores."""
    return (t.kappa * t.y[a]) * t.x[b]


def sensitivity_entry(t: PerronTriple, e: EdgeKey, N: int) -> float:
    """Sensitivity of the root to the single entry (i, j) of block (k, l)."""
    a, b = e.arc(N, t.x.size // N)
    return float(arc_sensitivity(t, a, b))


def symmetric_sensitivity_entry(t: PerronTriple, e: EdgeKey, N: int,
                                directed: bool = False) -> float:
    """Sensitivity to a symmetric (both-direction) perturbation of an
    undirected edge: 2 x_a x_b.  Only meaningful when x = y."""
    if directed:
        raise InputError("symmetric sensitivity requires an undirected network")
    a, b = e.arc(N, t.x.size // N)
    return 2.0 * float(t.x[a]) * float(t.x[b])


def sensitivity_matrix(t: PerronTriple, N: int, L: int) -> SensitivityMatrix:
    """Unstructured sensitivity matrix kappa * y x^T (rank-one view)."""
    if N * L != t.x.size:
        raise InputError(f"N*L = {N * L} does not match vector length {t.x.size}")
    return SensitivityMatrix(t, t.kappa, N, N * L)


def sensitivity_matrix_multiplex(t: PerronTriple,
                                 net: Network) -> SensitivityMatrix:
    """Block-diagonal (cone D) sensitivity matrix kappa * (y x^T)|_D."""
    return _cone(t, "D", net, t.kappa)


def structured_sensitivity_matrix(t: PerronTriple,
                                  net: Network) -> SensitivityMatrix:
    """Sparsity-masked (cone S) sensitivity matrix kappa * (y x^T)|_S."""
    return _cone(t, "S", net, t.kappa)


def spectral_impact(net: Network, t: PerronTriple) -> sp.csr_matrix:
    """Per-existing-edge first-order removal impact -(1/rho) B o S.

    Computed in one pass over the supra-indexed arc arrays of
    :func:`~perronnet.model.editable_arcs`, so for multiplex networks the
    Hadamard mask covers intra-layer entries only: the gamma coupling is
    structural and not removable.  All entries are <= 0; the sparsity
    equals that of the (masked) supra matrix.
    """
    rows, cols, w = editable_arcs(net)
    vals = -(t.kappa / t.rho) * w * t.y[rows] * t.x[cols]
    return sp.csr_matrix((vals, (rows, cols)), shape=(net.dim, net.dim))
