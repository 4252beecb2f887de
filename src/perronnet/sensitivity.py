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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .eigen import PerronTriple
from .errors import InfeasibleError, InputError
from .model import (DEFAULT_DENSE_CAP, EdgeKey, MultiplexNetwork, Network,
                    SupraOperator, editable_arcs, flat_index)


# ---------------------------------------------------------------------------
# perturbation operators

class RankOnePerturbation:
    """E = scale * u v^T, stored factored; Frobenius norm = scale*|u||v|."""

    def __init__(self, u: np.ndarray, v: np.ndarray, scale: float = 1.0):
        self.u = np.asarray(u, dtype=float)
        self.v = np.asarray(v, dtype=float)
        self.scale = float(scale)

    @property
    def dim(self) -> int:
        return self.u.size

    def matvec(self, w: np.ndarray) -> np.ndarray:
        return self.scale * self.u * float(self.v @ w)

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        return self.scale * self.v * float(self.u @ w)

    def frobenius_norm(self) -> float:
        return abs(self.scale) * float(np.linalg.norm(self.u) * np.linalg.norm(self.v))

    def scaled(self, factor: float) -> "RankOnePerturbation":
        return RankOnePerturbation(self.u, self.v, self.scale * factor)

    def toarray(self) -> np.ndarray:
        return self.scale * np.outer(self.u, self.v)


class BlockRankOnePerturbation:
    """Block-diagonal perturbation with one rank-one term per layer block."""

    def __init__(self, us, vs, scale: float = 1.0):
        self.us = [np.asarray(u, dtype=float) for u in us]
        self.vs = [np.asarray(v, dtype=float) for v in vs]
        self.scale = float(scale)
        self.N = self.us[0].size
        self.L = len(self.us)

    @property
    def dim(self) -> int:
        return self.N * self.L

    def matvec(self, w: np.ndarray) -> np.ndarray:
        W = np.asarray(w, dtype=float).reshape(self.L, self.N)
        out = np.empty_like(W)
        for l in range(self.L):
            out[l] = self.us[l] * float(self.vs[l] @ W[l])
        return self.scale * out.reshape(-1)

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        W = np.asarray(w, dtype=float).reshape(self.L, self.N)
        out = np.empty_like(W)
        for l in range(self.L):
            out[l] = self.vs[l] * float(self.us[l] @ W[l])
        return self.scale * out.reshape(-1)

    def frobenius_norm(self) -> float:
        sq = sum((np.linalg.norm(u) * np.linalg.norm(v)) ** 2
                 for u, v in zip(self.us, self.vs))
        return abs(self.scale) * float(np.sqrt(sq))

    def scaled(self, factor: float) -> "BlockRankOnePerturbation":
        return BlockRankOnePerturbation(self.us, self.vs, self.scale * factor)

    def toarray(self) -> np.ndarray:
        n = self.dim
        out = np.zeros((n, n))
        for l in range(self.L):
            a = l * self.N
            out[a:a + self.N, a:a + self.N] = np.outer(self.us[l], self.vs[l])
        return self.scale * out


class SparsePerturbation:
    """Perturbation given explicitly as a sparse matrix."""

    def __init__(self, matrix: sp.spmatrix):
        self.matrix = matrix.tocsr()
        self._mt = self.matrix.T.tocsr()

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, w: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(w, dtype=float)

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        return self._mt @ np.asarray(w, dtype=float)

    def frobenius_norm(self) -> float:
        return float(np.sqrt((self.matrix.data ** 2).sum()))

    def scaled(self, factor: float) -> "SparsePerturbation":
        return SparsePerturbation(self.matrix * factor)

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()


def perturbed_operator(op: SupraOperator, pert, eps: float) -> SupraOperator:
    """Operator computing (B + eps * E) v without materializing E."""
    return SupraOperator(
        op.dim,
        lambda v: op.matvec(v) + eps * pert.matvec(v),
        lambda v: op.rmatvec(v) + eps * pert.rmatvec(v))


# ---------------------------------------------------------------------------
# worst-case perturbations and the first-order formula

def wilkinson(t: PerronTriple) -> RankOnePerturbation:
    """Worst-case unit-norm perturbation W = y x^T (rank one, so its
    spectral and Frobenius norms both equal 1)."""
    return RankOnePerturbation(t.y, t.x)


def first_order_delta_rho(t: PerronTriple, E, eps: float) -> float:
    """First-order estimate eps * y^T E x / (y^T x) of the root shift under
    B -> B + eps*E.  E may be an ndarray or any object with ``matvec``."""
    Ex = E.matvec(t.x) if hasattr(E, "matvec") else np.asarray(E, dtype=float) @ t.x
    return eps * float(t.y @ Ex) / float(t.y @ t.x)


def structured_wilkinson(t: PerronTriple, cone: str, net: MultiplexNetwork):
    """Worst-case unit-Frobenius perturbation restricted to a cone.

    cone 'D': nonnegative block-diagonal matrices; the projection of W is
    the per-layer outer products y_l x_l^T.  cone 'S': additionally masked
    to the existing intra-layer sparsity.  The returned perturbation is
    normalized to unit Frobenius norm; perturbing by eps times it shifts
    the root by eps * kappa_cone + O(eps^2).
    """
    _require_multiplex(net)
    proj = _project_to_cone(t, cone, net)
    nrm = proj.frobenius_norm()
    if nrm == 0:
        raise InfeasibleError(
            f"projection of the worst-case perturbation onto cone {cone!r} "
            "is zero; no admissible perturbation direction exists")
    return proj.scaled(1.0 / nrm)


def _require_multiplex(net):
    if not isinstance(net, MultiplexNetwork):
        raise InputError("structured sensitivity requires a multiplex network")


def _split_blocks(t: PerronTriple, N: int, L: int):
    ys = [t.y[l * N:(l + 1) * N] for l in range(L)]
    xs = [t.x[l * N:(l + 1) * N] for l in range(L)]
    return ys, xs


def _project_to_cone(t, cone, net):
    ys, xs = _split_blocks(t, net.N, net.L)
    if cone == "D":
        return BlockRankOnePerturbation(ys, xs)
    if cone == "S":
        blocks = []
        for l, A in enumerate(net.layers):
            coo = A.tocoo()
            vals = ys[l][coo.row] * xs[l][coo.col]
            blocks.append(sp.csr_matrix((vals, (coo.row, coo.col)),
                                        shape=(net.N, net.N)))
        return SparsePerturbation(sp.block_diag(blocks, format="csr"))
    raise InputError(f"unknown cone {cone!r}; expected 'D' or 'S'")


def structured_condition_number(t: PerronTriple, cone: str,
                                net: MultiplexNetwork) -> float:
    """kappa_cone = |(y x^T)|_cone|_F / (y^T x)."""
    _require_multiplex(net)
    proj = _project_to_cone(t, cone, net)
    return proj.frobenius_norm() / float(t.y @ t.x)


# ---------------------------------------------------------------------------
# sensitivity entries and matrices

def sensitivity_entry(t: PerronTriple, e: EdgeKey, N: int) -> float:
    """Sensitivity of the root to the single entry (i, j) of block (k, l)."""
    a = flat_index(e.i, e.k, N)
    b = flat_index(e.j, e.l, N)
    if not (0 <= a < t.x.size and 0 <= b < t.x.size):
        raise InputError(f"edge {e} out of range for dimension {t.x.size}")
    return t.kappa * float(t.y[a]) * float(t.x[b])


def symmetric_sensitivity_entry(t: PerronTriple, e: EdgeKey, N: int,
                                directed: bool = False) -> float:
    """Sensitivity to a symmetric (both-direction) perturbation of an
    undirected edge: 2 x_a x_b.  Only meaningful when x = y."""
    if directed:
        raise InputError("symmetric sensitivity requires an undirected network")
    a = flat_index(e.i, e.k, N)
    b = flat_index(e.j, e.l, N)
    return 2.0 * float(t.x[a]) * float(t.x[b])


@dataclass(frozen=True)
class SensitivityMatrix:
    """Per-edge sensitivities in factored or blockwise form.

    variant 'unstructured': values = kappa * y x^T held as a rank-one
    factorization.  variant 'D-structured' / 'S-structured': the L
    diagonal blocks kappa * y_l x_l^T, dense or masked to the layer
    sparsity.  kappa_variant is the Frobenius norm of the stored matrix,
    i.e. the matching condition number.
    """

    variant: str
    N: int
    L: int
    kappa: float
    kappa_variant: float
    _pert: object  # scaled perturbation carrying the actual values

    def entry(self, e: EdgeKey) -> float:
        a = flat_index(e.i, e.k, self.N)
        b = flat_index(e.j, e.l, self.N)
        if isinstance(self._pert, RankOnePerturbation):
            return self._pert.scale * float(self._pert.u[a] * self._pert.v[b])
        if isinstance(self._pert, BlockRankOnePerturbation):
            if e.k != e.l:
                return 0.0
            l = e.k - 1
            return self._pert.scale * float(
                self._pert.us[l][e.i - 1] * self._pert.vs[l][e.j - 1])
        return float(self._pert.matrix[a, b])

    def frobenius_norm(self) -> float:
        return self._pert.frobenius_norm()

    def toarray(self, dense_cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
        n = self.N * self.L
        if n > dense_cap:
            raise InputError(f"materializing order {n} exceeds cap {dense_cap}")
        return self._pert.toarray()

    def argmax_entry(self) -> tuple[EdgeKey, float]:
        """Largest entry over edge positions (supra self-loops excluded)."""
        best = None
        if isinstance(self._pert, RankOnePerturbation):
            # the best off-diagonal product pairs top-two entries of each factor
            order_u = np.argsort(-self._pert.u)[:2]
            order_v = np.argsort(-self._pert.v)[:2]
            for a in order_u:
                for b in order_v:
                    if a == b:
                        continue
                    val = self._pert.scale * self._pert.u[a] * self._pert.v[b]
                    key = EdgeKey(int(a) % self.N + 1, int(b) % self.N + 1,
                                  int(a) // self.N + 1, int(b) // self.N + 1)
                    if best is None or val > best[1]:
                        best = (key, float(val))
            if best is not None:
                return best
            raise InfeasibleError("matrix has no off-diagonal entries")
        arr = self.toarray()
        np.fill_diagonal(arr, -np.inf)
        a, b = np.unravel_index(np.argmax(arr), arr.shape)
        key = EdgeKey(int(a) % self.N + 1, int(b) % self.N + 1,
                      int(a) // self.N + 1, int(b) // self.N + 1)
        return key, float(arr[a, b])


def sensitivity_matrix(t: PerronTriple, N: int, L: int) -> SensitivityMatrix:
    """Unstructured sensitivity matrix kappa * y x^T (rank-one view)."""
    pert = RankOnePerturbation(t.y, t.x, scale=t.kappa)
    return SensitivityMatrix(variant="unstructured", N=N, L=L,
                             kappa=t.kappa, kappa_variant=pert.frobenius_norm(),
                             _pert=pert)


def sensitivity_matrix_multiplex(t: PerronTriple,
                                 net: MultiplexNetwork) -> SensitivityMatrix:
    """Block-diagonal (cone D) sensitivity matrix kappa * (y x^T)|_D."""
    _require_multiplex(net)
    ys, xs = _split_blocks(t, net.N, net.L)
    pert = BlockRankOnePerturbation(ys, xs, scale=t.kappa)
    return SensitivityMatrix(variant="D-structured", N=net.N, L=net.L,
                             kappa=t.kappa, kappa_variant=pert.frobenius_norm(),
                             _pert=pert)


def structured_sensitivity_matrix(t: PerronTriple,
                                  net: MultiplexNetwork) -> SensitivityMatrix:
    """Sparsity-masked (cone S) sensitivity matrix kappa * (y x^T)|_S."""
    _require_multiplex(net)
    proj = _project_to_cone(t, "S", net)
    scaled = SparsePerturbation(t.kappa * proj.matrix)
    return SensitivityMatrix(variant="S-structured", N=net.N, L=net.L,
                             kappa=t.kappa, kappa_variant=scaled.frobenius_norm(),
                             _pert=scaled)


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
