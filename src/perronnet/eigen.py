"""Perron root and Perron vectors of a nonnegative irreducible operator.

The dominant eigenpair problem

    B x = rho x,    y^T B = rho y^T,

is solved matrix-free once on B for x and once on B^T for y, except
that an x which already solves the left problem (every symmetric
operator) is taken as y.  Which solver runs when:

- a solve of an operator marked symmetric (undirected input, Gram
  operators), cold or warm, runs the plain Lanczos recurrence (Lanczos,
  1950; Paige, 1976) on x.  It takes the largest eigenvalue, the Perron
  root also where -rho is one (bipartite graphs).  Its error falls at a
  rate set by the square root of the relative spectral gap, the power
  iteration's by the gap itself: 27 products against 52-56 on the
  benchmark's undirected multiplexes, and 40 on an airlines-shaped one
  (N=417, L=37), which the power iteration hands to ARPACK.  A Ritz
  vector that fails the sign test, as the zero entries of a reducible
  operator's Perron vector can, goes to the power iteration;
- any other cold solve runs each side first by the power iteration of
  :func:`perron_block`, one column without an update, accepted by the
  right residual test of :func:`perron`.  It pays where
  the spectral gap is large: on the benchmark's directed networks it
  accepts each side in 30-55 products, where ARPACK spends most of its
  time in its own bookkeeping and its Python reverse-communication loop
  around products of a few tens of microseconds.  A side it hands over
  (a periodic, reducible or small-gap operator) costs its first check
  step and at least one stall interval of products more than ARPACK
  alone;
- ARPACK's implicitly restarted Arnoldi method (Lehoucq, Sorensen and
  Yang, 1998), through ``scipy.sparse.linalg.eigs``, solves a side that
  either hands over, a warm start on an unmarked operator and the
  machine-precision retry.

Every product, of any solver, is counted in ``iterations`` and against
the budget ``max_iter``, and a non-finite one fails at once.  Inner
products and norms are summed by numpy's own loop, not BLAS, so that a
triple's bits do not depend on the BLAS thread count.

Operators of order < 3, which ARPACK cannot take, are solved densely
from n products each; their vectors pass the same certification.  A
dense full eigendecomposition is available as an independent oracle
for small instances.  Vectors are normalized to unit Euclidean norm
with all entries positive, so the condition number of the root is
kappa = 1 / (y^T x) = 1 / cos(theta).

Re-solves of many small perturbations B + E_j of one operator, each E_j
a one- or two-entry update, go through :func:`perron_block`.  It solves
only their roots, on B alone, each certified by a Collatz-Wielandt
bracket, or leaves a column to :func:`perron`.

ARPACK runs with the OpenBLAS that scipy bundles set to one thread.  Its
BLAS calls are small matrix-vector products on n x ncv blocks, which
OpenBLAS may split across threads: when another core is busy, each such
call waits for it, and one solve can take several times as long.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.sparse.linalg import (ArpackError, LinearOperator,
                                  aslinearoperator, eigs)

from .errors import ConvergenceError, InputError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

# entries of converged Perron vectors may only dip below zero by rounding
# noise: the dense oracle's slack, and the iterative solvers' at machine
# precision
_POSITIVITY_SLACK = 1e-12

# Steps after which perron_block hands a column to perron().  On the
# benchmark's directed N=1000, L=4 networks (2-core machine) a warm ARPACK
# re-solve takes about 4.8 ms for its 47 products, both sides and the
# checks (a product alone takes about 0.036 ms), while a block step of
# ten columns costs a column about 0.026 ms: 60 steps cost about a third
# of what one warm re-solve does.  The cap admits a column whose error
# must shrink by 1e-7 at a gap ratio |lambda_2| / rho up to about 0.76;
# those rows need 20-33 steps.
BLOCK_MAX_STEPS = 60

# Most steps between two checks of a column in perron_block.  At each
# check a column whose bracket width (in perron()'s power iteration, its
# residual), shrinking at the rate it did since its previous check, would
# not reach its bound by BLOCK_MAX_STEPS is handed to perron() at once,
# so a block of periodic or small-gap columns stops after a few steps,
# not at the cap.
_STALL_STEPS = 5


@dataclass(frozen=True)
class PerronTriple:
    """Dominant eigen-triple of a nonnegative irreducible operator.

    rho is the spectral radius, x / y the right / left unit-norm positive
    eigenvectors, kappa = 1/(y^T x) the eigenvalue condition number.
    residuals holds the final (right, left) residual norms, iterations
    the number of operator products the solver made (0 for the dense
    oracle).
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
    return 1.0 / _dot(t.y, t.x)


def _check_budget(tol: float, max_iter: int = 1) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"tol must be finite and positive, got {tol}")
    if not (math.isfinite(max_iter) and max_iter >= 1):
        raise InputError(f"max_iter must be at least 1, got {max_iter}")


def _start_vector(v0, n: int) -> np.ndarray:
    if v0 is None:
        return np.full(n, 1.0 / np.sqrt(n))
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (n,) or (v0 <= 0).any():
        raise InputError("start vector must be strictly positive of length n")
    return v0 / _norm(v0)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a^T b by numpy's own summation loop, not BLAS: the bits do not
    depend on how many threads OpenBLAS would split a long vector over."""
    return float(np.einsum("i,i->", a, b))


def _norm(v: np.ndarray) -> float:
    return math.sqrt(_dot(v, v))


def _fix_sign(v: np.ndarray, slack: float = _POSITIVITY_SLACK) -> np.ndarray:
    """Orient v so its largest-magnitude entry is positive, clamp negatives
    down to -slack * max(1, max|v|) to zero, renormalize.  Raises if more
    negative.

    An iterative solver passes its tol: an entry that is 0 in the Perron
    vector, as on a layer a reducible operator's root leaves out, comes
    out of either sign within the error that tol allows, and the
    residual certificate still checks the clamped vector."""
    v = np.array(v, dtype=float)
    v *= np.sign(v[np.argmax(np.abs(v))]) or 1.0
    if v.min() < -slack * max(1.0, np.abs(v).max()):
        raise ConvergenceError(
            "computed eigenvector has nonpositive entries; the operator is "
            "likely reducible or the iteration broke down")
    np.clip(v, 0.0, None, out=v)
    n = _norm(v)
    if n == 0:
        raise ConvergenceError("computed eigenvector vanished")
    return v / n


class _Products:
    """Operator products, counted against a budget of ``max_iter``; a
    non-finite product fails at once, naming its number."""

    def __init__(self, op: LinearOperator, max_iter: int):
        self.op = op
        self.max_iter = max_iter
        self.count = 0
        self.residuals = (math.inf, math.inf)

    def _apply(self, f, v: np.ndarray) -> np.ndarray:
        if self.count >= self.max_iter:
            raise ConvergenceError(
                f"no convergence after {self.max_iter} operator products "
                f"(residuals {self.residuals[0]:.3e}/{self.residuals[1]:.3e})",
                iterations=self.max_iter, residuals=self.residuals)
        self.count += 1
        out = f(v)
        if not np.isfinite(out).all():
            raise ConvergenceError(
                f"non-finite iterate at iteration {self.count} (operator "
                f"product {self.count} holds inf or NaN): the operator or a "
                "start vector holds inf or NaN, or its products overflow",
                iterations=self.count, residuals=self.residuals)
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._apply(self.op.matvec, v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return self._apply(self.op.rmatvec, v)

    def fail(self, message: str) -> ConvergenceError:
        return ConvergenceError(message, iterations=self.count,
                                residuals=self.residuals)


@functools.cache
def _scipy_openblas():
    """(get, set) thread-count functions of the OpenBLAS bundled with
    scipy, which ARPACK calls, or None when scipy has none (a build on a
    system BLAS).  Looked up on the first solve, not at import."""
    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads
            set_ = lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


class _OneBlasThread:
    """Context manager: scipy's OpenBLAS runs on one thread while any solve
    is inside, and the last solve to leave restores the thread count the
    first one found, also when it raises.  Solves in several threads share
    the one pool, so they count themselves in and out under a lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._inside = 0
        self._before = 0

    def __enter__(self):
        blas = _scipy_openblas()
        if blas is None:
            return
        with self._lock:
            if self._inside == 0:
                self._before = blas[0]()
                blas[1](1)
            self._inside += 1

    def __exit__(self, *exc_info):
        blas = _scipy_openblas()
        if blas is None:
            return
        with self._lock:
            self._inside -= 1
            if self._inside == 0:
                blas[1](self._before)


_one_blas_thread = _OneBlasThread()


def _power(apply, start, image, tol):
    """The power iteration of :func:`perron_block` (one column, no
    update) from the image of ``start``: its vector and image once its
    right residual passes :func:`perron`'s bound, else None.  ``start``
    itself is not read; the signature is :func:`_lanczos`'s."""
    empty = np.empty(0, dtype=np.int64)  # no update entries
    found, = _power_columns(apply, image[:, None], (empty,) * 4, tol)
    return found


def _lanczos(apply, start, image, tol):
    """The dominant eigenvector of the symmetric ``apply`` and its image,
    by the plain Lanczos recurrence from the unit ``start``, whose image
    is given (Lanczos, 1950; in finite precision, Paige, 1976), or None.

    The basis holds at most :data:`BLOCK_MAX_STEPS` vectors, grown as
    needed.  The top Ritz pair of the tridiagonal matrix is checked at
    step 1 and then at the step its estimated residual, shrinking at its
    rate since the last check, predicts it passes, at most
    ``_STALL_STEPS`` later.  When that estimate is within
    tol * max(1, theta), the Ritz vector, with its sign fixed, is
    returned with a fresh product, for :func:`perron` to certify.  A
    recurrence that breaks down, its next vector below tol in norm, has
    found an invariant subspace and is checked at once, where its
    estimate passes.  A Ritz vector that fails the sign test is handed to
    :func:`_power`; no pass within the cap returns None."""
    cap = min(BLOCK_MAX_STEPS, start.size)
    # one array per vector: they fit memory the heap already holds, where
    # one growing block maps fresh pages (on the benchmark's multiplexes
    # 2 MB more peak RSS than the power iteration, against under 1 MB)
    basis = [start]
    T = np.zeros((cap, cap))  # the tridiagonal matrix, upper half set
    w = image.copy()
    tmp = np.empty_like(w)  # each axpy's product, without a new array
    due, seen, seen_excess = 1, 0, 1.0
    for step in range(1, cap + 1):
        q = basis[-1]
        if step > 1:
            w -= np.multiply(T[step - 2, step - 1], basis[-2], out=tmp)
        T[step - 1, step - 1] = alpha = _dot(q, w)
        w -= np.multiply(alpha, q, out=tmp)
        beta = _norm(w)
        if step == due or step == cap or beta <= tol:
            theta, s = np.linalg.eigh(T[:step, :step], UPLO="U")
            bound = tol * max(1.0, abs(theta[-1]))
            excess = beta * abs(s[-1, -1]) / bound
            if excess <= 1.0:
                x = np.zeros(start.size)
                for c, v in zip(s[:, -1], basis):
                    x += np.multiply(c, v, out=tmp)
                try:
                    x = _fix_sign(x, tol)
                except ConvergenceError:
                    # entries that are 0 in a reducible operator's Perron
                    # vector (gamma = 0) can come out negative beyond tol
                    # here; the power iteration keeps every iterate
                    # nonnegative
                    del basis
                    return _power(apply, start, image, tol)
                return x, apply(x)
            if step == cap:
                return None
            # steps until excess * rate**m <= 1, within [1, _STALL_STEPS]
            wait = _STALL_STEPS
            if seen:
                rate = (excess / seen_excess) ** (1.0 / (step - seen))
                if rate < 1.0:
                    wait = min(wait, math.ceil(math.log(excess)
                                               / -math.log(rate)))
            due, seen, seen_excess = step + max(wait, 1), step, excess
        T[step - 1, step] = beta
        basis.append(w / beta)
        w = apply(basis[-1])


def _dominant(apply, start: np.ndarray, tol: float, prod: _Products,
              first=None) -> tuple[np.ndarray, np.ndarray]:
    """Unit nonnegative dominant eigenvector v of ``apply`` (a product with
    B or B^T) and its image apply(v).  The unit start vector is returned
    as it is when its residual is already within tol * max(1, rho).
    Otherwise ``first``, :func:`_power` or :func:`_lanczos` when given,
    runs on from its image, and its vector is returned when it finds one.
    When it does not, or without it, ARPACK
    starts from ``start``, with relative tolerance ``tol`` (0: machine
    precision).  The explicit ``v0`` and the fixed ``rng`` (drawn from
    only when a Krylov space closes early) keep every run deterministic.
    ARPACK cannot take an operator of order < 3: its n x n matrix, built
    from n products, goes to ``np.linalg.eig``, and the eigenvalue of
    largest real part is taken, as ARPACK's is."""
    image = apply(start)
    rho = _dot(start, image)
    if _norm(image - rho * start) <= tol * max(1.0, abs(rho)):
        return start, image
    if first is not None:
        found = first(apply, start, image, tol)
        if found is not None:
            return found
    n = start.size
    if n < 3:
        vals, vecs = np.linalg.eig(np.column_stack([apply(e)
                                                    for e in np.eye(n)]))
        vec = vecs[:, np.argmax(vals.real)]
    else:
        A = LinearOperator((n, n), matvec=apply, dtype=float)
        try:
            with _one_blas_thread:
                _, vecs = eigs(A, k=1, which="LR", v0=start, tol=tol,
                               maxiter=prod.max_iter, rng=0)
        except ArpackError as exc:
            raise prod.fail(f"ARPACK failed after {prod.count} operator "
                            f"products: {exc}") from exc
        vec = vecs[:, 0]
    try:
        vec = _fix_sign(vec.real, max(tol, _POSITIVITY_SLACK))
    except ConvergenceError as exc:
        raise prod.fail(str(exc)) from None
    return vec, apply(vec)


def perron(op, tol: float = DEFAULT_TOL,
           max_iter: int = DEFAULT_MAX_ITER,
           x0: np.ndarray | None = None,
           y0: np.ndarray | None = None) -> PerronTriple:
    """Perron triple of ``op``, on B for x and on B^T for y.

    ``op`` is anything ``aslinearoperator`` takes: a ``LinearOperator``
    with ``rmatvec``, such as :func:`~perronnet.model.supra_operator`, or
    a dense or sparse matrix.  An operator whose attribute ``symmetric``
    is true, as ``supra_operator`` sets it on undirected input, is taken
    to equal its transpose; only the choice of first solver reads it.

    Both sides start from the strictly positive vector 1/sqrt(NL)
    (which cannot be orthogonal to the Perron vectors) unless warm-start
    vectors x0/y0 are supplied, e.g. the Perron pair of a nearby
    operator.  Each side first runs, on a marked operator from either
    start, the Lanczos recurrence of :func:`_lanczos`, and on an
    unmarked one from a cold start, the power iteration of
    :func:`perron_block`, one column without an update (see the module
    docstring).  A side its first solver does not accept within
    :data:`BLOCK_MAX_STEPS` products, and a warm side of an unmarked
    operator, go to ARPACK from the same start (below order 3, a dense
    solve of the n x n matrix).  ARPACK takes the eigenvalue of largest
    real part, which for a nonnegative irreducible operator is the Perron
    root even when the spectrum holds further eigenvalues of modulus rho
    (periodic graphs).  The root is the two-sided Rayleigh quotient
    y^T B x / (y^T x), and the triple is returned only when both residual
    norms, computed from fresh products, are within tol * max(1, rho).
    A residual above that bound sends both sides to one more solve by
    ARPACK, to machine precision; y^T x <= 0 fails at once.
    ``iterations`` counts operator products, at every order: those of the
    Lanczos recurrence or the power iteration, with each accepted
    vector's fresh product, those of ARPACK, and the product with B^T
    that checks x against the left problem.  ``max_iter`` bounds them.
    """
    _check_budget(tol, max_iter)
    op = aslinearoperator(op)
    n = op.shape[0]
    cold = x0 is None and y0 is None
    u = _start_vector(x0, n)
    v = u.copy() if cold else _start_vector(y0, n)
    prod = _Products(op, max_iter)
    first = (_lanczos if getattr(op, "symmetric", False)
             else _power if cold else None)
    for arpack_tol in (tol, 0.0):
        x, w = _dominant(prod.matvec, u, arpack_tol, prod, first)
        rho = _dot(x, w)
        bound = tol * max(1.0, abs(rho))
        z = prod.rmatvec(x)
        if _norm(z - rho * x) <= bound:
            y = x  # x also solves the left problem, e.g. B symmetric
        else:
            y, z = _dominant(prod.rmatvec, v, arpack_tol, prod, first)
        yx = _dot(y, x)
        if yx <= 0:
            raise prod.fail(
                "left and right Perron vectors are orthogonal (y^T x = 0): "
                "the operator is likely reducible")
        rho = _dot(y, w) / yx
        bound = tol * max(1.0, abs(rho))
        res_r = _norm(w - rho * x)
        res_l = _norm(z - rho * y)
        prod.residuals = (res_r, res_l)
        if res_r <= bound and res_l <= bound:
            return PerronTriple(rho=rho, x=x, y=y, kappa=1.0 / yx,
                                residuals=(res_r, res_l),
                                iterations=prod.count)
        # each side met its own bound, or ARPACK's residual estimate was
        # too optimistic: solve both again from the current vectors, to
        # machine precision, by ARPACK alone
        u, v, first = x, y, None
    raise prod.fail(
        f"residuals {res_r:.3e}/{res_l:.3e} above {bound:.3e} at machine "
        f"precision (rho ~ {rho:.6g}, kappa ~ {1.0 / yx:.3g}): the root is "
        "ill-conditioned or not simple, or the operator is reducible")


def _row_norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of V."""
    return np.sqrt(np.einsum("ij,ij->i", V, V))


def _unit_columns(V: np.ndarray, j: np.ndarray):
    """Columns j of V rescaled to unit norm, in V too: returned as rows of
    a contiguous copy, with their norms before.  A vanished column stays
    0, so that its next product is finite."""
    rows = V.T[j]
    norms = _row_norms(rows)
    np.divide(rows, norms[:, None], out=rows, where=norms[:, None] > 0)
    V.T[j] = rows
    return rows, norms


def perron_block(op, updates, tol: float = DEFAULT_TOL,
                 x0: np.ndarray | None = None,
                 y0: np.ndarray | None = None) -> list[float | None]:
    """Perron roots of the k operators B + E_j, solved together as one
    block power iteration on B, with no product by B^T.

    ``op`` is B, anything ``aslinearoperator`` takes whose ``matmat``
    multiplies an n x k block, such as
    :func:`~perronnet.model.supra_operator`.  ``updates[j]`` is E_j as
    ``(rows, cols, deltas)``, its few nonzero entries; B + E_j need not be
    symmetric, also where B is.  The bracket below holds only for a
    strictly positive start, which an x0 or y0 that is not raises an
    InputError for, and a nonnegative B + E_j, which is not checked.

    The n x k iterate X holds one column per operator, all starting from
    x0 as in :func:`perron`, in the C order a CSR product takes without a
    copy.  Each step makes one product B X, adds each column's entries of
    E_j to its own column and multiplies the block by one power of two
    near 1/rho, which is exact, so no column's bits depend on the other
    columns.  A column is checked only at its own check steps: step 1,
    then the step at which its contraction since its last check predicts
    it passes, at most ``_STALL_STEPS`` later.  There its x is rescaled to
    unit norm before the step's product, and it is accepted when x >= 0
    and the ratios r_i = ((B + E_j) x)_i / x_i on the support
    of x span at most tol * max(1, rho); an x_i = 0 whose image is not 0
    blocks it.  Their least and largest bracket the Perron root of any
    nonnegative B + E_j, reducible or not (the Collatz-Wielandt bounds;
    Berman and Plemmons, *Nonnegative Matrices in the Mathematical
    Sciences*, ch. 2).  A column with an exact zero, as at a sink, is
    bracketed on its support: the start being positive, no walk of that
    length leaves a zero entry, so the zero set is closed under
    successors, its block is nilpotent, and B + E_j has the root of its
    block on the support.  The root returned is
    rho = v^T (B + E_j) x / (v^T x), v being y0 (x's start on a cold
    start): a mean of the ratios with the weights v_i x_i, so it lies in
    the bracket.  A column not accepted within :data:`BLOCK_MAX_STEPS`
    steps, whose bracket width over its bound, shrinking at its rate
    since its last check, would still exceed 1 at that cap, whose root is
    not finite, or whose iterate vanishes or stops being finite, is
    returned as None, for :func:`perron` to solve alone: a periodic,
    reducible or small-gap operator goes that way.  A resolved column,
    accepted or handed over, has no check left: it stays in the block,
    unread, until no column has one, and the block stops there.
    """
    _check_budget(tol)
    op = aslinearoperator(op)
    n = op.shape[0]
    u = _start_vector(x0, n)
    v = u if y0 is None and x0 is None else _start_vector(y0, n)
    if not updates:
        return []
    rows, cols, deltas = (np.concatenate(field) for field in zip(*updates))
    col = np.repeat(np.arange(len(updates)), [len(upd[0]) for upd in updates])
    X = np.repeat(u[:, None], len(updates), axis=1)
    return _power_columns(op.matmat, X, (rows, cols, deltas, col), tol, v)


def _power_columns(matmat, X, entries, tol, v=None):
    """The block power iteration of :func:`perron_block` from the n x k
    C-order start block X, with products ``matmat`` by B.  ``entries``
    holds the update entries ``(rows, cols, deltas, col)``, each of column
    ``col``.

    Given the positive left start ``v``, a column is accepted by
    :func:`perron_block`'s bracket and returned as its root.  Without it,
    a column is accepted by :func:`perron`'s right residual test, on the
    Rayleigh quotient x^T (B + E_j) x with x of unit norm, and returned as
    that x and its image, for :func:`_power`.  A column not accepted is
    None.  A resolved column stays in X, unread: its next check is set
    past :data:`BLOCK_MAX_STEPS`.  It may vanish or overflow there, which
    must not warn.

    The products, the rescaling and the residuals or brackets run on the
    block; each column's check schedule is kept in Python scalars.  Its
    powers and logarithms, and its division by an excess that may be 0,
    are numpy's ufuncs: their calls on a float round as their array
    loops do, SIMD or not, and take 0, inf and NaN as those loops do,
    which ``math.log``, ``**`` and ``/`` need not.
    """
    rows, cols, deltas, col = entries
    k = X.shape[1]
    out: list = [None] * k
    # each column's next check step (past BLOCK_MAX_STEPS once it has
    # resolved), its last one (0: none yet) and its bracket width or
    # residual over its bound there
    due = [1] * k
    seen = [0] * k
    seen_excess = [1.0] * k
    next_check = 1  # the least of due
    scale = 1.0
    # a column that vanishes or overflows while checked is handed to
    # perron(), which reports why, and one that has resolved is not read;
    # neither must warn here
    with np.errstate(all="ignore"):
        for step in range(1, BLOCK_MAX_STEPS + 1):
            checking = step == next_check
            if checking:
                check = [c for c in range(k) if due[c] == step]
                xt, norm_x = _unit_columns(X, check)
            W = np.asarray(matmat(X))  # (B + E_j) x_j
            if rows.size:
                np.add.at(W, (rows, col), deltas * X[cols, col])
            # free the iterate, so that the check's row copies below do not
            # raise the peak memory
            del X
            if checking:
                wt = W.T[check]
                if v is None:
                    rho = (np.einsum("ij,ij->i", xt, wt)
                           / np.einsum("ij,ij->i", xt, xt))
                    wt -= rho[:, None] * xt  # the residuals
                    err = _row_norms(wt)
                else:
                    rho = (np.einsum("ij,j->i", wt, v)
                           / np.einsum("ij,j->i", xt, v))
                    # the ratios; fmax and fmin skip the NaN of a 0/0, an
                    # entry off the support of x whose image is 0 too
                    wt /= xt
                    err = (np.fmax.reduce(wt, axis=1)
                           - np.fmin.reduce(wt, axis=1))
                del wt
                rho = rho.tolist()
                if step == 1:
                    top = max((abs(r) for r in rho if math.isfinite(r)),
                              default=0.0)
                    if top > 0:
                        scale = math.ldexp(1.0, -math.frexp(top)[1])
                for i, (c, r, e, low, norm) in enumerate(zip(
                        check, rho, err.tolist(), xt.min(axis=1).tolist(),
                        norm_x.tolist())):
                    # tol * max(1, |rho|), NaN for a NaN rho; a zero
                    # column's NaN rho, or an infinite one, is refused
                    bound = tol * (1.0 if abs(r) <= 1.0 else abs(r))
                    if e <= bound and low >= 0 and math.isfinite(r):
                        out[c] = (r if v is not None
                                  else (xt[i].copy(), W[:, c].copy()))
                        due[c] = BLOCK_MAX_STEPS + 1
                        continue
                    excess = e / bound  # bound >= tol > 0
                    keep = norm > 0 and math.isfinite(norm)
                    wait = _STALL_STEPS
                    if keep and seen[c]:
                        # the exponent as an array: numpy takes a scalar
                        # 0.5 as a square root, which rounds otherwise
                        rate, = np.power(np.divide(excess, seen_excess[c]),
                                         [1.0 / (step - seen[c])])
                        keep = (excess * np.power(rate, BLOCK_MAX_STEPS - step)
                                <= 1.0)
                        # steps until excess * rate**m <= 1, within
                        # [1, _STALL_STEPS]; NaN and +inf give the most,
                        # -inf the least
                        m = np.log(excess) / -np.log(rate)
                        if m <= 1:
                            wait = 1
                        elif m < _STALL_STEPS:
                            wait = math.ceil(m)
                    due[c] = (min(step + wait, BLOCK_MAX_STEPS) if keep
                              else BLOCK_MAX_STEPS + 1)
                    seen[c], seen_excess[c] = step, excess
                next_check = min(due)
                if next_check > BLOCK_MAX_STEPS:
                    break  # no column has a check left
            W *= scale
            X = W
    return out


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
