"""Perron solver vs dense oracle, triple invariants, edge cases."""

import math
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from perronnet import (ConvergenceError, InputError, Network,
                       apply_edge_delta, assemble_dense, condition_number,
                       perron, perron_dense_oracle, rank_insertions,
                       rank_removals, supra_operator)
from perronnet import eigen, recommend
from perronnet.eigen import _scipy_openblas

from conftest import (airlines_shaped, dense_perron_pair,
                      multilayer_from_dense, multiplex_from_layers,
                      random_general_net, random_multiplex_net, run_fresh,
                      undirected_general_net)


def op_from_dense(B):
    B = np.asarray(B, dtype=float)
    return LinearOperator(B.shape, matvec=lambda v: B @ v,
                          rmatvec=lambda v: B.T @ v, dtype=float)


def counted(op):
    """``op``, with its symmetry mark, and a list that grows by one per
    operator product."""
    calls = []

    def matvec(v):
        calls.append("B")
        return op.matvec(v)

    def rmatvec(v):
        calls.append("B^T")
        return op.rmatvec(v)

    out = LinearOperator(op.shape, matvec=matvec, rmatvec=rmatvec,
                         dtype=float)
    out.symmetric = getattr(op, "symmetric", False)
    return out, calls


def unmarked(op):
    """``op`` without its symmetry mark: solved as a nonsymmetric operator,
    by the power iteration from a cold start and by ARPACK from a warm
    one."""
    return LinearOperator(op.shape, matvec=op.matvec, rmatvec=op.rmatvec,
                          dtype=float)


def assert_valid_triple(t, B, tol=1e-10):
    """Unit nonnegative vectors whose residuals, recomputed here, meet the
    solver's bound."""
    B = np.asarray(B, dtype=float)
    scale = tol * max(1.0, t.rho)
    for v in (t.x, t.y):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert (v >= 0).all()
    assert np.linalg.norm(B @ t.x - t.rho * t.x) <= 1.01 * scale
    assert np.linalg.norm(B.T @ t.y - t.rho * t.y) <= 1.01 * scale
    assert t.kappa == pytest.approx(1.0 / float(t.y @ t.x), rel=1e-12)


def test_two_cycle_exact():
    t = perron(op_from_dense([[0, 1], [1, 0]]))
    assert t.rho == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(t.x, [2 ** -0.5, 2 ** -0.5], atol=1e-10)
    assert np.allclose(t.y, t.x, atol=1e-12)
    assert t.kappa == pytest.approx(1.0, abs=1e-12)


def test_demo_network_root_and_condition(demo_net):
    t = perron(supra_operator(demo_net))
    assert t.rho == pytest.approx(2.3471, abs=5e-5)
    assert t.kappa == pytest.approx(1.0248, abs=5e-5)
    assert condition_number(t) == pytest.approx(t.kappa, rel=1e-12)


def test_demo_network_dense_oracle_agrees(demo_net):
    from perronnet import assemble_dense
    t = perron_dense_oracle(assemble_dense(demo_net))
    assert t.rho == pytest.approx(2.3471, abs=5e-5)
    assert t.kappa == pytest.approx(1.0248, abs=5e-5)


def test_triple_invariants(demo_net):
    t = perron(supra_operator(demo_net), tol=1e-10)
    assert np.linalg.norm(t.x) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(t.y) == pytest.approx(1.0, abs=1e-12)
    assert (t.x > 0).all() and (t.y > 0).all()
    scale = max(1.0, t.rho)
    assert t.residuals[0] <= 1e-10 * scale
    assert t.residuals[1] <= 1e-10 * scale
    assert t.kappa >= 1.0


def test_matches_dense_oracle_on_random_instances():
    for seed in range(8):
        net, B = random_general_net(seed, N=4, L=2)
        t = perron(supra_operator(net), tol=1e-12)
        rho, x, y = dense_perron_pair(B)
        assert t.rho == pytest.approx(rho, rel=1e-8)
        assert np.abs(t.x - x).max() < 1e-6
        assert np.abs(t.y - y).max() < 1e-6


def test_dense_oracle_matches_iterative_on_multiplex():
    net = random_multiplex_net(3, N=5, L=3, gamma=0.5)
    t_it = perron(supra_operator(net), tol=1e-12)
    from perronnet import assemble_dense
    t_dn = perron_dense_oracle(assemble_dense(net))
    assert t_it.rho == pytest.approx(t_dn.rho, rel=1e-10)
    assert np.abs(t_it.x - t_dn.x).max() < 1e-8


def test_symmetric_operator_gives_kappa_one():
    net = random_multiplex_net(5, N=6, L=2, gamma=1.0, directed=False)
    t = perron(supra_operator(net))
    assert t.kappa == pytest.approx(1.0, abs=1e-10)
    assert np.abs(t.x - t.y).max() < 1e-8


def test_scaling_invariance():
    net, B = random_general_net(21, N=3, L=2)
    t1 = perron(op_from_dense(B), tol=1e-12)
    t2 = perron(op_from_dense(3.5 * B), tol=1e-12)
    assert t2.rho == pytest.approx(3.5 * t1.rho, rel=1e-9)
    assert np.abs(t1.x - t2.x).max() < 1e-8
    assert t2.kappa == pytest.approx(t1.kappa, rel=1e-9)


def test_permutation_equivariance():
    net, B = random_general_net(22, N=3, L=2)
    rng = np.random.default_rng(0)
    p = rng.permutation(6)
    P = np.eye(6)[p]
    t1 = perron(op_from_dense(B), tol=1e-12)
    t2 = perron(op_from_dense(P @ B @ P.T), tol=1e-12)
    assert t2.rho == pytest.approx(t1.rho, rel=1e-10)
    assert np.abs(t2.x - t1.x[p]).max() < 1e-8
    assert np.abs(t2.y - t1.y[p]).max() < 1e-8
    assert t2.kappa == pytest.approx(t1.kappa, rel=1e-9)


def test_periodic_graph_converges(demo_net):
    # the demo supra spectrum contains -rho; the shifted iteration must
    # still converge
    t = perron(supra_operator(demo_net))
    assert t.iterations < 100_000
    assert t.rho == pytest.approx(2.3471, abs=5e-5)


def test_nonconvergence_reports_diagnostics(demo_net):
    with pytest.raises(ConvergenceError) as ei:
        perron(supra_operator(demo_net), max_iter=3)
    assert ei.value.iterations == 3
    assert ei.value.residuals is not None


def test_near_reducible_coupling_converges_or_diagnoses():
    # gamma -> 0 drives the multiplex toward reducibility; the solver must
    # either return a valid triple or fail with diagnostics, never hang
    net = random_multiplex_net(33, N=4, L=2, gamma=1e-8)
    try:
        t = perron(supra_operator(net), max_iter=20000)
        assert (t.x > 0).all() and (t.y > 0).all()
        assert t.residuals[0] <= 1e-10 * max(1.0, t.rho)
    except ConvergenceError as exc:
        assert exc.residuals is not None


def test_warm_start_reaches_same_triple(demo_net):
    cold = perron(supra_operator(demo_net))
    warm = perron(supra_operator(demo_net), x0=cold.x, y0=cold.y)
    assert warm.rho == pytest.approx(cold.rho, rel=1e-10)
    assert np.abs(warm.x - cold.x).max() < 1e-9
    assert warm.iterations <= cold.iterations


def test_warm_starts_are_normalized_without_blas(monkeypatch):
    # np.linalg.norm is a BLAS sum, whose bits above about 10**4 entries
    # depend on the thread count; a warm start is scaled by numpy's own loop
    net = random_multiplex_net(31, N=8, L=3, gamma=0.5, directed=False)
    op = supra_operator(net)
    cold = perron(op)
    update = (np.array([0]), np.array([1]), np.array([0.1]))

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")

    monkeypatch.setattr(np.linalg, "norm", refuse)
    warm = perron(op, x0=2.0 * cold.x, y0=2.0 * cold.y)
    assert warm.rho == pytest.approx(cold.rho, rel=1e-10)
    [rho] = eigen.perron_block(op, [update], x0=2.0 * cold.x, y0=2.0 * cold.y)
    assert rho > cold.rho


def test_warm_start_rejects_bad_vectors(demo_net):
    from perronnet import InputError
    cold = perron(supra_operator(demo_net))
    with pytest.raises(InputError):
        perron(supra_operator(demo_net), x0=-cold.x)
    with pytest.raises(InputError):
        perron(supra_operator(demo_net), x0=cold.x[:5])


def test_bad_tol_rejected(demo_net):
    from perronnet import InputError
    with pytest.raises(InputError):
        perron(supra_operator(demo_net), tol=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0, -3])
def test_nonsense_tol_and_budget_are_input_errors(demo_net, value):
    # an infinite tol would certify the first iterate, a NaN one fail
    # inside ARPACK, and a budget below 1 report no convergence
    op = supra_operator(demo_net)
    with pytest.raises(InputError, match="tol must be finite and positive"):
        perron(op, tol=value)
    with pytest.raises(InputError, match="tol must be finite and positive"):
        eigen.perron_block(op, [([0], [1], [0.1])], tol=value)
    with pytest.raises(InputError, match="max_iter must be at least 1"):
        perron(op, max_iter=value)


def test_dense_oracle_two_cycle():
    t = perron_dense_oracle(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert t.rho == pytest.approx(1.0, abs=1e-12)
    assert t.kappa == pytest.approx(1.0, abs=1e-12)


def test_dense_oracle_rejects_complex_dominant():
    # signed matrix whose extreme-real eigenvalues are a complex pair
    M = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
    with pytest.raises(ConvergenceError, match="imaginary"):
        perron_dense_oracle(M)


def test_dense_oracle_rejects_nonsquare():
    from perronnet import InputError
    with pytest.raises(InputError):
        perron_dense_oracle(np.zeros((2, 3)))


def test_non_finite_iterate_fails_at_once():
    nan_op = LinearOperator((3, 3), matvec=lambda v: np.full(3, np.nan),
                            rmatvec=lambda v: np.full(3, np.nan), dtype=float)
    with pytest.raises(ConvergenceError, match="iteration 1 ") as ei:
        perron(nan_op)
    assert ei.value.iterations == 1


def test_non_finite_iterate_names_its_iteration():
    # the two-cycle from a skewed start; its products turn to NaN from
    # the fourth on
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    calls = []

    def matvec(v):
        calls.append(1)
        return B @ v if len(calls) < 4 else np.full(2, np.nan)

    op = LinearOperator((2, 2), matvec=matvec, rmatvec=lambda v: B.T @ v,
                        dtype=float)
    with pytest.raises(ConvergenceError, match="iteration 4 ") as ei:
        perron(op, x0=np.array([1.0, 2.0]))
    assert ei.value.iterations == 4
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# spectra that are hard for the solver, against the dense oracle

def periodic_multilayer_cycle():
    # one directed cycle through all 40 node-layers, uneven weights: the
    # spectrum is rho * omega^k for the 40 roots of unity omega^k, more
    # than ARPACK's 20 basis vectors hold
    n = 40
    rng = np.random.default_rng(7)
    perm = rng.permutation(n)
    B = np.zeros((n, n))
    B[perm, np.roll(perm, -1)] = rng.uniform(0.5, 1.5, n)
    return B, multilayer_from_dense(B, N=10, L=4, directed=True)


def bipartite_multiplex():
    # both layers join only nodes of different parity and the coupling
    # joins two layers, so the supra graph is bipartite and -rho is an
    # eigenvalue
    N = 8
    rng = np.random.default_rng(8)
    layers = []
    for _ in range(2):
        A = np.zeros((N, N))
        for i in range(N):
            for j in range(i + 1, N, 2):
                if j == i + 1 or rng.random() < 0.5:
                    A[i, j] = A[j, i] = rng.uniform(0.5, 1.5)
        layers.append(A)
    net = multiplex_from_layers(layers, gamma=0.6)
    return assemble_dense(net), net


@pytest.mark.parametrize("make", [periodic_multilayer_cycle,
                                  bipartite_multiplex])
def test_spectral_circle_inputs_match_dense_oracle(make):
    # the power phase, then ARPACK; test_lanczos_matches_the_dense_oracle
    # gives the bipartite case to the Lanczos recurrence
    B, net = make()
    t = perron(unmarked(supra_operator(net)))
    oracle = perron_dense_oracle(B)
    others = np.linalg.eigvals(B)
    on_circle = np.abs(np.abs(others) - oracle.rho) <= 1e-9 * oracle.rho
    assert on_circle.sum() >= 2  # the root is not alone on |z| = rho
    assert t.rho == pytest.approx(oracle.rho, rel=1e-10)
    assert np.abs(t.x - oracle.x).max() < 1e-8
    assert np.abs(t.y - oracle.y).max() < 1e-8
    assert_valid_triple(t, B)


def test_tiny_gap_between_two_dense_layers():
    check_tiny_gap(lambda net: unmarked(supra_operator(net)))


def test_tiny_gap_symmetric_solve_matches_the_dense_oracle():
    check_tiny_gap(supra_operator)


def check_tiny_gap(prepare):
    # two equal dense layers coupled by gamma: the two leading eigenvalues
    # are rho_A + gamma and rho_A - gamma
    gamma, N = 1e-6, 10
    rng = np.random.default_rng(9)
    A = np.triu(rng.uniform(0.5, 1.5, (N, N)), 1)
    A = A + A.T
    net = multiplex_from_layers([A, A], gamma=gamma)
    B = assemble_dense(net)
    t = perron(prepare(net))
    oracle = perron_dense_oracle(B)
    lead = np.sort(np.linalg.eigvalsh(B))[-2:]
    assert lead[1] - lead[0] == pytest.approx(2 * gamma, rel=1e-6)
    assert t.rho == pytest.approx(oracle.rho, rel=1e-12)
    # eigenvector error <= residual / gap
    bound = 1e-10 * oracle.rho / (2 * gamma)
    assert np.abs(t.x - oracle.x).max() <= bound
    assert np.abs(t.y - oracle.y).max() <= bound
    assert_valid_triple(t, B)


def test_ill_conditioned_root_meets_the_residual_bound():
    # a 20-node directed ring whose return arc weighs 1e-9: kappa ~ 2e7,
    # and Perron entries spanning nine decades
    n, w = 20, 1e-9
    B = np.diag(np.ones(n - 1), 1)
    B[n - 1, 0] = w
    t = perron(op_from_dense(B))
    assert t.rho == pytest.approx(w ** (1 / n), rel=1e-12)
    assert t.kappa > 1e7
    assert_valid_triple(t, B)


def directed_path(n=6):
    return np.diag(np.ones(n - 1), 1)  # nilpotent: every eigenvalue is 0


def ring_minus_one_arc(n=12):
    B = np.roll(np.eye(n), 1, axis=1)
    B[n - 1, 0] = 0.0
    return B


def two_components_one_way():
    # a 3-cycle of weight 2 feeding a 3-cycle of weight 1
    B = np.zeros((6, 6))
    B[:3, :3] = 2 * np.roll(np.eye(3), 1, axis=1)
    B[3:, 3:] = np.roll(np.eye(3), 1, axis=1)
    B[0, 3] = 1.0
    return B


def jordan_block():
    return np.array([[1.0, 1.0], [0.0, 1.0]])


def nilpotent_pair():
    return np.array([[0.0, 1.0], [0.0, 0.0]])


def triangular_pair():
    # simple root 2 with right vector (1, 1) and left vector (0, 1)
    return np.array([[1.0, 1.0], [0.0, 2.0]])


@pytest.mark.parametrize("make", [directed_path, ring_minus_one_arc,
                                  two_components_one_way, jordan_block,
                                  nilpotent_pair, triangular_pair])
def test_reducible_operator_fails_fast_or_returns_valid_triple(make):
    B = make()
    t0 = time.perf_counter()
    try:
        t = perron(op_from_dense(B))
    except ConvergenceError as exc:
        assert time.perf_counter() - t0 < 1.0
        assert exc.iterations is not None and exc.residuals is not None
        return
    assert_valid_triple(t, B)


@pytest.mark.parametrize("make", [jordan_block, nilpotent_pair])
def test_defective_order_two_operator_has_orthogonal_vectors(make):
    # the only eigenvector on each side is a unit vector, and the two are
    # orthogonal
    with pytest.raises(ConvergenceError, match=r"\(y\^T x = 0\)"):
        perron(op_from_dense(make()))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_operator_has_root_zero(n):
    t = perron(op_from_dense(np.zeros((n, n))))
    assert t.rho == 0.0
    assert np.array_equal(t.x, np.full(n, 1.0 / np.sqrt(n)))
    assert t.residuals == (0.0, 0.0)


@pytest.mark.parametrize("B", [[[0.0, 2.0], [1.0, 0.0]],
                               [[0.5, 2.0], [0.25, 1.0]],
                               [[3.0]]])
def test_order_below_three_counts_products_and_matches_oracle(B):
    op, calls = counted(op_from_dense(B))
    t = perron(op)
    assert t.iterations == len(calls)
    assert_valid_triple(t, B)
    ref = perron_dense_oracle(np.array(B))
    assert t.rho == pytest.approx(ref.rho, rel=1e-12)
    assert np.allclose(t.x, ref.x, atol=1e-10)
    assert np.allclose(t.y, ref.y, atol=1e-10)


def test_regular_graph_returns_its_start_vector():
    # every node-layer of two equal rings coupled by gamma has the same
    # row sum, so the uniform start vector is the Perron vector
    R = np.roll(np.eye(8), 1, axis=1)
    net = multiplex_from_layers([R + R.T, R + R.T], gamma=0.5)
    op, calls = counted(supra_operator(net))
    t = perron(op)
    assert t.iterations == len(calls) <= 2
    assert t.rho == pytest.approx(2.5, rel=1e-15)
    assert np.array_equal(t.x, np.full(16, 16 ** -0.5))
    assert np.array_equal(t.y, t.x)


def test_exact_warm_start_needs_one_product_per_side(demo_net):
    cold = perron(supra_operator(demo_net))
    op, calls = counted(supra_operator(demo_net))
    warm = perron(op, x0=cold.x, y0=cold.y)
    assert warm.iterations == len(calls) <= 3
    assert warm.rho == pytest.approx(cold.rho, rel=1e-12)


def test_warm_start_from_nearby_operator_needs_fewer_products():
    net, B = random_general_net(31, N=40, L=3, density=0.05)
    base = perron(supra_operator(net))
    B2 = B.copy()
    a, b = np.argwhere(B2 > 0)[0]
    B2[a, b] *= 1.1
    op, calls = counted(op_from_dense(B2))
    cold = perron(op)
    assert cold.iterations == len(calls)
    warm = perron(op_from_dense(B2), x0=base.x, y0=base.y)
    assert warm.iterations < cold.iterations
    assert warm.rho == pytest.approx(cold.rho, rel=1e-10)
    assert_valid_triple(warm, B2)


def test_symmetric_operator_solves_one_side():
    net = random_multiplex_net(5, N=30, L=2, gamma=1.0, directed=False)
    op, calls = counted(supra_operator(net))
    t = perron(op)
    assert np.array_equal(t.x, t.y)
    # products with B^T only check x against the left problem
    assert calls.count("B^T") == 1


def test_cold_solve_product_count_guard():
    # the benchmark's shape: N=2000, L=4, about 6 edges per node and layer
    net = random_multiplex_net(12, N=2000, L=4, gamma=1.0, density=0.003)
    t = perron(supra_operator(net))
    assert t.iterations <= 100
    assert (t.x > 0).all()



# ---------------------------------------------------------------------------
# the power phase of a cold solve, and its hand-over to ARPACK

def benchmark_shaped_general(seed, N, L, arcs_per_node=6, inter=0.25):
    """A directed general network shaped like the benchmark's: a ring
    through every node-layer plus random arcs, a share ``inter`` of them
    between layers."""
    rng = np.random.default_rng(seed)
    n, m = N * L, arcs_per_node * N * L
    perm = rng.permutation(n)
    k = rng.integers(0, L, m)
    l = np.where(rng.random(m) < inter, (k + rng.integers(1, L, m)) % L, k)
    a = np.concatenate([perm, k * N + rng.integers(0, N, m)])
    b = np.concatenate([np.roll(perm, -1), l * N + rng.integers(0, N, m)])
    keep = a != b
    B = sp.csr_matrix((rng.integers(32, 97, keep.sum()) / 64.0,
                       (a[keep], b[keep])), shape=(n, n))
    return Network(N, L, B, True)


def arpack_calls(monkeypatch):
    """A list that grows by the operator of each call of ARPACK's
    ``eigs``."""
    seen = []
    real = eigen.eigs

    def eigs(A, *args, **kwargs):
        seen.append(A)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(eigen, "eigs", eigs)
    return seen


def no_arpack(monkeypatch):
    def eigs(*args, **kwargs):
        raise AssertionError("ARPACK was called")

    monkeypatch.setattr(eigen, "eigs", eigs)


@pytest.mark.parametrize("make", [
    lambda: benchmark_shaped_general(3, N=1000, L=4),
    lambda: random_multiplex_net(12, N=2000, L=4, gamma=1.0, density=0.003)])
def test_cold_benchmark_shaped_solve_makes_no_arpack_call(monkeypatch, make):
    net = make()
    no_arpack(monkeypatch)
    op, calls = counted(unmarked(supra_operator(net)))
    t = perron(op)
    assert t.iterations == len(calls) <= 2 * eigen.BLOCK_MAX_STEPS + 4
    B = net.supra
    bound = 1e-10 * t.rho
    assert np.linalg.norm(B @ t.x - t.rho * t.x) <= bound
    assert np.linalg.norm(B.T @ t.y - t.rho * t.y) <= bound
    assert (t.x >= 0).all() and (t.y >= 0).all()
    if not net.directed:
        assert np.array_equal(t.x, t.y)


@pytest.mark.parametrize("make", [
    lambda: benchmark_shaped_general(4, N=100, L=4),
    lambda: random_multiplex_net(13, N=150, L=3, gamma=1.0, density=0.04)])
def test_cold_power_phase_matches_the_dense_oracle(monkeypatch, make):
    net = make()
    no_arpack(monkeypatch)
    t = perron(unmarked(supra_operator(net)))
    B = assemble_dense(net)
    oracle = perron_dense_oracle(B)
    assert t.rho == pytest.approx(oracle.rho, rel=1e-12)
    assert np.abs(t.x - oracle.x).max() < 1e-8
    assert np.abs(t.y - oracle.y).max() < 1e-8
    assert t.kappa == pytest.approx(oracle.kappa, rel=1e-8)
    assert_valid_triple(t, B)


def two_dense_layers(gamma=1e-3, N=10):
    # layers A and 1.001 A: the two leading eigenvalues lie within about
    # 0.01 of each other, and the uniform start is orthogonal to neither
    rng = np.random.default_rng(9)
    A = np.triu(rng.uniform(0.5, 1.5, (N, N)), 1)
    return multiplex_from_layers([A + A.T, 1.001 * (A + A.T)], gamma=gamma)


# the most products the power phase makes before it hands a side over:
# its first check step and one stall interval
@pytest.mark.parametrize("case, waste", [
    ("periodic", eigen._STALL_STEPS + 1)])
def test_periodic_and_small_gap_sides_go_to_arpack(monkeypatch, demo_net,
                                                   case, waste):
    net = demo_net
    seen = arpack_calls(monkeypatch)
    op, calls = counted(supra_operator(net))
    t = perron(op)
    # ARPACK solved each side the power phase handed over, and iterations
    # counts that phase's products too
    sides = len(seen)
    assert sides == (1 if net.multiplex else 2)
    assert t.iterations == len(calls)
    if net.dim <= 1000:
        assert_valid_triple(t, assemble_dense(net))
    # a warm start from the same vector goes to ARPACK at once
    no_phase = perron(supra_operator(net), x0=np.full(net.dim, 1.0))
    assert t.rho == no_phase.rho
    wasted = t.iterations - no_phase.iterations
    assert sides * (eigen._STALL_STEPS + 1) <= wasted <= sides * waste


# ---------------------------------------------------------------------------
# the Lanczos recurrence of a symmetric cold solve

def undirected_ring_net(n=12, seed=6):
    """An undirected one-layer network of one ring through its n nodes with
    uneven weights: for even n it is bipartite, and -rho is an
    eigenvalue."""
    rng = np.random.default_rng(seed)
    B = np.zeros((n, n))
    a = np.arange(n)
    B[a, (a + 1) % n] = rng.uniform(0.5, 1.5, n)
    return multilayer_from_dense(B + B.T, N=n, L=1, directed=False)


def uncoupled_connected_layers(seed=4, N=12, scales=(1.0, 0.3)):
    # gamma = 0: B is reducible, and its Perron vector is 0 on the second
    # layer, whose root is lower
    rng = np.random.default_rng(seed)
    layers = []
    for scale in scales:
        A = np.triu((rng.random((N, N)) < 0.3) * rng.uniform(0.2, 1.2, (N, N)), 1)
        A[np.arange(N - 1), np.arange(1, N)] = rng.uniform(0.5, 1.5, N - 1)
        layers.append(scale * (A + A.T))
    return multiplex_from_layers(layers, gamma=0.0)


@pytest.mark.parametrize("make", [
    lambda: undirected_general_net(1, N=15, L=2)[0],
    lambda: undirected_general_net(2, N=8, L=3)[0],
    lambda: random_multiplex_net(14, N=20, L=3, gamma=0.5, density=0.2),
    lambda: random_multiplex_net(15, N=30, L=2, gamma=1.0, density=0.1),
    lambda: bipartite_multiplex()[1],
    uncoupled_connected_layers],
    ids=["general", "general-L3", "multiplex-0.5", "multiplex-1",
         "bipartite-multiplex", "uncoupled-layers"])
def test_lanczos_matches_the_dense_oracle(monkeypatch, make):
    net = make()
    no_arpack(monkeypatch)
    op, calls = counted(supra_operator(net))
    t = perron(op)
    assert t.iterations == len(calls)
    B = assemble_dense(net)
    oracle = perron_dense_oracle(B)
    assert t.rho == pytest.approx(oracle.rho, rel=1e-12)
    assert np.abs(t.x - oracle.x).max() < 1e-8
    assert np.array_equal(t.x, t.y)
    assert_valid_triple(t, B)


def test_signed_lanczos_vector_goes_to_the_power_iteration(monkeypatch):
    # the Ritz vector's entries on the second layer, 0 in the Perron
    # vector, come out of either sign; the power iteration's stay >= 0.
    # With rho below 1 (about 0.09 here) the residual bound tol is
    # absolute, so those entries reach about -2.5 tol, past the slack
    net = uncoupled_connected_layers(seed=1, scales=(0.02, 0.006))
    no_arpack(monkeypatch)
    found = []
    power = eigen._power
    monkeypatch.setattr(eigen, "_power",
                        lambda *a: found.append(power(*a)) or found[-1])
    op, calls = counted(supra_operator(net))
    t = perron(op)
    assert len(found) == 1 and found[0] is not None
    assert t.iterations == len(calls)
    B = assemble_dense(net)
    oracle = perron_dense_oracle(B)
    assert t.rho == pytest.approx(oracle.rho, rel=1e-12)
    assert np.abs(t.x - oracle.x).max() < 1e-8
    assert_valid_triple(t, B)


@pytest.mark.parametrize("scale", [0.3, 0.8, 1.0])
def test_uncoupled_layers_need_no_arpack_and_match_the_oracle(monkeypatch,
                                                              scale):
    # the Perron vector is 0 on the second layer, whose root is lower:
    # Lanczos's and ARPACK's entries there come out of either sign within
    # the error tol allows, and are clamped, not refused
    for seed in range(8):
        net = uncoupled_connected_layers(seed=seed, scales=(1.0, scale))
        B = assemble_dense(net)
        oracle = perron_dense_oracle(B)
        with monkeypatch.context() as m:
            no_arpack(m)
            op, calls = counted(supra_operator(net))
            t = perron(op)
        assert t.iterations == len(calls) <= 30
        # without the mark: the power iteration, then ARPACK
        for t in (t, perron(unmarked(supra_operator(net)))):
            assert t.rho == pytest.approx(oracle.rho, rel=1e-12)
            assert np.abs(t.x - oracle.x).max() < 1e-8
            assert_valid_triple(t, B)


def test_even_ring_returns_plus_rho_without_arpack(monkeypatch):
    net = undirected_ring_net()
    B = assemble_dense(net)
    spectrum = np.linalg.eigvalsh(B)
    assert spectrum[0] == pytest.approx(-spectrum[-1], rel=1e-12)
    no_arpack(monkeypatch)
    t = perron(supra_operator(net))
    assert t.rho == pytest.approx(spectrum[-1], rel=1e-12)
    assert_valid_triple(t, B)


@pytest.mark.parametrize("make", [
    lambda: random_multiplex_net(12, N=2000, L=4, gamma=1.0, density=0.003),
    airlines_shaped], ids=["benchmark-shaped", "airlines-shaped"])
def test_symmetric_cold_solve_makes_no_arpack_call(monkeypatch, make):
    net = make()
    no_arpack(monkeypatch)
    op, calls = counted(supra_operator(net))
    t = perron(op)
    # the start's image, at most the cap of Lanczos steps, the accepted
    # vector's fresh product and the left check
    assert t.iterations == len(calls) <= eigen.BLOCK_MAX_STEPS + 2
    assert calls.count("B^T") == 1
    B = net.supra
    bound = 1e-10 * t.rho
    assert np.linalg.norm(B @ t.x - t.rho * t.x) <= bound
    assert (t.x >= 0).all() and np.array_equal(t.x, t.y)


@pytest.mark.parametrize("case", ["airlines-shaped", "small-gap"])
def test_small_gap_symmetric_sides_need_no_arpack(monkeypatch, case):
    net = {"airlines-shaped": airlines_shaped,
           "small-gap": two_dense_layers}[case]()
    arpack_only = perron(unmarked(supra_operator(net)),
                         x0=np.full(net.dim, 1.0))
    no_arpack(monkeypatch)
    op, calls = counted(supra_operator(net))
    t = perron(op)
    assert t.iterations == len(calls)
    # both roots are Rayleigh quotients of a symmetric B whose residuals
    # are within the bound, so each lies that close to the root
    bound = 1e-10 * max(1.0, t.rho)
    assert abs(t.rho - arpack_only.rho) <= 2 * bound
    if net.dim <= 1000:
        oracle = perron_dense_oracle(assemble_dense(net))
        assert abs(t.rho - oracle.rho) <= bound
        assert_valid_triple(t, assemble_dense(net))


def test_small_gap_undirected_resolves_make_no_arpack_call(monkeypatch):
    # the block pass hands the airlines shape's re-solves to perron(),
    # whose operator of the updated network carries the symmetry mark:
    # each runs the Lanczos recurrence from the base pair
    net = airlines_shaped()
    t = perron(supra_operator(net))
    solve, alone = recommend.perron, []
    with monkeypatch.context() as m:
        no_arpack(m)
        m.setattr(recommend, "perron",
                  lambda op, **kw: alone.append(op) or solve(op, **kw))
        removed = rank_removals(t, net, 20, recompute=True)
        added = rank_insertions(t, net, 20, eps=0.3, recompute=True)
    assert len(removed) == len(added) == 20
    assert alone and all(op.symmetric for op in alone)
    for rows, change in ((removed, lambda e: -net.weight(e)),
                         (added, lambda e: 0.3)):
        for r in rows:
            mutated = apply_edge_delta(net, r.edge, change(r.edge))
            # ARPACK alone, from a warm start on an unmarked operator
            ref = perron(unmarked(supra_operator(mutated)),
                         x0=np.full(net.dim, 1.0))
            assert abs(r.rho_after - ref.rho) <= 2e-10 * max(1.0, ref.rho)


def test_lanczos_hands_over_to_arpack_from_the_same_start(monkeypatch):
    net = random_multiplex_net(13, N=150, L=3, gamma=1.0, density=0.04)
    arpack_only = perron(unmarked(supra_operator(net)),
                         x0=np.full(net.dim, 1.0))
    monkeypatch.setattr(eigen, "BLOCK_MAX_STEPS", 5)
    seen = arpack_calls(monkeypatch)
    op, calls = counted(supra_operator(net))
    t = perron(op)
    assert len(seen) == 1
    assert t.iterations == len(calls)
    assert t.rho == arpack_only.rho
    assert np.array_equal(t.x, arpack_only.x)
    # steps 2 to 5 of the recurrence: one product each
    assert t.iterations - arpack_only.iterations == 4


def test_symmetric_solve_keeps_the_budget_and_non_finite_errors():
    net = random_multiplex_net(13, N=150, L=3, gamma=1.0, density=0.04)
    with pytest.raises(ConvergenceError,
                       match="no convergence after 7 operator products") as ei:
        perron(supra_operator(net), max_iter=7)
    assert ei.value.iterations == 7
    base = supra_operator(net)
    calls = []

    def matvec(v):
        calls.append(1)
        return base.matvec(v) if len(calls) < 5 else np.full(net.dim, np.inf)

    op = LinearOperator(base.shape, matvec=matvec, rmatvec=base.rmatvec,
                        dtype=float)
    op.symmetric = True
    with pytest.raises(ConvergenceError, match="iteration 5 ") as ei:
        perron(op)
    assert ei.value.iterations == 5 == len(calls)


# ---------------------------------------------------------------------------
# ARPACK's BLAS threads

def test_arpack_runs_on_one_blas_thread_and_restores_the_count(demo_net):
    blas = _scipy_openblas()
    if blas is None:
        pytest.skip("scipy does not bundle OpenBLAS")
    get, set_ = blas
    base = supra_operator(demo_net)
    threads = []

    def matvec(v):
        threads.append(get())
        return base.matvec(v)

    op = LinearOperator(base.shape, matvec=matvec, rmatvec=base.rmatvec,
                        dtype=float)
    before = get()
    try:
        set_(2)
        perron(op)
        assert get() == 2
        assert 1 in threads  # the products ARPACK asked for
        with pytest.raises(ConvergenceError):
            # a warm start goes to ARPACK at once: raised inside its
            # reverse loop
            perron(op, max_iter=3, x0=np.linspace(1.0, 2.0, op.shape[0]))
        assert get() == 2
    finally:
        set_(before)


def test_concurrent_solves_restore_the_blas_thread_count(demo_net):
    blas = _scipy_openblas()
    if blas is None:
        pytest.skip("scipy does not bundle OpenBLAS")
    get, set_ = blas
    op = supra_operator(demo_net)
    before, interval = get(), sys.getswitchinterval()
    errors = []

    def solve():
        try:
            for _ in range(20):
                perron(op)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    workers = [threading.Thread(target=solve) for _ in range(6)]
    try:
        set_(2)
        sys.setswitchinterval(1e-6)
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        assert not errors
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        set_(before)


BLAS_TRIPLE = """
import hashlib
import numpy as np
import scipy.sparse as sp
from perronnet import Network, perron, supra_operator
# a directed N=150, L=4 network: a ring plus random arcs, large enough
# that OpenBLAS would split ARPACK's n x ncv products across two threads
rng = np.random.default_rng(5)
n = 600
rows = np.concatenate([np.arange(n), rng.integers(0, n, 6 * n)])
cols = np.concatenate([(np.arange(n) + 1) % n, rng.integers(0, n, 6 * n)])
keep = rows != cols
B = sp.csr_matrix((rng.uniform(0.5, 1.5, keep.sum()),
                   (rows[keep], cols[keep])), shape=(n, n))
op = supra_operator(Network(150, 4, B, True))
# a cold solve, and a warm one from a skewed start, which ARPACK makes
start = np.linspace(1.0, 2.0, n)
solves = [perron(op), perron(op, x0=start, y0=start[::-1])]
# an undirected multiplex, N=5000, L=4, solved by Lanczos: a ring in
# layer 1 plus random edges; at NL = 20000 OpenBLAS would split a dot
# product across two threads
N, L = 5000, 4
k = rng.integers(0, L, 3 * N * L) * N
rows = np.concatenate([np.arange(N), k + rng.integers(0, N, k.size)])
cols = np.concatenate([(np.arange(N) + 1) % N, k + rng.integers(0, N, k.size)])
keep = rows != cols
A = sp.csr_matrix((rng.uniform(0.5, 1.5, keep.sum()),
                   (rows[keep], cols[keep])), shape=(N * L, N * L))
net = Network(N, L, A + A.T, False, gamma=1.0)
solves.append(perron(supra_operator(net)))
# and warm from a skewed start, which the recurrence takes too
start = np.linspace(1.0, 2.0, N * L)
solves.append(perron(supra_operator(net), x0=start, y0=start))
for t in solves:
    print(t.rho.hex(), t.kappa.hex(), t.iterations,
          hashlib.sha256(t.x.tobytes() + t.y.tobytes()).hexdigest())
"""


def test_triple_is_bit_identical_on_one_and_two_blas_threads():
    one = run_fresh(BLAS_TRIPLE, OPENBLAS_NUM_THREADS="1")
    two = run_fresh(BLAS_TRIPLE, OPENBLAS_NUM_THREADS="2")
    assert one == two
