"""Two-sided iteration vs dense oracle, triple invariants, edge cases."""

import numpy as np
import pytest

from perronnet import (ConvergenceError, condition_number, perron,
                       perron_dense_oracle, supra_operator)
from perronnet.model import SupraOperator

from conftest import (dense_perron_pair, random_general_net,
                      random_multiplex_net)


def op_from_dense(B):
    B = np.asarray(B, dtype=float)
    return SupraOperator(B.shape[0], lambda v: B @ v, lambda v: B.T @ v)


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
    nan_op = SupraOperator(3, lambda v: np.full(3, np.nan),
                           lambda v: np.full(3, np.nan))
    with pytest.raises(ConvergenceError, match="iteration 1 ") as ei:
        perron(nan_op)
    assert ei.value.iterations == 1


def test_non_finite_iterate_names_its_iteration():
    # the two-cycle converges slowly from a skewed start; its products turn
    # to NaN from the third iteration on (call 0 is the shift estimate)
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    calls = []

    def matvec(v):
        calls.append(1)
        return B @ v if len(calls) < 4 else np.full(2, np.nan)

    op = SupraOperator(2, matvec, lambda v: B.T @ v)
    with pytest.raises(ConvergenceError, match="iteration 3 ") as ei:
        perron(op, x0=np.array([1.0, 2.0]))
    assert ei.value.iterations == 3
    assert len(calls) == 4
