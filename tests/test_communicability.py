"""Communicability values, bounds, eigentensors, versatility, hub/authority."""

import math

import numpy as np
import pytest

from perronnet import (InputError, assemble_dense, eigentensors, exp0,
                       hub_authority_communicability,
                       marginal_layer_centralities, perron,
                       perron_communicability, perron_dense_oracle,
                       supra_operator, total_communicability0, versatility)
from perronnet.eigen import PerronTriple

from conftest import (multiplex_from_layers, random_general_net,
                      random_multiplex_net)


def triple_of(net, tol=1e-12):
    return perron(supra_operator(net), tol=tol)


def fake_triple(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return PerronTriple(rho=1.0, x=x, y=y, kappa=1.0 / float(y @ x),
                        residuals=(0.0, 0.0), iterations=0)


# ---------------------------------------------------------------------------
# exp0

def test_exp0_basics():
    assert exp0(0.0) == 0.0
    assert exp0(1.0) == pytest.approx(math.e - 1.0, rel=1e-15)


def test_exp0_small_argument_no_cancellation():
    # reference: expm1(1e-12) = 1e-12 + 5e-25 + ... to far beyond double
    assert exp0(1e-12) == pytest.approx(1.0000000000005e-12, rel=1e-4)
    assert exp0(1e-12) != 0.0


# ---------------------------------------------------------------------------
# communicability report

def test_two_cycle_monolayer_value():
    net = multiplex_from_layers([[[0, 1], [1, 0]]], gamma=0.0)
    rep = perron_communicability(triple_of(net), N=2, L=1)
    assert rep.c_pn == pytest.approx(2.0 * (math.e - 1.0), rel=1e-10)


def test_direct_and_marginal_forms_agree(demo_net):
    # the direct sum form equals the product of the summed marginal layer
    # centralities: (sum y)(sum x) = (1^T c_Y)(1^T c_X)
    t = triple_of(demo_net)
    rep = perron_communicability(t, demo_net.N, demo_net.L)
    marginal = exp0(t.rho) * float(rep.c_Y.sum()) * float(rep.c_X.sum())
    assert rep.c_pn == pytest.approx(marginal, rel=1e-10)


def test_inner_product_marginal_form_undercounts_for_multilayer(demo_net):
    # the inner product c_Y . c_X drops every cross-layer term of
    # (sum y)(sum x); with positive vectors and L > 1 it is strictly
    # smaller, so it is not a valid alternative formula for c_pn
    t = triple_of(demo_net)
    rep = perron_communicability(t, demo_net.N, demo_net.L)
    inner = exp0(t.rho) * float(rep.c_Y @ rep.c_X)
    cross_terms = (float(rep.c_Y.sum()) * float(rep.c_X.sum())
                   - float(rep.c_Y @ rep.c_X))
    assert cross_terms > 0
    assert rep.c_pn > inner


def test_bound_chain_on_instances(demo_net):
    nets = [demo_net,
            random_multiplex_net(1, N=5, L=3, gamma=0.7),
            random_general_net(2, N=4, L=2)[0]]
    for net in nets:
        t = triple_of(net)
        rep = perron_communicability(t, net.N, net.L)
        assert rep.lower <= rep.c_pn + 1e-12
        assert rep.c_pn <= rep.upper_cos * (1 + 1e-12)
        assert rep.upper_cos <= rep.upper_basic * (1 + 1e-12)


def test_undirected_symmetry_properties():
    net = random_multiplex_net(4, N=6, L=2, gamma=1.0, directed=False)
    t = triple_of(net)
    rep = perron_communicability(t, net.N, net.L)
    assert np.abs(rep.c_X - rep.c_Y).max() < 1e-8
    assert rep.phi == pytest.approx(0.0, abs=1e-7)
    assert rep.c_pn == pytest.approx(
        exp0(t.rho) * float(rep.c_Y.sum()) ** 2, rel=1e-8)
    assert rep.upper_cos == pytest.approx(rep.upper_basic, rel=1e-8)


def test_phi_is_exact_at_zero_and_away_from_it():
    # x = y gives equal marginals, whose angle is 0 exactly; acos of their
    # rounded cosine read about 1.5e-8 for some of these vectors
    for seed in range(10):
        x = np.random.default_rng(seed).uniform(0.1, 1.0, 6)
        x /= np.linalg.norm(x)
        assert perron_communicability(fake_triple(x, x), 2, 3).phi == 0.0
    rep = perron_communicability(fake_triple([0.6, 0.8], [1.0, 0.0]), 1, 2)
    assert rep.phi == pytest.approx(math.acos(0.6), rel=1e-15)


def test_monolayer_reduces_to_l1_norms():
    net, _ = random_general_net(6, N=7, L=1)
    t = triple_of(net)
    rep = perron_communicability(t, 7, 1)
    assert rep.c_pn == pytest.approx(
        exp0(t.rho) * np.abs(t.y).sum() * np.abs(t.x).sum(), rel=1e-10)


# ---------------------------------------------------------------------------
# eigentensors / marginals / versatility

def test_eigentensor_layout_explicit():
    t = fake_triple([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1])
    e = eigentensors(t, N=2, L=2)
    assert np.array_equal(e.X, [[0.1, 0.3], [0.2, 0.4]])
    assert np.array_equal(e.Y, [[0.4, 0.2], [0.3, 0.1]])


def test_eigentensor_roundtrip(demo_net):
    t = triple_of(demo_net)
    e = eigentensors(t, demo_net.N, demo_net.L)
    assert np.array_equal(e.X.T.reshape(-1), t.x)
    assert np.array_equal(e.Y.T.reshape(-1), t.y)


def test_eigentensor_dimension_mismatch(demo_net):
    t = triple_of(demo_net)
    with pytest.raises(InputError):
        eigentensors(t, 5, 3)


def test_marginals_consistency(demo_net):
    t = triple_of(demo_net)
    e = eigentensors(t, demo_net.N, demo_net.L)
    c_Y, c_X = marginal_layer_centralities(e)
    assert np.allclose(c_Y, e.Y.sum(axis=0))
    assert c_X.sum() == pytest.approx(np.abs(t.x).sum(), rel=1e-12)
    assert c_Y.sum() == pytest.approx(np.abs(t.y).sum(), rel=1e-12)


def test_marginals_monolayer():
    net, _ = random_general_net(9, N=5, L=1)
    t = triple_of(net)
    c_Y, c_X = marginal_layer_centralities(eigentensors(t, 5, 1))
    assert c_Y.shape == (1,)
    assert c_Y[0] == pytest.approx(np.abs(t.y).sum(), rel=1e-12)


def test_versatility_rules(demo_net):
    t = triple_of(demo_net)
    e = eigentensors(t, demo_net.N, demo_net.L)
    nu = versatility(e)
    # independent recompute: reshape and sum by hand
    manual = t.y.reshape(demo_net.L, demo_net.N).sum(axis=0)
    assert np.allclose(nu, manual, atol=1e-14)
    assert np.array_equal(versatility(e, np.zeros(3)), np.zeros(4))
    with pytest.raises(InputError):
        versatility(e, np.ones(2))
    with pytest.raises(InputError):
        versatility(e, [-1.0, 0.0, 0.0])


@pytest.mark.parametrize("weights, message", [
    ([1.0, np.nan, 1.0], "weights must be finite"),
    ([np.inf, 0.0, 1.0], "weights must be finite"),
    ([1.0, -1.0, 1.0], "weights must be nonnegative")],
    ids=["nan", "inf", "negative"])
def test_versatility_refuses_non_finite_and_negative_weights(demo_net, weights,
                                                             message):
    e = eigentensors(triple_of(demo_net), demo_net.N, demo_net.L)
    with pytest.raises(InputError, match=f"^{message}$"):
        versatility(e, weights)


def test_versatility_monolayer_is_left_vector():
    net, _ = random_general_net(10, N=5, L=1)
    t = triple_of(net)
    nu = versatility(eigentensors(t, 5, 1))
    assert np.allclose(nu, t.y, atol=1e-14)


# ---------------------------------------------------------------------------
# total communicability (comparison quantity)

def test_total_communicability_single_zero_node():
    net = multiplex_from_layers([np.zeros((1, 1))], gamma=0.0)
    assert total_communicability0(net) == pytest.approx(0.0, abs=1e-14)


def test_total_communicability_two_cycle_closed_form():
    net = multiplex_from_layers([[[0, 1], [1, 0]]], gamma=0.0)
    assert total_communicability0(net) == pytest.approx(
        2.0 * (math.e - 1.0), rel=1e-12)


def test_total_communicability_tracks_kappa_times_cpn():
    # dense positive matrix: dominant root well separated from the rest
    rng = np.random.default_rng(12)
    B = rng.uniform(0.5, 1.5, (10, 10))
    np.fill_diagonal(B, 0.0)
    from conftest import multilayer_from_dense
    net = multilayer_from_dense(B, 10, 1)
    w = np.linalg.eigvals(B)
    mods = np.sort(np.abs(w))[::-1]
    assert mods[0] >= 2.0 * mods[1]  # instance qualifies
    t = triple_of(net)
    rep = perron_communicability(t, 10, 1)
    ratio = total_communicability0(net) / (t.kappa * rep.c_pn)
    assert abs(ratio - 1.0) <= 0.10


def test_total_communicability_where_its_products_overflow():
    # 2 (e^707 - 1) is about 2.2e307, past the range of the products
    net = multiplex_from_layers([[[0, 707], [707, 0]]], gamma=0.0)
    assert total_communicability0(net) == pytest.approx(2 * math.expm1(707),
                                                        rel=1e-12)
    # a skewed directed pair: 1'exp(B)1 = 2 cosh rho + (a + b) sinh(rho) / rho
    # with rho = sqrt(ab), about 4.2e307; its largest row sum, a, exceeds the
    # log of that by 79000
    a, b = 80000.0, 6.2
    net = multiplex_from_layers([[[0, a], [b, 0]]], gamma=0.0, directed=True)
    rho = math.sqrt(a * b)
    want = math.exp(rho + math.log1p((a + b) / (2 * rho))) - 2
    assert total_communicability0(net) == pytest.approx(want, rel=1e-12)
    # past the float range
    net = multiplex_from_layers([[[0, 84720], [5.8833, 0]]], gamma=0.0,
                                directed=True)
    assert total_communicability0(net) == math.inf


def random_net(kind, seed, directed):
    from conftest import multilayer_from_dense
    if kind == "multiplex":
        return random_multiplex_net(seed, N=7, L=3, gamma=0.6,
                                    directed=directed)
    _, B = random_general_net(seed, N=6, L=3)
    if not directed:
        B = B + B.T
    return multilayer_from_dense(B, 6, 3, directed=directed)


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("kind", ["multiplex", "general"])
@pytest.mark.parametrize("seed", [3, 17])
def test_total_communicability_matches_dense_expm(kind, directed, seed):
    from scipy.linalg import expm
    net = random_net(kind, seed, directed)
    expected = float(expm(assemble_dense(net)).sum() - net.dim)
    assert total_communicability0(net) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# hub / authority communicability

def test_hub_authority_equal_for_symmetric():
    net = random_multiplex_net(13, N=5, L=2, gamma=1.0, directed=False)
    hub, auth = hub_authority_communicability(net)
    assert hub == pytest.approx(auth, rel=1e-8)


def test_hub_authority_share_spectral_radius(demo_net):
    op = supra_operator(demo_net)
    th = perron(op @ op.H, tol=1e-12)
    ta = perron(op.H @ op, tol=1e-12)
    assert th.rho == pytest.approx(ta.rho, rel=1e-9)


@pytest.mark.parametrize("directed", [True, False])
def test_hub_and_authority_gram_solves_match_the_dense_oracle(monkeypatch,
                                                              directed):
    # B B^T and B^T B are symmetric for any B: both are solved by the
    # Lanczos recurrence, with no ARPACK call
    from perronnet import eigen

    def eigs(*args, **kwargs):
        raise AssertionError("ARPACK was called")

    net = (random_general_net(15, N=6, L=2, density=0.2)[0] if directed
           else random_multiplex_net(16, N=8, L=2, gamma=0.5))
    B = assemble_dense(net)
    monkeypatch.setattr(eigen, "eigs", eigs)
    hub, auth = hub_authority_communicability(net, tol=1e-12)
    for got, gram in ((hub, B @ B.T), (auth, B.T @ B)):
        t = perron_dense_oracle(gram)
        assert got == pytest.approx(exp0(t.rho) * float(t.x.sum()) ** 2,
                                    rel=1e-9)


def test_hub_communicability_matches_dense_gram():
    net, B = random_general_net(14, N=4, L=2)
    hub, auth = hub_authority_communicability(net, tol=1e-12)
    tg = perron_dense_oracle(B @ B.T)
    expected_hub = exp0(tg.rho) * float(tg.x.sum()) ** 2
    assert hub == pytest.approx(expected_hub, rel=1e-8)
    ta = perron_dense_oracle(B.T @ B)
    expected_auth = exp0(ta.rho) * float(ta.x.sum()) ** 2
    assert auth == pytest.approx(expected_auth, rel=1e-8)
