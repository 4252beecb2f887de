"""Wilkinson perturbation, sensitivity entries/matrices, structured cones,
finite-difference consistency, spectral impact."""

import numpy as np
import pytest
import scipy.sparse as sp

from perronnet import (DenseCapError, EdgeKey, InfeasibleError, InputError,
                       Network, assemble_dense, exp0,
                       first_order_delta_rho, perron, perron_communicability,
                       sensitivity_entry, sensitivity_matrix,
                       sensitivity_matrix_multiplex, spectral_impact,
                       structured_condition_number,
                       structured_sensitivity_matrix, structured_wilkinson,
                       supra_operator, symmetric_sensitivity_entry, wilkinson)

from conftest import (dense_rho, multiplex_from_layers, random_general_net,
                      random_multiplex_net, run_fresh)


def triple_of(net, tol=1e-12):
    return perron(supra_operator(net), tol=tol)


# ---------------------------------------------------------------------------
# Wilkinson perturbation

def test_wilkinson_unit_norms(demo_net):
    W = wilkinson(triple_of(demo_net))
    assert W.frobenius_norm() == pytest.approx(1.0, abs=1e-12)
    # rank one: spectral norm equals Frobenius norm
    s = np.linalg.svd(W.toarray(), compute_uv=False)
    assert s[0] == pytest.approx(1.0, abs=1e-10)
    assert s[1] == pytest.approx(0.0, abs=1e-12)


def test_wilkinson_symmetric_for_undirected():
    net = random_multiplex_net(2, N=5, L=2, gamma=1.0, directed=False)
    W = wilkinson(triple_of(net)).toarray()
    assert np.abs(W - W.T).max() < 1e-8


def test_wilkinson_entries_match_outer_product(demo_net):
    t = triple_of(demo_net)
    W = wilkinson(t).toarray()
    for a, b in ((0, 0), (3, 7), (11, 2)):
        assert W[a, b] == pytest.approx(t.y[a] * t.x[b], rel=1e-12)


def test_wilkinson_shift_on_demo(demo_net):
    t = triple_of(demo_net)
    est = first_order_delta_rho(t, wilkinson(t), 0.3)
    assert est == pytest.approx(0.3 * t.kappa, rel=1e-12)
    assert est == pytest.approx(0.3074, abs=5e-5)
    new_rho = perron(supra_operator(demo_net) + 0.3 * wilkinson(t),
                     tol=1e-12).rho
    assert new_rho - t.rho == pytest.approx(0.3041, abs=5e-5)


def test_first_order_accepts_dense_and_zero(demo_net):
    t = triple_of(demo_net)
    assert first_order_delta_rho(t, np.zeros((12, 12)), 0.3) == 0.0
    W = wilkinson(t)
    assert first_order_delta_rho(t, W.toarray(), 0.3) == pytest.approx(
        first_order_delta_rho(t, W, 0.3), rel=1e-12)


# ---------------------------------------------------------------------------
# entries

def test_demo_sensitivity_entries(demo_net):
    t = triple_of(demo_net)
    assert sensitivity_entry(t, EdgeKey(2, 4, 3, 2), 4) == pytest.approx(
        0.2241, abs=5e-5)
    for row, expected in (((1, 2, 2, 1), 0.0073), ((3, 4, 3, 3), 0.0211),
                          ((1, 4, 1, 1), 0.0271), ((1, 2, 1, 1), 0.0331)):
        assert sensitivity_entry(t, EdgeKey(*row), 4) == pytest.approx(
            expected, abs=5e-5)


def test_every_entry_below_kappa(demo_net):
    t = triple_of(demo_net)
    S = sensitivity_matrix(t, 4, 3).toarray()
    assert S.max() < t.kappa


def test_entry_out_of_range(demo_net):
    t = triple_of(demo_net)
    with pytest.raises(InputError):
        sensitivity_entry(t, EdgeKey(1, 1, 4, 1), 4)


ENTRY_LOOKUPS = {
    "sensitivity_entry": lambda t, e: sensitivity_entry(t, e, 4),
    "symmetric_sensitivity_entry":
        lambda t, e: symmetric_sensitivity_entry(t, e, 4),
    "SensitivityMatrix.entry": lambda t, e: sensitivity_matrix(t, 4, 3).entry(e),
}


@pytest.mark.parametrize("lookup", ENTRY_LOOKUPS.values(), ids=ENTRY_LOOKUPS)
@pytest.mark.parametrize("row", [(0, 1, 1, 1), (5, 1, 1, 1), (1, 5, 1, 1),
                                 (1, 1, 0, 1), (1, 1, 1, 4)])
def test_entry_lookups_reject_out_of_range_ids(demo_net, lookup, row):
    # a flat index inside 0..NL-1 can still come from a bad id: node 5 of
    # layer 1 is node 1 of layer 2, and node 0 of layer 1 reads y[-1]
    with pytest.raises(InputError, match="out of range"):
        lookup(triple_of(demo_net), EdgeKey(*row))


# ---------------------------------------------------------------------------
# unstructured matrix

def test_matrix_frobenius_is_kappa(demo_net):
    t = triple_of(demo_net)
    S = sensitivity_matrix(t, 4, 3)
    assert S.frobenius_norm() == pytest.approx(t.kappa, rel=1e-12)
    assert S.kappa_variant == pytest.approx(t.kappa, rel=1e-12)
    assert np.linalg.norm(S.toarray(), "fro") == pytest.approx(
        t.kappa, rel=1e-12)


def test_communicability_recovered_from_matrix(demo_net):
    t = triple_of(demo_net)
    rep = perron_communicability(t, 4, 3)
    S = sensitivity_matrix(t, 4, 3).toarray()
    assert rep.c_pn == pytest.approx(
        exp0(t.rho) / t.kappa * float(np.ones(12) @ S @ np.ones(12)),
        rel=1e-10)


def test_matrix_argmax_is_demo_top_edge(demo_net):
    t = triple_of(demo_net)
    e, val = sensitivity_matrix(t, 4, 3).argmax_entry()
    assert (e.i, e.j, e.k, e.l) == (2, 4, 3, 2)
    assert val == pytest.approx(0.2241, abs=5e-5)


def test_matrix_entry_accessor(demo_net):
    t = triple_of(demo_net)
    S = sensitivity_matrix(t, 4, 3)
    e = EdgeKey(3, 1, 2, 3)
    assert S.entry(e) == pytest.approx(sensitivity_entry(t, e, 4), rel=1e-12)


# ---------------------------------------------------------------------------
# structured variants

def test_monolayer_block_matrix_equals_unstructured():
    net = random_multiplex_net(3, N=6, L=1, gamma=0.0, directed=True)
    t = triple_of(net)
    D = sensitivity_matrix_multiplex(t, net)
    U = sensitivity_matrix(t, 6, 1)
    assert np.allclose(D.toarray(), U.toarray(), atol=1e-14)
    assert D.kappa_variant == pytest.approx(U.kappa_variant, rel=1e-12)
    assert structured_condition_number(t, "D", net) == pytest.approx(
        t.kappa, rel=1e-12)


def test_block_matrix_matches_masked_outer_product():
    net = random_multiplex_net(7, N=5, L=3, gamma=0.6, directed=True)
    t = triple_of(net)
    D = sensitivity_matrix_multiplex(t, net).toarray()
    full = t.kappa * np.outer(t.y, t.x)
    mask = np.zeros_like(full, dtype=bool)
    for l in range(3):
        mask[5 * l:5 * (l + 1), 5 * l:5 * (l + 1)] = True
    assert np.allclose(D[mask], full[mask], atol=1e-14)
    assert np.count_nonzero(D[~mask]) == 0


def test_sparse_matrix_masks_to_layer_pattern():
    net = random_multiplex_net(8, N=5, L=2, gamma=0.8, directed=True)
    t = triple_of(net)
    S = structured_sensitivity_matrix(t, net).toarray()
    B_intra = assemble_dense(multiplex_from_layers(
        [net.arcs[5 * l:5 * (l + 1), 5 * l:5 * (l + 1)].toarray()
         for l in range(net.L)], gamma=0.0, directed=True))
    assert np.count_nonzero(S[B_intra == 0]) == 0
    D = sensitivity_matrix_multiplex(t, net).toarray()
    nz = B_intra > 0
    assert np.allclose(S[nz], D[nz], atol=1e-14)


def test_complete_layers_make_cones_agree():
    full = np.ones((4, 4)) - np.eye(4)
    net = multiplex_from_layers([full, full], gamma=1.0)
    t = triple_of(net)
    D = sensitivity_matrix_multiplex(t, net)
    S = structured_sensitivity_matrix(t, net)
    offdiag = ~np.eye(8, dtype=bool)
    mask = D.toarray() != 0
    assert np.allclose(S.toarray()[mask & offdiag],
                       D.toarray()[mask & offdiag], atol=1e-14)
    # the S cone additionally drops the block diagonals themselves
    assert S.kappa_variant <= D.kappa_variant


def dense_argmax(M):
    """Largest off-diagonal entry of the materialized matrix M, first in
    row-major order."""
    arr = M.toarray()
    np.fill_diagonal(arr, -np.inf)
    a, b = np.unravel_index(np.argmax(arr), arr.shape)
    N = M.N
    return EdgeKey(int(a) % N + 1, int(b) % N + 1,
                   int(a) // N + 1, int(b) // N + 1), float(arr[a, b])


def test_argmax_entry_matches_dense_argmax():
    for seed in range(12):
        net = random_multiplex_net(seed + 300, N=2 + seed % 5, L=1 + seed % 3,
                                   gamma=0.5, directed=bool(seed % 2))
        t = triple_of(net)
        for M in (sensitivity_matrix(t, net.N, net.L),
                  sensitivity_matrix_multiplex(t, net),
                  structured_sensitivity_matrix(t, net),
                  structured_wilkinson(t, "D", net),
                  structured_wilkinson(t, "S", net)):
            assert M.argmax_entry() == dense_argmax(M), (seed, M.variant)


def test_structured_argmax_entry_at_order_8000():
    # N=2000, L=4: the dense matrix would exceed the materializing cap
    rng = np.random.default_rng(4)
    N, L = 2000, 4
    layers = []
    for _ in range(L):
        A = sp.random(N, N, density=3 / N, random_state=rng, format="csr")
        A = A + A.T + sp.diags(np.ones(N - 1), 1) + sp.diags(np.ones(N - 1), -1)
        A.setdiag(0)
        A.eliminate_zeros()
        layers.append(A.tocsr())
    net = Network(N, L, sp.block_diag(layers, format="csr"), False, gamma=1.0)
    t = triple_of(net, tol=1e-10)
    D = sensitivity_matrix_multiplex(t, net)
    S = structured_sensitivity_matrix(t, net)
    with pytest.raises(DenseCapError):
        D.toarray()
    eD, vD = D.argmax_entry()
    best_D = max((np.outer(t.y[l * N:(l + 1) * N], t.x[l * N:(l + 1) * N])
                  - np.diag(np.full(N, np.inf))).max() for l in range(L))
    assert vD == pytest.approx(t.kappa * best_D, rel=1e-12)
    assert D.entry(eD) == vD
    eS, vS = S.argmax_entry()
    best_S = max((t.y[l * N + A.tocoo().row] * t.x[l * N + A.tocoo().col]).max()
                 for l, A in enumerate(layers))
    assert vS == pytest.approx(t.kappa * best_S, rel=1e-12)
    assert S.entry(eS) == vS
    assert layers[eS.k - 1][eS.i - 1, eS.j - 1] > 0


def test_condition_number_chain_random_multiplexes():
    for seed in range(10):
        directed = bool(seed % 2)
        net = random_multiplex_net(seed + 100, N=4 + seed % 4, L=1 + seed % 3,
                                   gamma=0.5 + 0.25 * (seed % 3),
                                   directed=directed)
        t = triple_of(net)
        kD = structured_condition_number(t, "D", net)
        kS = structured_condition_number(t, "S", net)
        assert kS <= kD * (1 + 1e-12)
        assert kD <= t.kappa * (1 + 1e-12)
        D = sensitivity_matrix_multiplex(t, net)
        S = structured_sensitivity_matrix(t, net)
        assert D.kappa_variant == pytest.approx(t.kappa * kD / t.kappa, rel=1e-10)
        assert S.kappa_variant == pytest.approx(kS, rel=1e-10)


def test_condition_number_matches_dense_projection_oracle():
    net = random_multiplex_net(42, N=5, L=3, gamma=0.7, directed=True)
    t = triple_of(net)
    W = np.outer(t.y, t.x)
    proj = np.zeros_like(W)
    for l in range(3):
        sl = slice(5 * l, 5 * (l + 1))
        proj[sl, sl] = W[sl, sl]
    expected = np.linalg.norm(proj, "fro") / float(t.y @ t.x)
    assert structured_condition_number(t, "D", net) == pytest.approx(
        expected, rel=1e-12)
    # blockwise formula under the square root
    blocks = sum(np.linalg.norm(t.y[5 * l:5 * l + 5]) ** 2
                 * np.linalg.norm(t.x[5 * l:5 * l + 5]) ** 2 for l in range(3))
    assert structured_condition_number(t, "D", net) == pytest.approx(
        t.kappa * np.sqrt(blocks), rel=1e-12)


def test_structured_wilkinson_properties():
    net = random_multiplex_net(17, N=5, L=2, gamma=0.9, directed=True)
    t = triple_of(net)
    for cone in ("D", "S"):
        E = structured_wilkinson(t, cone, net)
        assert E.frobenius_norm() == pytest.approx(1.0, rel=1e-12)
        kc = structured_condition_number(t, cone, net)
        assert first_order_delta_rho(t, E, 1.0) == pytest.approx(kc, rel=1e-10)
        # finite-difference: shifting by eps*E moves the root by ~eps*kappa_cone
        eps = 1e-5
        shifted = dense_rho(assemble_dense(net) + eps * E.toarray())
        assert shifted - t.rho == pytest.approx(eps * kc, rel=1e-3)


def test_structured_wilkinson_monolayer_equals_wilkinson():
    net = random_multiplex_net(18, N=6, L=1, gamma=0.0, directed=True)
    t = triple_of(net)
    E = structured_wilkinson(t, "D", net)
    assert np.allclose(E.toarray(), wilkinson(t).toarray(), atol=1e-14)


def test_structured_wilkinson_beats_random_cone_directions():
    net = random_multiplex_net(19, N=4, L=2, gamma=0.75, directed=True)
    t = triple_of(net)
    kD = structured_condition_number(t, "D", net)
    rng = np.random.default_rng(99)
    denom = float(t.y @ t.x)
    for _ in range(1000):
        blocks = [rng.random((4, 4)) for _ in range(2)]
        E = np.zeros((8, 8))
        for l, blk in enumerate(blocks):
            E[4 * l:4 * l + 4, 4 * l:4 * l + 4] = blk
        E /= np.linalg.norm(E, "fro")
        assert float(t.y @ E @ t.x) / denom <= kD + 1e-12


def test_structured_wilkinson_zero_projection_is_infeasible():
    # no intra-layer edges at all: the S projection vanishes
    net = multiplex_from_layers([np.zeros((1, 1)), np.zeros((1, 1))], gamma=1.0)
    t = triple_of(net)
    with pytest.raises(InfeasibleError):
        structured_wilkinson(t, "S", net)


def test_structured_requires_multiplex(demo_net):
    t = triple_of(demo_net)
    with pytest.raises(InputError):
        structured_condition_number(t, "D", demo_net)
    with pytest.raises(InputError):
        sensitivity_matrix_multiplex(t, demo_net)


def test_unknown_cone_rejected():
    net = random_multiplex_net(20, N=3, L=2, gamma=1.0)
    t = triple_of(net)
    with pytest.raises(InputError):
        structured_condition_number(t, "Q", net)


# ---------------------------------------------------------------------------
# symmetric sensitivity

def test_symmetric_entry_two_cycle():
    net = multiplex_from_layers([[[0, 1], [1, 0]]], gamma=0.0)
    t = triple_of(net)
    assert symmetric_sensitivity_entry(t, EdgeKey(1, 2, 1, 1), 2) == \
        pytest.approx(1.0, rel=1e-10)


def test_symmetric_entry_is_sum_of_directions():
    net = random_multiplex_net(21, N=5, L=2, gamma=1.0, directed=False)
    t = triple_of(net)
    e = EdgeKey(2, 5, 1, 1)
    s_sym = symmetric_sensitivity_entry(t, e, 5)
    s_fwd = sensitivity_entry(t, e, 5)
    s_bwd = sensitivity_entry(t, e.reversed(), 5)
    assert s_sym == pytest.approx(s_fwd + s_bwd, rel=1e-8)


def test_symmetric_entry_rejects_directed(demo_net):
    t = triple_of(demo_net)
    with pytest.raises(InputError):
        symmetric_sensitivity_entry(t, EdgeKey(1, 2, 1, 1), 4, directed=True)


# ---------------------------------------------------------------------------
# spectral impact

def test_spectral_impact_signs_and_pattern(demo_net):
    t = triple_of(demo_net)
    M = spectral_impact(demo_net, t)
    arr = M.toarray()
    assert (arr <= 0).all()
    B = assemble_dense(demo_net)
    assert np.count_nonzero(arr[B == 0]) == 0
    assert np.count_nonzero(arr) == np.count_nonzero(B)


def test_spectral_impact_predicts_removal_scale(demo_net):
    t = triple_of(demo_net)
    M = spectral_impact(demo_net, t).toarray()
    # arc (1,1)->(4,1): flat (0, 3); prediction of the relative root change
    predicted_shift = t.rho * M[0, 3]
    from perronnet import apply_edge_delta
    removed = apply_edge_delta(demo_net, EdgeKey(1, 4, 1, 1), -1.0)
    actual = perron(supra_operator(removed), tol=1e-12).rho - t.rho
    assert actual == pytest.approx(-0.0201, abs=5e-4)
    assert predicted_shift < 0
    assert 0.3 < predicted_shift / actual < 3.0


def test_spectral_impact_multiplex_masks_coupling():
    net = random_multiplex_net(23, N=4, L=2, gamma=0.9, directed=True)
    t = triple_of(net)
    arr = spectral_impact(net, t).toarray()
    for l in range(2):
        for m in range(2):
            blk = arr[4 * l:4 * l + 4, 4 * m:4 * m + 4]
            if l != m:
                assert np.count_nonzero(blk) == 0


# ---------------------------------------------------------------------------
# finite-difference slope of the first-order formula

def fd_error(B, E, rho0, predicted_slope, eps):
    return abs(dense_rho(B + eps * E) - rho0 - eps * predicted_slope)


def test_first_order_error_is_second_order():
    # halving eps from 1e-3 must shrink the residual roughly 4x
    net, B = random_general_net(31, N=4, L=2, density=0.45)
    t = triple_of(net)
    rho0 = dense_rho(B)
    rng = np.random.default_rng(5)
    R = rng.random((8, 8))
    cases = {
        "worst-case": wilkinson(t).toarray(),
        "random": R / np.linalg.norm(R, "fro"),
    }
    for name, E in cases.items():
        slope = first_order_delta_rho(t, E, 1.0)
        e1 = fd_error(B, E, rho0, slope, 1e-3)
        e2 = fd_error(B, E, rho0, slope, 5e-4)
        assert e2 > 0, name
        assert 3.0 <= e1 / e2 <= 5.0, (name, e1, e2)


# ---------------------------------------------------------------------------
# independence of the BLAS thread count

BLAS_REPORT = """
import numpy as np
import scipy.sparse as sp
from perronnet import (Network, first_order_delta_rho, perron,
                       sensitivity_matrix, structured_condition_number,
                       supra_operator, wilkinson)
# an undirected multiplex, N=5000, L=4: a ring in layer 1 plus random
# edges; at NL = 20000 OpenBLAS would split a dot product across two
# threads
rng = np.random.default_rng(5)
N, L = 5000, 4
k = rng.integers(0, L, 3 * N * L) * N
rows = np.concatenate([np.arange(N), k + rng.integers(0, N, k.size)])
cols = np.concatenate([(np.arange(N) + 1) % N, k + rng.integers(0, N, k.size)])
keep = rows != cols
A = sp.csr_matrix((rng.uniform(0.5, 1.5, keep.sum()),
                   (rows[keep], cols[keep])), shape=(N * L, N * L))
net = Network(N, L, A + A.T, False, gamma=1.0)
t = perron(supra_operator(net))
print(structured_condition_number(t, "D", net).hex(),
      structured_condition_number(t, "S", net).hex(),
      sensitivity_matrix(t, N, L).frobenius_norm().hex(),
      first_order_delta_rho(t, wilkinson(t), 0.3).hex())
"""


def test_report_values_are_bit_identical_on_one_and_two_blas_threads():
    # the CLI's kappa_D, kappa_S, Frobenius norm and worst-case shift
    one = run_fresh(BLAS_REPORT, OPENBLAS_NUM_THREADS="1")
    two = run_fresh(BLAS_REPORT, OPENBLAS_NUM_THREADS="2")
    assert one == two
