"""Network construction, file loading, operators, mutation, connectivity."""

import numpy as np
import pytest
import scipy.sparse as sp

from perronnet import (EdgeKey, InputError, MultilayerNetwork,
                       MultiplexNetwork, ParseError,
                       apply_edge_delta, assemble_dense, authority_operator,
                       hub_operator, is_strongly_connected, load_multilayer,
                       load_multiplex, supra_operator)
from perronnet.errors import DenseCapError
from perronnet.model import _bump

from conftest import (bfs_strongly_connected, multilayer_from_dense,
                      multiplex_from_layers, random_general_net,
                      random_multiplex_net)


# ---------------------------------------------------------------------------
# loaders

def write(tmp_path, text, name="net.edges"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_multiplex_single_layer_cycle(tmp_path):
    p = write(tmp_path, "2 1\n1 1 2 1.0\n")
    net = load_multiplex(p, gamma=0.0, directed=False)
    A = net.layers[0].toarray()
    assert np.array_equal(A, [[0, 1], [1, 0]])


def test_load_multiplex_directed_single_arc(tmp_path):
    p = write(tmp_path, "2 1\n1 1 2 2.5\n")
    net = load_multiplex(p, gamma=0.0, directed=True)
    assert net.weight(EdgeKey(1, 2, 1, 1)) == 2.5
    assert net.weight(EdgeKey(2, 1, 1, 1)) == 0.0


def test_load_multiplex_comments_and_blanks(tmp_path):
    p = write(tmp_path, "# c\n\n2 2\n# another\n1 1 2 1.0\n\n2 1 2 3.0\n")
    net = load_multiplex(p, gamma=0.5)
    assert net.L == 2 and net.gamma == 0.5
    assert net.weight(EdgeKey(1, 2, 2, 2)) == 3.0


def test_load_multiplex_out_of_range(tmp_path):
    p = write(tmp_path, "2 1\n1 1 3 1.0\n")
    with pytest.raises(ParseError) as ei:
        load_multiplex(p, gamma=0.0)
    assert "out of range" in str(ei.value) and ":2:" in str(ei.value)


def test_load_multiplex_rejects_bad_weight(tmp_path):
    for bad in ("0.0", "-1.0", "abc", "inf", "nan", "-inf", "1e999"):
        p = write(tmp_path, f"2 1\n1 1 2 {bad}\n")
        with pytest.raises(ParseError):
            load_multiplex(p, gamma=0.0)
    p = write(tmp_path, "2 1\n1 1 1 2 inf\n")
    with pytest.raises(ParseError, match="finite"):
        load_multilayer(p)


def test_load_multiplex_rejects_duplicates(tmp_path):
    p = write(tmp_path, "3 1\n1 1 2 1.0\n1 1 2 2.0\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_multiplex(p, gamma=0.0)
    # reversed duplicate collides for undirected input
    p = write(tmp_path, "3 1\n1 1 2 1.0\n1 2 1 2.0\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_multiplex(p, gamma=0.0, directed=False)
    load_multiplex(p, gamma=0.0, directed=True)  # fine as two arcs


def test_load_multiplex_rejects_self_loop(tmp_path):
    p = write(tmp_path, "2 1\n1 1 1 1.0\n")
    with pytest.raises(ParseError, match="self-loop"):
        load_multiplex(p, gamma=0.0)


def test_load_multiplex_rejects_negative_gamma(tmp_path):
    p = write(tmp_path, "2 1\n1 1 2 1.0\n")
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InputError):
            load_multiplex(p, gamma=bad)


def test_constructors_reject_non_finite_values():
    good = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(InputError, match="finite"):
            MultiplexNetwork(N=2, L=1, layers=(good,), gamma=bad,
                             directed=False)
        blk = sp.csr_matrix(np.array([[0.0, bad], [bad, 0.0]]))
        with pytest.raises(InputError, match="finite"):
            MultiplexNetwork(N=2, L=1, layers=(blk,), gamma=1.0,
                             directed=False)
        with pytest.raises(InputError, match="finite"):
            MultilayerNetwork(N=2, L=1, blocks=((blk,),), directed=True)


def test_load_multilayer_general(tmp_path):
    p = write(tmp_path, "2 2\n1 1 2 2 0.7\n2 2 1 1 0.3\n")
    net = load_multilayer(p, directed=True)
    assert net.weight(EdgeKey(1, 2, 1, 2)) == 0.7
    assert net.weight(EdgeKey(2, 1, 2, 1)) == 0.3
    assert net.edge_count() == 2


def test_load_multilayer_undirected_mirrors(tmp_path):
    p = write(tmp_path, "2 2\n1 1 2 2 0.7\n")
    net = load_multilayer(p, directed=False)
    B = assemble_dense(net)
    assert np.array_equal(B, B.T)
    assert net.weight(EdgeKey(2, 1, 2, 1)) == 0.7


def test_load_multilayer_undirected_duplicate_via_reverse(tmp_path):
    p = write(tmp_path, "2 2\n1 1 2 2 0.7\n2 2 1 1 0.7\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_multilayer(p, directed=False)


def test_load_multilayer_accepts_general_self_loop(tmp_path):
    p = write(tmp_path, "2 2\n1 1 1 1 1.0\n1 1 2 1 1.0\n")
    net = load_multilayer(p, directed=True)
    assert net.weight(EdgeKey(1, 1, 1, 1)) == 1.0


def test_load_multilayer_empty_edge_set_loads_but_disconnected(tmp_path):
    p = write(tmp_path, "2 1\n")
    net = load_multilayer(p, directed=True)
    assert net.edge_count() == 0
    assert not is_strongly_connected(net)


def test_demo_network_shape(demo_net):
    assert (demo_net.N, demo_net.L) == (4, 3)
    assert demo_net.edge_count() == 25
    assert demo_net.directed


def test_demo_network_dense_pattern(demo_net):
    B = assemble_dense(demo_net)
    assert B.sum() == 25.0  # unit weights, one per arc
    assert set(np.unique(B)) == {0.0, 1.0}
    # three one-way arcs break symmetry; everything else is mutual
    asym = np.argwhere((B == 1) & (B.T == 0))
    assert {tuple(p) for p in asym} == {(10, 11), (0, 8), (11, 3)}


# ---------------------------------------------------------------------------
# operators vs dense assembly

def test_supra_operator_trivial_coupling():
    net = multiplex_from_layers([np.zeros((1, 1)), np.zeros((1, 1))], gamma=1.0)
    op = supra_operator(net)
    assert np.allclose(op.matvec([1.0, 0.0]), [0.0, 1.0])
    assert np.allclose(assemble_dense(net), [[0, 1], [1, 0]])


def test_assemble_dense_tiny_multiplex():
    net = multiplex_from_layers([np.zeros((1, 1)), np.zeros((1, 1))], gamma=0.5)
    assert np.allclose(assemble_dense(net), [[0, 0.5], [0.5, 0]])


def test_multiplex_offdiagonal_blocks_are_gamma_identity():
    net = random_multiplex_net(7, N=5, L=3, gamma=0.75)
    B = assemble_dense(net)
    for k in range(3):
        for l in range(3):
            blk = B[5 * k:5 * (k + 1), 5 * l:5 * (l + 1)]
            if k != l:
                assert np.array_equal(blk, 0.75 * np.eye(5))


def test_demo_operator_row_sums(demo_net):
    op = supra_operator(demo_net)
    B = assemble_dense(demo_net)
    assert np.allclose(op.matvec(np.ones(12)), B.sum(axis=1), atol=1e-12)


def test_operator_matches_dense_on_basis_and_random():
    for seed in (0, 1, 2):
        net, B = random_general_net(seed, N=4, L=3)
        op = supra_operator(net)
        for a in range(12):
            e = np.zeros(12)
            e[a] = 1.0
            assert np.allclose(op.matvec(e), B[:, a], rtol=1e-12, atol=1e-14)
        rng = np.random.default_rng(seed + 100)
        v = rng.standard_normal(12)
        assert np.allclose(op.matvec(v), B @ v, rtol=1e-12, atol=1e-12)
        assert np.allclose(op.rmatvec(v), B.T @ v, rtol=1e-12, atol=1e-12)


def test_multiplex_operator_matches_dense():
    for seed, gamma in ((3, 1.0), (4, 0.25), (5, 0.0)):
        net = random_multiplex_net(seed, N=6, L=3, gamma=max(gamma, 1e-9))
        op = supra_operator(net)
        B = assemble_dense(net)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(net.dim)
        assert np.allclose(op.matvec(v), B @ v, rtol=1e-12, atol=1e-12)
        assert np.allclose(op.rmatvec(v), B.T @ v, rtol=1e-12, atol=1e-12)


def test_dense_cap_enforced():
    net = random_multiplex_net(6, N=4, L=2, gamma=1.0)
    with pytest.raises(DenseCapError):
        assemble_dense(net, dense_cap=7)


def test_undirected_load_gives_symmetric_assembly(tmp_path):
    p = write(tmp_path, "3 2\n1 1 2 1.0\n1 2 3 0.5\n2 1 3 2.0\n")
    net = load_multiplex(p, gamma=1.0, directed=False)
    B = assemble_dense(net)
    assert np.array_equal(B, B.T)


# ---------------------------------------------------------------------------
# connectivity

def test_strongly_connected_cycle_and_isolated():
    cyc = multiplex_from_layers([[[0, 1], [1, 0]]], gamma=0.0)
    assert is_strongly_connected(cyc)
    iso = multiplex_from_layers([np.zeros((2, 2))], gamma=0.0)
    assert not is_strongly_connected(iso)


def test_demo_connected_after_arc_removal(demo_net):
    m = apply_edge_delta(demo_net, EdgeKey(1, 4, 1, 1), -1.0)
    assert is_strongly_connected(m)


def test_connectivity_matches_bfs_oracle():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        B = (rng.random((n, n)) < 0.08) * rng.uniform(0.5, 1.0, (n, n))
        np.fill_diagonal(B, 0.0)
        net = multilayer_from_dense(B, n, 1, directed=True)
        assert is_strongly_connected(net) == bfs_strongly_connected(B)
    # multilayer instances up to NL = 200, mixed connected/disconnected
    for seed, density in ((100, 0.02), (101, 0.005), (102, 0.05)):
        rng = np.random.default_rng(seed)
        B = (rng.random((200, 200)) < density) * rng.uniform(0.5, 1.0, (200, 200))
        np.fill_diagonal(B, 0.0)
        net = multilayer_from_dense(B, 100, 2, directed=True)
        assert is_strongly_connected(net) == bfs_strongly_connected(B)


# ---------------------------------------------------------------------------
# mutation

def test_apply_edge_delta_roundtrip_bitwise(demo_net):
    e = EdgeKey(2, 4, 3, 2)
    there = apply_edge_delta(demo_net, e, 0.3)
    back = apply_edge_delta(there, e, -0.3)
    for (ea, wa), (eb, wb) in zip(sorted(demo_net.edges(), key=str),
                                  sorted(back.edges(), key=str)):
        assert ea == eb and wa == wb


def test_apply_edge_delta_zero_is_identity(demo_net):
    assert apply_edge_delta(demo_net, EdgeKey(1, 2, 1, 1), 0.0) is demo_net


def test_apply_edge_delta_creates_and_removes(demo_net):
    e = EdgeKey(4, 3, 2, 3)  # absent in the demo network
    assert demo_net.weight(e) == 0.0
    m = apply_edge_delta(demo_net, e, 0.3)
    assert m.weight(e) == pytest.approx(0.3)
    gone = apply_edge_delta(m, e, -0.3)
    assert gone.weight(e) == 0.0
    assert gone.edge_count() == demo_net.edge_count()


def test_apply_edge_delta_rejects_negative_result(demo_net):
    with pytest.raises(InputError, match="negative"):
        apply_edge_delta(demo_net, EdgeKey(1, 2, 1, 1), -1.5)


def test_apply_edge_delta_multiplex_rules():
    net = random_multiplex_net(8, N=4, L=2, gamma=1.0)
    with pytest.raises(InputError, match="intra-layer"):
        apply_edge_delta(net, EdgeKey(1, 1, 1, 2), 0.5)
    with pytest.raises(InputError, match="self-loop"):
        apply_edge_delta(net, EdgeKey(2, 2, 1, 1), 0.5)
    m = apply_edge_delta(net, EdgeKey(1, 3, 2, 2), 0.5)
    assert m.weight(EdgeKey(1, 3, 2, 2)) == net.weight(EdgeKey(1, 3, 2, 2)) + 0.5
    # undirected multiplex mirrors
    assert m.weight(EdgeKey(3, 1, 2, 2)) == m.weight(EdgeKey(1, 3, 2, 2))


def test_apply_edge_delta_undirected_general_mirrors(tmp_path):
    p = write(tmp_path, "2 2\n1 1 2 2 0.7\n")
    net = load_multilayer(p, directed=False)
    m = apply_edge_delta(net, EdgeKey(1, 2, 1, 2), 0.3)
    B = assemble_dense(m)
    assert np.array_equal(B, B.T)
    assert m.weight(EdgeKey(2, 1, 2, 1)) == pytest.approx(1.0)


def _bump_via_lil(A, r, c, delta, mirror):
    """Reference edit: the same sums on a LIL copy of the block."""
    A = A.tolil(copy=True)
    for rr, cc in ((r, c), (c, r)) if (mirror and r != c) else ((r, c),):
        A[rr, cc] = A[rr, cc] + delta
    out = A.tocsr()
    out.eliminate_zeros()
    return out


def test_bump_matches_lil_reference_bitwise():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(400):
        n = int(rng.integers(1, 6))
        D = (rng.random((n, n)) < 0.5) * rng.uniform(0.1, 2.0, (n, n))
        A = sp.csr_matrix(D)
        r, c = (int(v) for v in rng.integers(0, n, size=2))
        mirror = bool(rng.random() < 0.5)
        w = float(A[r, c])
        delta = float(rng.choice([-w or 0.5, -0.5 * w or 0.25,
                                  rng.uniform(0.01, 1.0)]))
        if min(w, float(A[c, r]) if mirror else w) + delta < 0:
            with pytest.raises(InputError, match="negative"):
                _bump(A, r, c, delta, mirror)
            continue
        got, want = _bump(A, r, c, delta, mirror), _bump_via_lil(A, r, c, delta, mirror)
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data, want.data)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        checked += 1
    assert checked > 300


# ---------------------------------------------------------------------------
# hub / authority operators

def test_hub_authority_symmetric_coincide():
    net = random_multiplex_net(9, N=5, L=2, gamma=1.0, directed=False)
    B = assemble_dense(net)
    assert np.array_equal(B, B.T)
    hub, auth = hub_operator(net), authority_operator(net)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(net.dim)
    b2v = B @ (B @ v)
    assert np.allclose(hub.matvec(v), b2v, rtol=1e-12, atol=1e-10)
    assert np.allclose(auth.matvec(v), b2v, rtol=1e-12, atol=1e-10)


def test_hub_operator_matches_dense_gram():
    net, B = random_general_net(11, N=4, L=2)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(8)
    assert np.allclose(hub_operator(net).matvec(v), B @ (B.T @ v),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(authority_operator(net).matvec(v), B.T @ (B @ v),
                       rtol=1e-12, atol=1e-12)
