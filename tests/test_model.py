"""Network construction, file loading, operators, mutation, connectivity."""

import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

from perronnet import (EdgeKey, InputError, Network, ParseError,
                       apply_edge_delta, assemble_dense, cli,
                       is_strongly_connected, load_multilayer, load_multiplex,
                       supra_operator)
from perronnet import model
from perronnet.errors import DenseCapError
from perronnet.model import apply_update, edge_update, editable_arcs

from conftest import (bfs_strongly_connected, multilayer_from_dense,
                      multiplex_from_layers, random_general_net,
                      random_multiplex_net, supra_reference)


# ---------------------------------------------------------------------------
# loaders

def write(tmp_path, text, name="net.edges"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_multiplex_single_layer_cycle(tmp_path):
    p = write(tmp_path, "2 1\n1 1 2 1.0\n")
    net = load_multiplex(p, gamma=0.0, directed=False)
    A = net.arcs.toarray()
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
            Network(2, 1, sp.block_diag([good], format="csr"), False,
                    gamma=bad)
        blk = sp.csr_matrix(np.array([[0.0, bad], [bad, 0.0]]))
        with pytest.raises(InputError, match="finite"):
            Network(2, 1, sp.block_diag([blk], format="csr"), False,
                    gamma=1.0)
        with pytest.raises(InputError, match="finite"):
            Network(2, 1, sp.bmat([[blk]], format="csr"), True)


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


def test_loaders_build_canonical_arcs(tmp_path):
    # the loaders mark their CSR canonical unchecked: rebuilt from the same
    # arrays, scipy's own check must agree, lines given in any order
    mpx = write(tmp_path, "3 2\n2 3 1 1.0\n1 2 3 0.5\n2 1 2 2.0\n1 1 3 1.5\n",
                "mpx.edges")
    gen = write(tmp_path, "3 2\n2 3 1 1 1.0\n1 2 2 3 0.5\n1 1 1 3 2.0\n"
                "2 1 1 2 1.5\n", "gen.edges")
    for directed in (False, True):
        for net in (load_multiplex(mpx, 1.0, directed),
                    load_multilayer(gen, directed)):
            a = net.arcs
            fresh = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
            assert fresh.has_canonical_format


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
# the supra matrix, and operators vs dense assembly

@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("gamma", [None, 0.0, 0.7, 1.0])
@pytest.mark.parametrize("L", [1, 2, 4])
def test_supra_is_the_coupled_reference_bitwise(directed, gamma, L):
    # gamma None reads the multiplex's arcs as a general network
    base = random_multiplex_net(40 + L, N=5, L=L, gamma=1.0, density=0.4,
                                directed=directed)
    net = replace(base, gamma=gamma)
    B = net.supra
    assert B.format == "csr" and B.has_sorted_indices
    want = supra_reference(net)
    assert B.toarray().tobytes() == want.tobytes()
    assert B.nnz == np.count_nonzero(want)
    assert net.supra is B  # built once per network
    if not gamma:
        assert B is net.arcs
    # an edit makes a new network with its own supra matrix
    e, w = next(net.edges())
    edited = apply_edge_delta(net, e, -w)
    assert edited.supra.toarray().tobytes() == supra_reference(edited).tobytes()
    assert B.toarray().tobytes() == want.tobytes()


def test_weight_reads_every_entry_of_the_supra_matrix():
    nets = [random_general_net(5, N=4, L=3, density=0.3)[0],
            multilayer_from_dense(supra_reference(random_multiplex_net(
                6, N=4, L=3, density=0.4)), 4, 3, directed=False)]
    for directed in (False, True):
        mpx = random_multiplex_net(7, N=4, L=3, gamma=0.7, density=0.4,
                                   directed=directed)
        nets += [mpx, replace(mpx, gamma=0.0)]
    for net in nets:
        B = net.supra.toarray()
        for a in range(net.dim):
            for b in range(net.dim):
                (i, k), (j, l) = (model.unflatten_index(v, net.N)
                                  for v in (a, b))
                assert net.weight(EdgeKey(i, j, k, l)) == B[a, b]
        # the transposed arcs the operator multiplies by, cached
        assert net.arcs_t is net.arcs_t
        assert (net.arcs_t != net.arcs.T).nnz == 0


def test_edge_keys_and_supra_arcs_convert_both_ways():
    # the edge (i, j, k, l) is the entry (N(k-1)+i, N(l-1)+j) of B, 1-based
    N, L = 3, 2
    for a, b in product(range(N * L), repeat=2):
        e = EdgeKey.at(a, b, N)
        assert e == EdgeKey(a % N + 1, b % N + 1, a // N + 1, b // N + 1)
        assert e.arc(N, L) == (a, b)
    e = EdgeKey.at(np.int64(4), np.int64(2), N)
    assert e == EdgeKey(2, 3, 2, 1) and type(e.i) is int
    for e, message in ((EdgeKey(4, 1, 1, 1), "node index out of range"),
                       (EdgeKey(1, 1, 1, 3), "layer index out of range")):
        with pytest.raises(InputError, match=message):
            e.arc(N, L)
    # each edge has the shape of a coupling entry, whose weight is gamma
    # and which no edit may touch, but an id out of range is named first
    mpx = multiplex_from_layers([[[0, 1], [1, 0]]] * 2, gamma=0.5)
    for e in (EdgeKey(1, 1, 1, 3), EdgeKey(3, 3, 1, 2)):
        for call in (mpx.weight, lambda e: edge_update(mpx, e, 1.0)):
            with pytest.raises(InputError, match="index out of range"):
                call(e)
    assert mpx.weight(EdgeKey(2, 2, 2, 1)) == 0.5


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
        B = supra_reference(net)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(net.dim)
        assert np.allclose(op.matvec(v), B @ v, rtol=1e-12, atol=1e-12)
        assert np.allclose(op.rmatvec(v), B.T @ v, rtol=1e-12, atol=1e-12)


def test_block_products_are_the_column_products():
    # the block re-solve multiplies n x k blocks; each column must get the
    # very product matvec/rmatvec make, coupling included
    nets = [random_multiplex_net(13, N=5, L=3, gamma=0.7, directed=True),
            random_multiplex_net(14, N=5, L=2, gamma=1.0),
            random_general_net(15, N=4, L=3)[0]]
    rng = np.random.default_rng(6)
    for net in nets:
        op = supra_operator(net)
        V = rng.standard_normal((net.dim, 3))
        for block, column in ((op.matmat, op.matvec), (op.rmatmat, op.rmatvec)):
            for arg in (V, np.asfortranarray(V)):
                out = block(arg)
                assert out.shape == V.shape
                for j in range(V.shape[1]):
                    assert np.array_equal(out[:, j], column(V[:, j]))


def test_operator_products_are_float_for_int_and_list_input():
    # LinearOperator.matvec passes an int array through; the multiplex
    # product must not write float products into an int buffer
    nets = [random_multiplex_net(8, N=5, L=3, gamma=0.75, directed=True),
            random_general_net(9, N=4, L=3)[0]]
    for net in nets:
        op = supra_operator(net)
        B = supra_reference(net)
        v = np.arange(net.dim)
        for prod, M in ((op.matvec, B), (op.rmatvec, B.T)):
            for arg in (v, v.tolist()):
                out = prod(arg)
                assert out.dtype == np.float64
                assert np.allclose(out, M @ v, rtol=1e-12, atol=1e-12)


def test_operator_sums_and_products_match_dense():
    from perronnet import perron, structured_wilkinson, wilkinson
    nets = [random_general_net(10, N=4, L=3)[0],
            random_multiplex_net(11, N=5, L=2, gamma=0.5, directed=True),
            random_multiplex_net(12, N=5, L=3, gamma=1.0, directed=False)]
    rng = np.random.default_rng(3)
    for net in nets:
        op = supra_operator(net)
        B = supra_reference(net)
        t = perron(op)
        perts = [wilkinson(t)]
        if net.multiplex:
            perts += [structured_wilkinson(t, cone, net) for cone in "DS"]
        v = rng.standard_normal(net.dim)
        for E in perts:
            dense = B + 0.3 * E.toarray()
            assert np.allclose((op + 0.3 * E).matvec(v), dense @ v,
                               rtol=1e-12, atol=1e-12)
            assert np.allclose((op + 0.3 * E).rmatvec(v), dense.T @ v,
                               rtol=1e-12, atol=1e-12)
        for gram, dense in ((op @ op.H, B @ B.T), (op.H @ op, B.T @ B)):
            assert np.allclose(gram.matvec(v), dense @ v, rtol=1e-12, atol=1e-12)
            assert np.allclose(gram.rmatvec(v), dense.T @ v,
                               rtol=1e-12, atol=1e-12)


def test_dense_cap_enforced():
    net = Network(5001, 1, sp.csr_matrix((5001, 5001)), directed=True)
    with pytest.raises(DenseCapError, match="order 5001 exceeds cap 5000"):
        assemble_dense(net)


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


def test_base_connectivity_is_found_once_per_network(monkeypatch):
    # the CLI's warning and a connected removal scan ask the same question;
    # it is settled by breadth-first searches from position 0 alone, with
    # no strong-component labelling, and cached
    searches, labellings = [], []
    search = csgraph.breadth_first_order
    monkeypatch.setattr(csgraph, "breadth_first_order",
                        lambda *a, **kw: searches.append(a) or search(*a, **kw))
    label = csgraph.connected_components
    monkeypatch.setattr(csgraph, "connected_components",
                        lambda *a, **kw: labellings.append(a) or label(*a, **kw))
    net = random_general_net(3, N=5, L=2)[0]
    assert is_strongly_connected(net) and is_strongly_connected(net)
    # directed: one search on the arcs and one on their transpose
    assert [(g is net.arcs, g is net.arcs_t, u) for g, u in searches] == [
        (True, False, 0), (False, True, 0)]
    assert labellings == []
    e, w = next(net.edges())
    update = edge_update(net, e, -w)
    assert is_strongly_connected(net, update) == is_strongly_connected(
        net, update)
    # one search per call from the tail of the dropped arc, none cached
    assert labellings == []
    assert len(searches) == 4
    removed = apply_update(net, update)
    assert is_strongly_connected(removed)  # an arc of a dense graph
    assert len(searches) == 6 and labellings == []
    # undirected, coupled: one search, over layer 1's nodes only
    searches.clear()
    mpx = random_multiplex_net(3, N=5, L=3, gamma=0.5)
    assert is_strongly_connected(mpx) and is_strongly_connected(mpx)
    assert [(g is mpx.arcs, u) for g, u in searches] == [(True, 0)]
    assert labellings == [] and "supra" not in mpx.__dict__
    # a reducible base costs exactly its searches, once: undirected, one
    # on the arcs; directed, a forward search that covers and a backward
    # one that does not
    iso = multiplex_from_layers([np.zeros((2, 2))], gamma=0.0)
    assert not is_strongly_connected(iso) and not is_strongly_connected(iso)
    assert len(searches) == 2 and searches[1][0] is iso.arcs
    star = multilayer_from_dense(np.eye(4, k=1) + np.eye(4, k=2), 2, 2)
    assert not is_strongly_connected(star) and not is_strongly_connected(star)
    assert [(g is star.arcs, g is star.arcs_t, u) for g, u in searches[2:]] \
        == [(True, False, 0), (False, True, 0)]
    assert labellings == [] and "supra" not in star.__dict__


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


def _random_layers(rng, N, L, directed, split):
    """L random layers on N nodes; unless ``split``, a ring through a
    random order of the nodes makes each layer one strong component."""
    layers = []
    for _ in range(L):
        A = (rng.random((N, N)) < (1.5 / N if split else 0.2)) * 1.0
        if not split:
            perm = rng.permutation(N)
            A[perm, np.roll(perm, -1)] = 1.0
        np.fill_diagonal(A, 0.0)
        layers.append(A if directed else np.maximum(A, A.T))
    return layers


def _cross_layer_cycle(N=6):
    # a path 0 -> ... -> N-1 in layer 1 and the arc N-1 -> 0 in layer 2:
    # each layer is acyclic, and only the coupling closes the cycle
    path, back = np.eye(N, k=1), np.zeros((N, N))
    back[N - 1, 0] = 1.0
    return [path, back]


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("directed", [True, False])
def test_multiplex_base_connectivity_matches_the_supra_component_pass(
        directed, gamma):
    answers = []
    cases = [(seed, split) for seed in range(40) for split in (False, True)]
    for seed, split in cases + [("cycle", None)]:
        if seed == "cycle":
            layers = _cross_layer_cycle()
            if not directed:
                layers = [A + A.T for A in layers]
        else:
            rng = np.random.default_rng(seed)
            N, L = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            layers = _random_layers(rng, N, L, directed, split)
        net = multiplex_from_layers(layers, gamma, directed=directed)
        got = is_strongly_connected(net)
        # the searches on the arcs, or on the union of the layers, decide
        # it without building B
        assert "supra" not in net.__dict__
        assert got == bfs_strongly_connected(net.supra.toarray())
        answers.append(got)
    assert answers[-1] == (gamma > 0)  # the cross-layer cycle
    assert True in answers and False in answers


def _seeded_base(rng, kind, directed, split):
    """A random network of one ``kind`` ("general", or the gamma of a
    multiplex) on N = 1..7 nodes and L = 1..4 layers; unless ``split``, a
    ring through a random order of the positions (of each layer's nodes
    on a multiplex) keeps it, or each layer, strongly connected."""
    N, L = int(rng.integers(1, 8)), int(rng.integers(1, 5))
    if kind != "general":
        layers = _random_layers(rng, N, L, directed, split)
        return multiplex_from_layers(layers, kind, directed=directed)
    n = N * L
    B = (rng.random((n, n)) < (1.2 / n if split else 0.15)) * 1.0
    if not split:
        perm = rng.permutation(n)
        B[perm, np.roll(perm, -1)] = 1.0
    if not directed:
        B = np.maximum(B, B.T)
    return multilayer_from_dense(B, N, L, directed=directed)


def _fallback_cases():
    """Networks whose searches from position 0 do not settle the answer:
    a directed out-star, which the forward search covers and the backward
    one does not, and multiplexes whose layer 1 is not strongly connected
    though B is, directed (an out-star) or not (no arcs)."""
    star = np.zeros((6, 6))
    star[0, 1:] = 1.0
    ring = np.roll(np.eye(6), 1, axis=1)
    return [(multilayer_from_dense(star, 3, 2, directed=True), False),
            (multiplex_from_layers([star, ring], 0.5, directed=True), True),
            (multiplex_from_layers([np.zeros((6, 6)), ring + ring.T], 0.5),
             True)]


def test_base_connectivity_matches_the_bfs_oracle_on_seeded_networks(
        monkeypatch):
    # the searches from position 0 decide every network; a coupled
    # multiplex whose layer 1 they do not cover gets them on the union of
    # its layers, and no other network builds that union
    searches, labellings = [], []
    search = csgraph.breadth_first_order
    monkeypatch.setattr(csgraph, "breadth_first_order",
                        lambda *a, **kw: searches.append(a) or search(*a, **kw))
    label = csgraph.connected_components
    monkeypatch.setattr(csgraph, "connected_components",
                        lambda *a, **kw: labellings.append(a) or label(*a, **kw))

    def check(net):
        searches.clear()
        got = is_strongly_connected(net)
        assert "supra" not in net.__dict__
        assert got == bfs_strongly_connected(net.supra.toarray())
        union = any(g is not net.arcs and g is not net.arcs_t
                    for g, _ in searches)
        return got, union

    cases = [(seed, kind, directed, split) for seed in range(44)
             for kind in ("general", 0.0, 0.5) for directed in (True, False)
             for split in (False, True)]
    answers, shapes, unions = set(), set(), 0
    for seed, kind, directed, split in cases:
        net = _seeded_base(np.random.default_rng([22, seed]), kind, directed,
                           split)
        got, union = check(net)
        layer1 = net.arcs[:net.N, :net.N].toarray()
        assert union == (bool(net.gamma)
                         and not bfs_strongly_connected(layer1)), (seed, kind)
        answers.add((kind, got))
        shapes.add((net.N == 1, net.L == 1))
        unions += union and got
    assert len(cases) >= 500 and len(shapes) == 4  # N = 1, L = 1, both
    assert answers == {(kind, got) for kind in ("general", 0.0, 0.5)
                       for got in (True, False)}
    assert unions > 0  # coupled, layer 1 split, B strongly connected
    for net, want in _fallback_cases():
        assert check(net) == (want, bool(net.gamma))
    assert labellings == []


def _bridged_nets(seed):
    """Seeded networks on a ring or a tree, so that removing some of their
    arcs disconnects them: general directed and undirected ones, and
    multiplexes with gamma = 0 (one layer) and gamma > 0."""
    rng = np.random.default_rng([61, seed])

    def ring_and_chords(n, chords):
        B = np.roll(np.eye(n), 1, axis=1) * rng.uniform(0.5, 1.5, (n, n))
        for a, b in rng.integers(0, n, size=(chords, 2)):
            B[a, b] = rng.uniform(0.5, 1.5)
        np.fill_diagonal(B, 0.0)
        return B

    def tree_and_edges(n, extra):
        T = np.zeros((n, n))
        for b in range(1, n):
            T[rng.integers(0, b), b] = rng.uniform(0.5, 1.5)
        for a, b in rng.integers(0, n, size=(extra, 2)):
            T[a, b] = rng.uniform(0.5, 1.5)
        return np.triu(T, 1) + np.triu(T, 1).T

    return [multilayer_from_dense(ring_and_chords(12, 4), 6, 2),
            multilayer_from_dense(tree_and_edges(12, 3), 4, 3, directed=False),
            multiplex_from_layers([tree_and_edges(10, 2)], gamma=0.0),
            multiplex_from_layers([ring_and_chords(8, 2)], gamma=0.0,
                                  directed=True),
            multiplex_from_layers([ring_and_chords(6, 1)] * 3, gamma=0.7,
                                  directed=True),
            multiplex_from_layers([tree_and_edges(6, 1), np.zeros((6, 6))],
                                  gamma=1.3)]


def test_connectivity_after_an_update_matches_the_updated_network():
    # the answer on net.supra plus the update, against the updated network
    answers = set()
    for seed in range(4):
        for net in _bridged_nets(seed):
            assert is_strongly_connected(net)
            for e, w in net.edges():
                update = edge_update(net, e, -w)
                got = is_strongly_connected(net, update)
                assert got == is_strongly_connected(apply_update(net, update))
                answers.add(got)
            # an increase, which may create an arc
            e = EdgeKey(1, 2, 1, 1)
            update = edge_update(net, e, 0.5)
            assert is_strongly_connected(net, update) == is_strongly_connected(
                apply_update(net, update))
    assert answers == {True, False}


def _by_components(net, update):
    """The dense oracle's answer on the network the update makes."""
    return bfs_strongly_connected(apply_update(net, update).supra.toarray())


def _joined(*updates):
    return tuple(np.concatenate(v) for v in zip(*updates))


def test_reachability_matches_the_component_pass_on_mirrored_removals():
    # both arcs of a directed pair, where the reverse arc exists
    answers = set()
    for seed in range(4):
        dense = random_general_net(seed, N=4, L=2, density=0.4)[0]
        assert is_strongly_connected(dense)
        for net in _bridged_nets(seed) + [dense]:
            for e, w in net.edges():
                r = e.reversed()
                if not net.directed or r == e or net.weight(r) == 0:
                    continue
                update = _joined(edge_update(net, e, -w),
                                 edge_update(net, r, -net.weight(r)))
                got = is_strongly_connected(net, update)
                assert got == _by_components(net, update)
                answers.add(got)
    assert answers == {True, False}


def test_an_update_that_keeps_every_arc_needs_no_search(monkeypatch):
    nets = _bridged_nets(0)
    # the bases' own answers, which searches from position 0 find, first
    assert all(is_strongly_connected(net) for net in nets)
    searches = []
    search = csgraph.breadth_first_order
    monkeypatch.setattr(csgraph, "breadth_first_order",
                        lambda *a, **kw: searches.append(a) or search(*a, **kw))
    for net in nets:
        for e, w in net.edges():
            # lowered but kept, and lowered by two entries that sum to less
            # than its weight
            for update in (edge_update(net, e, -w / 2),
                           _joined(edge_update(net, e, -w / 4),
                                   edge_update(net, e, -w / 4))):
                assert is_strongly_connected(net, update)
                assert _by_components(net, update)
    assert searches == []


def test_reachability_counts_repeated_entries_and_added_arcs():
    answers = set()
    for seed in range(2):
        for net in _bridged_nets(seed):
            edges = list(net.edges())
            for (e, w), (f, _) in zip(edges, edges[1:] + edges[:1]):
                # dropped in two halves; dropped while another arc is added
                absent = EdgeKey(f.j, f.i, f.l, f.k)
                for update in (_joined(edge_update(net, e, -w / 2),
                                       edge_update(net, e, -w / 2)),
                               _joined(edge_update(net, e, -w),
                                       edge_update(net, absent, 0.5))):
                    if net.multiplex and absent.i == absent.j:
                        continue
                    got = is_strongly_connected(net, update)
                    assert got == _by_components(net, update)
                    answers.add(got)
    assert answers == {True, False}
    # a directed ring 0 -> 1 -> ... -> 7 -> 0 without its arc 3 -> 4: the
    # arcs 3 -> 5 and 2 -> 4 added with the removal keep it connected,
    # 3 -> 5 alone does not
    ring = multilayer_from_dense(np.roll(np.eye(8), 1, axis=1), 4, 2)
    for added, want in (([5, 4], True), ([5], False)):
        tails = [3] + [3, 2][:len(added)]
        update = (np.array(tails), np.array([4] + added),
                  np.array([-1.0] + [0.5] * len(added)))
        assert is_strongly_connected(ring, update) is want
        assert _by_components(ring, update) is want


def test_disconnected_base_with_added_arcs_matches_the_component_pass():
    # a directed ring without its arc 7 -> 0, then one arc added: that
    # arc, or one that leaves 0 without an arc in, or a chord
    n = 8
    B = np.roll(np.eye(n), 1, axis=1)
    B[n - 1, 0] = 0.0
    net = multilayer_from_dense(B, 4, 2)
    assert not is_strongly_connected(net)
    cases = {(n - 1, 0): True, (n - 1, 1): False, (5, 2): False}
    for (a, b), want in cases.items():
        update = (np.array([a]), np.array([b]), np.array([0.5]))
        assert is_strongly_connected(net, update) is want
        assert _by_components(net, update) is want
    # and with a chord 0 -> 2, an update that only lowers an arc or drops
    # the chord, whose head stays reachable from its tail
    B[0, 2] = 1.0
    net = multilayer_from_dense(B, 4, 2)
    for update in ((np.array([3]), np.array([4]), np.array([-0.5])),
                   (np.array([0]), np.array([2]), np.array([-1.0]))):
        assert is_strongly_connected(net, update) is False
        assert _by_components(net, update) is False


def test_connectivity_of_an_update_that_makes_a_weight_negative_raises(
        demo_net):
    # the demo's first arc, of weight 1.0, lowered by 2.0: alone, with an
    # arc added, and on a base that is not strongly connected; each raises
    # the error of apply_update
    e, w = next(demo_net.edges())
    assert w == 1.0
    lowered = edge_update(demo_net, e, -2.0)
    added = edge_update(demo_net, EdgeKey(2, 3, 1, 1), 0.5)
    ring = np.roll(np.eye(4), 1, axis=1)
    ring[3, 0] = 0.0
    chain = multilayer_from_dense(ring, 2, 2)
    assert not is_strongly_connected(chain)
    cases = [(demo_net, lowered), (demo_net, _joined(lowered, added)),
             (chain, (np.array([0]), np.array([1]), np.array([-2.0])))]
    for net, update in cases:
        with pytest.raises(InputError) as applied:
            apply_update(net, update)
        with pytest.raises(InputError) as checked:
            is_strongly_connected(net, update)
        assert str(checked.value) == str(applied.value) == (
            "edge weight would become negative (-1.0) at supra entry (0,1)")


def _seeded_updates(rng, net):
    """Seeded supra updates of ``net``, each named by its kind: a stored
    arc dropped, halved, dropped in two halves or over-dropped; an arc
    added, alone or with a drop; and on a multiplex a coupling cell
    lowered or raised.  On undirected input each cell comes with its
    mirror, as an edit of an edge does."""
    N, L, n = net.N, net.L, net.dim

    def cell(a, b, delta):
        mirrored = not net.directed and a != b
        rows, cols = ([a, b], [b, a]) if mirrored else ([a], [b])
        return np.array(rows), np.array(cols), np.full(len(rows), float(delta))

    a, b, w = editable_arcs(net)
    out = []
    for p in rng.choice(a.size, size=min(3, a.size), replace=False):
        out += [("drop", cell(a[p], b[p], -w[p])),
                ("halve", cell(a[p], b[p], -w[p] / 2)),
                ("halves", _joined(cell(a[p], b[p], -w[p] / 2),
                                   cell(a[p], b[p], -w[p] / 2))),
                ("over-drop", cell(a[p], b[p], -1.5 * w[p]))]
    for u, v in rng.integers(0, n, size=(2, 2)):
        if net.multiplex:  # an intra-layer cell
            v = u - u % N + v % N
        out.append(("add", cell(u, v, 0.5)))
        if a.size:
            p = rng.integers(a.size)
            out.append(("drop-add", _joined(cell(a[p], b[p], -w[p]),
                                            cell(u, v, 0.5))))
    if net.multiplex and L > 1:
        i = rng.integers(N)
        k, l = rng.choice(L, size=2, replace=False)
        for delta in (-net.gamma, -net.gamma / 2, 0.5):
            out.append(("coupling", cell(k * N + i, l * N + i, delta)))
    return out


def test_connectivity_of_an_update_is_the_updated_networks_own(monkeypatch):
    # every update gets the answer, or the InputError, of the network
    # apply_update makes; a pure lowering of a strongly connected base is
    # decided by the removal scan, without building that network
    applied = []
    apply = model.apply_update
    monkeypatch.setattr(model, "apply_update",
                        lambda *a: applied.append(a) or apply(*a))
    seen = set()
    for seed in range(16):
        rng = np.random.default_rng([25, seed])
        for kind, directed, split in product(("general", 0.0, 0.5),
                                             (True, False), (False, True)):
            net = _seeded_base(rng, kind, directed, split)
            base = is_strongly_connected(net)
            for name, update in _seeded_updates(rng, net):
                applied.clear()
                try:
                    want = is_strongly_connected(apply(net, update))
                except InputError as exc:
                    with pytest.raises(InputError) as checked:
                        is_strongly_connected(net, update)
                    assert str(checked.value) == str(exc)
                    seen.add((name, "raises"))
                    continue
                assert is_strongly_connected(net, update) == want, (
                    seed, kind, directed, split, name)
                if base and name in ("drop", "halve", "halves"):
                    assert applied == []
                seen.add((name, want))
    assert {("drop", True), ("drop", False), ("halve", True),
            ("halves", False), ("over-drop", "raises"), ("add", True),
            ("add", False), ("drop-add", True), ("drop-add", False),
            ("coupling", "raises")} <= seen


# ---------------------------------------------------------------------------
# mutation

@pytest.mark.parametrize("update, cell", [
    (([12], [0], [-1.0]), "(12,0)"),
    (([-1], [0], [-1.0]), "(-1,0)"),
    (([0], [12], [0.5]), "(0,12)"),
    (([0, 1, 0], [1, 2, -3], [-1.0, 0.5, 0.5]), "(0,-3)"),
])
def test_update_cells_outside_the_supra_matrix_are_named(demo_net, update,
                                                         cell):
    # NL = 12: each call names the first cell outside 0..11, before any
    # lookup reads past the CSR arrays or wraps a negative index
    message = f"supra entry {cell} is outside 0..11"
    for call in (apply_update, is_strongly_connected):
        with pytest.raises(InputError, match=re.escape(message)):
            call(demo_net, update)


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
    for delta in (0.0, 0.5):  # a zero delta keeps the rules
        with pytest.raises(InputError, match="intra-layer"):
            apply_edge_delta(net, EdgeKey(1, 1, 1, 2), delta)
        with pytest.raises(InputError, match="self-loop"):
            apply_edge_delta(net, EdgeKey(2, 2, 1, 1), delta)
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


def _csr_bytes(m):
    return [(a.dtype.str, a.tobytes()) for a in (m.indptr, m.indices, m.data)]


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("gamma", [0.0, 0.7])
def test_one_mutation_path_for_multiplex_and_general(tmp_path, directed,
                                                     gamma):
    # a multiplex and the general network parsed from its convert output
    # assemble to the same supra matrix, before and after each edit, and
    # that matrix is the reference built from the layers and gamma
    net = random_multiplex_net(21, N=5, L=3, gamma=1.0, density=0.4,
                               directed=directed)
    src, out = tmp_path / "m.edges", tmp_path / "g.edges"
    src.write_text("5 3\n" + "".join(f"{e.k} {e.i} {e.j} {w!r}\n"
                                     for e, w in net.edges()
                                     if directed or e.i < e.j))
    flags = ["--gamma", str(gamma), "-o", str(out)]
    assert cli.main(["convert", str(src)] + flags
                    + (["--directed"] if directed else [])) == 0
    mpx = load_multiplex(src, gamma=gamma, directed=directed)
    gen = load_multilayer(out, directed=directed)
    assert _csr_bytes(mpx.supra) == _csr_bytes(gen.supra)
    assert gen.arcs.toarray().tobytes() == supra_reference(mpx).tobytes()
    stored = [e for e, _ in mpx.edges()]
    absent = [EdgeKey(i, j, l, l) for l in (1, 2, 3) for i in range(1, 6)
              for j in range(1, 6) if i != j
              and mpx.weight(EdgeKey(i, j, l, l)) == 0]
    edits = [(absent[0], 0.4), (absent[-1], 1.25), (stored[1], 0.25),
             (stored[-2], 0.5), (stored[0], -mpx.weight(stored[0])),
             (stored[-1], -mpx.weight(stored[-1]))]
    for e, delta in edits:
        edited = [apply_edge_delta(n, e, delta) for n in (mpx, gen)]
        got = [n.supra for n in edited]
        assert _csr_bytes(got[0]) == _csr_bytes(got[1]), (e, delta)
        assert (got[1].toarray().tobytes()
                == supra_reference(edited[0]).tobytes()), (e, delta)
    assert any(d < 0 for _, d in edits) and absent


def test_multiplex_rejects_stored_inter_layer_arcs():
    I, empty = sp.identity(2, format="csr"), sp.csr_matrix((2, 2))
    blk = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for arcs, directed in ((sp.bmat([[None, I], [I, None]]), False),
                           (sp.bmat([[None, blk], [empty, None]]), True)):
        with pytest.raises(InputError, match="intra-layer"):
            Network(2, 2, arcs.tocsr(), directed, gamma=1.0)
        # the same arcs make a valid general network
        assert Network(2, 2, arcs.tocsr(), directed).edge_count() == arcs.nnz


@pytest.mark.parametrize("directed", [False, True])
def test_multiplex_rejects_self_loops(directed):
    net = random_multiplex_net(8, N=4, L=2, gamma=1.0, directed=directed)
    loop = sp.csr_matrix(([0.5], ([5], [5])), shape=net.arcs.shape)
    message = "self-loops are not allowed in multiplex layers"
    with pytest.raises(InputError, match=message):
        Network(net.N, net.L, net.arcs + loop, directed, gamma=1.0)
    with pytest.raises(InputError, match=message):
        apply_update(net, ([5], [5], [0.5]))
    # the same arcs make a valid general network
    general = Network(net.N, net.L, net.arcs, directed)
    assert apply_update(general, ([5], [5], [0.5])).weight(
        EdgeKey(2, 2, 2, 2)) == 0.5


def test_undirected_network_needs_symmetric_weights():
    # the pattern is symmetric, the weights are not
    A = sp.csr_matrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0],
                                [2.5, 0.0, 0.0]]))
    with pytest.raises(InputError, match="symmetric"):
        Network(3, 1, A, directed=False)
    assert Network(3, 1, A, directed=True).edge_count() == 4
    # symmetric once its repeated entries are summed, given with unsorted
    # indices and a repeat in each row
    A = sp.csr_matrix(([1.5, 0.5, 1.5, 2.0, 1.0, 0.5], [2, 1, 1, 0, 0, 0],
                       [0, 3, 4, 6]), shape=(3, 3))
    assert not A.has_sorted_indices
    net = Network(3, 1, A, directed=False)
    want = np.array([[0.0, 2.0, 1.5], [2.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
    assert np.array_equal(net.arcs.toarray(), want)
    assert net.arcs.has_canonical_format


def test_only_loader_arcs_skip_the_symmetry_check(tmp_path, monkeypatch):
    # a loader stores each undirected arc with its mirror, so its network
    # is not compared with its transpose; a matrix given to the constructor
    # is, the loader's own included, since the network keeps a copy
    checks = []
    same_csr = model._same_csr
    monkeypatch.setattr(model, "_same_csr",
                        lambda *a: checks.append(1) or same_csr(*a))
    for net in (load_multiplex(write(tmp_path, "3 2\n1 1 2 1.0\n2 2 3 0.5\n"),
                               1.0),
                load_multilayer(write(tmp_path, "3 2\n1 1 2 2 1.0\n"
                                      "2 3 2 3 0.5\n"), directed=False)):
        assert checks == []
        again = Network(net.N, net.L, net.arcs, False, net.gamma)
        assert len(checks) == 1
        assert same_csr(again.arcs, net.arcs)
        apply_update(net, edge_update(net, EdgeKey(1, 3, 1, 1), 0.5))
        assert len(checks) == 2
        checks.clear()


def test_a_loaded_matrix_is_adopted_and_its_trust_does_not_leak(
        tmp_path, monkeypatch):
    # a loader's network keeps the CSR matrix the loader built, uncopied;
    # the matrix carries no mark past that, so handing it to the public
    # constructor, or editing the network, runs every check
    handed = []
    monkeypatch.setattr(model, "Network",
                        lambda *a: handed.append(a[2]) or Network(*a))
    mpx = write(tmp_path, "3 2\n1 1 2 1.0\n2 2 3 0.5\n1 2 3 2.0\n", "m.edges")
    gen = write(tmp_path, "3 2\n1 1 2 2 1.0\n2 3 1 3 0.5\n", "g.edges")

    def loaded():
        for directed in (False, True):
            yield load_multiplex(mpx, 1.0, directed)
            yield load_multilayer(gen, directed)

    for net in loaded():
        m = handed.pop()
        assert net.arcs is m and model._LOADED not in vars(m)
        for a in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(net.arcs, a), getattr(m, a))
    for net in loaded():
        net.arcs.data[-1] = -1.0
        with pytest.raises(InputError, match="positive"):
            Network(net.N, net.L, net.arcs, net.directed, net.gamma)
        with pytest.raises(InputError, match="negative"):
            apply_update(net, edge_update(net, EdgeKey(1, 2, 1, 1), 0.25))
    for net in loaded():
        if net.directed:
            continue
        net.arcs.data[0] *= 2.0  # one arc of a mirrored pair
        with pytest.raises(InputError, match="symmetric"):
            Network(net.N, net.L, net.arcs, False, net.gamma)
        with pytest.raises(InputError, match="symmetric"):
            apply_update(net, edge_update(net, EdgeKey(1, 2, 1, 1), 0.25))
    for net in loaded():
        if net.multiplex:  # an arc from layer 1 to layer 2
            with pytest.raises(InputError, match="intra-layer"):
                apply_update(net, (np.array([0]), np.array([4]),
                                   np.array([1.0])))


def test_a_negative_weight_off_the_update_is_named(tmp_path):
    # a weight written negative into net.arcs in place is reported at its
    # own entry, not at the update's first cell
    mpx = write(tmp_path, "3 2\n1 1 2 1.0\n2 2 3 0.5\n1 2 3 2.0\n", "m.edges")
    gen = write(tmp_path, "3 2\n1 1 2 2 1.0\n2 3 1 3 0.5\n", "g.edges")
    for directed in (False, True):
        for net in (load_multiplex(mpx, 1.0, directed),
                    load_multilayer(gen, directed)):
            net.arcs.data[-1] = -1.0
            last = net.arcs.tocoo()
            r, c = int(last.row[-1]), int(last.col[-1])
            assert (r, c) != (0, 1)
            with pytest.raises(InputError) as err:
                apply_update(net, edge_update(net, EdgeKey(1, 2, 1, 1), 0.25))
            assert str(err.value) == ("edge weight would become negative "
                                      f"(-1.0) at supra entry ({r},{c})")
    # a cell of the update itself is still the one named
    net = load_multilayer(gen, True)
    with pytest.raises(InputError, match=r"\(-1\.0\) at supra entry \(0,4\)"):
        apply_update(net, edge_update(net, EdgeKey(1, 2, 1, 2), -2.0))


def _edit_via_lil(A, r, c, delta, mirror):
    """Reference edit: the same sums on a LIL copy of the matrix."""
    A = A.tolil(copy=True)
    for rr, cc in ((r, c), (c, r)) if (mirror and r != c) else ((r, c),):
        A[rr, cc] = A[rr, cc] + delta
    out = A.tocsr()
    out.eliminate_zeros()
    return out


def test_apply_update_matches_lil_reference_bitwise():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(400):
        n = int(rng.integers(1, 6))
        D = (rng.random((n, n)) < 0.5) * rng.uniform(0.1, 2.0, (n, n))
        A = sp.csr_matrix(D)
        net = Network(n, 1, A, directed=True)
        r, c = (int(v) for v in rng.integers(0, n, size=2))
        mirror = bool(rng.random() < 0.5)
        w = float(A[r, c])
        delta = float(rng.choice([-w or 0.5, -0.5 * w or 0.25,
                                  rng.uniform(0.01, 1.0)]))
        cells = [(r, c), (c, r)] if mirror and r != c else [(r, c)]
        rows, cols = (np.array(v) for v in zip(*cells))
        update = (rows, cols, np.full(len(cells), delta))
        if min(w, float(A[c, r]) if mirror else w) + delta < 0:
            with pytest.raises(InputError, match="negative"):
                apply_update(net, update)
            continue
        got = apply_update(net, update).arcs
        want = _edit_via_lil(A, r, c, delta, mirror)
        for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                     (got.data, want.data)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        checked += 1
    assert checked > 300


# ---------------------------------------------------------------------------
# hub / authority operators

@pytest.mark.parametrize("directed", [True, False])
def test_operators_are_marked_symmetric_iff_undirected(monkeypatch, directed):
    from perronnet import communicability
    net = random_multiplex_net(9, N=5, L=2, directed=directed)
    assert supra_operator(net).symmetric is (not directed)
    mutated = apply_update(net, edge_update(net, EdgeKey(1, 3, 2, 2), 0.5))
    assert supra_operator(mutated).symmetric is (not directed)
    # both Gram operators are symmetric for any B
    marks = []
    solve = communicability.perron
    monkeypatch.setattr(communicability, "perron", lambda op, **kw: (
        marks.append(op.symmetric) or solve(op, **kw)))
    communicability.hub_authority_communicability(net)
    assert marks == [True, True]


def test_hub_authority_symmetric_coincide():
    net = random_multiplex_net(9, N=5, L=2, gamma=1.0, directed=False)
    B = assemble_dense(net)
    assert np.array_equal(B, B.T)
    op = supra_operator(net)
    hub, auth = op @ op.H, op.H @ op
    rng = np.random.default_rng(0)
    v = rng.standard_normal(net.dim)
    b2v = B @ (B @ v)
    assert np.allclose(hub.matvec(v), b2v, rtol=1e-12, atol=1e-10)
    assert np.allclose(auth.matvec(v), b2v, rtol=1e-12, atol=1e-10)


def test_hub_operator_matches_dense_gram():
    net, B = random_general_net(11, N=4, L=2)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(8)
    op = supra_operator(net)
    assert np.allclose((op @ op.H).matvec(v), B @ (B.T @ v),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose((op.H @ op).matvec(v), B.T @ (B @ v),
                       rtol=1e-12, atol=1e-12)
