"""The block re-solve of perturbed networks against per-row solves.

``perron_block`` solves the root of every perturbation of one command
together, as one block power iteration on the base operator.  Each root
it accepts must lie within tol * max(1, rho) of the dense oracle's root
of its own mutated network; a column it does not accept is solved alone
by ``perron()``, as before the block pass existed.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from perronnet import (ConvergenceError, EdgeKey, InputError, Network,
                       apply_edge_delta, assemble_dense, load_demo_network,
                       perron, perron_dense_oracle, rank_insertions,
                       rank_removals, supra_operator)
from perronnet.eigen import _STALL_STEPS, perron_block
from perronnet.model import apply_update, editable_arcs, unflatten_index
from perronnet import recommend
from perronnet.recommend import _edits, _exact_roots, _warm_start

from conftest import (multilayer_from_dense, multiplex_from_layers,
                      random_general_dense, random_general_net,
                      random_multiplex_net)

TOL = 1e-10
EPS = 0.1  # below every stored weight of the networks here (>= 0.2)


def test_an_infinite_root_is_not_accepted():
    # an infinite rho makes the bound tol * max(1, |rho|) infinite, which
    # every bracket would pass; the column goes to perron(), whose network
    # of the update refuses the infinite weight
    net = load_demo_network()
    update = (np.array([0]), np.array([1]), np.array([np.inf]))
    assert perron_block(supra_operator(net), [update]) == [None]
    t = perron(supra_operator(net))
    [root] = _exact_roots(net, t, [update], TOL)
    assert isinstance(root, InputError)
    assert str(root) == "stored weights must be strictly positive and finite"


def general_undirected(seed, N, L):
    rng = np.random.default_rng(seed)
    B = np.triu(random_general_dense(rng, N * L, density=0.3))
    return multilayer_from_dense(B + B.T, N, L, directed=False)


def decoupled_multiplex(seed, N):
    # gamma = 0: two independent layers, the Perron vectors vanish on the
    # weaker one, so every re-solve starts cold
    rng = np.random.default_rng(seed)
    layers = []
    for scale in (1.0, 1.5):
        A = np.triu(rng.uniform(0.2, 1.2, (N, N)) * (rng.random((N, N)) < 0.5), 1)
        A[np.arange(N - 1), np.arange(1, N)] = 1.0
        layers.append(scale * (A + A.T))
    return multiplex_from_layers(layers, gamma=0.0)


NETWORKS = {
    "multiplex-0.7-undirected": lambda: random_multiplex_net(
        201, N=8, L=3, gamma=0.7, directed=False),
    "multiplex-0.7-directed": lambda: random_multiplex_net(
        202, N=8, L=3, gamma=0.7, directed=True),
    "multiplex-0-one-layer": lambda: random_multiplex_net(
        203, N=10, L=1, gamma=0.0, directed=True),
    "multiplex-0-two-layers": lambda: decoupled_multiplex(204, N=8),
    "general-directed": lambda: random_general_net(205, N=5, L=3)[0],
    "general-undirected": lambda: general_undirected(206, N=5, L=3),
}


def edges_for(net, existing, count=6, seed=0):
    """``count`` seeded edges: stored arcs, or absent admissible arcs."""
    rng = np.random.default_rng(seed)
    a, b, _w = editable_arcs(net)
    if not existing:
        B = net.supra.toarray()
        a, b = np.nonzero(B == 0)
        ok = a != b
        if net.multiplex:
            ok &= a // net.N == b // net.N
        a, b = a[ok], b[ok]
    picks = rng.choice(a.size, size=min(count, a.size), replace=False)
    edges = []
    for p in picks:
        i, k = unflatten_index(a[p], net.N)
        j, l = unflatten_index(b[p], net.N)
        edges.append(EdgeKey(i, j, k, l))
    return edges


def requests_for(net, mode, mirror, count=6, eps=EPS):
    """Supra updates of seeded requests: absent arcs raised for an
    increase, stored arcs otherwise."""
    return [_edits(net, e, mode, eps, mirror)
            for e in edges_for(net, mode != "increase", count)]


def assert_root(rho, B, tol=TOL):
    """rho is the Perron root of the dense matrix B, by the dense oracle,
    within tol * max(1, rho)."""
    oracle = perron_dense_oracle(B).rho
    assert abs(rho - oracle) <= tol * max(1.0, rho), (rho, oracle)


def block_solve(net, t, requests, tol=TOL):
    x0, y0 = _warm_start(t)
    return perron_block(supra_operator(net), requests, tol=tol, x0=x0, y0=y0)


# ---------------------------------------------------------------------------
# equivalence with the per-row solve

@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("mode", ["increase", "decrease", "remove"])
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_block_roots_match_per_row_solves(name, mode, mirror):
    net = NETWORKS[name]()
    t = perron(supra_operator(net), tol=1e-12)
    requests = requests_for(net, mode, mirror)
    x0, y0 = _warm_start(t)
    for update, got in zip(requests, block_solve(net, t, requests)):
        mutated = apply_update(net, update)
        want = perron(supra_operator(mutated), tol=TOL, x0=x0, y0=y0)
        if got is None:
            continue
        assert_root(got, assemble_dense(mutated))
        # the per-row root lies within kappa times its residual bound of
        # the true one, and the block's within the bound
        bound = TOL * max(1.0, want.rho) * (1.0 + want.kappa)
        assert abs(got - want.rho) <= bound


def test_block_accepts_most_columns_of_the_equivalence_networks():
    accepted = total = 0
    for name in ("multiplex-0.7-undirected", "multiplex-0.7-directed",
                 "general-directed"):
        net = NETWORKS[name]()
        t = perron(supra_operator(net), tol=1e-12)
        for mode in ("increase", "decrease", "remove"):
            got = block_solve(net, t, requests_for(net, mode, mirror=True))
            accepted += sum(g is not None for g in got)
            total += len(got)
    assert accepted >= 0.9 * total


def counted(net):
    """The supra operator of ``net`` and the list of the widths of its
    ``matmat`` blocks, one entry per product."""
    base, widths = supra_operator(net), []

    def matmat(X):
        widths.append(X.shape[1])
        return base.matmat(X)

    return LinearOperator(base.shape, matvec=base.matvec, matmat=matmat,
                          dtype=float), widths


def test_accepted_columns_do_not_depend_on_the_block():
    # a resolved column stays in the block, unread, until the last one
    # resolves; on the two-sink network two columns are handed over at
    # step 11 and ride along while the others are accepted at steps 46-53
    for net in (NETWORKS["general-directed"](), sink_network(301, sinks=2)):
        t = perron(supra_operator(net), tol=1e-12)
        x0, y0 = _warm_start(t)
        requests = requests_for(net, "remove", mirror=False)
        op, widths = counted(net)
        together = perron_block(op, requests, tol=TOL, x0=x0, y0=y0)
        steps = []
        for update, got in zip(requests, together):
            del widths[:]
            alone, = perron_block(op, [update], tol=TOL, x0=x0, y0=y0)
            steps.append(len(widths))
            assert (got is None) == (alone is None)
            assert got == alone  # bit for bit
    # the two-sink block, the last one, resolves at four different steps
    assert None in together and len(set(steps)) > 2


def test_empty_block_makes_no_products():
    net = NETWORKS["general-directed"]()
    assert perron_block(supra_operator(net), []) == []


def test_a_symmetric_operator_solves_an_unmirrored_update():
    # the block reads no symmetry mark: a one-arc update of an undirected
    # network gets the root of the nonsymmetric B + E, next to the
    # mirrored update's root of the symmetric one
    net = NETWORKS["general-undirected"]()
    t = perron(supra_operator(net))
    arc = (np.array([0]), np.array([3]), np.array([0.3]))
    mirrored = (np.array([0, 3]), np.array([3, 0]), np.array([0.3, 0.3]))
    op = supra_operator(net)
    assert op.symmetric
    got = perron_block(op, [mirrored, arc], x0=t.x, y0=t.y)
    for (rows, cols, deltas), rho in zip([mirrored, arc], got):
        B = assemble_dense(net)
        B[rows, cols] += deltas
        assert rho is not None
        assert_root(rho, B)
    assert got[1] < got[0]


def spread_network(seed, multiplex, directed):
    """A seeded network of 15 (general) or 18 (multiplex, gamma = 0.5)
    node-layers whose weights spread over orders of magnitude (lognormal,
    sigma 3), with a ring that keeps it strongly connected: a directed
    one has Perron vectors far apart, a large kappa."""
    rng = np.random.default_rng(seed)
    if not multiplex:
        N, L, density = 5, 3, 0.3
    else:
        N, L, density = 6, 3, 0.4
    blocks = []
    for _ in range(L if multiplex else 1):
        n = N if multiplex else N * L
        A = (rng.random((n, n)) < density) * rng.lognormal(0.0, 3.0, (n, n))
        if not blocks:
            A[np.arange(n), (np.arange(n) + 1) % n] = rng.lognormal(0.0, 3.0, n)
        np.fill_diagonal(A, 0.0)
        if not directed:
            A = np.triu(A, 1)
            A = A + A.T
        blocks.append(A)
    if multiplex:
        return multiplex_from_layers(blocks, gamma=0.5, directed=directed)
    return multilayer_from_dense(blocks[0], N, L, directed)


@pytest.mark.parametrize("mode", ["increase", "decrease", "remove"])
@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("multiplex", [False, True])
def test_accepted_roots_lie_within_tol_of_the_dense_oracle(multiplex,
                                                           directed, mode):
    # the bracket bounds the root itself, at any tol and from any positive
    # start: warm, cold, or drawn far from both Perron vectors.  A bracket
    # read from its top end alone, or a residual test in its place, accepts
    # roots several tol away on these networks
    accepted = 0
    for seed in range(6):
        net = spread_network(400 + seed, multiplex, directed)
        t = perron(supra_operator(net), tol=1e-12)
        rng = np.random.default_rng(seed)
        requests = []
        for e in edges_for(net, mode != "increase", seed=seed):
            try:
                requests.append(_edits(net, e, mode, 0.05, mirror=True))
            except InputError:  # a decrease by more than a weight
                continue
        oracles = [perron_dense_oracle(assemble_dense(apply_update(net, u))).rho
                   for u in requests]
        starts = [_warm_start(t), (None, None),
                  tuple(rng.lognormal(0.0, 2.0, (2, net.dim)))]
        for x0, y0 in starts:
            for tol in (1e-2, 1e-6, 1e-10):
                got = perron_block(supra_operator(net), requests, tol=tol,
                                   x0=x0, y0=y0)
                for rho, oracle in zip(got, oracles):
                    if rho is not None:
                        accepted += 1
                        assert abs(rho - oracle) <= tol * max(1.0, rho), (
                            seed, tol, rho, oracle)
    assert accepted >= 40


def edited_by_public_calls(net, e, mode, eps):
    """The network after a mirrored request, as the chain of public
    apply_edge_delta calls: edge e raised by eps or removed, then on
    directed input its reverse arc the same way."""
    base = net
    r = e.reversed()
    for f in [e] + ([r] if net.directed and r != e else []):
        delta = eps if mode == "increase" else -base.weight(f)
        net = apply_edge_delta(net, f, delta)
    return net


def test_supra_updates_are_the_cells_of_the_mutation():
    for name in sorted(NETWORKS):
        net = NETWORKS[name]()
        for mode in ("increase", "remove"):
            for e in edges_for(net, mode != "increase", count=3):
                update = _edits(net, e, mode, EPS, mirror=True)
                rows, cols, deltas = update
                E = sp.csr_matrix((deltas, (rows, cols)), shape=net.arcs.shape)
                want = edited_by_public_calls(net, e, mode, EPS).arcs.toarray()
                assert np.array_equal((net.arcs + E).toarray(), want)
                assert np.array_equal(apply_update(net, update).arcs.toarray(),
                                      want)


@pytest.mark.parametrize("name", ["general-directed", "general-undirected"])
def test_block_products_take_c_order_blocks(name):
    # scipy's CSR kernel multiplies a C-order n x k block as it is; any
    # other layout would cost a copy per product
    net = NETWORKS[name]()
    t = perron(supra_operator(net), tol=1e-12)
    requests = requests_for(net, "remove", mirror=False)
    base = supra_operator(net)
    sides = ("matvec", "rmatvec", "matmat", "rmatmat")
    blocks = {side: [] for side in sides}

    def recorded(side):
        def product(V):
            blocks[side].append(V)
            return getattr(base, side)(V)
        return product

    op = LinearOperator(base.shape, dtype=float,
                        **{side: recorded(side) for side in sides})
    op.symmetric = base.symmetric
    x0, y0 = _warm_start(t)
    got = perron_block(op, requests, x0=x0, y0=y0)
    assert any(g is not None for g in got)
    assert blocks["matmat"]
    # no product with B^T, and no product outside the block
    assert not (blocks["rmatmat"] or blocks["rmatvec"] or blocks["matvec"])
    for V in blocks["matmat"]:
        assert V.ndim == 2 and V.shape[0] == net.dim
        assert V.shape[1] == len(requests)  # the block stays whole
        assert V.flags.c_contiguous


# ---------------------------------------------------------------------------
# inputs the block pass hands to perron()

def periodic_cycle():
    # one directed cycle through 12 node-layers: rho * omega^k are all
    # eigenvalues, so the power iteration never settles
    n = 12
    rng = np.random.default_rng(7)
    B = np.zeros((n, n))
    B[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(0.5, 1.5, n)
    return multilayer_from_dense(B, N=4, L=3, directed=True)


def tiny_gap_layers():
    # two equal dense layers coupled by gamma = 1e-6: the leading
    # eigenvalues are rho_A + gamma and rho_A - gamma
    rng = np.random.default_rng(9)
    A = np.triu(rng.uniform(0.5, 1.5, (10, 10)), 1)
    return multiplex_from_layers([A + A.T, A + A.T], gamma=1e-6)


@pytest.mark.parametrize("make, eps", [(periodic_cycle, EPS),
                                       (tiny_gap_layers, 1e-6)])
def test_fallback_returns_certified_roots(make, eps):
    # raising stored arcs keeps the cycle periodic, and raising arcs of one
    # layer by 1e-6 keeps the gap tiny
    net = make()
    t = perron(supra_operator(net), tol=1e-12)
    requests = [_edits(net, e, "increase", eps)
                for e in edges_for(net, existing=True, count=3)]
    assert block_solve(net, t, requests) == [None] * len(requests)
    for update, rho in zip(requests, _exact_roots(net, t, requests, TOL)):
        oracle = perron_dense_oracle(assemble_dense(apply_update(net, update)))
        assert rho == pytest.approx(oracle.rho, rel=1e-10)


def test_demo_columns_leave_the_block_after_a_few_steps():
    # the demo's power iteration contracts too slowly to reach the bound
    # within the cap: each column is handed to perron() as soon as its
    # measured contraction says so, and the block stops once none has a
    # check left, not after BLOCK_MAX_STEPS steps
    net = load_demo_network()
    t = perron(supra_operator(net))
    requests = ([_edits(net, r.edge, "increase", 0.3, mirror=True)
                 for r in rank_insertions(t, net, top_k=5)]
                + [_edits(net, r.edge, "remove")
                   for r in rank_removals(t, net, top_k=5)])
    op, steps = counted(net)
    x0, y0 = _warm_start(t)
    assert perron_block(op, requests, x0=x0, y0=y0) == [None] * 10
    # 8 steps when written
    assert len(steps) <= 2 * _STALL_STEPS + 2


def sink_network(seed, sinks):
    """A seeded directed general network of 12 node-layers, 4 nodes in 3
    layers, whose ``sinks`` positions have no out-arcs."""
    rng = np.random.default_rng(seed)
    B = random_general_dense(rng, 12)
    B[rng.choice(12, size=sinks, replace=False)] = 0.0
    return multilayer_from_dense(B, N=4, L=3, directed=True)


def test_a_sink_is_bracketed_on_the_support_of_x(monkeypatch):
    # x is 0 at a node without out-arcs, and so is its image: the ratios
    # on the support of x bracket the root, the sink's own block being 0,
    # so every column is accepted and no row is solved alone
    rng = np.random.default_rng(13)
    B = random_general_dense(rng, 12)
    B[5] = 0.0
    net = multilayer_from_dense(B, N=4, L=3, directed=True)
    t = perron(supra_operator(net))
    assert t.x[5] == 0.0 and _warm_start(t) == (None, None)
    requests = [u for u in requests_for(net, "remove", mirror=False)
                if 5 not in u[0]]
    assert requests

    def per_row(*args, **kwargs):
        raise AssertionError("a row was solved alone")

    monkeypatch.setattr(recommend, "perron", per_row)
    roots = _exact_roots(net, t, requests, TOL)
    assert roots == perron_block(supra_operator(net), requests)
    for update, rho in zip(requests, roots):
        assert_root(rho, assemble_dense(apply_update(net, update)))


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_roots_of_networks_with_sinks_lie_within_tol_of_the_dense_oracle(tol):
    # one to three sinks, under removals and increases, from a cold start:
    # a column is accepted only on its support's bracket, which must hold
    # the root of the whole B + E_j
    accepted = total = 0
    for seed in range(12):
        net = sink_network(300 + seed, sinks=1 + seed % 3)
        requests = (requests_for(net, "remove", mirror=False)
                    + requests_for(net, "increase", mirror=False, eps=0.3))
        got = perron_block(supra_operator(net), requests, tol=tol)
        for update, rho in zip(requests, got):
            total += 1
            if rho is not None:
                accepted += 1
                oracle = perron_dense_oracle(
                    assemble_dense(apply_update(net, update))).rho
                assert abs(rho - oracle) <= tol * max(1.0, rho), (seed, rho,
                                                                  oracle)
    # 131 (tol 1e-6) and 127 (1e-10) of 144 when written; seed 311's gap
    # ratio |lambda_2| / rho is 0.992, and its 12 columns are handed over
    assert accepted >= 0.8 * total


def test_fallback_keeps_the_reducible_ring_notes():
    B = np.zeros((5, 5))
    B[np.arange(5), (np.arange(5) + 1) % 5] = 1.0
    net = multilayer_from_dense(B, N=5, L=1, directed=True)
    t = perron(supra_operator(net))
    requests = requests_for(net, "remove", mirror=False, count=5)
    assert block_solve(net, t, requests) == [None] * 5
    for err in _exact_roots(net, t, requests, TOL):
        assert isinstance(err, ConvergenceError)
        assert "orthogonal" in str(err) and "reducible" in str(err)


# ---------------------------------------------------------------------------
# regression guard: the benchmark's kind of network needs no fallback

def sparse_directed_general(seed, N, L, arcs):
    """Directed general network of ``arcs`` random arcs plus a ring through
    a random permutation of the node-layers (so strongly connected), with
    weights that are multiples of 1/64 in [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    n = N * L
    perm = rng.permutation(n)
    a = np.concatenate([perm, rng.integers(0, n, arcs)])
    b = np.concatenate([np.roll(perm, -1), rng.integers(0, n, arcs)])
    key = np.unique(a[a != b] * n + b[a != b])
    w = rng.integers(32, 97, key.size) / 64.0
    return Network(N, L, sp.csr_matrix((w, (key // n, key % n)), shape=(n, n)),
                   directed=True)


def test_removal_resolves_of_a_large_directed_network_need_no_fallback():
    net = sparse_directed_general(11, N=1000, L=4, arcs=24000)
    t = perron(supra_operator(net))
    requests = [_edits(net, r.edge, "remove")
                for r in rank_removals(t, net, top_k=10)]
    op, steps = counted(net)
    x0, y0 = _warm_start(t)
    got = perron_block(op, requests, x0=x0, y0=y0)
    assert all(g is not None for g in got)
    # at most 25 products per column, one a step (19 steps on this
    # network when written)
    assert len(steps) <= 25
    # the dense oracle would take minutes at n = 4000: each root is checked
    # against a per-row solve a thousand times tighter
    for update, rho in zip(requests, got):
        want = perron(supra_operator(apply_update(net, update)), tol=1e-13)
        assert abs(rho - want.rho) <= TOL * max(1.0, rho)
