"""The block re-solve of perturbed networks against per-row solves.

``perron_block`` solves the root of every perturbation of one command
together, as one block power iteration on the base operator.  Each root
it accepts must lie within tol * max(1, rho) of the dense oracle's root
of its own mutated network; a column it does not accept is solved alone
by ``perron()``, as before the block pass existed.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from perronnet import (ConvergenceError, EdgeKey, InputError, Network,
                       apply_edge_delta, assemble_dense, load_demo_network,
                       perron, perron_dense_oracle, rank_insertions,
                       rank_removals, supra_operator)
from perronnet import eigen
from perronnet.eigen import (BLOCK_MAX_STEPS, _STALL_STEPS, _row_norms,
                             perron_block)
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


# ---------------------------------------------------------------------------
# the check schedule, against the array schedule it replaced

def reference_power_columns(matmat, X, entries, tol, v=None):
    """``eigen._power_columns`` as it was while each check step rebuilt
    every column's schedule as numpy arrays, kept as the reference: the
    schedule held in scalars must check, accept and hand over each
    column at the same steps, so that every product keeps its bits."""
    rows, cols, deltas, col = entries
    k = X.shape[1]
    out: list = [None] * k
    # each column's next check step (past BLOCK_MAX_STEPS once it has
    # resolved), its last one (0: none yet) and its bracket width or
    # residual over its bound there
    due = np.ones(k, dtype=np.int64)
    seen = np.zeros(k, dtype=np.int64)
    seen_excess = np.ones(k)
    next_check = 1  # the least of due
    scale = 1.0
    # a column that vanishes or overflows while checked is handed to
    # perron(), which reports why, and one that has resolved is not read;
    # neither must warn here
    with np.errstate(all="ignore"):
        for step in range(1, BLOCK_MAX_STEPS + 1):
            checking = step == next_check
            if checking:
                check = np.flatnonzero(due == step)
                xt, norm_x = eigen._unit_columns(X, check)
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
                # a zero column's NaN rho, or an infinite one, is refused
                signed = xt.min(axis=1) >= 0
                bound = tol * np.maximum(1.0, np.abs(rho))
                done = (err <= bound) & signed & np.isfinite(rho)
                for i in np.flatnonzero(done):
                    out[check[i]] = (float(rho[i]) if v is not None
                                     else (xt[i].copy(), W[:, check[i]].copy()))
                if step == 1:
                    top = np.abs(rho[np.isfinite(rho)]).max(initial=0.0)
                    if top > 0:
                        scale = math.ldexp(1.0, -math.frexp(top)[1])
                excess = err / bound
                last = seen[check]
                since = last > 0
                rate = (excess / seen_excess[check]) ** (1.0 / (step - last))
                keep = (~done & (norm_x > 0) & np.isfinite(norm_x)
                        & (~since | (excess * rate ** (BLOCK_MAX_STEPS - step)
                                     <= 1.0)))
                # steps until excess * rate**m <= 1, within [1, _STALL_STEPS]
                wait = np.where(since, np.ceil(np.log(excess) / -np.log(rate)),
                                _STALL_STEPS)
                wait = np.fmax(np.fmin(wait, _STALL_STEPS), 1).astype(np.int64)
                due[check] = np.where(keep, np.minimum(step + wait,
                                                       BLOCK_MAX_STEPS),
                                      BLOCK_MAX_STEPS + 1)
                seen[check] = step
                seen_excess[check] = excess
                next_check = int(due.min())
                if next_check > BLOCK_MAX_STEPS:
                    break  # no column has a check left
            W *= scale
            X = W
    return out


def traced(power_columns, product, X, entries, tol, v, monkeypatch):
    """The result of ``power_columns`` from the block X, each column's
    check steps, and the bits of every block it multiplies by
    ``product()``, a fresh product."""
    checks = [[] for _ in range(X.shape[1])]
    blocks = []
    unit, matmat = eigen._unit_columns, product()

    def spy(V, j):
        for c in np.asarray(j).tolist():
            checks[c].append(len(blocks) + 1)
        return unit(V, j)

    def counted_matmat(V):
        blocks.append(V.tobytes())
        return matmat(V)

    monkeypatch.setattr(eigen, "_unit_columns", spy)
    out = power_columns(counted_matmat, X.copy(), entries, tol, v)
    monkeypatch.setattr(eigen, "_unit_columns", unit)
    return out, checks, blocks


def assert_same_schedule(product, X, entries, tol, v, monkeypatch):
    """The scalar schedule checks every column at the reference's steps,
    so it accepts or hands it over at the same step, multiplies the same
    bits and returns the same roots, or x and image, bit for bit."""
    got, got_checks, got_blocks = traced(eigen._power_columns, product, X,
                                         entries, tol, v, monkeypatch)
    want, want_checks, want_blocks = traced(reference_power_columns, product,
                                            X, entries, tol, v, monkeypatch)
    assert got_checks == want_checks
    assert got_blocks == want_blocks
    assert [g is None for g in got] == [w is None for w in want]
    for g, w in zip(got, want):
        if isinstance(w, tuple):
            assert [a.tobytes() for a in g] == [a.tobytes() for a in w]
        elif w is not None:
            assert np.float64(g).tobytes() == np.float64(w).tobytes()


NO_UPDATE = (np.empty(0, dtype=np.int64),) * 4

SCHEDULE_NETWORKS = dict(
    NETWORKS, sink=lambda: sink_network(301, sinks=2),
    periodic=periodic_cycle, tiny_gap=tiny_gap_layers, demo=load_demo_network,
    sparse=lambda: sparse_directed_general(11, N=200, L=4, arcs=4000))


@pytest.mark.parametrize("name", sorted(SCHEDULE_NETWORKS))
def test_power_phase_keeps_the_array_schedule(name, monkeypatch):
    # k = 1: perron()'s cold sides, on B and on B^T
    net = SCHEDULE_NETWORKS[name]()
    op = supra_operator(net)
    u = np.full((net.dim, 1), 1.0 / np.sqrt(net.dim))
    for matmat in (op.matmat, op.rmatmat):
        assert_same_schedule(lambda: matmat, matmat(u), NO_UPDATE, TOL, None,
                             monkeypatch)


@pytest.mark.parametrize("name", sorted(SCHEDULE_NETWORKS))
def test_block_resolve_keeps_the_array_schedule(name, monkeypatch):
    # k <= 10: the blocks perron_block starts for removals and increases
    net = SCHEDULE_NETWORKS[name]()
    op = supra_operator(net)
    x0, y0 = _warm_start(perron(op))
    calls = []
    monkeypatch.setattr(eigen, "_power_columns",
                        lambda *args: calls.append(args) or [])
    for mode in ("remove", "increase"):
        perron_block(op, requests_for(net, mode, mirror=False, count=10),
                     x0=x0, y0=y0)
    monkeypatch.undo()
    assert calls
    for matmat, *args in calls:
        assert_same_schedule(lambda: matmat, *args, monkeypatch)


def scripted_product(column=None):
    """A product that moves each of ten columns of order 4 by its own
    rule, for the schedule's edge cases; with ``column``, that column
    alone, as a block of one:

    0. a positive matrix: accepted;
    1. a nilpotent one: the column vanishes, its rho and excess are NaN;
    2. a first entry that grows by 1e200 a step: the column overflows
       between two checks;
    3. ratios that agree from the second product on, on a column with a
       negative entry, which is never accepted: its excess falls to 0, so
       its rate is 0 and its wait log(0) / -log(0) is NaN, then 0 / 0;
    4. as 3, with ratios that spread again from the eighth product: an
       excess over a seen excess of 0;
    5. ratios 1/2 and 1 at every step, on a column with a negative entry:
       rate 1, so its wait is log(excess) / -0.0, -inf or +inf;
    6. ratios that spread twice as far each step: rate > 1;
    7. a spread of 1e-9, then a ratio of 1e100 at an entry of 1e-50:
       its excess grows by 1e59 in five steps, and rate**m overflows;
    8. a positive matrix whose product is inf at its sixth call: a
       finite x whose excess is NaN, after a finite one;
    9. ratios 1 and 2 on a column with two negative entries, orthogonal
       to the left start of ones, as its image is: its root is 0 / 0,
       NaN, where its bracket width is finite.
    """
    rng = np.random.default_rng(17)
    n, k = 4, 10
    mats = [rng.uniform(0.1, 1.0, (n, n)) for _ in range(k)]
    mats[1] = np.triu(mats[1], 1)
    mats[2] = np.diag([1e200, 1.0, 1.0, 1.0])
    mats[3] = mats[4] = mats[6] = mats[7] = np.eye(n)
    mats[5] = np.diag([0.5, 0.5, 1.0, 1.0])
    mats[9] = np.diag([1.0, 1.0, 2.0, 2.0])
    spread = np.arange(1.0, n + 1)
    calls = 0

    def product(V):
        nonlocal calls
        calls += 1
        if column is not None:
            V = np.repeat(V, k, axis=1)
        W = np.column_stack([m @ x for m, x in zip(mats, V.T)])
        W[:, 3] *= 2.0 if calls > 1 else spread
        W[:, 4] *= 2.0 if 1 < calls < 8 else spread
        W[-1, 6] *= 1.0 + 2.0 ** (calls - 30)
        W[-1, 7] *= 1.0 + 1e-9
        if calls == 6:
            W[0, 7] *= 1e100
            W[:, 8] = np.inf
        return W if column is None else W[:, [column]]

    return product


def scripted_start():
    """The start block of :func:`scripted_product`, columns of unit norm;
    columns 3, 4, 5 and 9 hold a negative entry, 2 and 7 a tiny one."""
    X = np.random.default_rng(18).uniform(0.5, 1.5, (4, 10))
    X[1, [3, 4]] = X[2, 5] = -1.0
    X[:, 9] = [1.0, -1.0, 1.0, -1.0]
    X[0, 2], X[0, 7] = 1e-300, 1e-50
    return X / np.sqrt((X * X).sum(axis=0))


@pytest.mark.parametrize("tol", [TOL, 1.0])
@pytest.mark.parametrize("left", [False, True])
def test_schedule_edge_cases_keep_the_array_schedule(left, tol, monkeypatch):
    # k = 10 and each column alone; tol = 1 puts column 5's excess below 1,
    # where rate 1 keeps it, and column 9's, whose NaN root makes a NaN
    # bound, at 1 for a finite one
    X = scripted_start()
    v = np.ones(4) if left else None
    assert_same_schedule(scripted_product, X, NO_UPDATE, tol, v, monkeypatch)
    for j in range(X.shape[1]):
        assert_same_schedule(lambda: scripted_product(j), X[:, [j]],
                             NO_UPDATE, tol, v, monkeypatch)
    X[0, 2] = np.inf  # overflowed already: an infinite norm at step 1
    assert_same_schedule(scripted_product, X, NO_UPDATE, tol, v, monkeypatch)


def test_scalar_ufunc_calls_round_as_the_array_loops():
    # the schedule's powers and logarithms of Python floats round as the
    # array loops do, dispatched to SIMD code or not; math.log, and a
    # scalar exponent 0.5, which numpy takes as a square root, need not
    rng = np.random.default_rng(5)
    base = np.concatenate([rng.uniform(0.0, 3.0, 2000),
                           np.exp(rng.uniform(-700.0, 700.0, 2000)),
                           [0.0, 1.0, np.inf, np.nan, 5e-324]])
    with np.errstate(all="ignore"):
        for d in range(1, _STALL_STEPS + 1):
            want = base ** (1.0 / np.full(base.size, d))
            got = [np.power(b, [1.0 / d])[0] for b in base.tolist()]
            np.testing.assert_array_equal(got, want)
        for m in range(BLOCK_MAX_STEPS):
            got = [np.power(b, m) for b in base.tolist()]
            np.testing.assert_array_equal(got, base ** m)
        np.testing.assert_array_equal([np.log(b) for b in base.tolist()],
                                      np.log(base))
