"""Array-based scoring of existing edges against a reference edge walk.

The reference functions below score and order the stored edges one
``EdgeKey`` at a time, walking ``net.edges()``; the library does the same
with array operations over ``editable_arcs``.  Both use the same float
operations, so rankings, scores and baseline picks must agree exactly.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from perronnet import (EdgeKey, InfeasibleError, InputError, Network,
                       apply_edge_delta, cli, flat_index,
                       is_strongly_connected, load_multiplex, perron,
                       rank_insertions, rank_removals, sensitivity_entry,
                       supra_operator)
from perronnet.eigen import perron_block
from perronnet.model import editable_arcs
from perronnet.recommend import _draw_baselines, _tie_key, _tie_order

from conftest import (multilayer_from_dense, multiplex_from_layers,
                      random_general_dense, random_general_net,
                      random_multiplex_net)


# ---------------------------------------------------------------------------
# reference walk

def _tie(e):
    return (e.k, e.l, e.i, e.j)


def _display(e):
    if e.k == e.l and e.i > e.j:
        return EdgeKey(e.j, e.i, e.k, e.l)
    return e


def ref_existing(t, net):
    """(score, display edge) per removable edge: the first-seen arc of each
    pair on undirected networks, shown with intra-layer i < j."""
    rows, seen = [], set()
    for e, _w in net.edges():
        if not net.directed:
            if e.pair_key() in seen:
                continue
            seen.add(e.pair_key())
            e = _display(e)
        rows.append((sensitivity_entry(t, e, net.N), e))
    return rows


def ref_root(t, net, mutated, tol=1e-10):
    """Root of ``mutated`` by the library's re-solve path, one row at a
    time: the block pass on the base operator with the supra entries the
    mutation changed, then perron() alone on ``mutated`` when the block
    pass does not accept the row.  An accepted column does not depend on
    the rest of its block, so this equals the library's root exactly."""
    x0, y0 = ((t.x, t.y) if t.x.min() > 0 and t.y.min() > 0
              else (None, None))
    diff = sp.coo_matrix(mutated.arcs - net.arcs)
    nz = diff.data != 0
    rho, = perron_block(supra_operator(net),
                        [(diff.row[nz], diff.col[nz], diff.data[nz])],
                        tol=tol, x0=x0, y0=y0)
    if rho is None:
        rho = perron(supra_operator(mutated), tol=tol, x0=x0, y0=y0).rho
    return rho


def ref_removals(t, net, top_k, require_connected=False, recompute=False):
    cands = sorted(ref_existing(t, net), key=lambda se: (se[0], _tie(se[1])))
    if not cands:
        raise InfeasibleError("network has no removable edges")
    out = []
    for score, e in cands:
        if len(out) >= top_k:
            break
        connected = rho_after = None
        if require_connected or recompute:
            mutated = apply_edge_delta(net, e, -net.weight(e))
            if require_connected:
                connected = is_strongly_connected(mutated)
                if not connected:
                    continue
            if recompute:
                rho_after = ref_root(t, net, mutated)
        out.append((e, score, connected, rho_after))
    if require_connected and not out:
        raise InfeasibleError("no removal leaves the network strongly connected")
    return out


def ref_baselines(t, net, count, seed):
    pool = sorted((e for _, e in ref_existing(t, net)), key=_tie)
    if count <= 0 or not pool:
        return []
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return [pool[int(p)] for p in picks]


def ref_strengthening(t, net, top_k):
    """Best stored arc per unordered pair, scored (kappa * y_a) * x_b: no
    supra self-loop, and on undirected networks each edge by its arc with
    a < b."""
    found = {}
    for e, _w in net.edges():
        a = (e.k - 1) * net.N + e.i - 1
        b = (e.l - 1) * net.N + e.j - 1
        if a == b or (not net.directed and a > b):
            continue
        s = (t.kappa * float(t.y[a])) * float(t.x[b])
        disp = _display(e)
        cur = found.get(e.pair_key())
        if (cur is None or s > cur[0]
                or (s == cur[0] and _tie(disp) < _tie(cur[1]))):
            found[e.pair_key()] = (s, disp)
    return sorted(found.values(), key=lambda se: (-se[0], _tie(se[1])))[:top_k]


# ---------------------------------------------------------------------------
# seeded inputs

def general_undirected(seed, N, L):
    rng = np.random.default_rng(seed)
    B = np.triu(random_general_dense(rng, N * L, density=0.3))
    B = B + B.T
    B[2, 2] = 0.75  # a supra self-loop is its own reverse arc
    return multilayer_from_dense(B, N, L, directed=False)


def ring(n, directed):
    B = np.zeros((n, n))
    for a in range(n):
        B[a, (a + 1) % n] = 1.0
        if not directed:
            B[(a + 1) % n, a] = 1.0
    return B


NETWORKS = {
    "multiplex-undirected": lambda: random_multiplex_net(
        101, N=7, L=3, gamma=0.7, directed=False),
    "multiplex-directed": lambda: random_multiplex_net(
        102, N=7, L=3, gamma=0.7, directed=True),
    "general-undirected": lambda: general_undirected(103, N=5, L=3),
    "general-directed": lambda: random_general_net(104, N=5, L=3)[0],
    # ties: uniform Perron vectors make every score exactly equal
    "ring-multiplex": lambda: multiplex_from_layers(
        [ring(8, False), ring(8, False)], gamma=1.0),
    # arcs i+1 -> i: each edge is displayed reversed, as i -> i+1
    "ring-multiplex-directed": lambda: multiplex_from_layers(
        [ring(8, True).T, ring(8, True).T], gamma=1.0, directed=True),
    "ring-general-directed": lambda: multilayer_from_dense(
        ring(12, True), N=4, L=3, directed=True),
    "ring-general-undirected": lambda: multilayer_from_dense(
        ring(12, False), N=4, L=3, directed=False),
}


@pytest.fixture(params=sorted(NETWORKS))
def net_and_triple(request):
    net = NETWORKS[request.param]()
    return net, perron(supra_operator(net), tol=1e-12)


def _outcome(fn):
    try:
        return fn()
    except InfeasibleError as exc:
        return ("infeasible", str(exc))


# ---------------------------------------------------------------------------
# comparisons

def test_removals_match_reference_walk(net_and_triple):
    net, t = net_and_triple
    for top_k in (1, 5, 1000):
        got = rank_removals(t, net, top_k)
        want = ref_removals(t, net, top_k)
        assert [(r.edge, r.score) for r in got] == [(e, s) for e, s, _, _ in want]
        assert all(type(r.score) is float for r in got)


def test_connected_removals_match_reference_walk(net_and_triple):
    net, t = net_and_triple

    def got():
        return [(r.edge, r.score, r.connected_after, r.rho_after)
                for r in rank_removals(t, net, 4, require_connected=True,
                                       recompute=True)]

    assert _outcome(got) == _outcome(
        lambda: ref_removals(t, net, 4, require_connected=True, recompute=True))


def test_baseline_removal_pool_matches_reference_walk(net_and_triple):
    net, t = net_and_triple
    for count, seed in ((1, 0), (3, 42), (7, 5), (10 ** 4, 9)):
        for mode in ("decrease", "remove"):
            assert (_draw_baselines(t, net, mode, count, seed)
                    == ref_baselines(t, net, count, seed))


def test_strengthening_candidates_match_reference_walk(net_and_triple):
    net, t = net_and_triple
    for top_k in (1, 6, 1000):
        got = rank_insertions(t, net, top_k, candidate_set="existing")
        assert ([(r.edge, r.score) for r in got]
                == [(e, s) for s, e in ref_strengthening(t, net, top_k)])


def assert_one_score_per_arc(net, t):
    """Every ranking scores an arc as sensitivity_entry does, bit for bit:
    a removal by its arc, a strengthening pair by the largest removal
    score of its stored arcs, an insertion pair by its larger direction
    (its arc with a < b when undirected)."""
    best = {}
    for r in rank_removals(t, net, 10 ** 6):
        assert r.score == sensitivity_entry(t, r.edge, net.N)
        key = r.edge.pair_key()
        best[key] = max(best.get(key, -np.inf), r.score)
    strengthening = rank_insertions(t, net, 10 ** 6, candidate_set="existing")
    assert strengthening
    for r in strengthening:
        assert r.score == best[r.edge.pair_key()], r.edge
    for r in rank_insertions(t, net, 10 ** 6):
        arcs = (r.edge, r.edge.reversed()) if net.directed else (r.edge,)
        assert r.score == max(sensitivity_entry(t, e, net.N) for e in arcs)


def test_every_ranking_scores_an_arc_one_way(net_and_triple):
    assert_one_score_per_arc(*net_and_triple)


def test_arc_scores_agree_on_seeded_directed_networks():
    # products y_a * x_b one ulp apart used to tie under kappa * (y_a * x_b)
    # in 'rank add' but not under (kappa * y_a) * x_b in 'rank remove'
    for seed in range(20):
        net, _ = random_general_net(seed, N=4, L=2)
        assert_one_score_per_arc(net, perron(supra_operator(net)))


def lexsort_tie_order(a, b, N, score=None):
    """Reference: the (k, l, i, j) tie key as four lexsort keys."""
    keys = (b % N, a % N, b // N, a // N)
    return np.lexsort(keys if score is None else keys + (score,))


@pytest.mark.parametrize("N, L", [(7, 3), (1, 5), (9, 1), (1518500249, 2)])
def test_packed_tie_key_sorts_like_the_four_key_lexsort(N, L):
    # N = 1518500249, L = 2 is the largest order a header allows: its tie
    # keys reach just below 2^63 and are still int64
    rng = np.random.default_rng(N + L)
    net = SimpleNamespace(N=N, L=L, dim=N * L)
    for _ in range(20):
        m = int(rng.integers(1, 400))
        a = rng.integers(0, min(net.dim, 60), m)
        b = rng.integers(0, min(net.dim, 60), m)
        if N > 60:  # spread the positions over the whole index range
            a, b = a * (net.dim // 60), b * (net.dim // 60) + 1
        score = rng.integers(0, 4, m) / 4.0  # many equal scores
        assert np.array_equal(_tie_order(a, b, net, score),
                              lexsort_tie_order(a, b, N, score))
        assert np.array_equal(np.argsort(_tie_key(a, b, net), kind="stable"),
                              lexsort_tie_order(a, b, N))


def test_network_without_edges_has_no_existing_candidates():
    net = multiplex_from_layers([np.zeros((3, 3)), np.zeros((3, 3))], gamma=1.0)
    t = perron(supra_operator(net))
    assert rank_insertions(t, net, 3, candidate_set="existing") == []
    assert _draw_baselines(t, net, "remove", 3, 42) == []


# ---------------------------------------------------------------------------
# the arc arrays and the undirected contract

def test_editable_arcs_list_stored_arcs_without_coupling():
    net = random_multiplex_net(105, N=5, L=3, gamma=1.0, directed=True)
    rows, cols, w = editable_arcs(net)
    got = sorted(zip(rows.tolist(), cols.tolist(), w.tolist()))
    want = sorted((5 * (e.k - 1) + e.i - 1, 5 * (e.l - 1) + e.j - 1, x)
                  for e, x in net.edges())
    assert got == want
    gen, _ = random_general_net(106, N=4, L=2)
    rows, cols, w = editable_arcs(gen)
    B = gen.supra.toarray()
    assert np.array_equal(B[rows, cols], w)
    assert len(w) == np.count_nonzero(B)


def test_editable_arcs_are_the_csr_arcs_as_int64_positions():
    # the order and values of tocoo(), int64 whatever the CSR index dtype,
    # and weights the network does not share
    for net in (random_multiplex_net(107, N=5, L=3, gamma=1.0, directed=False),
                random_general_net(108, N=4, L=2)[0]):
        rows, cols, w = editable_arcs(net)
        coo = net.arcs.tocoo()
        assert rows.dtype == cols.dtype == np.int64
        assert np.array_equal(rows, coo.row) and np.array_equal(cols, coo.col)
        assert np.array_equal(w, coo.data)
        w[:] = 0.0
        assert net.arcs.data.min() > 0


def test_undirected_increase_baselines_show_the_arc_with_a_below_b():
    # as every ranking shows an undirected pair, an inter-layer one from the
    # lower layer
    shown = set()
    for seed in range(20):
        net = general_undirected(seed, N=4, L=2)
        t = perron(supra_operator(net))
        for e in _draw_baselines(t, net, "increase", 6, seed):
            assert flat_index(e.i, e.k, 4) < flat_index(e.j, e.l, 4), e
            shown.add(e.k != e.l)
    assert shown == {False, True}


def test_undirected_networks_must_be_symmetric():
    blk = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError, match="symmetric"):
        Network(2, 1, sp.bmat([[blk]], format="csr"), False)
    with pytest.raises(InputError, match="symmetric"):
        Network(2, 1, sp.block_diag([blk], format="csr"), False, gamma=1.0)
    # an inter-layer arc without its mirror block
    empty = sp.csr_matrix((2, 2))
    with pytest.raises(InputError, match="symmetric"):
        Network(2, 2, sp.bmat([[empty, blk], [empty, empty]], format="csr"),
                False)
    with pytest.raises(InputError, match="symmetric"):
        Network(2, 2, sp.bmat([[None, blk], [empty, None]], format="csr"),
                False)
    # the same arcs are a valid directed network
    Network(2, 2, sp.bmat([[empty, blk], [empty, empty]], format="csr"), True)
    Network(2, 2, sp.bmat([[None, blk], [blk.T.tocsr(), None]], format="csr"),
            False)


# ---------------------------------------------------------------------------
# convert

def ref_convert_lines(net):
    """Edge lines of ``convert``: stored edges sorted by (k, i, l, j), one
    arc per pair on undirected networks."""
    lines, seen = [], set()
    for e, w in sorted(net.edges(), key=lambda ew: (ew[0].k, ew[0].i,
                                                    ew[0].l, ew[0].j)):
        if not net.directed:
            if e.pair_key() in seen:
                continue
            seen.add(e.pair_key())
        lines.append(f"{e.k} {e.i} {e.l} {e.j} {w:.17g}")
    return lines


def ref_coupling_lines(net):
    """Coupling lines of ``convert``, after the edge lines: node i in
    layer k to node i in layer l in (k, l, i) order, weight gamma, each
    layer pair once (k < l) on undirected networks; none at gamma 0."""
    if net.gamma == 0:
        return []
    return [f"{k} {i} {l} {i} {net.gamma:.17g}"
            for k in range(1, net.L + 1) for l in range(1, net.L + 1)
            if (k != l if net.directed else k < l)
            for i in range(1, net.N + 1)]


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("gamma", [0.0, 0.7, 1.0])
def test_convert_matches_reference_walk(capsys, tmp_path, directed, gamma):
    net = random_multiplex_net(107, N=6, L=3, gamma=1.0, density=0.5,
                               directed=directed)
    rows = [f"{e.k} {e.i} {e.j} {w!r}" for e, w in net.edges()
            if directed or e.i < e.j]
    np.random.default_rng(0).shuffle(rows)
    path = tmp_path / "m.edges"
    path.write_text("6 3\n" + "\n".join(rows) + "\n", encoding="utf-8")
    args = ["convert", str(path), "--gamma", str(gamma)]
    assert cli.main(args + (["--directed"] if directed else [])) == 0
    lines = capsys.readouterr().out.splitlines()
    loaded = load_multiplex(path, gamma=gamma, directed=directed)
    edges = ref_convert_lines(loaded)
    assert len(edges) == (net.edge_count() if directed
                          else net.edge_count() // 2)
    assert lines[0] == "6 3"
    assert lines[1:1 + len(edges)] == edges
    coupling = lines[1 + len(edges):]
    assert coupling == ref_coupling_lines(loaded)
    assert len(coupling) == (0 if gamma == 0 else
                             6 * (6 if directed else 3))
