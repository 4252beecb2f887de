"""Array-based scoring of existing edges against a reference edge walk.

The reference functions below score and order the stored edges one
``EdgeKey`` at a time, walking ``net.edges()``; the library does the same
with array operations over ``editable_arcs``.  Both use the same float
operations, so rankings, scores and baseline picks must agree exactly.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from perronnet import (EdgeKey, InfeasibleError, InputError,
                       MultilayerNetwork, MultiplexNetwork, assemble_sparse,
                       cli, is_strongly_connected, load_multiplex, perron,
                       rank_insertions, rank_removals, sensitivity_entry,
                       supra_operator)
from perronnet.model import editable_arcs
from perronnet.recommend import _draw_baselines, _remove_group

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
            mutated = _remove_group(net, e, mirror=not net.directed)
            if require_connected:
                connected = is_strongly_connected(mutated)
                if not connected:
                    continue
            if recompute:
                rho_after = perron(supra_operator(mutated), tol=1e-10,
                                   x0=t.x, y0=t.y).rho
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
    found = {}
    for e, _w in net.edges():
        s = sensitivity_entry(t, e, net.N)
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
    B = assemble_sparse(gen).toarray()
    assert np.array_equal(B[rows, cols], w)
    assert len(w) == np.count_nonzero(B)


def test_undirected_networks_must_be_symmetric():
    blk = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError, match="symmetric"):
        MultilayerNetwork(N=2, L=1, blocks=((blk,),), directed=False)
    with pytest.raises(InputError, match="symmetric"):
        MultiplexNetwork(N=2, L=1, layers=(blk,), gamma=1.0, directed=False)
    # an inter-layer arc without its mirror block
    empty = sp.csr_matrix((2, 2))
    with pytest.raises(InputError, match="symmetric"):
        MultilayerNetwork(N=2, L=2, blocks=((None, blk), (None, None)),
                          directed=False)
    with pytest.raises(InputError, match="symmetric"):
        MultilayerNetwork(N=2, L=2, blocks=((None, blk), (empty, None)),
                          directed=False)
    # the same arcs are a valid directed network
    MultilayerNetwork(N=2, L=2, blocks=((None, blk), (None, None)),
                      directed=True)
    MultilayerNetwork(N=2, L=2, blocks=((None, blk), (blk.T.tocsr(), None)),
                      directed=False)


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


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("gamma", [0.0, 0.7])
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
    assert len(coupling) == (0 if gamma == 0 else
                             6 * (6 if directed else 3))
