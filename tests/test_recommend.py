"""Edge ranking, feasibility scanning, and the experiment harness."""

import numpy as np
import pytest

from perronnet import (ConvergenceError, EdgeKey, InfeasibleError,
                       InputError, PerronTriple, apply_edge_delta,
                       assemble_dense, perron, perron_dense_oracle,
                       perturbation_experiment, rank_insertions,
                       rank_removals, recommend, supra_operator)
from perronnet.eigen import DEFAULT_TOL

from conftest import (brute_insertion_ranking, brute_removal_ranking,
                      condition_of, dense_perron_pair, multilayer_from_dense,
                      multiplex_from_layers, random_general_net,
                      random_multiplex_net, undirected_general_net)


def triple_of(net, tol=1e-12):
    return perron(supra_operator(net), tol=tol)


def quad(e):
    return (e.i, e.j, e.k, e.l)


# ---------------------------------------------------------------------------
# insertions

def test_demo_top4_matches_reference_ranking(demo_net):
    t = triple_of(demo_net)
    ranked = rank_insertions(t, demo_net, top_k=4)
    assert [quad(r.edge) for r in ranked] == [
        (2, 4, 3, 2), (4, 3, 2, 3), (2, 3, 3, 3), (3, 4, 2, 2)]
    for r, expected in zip(ranked, (0.2241, 0.1725, 0.1717, 0.1694)):
        assert r.score == pytest.approx(expected, abs=5e-5)
        assert r.rho_before == pytest.approx(t.rho, rel=1e-12)


def test_global_argmax_pairs_top_vector_entries():
    net, B = random_general_net(51, N=5, L=2)
    t = triple_of(net)
    best = rank_insertions(t, net, top_k=1)[0]
    a = np.argmax(t.y)
    b = np.argmax(t.x)
    if a != b:  # separable product: argmax pair is (argmax y, argmax x)
        e = best.edge
        pos_y = 5 * (e.k - 1) + e.i - 1
        pos_x = 5 * (e.l - 1) + e.j - 1
        assert {pos_y, pos_x} == {a, b}
        assert best.score == pytest.approx(t.kappa * t.y[a] * t.x[b], rel=1e-10)


def test_top1_score_below_kappa(demo_net):
    t = triple_of(demo_net)
    best = rank_insertions(t, demo_net, top_k=1)[0]
    assert best.score < t.kappa


def test_insertions_match_brute_force_on_small_instances():
    for seed in range(6):
        net, B = random_general_net(seed + 60, N=3 + seed % 3, L=2)
        t = triple_of(net)
        rho, x, y = dense_perron_pair(B)
        for cand in ("all", "absent", "existing"):
            got = rank_insertions(t, net, top_k=6, candidate_set=cand)
            want = brute_insertion_ranking(rho, x, y, net, 6, cand)
            assert [quad(r.edge) for r in got] == [quad(e) for _, e in want]
            for r, (s, _) in zip(got, want):
                assert r.score == pytest.approx(s, rel=1e-8)


def test_insertions_match_brute_force_on_multiplex():
    for seed in (3, 4):
        net = random_multiplex_net(seed + 70, N=5, L=3, gamma=0.8,
                                   directed=bool(seed % 2))
        t = triple_of(net)
        from perronnet import assemble_dense
        rho, x, y = dense_perron_pair(assemble_dense(net))
        got = rank_insertions(t, net, top_k=5)
        want = brute_insertion_ranking(rho, x, y, net, 5)
        assert [quad(r.edge) for r in got] == [quad(e) for _, e in want]
        # multiplex candidates stay intra-layer
        assert all(r.edge.k == r.edge.l for r in got)


def test_absent_only_excludes_existing(demo_net):
    t = triple_of(demo_net)
    ranked = rank_insertions(t, demo_net, top_k=5, candidate_set="absent")
    for r in ranked:
        assert demo_net.weight(r.edge) == 0
        assert demo_net.weight(r.edge.reversed()) == 0
    # (2,4,3,2) exists, so the absent-only list must skip it
    assert (2, 4, 3, 2) not in [quad(r.edge) for r in ranked]


def test_recompute_reproduces_reference_rho(demo_net):
    t = triple_of(demo_net)
    ranked = rank_insertions(t, demo_net, top_k=4, eps=0.3, recompute=True)
    got = [r.rho_after for r in ranked]
    for val, expected in zip(got, (2.4903, 2.4592, 2.4593, 2.4627)):
        assert val == pytest.approx(expected, abs=1e-3)


def assert_matches_brute_force(net, t, top_k, cand, x=None, y=None):
    """rank_insertions equals the brute-force oracle, which reads the
    library's own vectors unless x and y are given."""
    x = t.x if x is None else x
    y = t.y if y is None else y
    got = rank_insertions(t, net, top_k=top_k, candidate_set=cand)
    want = brute_insertion_ranking(t.rho, x, y, net, top_k, cand)
    assert [quad(r.edge) for r in got] == [quad(e) for _, e in want]
    for r, (s, _) in zip(got, want):
        assert r.score == pytest.approx(s, rel=1e-8)
    return got


def test_insertions_match_brute_force_on_undirected_general_networks():
    for seed in range(40):
        net, B = undirected_general_net(seed + 900, N=4, L=2)
        t = triple_of(net)
        rho, x, y = dense_perron_pair(B)
        for cand in ("all", "absent", "existing"):
            got = assert_matches_brute_force(net, t, 6, cand, x, y)
            # each pair shown by its arc with a < b, from the lower layer
            assert all((r.edge.k, r.edge.i) < (r.edge.l, r.edge.j)
                       for r in got)


def counting_windows(monkeypatch):
    """Count the candidate windows rank_insertions scores."""
    calls = []
    strongest = recommend._strongest

    def counted(t, net, a, b, top_k):
        calls.append(a.size)
        return strongest(t, net, a, b, top_k)

    monkeypatch.setattr(recommend, "_strongest", counted)
    return calls


def test_absent_window_grows_past_an_adjacent_core(monkeypatch):
    # a complete core on the first 12 positions, a weak ring through all:
    # the top entries of y and x all lie in the core, joined to each other
    n = 24
    B = np.zeros((n, n))
    B[:12, :12] = 1.0 - np.eye(12)
    B[np.arange(n), (np.arange(n) + 1) % n] += 0.05
    calls = counting_windows(monkeypatch)
    for directed in (True, False):
        net = multilayer_from_dense(B if directed else B + B.T, N=12, L=2,
                                    directed=directed)
        t = triple_of(net)
        calls.clear()
        assert_matches_brute_force(net, t, 2, "absent")
        assert len(calls) >= 3
    # per layer: a complete core on the first 8 nodes of layer 1
    path = np.eye(12, k=1) + np.eye(12, k=-1)
    core = np.zeros((12, 12))
    core[:8, :8] = 1.0 - np.eye(8)
    net = multiplex_from_layers([core + 0.05 * path, 0.05 * path], gamma=0.01)
    t = triple_of(net)
    calls.clear()
    assert_matches_brute_force(net, t, 3, "absent")
    assert len(calls) >= 3


def test_window_bound_counts_the_top_of_y_beyond_the_x_window():
    # out-degree 3 everywhere makes x uniform; every position points to
    # the last one, the top of y, whose own arcs take the top of x, so the
    # best absent pairs run from it to positions outside the x window
    for seed in (0, 1, 2, 4):
        rng = np.random.default_rng(seed)
        B = np.zeros((12, 12))
        B[:11, 11] = B[11, :3] = 1.0
        for a in range(11):
            B[a, rng.choice(np.delete(np.arange(11), a), 2,
                            replace=False)] = 1.0
        net = multilayer_from_dense(B, N=6, L=2, directed=True)
        t = triple_of(net)
        assert np.all(t.x == t.x[0]) and np.argmax(t.y) == 11
        for top_k in (1, 2, 3, 5):
            for cand in ("all", "absent"):
                assert_matches_brute_force(net, t, top_k, cand)


def test_all_tie_ring_multiplex_reaches_the_full_window(monkeypatch):
    ring = np.roll(np.eye(12), 1, axis=1)
    net = multiplex_from_layers([ring + ring.T] * 4, gamma=1.0)
    t = triple_of(net)
    assert np.all(t.x == t.x[0])  # every score ties
    calls = counting_windows(monkeypatch)
    for cand in ("all", "absent", "existing"):
        calls.clear()
        assert_matches_brute_force(net, t, 5, cand)
        if cand == "all":  # the last window held every arc of every layer
            assert calls[-1] == 4 * 12 * 12


def test_top_k_above_the_admissible_pairs_returns_every_pair():
    nets = [random_general_net(95, N=3, L=2)[0],
            undirected_general_net(96, N=3, L=2)[0],
            random_multiplex_net(97, N=3, L=2, gamma=0.5, directed=True),
            random_multiplex_net(98, N=3, L=2, gamma=0.5)]
    for net in nets:
        t = triple_of(net)
        pairs = net.L * 3 if net.multiplex else 15
        for cand in ("all", "absent", "existing"):
            got = assert_matches_brute_force(net, t, 50, cand)
            if cand == "all":
                assert len(got) == pairs


def test_leading_entries_follow_the_stable_sort():
    # few distinct values, -0.0 beside 0.0: ties at every cut
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0], size=(3, 17))
        full = np.argsort(v, axis=1, kind="stable")
        for count in range(1, 19):
            assert np.array_equal(recommend._leading(v, count),
                                  full[:, :count])


def tied_triple(net, seed):
    """A triple of ``net`` whose x and y, not its Perron vectors, take
    three values: every window of the insertion ranking cuts a run of
    tied entries.  On undirected input y is x."""
    rng = np.random.default_rng(seed)

    def vector():
        v = rng.choice([1.0, 2.0, 3.0], size=net.dim)
        return v / np.linalg.norm(v)

    x = vector()
    y = vector() if net.directed else x
    return PerronTriple(rho=1.0, x=x, y=y, kappa=condition_of(x, y),
                        residuals=(0.0, 0.0), iterations=0)


def test_windows_cut_through_tied_entries_as_brute_force():
    nets = [random_multiplex_net(40, N=9, L=3, gamma=1.0, density=0.3),
            random_multiplex_net(41, N=9, L=2, gamma=1.0, density=0.3,
                                 directed=True),
            random_general_net(42, N=7, L=2, density=0.2)[0],
            undirected_general_net(43, N=7, L=2)[0]]
    for n, net in enumerate(nets):
        for seed in range(4):
            t = tied_triple(net, 10 * n + seed)
            for top_k in (1, 2, 3, 5):
                for cand in ("all", "absent"):
                    assert_matches_brute_force(net, t, top_k, cand)


# ---------------------------------------------------------------------------
# removals

def test_demo_removal_candidates(demo_net):
    t = triple_of(demo_net)
    ranked = rank_removals(t, demo_net, top_k=6)
    scores = [r.score for r in ranked]
    assert scores == sorted(scores)
    quads = [quad(r.edge) for r in ranked]
    assert (1, 2, 2, 1) in quads
    by_quad = {quad(r.edge): r.score for r in ranked}
    assert by_quad[(1, 2, 2, 1)] == pytest.approx(0.0073, abs=5e-5)


def test_removals_match_brute_force():
    for seed in range(5):
        net, B = random_general_net(seed + 80, N=4, L=2)
        t = triple_of(net)
        rho, x, y = dense_perron_pair(B)
        got = rank_removals(t, net, top_k=8)
        want = brute_removal_ranking(rho, x, y, net, 8)
        assert [quad(r.edge) for r in got] == [quad(e) for _, e in want]
    und = random_multiplex_net(91, N=6, L=2, gamma=0.5, directed=False)
    t = triple_of(und)
    from perronnet import assemble_dense
    rho, x, y = dense_perron_pair(assemble_dense(und))
    got = rank_removals(t, und, top_k=8)
    want = brute_removal_ranking(rho, x, y, und, 8)
    assert [quad(r.edge) for r in got] == [quad(e) for _, e in want]


def test_removals_require_connected_keeps_only_connected(demo_net):
    t = triple_of(demo_net)
    ranked = rank_removals(t, demo_net, top_k=4, require_connected=True,
                           recompute=True)
    assert len(ranked) == 4
    for r in ranked:
        assert r.connected_after is True
        assert r.rho_after is not None
        assert r.rho_after <= t.rho + 1e-12


def test_single_edge_cycle_has_no_feasible_removal():
    net = multiplex_from_layers([[[0, 1], [1, 0]]], gamma=0.0)
    t = triple_of(net)
    with pytest.raises(InfeasibleError):
        rank_removals(t, net, top_k=1, require_connected=True)


def test_removals_never_touch_multiplex_coupling():
    net = random_multiplex_net(92, N=4, L=3, gamma=1.0)
    t = triple_of(net)
    ranked = rank_removals(t, net, top_k=10)
    assert all(r.edge.k == r.edge.l for r in ranked)


def test_empty_network_removal_is_infeasible():
    net = multiplex_from_layers([np.zeros((2, 2)), np.zeros((2, 2))], gamma=1.0)
    t = triple_of(net)
    with pytest.raises(InfeasibleError):
        rank_removals(t, net, top_k=1)


def full_removal_scan(t, net, top_k, require_connected):
    """Removal rows (edge, score, connected_after) of a scan over every
    removable arc in ``_tie_order``, each connectivity checked on the
    network ``apply_update`` makes."""
    from perronnet.model import apply_update, is_strongly_connected
    from perronnet.sensitivity import arc_sensitivity
    a, b = recommend._removable_arcs(net)
    score = arc_sensitivity(t, a, b)
    rows = []
    for p in recommend._tie_order(a, b, net, score):
        if len(rows) == top_k:
            break
        e = EdgeKey.at(a[p], b[p], net.N)
        connected = None
        if require_connected:
            update = recommend._edits(net, e, "remove")
            connected = is_strongly_connected(apply_update(net, update))
            if not connected:
                continue
        rows.append((e, float(score[p]), connected))
    return rows


def counting_removal_windows(monkeypatch):
    sizes, original = [], recommend._lowest

    def counted(score, m):
        window = original(score, m)
        sizes.append(window.size)
        return window

    monkeypatch.setattr(recommend, "_lowest", counted)
    return sizes


def test_removal_windows_give_the_full_scan(monkeypatch):
    ring = np.roll(np.eye(12), 1, axis=1)
    ties = multiplex_from_layers([ring + ring.T] * 4, gamma=1.0)
    rng = np.random.default_rng(62)
    B = np.roll(np.eye(30), 1, axis=1) * rng.uniform(0.5, 1.5, (30, 30))
    for a, b in rng.integers(0, 30, size=(8, 2)):
        B[a, b] = rng.uniform(0.5, 1.5)
    np.fill_diagonal(B, 0.0)
    chords = multilayer_from_dense(B, 15, 2)  # only chords keep it connected
    sizes = counting_removal_windows(monkeypatch)
    grown = 0
    for net in (ties, chords):
        t = triple_of(net)
        for top_k in (1, 3, 5, 40):
            for require_connected in (False, True):
                sizes.clear()
                got = rank_removals(t, net, top_k,
                                    require_connected=require_connected)
                assert ([(r.edge, r.score, r.connected_after) for r in got]
                        == full_removal_scan(t, net, top_k, require_connected))
                grown += len(sizes) > 1
                if net is ties:  # every score ties: one window of every arc
                    assert sizes == [4 * 12]
    assert grown >= 3


# ---------------------------------------------------------------------------
# experiments

def test_experiment_increase_reproduces_reference_table(demo_net):
    edges = [EdgeKey(2, 4, 3, 2), EdgeKey(4, 3, 2, 3),
             EdgeKey(2, 3, 3, 3), EdgeKey(3, 4, 2, 2)]
    rows = perturbation_experiment(demo_net, edges, eps=0.3, mode="increase",
                                   seed=42)
    got = [r.rho_new for r in rows]
    for val, expected in zip(got, (2.4903, 2.4592, 2.4593, 2.4627)):
        assert val == pytest.approx(expected, abs=1e-3)
    for r in rows:
        assert r.error is None
        assert r.rho_new >= r.score * 0  # defined
        assert r.baseline_edge is not None
        assert r.baseline_rho_new is not None


def test_experiment_increase_monotone(demo_net):
    t = triple_of(demo_net)
    rows = perturbation_experiment(demo_net, [EdgeKey(1, 2, 1, 1)], eps=0.4,
                                   mode="increase")
    assert rows[0].rho_new >= t.rho


def test_experiment_decrease_and_remove_monotone(demo_net):
    t = triple_of(demo_net)
    dec = perturbation_experiment(demo_net, [EdgeKey(1, 2, 1, 1)], eps=0.3,
                                  mode="decrease")
    assert dec[0].rho_new <= t.rho
    rem = perturbation_experiment(demo_net, [EdgeKey(1, 4, 1, 1)], eps=0.3,
                                  mode="remove", mirror=False)
    assert rem[0].rho_new == pytest.approx(2.3270, abs=1e-3)


def test_experiment_single_arc_decrease_matches_reference_row(demo_net):
    rows = perturbation_experiment(demo_net, [EdgeKey(1, 4, 1, 1)], eps=0.3,
                                   mode="decrease", mirror=False)
    assert rows[0].rho_new == pytest.approx(2.3397, abs=1e-3)
    mirrored = perturbation_experiment(demo_net, [EdgeKey(1, 4, 1, 1)],
                                       eps=0.3, mode="decrease", mirror=True)
    assert mirrored[0].rho_new == pytest.approx(2.3297, abs=1e-3)


def test_experiment_flags_bad_rows_without_aborting(demo_net):
    rows = perturbation_experiment(
        demo_net,
        [EdgeKey(4, 3, 2, 3),   # absent edge: cannot decrease
         EdgeKey(1, 2, 1, 1)],  # fine
        eps=0.3, mode="decrease")
    assert rows[0].rho_new is None and "not exist" in rows[0].error
    assert rows[1].rho_new is not None and rows[1].error is None


def test_experiment_decrease_eps_must_be_below_weight(demo_net):
    rows = perturbation_experiment(demo_net, [EdgeKey(1, 2, 1, 1)], eps=1.0,
                                   mode="decrease")
    assert rows[0].rho_new is None
    assert "not below weight" in rows[0].error


def test_experiment_baselines_are_seed_deterministic(demo_net):
    edges = [EdgeKey(2, 4, 3, 2), EdgeKey(4, 3, 2, 3)]
    a = perturbation_experiment(demo_net, edges, 0.3, "increase", seed=42)
    b = perturbation_experiment(demo_net, edges, 0.3, "increase", seed=42)
    c = perturbation_experiment(demo_net, edges, 0.3, "increase", seed=7)
    assert [r.baseline_edge for r in a] == [r.baseline_edge for r in b]
    assert [r.baseline_rho_new for r in a] == [r.baseline_rho_new for r in b]
    assert ([r.baseline_edge for r in a] != [r.baseline_edge for r in c]
            or [quad(r.baseline_edge) for r in a]
            == [quad(r.baseline_edge) for r in c])


def test_experiment_baselines_come_from_candidate_pool(demo_net):
    rows = perturbation_experiment(demo_net, [EdgeKey(1, 2, 1, 1)], eps=0.3,
                                   mode="decrease", seed=3)
    b = rows[0].baseline_edge
    assert demo_net.weight(b) > 0 or demo_net.weight(b.reversed()) > 0


def test_experiment_validates_mode_and_eps(demo_net):
    from perronnet import InputError
    with pytest.raises(InputError):
        perturbation_experiment(demo_net, [], eps=0.0, mode="increase")
    with pytest.raises(InputError):
        perturbation_experiment(demo_net, [], eps=0.3, mode="sideways")


@pytest.mark.parametrize("eps", [np.inf, np.nan, 0.0, -0.5])
def test_both_re_solving_entry_points_refuse_a_bad_eps(demo_net, eps):
    # a negative eps would put a negative entry into B + E_j, where the
    # Collatz-Wielandt bracket does not hold; an infinite one an infinite
    # root.  A ranking without re-solves does not read eps
    from perronnet import InputError
    t = triple_of(demo_net)
    want = f"eps must be finite and positive, got {eps}"
    with pytest.raises(InputError, match=f"^{want}$"):
        rank_insertions(t, demo_net, 3, eps=eps, recompute=True)
    with pytest.raises(InputError, match=f"^{want}$"):
        perturbation_experiment(demo_net, [EdgeKey(1, 2, 1, 1)], eps,
                                "increase", triple=t)
    assert (rank_insertions(t, demo_net, 3, eps=eps)
            == rank_insertions(t, demo_net, 3))


def test_experiment_reuses_a_given_triple(demo_net):
    t = triple_of(demo_net, tol=1e-10)
    edges = [EdgeKey(1, 2, 1, 1), EdgeKey(2, 4, 3, 2)]
    for mode in ("increase", "remove"):
        solved = perturbation_experiment(demo_net, edges, 0.3, mode)
        given = perturbation_experiment(demo_net, edges, 0.3, mode, triple=t)
        assert given == solved


@pytest.mark.parametrize("directed", [True, False])
def test_experiment_solves_an_undirected_base_as_symmetric(monkeypatch,
                                                          directed):
    net = random_multiplex_net(17, N=6, L=2, directed=directed)
    flags = []
    solve = recommend.perron
    monkeypatch.setattr(recommend, "perron", lambda op, **kw: (
        flags.append(op.symmetric) or solve(op, **kw)))
    edge = next(net.edges())[0]
    perturbation_experiment(net, [edge], 0.3, "increase", baseline_count=0)
    assert flags[0] == (not directed)  # the base solve comes first


def test_experiment_baseline_count_zero(demo_net):
    rows = perturbation_experiment(demo_net, [EdgeKey(1, 2, 1, 1)], eps=0.3,
                                   mode="increase", baseline_count=0)
    assert rows[0].baseline_edge is None
    assert rows[0].baseline_rho_new is None


def test_multiplex_increase_baselines_are_seeded_intra_layer_pairs():
    net = random_multiplex_net(23, N=8, L=3, gamma=1.0)
    t = triple_of(net)
    edges = [r.edge for r in rank_insertions(t, net, 6)]
    rows = perturbation_experiment(net, edges, 0.3, "increase", seed=42)
    drawn = [r.baseline_edge for r in rows]
    assert len(drawn) == len(edges)
    assert all(e.k == e.l and e.i < e.j for e in drawn), drawn
    assert len({e.pair_key() for e in drawn}) == len(drawn)
    assert perturbation_experiment(net, edges, 0.3, "increase",
                                   seed=42) == rows
    for r in rows:
        assert r.baseline_error is None and r.baseline_rho_new >= t.rho
        raised = assemble_dense(apply_edge_delta(net, r.baseline_edge, 0.3))
        oracle = perron_dense_oracle(raised).rho
        assert abs(r.baseline_rho_new - oracle) <= DEFAULT_TOL * oracle


def test_a_failed_re_solve_of_a_ranked_row_raises():
    # removing an arc of a directed cycle leaves a nilpotent operator, whose
    # Perron vectors are orthogonal
    ring = multilayer_from_dense(np.roll(np.eye(4), 1, axis=1), 4, 1)
    with pytest.raises(ConvergenceError, match="orthogonal"):
        rank_removals(triple_of(ring), ring, 1, recompute=True)


def test_rankings_refuse_a_bad_request(demo_net):
    t = triple_of(demo_net)
    for rank in (rank_insertions, rank_removals):
        with pytest.raises(InputError, match="top_k must be >= 1"):
            rank(t, demo_net, 0)
    with pytest.raises(InputError, match="candidate_set must be"):
        rank_insertions(t, demo_net, 3, candidate_set="x")
