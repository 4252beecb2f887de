"""Edge ranking, feasibility scanning, and the experiment harness."""

import numpy as np
import pytest

from perronnet import (EdgeKey, InfeasibleError, perron,
                       perturbation_experiment, rank_insertions,
                       rank_removals, supra_operator)

from conftest import (brute_insertion_ranking, brute_removal_ranking,
                      dense_perron_pair, multiplex_from_layers,
                      random_general_net, random_multiplex_net)


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


def test_experiment_reuses_a_given_triple(demo_net):
    t = triple_of(demo_net, tol=1e-10)
    edges = [EdgeKey(1, 2, 1, 1), EdgeKey(2, 4, 3, 2)]
    for mode in ("increase", "remove"):
        solved = perturbation_experiment(demo_net, edges, 0.3, mode)
        given = perturbation_experiment(demo_net, edges, 0.3, mode, triple=t)
        assert given == solved


def test_experiment_baseline_count_zero(demo_net):
    rows = perturbation_experiment(demo_net, [EdgeKey(1, 2, 1, 1)], eps=0.3,
                                   mode="increase", baseline_count=0)
    assert rows[0].baseline_edge is None
    assert rows[0].baseline_rho_new is None
