"""Acceptance suite: one test per criterion, printing a PASS line each.

Criteria 2-4 need externally fetched datasets (see README); they skip
when $PERRON_DATA_DIR does not provide the converted edge lists.
"""

import time

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

from perronnet import (EdgeKey, apply_edge_delta, assemble_dense, exp0,
                       is_strongly_connected, load_demo_network,
                       load_multilayer, load_multiplex, perron,
                       perron_communicability, perturbation_experiment,
                       rank_insertions, rank_removals, sensitivity_entry,
                       sensitivity_matrix, sensitivity_matrix_multiplex,
                       structured_condition_number,
                       structured_sensitivity_matrix, structured_wilkinson,
                       supra_operator, wilkinson)
from perronnet.cli import main as cli_main

from conftest import (AIRLINES_FILE, GENERAL160_FILE, SCOTLAND_FILE,
                      brute_insertion_ranking, brute_removal_ranking,
                      dense_perron_pair, dense_rho, dataset_path,
                      needs_dataset, random_general_net, random_multiplex_net)

_t5_elapsed = {}


def _passed(tag, detail):
    print(f"ACCEPTANCE {tag} PASS - {detail}")


def uniform_perturbation(n):
    """The all-ones matrix over n, of unit Frobenius norm, matrix-free."""
    def mv(v):
        return np.full(n, np.sum(v) / n)
    return LinearOperator((n, n), matvec=mv, rmatvec=mv, dtype=float)


def _timed(key):
    # CPU time of this thread, so that waiting for a core on a loaded host
    # does not count; not process_time(), which would also count OpenBLAS
    # helper threads busy-waiting for work.  With OPENBLAS_NUM_THREADS=1,
    # as CI runs it, this thread does all the BLAS work and never spins
    class _Ctx:
        def __enter__(self):
            self.t0 = time.thread_time()
            return self

        def __exit__(self, *exc):
            _t5_elapsed[key] = time.thread_time() - self.t0
    return _Ctx()


# ---------------------------------------------------------------------------
# criterion 1: bundled 12-node demo network golden numbers

def test_c1_demo_golden_numbers():
    t0 = time.perf_counter()
    net = load_demo_network()
    op = supra_operator(net)
    t = perron(op)
    assert t.rho == pytest.approx(2.3471, abs=5e-5)
    assert t.kappa == pytest.approx(1.0248, abs=5e-5)

    # worst-case rank-one perturbation
    shifted = perron(op + 0.3 * wilkinson(t))
    assert shifted.rho == pytest.approx(2.6512, abs=1e-3)

    # uniform (all-ones, unit Frobenius) perturbation
    uniform = uniform_perturbation(net.dim)
    rho_uniform = perron(op + 0.3 * uniform).rho
    assert rho_uniform - t.rho == pytest.approx(0.2561, abs=1e-3)

    # top-4 insertion table: scores and exactly re-solved roots
    ranked = rank_insertions(t, net, top_k=4, eps=0.3, recompute=True)
    assert [(r.edge.i, r.edge.j, r.edge.k, r.edge.l) for r in ranked] == [
        (2, 4, 3, 2), (4, 3, 2, 3), (2, 3, 3, 3), (3, 4, 2, 2)]
    for r, score, rho_new in zip(ranked,
                                 (0.2241, 0.1725, 0.1717, 0.1694),
                                 (2.4903, 2.4592, 2.4593, 2.4627)):
        assert r.score == pytest.approx(score, abs=1e-3)
        assert r.rho_after == pytest.approx(rho_new, abs=1e-3)

    # bottom-4 weight-decrease table; the 1-4 bond in layer 1 is stored as
    # two individual arcs, so its row perturbs a single arc
    decrease_rows = [
        (EdgeKey(1, 2, 2, 1), True, 0.0073, 2.3439),
        (EdgeKey(3, 4, 3, 3), True, 0.0211, 2.3407),
        (EdgeKey(1, 4, 1, 1), False, 0.0271, 2.3397),
        (EdgeKey(1, 2, 1, 1), True, 0.0331, 2.3332),
    ]
    for e, mirror, score, rho_new in decrease_rows:
        assert sensitivity_entry(t, e, net.N) == pytest.approx(score, abs=1e-3)
        row = perturbation_experiment(net, [e], eps=0.3, mode="decrease",
                                      mirror=mirror, baseline_count=0)[0]
        assert row.error is None
        assert row.rho_new == pytest.approx(rho_new, abs=1e-3)

    # removing the lowest-impact arc keeps the graph strongly connected
    removed = apply_edge_delta(net, EdgeKey(1, 4, 1, 1), -1.0)
    assert is_strongly_connected(removed)
    assert perron(supra_operator(removed)).rho == pytest.approx(2.3270,
                                                                abs=1e-3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed("1", f"demo golden numbers reproduced in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: ScotlandYard transport multiplex (manual dataset)

@needs_dataset(SCOTLAND_FILE)
def test_c2_scotland_yard():
    t0 = time.perf_counter()
    net = load_multiplex(dataset_path(SCOTLAND_FILE), gamma=1.0,
                         directed=False)
    assert (net.N, net.L) == (199, 4)
    t = perron(supra_operator(net))
    assert t.rho == pytest.approx(17.6055, abs=1e-3)
    assert t.kappa == pytest.approx(1.0, abs=1e-8)

    assert sensitivity_entry(t, EdgeKey(89, 67, 2, 2), net.N) == \
        pytest.approx(0.2407, abs=1e-3)
    e_max, _ = structured_sensitivity_matrix(t, net).argmax_entry()
    assert {e_max.i, e_max.j} == {89, 67} and e_max.k == 2
    assert sensitivity_entry(t, EdgeKey(162, 162, 1, 3), net.N) < 1e-10

    increase_rows = [
        (EdgeKey(89, 67, 2, 2), 0.2407, 17.7513),
        (EdgeKey(89, 13, 2, 2), 0.2041, 17.7299),
        (EdgeKey(67, 13, 2, 2), 0.1821, 17.7161),
        (EdgeKey(67, 111, 2, 2), 0.1315, 17.6861),
        (EdgeKey(89, 140, 2, 2), 0.1309, 17.6858),
    ]
    got = perturbation_experiment(net, [e for e, _, _ in increase_rows],
                                  eps=0.3, mode="increase", baseline_count=0)
    for row, (e, score, rho_new) in zip(got, increase_rows):
        assert row.score == pytest.approx(score, abs=1e-3)
        assert row.rho_new == pytest.approx(rho_new, abs=1e-3)

    removal_rows = [EdgeKey(175, 162, 4, 4), EdgeKey(7, 6, 4, 4),
                    EdgeKey(30, 17, 4, 4), EdgeKey(17, 7, 4, 4)]
    got = perturbation_experiment(net, removal_rows, eps=0.3, mode="remove",
                                  baseline_count=0)
    for row in got:
        assert row.score < 1e-9
        assert row.rho_new == pytest.approx(17.6055, abs=1e-3)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed("2", f"ScotlandYard reproduced in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: European airlines multiplex (manual dataset)

@needs_dataset(AIRLINES_FILE)
def test_c3_european_airlines():
    t0 = time.perf_counter()
    net = load_multiplex(dataset_path(AIRLINES_FILE), gamma=1.0,
                         directed=False)
    assert (net.N, net.L) == (417, 37)
    op = supra_operator(net)
    t = perron(op)
    assert t.rho == pytest.approx(38.3714, abs=1e-3)
    assert t.kappa == pytest.approx(1.0, abs=1e-8)

    assert sensitivity_entry(t, EdgeKey(2, 38, 1, 1), net.N) == \
        pytest.approx(0.0040, abs=5e-4)
    assert sensitivity_entry(t, EdgeKey(2, 157, 1, 1), net.N) == \
        pytest.approx(0.0034, abs=5e-4)

    increase_rows = [
        (EdgeKey(2, 38, 1, 1), 38.3738),
        (EdgeKey(2, 157, 1, 1), 38.3734),
        (EdgeKey(157, 38, 1, 1), 38.3734),
        (EdgeKey(50, 2, 1, 1), 38.3730),
        (EdgeKey(50, 38, 1, 1), 38.3729),
    ]
    got = perturbation_experiment(net, [e for e, _ in increase_rows],
                                  eps=0.3, mode="increase", baseline_count=0)
    for row, (e, rho_new) in zip(got, increase_rows):
        assert row.rho_new == pytest.approx(rho_new, abs=1e-3)

    removal_rows = [EdgeKey(350, 316, 35, 35), EdgeKey(202, 144, 35, 35),
                    EdgeKey(316, 144, 35, 35), EdgeKey(202, 270, 35, 35),
                    EdgeKey(350, 144, 35, 35)]
    got = perturbation_experiment(net, removal_rows, eps=0.3, mode="remove",
                                  baseline_count=0)
    for row in got:
        assert row.rho_new == pytest.approx(38.3714, abs=1e-3)

    # uniform perturbation, applied matrix-free (dense cap stays honored)
    uniform = uniform_perturbation(net.dim)
    rho_uniform = perron(op + 0.3 * uniform, x0=t.x, y0=t.y).rho
    assert rho_uniform - t.rho == pytest.approx(0.091, abs=2e-3)

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed("3", f"European airlines reproduced in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: 160-node general multilayer network (manual dataset)

@needs_dataset(GENERAL160_FILE)
def test_c4_general_multilayer_160():
    net = load_multilayer(dataset_path(GENERAL160_FILE), directed=True)
    assert (net.N, net.L) == (160, 6)
    op = supra_operator(net)
    t = perron(op)
    assert t.rho == pytest.approx(8.1324, abs=1e-3)
    assert t.kappa == pytest.approx(1.3277, abs=1e-3)

    shifted = perron(op + 0.3 * wilkinson(t))
    assert shifted.rho - t.rho == pytest.approx(0.3990, abs=1e-3)

    assert sensitivity_entry(t, EdgeKey(6, 24, 1, 1), net.N) == \
        pytest.approx(0.3389, abs=1e-3)
    bumped = apply_edge_delta(net, EdgeKey(6, 24, 1, 1), 0.3)
    assert perron(supra_operator(bumped)).rho - t.rho == pytest.approx(
        0.0998, abs=1e-3)
    _passed("4", "160-node general multilayer reproduced")


# ---------------------------------------------------------------------------
# criterion 5: dataset-free property suites (< 5 s total)

def _instance_dims():
    # 50 shapes, NL from 6 up to 200
    dims = [(3, 2), (4, 2), (5, 2), (4, 3), (7, 2), (5, 3), (8, 2), (6, 3),
            (10, 2), (7, 3), (12, 2), (9, 3), (8, 4), (20, 2), (15, 3),
            (25, 2), (20, 3), (40, 2), (30, 3), (50, 2), (25, 4), (66, 3),
            (100, 2), (50, 4), (40, 5)]
    return dims * 2  # 50 instances


def test_c5a_oracle_equivalence_iterative_vs_dense():
    with _timed("5a"):
        count = 0
        for seed, (N, L) in enumerate(_instance_dims()):
            net, B = random_general_net(seed, N, L,
                                        density=0.25 + 0.02 * (seed % 5))
            t = perron(supra_operator(net))
            rho, x, y = dense_perron_pair(B)
            assert t.rho == pytest.approx(rho, rel=1e-8)
            assert np.abs(t.x - x).max() < 1e-6
            assert np.abs(t.y - y).max() < 1e-6
            count += 1
        assert count >= 50
    _passed("5a", f"iterative/dense oracle agreement on {count} instances "
                  f"({_t5_elapsed['5a']:.2f}s)")


def _multiplex_corpus():
    nets = []
    for seed in range(50):
        N = 3 + seed % 9
        L = 1 + seed % 4
        gamma = (0.25, 0.6, 1.0)[seed % 3] if L > 1 else 0.0
        directed = bool(seed % 2)
        nets.append(random_multiplex_net(seed + 500, N, L,
                                         gamma=max(gamma, 0.25) if L > 1 else 0.0,
                                         density=0.3, directed=directed))
    return nets


def test_c5b_structured_norm_identities():
    with _timed("5b"):
        count = 0
        for net in _multiplex_corpus():
            t = perron(supra_operator(net))
            S_full = sensitivity_matrix(t, net.N, net.L)
            S_D = sensitivity_matrix_multiplex(t, net)
            S_S = structured_sensitivity_matrix(t, net)
            kD = structured_condition_number(t, "D", net)
            kS = structured_condition_number(t, "S", net)
            assert S_full.frobenius_norm() == pytest.approx(t.kappa, rel=1e-10)
            assert S_D.frobenius_norm() == pytest.approx(t.kappa * kD / t.kappa,
                                                         rel=1e-10)
            assert S_D.frobenius_norm() == pytest.approx(kD, rel=1e-10)
            assert S_S.frobenius_norm() == pytest.approx(kS, rel=1e-10)
            assert kS <= kD * (1 + 1e-12)
            assert kD <= t.kappa * (1 + 1e-12)
            count += 1
        assert count >= 50
    _passed("5b", f"norm identities and cone chain on {count} multiplexes "
                  f"({_t5_elapsed['5b']:.2f}s)")


def test_c5c_communicability_identity_and_bounds():
    with _timed("5c"):
        nets = _multiplex_corpus()
        nets.append(load_demo_network())
        for seed in range(10):
            nets.append(random_general_net(seed + 900, 4 + seed % 4, 2)[0])
        for net in nets:
            t = perron(supra_operator(net))
            rep = perron_communicability(t, net.N, net.L)
            marginal = exp0(t.rho) * float(rep.c_Y.sum()) * float(rep.c_X.sum())
            assert rep.c_pn == pytest.approx(marginal, rel=1e-10)
            assert rep.lower <= rep.c_pn * (1 + 1e-12)
            assert rep.c_pn <= rep.upper_cos * (1 + 1e-12)
            assert rep.upper_cos <= rep.upper_basic * (1 + 1e-12)
    _passed("5c", f"communicability identity and bound chain on {len(nets)} "
                  f"instances ({_t5_elapsed['5c']:.2f}s)")


def test_c5d_finite_difference_slope():
    with _timed("5d"):
        # general directed instance: worst-case and random directions
        net, B = random_general_net(31, N=4, L=2, density=0.45)
        t = perron(supra_operator(net), tol=1e-12)
        rho0 = dense_rho(B)
        rng = np.random.default_rng(5)
        R = rng.random(B.shape)
        cases = {"worst-case": wilkinson(t).toarray(),
                 "random": R / np.linalg.norm(R, "fro")}
        for name, E in cases.items():
            slope = float(t.y @ E @ t.x) / float(t.y @ t.x)
            e1 = abs(dense_rho(B + 1e-3 * E) - rho0 - 1e-3 * slope)
            e2 = abs(dense_rho(B + 5e-4 * E) - rho0 - 5e-4 * slope)
            assert e2 > 0
            assert 3.0 <= e1 / e2 <= 5.0, (name, e1 / e2)
        # structured worst-case on a directed multiplex
        mnet = random_multiplex_net(17, N=5, L=2, gamma=0.9, directed=True)
        mt = perron(supra_operator(mnet), tol=1e-12)
        MB = assemble_dense(mnet)
        mrho0 = dense_rho(MB)
        E = structured_wilkinson(mt, "D", mnet).toarray()
        slope = float(mt.y @ E @ mt.x) / float(mt.y @ mt.x)
        e1 = abs(dense_rho(MB + 1e-3 * E) - mrho0 - 1e-3 * slope)
        e2 = abs(dense_rho(MB + 5e-4 * E) - mrho0 - 5e-4 * slope)
        assert e2 > 0
        assert 3.0 <= e1 / e2 <= 5.0, ("structured", e1 / e2)
    _passed("5d", f"first-order error halves quadratically for all "
                  f"perturbation families ({_t5_elapsed['5d']:.2f}s)")


def test_c5e_wilkinson_optimality_random_search():
    with _timed("5e"):
        net = load_demo_network()
        t = perron(supra_operator(net))
        denom = float(t.y @ t.x)
        rng = np.random.default_rng(12345)
        worst = 0.0
        for _ in range(1000):
            E = rng.random((net.dim, net.dim))
            E /= np.linalg.norm(E, "fro")
            worst = max(worst, float(t.y @ E @ t.x) / denom)
        assert worst < t.kappa
    _passed("5e", f"no random direction beats the worst-case bound "
                  f"(max {worst:.4f} < kappa {t.kappa:.4f}, "
                  f"{_t5_elapsed['5e']:.2f}s)")


def test_c5f_brute_force_ranking_equivalence():
    with _timed("5f"):
        checked = 0
        for seed in range(4):
            net, B = random_general_net(seed + 700, N=4 + seed, L=2)
            assert net.dim <= 60
            t = perron(supra_operator(net))
            rho, x, y = dense_perron_pair(B)
            for cand in ("all", "absent", "existing"):
                got = rank_insertions(t, net, top_k=6, candidate_set=cand)
                want = brute_insertion_ranking(rho, x, y, net, 6, cand)
                assert ([(r.edge.i, r.edge.j, r.edge.k, r.edge.l)
                         for r in got]
                        == [(e.i, e.j, e.k, e.l) for _, e in want])
            got = rank_removals(t, net, top_k=8)
            want = brute_removal_ranking(rho, x, y, net, 8)
            assert ([(r.edge.i, r.edge.j, r.edge.k, r.edge.l) for r in got]
                    == [(e.i, e.j, e.k, e.l) for _, e in want])
            checked += 1
        for seed in (2, 3):
            net = random_multiplex_net(seed + 800, N=5, L=2, gamma=0.7,
                                       directed=bool(seed % 2))
            t = perron(supra_operator(net))
            rho, x, y = dense_perron_pair(assemble_dense(net))
            got = rank_insertions(t, net, top_k=5)
            want = brute_insertion_ranking(rho, x, y, net, 5)
            assert ([(r.edge.i, r.edge.j, r.edge.k, r.edge.l) for r in got]
                    == [(e.i, e.j, e.k, e.l) for _, e in want])
            checked += 1
    _passed("5f", f"lazy rankings equal brute force on {checked} instances "
                  f"({_t5_elapsed['5f']:.2f}s)")


@pytest.fixture(scope="module")
def t5_elapsed():
    """The times of the six criterion-5 suites: each suite this module's
    run has not timed yet, as when the budget test runs alone, is run and
    timed here."""
    suites = {"5a": test_c5a_oracle_equivalence_iterative_vs_dense,
              "5b": test_c5b_structured_norm_identities,
              "5c": test_c5c_communicability_identity_and_bounds,
              "5d": test_c5d_finite_difference_slope,
              "5e": test_c5e_wilkinson_optimality_random_search,
              "5f": test_c5f_brute_force_ranking_equivalence}
    for key, suite in suites.items():
        if key not in _t5_elapsed:
            suite()
    return _t5_elapsed


def test_c5_total_runtime_budget(t5_elapsed):
    total = sum(t5_elapsed.values())
    assert set(t5_elapsed) == {"5a", "5b", "5c", "5d", "5e", "5f"}
    assert total < 5.0
    _passed("5", f"property suites total {total:.2f}s < 5s")


# ---------------------------------------------------------------------------
# criterion 6: CLI determinism

def test_c6_cli_determinism(capsys, tmp_path):
    from perronnet import demo_network_path
    demo = str(demo_network_path())

    def capture(args):
        code = cli_main(args)
        out = capsys.readouterr().out
        assert code == 0
        return out

    for args in (
        ["spectrum", demo, "--directed", "--format", "json"],
        ["spectrum", demo, "--directed", "--format", "csv"],
        ["rank", "add", demo, "--directed", "--top-k", "4", "--recompute",
         "--format", "csv"],
        ["experiment", demo, "--directed", "--auto", "--top-k", "3",
         "--mode", "increase", "--seed", "42", "--format", "json"],
    ):
        first = capture(args)
        second = capture(args)
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")
    _passed("6", "identical invocations produce byte-identical outputs")
