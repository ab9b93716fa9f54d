"""Release gates: the whole pipeline checked end to end at stated tolerances.

One test per numbered gate, run in order; each prints a PASS line with
its wall time (visible under pytest -s, or in captured output).  Gates 5
and 6 share a single Monte-Carlo run through a module fixture.  Every
converged solve performed here deposits its stationarity report in
KKT_LOG, and the final gate sweeps that log, so the residual thresholds
are enforced across everything the suite solved rather than on one
hand-picked instance.
"""

import math
import time

import numpy as np
import pytest

from fantope import (
    NotConverged,
    SolverConfig,
    build_witness,
    check_lcc,
    eig_sym,
    entrywise_error,
    fantope_project,
    frobenius_bound_check,
    gen_planted_clique,
    gen_spiked,
    gen_toy,
    sample_covariance,
    sample_gaussian,
    sign_rank_one,
    solve_fps,
    solve_fps_constrained,
    stability_check,
    support_error,
    top_k_projector,
    uniqueness_probe,
)
from oracles import (
    grid_solve_2x2_zoom,
    random_feasible_point,
    sign_rank_one_bruteforce,
)

TOY = gen_toy(0.0)

KKT_LOG = []  # (label, KktReport, objective) for every converged solve below


def log_kkt(label, sol):
    KKT_LOG.append((label, sol.kkt, sol.objective))


def rand_sym(rng, p, scale=1.0):
    a = rng.normal(scale=scale, size=(p, p))
    return 0.5 * (a + a.T)


def sym_with_gap(rng, p, k, min_gap):
    # random symmetric matrix whose k-th eigengap is at least min_gap
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    w = np.sort(rng.normal(size=p))[::-1]
    w[k:] -= max(0.0, min_gap - (w[k - 1] - w[k]))
    return (q * w) @ q.T


def test_criterion_01_projection():
    # 500 random symmetric matrices: the projection must be feasible to
    # 1e-8, beat 100 random feasible competitors each, and be a fixed
    # point of itself to 1e-9
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(500):
        p = int(rng.integers(3, 51))
        k = int(rng.integers(1, min(5, p - 1) + 1))
        a = rand_sym(rng, p)
        res = fantope_project(a, k)
        h = res.point.entries
        assert res.point.constraint_residual <= 1e-8
        d_opt = np.linalg.norm(a - h)
        for _ in range(100):
            f = random_feasible_point(rng, p, k)
            assert d_opt <= np.linalg.norm(a - f) + 1e-12
        again = fantope_project(h, k).point.entries
        assert np.linalg.norm(again - h) <= 1e-9
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"CRITERION 1: PASS ({dt:.1f}s) 500 projections feasible, optimal, idempotent")


def test_criterion_02_projector_equivalence():
    # with no l1 term, and with a quadratic shrink smaller than the
    # eigengap, both solver routes must land on the top-k projector
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for i in range(100):
        p = int(rng.integers(4, 31))
        k = int(rng.integers(1, min(5, p - 1) + 1))
        s = sym_with_gap(rng, p, k, 0.1)
        pi, gap = top_k_projector(s, k)
        assert gap >= 0.1 - 1e-12
        cfg = SolverConfig(k=k, eps=1e-9)
        sol_plain = solve_fps(s, cfg)
        sol_en = solve_fps(s, cfg.with_(tau_en=0.5 * gap))
        assert np.linalg.norm(sol_plain.H.entries - pi.entries) <= 1e-6
        assert np.linalg.norm(sol_en.H.entries - pi.entries) <= 1e-6
        log_kkt(f"equiv-plain-{i}", sol_plain)
        log_kkt(f"equiv-en-{i}", sol_en)
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"CRITERION 2: PASS ({dt:.1f}s) 100 penalty-free and shrunk solves match the projector")


def test_criterion_03_three_variable_facts():
    t0 = time.perf_counter()
    # (a) weak decoy coupling keeps a usable correlation constant
    _, alpha = check_lcc(gen_toy(0.02).Sigma, 1, (0, 1))
    assert alpha >= 0.3
    # (b) past the crossover penalty the decoy singleton wins exactly
    e3 = np.zeros((3, 3))
    e3[2, 2] = 1.0
    sol = solve_fps(TOY.Sigma, SolverConfig(k=1, rho=0.95))
    assert np.linalg.norm(sol.H.entries - e3) <= 1e-4
    assert sol.support.indices == (2,)
    log_kkt("toy-rho0.95", sol)
    # (c) a penalty past every off-diagonal entry leaves the diagonal
    # indicator of the k largest diagonal entries
    rho_proxy = 10.0 * float(np.max(np.abs(TOY.Sigma.entries))) * 3
    sol_d = solve_fps(TOY.Sigma, SolverConfig(k=1, rho=rho_proxy))
    assert np.linalg.norm(sol_d.H.entries - e3) <= 1e-4
    log_kkt("toy-proxy", sol_d)
    rng = np.random.default_rng(5)
    a = rand_sym(rng, 8, scale=0.1)
    np.fill_diagonal(a, np.linspace(3.0, 0.2, 8))
    sol_8 = solve_fps(a, SolverConfig(k=2, rho=10.0 * float(np.max(np.abs(a))) * 8))
    ind = np.zeros((8, 8))
    ind[0, 0] = ind[1, 1] = 1.0
    assert np.linalg.norm(sol_8.H.entries - ind) <= 1e-4
    assert sol_8.support.indices == (0, 1)
    log_kkt("proxy-8x8", sol_8)
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"CRITERION 3: PASS ({dt:.1f}s) correlation constant, crossover, diagonal proxy")


def test_criterion_04_frobenius_bound():
    # subspace error 4*rho*s/gap, exact-input path then sampled path with
    # the penalty set to the realized entrywise error
    t0 = time.perf_counter()
    for rho in (0.005, 0.01, 0.02, 0.05):
        sol = solve_fps(TOY.Sigma, SolverConfig(k=1, rho=rho))
        lhs, rhs, ok = frobenius_bound_check(TOY.Sigma, TOY.Sigma, 1, TOY.J, rho, sol)
        assert ok, (rho, lhs, rhs)
        log_kkt(f"frob-toy-{rho}", sol)
    rng = np.random.default_rng(41)
    for i in range(50):
        k = int(rng.integers(1, 3))
        s_sup = int(rng.integers(max(k, 4), 9))
        spikes = tuple(np.sort(rng.uniform(1.5, 4.0, size=k))[::-1])
        model = gen_spiked(40, k, range(s_sup), spikes, 1.0, int(rng.integers(1 << 30)))
        smat = sample_covariance(sample_gaussian(model, 2000, int(rng.integers(1 << 30))))
        rho = entrywise_error(smat, model.Sigma)
        cfg = SolverConfig(k=k, rho=rho, eps=1e-6)
        sol = solve_fps(smat, cfg)
        lhs, rhs, ok = frobenius_bound_check(model.Sigma, smat, k, model.J, rho, sol)
        assert ok, (i, lhs, rhs)
        log_kkt(f"frob-mc-{i}", sol)
    dt = time.perf_counter() - t0
    assert dt < 180.0
    print(f"CRITERION 4: PASS ({dt:.1f}s) subspace error bound held on 4 exact + 50 sampled solves")


@pytest.fixture(scope="module")
def sparsistency_run():
    # 20 seeded trials of the full prescribed-penalty pipeline on a
    # spiked model; gates 5 and 6 read different parts of the outcome
    t0 = time.perf_counter()
    model = gen_spiked(100, 2, range(5), (3.0, 2.0), 1.0, 12)
    _, alpha = check_lcc(model.Sigma, 2, model.J)
    assert alpha == 1.0  # disjoint support, zero cross-correlation
    records = []
    for ti in range(20):
        tseed = 12 * 1_000_003 + ti
        smat = sample_covariance(sample_gaussian(model, 8000, tseed))
        lam1 = float(eig_sym(smat).eigenvalues[0])
        rho = (3.0 * lam1 / alpha) * math.sqrt(math.log(100.0) / 8000.0)
        cfg = SolverConfig(k=2, rho=rho)
        sol = solve_fps(smat, cfg)
        log_kkt(f"sparsist-{ti}", sol)
        fp, fn, exact = support_error(sol.support, model.J)
        rec = {"exact": exact, "fp": fp, "fn": fn, "rho": rho}
        if exact:
            probe, _ = uniqueness_probe(smat, cfg, solution=sol)
            rec["unique"] = probe.unique
            rec["witness"] = build_witness(model.Sigma, smat, 2, model.J, rho)
        records.append(rec)
    return {"records": records, "model": model,
            "elapsed": time.perf_counter() - t0}


def test_criterion_05_sparsistency(sparsistency_run):
    records = sparsistency_run["records"]
    recovered = sum(r["exact"] for r in records)
    assert recovered >= 18, [(r["fp"], r["fn"]) for r in records]
    assert all(r["unique"] for r in records if r["exact"])
    dt = sparsistency_run["elapsed"]
    assert dt < 300.0
    print(f"CRITERION 5: PASS ({dt:.1f}s) {recovered}/20 exact recoveries, all unique")


def test_criterion_06_witness(sparsistency_run):
    records = sparsistency_run["records"]
    model = sparsistency_run["model"]
    n_wit = 0
    for r in records:
        if not r["exact"]:
            continue
        wit = r["witness"]
        assert wit.witness_valid
        assert wit.Q_deviation <= 8.0 * r["rho"] * len(model.J) / model.gap + 1e-9
        assert wit.dual_offsupport_max <= 1.0 + 1e-6
        n_wit += 1
    assert n_wit >= 18
    print(f"CRITERION 6: PASS (folded) {n_wit} dual certificates valid")


def test_criterion_07_planted_clique():
    # recovery above the detection threshold, failure well below it
    t0 = time.perf_counter()
    rho = 0.85 * math.sqrt(math.log(200.0) / 199.0)
    cfg = SolverConfig(k=1, rho=rho, support_tol=1e-3)
    freq = {}
    for s_clique in (40, 5):
        recovered = 0
        for ti in range(20):
            model, smat = gen_planted_clique(200, s_clique, 1_000_003 + ti)
            try:
                sol = solve_fps(smat, cfg)
            except NotConverged:
                continue  # a non-answer is not a recovery
            log_kkt(f"clique-{s_clique}-{ti}", sol)
            recovered += int(support_error(sol.support, model.J)[2])
        freq[s_clique] = recovered / 20.0
    assert freq[40] >= 18 / 20.0, freq
    assert freq[5] <= 0.2, freq
    dt = time.perf_counter() - t0
    assert dt < 300.0
    print(f"CRITERION 7: PASS ({dt:.1f}s) clique frequencies {freq}")


def test_criterion_08_persistence():
    # budget-constrained prediction: sandwich against the population
    # optimum on 50 resamples, then the perturbation bound 50 times
    t0 = time.perf_counter()
    model = gen_spiked(50, 1, range(5), (2.0,), 1.0, 8)
    sigma = model.Sigma
    r_level = 2.0  # 2k with k = 1
    cfg = SolverConfig(k=1)
    h_pop, _ = solve_fps_constrained(sigma, r_level, cfg)
    log_kkt("persist-pop", h_pop)
    pop_value = float(np.sum(sigma.entries * h_pop.H.entries))
    for ti in range(50):
        smat = sample_covariance(sample_gaussian(model, 2000, 900 + ti))
        h_emp, _ = solve_fps_constrained(smat, r_level, cfg)
        log_kkt(f"persist-emp-{ti}", h_emp)
        emp_value = float(np.sum(sigma.entries * h_emp.H.entries))
        gap = pop_value - emp_value
        bound = 2.0 * r_level * entrywise_error(smat, sigma)
        assert gap >= -1e-6, (ti, gap)
        assert gap <= bound + 1e-4, (ti, gap, bound)
    rng = np.random.default_rng(77)
    for i in range(50):
        d = rng.uniform(-0.05, 0.05, size=(50, 50))
        d = 0.5 * (d + d.T)
        f_diff, bd = stability_check(sigma, d, 1, r_level)
        assert f_diff <= bd + 1e-9, (i, f_diff, bd)
    dt = time.perf_counter() - t0
    assert dt < 240.0
    print(f"CRITERION 8: PASS ({dt:.1f}s) sandwich and stability bounds held 50/50 each")


def test_criterion_09_bruteforce_oracles():
    # the solver against a dense grid in the smallest nontrivial
    # dimension, and the sign-pattern test against full enumeration
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    for _ in range(12):
        s2 = rand_sym(rng, 2, scale=0.5)
        for rho in (0.0, 0.2, 0.5):
            sol = solve_fps(s2, SolverConfig(k=1, rho=rho))
            ref, _ = grid_solve_2x2_zoom(s2, rho)
            assert abs(sol.objective - ref) <= 1e-3
            log_kkt(f"grid2x2-{rho}", sol)
    n_true = n_false = 0
    for _ in range(500):
        n = int(rng.integers(3, 13))
        mode = int(rng.integers(0, 3))
        if mode == 0:
            m = rand_sym(rng, n)
        else:
            b = rng.choice([-1.0, 1.0], size=n)
            m = np.outer(b, b) * (np.abs(rand_sym(rng, n)) + 0.1)
            if mode == 2:
                i, j = rng.choice(n, size=2, replace=False)
                m[i, j] = m[j, i] = -m[i, j]  # one flipped pair breaks the pattern
        got = sign_rank_one(m, range(n))
        want = sign_rank_one_bruteforce(m, zero_tol=1e-12)
        assert got == want
        n_true += int(want)
        n_false += int(not want)
    assert n_true >= 120 and n_false >= 120  # both outcomes well exercised
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"CRITERION 9: PASS ({dt:.1f}s) grid oracle matched; {n_true}/{n_false} sign patterns agreed")


def test_criterion_10_kkt_residuals():
    # stationarity thresholds over every converged solve logged above,
    # plus fresh solves so a standalone run is not vacuous
    rng = np.random.default_rng(10)
    log_kkt("fresh-toy", solve_fps(TOY.Sigma, SolverConfig(k=1, rho=0.1)))
    log_kkt("fresh-gap", solve_fps(sym_with_gap(rng, 12, 2, 0.3),
                                   SolverConfig(k=2, rho=0.05)))
    s = sym_with_gap(rng, 10, 1, 0.4)
    _, gap = top_k_projector(s, 1)
    log_kkt("fresh-en", solve_fps(s, SolverConfig(k=1, tau_en=0.5 * gap)))
    assert len(KKT_LOG) >= 3
    for label, rep, obj in KKT_LOG:
        assert rep.sign_mismatch <= 1e-4, (label, rep.sign_mismatch)
        assert rep.dual_bound_violation <= 1e-6, (label, rep.dual_bound_violation)
        assert rep.fantope_optimality_gap <= 1e-4 * (1.0 + abs(obj)), (
            label, rep.fantope_optimality_gap, obj)
    print(f"CRITERION 10: PASS stationarity thresholds held on {len(KKT_LOG)} solves")
