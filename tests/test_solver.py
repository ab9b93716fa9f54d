import numpy as np
import numpy.testing as npt
import pytest

from fantope.errors import (
    GapCollapsed,
    InfeasibleConstraint,
    InvalidInput,
    NotConverged,
)
from fantope.base import l11_norm
from fantope.models import gen_spiked, gen_toy, sample_covariance, sample_gaussian
from fantope.solver import (
    FpsSolution,
    KktReport,
    SolverConfig,
    check_kkt,
    soft_threshold,
    solve_fps,
    solve_fps_constrained,
    solve_fps_en,
    uniqueness_probe,
)
from fantope.spectral import FantopePoint, top_k_projector
from oracles import grid_solve_2x2, penalized_objective, random_feasible_point

TOY = gen_toy(0.0).Sigma.entries


def toy_case():
    return TOY, SolverConfig(k=1, rho=0.1)


def spiked_case():
    # seeded p=50 spiked sample; 0.38 is the plug-in penalty
    # (3 lambda_1 / alpha) sqrt(log p / n) of this sample, rounded
    model = gen_spiked(50, 2, range(5), (3.0, 2.0), 1.0, 12)
    s = sample_covariance(sample_gaussian(model, 4000, 3)).entries
    return s, SolverConfig(k=2, rho=0.38)


WARM_CASES = pytest.mark.parametrize("case", [toy_case, spiked_case], ids=["toy", "spiked50"])


def resume_state(sol, cfg):
    """The warm start (H, Y, U) that resumes the splitting iteration at sol."""
    h = sol.H.entries
    return h, h, (cfg.rho / cfg.admm_step) * (sol.Z + np.eye(h.shape[0]))


def rand_sym(rng, p, scale=1.0):
    a = rng.normal(scale=scale, size=(p, p))
    return 0.5 * (a + a.T)


def sym_with_gap(rng, p, k, min_gap):
    """Random symmetric matrix whose k-th eigengap is at least min_gap."""
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    w = np.sort(rng.normal(size=p))[::-1]
    w[k:] -= max(0.0, min_gap - (w[k - 1] - w[k]))
    return (q * w) @ q.T


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            SolverConfig(k=0)
        with pytest.raises(InvalidInput):
            SolverConfig(k=1, rho=-0.1)
        with pytest.raises(InvalidInput):
            SolverConfig(k=1, admm_step=0.0)
        with pytest.raises(InvalidInput):
            SolverConfig(k=1, eps_primal=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["rho", "tau_en", "admm_step", "eps_primal",
                                      "eps_dual", "support_tol"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(InvalidInput):
            SolverConfig(k=1, **{name: value})

    def test_k_larger_than_p(self):
        with pytest.raises(InvalidInput):
            solve_fps(np.eye(2), SolverConfig(k=3))


class TestSoftThreshold:
    def test_values(self):
        a = np.array([[2.0, -0.5], [-0.5, 0.1]])
        npt.assert_allclose(
            soft_threshold(a, 0.4),
            [[1.6, -0.1], [-0.1, 0.0]],
        )


class TestPenaltyFreeSolve:
    def test_matches_eigenvector_route_on_toy(self):
        sol = solve_fps(TOY, SolverConfig(k=1, rho=0.0))
        pi, _ = top_k_projector(TOY, 1)
        assert np.max(np.abs(sol.H.entries - pi.entries)) <= 1e-6
        assert sol.support.indices == (0, 1)

    def test_matches_eigenvector_route_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = int(rng.integers(4, 15))
            k = int(rng.integers(1, 4))
            s = sym_with_gap(rng, p, k, 0.2)
            cfg = SolverConfig(k=k, eps_primal=1e-9, eps_dual=1e-9)
            sol = solve_fps(s, cfg)
            pi, _ = top_k_projector(s, k)
            assert np.linalg.norm(sol.H.entries - pi.entries) <= 1e-6

    def test_feasibility_and_residuals(self):
        sol = solve_fps(TOY, SolverConfig(k=1, rho=0.2))
        assert sol.H.constraint_residual <= 1e-8
        assert sol.primal_residual <= 1e-7 * np.sqrt(3)
        assert sol.dual_residual <= 1e-7 * np.sqrt(3)


class TestPenalizedSolve:
    def test_large_penalty_selects_decoy_on_toy(self):
        # above the crossover penalty the singleton (decoy) support wins
        sol = solve_fps(TOY, SolverConfig(k=1, rho=0.95))
        npt.assert_allclose(sol.H.entries, np.diag([0.0, 0.0, 1.0]), atol=1e-4)
        assert sol.support.indices == (2,)

    def test_moderate_penalty_keeps_pair_support(self):
        sol = solve_fps(TOY, SolverConfig(k=1, rho=0.1))
        assert sol.support.indices == (0, 1)
        # the pair block shrinks toward but not past the projector pattern
        assert sol.H.entries[0, 1] > 0.3

    def test_huge_penalty_yields_diagonal_indicator(self):
        rho = 10.0 * np.max(np.abs(TOY)) * 3
        sol = solve_fps(TOY, SolverConfig(k=1, rho=rho, admm_step=5.0))
        npt.assert_allclose(sol.H.entries, np.diag([0.0, 0.0, 1.0]), atol=1e-6)

    def test_objective_never_beaten_by_feasible_points(self):
        rng = np.random.default_rng(5)
        s = rand_sym(rng, 8)
        cfg = SolverConfig(k=2, rho=0.15)
        sol = solve_fps(s, cfg)
        for _ in range(50):
            h = random_feasible_point(rng, 8, 2)
            assert sol.objective >= penalized_objective(s, h, 0.15) - 1e-8

    def test_objective_history_peaks_at_solution(self):
        sol = solve_fps(TOY, SolverConfig(k=1, rho=0.3))
        hist = sol.history["objective"]
        assert hist.shape[0] == sol.iters
        assert np.max(hist) - sol.objective <= 1e-6 * (1.0 + abs(sol.objective))

    def test_l1_norm_shrinks_with_penalty(self):
        l11s = [
            l11_norm(solve_fps(TOY, SolverConfig(k=1, rho=r)).H.entries)
            for r in (0.0, 0.2, 0.5, 1.0)
        ]
        assert all(a >= b - 1e-8 for a, b in zip(l11s, l11s[1:]))

    def test_grid_oracle_2x2(self):
        rng = np.random.default_rng(7)
        for rho in (0.0, 0.1, 0.3):
            s = rand_sym(rng, 2, scale=0.5)
            sol = solve_fps(s, SolverConfig(k=1, rho=rho))
            obj_ref, _ = grid_solve_2x2(s, rho, res=1e-3)
            assert abs(sol.objective - obj_ref) <= 2e-3

    def test_rejects_en_config(self):
        with pytest.raises(InvalidInput):
            solve_fps(TOY, SolverConfig(k=1, tau_en=0.5))

    def test_not_converged_carries_partial(self):
        with pytest.raises(NotConverged) as exc:
            solve_fps(TOY, SolverConfig(k=1, rho=0.2, max_iters=3))
        partial = exc.value.solution
        assert partial is not None
        assert partial.iters == 3
        assert partial.H.constraint_residual <= 1e-8  # H block stays feasible


class TestDualRecovery:
    def test_dual_properties_at_convergence(self):
        sol = solve_fps(TOY, SolverConfig(k=1, rho=0.2))
        z = sol.Z
        npt.assert_allclose(z, z.T, atol=1e-12)
        npt.assert_allclose(np.diag(z), 0.0, atol=0)
        assert np.max(np.abs(z)) <= 1.0
        assert sol.dual_clip_excess <= 1e-6

    def test_sign_agreement_on_pair_block(self):
        sol = solve_fps(TOY, SolverConfig(k=1, rho=0.1))
        # H01 > 0 so the dual must sit at +1 there
        assert sol.Z[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_zero_penalty_dual_is_zero(self):
        sol = solve_fps(TOY, SolverConfig(k=1, rho=0.0))
        npt.assert_array_equal(sol.Z, np.zeros((3, 3)))


class TestCheckKkt:
    def test_convergence_residuals_small(self):
        for rho in (0.0, 0.1, 0.5):
            sol = solve_fps(TOY, SolverConfig(k=1, rho=rho))
            rep = check_kkt(TOY, sol, rho)
            assert rep.sign_mismatch <= 1e-4
            assert rep.dual_bound_violation <= 1e-6
            assert rep.fantope_optimality_gap <= 1e-4 * (1 + abs(sol.objective))
            assert rep.fantope_optimality_gap >= -1e-12

    def test_hand_built_unpenalized_pair(self):
        pi, _ = top_k_projector(TOY, 1)
        sol = FpsSolution(
            H=pi, Z=np.zeros((3, 3)), objective=1.7,
            support=None, iters=0, primal_residual=0.0, dual_residual=0.0,
            kkt=None,
        )
        rep = check_kkt(TOY, sol, 0.0)
        assert rep.sign_mismatch == 0.0
        assert rep.dual_bound_violation == 0.0
        assert abs(rep.fantope_optimality_gap) <= 1e-9

    def test_corrupted_dual_reports_excess(self):
        pi, _ = top_k_projector(TOY, 1)
        z = np.zeros((3, 3))
        z[0, 1] = z[1, 0] = 1.5
        sol = FpsSolution(
            H=pi, Z=z, objective=1.7,
            support=None, iters=0, primal_residual=0.0, dual_residual=0.0,
            kkt=None,
        )
        rep = check_kkt(TOY, sol, 0.1)
        assert rep.dual_bound_violation == pytest.approx(0.5)

    def test_solution_carries_its_own_report(self):
        sol = solve_fps(TOY, SolverConfig(k=1, rho=0.2))
        assert isinstance(sol.kkt, KktReport)
        assert sol.kkt.fantope_optimality_gap >= -1e-12


class TestElasticNet:
    def test_requires_positive_tau(self):
        with pytest.raises(InvalidInput):
            solve_fps_en(TOY, SolverConfig(k=1, tau_en=0.0))

    def test_matches_projector_below_gap(self):
        # tau inside the eigengap leaves the unpenalized maximizer unchanged
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = sym_with_gap(rng, 8, 2, 0.5)
            pi, gap = top_k_projector(s, 2)
            cfg = SolverConfig(k=2, tau_en=0.5 * gap, eps_primal=1e-9, eps_dual=1e-9)
            sol = solve_fps_en(s, cfg)
            assert np.linalg.norm(sol.H.entries - pi.entries) <= 1e-6

    def test_deterministic(self):
        cfg = SolverConfig(k=1, rho=0.1, tau_en=0.2)
        a = solve_fps_en(TOY, cfg)
        b = solve_fps_en(TOY, cfg)
        npt.assert_array_equal(a.H.entries, b.H.entries)


class TestConstrainedSolve:
    def test_inactive_constraint_returns_zero_penalty(self):
        # the toy projector has ||Pi||_1,1 = 2, well under R = 5
        sol, rho_star = solve_fps_constrained(TOY, 5.0, SolverConfig(k=1))
        assert rho_star == 0.0
        assert l11_norm(sol.H.entries) <= 5.0

    def test_active_constraint_meets_budget(self):
        # the penalty path jumps straight from norm 2 to norm 1 here, so the
        # search lands past the crossover; only the budget bound is promised
        sol, rho_star = solve_fps_constrained(TOY, 1.5, SolverConfig(k=1))
        assert rho_star > 0.0
        assert l11_norm(sol.H.entries) <= 1.5 * (1 + 1e-3)
        assert sol.support.indices == (2,)

    def test_infeasible_level(self):
        with pytest.raises(InfeasibleConstraint):
            solve_fps_constrained(TOY, 0.5, SolverConfig(k=1))

    def test_value_monotone_in_r(self):
        vals = []
        for r in (1.0, 1.5, 2.0, 3.0):
            sol, _ = solve_fps_constrained(TOY, r, SolverConfig(k=1))
            vals.append(float(np.sum(TOY * sol.H.entries)))
        assert all(a <= b + 1e-6 for a, b in zip(vals, vals[1:]))


class TestUniquenessProbe:
    def test_collapsed_gap_on_identity(self):
        with pytest.raises(GapCollapsed):
            uniqueness_probe(np.eye(3), SolverConfig(k=1, rho=0.0))

    def test_unique_on_toy(self):
        probe, sol = uniqueness_probe(TOY, SolverConfig(k=1, rho=0.1))
        assert probe.unique
        assert probe.discrepancy <= 1e-5
        assert probe.gap > 0
        assert 0 < probe.tau <= probe.gap
        assert sol.support.indices == (0, 1)

    def test_k_equals_p_trivially_unique(self):
        probe, _ = uniqueness_probe(TOY, SolverConfig(k=3, rho=0.0))
        assert probe.unique and probe.discrepancy == 0.0


class TestWarmStart:
    @WARM_CASES
    def test_converged_solve_resumes_in_place(self, case):
        s, cfg = case()
        sol = solve_fps(s, cfg)
        again = solve_fps(s, cfg, warm=resume_state(sol, cfg))
        assert again.iters <= 2
        assert np.linalg.norm(again.H.entries - sol.H.entries) <= 1e-6

    @WARM_CASES
    def test_probe_route_resumes_in_place(self, case):
        # for tau inside the gap the plain answer is a fixed point of the
        # elastic-net iteration too
        s, cfg = case()
        probe, sol = uniqueness_probe(s, cfg)
        assert probe.unique
        en = solve_fps_en(s, cfg.with_(tau_en=probe.tau), warm=resume_state(sol, cfg))
        assert en.iters <= 2

    @WARM_CASES
    def test_warm_start_keeps_the_limit(self, case):
        # strongly concave: any start reaches the cold solve's answer
        s, cfg = case()
        probe, _ = uniqueness_probe(s, cfg)
        cfg_en = cfg.with_(tau_en=probe.tau)
        cold = solve_fps_en(s, cfg_en)
        rng = np.random.default_rng(5)
        for _ in range(3):
            h0 = random_feasible_point(rng, s.shape[0], cfg.k)
            warm = solve_fps_en(s, cfg_en, warm=(h0, h0, np.zeros_like(h0)))
            assert np.linalg.norm(warm.H.entries - cold.H.entries) <= 1e-5
