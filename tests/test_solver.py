import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import fantope.solver
from fantope.diagnostics import check_lcc, persistence_gap
from fantope.errors import (
    GapCollapsed,
    InfeasibleConstraint,
    InvalidInput,
    NotConverged,
)
from fantope.base import l11_norm
from fantope.cli import CLIQUE_RHO_MULT
from fantope.models import (
    gen_planted_clique,
    gen_spiked,
    gen_toy,
    sample_covariance,
    sample_gaussian,
)
from fantope.solver import (
    FpsSolution,
    KktReport,
    SolverConfig,
    _l1_level,
    check_kkt,
    soft_threshold,
    solve_fps,
    solve_fps_constrained,
    uniqueness_probe,
)
from fantope.spectral import FantopePoint, as_sym, eig_sym, top_k_projector
from oracles import grid_solve_2x2, l1_level_bisect, penalized_objective, random_feasible_point

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


def count_linalg(monkeypatch, name):
    """Wrap np.linalg.<name>; returns the list of the input shapes it sees."""
    real, calls = getattr(np.linalg, name), []

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def bench_case():
    """The benchmark's p=200 spiked sample (trial seed 10000) at its plug-in penalty."""
    model = gen_spiked(200, 2, range(5), (3.0, 2.0), 1.0, 12)
    _, alpha = check_lcc(model.Sigma, 2, model.J)
    s = sample_covariance(sample_gaussian(model, 8000, 10000)).entries
    lam1 = float(eig_sym(s).eigenvalues[0])
    rho = (3.0 * lam1 / alpha) * math.sqrt(math.log(200.0) / 8000.0)
    return s, SolverConfig(k=2, rho=rho)


def full_eigh_only(monkeypatch):
    """Refuse every Ritz step, so each iteration takes the full eigh."""
    monkeypatch.setattr(fantope.solver, "_ritz_project", lambda *args: None)


def assert_gate10_kkt(s, sol, rho):
    rep = check_kkt(s, sol, rho)
    assert rep.sign_mismatch <= 1e-4
    assert rep.dual_bound_violation <= 1e-6
    assert rep.fantope_optimality_gap <= 1e-4 * (1.0 + abs(sol.objective))


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
            SolverConfig(k=1, eps=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name", ["rho", "tau_en", "admm_step", "eps_primal", "eps_dual", "support_tol"]
    )
    def test_non_finite_rejected(self, name, value):
        # the one tolerance eps stops both the primal and the dual residual;
        # the eps_primal and eps_dual cases set it for the residual they name
        field = {"eps_primal": "eps", "eps_dual": "eps"}.get(name, name)
        with pytest.raises(InvalidInput):
            SolverConfig(k=1, **{field: value})

    def test_k_larger_than_p(self):
        with pytest.raises(InvalidInput):
            solve_fps(np.eye(2), SolverConfig(k=3))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, 0.0, "2", None])
    @pytest.mark.parametrize("name", ["k", "max_iters"])
    def test_integer_fields_reject_non_integers(self, name, value):
        with pytest.raises(InvalidInput):
            SolverConfig(**{"k": 1, name: value})

    @pytest.mark.parametrize("value", [True, False, "0.1", None, 1j])
    @pytest.mark.parametrize("name", ["rho", "tau_en", "admm_step", "eps", "support_tol"])
    def test_real_fields_follow_the_base_rule(self, name, value):
        with pytest.raises(InvalidInput, match=name):
            SolverConfig(k=1, **{name: value})

    def test_real_fields_are_stored_as_float(self):
        cfg = SolverConfig(k=1, rho=1, tau_en=0, admm_step=2, eps=1, support_tol=1)
        for name in ("rho", "tau_en", "admm_step", "eps", "support_tol"):
            assert type(getattr(cfg, name)) is float, name

    def test_integer_valued_floats_are_stored_as_int(self):
        cfg = SolverConfig(k=1.0, rho=0.1, max_iters=20000.0)
        assert type(cfg.k) is int and type(cfg.max_iters) is int
        assert type(cfg.with_(k=2.0).k) is int
        sol = solve_fps(TOY, cfg)
        npt.assert_array_equal(sol.H.entries, solve_fps(TOY, SolverConfig(k=1, rho=0.1)).H.entries)


class TestSoftThreshold:
    def test_values(self):
        a = np.array([[2.0, -0.5], [-0.5, 0.1]])
        npt.assert_allclose(
            soft_threshold(a, 0.4),
            [[1.6, -0.1], [-0.1, 0.0]],
        )


@st.composite
def l1_ball_input(draw):
    """(a, radius): a small matrix, ties likely, and a radius inside or outside its l1 ball."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 12))
    a = rng.normal(scale=10.0 ** draw(st.floats(-3.0, 3.0)), size=(p, p))
    if draw(st.booleans()):
        a = np.round(a, 1)  # repeated magnitudes
    norm = float(np.sum(np.abs(a)))
    radius = draw(st.floats(0.01, 2.0)) * norm if norm > 0.0 else draw(st.floats(0.01, 5.0))
    return a, radius


class TestL1Level:
    @settings(max_examples=300, deadline=None)
    @given(l1_ball_input())
    def test_matches_bisection_oracle(self, case):
        a, radius = case
        level = _l1_level(a, radius)
        if np.sum(np.abs(a)) <= radius:
            assert level == 0.0
            return
        assert level > 0.0
        assert abs(l11_norm(soft_threshold(a, level)) - radius) <= 1e-9 * radius
        assert abs(level - l1_level_bisect(a, radius)) <= 1e-9 * (1.0 + np.max(np.abs(a)))


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
            cfg = SolverConfig(k=k, eps=1e-9)
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

    def test_not_converged_carries_partial(self):
        with pytest.raises(NotConverged) as exc:
            solve_fps(TOY, SolverConfig(k=1, rho=0.2, max_iters=3))
        partial = exc.value.solution
        assert partial is not None
        assert partial.iters == 3
        assert partial.H.constraint_residual <= 1e-8  # H block stays feasible

    def test_stall_exit_carries_partial(self):
        # gate 7's s = 5 trial 7: the clique sits below the detection
        # threshold, tied optima make the iterates drift at O(1/t), and the
        # solve stops at the first stall test it fails, not at max_iters
        s = gen_planted_clique(200, 5, 1_000_010)[1]
        cfg = SolverConfig(k=1, rho=CLIQUE_RHO_MULT * math.sqrt(math.log(200.0) / 199.0),
                           support_tol=1e-3)
        with pytest.raises(NotConverged, match="stalled") as exc:
            solve_fps(s, cfg)
        assert type(exc.value) is NotConverged
        partial = exc.value.solution
        assert partial.iters == 2000
        assert partial.H.constraint_residual <= 1e-8

    def test_relaxed_step_iterations_on_bench_sample(self):
        # the plain step takes 62 iterations on the bench sample, the
        # over-relaxed one 40, at the same stationarity
        s, cfg = bench_case()
        sol = solve_fps(s, cfg)
        assert sol.iters <= 50
        assert_gate10_kkt(s, sol, cfg.rho)


class TestSolutionFromLastProjection:
    """A solve's H is its last projection, certified without a second spectrum."""

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_one_eigvalsh_per_solve(self, monkeypatch, tau):
        s, cfg = spiked_case()
        calls = count_linalg(monkeypatch, "eigvalsh")
        solve_fps(s, cfg.with_(tau_en=tau))
        monkeypatch.undo()
        assert calls == [s.shape]  # its KKT report's

    @staticmethod
    def assert_certified(sol):
        # the residual read off the clipped eigenvalues agrees with the one
        # from_entries reads off the spectrum of H itself
        full = FantopePoint.from_entries(sol.H.entries, sol.H.k)
        npt.assert_array_equal(full.entries, sol.H.entries)
        assert sol.H.constraint_residual <= 1e-12
        assert abs(sol.H.constraint_residual - full.constraint_residual) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 4])
    @pytest.mark.parametrize("tau", [0.0, 2.0])
    def test_seeded_solves(self, seed, tau):
        s = TestInvariance.sample(seed)
        self.assert_certified(solve_fps(s, SolverConfig(k=2, rho=0.25, tau_en=tau)))

    def test_partial_solution(self):
        with pytest.raises(NotConverged) as exc:
            solve_fps(spiked_case()[0], SolverConfig(k=2, rho=0.38, max_iters=3))
        self.assert_certified(exc.value.solution)

    def test_one_iteration_resume(self):
        s, cfg = spiked_case()
        sol = solve_fps(s, cfg)
        try:
            again = solve_fps(s, cfg.with_(max_iters=1), warm=resume_state(sol, cfg))
        except NotConverged as e:
            again = e.solution
        assert again.iters == 1
        self.assert_certified(again)


class TestRitzStep:
    """Iterations between full eigendecompositions take a certified Ritz step."""

    def test_full_eigh_count_on_bench_sample(self, monkeypatch):
        # one full eigh per iteration would be 40: a cold start, a couple of
        # Weyl refreshes and the exact finish remain
        s, cfg = bench_case()
        calls = count_linalg(monkeypatch, "eigh")
        sol = solve_fps(s, cfg)
        monkeypatch.undo()
        assert calls.count(s.shape) <= 6
        assert sol.iters <= 50
        assert_gate10_kkt(s, sol, cfg.rho)
        full_eigh_only(monkeypatch)
        full = solve_fps(s, cfg)
        assert sol.iters == full.iters
        assert sol.support == full.support
        assert np.linalg.norm(sol.H.entries - full.H.entries) <= 1e-5

    def test_degenerate_input_falls_back(self, monkeypatch):
        # `fps clique --p 200 --s 5 --seed 1`: a clique below the detection
        # threshold, where Ritz steps and fallbacks to the full eigh mix
        p = 200
        s = gen_planted_clique(p, 5, 1_000_003)[1].entries
        cfg = SolverConfig(k=1, rho=CLIQUE_RHO_MULT * math.sqrt(math.log(p) / (p - 1)),
                           support_tol=1e-3)
        calls = count_linalg(monkeypatch, "eigh")
        sol = solve_fps(s, cfg)
        monkeypatch.undo()
        assert 4 < calls.count(s.shape) < sol.iters
        full_eigh_only(monkeypatch)
        full = solve_fps(s, cfg)
        assert sol.iters == full.iters
        assert sol.support == full.support

    @pytest.mark.parametrize("max_iters", [10, 20000])
    def test_every_exit_is_an_exact_projection(self, monkeypatch, max_iters):
        # converged or out of iterations, H is the output of the last full
        # _project call, never of a Ritz step
        s, cfg = spiked_case()
        real, outputs = fantope.solver._project, []

        def recording(m, k, eig=None):
            out = real(m, k, eig)
            outputs.append(out[0])
            return out

        monkeypatch.setattr(fantope.solver, "_project", recording)
        try:
            sol = solve_fps(s, cfg.with_(max_iters=max_iters))
        except NotConverged as e:
            sol = e.solution
        assert sol.H.entries is outputs[-1]
        assert len(outputs) < sol.iters
        TestSolutionFromLastProjection.assert_certified(sol)


class TestColdStartFromSpectrum:
    """A cold solve projects its first iterate from S's retained spectrum."""

    @staticmethod
    def eigh_of_m(s, cfg):
        # the cold state handed in as a warm start: iteration 1 decomposes M0 itself
        p, k = s.shape[0], cfg.k
        h = (k / p) * np.eye(p)
        return solve_fps(s, cfg, warm=(h, h, np.zeros((p, p))))

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_known_spectrum_saves_one_eigh(self, monkeypatch, tau):
        s, cfg = bench_case()
        cfg = cfg.with_(tau_en=tau)
        sym = as_sym(s)
        sym.spectrum
        calls = count_linalg(monkeypatch, "eigh")
        raw = solve_fps(s.copy(), cfg)
        n_raw = calls.count(s.shape)
        shared = solve_fps(sym, cfg)
        assert calls.count(s.shape) - n_raw == n_raw - 1
        monkeypatch.undo()
        for sol in (shared, self.eigh_of_m(s, cfg)):
            assert sol.iters == raw.iters
            assert sol.support == raw.support
            assert np.linalg.norm(sol.H.entries - raw.H.entries) <= 1e-12

    @pytest.mark.parametrize("ritz", [True, False], ids=["ritz", "full-eigh"])
    @pytest.mark.parametrize("case", [toy_case, spiked_case], ids=["toy", "spiked50"])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 2.0])
    def test_same_solve_as_decomposing_m(self, monkeypatch, case, tau, ritz):
        s, cfg = case()
        cfg = cfg.with_(tau_en=tau)
        if not ritz:
            full_eigh_only(monkeypatch)
        sol, ref = solve_fps(as_sym(s), cfg), self.eigh_of_m(s, cfg)
        assert (sol.iters, sol.support) == (ref.iters, ref.support)
        # the Ritz block's trailing vectors lie in S's near-degenerate noise
        # cluster, so the two decompositions pick different ones; a Ritz step
        # is exact only up to its certified residual (5e-10 here at tau=0.5)
        tol = 1e-8 if ritz else 1e-12
        assert np.linalg.norm(sol.H.entries - ref.H.entries) <= tol

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_same_not_converged(self, tau):
        s, cfg = spiked_case()
        cfg = cfg.with_(tau_en=tau, max_iters=3)
        partial = []
        for solve in (lambda: solve_fps(as_sym(s), cfg), lambda: self.eigh_of_m(s, cfg)):
            with pytest.raises(NotConverged) as exc:
                solve()
            partial.append(exc.value.solution)
        assert partial[0].iters == partial[1].iters == 3
        assert np.linalg.norm(partial[0].H.entries - partial[1].H.entries) <= 1e-12

    @pytest.mark.parametrize("call, solves", [
        (lambda sym, cfg: uniqueness_probe(sym, cfg), 2),
        (lambda sym, cfg: solve_fps_constrained(sym, 1.5, cfg.with_(rho=0.0)), 1),
        (lambda sym, cfg: persistence_gap(sym, sym, 1, 1.5), 2),
    ], ids=["probe", "constrained", "persistence"])
    def test_entries_keep_their_symmat(self, monkeypatch, call, solves):
        # every inner solve reads the caller's SymMat, so one spectrum serves all
        s, cfg = toy_case()
        sym = as_sym(s)
        real, seen = fantope.solver._solve_raw, []

        def recording(sym_in, *args, **kwargs):
            seen.append(sym_in)
            return real(sym_in, *args, **kwargs)

        monkeypatch.setattr(fantope.solver, "_solve_raw", recording)
        call(sym, cfg)
        assert len(seen) == solves and all(x is sym for x in seen)


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

    def test_eigengap_of_the_gradient(self):
        rng = np.random.default_rng(9)
        s = rand_sym(rng, 10)
        sol = solve_fps(s, SolverConfig(k=3, rho=0.2))
        w = np.linalg.eigvalsh(s - 0.2 * sol.Z)
        assert sol.kkt.eigengap == pytest.approx(w[-3] - w[-4], abs=1e-12)
        assert check_kkt(s, sol, 0.2).eigengap == sol.kkt.eigengap
        assert solve_fps(TOY, SolverConfig(k=3)).kkt.eigengap == float("inf")


class TestElasticNet:
    @pytest.mark.parametrize("case", ["toy", "random30"])
    def test_report_reads_the_elastic_net_gradient(self, case):
        # stationarity of the elastic net is about S - rho Z - tau H; without
        # -tau H a converged solve that is not a projector shows a false gap
        if case == "toy":
            s, cfg = TOY, SolverConfig(k=1, rho=0.05, tau_en=1.0)
        else:
            s, cfg = rand_sym(np.random.default_rng(4), 30), SolverConfig(k=2, rho=0.1, tau_en=2.0)
        sol = solve_fps(s, cfg)
        h = sol.H.entries
        assert np.linalg.norm(h @ h - h) > 1e-2  # not a projector: the term matters
        assert abs(sol.kkt.fantope_optimality_gap) <= 1e-6
        # check_kkt is the l1 problem's check and still reads S - rho Z
        assert check_kkt(s, sol, cfg.rho).fantope_optimality_gap > 1e-2

    def test_matches_projector_below_gap(self):
        # tau inside the eigengap leaves the unpenalized maximizer unchanged
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = sym_with_gap(rng, 8, 2, 0.5)
            pi, gap = top_k_projector(s, 2)
            cfg = SolverConfig(k=2, tau_en=0.5 * gap, eps=1e-9)
            sol = solve_fps(s, cfg)
            assert np.linalg.norm(sol.H.entries - pi.entries) <= 1e-6

    def test_deterministic(self):
        cfg = SolverConfig(k=1, rho=0.1, tau_en=0.2)
        a = solve_fps(TOY, cfg)
        b = solve_fps(TOY, cfg)
        npt.assert_array_equal(a.H.entries, b.H.entries)


class TestConstrainedSolve:
    def test_inactive_constraint_returns_zero_penalty(self):
        # the toy projector has ||Pi||_1,1 = 2, well under R = 5
        sol, rho_star = solve_fps_constrained(TOY, 5.0, SolverConfig(k=1))
        assert rho_star == 0.0
        assert l11_norm(sol.H.entries) <= 5.0

    @pytest.mark.parametrize("r", [1.0, 1.2, 1.5, 1.8, 2.0, 3.0])
    def test_toy_reaches_the_budget_optimum(self, r):
        # the optimum is min(1.7, 0.7 R + 0.3), at (R - 1) Pi + (2 - R) e3 e3^T
        # for R in [1, 2], where ||Pi||_1,1 = 2 and the decoy e3 has norm 1
        sol, _ = solve_fps_constrained(TOY, r, SolverConfig(k=1))
        assert abs(float(np.sum(TOY * sol.H.entries)) - min(1.7, 0.7 * r + 0.3)) <= 1e-6
        assert l11_norm(sol.H.entries) <= r + 1e-6
        if r == 1.5:
            assert sol.support.indices == (0, 1, 2)

    def test_infeasible_level(self):
        with pytest.raises(InfeasibleConstraint):
            solve_fps_constrained(TOY, 0.5, SolverConfig(k=1))

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), -float("inf"), True, "2"])
    def test_malformed_level_rejected(self, r):
        with pytest.raises(InvalidInput):
            solve_fps_constrained(TOY, r, SolverConfig(k=1))

    @pytest.mark.parametrize("case", [
        lambda: (TOY, 1.5),
        lambda: (gen_spiked(50, 1, range(5), (2.0,), 1.0, 8).Sigma, 2.0),
    ], ids=["toy", "gate8-population"])
    def test_kkt_at_rho_star(self, case):
        # the budget solve is the penalized solve at rho*, and says so
        s, r = case()
        sol, rho_star = solve_fps_constrained(s, r, SolverConfig(k=1))
        assert rho_star > 0.0
        rep = check_kkt(s, sol, rho_star)
        assert rep == sol.kkt
        assert rep.sign_mismatch <= 1e-4
        assert rep.dual_bound_violation <= 1e-6
        assert rep.fantope_optimality_gap <= 1e-4 * (1.0 + abs(sol.objective))

    def test_step_scaled_by_the_spectral_norm(self):
        # started at step ||S||_2 this resample takes 519 iterations; started
        # at step 1 it takes 3965
        model = gen_spiked(50, 1, range(5), (2.0,), 1.0, 8)
        s = sample_covariance(sample_gaussian(model, 2000, 930))
        sol, _ = solve_fps_constrained(s, 2.0, SolverConfig(k=1, max_iters=2000))
        assert sol.iters <= 2000


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

    def test_gap_is_the_plain_solves_eigengap(self, monkeypatch):
        s, cfg = spiked_case()
        calls = count_linalg(monkeypatch, "eigvalsh")
        probe, sol = uniqueness_probe(s, cfg)
        monkeypatch.undo()
        assert probe.gap == sol.kkt.eigengap
        assert probe.tau == 0.5 * sol.kkt.eigengap
        # one per solve (its KKT report), none of its own
        assert len(calls) == 2

    def test_handed_solution_replaces_the_plain_solve(self, monkeypatch):
        s, cfg = spiked_case()
        cold_probe, _ = uniqueness_probe(s, cfg)
        sol = solve_fps(s, cfg)
        real, calls = fantope.solver.solve_fps, []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(fantope.solver, "solve_fps", counting)
        probe, got = uniqueness_probe(s, cfg, solution=sol)
        monkeypatch.undo()
        # the elastic-net resume is the only solve
        assert len(calls) == 1 and calls[0].tau_en == probe.tau > 0
        assert got is sol
        assert probe == cold_probe

    def test_handed_solution_of_another_problem_rejected(self):
        s, cfg = spiked_case()
        sol = solve_fps(s, cfg)
        with pytest.raises(InvalidInput):
            uniqueness_probe(s, cfg.with_(k=1), solution=sol)
        with pytest.raises(InvalidInput):
            uniqueness_probe(s[:-1, :-1], cfg, solution=sol)


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
        en = solve_fps(s, cfg.with_(tau_en=probe.tau), warm=resume_state(sol, cfg))
        assert en.iters <= 2

    @WARM_CASES
    def test_warm_start_keeps_the_limit(self, case):
        # strongly concave: any start reaches the cold solve's answer
        s, cfg = case()
        probe, _ = uniqueness_probe(s, cfg)
        cfg_en = cfg.with_(tau_en=probe.tau)
        cold = solve_fps(s, cfg_en)
        rng = np.random.default_rng(5)
        for _ in range(3):
            h0 = random_feasible_point(rng, s.shape[0], cfg.k)
            warm = solve_fps(s, cfg_en, warm=(h0, h0, np.zeros_like(h0)))
            assert np.linalg.norm(warm.H.entries - cold.H.entries) <= 1e-5


    @pytest.mark.parametrize("warm", [
        "other_dim", "pair", "non_finite", "ragged", "scalar",
    ])
    def test_malformed_warm_rejected(self, warm):
        s = rand_sym(np.random.default_rng(2), 4)
        a = np.zeros((4, 4))
        bad = {
            "other_dim": (np.eye(3), np.eye(3), np.eye(3)),
            "pair": (a, a),
            "non_finite": (a, a, np.full((4, 4), np.nan)),
            "ragged": (a, a, [[0.0, 1.0], [2.0]]),
            "scalar": 3.0,
        }[warm]
        with pytest.raises(InvalidInput):
            solve_fps(s, SolverConfig(k=1, rho=0.1), warm=bad)


class TestInvariance:
    """Solves commute with relabelling the variables and with rescaling S and rho."""

    # seeded p=30 spiked samples whose solves take under ~300 iterations
    SEEDS = pytest.mark.parametrize("seed", [1, 2, 4])

    @staticmethod
    def sample(seed):
        model = gen_spiked(30, 2, range(5), (3.0, 2.0), 1.0, seed)
        return sample_covariance(sample_gaussian(model, 2000, seed + 50)).entries

    @SEEDS
    @pytest.mark.parametrize("tau", [0.0, 2.0])
    def test_permutation(self, seed, tau):
        s = self.sample(seed)
        perm = np.random.default_rng(seed).permutation(30)
        cfg = SolverConfig(k=2, rho=0.25, tau_en=tau)
        sol = solve_fps(s, cfg)
        solp = solve_fps(s[np.ix_(perm, perm)], cfg)
        block = np.ix_(perm, perm)
        npt.assert_allclose(solp.H.entries, sol.H.entries[block], atol=1e-6)
        npt.assert_allclose(solp.Z, sol.Z[block], atol=1e-6)
        assert sorted(perm[list(solp.support.indices)]) == list(sol.support.indices)

    @SEEDS
    @pytest.mark.parametrize("c", [0.1, 10.0])
    def test_scaling(self, seed, c):
        # admm_step has the units of S, so it scales with c too; the
        # iteration is then the same up to rounding and only the stopping
        # test, whose dual residual carries the step, may end it elsewhere
        s = self.sample(seed)
        cfg = SolverConfig(k=2, rho=0.25)
        sol = solve_fps(s, cfg)
        solc = solve_fps(c * s, cfg.with_(rho=c * cfg.rho, admm_step=c))
        npt.assert_allclose(solc.H.entries, sol.H.entries, atol=1e-5)
        assert solc.support == sol.support

    def test_scaling_elastic_net(self):
        s = self.sample(1)
        cfg = SolverConfig(k=2, rho=0.25, tau_en=2.0)
        sol = solve_fps(s, cfg)
        solc = solve_fps(10.0 * s, cfg.with_(rho=2.5, tau_en=20.0, admm_step=10.0))
        npt.assert_allclose(solc.H.entries, sol.H.entries, atol=1e-5)
        assert solc.support == sol.support
