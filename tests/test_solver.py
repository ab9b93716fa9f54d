import gc
import math
import weakref
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

import fantope.solver
from fantope.diagnostics import build_witness, check_lcc, persistence_gap
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
from fantope.spectral import FantopePoint, SymMat, as_sym, eig_sym, top_k_projector
from oracles import (BUDGET_HARD, gaussian_rows, grid_solve_2x2, l1_level_bisect,
                     penalized_objective, random_feasible_point, two_pass_covariance)

TOY = gen_toy(0.0).Sigma.entries


def toy_case():
    return TOY, SolverConfig(k=1, rho=0.1)


def row_sample(model, n, seed):
    """S, the two-pass covariance of the one-shot rows oracles.gaussian_rows(Sigma, n, seed).

    A fixed input for tests that quote a behaviour of one particular sample:
    it does not follow sample_gaussian's draw.
    """
    return SymMat.from_array(two_pass_covariance(gaussian_rows(model.Sigma.entries, n, seed)))


def budget_input(case):
    """(S, R, k) of an oracles.BudgetInput."""
    model = gen_spiked(case.p, case.k, range(5), case.spikes, 1.0, case.model_seed)
    if case.rows:
        s = row_sample(model, case.n, case.seed)
    else:
        s = sample_covariance(sample_gaussian(model, case.n, case.seed))
    return s, case.r, case.k


def spiked_case():
    # seeded p=50 spiked sample; 0.38 is the plug-in penalty
    # (3 lambda_1 / alpha) sqrt(log p / n) of this sample, rounded
    model = gen_spiked(50, 2, range(5), (3.0, 2.0), 1.0, 12)
    s = row_sample(model, 4000, 3).entries
    return s, SolverConfig(k=2, rho=0.38)


WARM_CASES = pytest.mark.parametrize("case", [toy_case, spiked_case], ids=["toy", "spiked50"])


def count_linalg(monkeypatch, name):
    """Wrap np.linalg.<name>; returns the list of the input shapes it sees."""
    real, calls = getattr(np.linalg, name), []

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def bench_case(seed=10000):
    """The benchmark's p=200 spiked sample (trial seed 10000) at its plug-in penalty."""
    model = gen_spiked(200, 2, range(5), (3.0, 2.0), 1.0, 12)
    _, alpha = check_lcc(model.Sigma, 2, model.J)
    s = sample_covariance(sample_gaussian(model, 8000, seed)).entries
    lam1 = float(eig_sym(s).eigenvalues[0])
    rho = (3.0 * lam1 / alpha) * math.sqrt(math.log(200.0) / 8000.0)
    return s, SolverConfig(k=2, rho=rho)


def full_eigh_only(monkeypatch):
    """Refuse every Ritz step, so each iteration takes the full eigh."""
    monkeypatch.setattr(fantope.solver, "_ritz_project", lambda *args: None)


def full_loop_only(monkeypatch):
    """Make the screen keep every row, so each solve runs the full p x p loop."""
    monkeypatch.setattr(fantope.solver, "_screen", lambda s, rho, k: np.arange(s.shape[0]))


def fresh(sym):
    """A new SymMat on sym's entries: it keeps no run, so a cold solve of it runs its loop."""
    return SymMat(entries=sym.entries)


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
        with pytest.raises(NotConverged, match=r"\(max_iters\) after 3 iterations") as exc:
            solve_fps(TOY, SolverConfig(k=1, rho=0.2, max_iters=3))
        partial = exc.value.solution
        assert partial is not None
        assert partial.iters == 3
        assert partial.H.constraint_residual <= 1e-8  # H block stays feasible

    def test_stall_exit_carries_partial(self):
        # gate 7's s = 5 trial 7: the clique sits below the detection
        # threshold and the solve stops at the first stall test it fails (2000
        # iterations), not at max_iters.  The elastic net at tau = 0.3 on a
        # small spiked sample stalls too (4000), though its maximizer is
        # unique, so the message names the stop and claims no degeneracy
        rho = CLIQUE_RHO_MULT * math.sqrt(math.log(200.0) / 199.0)
        spiked = gen_spiked(30, 1, range(4), (2.0,), 1.0, 1)
        cases = [
            (gen_planted_clique(200, 5, 1_000_010)[1],
             SolverConfig(k=1, rho=rho, support_tol=1e-3), 2000),
            (sample_covariance(sample_gaussian(spiked, 300, 1001)),
             SolverConfig(k=1, rho=0.05, tau_en=0.3), 4000),
        ]
        for s, cfg, iters in cases:
            with pytest.raises(NotConverged, match="stalled") as exc:
                solve_fps(s, cfg)
            assert type(exc.value) is NotConverged
            message = str(exc.value)
            assert f"after {iters} iterations" in message
            assert f"{cfg.eps * math.sqrt(s.dim):.3e}" in message
            assert "degenerate" not in message
            partial = exc.value.solution
            assert partial.iters == iters
            assert partial.H.constraint_residual <= 1e-8

    def test_relaxed_step_iterations_on_bench_sample(self):
        # the bench sample answers on its 5x5 block: the plain step takes 71
        # iterations there, the over-relaxed one 47 and the accelerated 19,
        # at the same stationarity
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
        sol = solve_fps(s, cfg.with_(tau_en=tau))
        monkeypatch.undo()
        # its KKT report's, of the screened block's order when the block answered
        assert sol.working_set < s.shape[0]
        assert calls == [(sol.working_set, sol.working_set)]

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
            again = solve_fps(s, cfg.with_(max_iters=1), warm=sol)
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
        full_loop_only(monkeypatch)
        calls = count_linalg(monkeypatch, "eigh")
        sol = solve_fps(s, cfg)
        monkeypatch.undo()
        assert calls.count(s.shape) <= 6
        assert sol.iters <= 50
        assert_gate10_kkt(s, sol, cfg.rho)
        full_loop_only(monkeypatch)
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
        full_loop_only(monkeypatch)
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
        # every projection drops the spectrum it is handed: iteration 1 of a
        # cold loop decomposes M0 itself
        real = fantope.solver._project

        def no_spectrum(m, k, eig=None):
            return real(m, k)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fantope.solver, "_project", no_spectrum)
            return solve_fps(s, cfg)

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_known_spectrum_saves_one_eigh(self, monkeypatch, tau):
        s, cfg = bench_case()
        cfg = cfg.with_(tau_en=tau)
        full_loop_only(monkeypatch)
        sym = as_sym(s)
        sym.spectrum.eigenvectors
        calls = count_linalg(monkeypatch, "eigh")
        raw = solve_fps(s.copy(), cfg)
        n_raw = calls.count(s.shape)
        shared = solve_fps(sym, cfg)
        assert calls.count(s.shape) - n_raw == n_raw - 1
        decomposed = self.eigh_of_m(s, cfg)
        monkeypatch.undo()
        for sol in (shared, decomposed):
            assert sol.iters == raw.iters
            assert sol.support == raw.support
            assert np.linalg.norm(sol.H.entries - raw.H.entries) <= 1e-12

    @pytest.mark.parametrize("ritz", [True, False], ids=["ritz", "full-eigh"])
    @pytest.mark.parametrize("case", [toy_case, spiked_case], ids=["toy", "spiked50"])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 2.0])
    def test_same_solve_as_decomposing_m(self, monkeypatch, case, tau, ritz):
        s, cfg = case()
        cfg = cfg.with_(tau_en=tau)
        full_loop_only(monkeypatch)
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

    @pytest.mark.parametrize("call, solves, solved", [
        (lambda sym, cfg: uniqueness_probe(sym, cfg), 2, lambda sym: sym),
        (lambda sym, cfg: solve_fps_constrained(sym, 1.5, cfg.with_(rho=0.0)), 1,
         lambda sym: sym),
        (lambda sym, cfg: persistence_gap(sym, sym, 1, 1.5), 2, lambda sym: sym),
        (lambda sym, cfg: build_witness(sym, sym, 1, (0, 1), cfg.rho), 1,
         lambda sym: sym._restrict(np.array([0, 1]))),
    ], ids=["probe", "constrained", "persistence", "witness"])
    def test_entries_keep_their_symmat(self, monkeypatch, call, solves, solved):
        # every inner solve reads the caller's SymMat (the witness: the
        # restriction to J it keeps), so one spectrum serves all
        s, cfg = toy_case()
        sym = as_sym(s)
        real, seen = fantope.solver._solve_raw, []

        def recording(sym_in, *args, **kwargs):
            seen.append(sym_in)
            return real(sym_in, *args, **kwargs)

        monkeypatch.setattr(fantope.solver, "_solve_raw", recording)
        call(sym, cfg)
        assert len(seen) == solves and all(x is solved(sym) for x in seen)


def count_loops(monkeypatch):
    """Wrap the splitting loop; returns the list of the orders it runs at."""
    real, runs = fantope.solver._loop, []

    def counting(s, *args, **kwargs):
        runs.append(s.shape[0])
        return real(s, *args, **kwargs)

    monkeypatch.setattr(fantope.solver, "_loop", counting)
    return runs


def assert_same_solution(a, b):
    """Every field of two FpsSolutions equal, arrays bit for bit."""
    for f in fields(FpsSolution):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, FantopePoint):
            npt.assert_array_equal(x.entries, y.entries)
            assert (x.dim, x.k, x.constraint_residual) == (y.dim, y.k, y.constraint_residual)
        elif isinstance(x, np.ndarray):
            npt.assert_array_equal(x, y)
        else:
            assert x == y, f.name


def full_loop_case():
    s, cfg = spiked_case()
    return s, cfg.with_(rho=0.0)


class TestKeptColdRun:
    """A SymMat keeps its last cold run: a repeated cold solve re-reads it."""

    @pytest.mark.parametrize("case", [toy_case, spiked_case, full_loop_case],
                             ids=["toy", "block", "full-loop"])
    def test_repeat_runs_no_loop(self, monkeypatch, case):
        s, cfg = case()
        sym = as_sym(s)
        first = solve_fps(sym, cfg)
        runs = count_loops(monkeypatch)
        again = solve_fps(sym, cfg)
        assert runs == []
        assert_same_solution(first, again)

    def test_repeat_budget_solve_runs_no_loop(self, monkeypatch):
        s, cfg = spiked_case()
        sym = as_sym(s)
        first, rho = solve_fps_constrained(sym, 3.0, cfg)
        runs = count_loops(monkeypatch)
        again, rho_again = solve_fps_constrained(sym, 3.0, cfg)
        assert runs == [] and rho_again == rho
        assert_same_solution(first, again)
        solve_fps_constrained(sym, 2.5, cfg)
        assert runs == [50]

    @pytest.mark.parametrize("change", [dict(rho=0.4), dict(tau_en=0.5), dict(eps=1e-8),
                                        dict(admm_step=2.0), dict(max_iters=5000)],
                             ids=["rho", "tau_en", "eps", "admm_step", "max_iters"])
    def test_other_settings_run_the_loop(self, monkeypatch, change):
        # a miss runs the loop, and the SymMat then keeps the new run
        s, cfg = spiked_case()
        sym = as_sym(s)
        solve_fps(sym, cfg)
        runs = count_loops(monkeypatch)
        moved = solve_fps(sym, cfg.with_(**change))
        assert runs == [5]
        assert_same_solution(moved, solve_fps(sym, cfg.with_(**change)))
        assert runs == [5]

    def test_support_tol_reads_the_kept_run(self, monkeypatch):
        s, cfg = spiked_case()
        sym = as_sym(s)
        solve_fps(sym, cfg)
        runs = count_loops(monkeypatch)
        coarse = solve_fps(sym, cfg.with_(support_tol=0.5))
        assert runs == []
        assert_same_solution(coarse, solve_fps(fresh(sym), cfg.with_(support_tol=0.5)))

    def test_warm_solve_bypasses_the_kept_run(self, monkeypatch):
        s, cfg = spiked_case()
        sym = as_sym(s)
        cold = solve_fps(sym, cfg)
        runs = count_loops(monkeypatch)
        solve_fps(sym, cfg, warm=cold)
        assert runs == [5]
        # the warm run leaves the cold one kept
        assert_same_solution(cold, solve_fps(sym, cfg))
        assert runs == [5]

    @pytest.mark.parametrize("full", [False, True], ids=["block", "full-loop"])
    def test_repeat_not_converged(self, monkeypatch, full):
        s, cfg = full_loop_case() if full else spiked_case()
        sym = as_sym(s)
        cfg = cfg.with_(max_iters=3)
        with pytest.raises(NotConverged) as first:
            solve_fps(sym, cfg)
        runs = count_loops(monkeypatch)
        with pytest.raises(NotConverged) as again:
            solve_fps(sym, cfg)
        assert runs == []
        assert str(again.value) == str(first.value)
        assert "max_iters" in str(first.value)
        assert_same_solution(first.value.solution, again.value.solution)

    def test_cold_probe_after_a_solve_runs_one_loop(self, monkeypatch):
        # the probe's first route re-reads the solve; only its warm
        # elastic-net route runs, on the 5 x 5 block
        s, cfg = bench_case()
        sym = as_sym(s)
        sol = solve_fps(sym, cfg)
        runs = count_loops(monkeypatch)
        probe, first = uniqueness_probe(sym, cfg)
        assert runs == [5] and probe.unique
        assert_same_solution(first, sol)

    def test_nothing_is_held_once_the_symmat_goes(self):
        s, cfg = spiked_case()
        sym = as_sym(s.copy())
        sol = solve_fps(sym, cfg)
        refs = weakref.ref(sym), weakref.ref(sym._restrict(np.array(sol.support.indices)))
        del sym
        gc.collect()
        assert [r() for r in refs] == [None, None]


@st.composite
def spiked_sample(draw):
    """(S, config): a seeded spiked sample, p <= 60, at a penalty around its plug-in value."""
    p, k = draw(st.integers(20, 60)), draw(st.sampled_from([1, 2]))
    model = gen_spiked(p, k, range(draw(st.integers(max(k, 2), 8))), (3.0, 2.0)[:k], 1.0,
                       draw(st.integers(0, 999)))
    n = draw(st.integers(200, 4000))
    s = sample_covariance(sample_gaussian(model, n, draw(st.integers(0, 10**6))))
    _, alpha = check_lcc(model.Sigma, k, model.J)
    plug_in = (3.0 * float(eig_sym(s).eigenvalues[0]) / alpha) * math.sqrt(math.log(p) / n)
    return s, SolverConfig(k=k, rho=draw(st.floats(0.5, 2.0)) * plug_in)


def solve_or_partial(s, cfg):
    try:
        return solve_fps(s, cfg)
    except NotConverged as e:
        return e.solution


class TestScreenedSolve:
    """A penalized solve answers on the screened block when a p x p KKT report certifies it."""

    @settings(max_examples=40, deadline=None)
    @given(spiked_sample())
    def test_same_answer_as_the_full_loop(self, case):
        s, cfg = case
        p = s.dim
        sol = solve_or_partial(s, cfg)
        with pytest.MonkeyPatch.context() as mp:
            full_loop_only(mp)
            try:
                loop, converged = solve_fps(fresh(s), cfg), True
            except NotConverged as e:
                loop, converged = e.solution, False
            assert loop.working_set == p
            if sol.working_set == p:
                npt.assert_array_equal(sol.H.entries, loop.H.entries)
                npt.assert_array_equal(sol.Z, loop.Z)
                assert (sol.objective, sol.iters) == (loop.objective, loop.iters)
                return
            assert sol.objective >= loop.objective - 1e-6
            assert_gate10_kkt(s.entries, sol, cfg.rho)
            if not converged:
                # at a degenerate penalty the full loop's plain step can stall
                # where the accelerated block converges; an optimum is a fixed
                # point of the full loop, so resumed from the block's answer
                # it converges at once
                loop = solve_fps(s, cfg, warm=sol)
                assert loop.working_set == p and loop.iters <= 20
        assert sol.support == loop.support
        assert np.linalg.norm(sol.H.entries - loop.H.entries) <= 1e-4

    @settings(max_examples=40, deadline=None)
    @given(spiked_sample(), st.sampled_from([0.0, 0.5]))
    def test_block_kkt_report_is_the_full_one(self, case, tau):
        # a screened answer's report, objective and support are read on its
        # J0 x J0 block (the spectrum of the block-diagonal S - rho Z - tau H
        # merged with diag(S) off J0); the p x p route on the returned H and
        # Z agrees
        s, cfg = case
        cfg = cfg.with_(tau_en=tau)
        sol = solve_or_partial(s, cfg)
        h = sol.H.entries
        full = fantope.solver._kkt_arrays(s.entries, h, sol.Z, cfg.rho, cfg.k,
                                          cfg.support_tol, sol.primal_residual, tau)
        tol = 1e-12 * (1.0 + abs(sol.objective))
        assert (sol.kkt.sign_mismatch, sol.kkt.dual_bound_violation) == (
            full.sign_mismatch, full.dual_bound_violation)
        assert abs(sol.kkt.fantope_optimality_gap - full.fantope_optimality_gap) <= tol
        assert abs(sol.kkt.eigengap - full.eigengap) <= tol
        objective = (np.sum(s.entries * h) - cfg.rho * np.sum(np.abs(h))
                     - 0.5 * tau * np.sum(h * h))
        assert abs(sol.objective - objective) <= tol
        assert sol.support == fantope.solver._extract_support(h, cfg.support_tol,
                                                              sol.primal_residual)

    def test_slow_loop_sample(self):
        # p=200, n=2000, sample seed 505: the full loop takes 4603 iterations
        # (about 27 s); its screened 5-row block about 100 (280 without the
        # acceleration)
        model = gen_spiked(200, 2, range(5), (3, 2), 1, 1)
        _, alpha = check_lcc(model.Sigma, 2, model.J)
        s = row_sample(model, 2000, 505)
        rho = (3.0 * float(eig_sym(s).eigenvalues[0]) / alpha) * math.sqrt(math.log(200) / 2000)
        sol = solve_fps(s, SolverConfig(k=2, rho=rho))
        assert sol.support.indices == tuple(range(5))
        assert sol.working_set == 5 and sol.iters <= 500
        assert_gate10_kkt(s.entries, sol, rho)

    def test_fill_off_the_block_is_s_over_rho(self):
        s, cfg = bench_case()
        sol = solve_fps(s, cfg)
        rows = fantope.solver._screen(s, cfg.rho, cfg.k)
        assert sol.working_set == rows.size < s.shape[0] // 4
        off = np.ones(s.shape, dtype=bool)
        off[np.ix_(rows, rows)] = False
        fill = s / cfg.rho
        np.fill_diagonal(fill, 0.0)
        npt.assert_array_equal(sol.Z[off], fill[off])
        assert np.all(sol.H.entries[off] == 0.0)
        assert sol.dual_clip_excess <= 1e-6

    def test_refused_certificate_falls_back(self, monkeypatch):
        # rows 1-3 are the only correlated ones, but variable 0's variance
        # outweighs their block: the block's answer is refused
        s = np.eye(20)
        s[0, 0] = 5.0
        s[1:4, 1:4] += 0.5
        cfg = SolverConfig(k=1, rho=0.2)
        assert fantope.solver._screen(s, cfg.rho, cfg.k).tolist() == [1, 2, 3]
        sol = solve_fps(s, cfg)
        assert sol.working_set == 20 and sol.support.indices == (0,)
        full_loop_only(monkeypatch)
        loop = solve_fps(s, cfg)
        npt.assert_array_equal(sol.H.entries, loop.H.entries)
        assert sol.iters == loop.iters

    def test_unconverged_block_falls_back(self):
        s, cfg = bench_case()
        with pytest.raises(NotConverged) as exc:
            solve_fps(s, cfg.with_(max_iters=10))
        assert exc.value.solution.working_set == s.shape[0]
        assert exc.value.solution.iters == 10

    def test_warm_resume_answers_on_the_block(self):
        s, cfg = spiked_case()
        cold = solve_fps(s, cfg)
        again = solve_fps(s, cfg, warm=cold)
        assert again.working_set == 5 and again.support == cold.support
        assert np.linalg.norm(again.H.entries - cold.H.entries) <= 1e-6
        assert again.iters <= 2

    @pytest.mark.parametrize("full", [False, True], ids=["block", "full-loop"])
    def test_not_converged_partial_resumes(self, monkeypatch, full):
        # a partial is a solution like any other: resumed, it reaches the cold
        # answer; two converged solves agree to about 10 eps sqrt(p), so a
        # tighter eps than the default keeps that inside 1e-6 on the full loop
        s, cfg = spiked_case()
        cfg = cfg.with_(eps=1e-8)
        if full:
            full_loop_only(monkeypatch)
        cold = solve_fps(s, cfg)
        with pytest.raises(NotConverged) as exc:
            solve_fps(s, cfg.with_(max_iters=3))
        again = solve_fps(s, cfg, warm=exc.value.solution)
        assert again.working_set == cold.working_set == (50 if full else 5)
        assert again.support == cold.support
        assert np.linalg.norm(again.H.entries - cold.H.entries) <= 1e-6

    def test_unpenalized_solve_takes_the_full_loop(self):
        s, cfg = spiked_case()
        assert solve_fps(s, cfg.with_(rho=0.0)).working_set == s.shape[0]


def plain_step(monkeypatch):
    """Turn the Anderson acceleration off: every loop takes the plain step."""
    monkeypatch.setattr(fantope.solver._Anderson, "next", lambda self, v, t, y_t, level: (t, y_t))


class TestAcceleration:
    """Loops whose every projection is exact extrapolate by safeguarded Anderson acceleration."""

    @settings(max_examples=30, deadline=None)
    @given(spiked_sample(), st.sampled_from([0.0, 0.5]))
    def test_same_answer_as_the_plain_step(self, case, tau):
        # two solves stopped at resolution eps agree to about eps sqrt(p)
        # over the eigengap, so a tighter eps than the default keeps that
        # inside 1e-5
        s, cfg = case
        cfg = cfg.with_(tau_en=tau, eps=1e-9)
        assume(4 * fantope.solver._screen(s.entries, cfg.rho, cfg.k).size <= s.dim)
        with pytest.MonkeyPatch.context() as mp:
            plain_step(mp)
            try:
                plain = solve_fps(s, cfg)
            except NotConverged:
                reject()
        # at a penalty where a variable enters the support (a tiny H_ii) or
        # S - rho Z - tau H ties at order k, the solutions form a flat face:
        # the plain step may stall there, and two solves stopped at
        # resolution eps land more than 1e-5 apart
        h_ii = np.diag(plain.H.entries)[list(plain.support.indices)]
        assume(plain.kkt.eigengap > 1e-3 and h_ii.min() > 1e-3)
        sol = solve_fps(fresh(s), cfg)
        assert sol.support == plain.support
        assert np.linalg.norm(sol.H.entries - plain.H.entries) <= 1e-5
        if tau == 0.0:
            assert_gate10_kkt(s.entries, sol, cfg.rho)
        else:
            assert sol.kkt.fantope_optimality_gap <= 1e-4 * (1.0 + abs(sol.objective))

    def test_block_iterations_on_bench_samples(self):
        # the plain step takes 42-52 iterations on these 5 x 5 blocks
        for seed in range(10000, 10016):
            s, cfg = bench_case(seed)
            sol = solve_fps(s, cfg)
            assert sol.working_set == 5 and sol.iters <= 25
            assert_gate10_kkt(s, sol, cfg.rho)

    @pytest.mark.parametrize("seed, iters, full_eigh", [(1, 33, 31), (2, 34, 32), (3, 33, 31)])
    def test_ritz_loop_keeps_its_counts(self, monkeypatch, seed, iters, full_eigh):
        # a planted clique (s = 40) runs the Ritz-tracked p x p loop, which
        # takes the plain step
        p = 200
        s = gen_planted_clique(p, 40, seed)[1]
        cfg = SolverConfig(k=1, rho=CLIQUE_RHO_MULT * math.sqrt(math.log(p) / (p - 1)),
                           support_tol=1e-3)
        s.spectrum.eigenvectors
        calls = count_linalg(monkeypatch, "eigh")
        sol = solve_fps(s, cfg)
        assert (sol.working_set, sol.iters, calls.count((p, p))) == (p, iters, full_eigh)

    def test_affine_map_converges_in_a_few_steps(self):
        # on an affine map T(v) = A v + b in n <= _AA_MEMORY unknowns, type-II
        # Anderson acceleration is GMRES: exact after about n + 1 steps
        rng = np.random.default_rng(3)
        a = 0.95 * np.diag(rng.uniform(-1.0, 1.0, 4))
        b = rng.normal(size=4)
        fixed = np.linalg.solve(np.eye(4) - a, b)
        accel, v = fantope.solver._Anderson(4), np.zeros(4)
        for _ in range(7):
            t = a @ v + b
            v, _ = accel.next(v, t, t, lambda _: 0.0)
        assert np.linalg.norm(v - fixed) <= 1e-8

    def test_rejected_extrapolation_restarts_from_the_plain_step(self):
        accel = fantope.solver._Anderson(1)
        for v, t in (([2.0], [1.0]), ([1.0], [0.9])):
            x, y = accel.next(np.array(v), np.array(t), np.array(t), lambda _: 0.0)
        assert accel.extrapolated
        # the extrapolated point's residual 5 exceeds the accepted one's 0.1
        back, y_back = accel.next(x, x + 5.0, x + 5.0, lambda _: 0.0)
        assert back.tolist() == y_back.tolist() == [0.9]
        assert (accel.count, accel.extrapolated) == (0, False)


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

    @pytest.mark.parametrize("bad", ["other_dim", "scalar", "pair"])
    def test_malformed_solution_rejected(self, bad):
        sol = {
            "other_dim": solve_fps(np.eye(4) + 0.1, SolverConfig(k=1, rho=0.1)),
            "scalar": 3.0,
            "pair": (np.eye(3), np.zeros((3, 3))),
        }[bad]
        with pytest.raises(InvalidInput):
            check_kkt(np.eye(3), sol, 0.1)

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
        lambda: (TOY, 1.5, 1),
        lambda: (gen_spiked(50, 1, range(5), (2.0,), 1.0, 8).Sigma, 2.0, 1),
    ] + [lambda c=c: budget_input(c) for c in BUDGET_HARD.values()],
        ids=["toy", "gate8-population"] + list(BUDGET_HARD))
    def test_kkt_at_rho_star(self, case):
        # the budget solve is the penalized solve at rho*, and says so; the
        # hard corpus converges in 678, 2145, 1901 and 972 iterations
        s, r, k = case()
        sol, rho_star = solve_fps_constrained(s, r, SolverConfig(k=k, max_iters=3000))
        assert rho_star > 0.0
        rep = check_kkt(s, sol, rho_star)
        assert rep == sol.kkt
        assert rep.sign_mismatch <= 1e-4
        assert rep.dual_bound_violation <= 1e-6
        assert rep.fantope_optimality_gap <= 1e-4 * (1.0 + abs(sol.objective))

    @pytest.mark.parametrize("max_iters", [279, 280, 281])
    def test_partial_is_read_at_its_last_step(self, max_iters):
        # a budget solve stopped early is read at rho* = step * level of its
        # last iterate: Z = (step / rho*) U keeps |Z| <= 1 with the signs of
        # H, and the objective is the penalized one at that rho*
        s, r, k = budget_input(BUDGET_HARD["tail-500000"])
        with pytest.raises(NotConverged) as exc:
            solve_fps_constrained(s, r, SolverConfig(k=k, max_iters=max_iters))
        sol = exc.value.solution
        assert np.max(np.abs(sol.Z)) == pytest.approx(1.0, abs=1e-12)
        assert sol.kkt.sign_mismatch <= 1e-12
        assert sol.objective == pytest.approx(2.669, abs=1e-3)

    def test_step_scaled_by_the_spectral_norm(self):
        # at step ||S||_2 this resample takes 36 iterations; at step 1 it
        # takes 202
        model = gen_spiked(50, 1, range(5), (2.0,), 1.0, 8)
        s = row_sample(model, 2000, 930)
        sol, _ = solve_fps_constrained(s, 2.0, SolverConfig(k=1, max_iters=2000))
        assert sol.iters <= 50


def probe_with_resume(s, cfg, sol):
    """uniqueness_probe handed sol, and the elastic-net resume it solved."""
    real, resumes = fantope.solver.solve_fps, []

    def recording(*args, **kwargs):
        resumes.append(real(*args, **kwargs))
        return resumes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fantope.solver, "solve_fps", recording)
        probe, _ = uniqueness_probe(s, cfg, solution=sol)
    return probe, resumes[0]


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

    @settings(max_examples=40, deadline=None)
    @given(spiked_sample())
    def test_block_resume_agrees_with_the_full_loop(self, case):
        # the elastic-net resume answers on the screened block like any solve;
        # forced onto the p x p loop it gives the same verdict
        s, cfg = case
        try:
            sol = solve_fps(s, cfg)
        except NotConverged:
            assume(False)
        assume(sol.kkt.eigengap > fantope.solver._GAP_TIE_TOL)
        probe, resume = probe_with_resume(s, cfg, sol)
        assume(resume.working_set < s.dim)
        with pytest.MonkeyPatch.context() as mp:
            full_loop_only(mp)
            full_probe, full_resume = probe_with_resume(s, cfg, sol)
        assert full_resume.working_set == s.dim
        assert probe.unique == full_probe.unique
        assert abs(probe.discrepancy - full_probe.discrepancy) <= 1e-5
        assert np.linalg.norm(resume.H.entries - full_resume.H.entries) <= 1e-5


class TestWarmStart:
    @WARM_CASES
    def test_converged_solve_resumes_in_place(self, case):
        s, cfg = case()
        sol = solve_fps(s, cfg)
        again = solve_fps(s, cfg, warm=sol)
        assert again.iters <= 2
        assert np.linalg.norm(again.H.entries - sol.H.entries) <= 1e-6

    @WARM_CASES
    def test_probe_route_resumes_in_place(self, case):
        # for tau inside the gap the plain answer is a fixed point of the
        # elastic-net iteration too
        s, cfg = case()
        probe, sol = uniqueness_probe(s, cfg)
        assert probe.unique
        en = solve_fps(s, cfg.with_(tau_en=probe.tau), warm=sol)
        assert en.iters <= 2

    @WARM_CASES
    def test_warm_start_keeps_the_limit(self, case):
        # strongly concave: any start reaches the cold solve's answer, here
        # the solutions at other penalties
        s, cfg = case()
        probe, _ = uniqueness_probe(s, cfg)
        cfg_en = cfg.with_(tau_en=probe.tau)
        cold = solve_fps(s, cfg_en)
        for mult in (0.0, 0.5, 2.0):
            other = solve_fps(s, cfg.with_(rho=mult * cfg.rho))
            warm = solve_fps(s, cfg_en, warm=other)
            assert np.linalg.norm(warm.H.entries - cold.H.entries) <= 1e-5

    @pytest.mark.parametrize("warm", [
        "other_dim", "other_k", "z_shape", "pair", "non_finite", "ragged", "scalar",
    ])
    def test_malformed_warm_rejected(self, warm):
        # solve_fps(warm=) and uniqueness_probe(solution=) share the one check
        s = rand_sym(np.random.default_rng(2), 4)
        cfg = SolverConfig(k=1, rho=0.1)
        sol = solve_fps(s, cfg)
        a = np.zeros((4, 4))
        bad = {
            "other_dim": solve_fps(s[:3, :3], cfg),
            "other_k": solve_fps(s, cfg.with_(k=2)),
            "z_shape": replace(sol, Z=sol.Z[:3, :3]),
            "pair": (a, a),
            "non_finite": replace(sol, Z=np.full((4, 4), np.nan)),
            "ragged": (a, a, [[0.0, 1.0], [2.0]]),
            "scalar": 3.0,
        }[warm]
        with pytest.raises(InvalidInput):
            solve_fps(s, cfg, warm=bad)
        with pytest.raises(InvalidInput):
            uniqueness_probe(s, cfg, solution=bad)


class TestInvariance:
    """Solves commute with relabelling the variables and with rescaling S and rho."""

    # seeded p=30 spiked samples whose solves take under ~300 iterations
    SEEDS = pytest.mark.parametrize("seed", [1, 2, 4])

    @staticmethod
    def sample(seed):
        model = gen_spiked(30, 2, range(5), (3.0, 2.0), 1.0, seed)
        return row_sample(model, 2000, seed + 50).entries

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
