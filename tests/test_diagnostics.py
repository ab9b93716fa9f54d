import numpy as np
import numpy.testing as npt
import pytest

from fantope.base import SupportSet, l11_norm
from fantope.diagnostics import (
    ConditionReport,
    WitnessReport,
    build_witness,
    check_lcc,
    check_recovery_conditions,
    check_sample_conditions,
    check_sps,
    frobenius_bound_check,
    l11_row_bound,
    persistence_gap,
    sign_rank_one,
    stability_check,
    support_error,
)
from fantope.errors import InvalidInput, SpsViolated
from fantope.models import gen_spiked, gen_toy, sample_covariance, sample_gaussian
from fantope.solver import SolverConfig, solve_fps
from fantope.spectral import FantopePoint, top_k_projector
from oracles import random_feasible_point, sign_rank_one_bruteforce
from test_solver import count_linalg

TOY = gen_toy(0.0).Sigma.entries


def toy_gap(t):
    # eigengap of the 3x3 test matrix: 1.7 minus the larger eigenvalue of
    # the complementary 2x2 block [[0.1, t*sqrt2], [t*sqrt2, 1]]
    return 1.7 - (1.1 + np.sqrt(0.81 + 8.0 * t * t)) / 2.0


class TestCheckSps:
    def test_toy(self):
        gap, support = check_sps(TOY, 1)
        assert gap == pytest.approx(0.7, abs=1e-12)
        assert support.indices == (0, 1)

    def test_degenerate_identity(self):
        gap, _ = check_sps(np.eye(4), 2)
        assert abs(gap) <= 1e-12  # unreliable support, flagged by zero gap

    def test_spiked_support_matches_plant(self):
        m = gen_spiked(40, 2, (3, 7, 11, 19), (2.0, 1.5), 1.0, seed=5)
        _, support = check_sps(m.Sigma, 2)
        assert support.indices == m.J.indices


class TestCheckLcc:
    def test_block_diagonal_budget_is_free(self):
        lhs, alpha = check_lcc(TOY, 1, (0, 1))
        assert lhs == 0.0
        assert alpha == 1.0

    def test_small_coupling(self):
        sig = gen_toy(0.02).Sigma
        lhs, alpha = check_lcc(sig, 1, (0, 1))
        expect = 16.0 * 0.02 * np.sqrt(2.0) / toy_gap(0.02)
        assert lhs == pytest.approx(expect, rel=1e-12)
        assert lhs == pytest.approx(0.64731, abs=1e-4)
        assert alpha == pytest.approx(1.0 - expect, rel=1e-9)
        assert alpha >= 0.3

    def test_large_coupling_exhausts_budget(self):
        sig = gen_toy(0.1).Sigma
        lhs, alpha = check_lcc(sig, 1, (0, 1))
        assert lhs == pytest.approx(16.0 * 0.1 * np.sqrt(2.0) / toy_gap(0.1), rel=1e-12)
        assert lhs > 3.3
        assert alpha == 0.0

    def test_collapsed_gap_raises(self):
        with pytest.raises(SpsViolated):
            check_lcc(np.eye(4), 2, (0, 1))


class TestSignRankOne:
    def test_positive_pair(self):
        assert sign_rank_one(np.array([[0.9, 0.8], [0.8, 0.9]]), (0, 1))

    def test_signed_pair(self):
        assert sign_rank_one(np.array([[1.0, -0.5], [-0.5, 1.0]]), (0, 1))

    def test_inconsistent_pattern(self):
        m = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
        assert not sign_rank_one(m, (0, 1, 2))

    def test_zero_entry_disqualifies(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert not sign_rank_one(m, (0, 1))

    def test_against_bruteforce(self):
        rng = np.random.default_rng(17)
        agree = 0
        for _ in range(200):
            s = int(rng.integers(2, 7))
            m = rng.choice([-1.0, 1.0], size=(s, s)) * rng.uniform(0.1, 1, (s, s))
            m = np.triu(m) + np.triu(m, 1).T
            got = sign_rank_one(m, tuple(range(s)))
            want = sign_rank_one_bruteforce(m)
            assert got == want
            agree += got
        assert 0 < agree < 200  # both outcomes exercised


class TestSupportError:
    def test_exact(self):
        assert support_error((0, 1), (0, 1)) == (0, 0, True)

    def test_false_positive(self):
        assert support_error((0, 1, 2), (0, 1)) == (1, 0, False)

    def test_false_negative(self):
        assert support_error((0,), (0, 1)) == (0, 1, False)


class TestL11RowBound:
    def test_sparse_projector_attains_equality(self):
        pi, _ = top_k_projector(TOY, 1)
        lhs, rhs, ok = l11_row_bound(pi)
        assert lhs == pytest.approx(2.0, abs=1e-9)
        assert rhs == 2.0  # k=1 times two live rows
        assert ok

    def test_random_members(self):
        rng = np.random.default_rng(23)
        from fantope.spectral import FantopePoint

        for _ in range(25):
            p = int(rng.integers(3, 12))
            k = int(rng.integers(1, p + 1))
            h = random_feasible_point(rng, p, k)
            point = FantopePoint.from_entries(h, k)
            lhs, rhs, ok = l11_row_bound(point)
            assert ok, (lhs, rhs)


class TestRecoveryConditions:
    def test_toy_small_penalty(self):
        rep = check_recovery_conditions(TOY, TOY, 1, (0, 1), 0.01)
        assert isinstance(rep, ConditionReport)
        assert rep.sps_gap == pytest.approx(0.7, abs=1e-12)
        assert rep.det_cond1_lhs == pytest.approx(0.0, abs=1e-12)
        # the penalty ceiling is violated even at rho = 0.01: the slack is
        # 0.7 - 0.08 * (1 + 8 * 1.7 / 0.7), clearly negative
        assert rep.det_cond2_slack == pytest.approx(-0.9342857142857143, rel=1e-12)
        assert rep.signal_min_leverage == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert rep.signal_leverage_required == pytest.approx(0.08 / 0.7, rel=1e-12)
        assert rep.signal_min_leverage > rep.signal_leverage_required
        assert rep.entrywise_min_ok
        assert rep.prob_sample_ok is None
        assert rep.rho == 0.01

    def test_penalty_ceiling_crossover(self):
        # slack flips sign at rho = 0.7 / (8 * (1 + 8*1.7/0.7)) ~ 0.004283
        good = check_recovery_conditions(TOY, TOY, 1, (0, 1), 0.004)
        assert good.det_cond2_slack == pytest.approx(0.324 / 7.0, rel=1e-9)
        bad = check_recovery_conditions(TOY, TOY, 1, (0, 1), 0.5)
        assert bad.det_cond2_slack == pytest.approx(0.7 - 4.0 * (1 + 8 * 1.7 / 0.7), rel=1e-12)
        assert bad.det_cond2_slack < -81

    def test_entrywise_clause_penalty_limit(self):
        # support block minimum 0.8 exceeds 2*rho only below rho = 0.4
        ok = check_recovery_conditions(TOY, TOY, 1, (0, 1), 0.39)
        assert ok.entrywise_min_ok
        bad = check_recovery_conditions(TOY, TOY, 1, (0, 1), 0.41)
        assert not bad.entrywise_min_ok

    def test_noise_enters_first_condition(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=(3, 3))
        e = 0.5 * (e + e.T)
        np.fill_diagonal(e, 0.0)
        e /= np.max(np.abs(e))
        s = TOY + 0.02 * e
        rep = check_recovery_conditions(TOY, s, 1, (0, 1), 0.05)
        assert rep.det_cond1_lhs == pytest.approx(0.02 / 0.05, rel=1e-12)

    def test_rejects_zero_penalty(self):
        with pytest.raises(InvalidInput):
            check_recovery_conditions(TOY, TOY, 1, (0, 1), 0.0)

    def test_flat_dict_roundtrip(self):
        import json

        rep = check_recovery_conditions(TOY, TOY, 1, (0, 1), 0.01)
        d = rep.to_flat_dict()
        assert d["sps_support"] == [0, 1]
        assert json.loads(json.dumps(d))["lcc_alpha"] == 1.0


class TestSampleConditions:
    def test_large_sample_eventually_passes(self):
        m = gen_spiked(50, 1, (0, 1, 2), (2.0,), 1.0, seed=1)
        rep = check_sample_conditions(m.Sigma, 1, m.J, 10**6, 1.0, 1.0)
        assert rep.prob_sample_ok
        assert rep.rho == pytest.approx(np.sqrt(np.log(50) / 1e6), rel=1e-12)
        assert rep.det_cond1_lhs is None
        assert rep.det_cond2_slack > 0

    def test_tiny_sample_fails(self):
        m = gen_spiked(10, 1, (0, 1, 2, 3, 4), (2.0,), 1.0, seed=2)
        rep = check_sample_conditions(m.Sigma, 1, m.J, 10, 3.0, 1.0)
        assert not rep.prob_sample_ok

    def test_prescribed_penalty_formula(self):
        m = gen_spiked(100, 1, (0, 1, 2, 3, 4), (2.0,), 1.0, seed=3)
        rep = check_sample_conditions(m.Sigma, 1, m.J, 8000, 9.0, 0.5)
        assert rep.rho == pytest.approx(18.0 * np.sqrt(np.log(100) / 8000), rel=1e-12)

    def test_input_validation(self):
        m = gen_spiked(50, 1, (0, 1), (2.0,), 1.0, seed=4)
        with pytest.raises(InvalidInput):
            check_sample_conditions(m.Sigma, 1, m.J, 3, 1.0, 1.0)  # n < log p
        with pytest.raises(InvalidInput):
            check_sample_conditions(m.Sigma, 1, m.J, 100, 1.0, 0.0)
        with pytest.raises(InvalidInput):
            check_sample_conditions(m.Sigma, 1, m.J, 100, 1.0, 1.5)


class TestRealArguments:
    M = gen_spiked(50, 1, (0, 1), (2.0,), 1.0, seed=4)

    @pytest.mark.parametrize("call", [
        lambda m: check_sample_conditions(m.Sigma, 1, m.J, "a", 1.0, 1.0),
        lambda m: check_sample_conditions(m.Sigma, 1, m.J, np.nan, 1.0, 1.0),
        lambda m: check_sample_conditions(m.Sigma, 1, m.J, np.inf, 1.0, 1.0),
        lambda m: check_sample_conditions(m.Sigma, 1, m.J, None, 1.0, 1.0),
        lambda m: check_sample_conditions(m.Sigma, 1, m.J, 100, 1.0, "a"),
        lambda m: check_sample_conditions(m.Sigma, 1, m.J, 100, np.nan, 1.0),
        lambda m: check_sample_conditions(m.Sigma, 1, m.J, 100, -1.0, 1.0),
        lambda m: check_recovery_conditions(m.Sigma, m.Sigma, 1, m.J, np.nan),
        lambda m: check_recovery_conditions(m.Sigma, m.Sigma, 1, m.J, "a"),
        lambda m: build_witness(m.Sigma, m.Sigma, 1, m.J, np.nan),
        lambda m: build_witness(m.Sigma, m.Sigma, 1, m.J, "a"),
    ], ids=["n-str", "n-nan", "n-inf", "n-none", "alpha-str", "sigma_scale-nan",
            "sigma_scale-negative", "recovery-rho-nan", "recovery-rho-str",
            "witness-rho-nan", "witness-rho-str"])
    def test_rejected_as_invalid_input(self, call):
        with pytest.raises(InvalidInput):
            call(self.M)


class TestOnePopulationSpectrum:
    @staticmethod
    def spiked_pair():
        m = gen_spiked(30, 2, (1, 4, 9, 16, 25), (3.0, 2.0), 1.0, seed=3)
        return m, sample_covariance(sample_gaussian(m, 2000, seed=4)).entries

    @pytest.mark.parametrize("check", [
        lambda sigma, m, s, sol: check_recovery_conditions(sigma, s, 2, m.J, 0.1),
        lambda sigma, m, s, sol: check_sample_conditions(sigma, 2, m.J, 2000, 3.0, 0.5),
        lambda sigma, m, s, sol: frobenius_bound_check(sigma, s, 2, m.J, 0.1, sol),
    ], ids=["recovery", "sample", "frobenius"])
    def test_one_eigendecomposition_of_sigma(self, monkeypatch, check):
        m, s = self.spiked_pair()
        sol = solve_fps(s, SolverConfig(k=2, rho=0.1))
        calls = count_linalg(monkeypatch, "eigh")
        # a raw copy of Sigma is decomposed once per check
        check(m.Sigma.entries.copy(), m, s, sol)
        assert calls.count((30, 30)) == 1
        # the model's SymMat carries the spectrum its generator took
        check(m.Sigma, m, s, sol)
        assert calls.count((30, 30)) == 1

    @pytest.mark.parametrize("check", [check_recovery_conditions, build_witness],
                             ids=["recovery", "witness"])
    def test_model_sigma_takes_no_eigh(self, monkeypatch, check):
        m, s = self.spiked_pair()
        calls = count_linalg(monkeypatch, "eigh")
        check(m.Sigma, s, 2, m.J, 0.1)
        assert calls.count((30, 30)) == 0

    def test_reports_are_permutation_invariant(self):
        m, s = self.spiked_pair()
        sigma = m.Sigma.entries
        perm = np.random.default_rng(5).permutation(30)
        inv = np.argsort(perm)  # old index i sits at new index inv[i]
        sig_p, s_p = sigma[np.ix_(perm, perm)], s[np.ix_(perm, perm)]
        j_p = inv[m.J.as_array()]
        pairs = [
            (check_recovery_conditions(sigma, s, 2, m.J, 0.1),
             check_recovery_conditions(sig_p, s_p, 2, j_p, 0.1)),
            (check_sample_conditions(sigma, 2, m.J, 2000, 3.0, 0.5),
             check_sample_conditions(sig_p, 2, j_p, 2000, 3.0, 0.5)),
        ]
        for before, after in pairs:
            a, b = before.to_flat_dict(), after.to_flat_dict()
            assert b.pop("sps_support") == sorted(inv[a.pop("sps_support")])
            for key, value in a.items():
                if value is None or isinstance(value, bool):
                    assert b[key] == value, key
                else:
                    assert b[key] == pytest.approx(value, rel=1e-12), key


class TestFrobeniusBound:
    def test_toy_small_penalty(self):
        sol = solve_fps(TOY, SolverConfig(k=1, rho=0.01))
        lhs, rhs, ok = frobenius_bound_check(TOY, TOY, 1, (0, 1), 0.01, sol)
        assert rhs == pytest.approx(0.08 / 0.7, rel=1e-12)
        assert lhs <= rhs
        assert ok

    def test_zero_penalty_tight(self):
        sol = solve_fps(TOY, SolverConfig(k=1, rho=0.0))
        lhs, rhs, ok = frobenius_bound_check(TOY, TOY, 1, (0, 1), 0.0, sol)
        assert rhs == 0.0
        assert lhs <= 1e-6
        assert ok

    def test_degenerate_raises(self):
        sol = solve_fps(TOY, SolverConfig(k=1, rho=0.0))
        with pytest.raises(SpsViolated):
            frobenius_bound_check(np.eye(3), TOY, 1, (0, 1), 0.1, sol)


class TestBuildWitness:
    def test_toy_certificate_is_clean(self):
        rep = build_witness(TOY, TOY, 1, (0, 1), 0.01)
        assert isinstance(rep, WitnessReport)
        assert rep.Q_bound == pytest.approx(0.16 / 0.7, rel=1e-12)
        assert rep.Q_deviation <= 1e-6
        assert rep.dual_offsupport_max <= 1e-6
        # the only residual is the subproblem's penalty shift, norm rho
        assert rep.noise_opnorm == pytest.approx(0.01, abs=1e-6)
        assert rep.signal_gap == pytest.approx(0.7, abs=1e-12)
        assert rep.witness_valid
        # the restricted solution is the pair projector, embedded
        pair = np.zeros((3, 3))
        pair[:2, :2] = 0.5
        npt.assert_allclose(rep.Htilde.entries, pair, atol=1e-6)

    def test_exact_population_input_certifies_despite_coupling(self):
        # with no sampling error the restricted subproblem reproduces the
        # population block exactly, so the certificate stays feasible even
        # when the correlation budget check fails (it is only sufficient)
        rep = build_witness(gen_toy(0.1).Sigma, gen_toy(0.1).Sigma, 1, (0, 1), 0.01)
        assert rep.dual_offsupport_max <= 1e-6
        assert rep.witness_valid

    def test_noisy_estimate_with_tiny_penalty_breaks_feasibility(self):
        m = gen_toy(0.1)
        batch = sample_gaussian(m, 200, seed=11)
        s = sample_covariance(batch)
        rep = build_witness(m.Sigma, s, 1, (0, 1), 1e-4)
        assert rep.dual_offsupport_max > 1.0
        assert not rep.witness_valid

    def test_spiked_sampled_instance(self):
        m = gen_spiked(30, 1, (0, 1, 2, 3), (2.0,), 1.0, seed=7)
        batch = sample_gaussian(m, 4000, seed=8)
        s = sample_covariance(batch)
        w_norm = np.max(np.abs(s.entries - m.Sigma.entries))
        rep = build_witness(m.Sigma, s, 1, m.J, 1.1 * w_norm)
        assert rep.dual_offsupport_max <= 1.0 + 1e-6
        assert rep.witness_valid

    def test_rejects_vanishing_penalty(self):
        with pytest.raises(InvalidInput):
            build_witness(TOY, TOY, 1, (0, 1), 0.0)

    def test_support_must_carry_rank(self):
        with pytest.raises(InvalidInput):
            build_witness(TOY, TOY, 2, (0,), 0.01)

    @pytest.mark.parametrize("call", [
        lambda: check_recovery_conditions(TOY, TOY, 1, (), 0.1),
        lambda: check_recovery_conditions(TOY, TOY, 2, (0,), 0.1),
        lambda: check_sample_conditions(TOY, 1, (), 100, 1.0, 1.0),
    ], ids=["recovery-empty", "recovery-rank2", "sample-empty"])
    def test_conditions_share_the_support_rule(self, call):
        # the condition checks reject a support the certificate rejects
        with pytest.raises(InvalidInput, match="cannot carry a rank"):
            call()

    def test_full_support_has_no_offsupport_block(self):
        rep = build_witness(TOY, TOY, 1, (0, 1, 2), 0.01)
        assert rep.dual_offsupport_max == 0.0

    def test_no_full_size_eigvalsh(self, monkeypatch):
        # Htilde = block-diag(B, 0) carries the support block's certified
        # residual, since its spectrum is eig(B) plus zeros
        m = gen_spiked(30, 1, (0, 1, 2, 3), (2.0,), 1.0, seed=7)
        s = sample_covariance(sample_gaussian(m, 4000, seed=8)).entries
        real, calls = np.linalg.eigvalsh, []

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rep = build_witness(m.Sigma, s, 1, m.J, 0.1)
        monkeypatch.undo()
        assert calls and (30, 30) not in calls
        full = FantopePoint.from_entries(rep.Htilde.entries, 1)
        npt.assert_array_equal(full.entries, rep.Htilde.entries)
        assert rep.Htilde.k == 1 and rep.Htilde.dim == 30
        assert abs(full.constraint_residual - rep.Htilde.constraint_residual) <= 1e-12

    def test_flat_dict_excludes_matrix(self):
        rep = build_witness(TOY, TOY, 1, (0, 1), 0.01)
        d = rep.to_flat_dict()
        assert "Htilde" not in d
        assert d["witness_valid"] is True


class TestPersistenceGap:
    def test_no_noise_no_gap(self):
        pop, emp, gap, bound = persistence_gap(TOY, TOY, 1, 2.0)
        assert pop == pytest.approx(1.7, abs=1e-6)
        assert abs(gap) <= 1e-9
        assert bound == 0.0

    def test_entrywise_perturbation(self):
        e = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 1.0], [-1.0, 1.0, 0.0]])
        s = TOY + 0.01 * e
        pop, emp, gap, bound = persistence_gap(TOY, s, 1, 2.0)
        assert bound == pytest.approx(0.04, rel=1e-12)
        assert -1e-6 <= gap <= bound + 1e-3


class TestStabilityCheck:
    def test_zero_perturbation(self):
        f_diff, bound = stability_check(TOY, np.zeros((3, 3)), 1, 2.0)
        assert f_diff <= 1e-9
        assert bound == 0.0

    def test_support_block_perturbation(self):
        delta = np.zeros((3, 3))
        delta[0, 1] = delta[1, 0] = 0.05
        f_diff, bound = stability_check(TOY, delta, 1, 2.0)
        assert bound == pytest.approx(0.2, rel=1e-12)
        assert f_diff == pytest.approx(0.05, abs=1e-4)

    def test_random_perturbation_respects_bound(self):
        rng = np.random.default_rng(31)
        d = rng.normal(size=(3, 3))
        d = 0.5 * (d + d.T)
        d *= 0.1 / np.max(np.abs(d))
        f_diff, bound = stability_check(TOY, d, 1, 1.0)
        assert bound == pytest.approx(0.2, rel=1e-12)
        assert f_diff <= bound + 1e-3
