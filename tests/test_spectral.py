import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fantope.spectral
from fantope.diagnostics import check_recovery_conditions, check_sps
from fantope.errors import InvalidInput, NumericalFailure
from fantope.models import gen_spiked
from fantope.solver import _GAP_TIE_TOL, SolverConfig, solve_fps, solve_fps_constrained
from fantope.spectral import (
    FantopePoint,
    SymMat,
    _project,
    _ritz_project,
    _water_fill,
    as_sym,
    eig_sym,
    fantope_project,
    procrustes_align,
    top_k_projector,
)
from oracles import random_feasible_point, waterfill_theta_bisect, waterfill_theta_breakpoints
from test_solver import count_linalg

RT2 = np.sqrt(2.0)


def rand_sym(rng, p, scale=1.0):
    a = rng.normal(scale=scale, size=(p, p))
    return 0.5 * (a + a.T)


class TestSymMat:
    def test_symmetrizes_and_records_residual(self):
        a = np.array([[1.0, 2.0], [2.5, 3.0]])
        m = SymMat.from_array(a)
        npt.assert_allclose(m.entries, [[1.0, 2.25], [2.25, 3.0]])
        assert m.asym_residual == pytest.approx(0.5)

    def test_rejects_nonfinite_and_nonsquare(self):
        with pytest.raises(InvalidInput):
            SymMat.from_array(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(InvalidInput):
            SymMat.from_array(np.ones((2, 3)))

    def test_as_sym_passthrough(self):
        m = SymMat.from_array(np.eye(3))
        assert as_sym(m) is m

    def test_entries_do_not_alias_a_writable_array(self):
        # a caller's later write reaches neither the kept spectrum nor a solve
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        m = SymMat(entries=a)
        top = eig_sym(m).eigenvalues[0]
        a[0, 0] = 100.0
        assert not m.entries.flags.writeable
        npt.assert_array_equal(m.entries, [[2.0, 1.0], [1.0, 3.0]])
        assert eig_sym(m).eigenvalues[0] == top == pytest.approx((5.0 + 5.0 ** 0.5) / 2.0)
        assert solve_fps(m, SolverConfig(k=1)).objective == pytest.approx(top, abs=1e-6)

    def test_read_only_entries_are_taken_as_given(self):
        a = np.eye(3)
        a.flags.writeable = False
        assert SymMat(entries=a).entries is a
        m = SymMat.from_array(np.eye(3))
        assert SymMat(entries=m.entries).entries is m.entries

    def test_restriction_is_kept(self):
        m = SymMat.from_array(rand_sym(np.random.default_rng(4), 6))
        rows = np.array([1, 3, 4])
        block = m._restrict(rows)
        npt.assert_array_equal(block.entries, m.entries[np.ix_(rows, rows)])
        assert not block.entries.flags.writeable
        assert m._restrict([1, 3, 4]) is block
        other = m._restrict(np.array([0, 1]))
        assert other is not block and m._restrict(np.array([0, 1])) is other

    def test_one_spectrum_per_matrix(self, monkeypatch):
        a = rand_sym(np.random.default_rng(6), 8)
        m = SymMat.from_array(a)
        calls = count_linalg(monkeypatch, "eigh")
        assert eig_sym(m) is eig_sym(m) is m.spectrum
        m.spectrum.eigenvectors
        assert calls == [(8, 8)]
        # the projections read the retained spectrum, and agree with a raw array's
        res, (pi, _) = fantope_project(m, 3), top_k_projector(m, 3)
        assert res.spectrum is m.spectrum
        assert calls == [(8, 8)]
        npt.assert_allclose(res.point.entries, fantope_project(a, 3).point.entries,
                            rtol=0, atol=1e-12)
        npt.assert_allclose(pi.entries, top_k_projector(a, 3)[0].entries, rtol=0, atol=1e-12)
        assert calls == [(8, 8)] * 3  # a raw array is decomposed afresh


def spectral_calls(monkeypatch):
    """Wrap np.linalg.eigh and eigvalsh; returns the list of (name, input) they see."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append((_name, a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def of_order(calls, p):
    return sorted(name for name, a in calls if np.shape(a) == (p, p))


def on(calls, a):
    return sorted(name for name, x in calls if x is a)


class TestSpectralCallBudget:
    """Each spectrum is taken as the caller reads it: lambda_1 alone by eigvalsh,
    anything needing eigenvectors by one eigh, never both for a fresh matrix."""

    P = 40

    @classmethod
    def fresh(cls):
        return SymMat.from_array(rand_sym(np.random.default_rng(9), cls.P))

    def test_eigenvalues_alone_take_one_eigvalsh(self, monkeypatch):
        m = self.fresh()
        calls = spectral_calls(monkeypatch)
        w = eig_sym(m).eigenvalues
        assert on(calls, m.entries) == of_order(calls, self.P) == ["eigvalsh"]
        # vectors read later take their eigh, and the eigenvalues read first are kept
        v = m.spectrum.eigenvectors
        assert m.spectrum.eigenvalues is w
        assert of_order(calls, self.P) == ["eigh", "eigvalsh"]
        npt.assert_allclose((v * w) @ v.T, m.entries, rtol=0, atol=1e-12)

    def test_generator_takes_one_eigh(self, monkeypatch):
        calls = spectral_calls(monkeypatch)
        model = gen_spiked(self.P, 2, range(5), (3.0, 2.0), 1.0, 12)
        assert on(calls, model.Sigma.entries) == of_order(calls, self.P) == ["eigh"]

    @pytest.mark.parametrize("read", [
        lambda m: eig_sym(m).ascending(),
        lambda m: eig_sym(m).reconstruct(),
        lambda m: fantope_project(m, 2),
        lambda m: top_k_projector(m, 2),
        lambda m: check_recovery_conditions(m, m, 2, range(5), 0.1),
    ], ids=["ascending", "reconstruct", "fantope_project", "top_k_projector",
            "recovery_conditions"])
    def test_both_arrays_take_one_eigh(self, monkeypatch, read):
        m = SymMat.from_array(gen_spiked(self.P, 2, range(5), (3.0, 2.0), 1.0, 12).Sigma.entries)
        calls = spectral_calls(monkeypatch)
        read(m)
        assert on(calls, m.entries) == of_order(calls, self.P) == ["eigh"]

    @pytest.mark.parametrize("solve", [
        lambda m: solve_fps(m, SolverConfig(k=2, rho=0.0)),
        lambda m: solve_fps_constrained(m, 3.0, SolverConfig(k=2)),
    ], ids=["full_loop", "constrained"])
    def test_a_cold_solve_takes_one_eigh_of_s(self, monkeypatch, solve):
        # the loop decomposes its own iterates too; S itself is decomposed once
        m = self.fresh()
        calls = spectral_calls(monkeypatch)
        solve(m)
        assert on(calls, m.entries) == ["eigh"]


class TestEigSym:
    def test_correlated_pair_closed_form(self):
        # [[a, b], [b, a]] has eigenpairs (a+b, (1,1)/sqrt2), (a-b, (1,-1)/sqrt2)
        spec = eig_sym(np.array([[0.9, 0.8], [0.8, 0.9]]))
        npt.assert_allclose(spec.eigenvalues, [1.7, 0.1], atol=1e-14)
        v1 = spec.eigenvectors[:, 0]
        npt.assert_allclose(np.abs(v1), [1 / RT2, 1 / RT2], atol=1e-14)

    def test_descending_order_and_reconstruction(self):
        rng = np.random.default_rng(7)
        for p in (3, 8, 20):
            a = rand_sym(rng, p)
            spec = eig_sym(a)
            assert np.all(np.diff(spec.eigenvalues) <= 1e-14)
            npt.assert_allclose(spec.reconstruct(), a, atol=1e-9)
            v = spec.eigenvectors
            npt.assert_allclose(v.T @ v, np.eye(p), atol=1e-9)

    def test_invalid_input(self):
        with pytest.raises(InvalidInput):
            eig_sym(np.full((3, 3), np.inf))


class TestFantopeProject:
    def test_separated_spectrum_k1(self):
        # water level lands at theta = 2: clip(3-2)=1, clip(2-2)=0, clip(1-2)=0
        res = fantope_project(np.diag([3.0, 2.0, 1.0]), 1)
        assert res.theta == pytest.approx(2.0, abs=1e-12)
        npt.assert_allclose(res.point.entries, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_zero_matrix_splits_evenly(self):
        # all eigenvalues tie at 0: clip(0-theta) = 1/2 each at theta = -1/2
        res = fantope_project(np.zeros((2, 2)), 1)
        assert res.theta == pytest.approx(-0.5, abs=1e-12)
        npt.assert_allclose(res.point.entries, 0.5 * np.eye(2), atol=1e-12)

    def test_separated_spectrum_k2(self):
        res = fantope_project(np.diag([5.0, 4.0, 1.0]), 2)
        assert res.theta == pytest.approx(3.0, abs=1e-12)
        npt.assert_allclose(res.point.entries, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_k_equals_p_gives_identity(self):
        res = fantope_project(rand_sym(np.random.default_rng(0), 4), 4)
        npt.assert_allclose(res.point.entries, np.eye(4), atol=1e-12)

    def test_large_magnitude_keeps_the_weights(self):
        # a slack scaled by max |gamma| once took every kink, leaving g = 0
        _, g = _water_fill(np.array([3.47, 3.77, 1e15]), 1)
        assert g.tolist() == [0.0, 0.0, 1.0]
        res = fantope_project(np.diag([3.47, 3.77, 1e15]), 1)
        npt.assert_array_equal(res.point.entries, np.diag([0.0, 0.0, 1.0]))
        assert res.point.constraint_residual == 0.0

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e12, -1e14])
    def test_weights_sum_to_k_at_any_offset(self, offset):
        # the scan runs on gamma - max(gamma): its rounding follows the
        # entries near the water level, not the offset
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = int(rng.integers(1, 30))
            k = int(rng.integers(1, p + 1))
            base = np.sort(rng.normal(scale=float(rng.uniform(0.1, 5.0)), size=p))
            theta, g = _water_fill(base + offset, k)
            assert abs(float(g.sum()) - k) <= 1e-8 * k
            assert np.all((g >= 0.0) & (g <= 1.0))
            assert abs(theta - offset - _water_fill(base, k)[0]) <= 1e-9 * (1.0 + abs(offset))

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = int(rng.integers(2, 30))
            k = int(rng.integers(1, p + 1))
            a = rand_sym(rng, p, scale=float(rng.uniform(0.1, 5.0)))
            res = fantope_project(a, k)
            gamma = res.spectrum.eigenvalues
            theta_ref = waterfill_theta_bisect(gamma, k)
            gplus_ref = np.sort(np.clip(gamma - theta_ref, 0.0, 1.0))[::-1]
            npt.assert_allclose(res.gamma_plus, gplus_ref, atol=1e-9)

    def test_waterfill_equation_and_theta_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = int(rng.integers(2, 25))
            k = int(rng.integers(1, p + 1))
            a = rand_sym(rng, p)
            res = fantope_project(a, k)
            assert abs(res.gamma_plus.sum() - k) <= 1e-10 * k
            gamma = res.spectrum.eigenvalues
            assert gamma.min() - 1.0 - 1e-12 <= res.theta <= gamma.max() + 1.0 + 1e-12

    def test_phi_nonincreasing_in_theta(self):
        rng = np.random.default_rng(17)
        gamma = rng.normal(size=12)
        thetas = np.linspace(gamma.min() - 1.5, gamma.max() + 0.5, 400)
        phi = np.clip(gamma[None, :] - thetas[:, None], 0.0, 1.0).sum(axis=1)
        assert np.all(np.diff(phi) <= 1e-12)

    def test_idempotence(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            p = int(rng.integers(2, 20))
            k = int(rng.integers(1, p + 1))
            h = fantope_project(rand_sym(rng, p), k).point.entries
            h2 = fantope_project(h, k).point.entries
            assert np.max(np.abs(h2 - h)) <= 1e-9

    def test_projection_minimizes_distance(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = int(rng.integers(2, 15))
            k = int(rng.integers(1, p + 1))
            a = rand_sym(rng, p)
            proj = fantope_project(a, k).point.entries
            d_star = np.linalg.norm(a - proj)
            for _ in range(20):
                h = random_feasible_point(rng, p, k)
                assert d_star <= np.linalg.norm(a - h) + 1e-10

    def test_scaled_projection_recovers_projector(self):
        # when the eigengap is at least tau, projecting A/tau recovers the
        # top-k projector exactly
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = int(rng.integers(3, 12))
            k = int(rng.integers(1, p))
            a = rand_sym(rng, p)
            pi, gap = top_k_projector(a, k)
            if gap < 1e-3:
                continue
            tau = 0.9 * gap
            res = fantope_project(a / tau, k)
            npt.assert_allclose(res.point.entries, pi.entries, atol=1e-8)

    def test_k_out_of_range(self):
        with pytest.raises(InvalidInput):
            fantope_project(np.eye(3), 0)
        with pytest.raises(InvalidInput):
            fantope_project(np.eye(3), 4)


# eigenvalue levels drawn with repetition, so spectra carry exact ties; a
# random rotation turns those into ties up to roundoff
TIE_LEVELS = (-2.0, -0.5, 0.0, 0.25, 1.0, 1.75, 3.0)


@st.composite
def tied_sym_and_order(draw):
    p = draw(st.integers(1, 8))
    levels = draw(st.lists(st.sampled_from(TIE_LEVELS), min_size=p, max_size=p))
    scale = draw(st.sampled_from((0.1, 1.0, 10.0)))
    jitter = draw(st.sampled_from((0.0, 1e-9, 0.1)))
    k = draw(st.one_of(st.just(p), st.integers(1, p)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = scale * (np.array(levels) + jitter * rng.normal(size=p))
    if draw(st.booleans()):
        q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    else:
        q = np.eye(p)[rng.permutation(p)]
    return rotated(w, q), k


def rotated(w, q):
    a = (q * w) @ q.T
    return 0.5 * (a + a.T)


# water level 0.5 + 1e-6, so one clipped eigenvalue is a tiny 1e-6
TINY_WEIGHT = (rotated(np.array([1.5, 0.5 + 2e-6, 0.0]),
                       np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]), 1)


# the root just before a kink: two weights share the water level within 1e-9
# of where one of them clips, and a scan slack of 1e-9 took the kink past the
# root, leaving the trace off by about 5e-10
NEAR_KINK = [(np.diag(w), 1) for w in (
    [-2.0, 8.21618144e-10, 1.0],
    [-2.0000000000717186, -1.9999999993170108, -1.9999999992719524,
     -1.9999999988031216, 1.1572262931347456e-09, 1.0000000007145273])]


PROPERTY = settings(max_examples=300, deadline=None)


class TestProjectionProperties:
    @PROPERTY
    @given(tied_sym_and_order())
    @example(NEAR_KINK[0])
    @example(NEAR_KINK[1])
    def test_feasible(self, case):
        a, k = case
        res = fantope_project(a, k)
        w = np.linalg.eigvalsh(res.point.entries)
        assert w.min() >= -1e-10 and w.max() <= 1.0 + 1e-10
        assert abs(np.trace(res.point.entries) - k) <= 1e-10 * k
        assert res.point.constraint_residual <= 1e-10 * k

    @PROPERTY
    @given(tied_sym_and_order())
    def test_idempotent(self, case):
        a, k = case
        h = fantope_project(a, k).point.entries
        again = fantope_project(h, k).point.entries
        assert np.max(np.abs(again - h)) <= 1e-9

    @PROPERTY
    @given(tied_sym_and_order())
    @example(TINY_WEIGHT)
    def test_low_rank_rebuild_matches_full(self, case):
        a, k = case
        h, _, _, v, g = _project(a, k)
        full = (v * g) @ v.T
        assert np.max(np.abs(h - 0.5 * (full + full.T))) <= 1e-12

    @PROPERTY
    @given(tied_sym_and_order())
    def test_water_level_matches_breakpoint_oracle(self, case):
        a, k = case
        res = fantope_project(a, k)
        gamma = res.spectrum.eigenvalues
        theta_ref = waterfill_theta_breakpoints(gamma, k)
        assert abs(res.theta - theta_ref) <= 1e-9 * (1.0 + np.max(np.abs(gamma)))
        npt.assert_allclose(res.gamma_plus, np.clip(gamma - theta_ref, 0.0, 1.0), atol=1e-9)


@st.composite
def tracked_block(draw):
    """(m, k, v, weyl_ceiling): a Ritz step's input one solver iteration on.

    m_ref has a few raised top eigenvalues; v holds its top r eigenvectors
    (r = weighted pairs + 2), slightly rotated, and m = m_ref + E.  The
    ceiling is the solver's Weyl bound lambda_{r+1}(m_ref) + ||E||_F.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(12, 40))
    k = draw(st.integers(1, 3))
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    w = np.sort(rng.normal(size=p))[::-1]
    w[:k + draw(st.integers(0, 2))] += draw(st.floats(0.0, 3.0))
    m_ref = rotated(w, q)
    _, _, gamma, vecs, g = _project(m_ref, k)
    r = int(np.count_nonzero(g)) + 2
    assume(4 * r <= p)
    tilt = 10.0 ** draw(st.floats(-9.0, -1.0))
    v, _ = np.linalg.qr(vecs[:, -r:] + tilt * rng.normal(size=(p, r)))
    e = rng.normal(size=(p, p))
    e = 0.5 * (e + e.T)
    e *= 10.0 ** draw(st.floats(-9.0, 0.0)) / np.linalg.norm(e)
    return m_ref + e, k, v, float(gamma[-r - 1] + np.linalg.norm(e))


class TestRitzStep:
    @PROPERTY
    @given(tracked_block())
    def test_accepted_step_within_davis_kahan(self, case):
        # M with the weighted Ritz pairs' residuals R deflated,
        # M - R X^T - X R^T, has those pairs as exact eigenpairs and
        # ||R X^T + X R^T||_F = sqrt(2) ||R||_F; the projection is
        # 1-Lipschitz, so once the rest of its spectrum sits below the water
        # level (the Davis-Kahan gap condition) H is within sqrt(2) ||R||_F
        # of the exact projection.  Dividing by min(1, gap) covers the rest.
        m, k, v, ceiling = case
        step = _ritz_project(m, k, v, ceiling, np.inf)
        assume(step is not None)
        h, x, g = step
        assert abs(float(g.sum()) - k) <= 1e-10 * k
        xw = x[:, g > 0.0]
        mu = np.sum(xw * (m @ xw), axis=0)
        res = np.linalg.norm(m @ xw - xw * mu, axis=0)
        lam = np.linalg.eigvalsh(m)[::-1]
        gap = float(mu.min() - lam[xw.shape[1]])
        assume(gap > 0.0)
        exact = _project(m, k)[0]
        bound = np.sqrt(2.0) * np.linalg.norm(res) / min(1.0, gap)
        assert np.linalg.norm(h - exact) <= bound + 1e-10 * (1.0 + np.max(np.abs(m)))
        # the residual check: a tolerance under the worst weighted residual refuses
        if res.max() > 0.0:
            assert _ritz_project(m, k, v, ceiling, 0.5 * float(res.max())) is None

    @PROPERTY
    @given(tracked_block(), st.floats(0.0, 1.0))
    def test_failed_weyl_check_returns_no_h(self, case, slack):
        # Ritz values interlace below the eigenvalues and the water level
        # grows with every value it fills, so the block's level is at most
        # the exact one: a ceiling at or above the exact level must fail
        m, k, v, _ = case
        theta = _project(m, k)[1]
        ceiling = theta + slack + 1e-12 * (1.0 + abs(theta))
        assert _ritz_project(m, k, v, ceiling, np.inf) is None


    @staticmethod
    def unweighted_fill(mu, k):
        return float(mu[-1]), np.zeros_like(mu)

    @staticmethod
    def failed_fill(mu, k):
        raise NumericalFailure("water-level scan found no feasible segment")

    @pytest.mark.parametrize("fill", ["unweighted_fill", "failed_fill"])
    def test_unusable_water_fill_is_refused(self, monkeypatch, fill):
        # the full eigh decides instead: a refusal, not an error
        m = np.diag(np.arange(12.0))
        monkeypatch.setattr(fantope.spectral, "_water_fill", getattr(self, fill))
        assert _ritz_project(m, 1, np.eye(12)[:, -3:], 0.0, np.inf) is None


class TestFantopePoint:
    def test_from_entries_residual(self):
        pt = FantopePoint.from_entries(0.5 * np.eye(2), 1)
        assert pt.constraint_residual <= 1e-12

    def test_from_entries_rejects_box_violation(self):
        with pytest.raises(InvalidInput):
            FantopePoint.from_entries(np.diag([1.5, -0.5]), 1)


class TestTopKProjector:
    def test_correlated_pair_block(self):
        # 3x3 with an exactly decoupled third coordinate: leading eigenvector
        # is (1,1,0)/sqrt2, second eigenvalue is the decoupled 1.0
        sigma = np.array([[0.9, 0.8, 0.0], [0.8, 0.9, 0.0], [0.0, 0.0, 1.0]])
        pi, gap = top_k_projector(sigma, 1)
        assert gap == pytest.approx(0.7, abs=1e-12)
        expect = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
        npt.assert_allclose(pi.entries, expect, atol=1e-12)

    def test_projector_properties(self):
        rng = np.random.default_rng(31)
        a = rand_sym(rng, 10)
        pi, gap = top_k_projector(a, 3)
        npt.assert_allclose(pi.entries @ pi.entries, pi.entries, atol=1e-10)
        assert np.trace(pi.entries) == pytest.approx(3.0, abs=1e-10)
        assert gap > 0

    def test_k_equals_p_gap_sentinel(self):
        _, gap = top_k_projector(np.diag([2.0, 1.0]), 2)
        assert gap == np.inf

    def test_tie_flagged_by_gap(self):
        _, gap = top_k_projector(np.eye(3), 1)
        assert gap <= _GAP_TIE_TOL


class TestOrderArgument:
    """k follows the base integer rule, then k <= p, at every spectral boundary."""

    S = np.diag([3.0, 2.0, 1.0])

    @pytest.mark.parametrize("call", [
        fantope_project,
        top_k_projector,
        check_sps,
        lambda s, k: FantopePoint.from_entries(np.diag([1.0, 0.0, 0.0]), k),
    ], ids=["fantope_project", "top_k_projector", "check_sps", "from_entries"])
    @pytest.mark.parametrize("k", ["a", None, True, 1.5, 0, 4, float("nan")])
    def test_rejected_as_invalid_input(self, call, k):
        with pytest.raises(InvalidInput):
            call(self.S, k)

    @pytest.mark.parametrize("call", [fantope_project, top_k_projector])
    def test_integer_valued_float_is_stored_as_int(self, call):
        res = call(self.S, 2.0)
        point = res.point if hasattr(res, "point") else res[0]
        assert type(point.k) is int
        npt.assert_array_equal(point.entries, np.diag([1.0, 1.0, 0.0]))


class TestProcrustesAlign:
    def test_recovers_planted_rotation(self):
        rng = np.random.default_rng(37)
        u, _ = np.linalg.qr(rng.normal(size=(8, 3)))
        ang = 0.7
        rot = np.array([
            [np.cos(ang), -np.sin(ang), 0.0],
            [np.sin(ang), np.cos(ang), 0.0],
            [0.0, 0.0, 1.0],
        ])
        v = u @ rot.T
        omega, dist = procrustes_align(u, v)
        npt.assert_allclose(v @ omega, u, atol=1e-10)
        assert dist <= 1e-10

    def test_distance_bounded_by_projector_distance(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            p = int(rng.integers(3, 12))
            k = int(rng.integers(1, p))
            u, _ = np.linalg.qr(rng.normal(size=(p, k)))
            v, _ = np.linalg.qr(rng.normal(size=(p, k)))
            omega, dist = procrustes_align(u, v)
            npt.assert_allclose(omega.T @ omega, np.eye(k), atol=1e-10)
            proj_dist = np.linalg.norm(u @ u.T - v @ v.T)
            assert dist <= proj_dist + 1e-10

    def test_rejects_nonorthonormal(self):
        rng = np.random.default_rng(43)
        u, _ = np.linalg.qr(rng.normal(size=(5, 2)))
        with pytest.raises(InvalidInput):
            procrustes_align(u, rng.normal(size=(5, 2)))
