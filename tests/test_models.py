import gzip
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from fantope.diagnostics import check_sps
from fantope.errors import InvalidInput
from fantope.models import (
    SampleBatch,
    entrywise_error,
    gen_planted_clique,
    gen_spiked,
    gen_toy,
    load_matrix_csv,
    sample_covariance,
    sample_gaussian,
    save_matrix_csv,
)
from fantope.solver import solve_fps
from oracles import gaussian_rows, two_pass_covariance
from test_solver import bench_case, count_linalg

PAIR_PROJECTOR = np.array([
    [0.5, 0.5, 0.0],
    [0.5, 0.5, 0.0],
    [0.0, 0.0, 0.0],
])


class TestToyModel:
    def test_decoupled_case(self):
        m = gen_toy(0.0)
        npt.assert_allclose(
            m.Sigma.entries,
            [[0.9, 0.8, 0.0], [0.8, 0.9, 0.0], [0.0, 0.0, 1.0]],
        )
        assert m.gap == pytest.approx(0.7, abs=1e-12)
        npt.assert_allclose(m.Pi.entries, PAIR_PROJECTOR, atol=1e-12)
        assert m.J.indices == (0, 1)
        assert m.k == 1

    def test_coupling_preserves_leading_eigenvector(self):
        # the (+t, -t) structure keeps (1,1,0)/sqrt2 an exact eigenvector,
        # so the projector is t-independent while the gap shrinks
        for t in (0.02, 0.1, -0.3):
            m = gen_toy(t)
            npt.assert_allclose(m.Pi.entries, PAIR_PROJECTOR, atol=1e-12)
            assert 0.0 < m.gap < 0.7
            assert m.J.indices == (0, 1)

    def test_gap_value_at_small_coupling(self):
        # second eigenvalue solves the 2x2 block [[0.1, sqrt2 t], [sqrt2 t, 1]]
        t = 0.02
        lam2 = 0.5 * (1.1 + np.sqrt(0.81 + 8 * t * t))
        m = gen_toy(t)
        assert m.gap == pytest.approx(1.7 - lam2, abs=1e-12)

    def test_coupling_range_enforced(self):
        for t in (0.35, -0.4, 1.0):
            with pytest.raises(InvalidInput):
                gen_toy(t)


class TestSpikedModel:
    def test_eigenvalues_and_support(self):
        m = gen_spiked(10, 1, range(5), (2.0,), 1.0, seed=5)
        assert m.gap == pytest.approx(2.0, abs=1e-10)
        ev = np.linalg.eigvalsh(m.Sigma.entries)
        assert ev[-1] == pytest.approx(3.0, abs=1e-10)
        assert ev[-2] == pytest.approx(1.0, abs=1e-10)
        assert m.J.indices == tuple(range(5))
        # no signal leaks off the support
        off = np.ones(10, dtype=bool)
        off[:5] = False
        assert np.max(np.abs(m.Sigma.entries[np.ix_(off, off)] - np.eye(5))) <= 1e-12

    def test_two_spikes(self):
        m = gen_spiked(12, 2, range(4, 9), (3.0, 2.0), 1.0, seed=1)
        ev = np.sort(np.linalg.eigvalsh(m.Sigma.entries))[::-1]
        npt.assert_allclose(ev[:3], [4.0, 3.0, 1.0], atol=1e-10)
        assert m.gap == pytest.approx(2.0, abs=1e-10)
        assert m.J.indices == tuple(range(4, 9))

    def test_deterministic_given_seed(self):
        a = gen_spiked(8, 1, (0, 3, 7), (2.5,), 0.5, seed=42)
        b = gen_spiked(8, 1, (0, 3, 7), (2.5,), 0.5, seed=42)
        npt.assert_array_equal(a.Sigma.entries, b.Sigma.entries)
        c = gen_spiked(8, 1, (0, 3, 7), (2.5,), 0.5, seed=43)
        assert np.max(np.abs(a.Sigma.entries - c.Sigma.entries)) > 1e-6

    def test_low_leverage_row_passes_the_one_support_rule(self):
        # this draw's frame row 0 has leverage Pi_00 ~ 2.9e-10: above the
        # support cut, so the frame is kept and the model's support agrees
        # with check_sps
        m = gen_spiked(50, 1, range(5), (2.0,), 1.0, seed=117)
        assert 1e-10 < m.Pi.entries[0, 0] < 1e-8
        assert m.J.indices == (0, 1, 2, 3, 4)
        assert check_sps(m.Sigma, 1)[1].indices == (0, 1, 2, 3, 4)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            gen_spiked(10, 2, range(5), (2.0,), 1.0, seed=0)  # k != len(spikes)
        with pytest.raises(InvalidInput):
            gen_spiked(10, 1, range(5), (-2.0,), 1.0, seed=0)
        with pytest.raises(InvalidInput):
            gen_spiked(10, 2, (0,), (3.0, 2.0), 1.0, seed=0)  # s < k
        with pytest.raises(InvalidInput):
            gen_spiked(10, 1, range(5), (2.0,), 0.0, seed=0)


class TestPlantedClique:
    def test_population_closed_form(self):
        model, _ = gen_planted_clique(3, 2, seed=0)
        npt.assert_allclose(
            model.Sigma.entries,
            [[1.5, 1.0, 0.0], [1.0, 1.5, 0.0], [0.0, 0.0, 1.5]],
        )
        # lam1 = (p - s + s^2)/(p-1) = 2.5, lam2 = p/(p-1) = 1.5
        assert model.gap == pytest.approx(1.0, abs=1e-12)
        assert model.J.indices == (0, 1)

    def test_sample_structure(self):
        model, s_mat = gen_planted_clique(40, 8, seed=3)
        s = s_mat.entries
        npt.assert_allclose(np.diag(s), np.full(40, 40 / 39), atol=1e-12)
        npt.assert_allclose(s, s.T, atol=0)
        # in-clique block of A is all ones, so its S block is exact
        assert model.Sigma.entries[0, 1] == pytest.approx(8 / 39)

    def test_deterministic_given_seed(self):
        _, s1 = gen_planted_clique(30, 6, seed=9)
        _, s2 = gen_planted_clique(30, 6, seed=9)
        npt.assert_array_equal(s1.entries, s2.entries)

    def test_noise_scale_monte_carlo(self):
        # entrywise deviation stays below 3 * sqrt(log p / (p-1)) across draws
        p = 200
        budget = 3.0 * np.sqrt(np.log(p) / (p - 1))
        worst = 0.0
        for seed in range(100):
            model, s_mat = gen_planted_clique(p, 10, seed=seed)
            worst = max(worst, entrywise_error(s_mat, model.Sigma))
        assert worst <= budget

    def test_validation(self):
        with pytest.raises(InvalidInput):
            gen_planted_clique(10, 1, seed=0)
        with pytest.raises(InvalidInput):
            gen_planted_clique(4, 5, seed=0)


class TestSampling:
    def test_deterministic_given_seed(self):
        m = gen_toy(0.0)
        a = sample_gaussian(m, 50, seed=2)
        b = sample_gaussian(m, 50, seed=2)
        npt.assert_array_equal(a.scatter, b.scatter)
        assert a.scatter.shape == (3, 3)
        assert np.max(np.abs(a.scatter - sample_gaussian(m, 50, seed=3).scatter)) > 1e-6

    def test_two_point_covariance(self):
        # two rows z1, z2 have scatter w w^T with w = (z1 - z2)/sqrt2, so
        # S = root (w w^T / 2) root = y y^T with y = root w / sqrt2
        m = gen_toy(0.0)
        batch = sample_gaussian(m, 2, seed=0)
        e, v = np.linalg.eigh(batch.scatter)
        assert np.all(np.abs(e[:-1]) <= 1e-12 * e[-1])
        y = m.root @ v[:, -1] * np.sqrt(e[-1] / 2.0)
        npt.assert_allclose(sample_covariance(batch).entries, np.outer(y, y), atol=1e-12)

    def test_hand_computed_small_case(self):
        # the rows (1, 0) and (0, 0), as their centred scatter under an identity root
        xc = np.array([[0.5, 0.0], [-0.5, 0.0]])
        batch = SampleBatch(n=2, p=2, seed=0, root=np.eye(2), scatter=xc.T @ xc)
        s = sample_covariance(batch)
        npt.assert_allclose(s.entries, [[0.25, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_covariance_consistency(self):
        m = gen_spiked(6, 1, range(3), (2.0,), 1.0, seed=8)
        s = sample_covariance(sample_gaussian(m, 200000, seed=1))
        assert entrywise_error(s, m.Sigma) < 0.05

    def test_n_too_small(self):
        with pytest.raises(InvalidInput):
            sample_gaussian(gen_toy(0.0), 1, seed=0)


# the benchmark's p=200 spiked model
BENCH_P = 200


@pytest.fixture(scope="module")
def bench_model():
    return gen_spiked(BENCH_P, 2, range(5), (3.0, 2.0), 1.0, 12)


# two rows and the benchmark's n
@pytest.mark.parametrize("n", [2, 8000])
class TestRowsPathAndColouring:
    """The oracle's rows, and the colouring of a white scatter into a sample covariance."""

    def test_rows_are_the_one_shot_draw(self, bench_model, n):
        # the oracle's rows, the fixed inputs of seed-specific tests, are the
        # one-shot white draw coloured by the model's own root
        white = np.random.default_rng(10000).normal(size=(n, BENCH_P))
        npt.assert_array_equal(gaussian_rows(bench_model.Sigma.entries, n, 10000),
                               white @ bench_model.root)

    def test_coloured_scatter_matches_two_pass(self, bench_model, n):
        # colouring the white rows' scatter once is the coloured rows' covariance
        white = np.random.default_rng(10000).normal(size=(n, BENCH_P))
        scatter = n * two_pass_covariance(white)
        batch = SampleBatch(n=n, p=BENCH_P, seed=10000, root=bench_model.root, scatter=scatter)
        ref = two_pass_covariance(white @ bench_model.root)
        s = sample_covariance(batch).entries
        assert np.max(np.abs(s - ref)) <= 1e-13 * np.max(np.abs(ref))


def wishart_draws(p, n, draws):
    model = gen_spiked(p, 1, range(2), (1.0,), 1.0, 0)
    return np.array([sample_gaussian(model, n, seed).scatter for seed in range(draws)])


class TestWishartScatter:
    """The white scatter of n N(0, I_p) rows is Wishart_p(n - 1, I), singular when n - 1 < p."""

    @pytest.mark.parametrize("p, n", [(4, 7), (6, 4)])
    def test_moments_are_wishart(self, p, n):
        # E W = (n-1) I, Var W_ii = 2(n-1), Var W_ij = n-1, each within 5 standard errors
        w = wishart_draws(p, n, 20000)
        dof, count = n - 1, w.shape[0]
        mean = w.mean(axis=0)
        dev2 = (w - mean) ** 2
        var = dev2.mean(axis=0)
        se_mean = w.std(axis=0) / np.sqrt(count)
        se_var = dev2.std(axis=0) / np.sqrt(count)
        diag, off = np.eye(p, dtype=bool), ~np.eye(p, dtype=bool)
        assert np.all(np.abs(mean - dof * np.eye(p)) <= 5.0 * se_mean)
        assert np.all(np.abs(var[diag] - 2.0 * dof) <= 5.0 * se_var[diag])
        assert np.all(np.abs(var[off] - dof) <= 5.0 * se_var[off])

    @pytest.mark.parametrize("p, n", [(4, 7), (6, 4), (5, 2), (5, 6), (200, 8000)])
    def test_rank_is_min_of_dof_and_p(self, p, n):
        w = wishart_draws(p, n, 3)
        for x in w:
            assert np.linalg.matrix_rank(x) == min(n - 1, p)

    @pytest.mark.parametrize("p, n", [(6, 4), (200, 8000)])
    def test_symmetric_positive_semidefinite(self, p, n):
        for x in wishart_draws(p, n, 3):
            npt.assert_array_equal(x, x.T)
            assert np.linalg.eigvalsh(x)[0] >= -1e-12 * np.max(np.abs(x))

    def test_huge_n_draw_peaks_below_1mb(self, bench_model):
        # the cost of a draw does not grow with n
        tracemalloc.start()
        try:
            batch = sample_gaussian(bench_model, 10**9, seed=10000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert np.all(np.isfinite(batch.scatter))


class TestSamplingCost:
    def test_draw_peaks_below_4mb(self, bench_model):
        # the (n, p) rows alone are 12.8 MB at n=8000
        tracemalloc.start()
        try:
            sample_covariance(sample_gaussian(bench_model, 8000, seed=10000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_draw_takes_no_eigh(self, monkeypatch, bench_model):
        calls = count_linalg(monkeypatch, "eigh")
        sample_covariance(sample_gaussian(bench_model, 8000, seed=10000))
        assert calls == []


class TestIntegerArguments:
    @pytest.mark.parametrize("call", [
        lambda m: sample_gaussian(m, 2.5, 1),
        lambda m: sample_gaussian(m, 10, -1),
        lambda m: sample_gaussian(m, 10, 1.5),
        lambda m: sample_gaussian(m, 10, "a"),
        lambda m: gen_spiked(10.5, 1, range(5), (2.0,), 1.0, 0),
        lambda m: gen_spiked(10, 1.5, range(5), (2.0,), 1.0, 0),
        lambda m: gen_spiked(10, 1, range(5), (2.0,), 1.0, -1),
        lambda m: gen_spiked(10, 1, (0, 1, 20), (2.0,), 1.0, 0),
        lambda m: gen_planted_clique(10.5, 3, 0),
        lambda m: gen_planted_clique(10, 3.5, 0),
        lambda m: gen_planted_clique(10, 3, -1),
    ], ids=["n-float", "seed-negative", "seed-float", "seed-str",
            "spiked-p-float", "spiked-k-float", "spiked-seed-negative", "spiked-j-outside",
            "clique-p-float", "clique-s-float", "clique-seed-negative"])
    def test_rejected_as_invalid_input(self, call):
        with pytest.raises(InvalidInput):
            call(gen_toy(0.0))

    def test_integer_valued_floats_are_stored_as_int(self):
        batch = sample_gaussian(gen_toy(0.0), 10.0, 3.0)
        assert (batch.n, batch.seed) == (10, 3) and type(batch.n) is int
        npt.assert_array_equal(batch.scatter, sample_gaussian(gen_toy(0.0), 10, 3).scatter)
        assert gen_spiked(10.0, 1, range(5), (2.0,), 1.0, 0.0).params["p"] == 10


class TestRealArguments:
    @pytest.mark.parametrize("call", [
        lambda: gen_toy("a"),
        lambda: gen_toy(np.nan),
        lambda: gen_spiked(10, 1, range(5), (2.0,), "x", 0),
        lambda: gen_spiked(10, 1, range(5), (2.0,), np.inf, 0),
        lambda: gen_spiked(10, 1, range(5), ("a",), 1.0, 0),
        lambda: gen_spiked(10, 1, range(5), (np.nan,), 1.0, 0),
    ], ids=["toy-t-str", "toy-t-nan", "spiked-noise-str", "spiked-noise-inf",
            "spiked-spike-str", "spiked-spike-nan"])
    def test_rejected_as_invalid_input(self, call):
        with pytest.raises(InvalidInput):
            call()


def _bench_h():
    s, cfg = bench_case()
    return solve_fps(s, cfg).H.entries


def _negative_zero_rows():
    a = np.zeros((4, 4))
    a[0, :] = -0.0
    a[2, 1] = -0.0
    a[3, 3] = 1.5
    return a


class TestMatrixCsv:
    @pytest.mark.parametrize("make", [
        _bench_h,
        lambda: bench_case()[0],
        lambda: np.zeros((5, 5)),
        lambda: np.eye(5),
        _negative_zero_rows,
        lambda: np.array([[5e-324, 1e308], [-1e308, -1e-300]]),
        lambda: np.array([[2.5]]),
    ], ids=["bench-H", "dense-S", "zeros", "identity", "negative-zero-rows", "extremes",
            "one-by-one"])
    def test_writes_the_bytes_of_savetxt(self, tmp_path, make):
        a = make()
        save_matrix_csv(tmp_path / "m.csv", a)
        np.savetxt(tmp_path / "ref.csv", a, delimiter=",", fmt="%.17g")
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        npt.assert_array_equal(load_matrix_csv(tmp_path / "m.csv"), a)

    def test_gz_path_compresses_and_round_trips(self, tmp_path):
        h = _bench_h()
        save_matrix_csv(tmp_path / "h.csv.gz", h)
        np.savetxt(tmp_path / "ref.csv.gz", h, delimiter=",", fmt="%.17g")
        with gzip.open(tmp_path / "h.csv.gz") as f, gzip.open(tmp_path / "ref.csv.gz") as g:
            assert f.read() == g.read()
        npt.assert_array_equal(load_matrix_csv(tmp_path / "h.csv.gz"), h)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(7, 7))
        path = tmp_path / "m.csv"
        save_matrix_csv(path, a)
        npt.assert_array_equal(load_matrix_csv(path), a)

    @pytest.mark.parametrize("a", [
        np.ones((2, 2, 2)),
        np.ones(3),
        np.ones((2, 3)),
        np.zeros((0, 0)),
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [np.inf, 1.0]]),
    ], ids=["3-d", "1-d", "non-square", "empty", "nan", "inf"])
    def test_save_rejects_what_load_cannot_read_back(self, tmp_path, a):
        path = tmp_path / "bad.csv"
        with pytest.raises(InvalidInput):
            save_matrix_csv(path, a)
        assert not path.exists()

    def test_rejects_nonsquare(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        with pytest.raises(InvalidInput):
            load_matrix_csv(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,x\ny,2.0\n")
        with pytest.raises(InvalidInput):
            load_matrix_csv(path)

    def test_rejects_an_empty_file_without_a_warning(self, tmp_path, recwarn):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidInput, match="holds no matrix"):
            load_matrix_csv(path)
        assert not recwarn.list
