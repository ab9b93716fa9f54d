import csv
import json

import numpy as np
import numpy.testing as npt
import pytest

from fantope import __version__
from fantope.cli import (
    ExperimentConfig,
    TRIAL_FIELDS,
    cmd_certify,
    cmd_clique,
    cmd_persist,
    cmd_phase,
    cmd_solve,
    main,
    parse_config,
)
from fantope.errors import InfeasibleConstraint, InvalidInput, SpsViolated
from fantope.models import gen_toy, load_matrix_csv, save_matrix_csv
from fantope.spectral import top_k_projector
from fantope.solver import solve_fps
from test_solver import count_linalg, spiked_case


@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    save_matrix_csv(path, gen_toy(0.0).Sigma.entries)
    return str(path)


@pytest.fixture
def toy_coupled_csv(tmp_path):
    path = tmp_path / "toy_coupled.csv"
    save_matrix_csv(path, gen_toy(0.1).Sigma.entries)
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def strip_wall(path):
    # timing is the one nondeterministic column
    with open(path) as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ms")
    return [[c for i, c in enumerate(r) if i != drop] for r in rows]


class TestConfigParsing:
    def test_full_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# sweep description\n"
            "model = spiked\n"
            "p = 20  # inline comment\n"
            "k = 1\n"
            "s = 3\n"
            "spike_values = 2.0, 1.5\n"
            "noise = 1.0\n"
            "grid_n = 100, 20000\n"
            "trials = 3\n"
            "seed = 8\n"
            "sigma_mult = 3.0\n"
            "output_path = out.csv\n"
        )
        cfg = parse_config(str(path))
        assert cfg.model == "spiked"
        assert cfg.model_params["p"] == 20
        assert cfg.model_params["spike_values"] == (2.0, 1.5)
        assert cfg.grid == {"n": (100, 20000)}
        assert cfg.trials == 3
        assert cfg.seed == 8
        assert cfg.output_path == "out.csv"

    def test_singleton_grid_stays_a_list(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("grid_n = 500\ngrid_r = 2.0\n")
        cfg = parse_config(str(path))
        assert cfg.grid == {"n": (500,), "r": (2.0,)}

    def test_atom_types(self, tmp_path):
        # int, then float, then true/false, else bare string; each through a
        # key that stores the atom as parsed
        path = tmp_path / "cfg.txt"
        path.write_text("trials = 2\nsigma_mult = 2.5\nmodel = true\noutput_path = plain\n")
        cfg = parse_config(str(path))
        assert (cfg.trials, cfg.sigma_mult, cfg.model, cfg.output_path) == (2, 2.5, True, "plain")
        assert type(cfg.trials) is int and type(cfg.sigma_mult) is float

    def test_solver_tolerances_are_typed(self, tmp_path):
        # stored as the solver runs with them: max_iters an int, the rest floats
        path = tmp_path / "cfg.txt"
        path.write_text("max_iters = 3000.0\neps = 1\nsupport_tol = 1\nadmm_step = 2\n"
                        "sandwich_tol = 0\n")
        tols = parse_config(str(path)).tolerances
        assert tols == {"max_iters": 3000, "eps": 1.0, "support_tol": 1.0, "admm_step": 2.0,
                        "sandwich_tol": 0.0}
        assert type(tols["max_iters"]) is int
        assert all(type(tols[key]) is float for key in tols if key != "max_iters")

    @pytest.mark.parametrize("body", [
        "mystery_key = 3",
        "p 20",
        "p =",
        "p = 1\np = 2",
    ])
    def test_malformed_lines(self, tmp_path, body):
        path = tmp_path / "cfg.txt"
        path.write_text(body + "\n")
        with pytest.raises(InvalidInput):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(InvalidInput):
            parse_config("/nonexistent/cfg.txt")

    def test_config_invariants(self):
        with pytest.raises(InvalidInput):
            ExperimentConfig(trials=0)
        with pytest.raises(InvalidInput):
            ExperimentConfig(grid={"n": ()})

    @pytest.mark.parametrize("trials", ["1.5", "nan", "true"])
    @pytest.mark.parametrize("command", ["phase", "persist"])
    def test_non_integer_trials_is_an_input_error(self, tmp_path, command, trials):
        path = tmp_path / "cfg.txt"
        path.write_text(f"p = 10\nk = 1\ns = 3\nspike_values = 2.0\n"
                        f"grid_n = 500\ngrid_r = 2.0\ntrials = {trials}\n"
                        f"output_path = {tmp_path / 'out.csv'}\n")
        assert main([command, "--config", str(path)]) == 1
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["phase", "persist"])
    def test_integer_valued_trials_is_stored_as_int(self, tmp_path, command):
        # trials goes through the integer rule, as p and seed do
        path = tmp_path / "cfg.txt"
        path.write_text(f"p = 10\nk = 1\ns = 3\nspike_values = 2.0\n"
                        f"grid_n = 500\ngrid_r = 2.0\ntrials = 2.0\n"
                        f"output_path = {tmp_path / 'out.csv'}\n")
        assert parse_config(str(path)).trials == 2
        assert main([command, "--config", str(path)]) == 0
        with open(tmp_path / "out.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 2

    @pytest.mark.parametrize("max_iters", ["nan", "inf", "2.5"])
    @pytest.mark.parametrize("command", ["phase", "persist"])
    def test_non_integer_max_iters_is_an_input_error(self, tmp_path, capsys, command, max_iters):
        path = tmp_path / "cfg.txt"
        path.write_text(f"p = 10\nk = 1\ns = 3\nspike_values = 2.0\n"
                        f"grid_n = 500\ngrid_r = 2.0\nmax_iters = {max_iters}\n"
                        f"output_path = {tmp_path / 'out.csv'}\n")
        assert main([command, "--config", str(path)]) == 1
        assert "max_iters" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command,key,value", [
        ("phase", "p", "10.5"), ("phase", "k", "nan"), ("phase", "s", "0"),
        ("phase", "grid_n", "-1"), ("phase", "grid_p", "2.5"), ("phase", "grid_s", "abc"),
        ("phase", "seed", "abc"), ("phase", "t", "inf"), ("phase", "noise", "abc"),
        ("phase", "sigma_mult", "abc"), ("phase", "alpha", "nan"),
        ("phase", "sigma_mult", "-1"), ("phase", "sigma_mult", "0"),
        ("phase", "alpha", "-0.5"), ("phase", "alpha", "0"), ("phase", "alpha", "1.5"),
        ("phase", "spike_values", "2.0, abc"), ("phase", "grid_rho", "abc"),
        ("persist", "grid_r", "abc"), ("persist", "grid_r", "0.5"),
        ("persist", "sandwich_tol", "abc"),
        ("persist", "sandwich_tol", "-1e-6"), ("phase", "output_path", "3"),
    ])
    def test_malformed_value_is_an_input_error(self, tmp_path, monkeypatch, capsys,
                                               command, key, value):
        monkeypatch.chdir(tmp_path)
        lines = {"p": "10", "k": "1", "s": "3", "spike_values": "2.0",
                 "grid_n": "500" if command == "phase" else "0", "grid_r": "2.0"}
        lines[key] = value
        (tmp_path / "cfg.txt").write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert main([command, "--config", "cfg.txt"]) == 1
        assert "error:" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["cfg.txt"]

    # each config passes parsing and fails a library rule inside a trial; the
    # InvalidInput is a config error, never a row, so nothing is written
    @pytest.mark.parametrize("command,body,rule", [
        pytest.param("phase", "grid_n = 500\ngrid_rho = -0.1\n", "rho=-0.1",
                     id="phase-negative-rho"),
        pytest.param("phase", "grid_n = 500\ngrid_s = 3, 20\n", "|j| <= p",
                     id="phase-s-above-p"),
        pytest.param("phase", "grid_n = 1, 500\n", "n=1", id="phase-undersized-n"),
        pytest.param("persist", "grid_n = 1, 500\ngrid_r = 2.0\n", "n=1",
                     id="persist-undersized-n"),
        pytest.param("phase", "model = toy\nt = 0.3\ngrid_n = 500\n", "alpha = 0",
                     id="phase-toy-alpha-zero"),
    ])
    def test_config_failing_in_a_trial_exits_one(self, tmp_path, monkeypatch, capsys,
                                                 command, body, rule):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text("p = 10\nk = 1\ns = 3\nspike_values = 2.0\n" + body)
        assert main([command, "--config", "cfg.txt"]) == 1
        assert rule in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["cfg.txt"]


class TestSolveCmd:
    def test_penalized_toy_solve(self, toy_csv, capsys):
        assert cmd_solve(toy_csv, 1, 0.05) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["support"] == [0, 1]
        assert out["version"] == __version__
        assert out["kkt"]["dual_bound_violation"] <= 1e-6
        h = load_matrix_csv(out["h_csv"])
        assert h.shape == (3, 3)

    def test_zero_penalty_matches_projector(self, toy_csv, tmp_path, capsys):
        out_h = str(tmp_path / "H.csv")
        assert cmd_solve(toy_csv, 1, 0.0, out_h=out_h) == 0
        point, _ = top_k_projector(gen_toy(0.0).Sigma, 1)
        npt.assert_allclose(load_matrix_csv(out_h), point.entries, atol=1e-6)

    def test_elastic_net_route(self, toy_csv, capsys):
        assert cmd_solve(toy_csv, 1, 0.05, tau_en=0.3) == 0
        assert json.loads(capsys.readouterr().out)["support"] == [0, 1]

    def test_elastic_net_kkt_report(self, toy_csv, capsys):
        # the reported gap reads S - rho Z - tau H; with S - rho Z alone this
        # converged solve used to report 0.114
        assert main(["solve", toy_csv, "--k", "1", "--rho", "0.05", "--tau-en", "1.0"]) == 0
        kkt = json.loads(capsys.readouterr().out)["kkt"]
        assert abs(kkt["fantope_optimality_gap"]) <= 1e-6

    def test_non_square_csv_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        assert main(["solve", str(bad), "--k", "1"]) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--rho", "nan"), ("--rho", "inf"), ("--tau-en", "nan"),
        ("--step", "inf"), ("--eps", "nan"), ("--support-tol", "nan"),
    ])
    def test_non_finite_setting_is_an_input_error(self, toy_csv, flag, value, capsys):
        assert main(["solve", toy_csv, "--k", "1", flag, value]) == 1

    def test_reports_the_loop_that_answered(self, tmp_path, capsys):
        s, cfg = spiked_case()
        path = str(tmp_path / "S.csv")
        save_matrix_csv(path, s)
        assert cmd_solve(path, cfg.k, cfg.rho) == 0
        out = json.loads(capsys.readouterr().out)
        sol = solve_fps(s, cfg)
        assert (out["working_set"], out["iters"]) == (sol.working_set, sol.iters)
        assert out["working_set"] < s.shape[0]

    def test_iteration_starvation_exits_two(self, toy_csv, capsys):
        code = main(["solve", toy_csv, "--k", "1", "--rho", "0.05",
                     "--max-iters", "1"])
        assert code == 2


class TestCliqueCmd:
    def test_recoverable_regime(self, tmp_path, capsys):
        out = str(tmp_path / "cl.csv")
        assert cmd_clique(100, 35, 3, 5, out=out) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["frequency"] == 1.0
        rows = read_rows(out)
        assert len(rows) == 3
        assert all(r["exact_recovery"] == "true" for r in rows)
        assert list(rows[0].keys()) == list(TRIAL_FIELDS)

    def test_full_graph_is_trivially_recovered(self, tmp_path, capsys):
        out = str(tmp_path / "cl.csv")
        assert cmd_clique(15, 15, 2, 5, out=out) == 0
        assert json.loads(capsys.readouterr().out)["frequency"] == 1.0

    def test_rerun_is_deterministic(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        cmd_clique(30, 12, 2, 5, out=a)
        cmd_clique(30, 12, 2, 5, out=b)
        capsys.readouterr()
        assert strip_wall(a) == strip_wall(b)

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        monkeypatch.setenv("FPS_SEED", "9")
        cmd_clique(30, 12, 2, 5, out=a)
        monkeypatch.delenv("FPS_SEED")
        cmd_clique(30, 12, 2, 9, out=b)
        capsys.readouterr()
        assert strip_wall(a) == strip_wall(b)

    def test_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("FPS_SEED", "not-a-seed")
        assert main(["clique", "--p", "20", "--s", "5", "--trials", "1"]) == 1

    @pytest.mark.parametrize("env,flag", [(None, "-1"), ("-3", "1")])
    def test_negative_seed_is_an_input_error(self, tmp_path, monkeypatch, capsys, env, flag):
        # the generators take seeds >= 0
        monkeypatch.chdir(tmp_path)
        if env is not None:
            monkeypatch.setenv("FPS_SEED", env)
        assert main(["clique", "--p", "20", "--s", "5", "--trials", "1", "--seed", flag]) == 1
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("p", ["0", "1", "2"])
    def test_graph_too_small_is_an_input_error(self, tmp_path, monkeypatch, capsys, p):
        monkeypatch.chdir(tmp_path)
        assert main(["clique", "--p", p, "--s", "2", "--trials", "1"]) == 1
        assert not (tmp_path / "clique_results.csv").exists()

    @pytest.mark.parametrize("p, s, trials", [
        pytest.param(10, 3, 2.5, id="10-2.5"),
        pytest.param(10, 3, True, id="10-True"),
        pytest.param(10.5, 3, 1, id="10.5-1"),
        (10, 300, 2), (10, 1, 2), (10, 2.5, 2), (20, 5.5, 1),
    ])
    def test_non_integer_size_or_trials_is_an_input_error(self, tmp_path, monkeypatch,
                                                           p, s, trials):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(InvalidInput):
            cmd_clique(p, s, trials, 1)
        assert list(tmp_path.iterdir()) == []

    def test_integer_valued_size_is_stored_as_int(self, tmp_path, capsys):
        out = str(tmp_path / "cl.csv")
        assert cmd_clique(20, 5.0, 1, 1, out=out) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["s"] == 5 and type(config["s"]) is int
        assert read_rows(out)[0]["s"] == "5"

    def test_oversized_clique_is_an_input_error(self, tmp_path, monkeypatch):
        # no --out: nothing lands in the working directory either
        monkeypatch.chdir(tmp_path)
        assert main(["clique", "--p", "10", "--s", "11", "--trials", "1"]) == 1
        assert list(tmp_path.iterdir()) == []


class TestPhaseCmd:
    def phase_config(self, tmp_path, **overrides):
        kw = {
            "model": "spiked",
            "model_params": {"p": 20, "k": 1, "s": 3,
                             "spike_values": (2.0,), "noise": 1.0},
            "grid": {"n": (100, 20000)},
            "trials": 3,
            "seed": 8,
            "output_path": str(tmp_path / "phase.csv"),
        }
        kw.update(overrides)
        return ExperimentConfig(**kw)

    def test_recovery_improves_with_sample_size(self, tmp_path, capsys):
        cfg = self.phase_config(tmp_path)
        assert cmd_phase(cfg) == 0
        summary = json.loads(capsys.readouterr().out)
        freqs = {c["n"]: c["frequency"] for c in summary["cells"]}
        assert freqs[100] <= freqs[20000]
        assert freqs[20000] == 1.0
        assert summary["version"] == __version__
        assert summary["config"]["model"] == "spiked"
        rows = read_rows(cfg.output_path)
        assert len(rows) == 6
        assert list(rows[0].keys()) == list(TRIAL_FIELDS)
        # prescription scales the penalty down with n
        rho_small = float(rows[0]["rho"])
        rho_large = float(rows[-1]["rho"])
        assert rho_large < rho_small

    def test_summary_json_written_next_to_csv(self, tmp_path, capsys):
        cfg = self.phase_config(tmp_path, trials=1, grid={"n": (5000,)})
        cmd_phase(cfg)
        capsys.readouterr()
        sidecar = json.load(open(str(tmp_path / "phase.summary.json")))
        assert sidecar["command"] == "phase"
        assert sidecar["config"]["trials"] == 1

    def test_rerun_is_bit_identical_modulo_timing(self, tmp_path, capsys):
        cfg_a = self.phase_config(tmp_path, trials=1, grid={"n": (2000,)},
                                  output_path=str(tmp_path / "a.csv"))
        cfg_b = self.phase_config(tmp_path, trials=1, grid={"n": (2000,)},
                                  output_path=str(tmp_path / "b.csv"))
        cmd_phase(cfg_a)
        cmd_phase(cfg_b)
        capsys.readouterr()
        assert strip_wall(str(tmp_path / "a.csv")) == strip_wall(str(tmp_path / "b.csv"))

    def test_explicit_rho_grid_overrides_prescription(self, tmp_path, capsys):
        cfg = self.phase_config(tmp_path, trials=1,
                                grid={"n": (2000,), "rho": (0.07,)})
        cmd_phase(cfg)
        capsys.readouterr()
        rows = read_rows(cfg.output_path)
        assert float(rows[0]["rho"]) == 0.07

    def test_condition_flags_present(self, tmp_path, capsys):
        cfg = self.phase_config(tmp_path, trials=1, grid={"n": (20000,)})
        cmd_phase(cfg)
        capsys.readouterr()
        row = read_rows(cfg.output_path)[0]
        assert row["lcc_alpha"] == "1.0"
        assert row["entrywise_min_ok"] in ("true", "false")
        assert row["prob_sample_ok"] in ("true", "false")

    def test_failed_solve_is_a_row(self, tmp_path, capsys):
        # NotConverged is a solve outcome: the sweep records it and exits 0
        cfg = self.phase_config(tmp_path, trials=2, grid={"n": (500,)},
                                tolerances={"max_iters": 1})
        assert cmd_phase(cfg) == 0
        capsys.readouterr()
        rows = read_rows(cfg.output_path)
        assert len(rows) == 2
        assert all("max_iters" in row["error"] for row in rows)

    def test_unknown_model_is_an_input_error(self, tmp_path):
        cfg = self.phase_config(tmp_path, model="banana")
        with pytest.raises(InvalidInput):
            cmd_phase(cfg)

    def test_missing_n_axis(self, tmp_path):
        cfg = self.phase_config(tmp_path, grid={"rho": (0.1,)})
        with pytest.raises(InvalidInput):
            cmd_phase(cfg)


class TestPersistCmd:
    def persist_config(self, tmp_path, **overrides):
        kw = {
            "model": "spiked",
            "model_params": {"p": 10, "k": 1, "s": 3,
                             "spike_values": (2.0,), "noise": 1.0},
            "grid": {"n": (0, 500), "r": (1.0, 2.0)},
            "trials": 2,
            "seed": 8,
            "output_path": str(tmp_path / "persist.csv"),
        }
        kw.update(overrides)
        return ExperimentConfig(**kw)

    def test_sweep_respects_sandwich_and_bound(self, tmp_path, capsys):
        cfg = self.persist_config(tmp_path)
        assert cmd_persist(cfg) == 0
        summary = json.loads(capsys.readouterr().out)
        assert all(c["sandwich_violations"] == 0 for c in summary["cells"])
        for row in read_rows(cfg.output_path):
            assert row["error"] == ""
            gap = float(row["persist_gap"])
            bound = float(row["persist_bound"])
            assert gap <= bound + 1e-4
            if row["n"] == "0":
                # population cells solve with the exact matrix
                assert abs(gap) <= 1e-6
                assert bound == 0.0

    def test_budget_below_trace_rejected(self, tmp_path):
        cfg = self.persist_config(tmp_path, grid={"n": (0,), "r": (0.5,)})
        with pytest.raises(InvalidInput):
            cmd_persist(cfg)

    def test_missing_r_axis(self, tmp_path):
        cfg = self.persist_config(tmp_path, grid={"n": (500,)})
        with pytest.raises(InvalidInput):
            cmd_persist(cfg)


class TestCertifyCmd:
    def test_clean_instance_certifies(self, toy_csv, capsys):
        assert cmd_certify(toy_csv, toy_csv, 1, (0, 1), 0.002) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["certified"] is True
        assert out["witness"]["witness_valid"] is True
        assert out["witness"]["dual_offsupport_max"] <= 1.0
        assert all(out["clauses"].values())

    def test_penalty_ceiling_clause_gates_exit(self, toy_csv, capsys):
        # at rho = 0.01 the ceiling condition is violated on this matrix
        # (slack -0.934) even though the certificate itself is feasible
        assert cmd_certify(toy_csv, toy_csv, 1, (0, 1), 0.01) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["clauses"]["penalty_ceiling"] is False
        assert out["witness"]["witness_valid"] is True

    def test_correlated_decoy_fails_budget_clause(self, toy_coupled_csv, capsys):
        assert cmd_certify(toy_coupled_csv, toy_coupled_csv,
                           1, (0, 1), 0.002) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["clauses"]["error_correlation_budget"] is False

    def test_one_eigh_of_sigma(self, toy_csv, monkeypatch, capsys):
        # S enters only through its support block, so every 3x3 eigh is
        # Sigma's: the conditions and the witness share it
        calls = count_linalg(monkeypatch, "eigh")
        assert cmd_certify(toy_csv, toy_csv, 1, (0, 1), 0.002) == 0
        assert calls.count((3, 3)) == 1

    def test_out_of_range_support(self, toy_csv, capsys):
        assert main(["certify", toy_csv, toy_csv,
                     "--k", "1", "--j", "0,9", "--rho", "0.002"]) == 1
        assert "[0, 9]" in capsys.readouterr().err

    def test_unreadable_matrix(self, toy_csv, capsys):
        assert main(["certify", toy_csv, "/nonexistent.csv",
                     "--k", "1", "--j", "0,1", "--rho", "0.002"]) == 1

    def test_report_written_to_file(self, toy_csv, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        cmd_certify(toy_csv, toy_csv, 1, (0, 1), 0.002, out=out)
        capsys.readouterr()
        assert json.load(open(out))["certified"] is True


class TestMainPlumbing:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_value(self, toy_csv, capsys):
        assert main(["solve", toy_csv, "--k", "one"]) == 1

    def test_bad_j_list(self, toy_csv, capsys):
        assert main(["certify", toy_csv, toy_csv,
                     "--k", "1", "--j", "a,b", "--rho", "0.01"]) == 1

    def test_domain_errors_are_input_errors(self):
        # main exits 1 for every InvalidInput, these two included
        assert issubclass(SpsViolated, InvalidInput)
        assert issubclass(InfeasibleConstraint, InvalidInput)

    def test_solve_via_argv(self, toy_csv, capsys):
        assert main(["solve", toy_csv, "--k", "1", "--rho", "0.95"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["support"] == [2]
