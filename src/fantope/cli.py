"""Command-line harness: single solves, certificates, and seeded experiment sweeps.

Subcommands
-----------
solve    penalized solve of one matrix CSV; JSON summary on stdout
phase    support-recovery sweep over a sample-size grid
clique   planted-clique recovery experiment
persist  predictive-covariance sweep over l1 budgets
certify  recovery conditions plus dual certificate for (Sigma, S, J, rho)

Exit codes: 0 success; 1 for any InvalidInput (SpsViolated and
InfeasibleConstraint included) or OSError; 2 for NotConverged or
NumericalFailure; 3 for a failed certification.  In a sweep (phase,
clique, persist) a trial's NotConverged or NumericalFailure is recorded
in its row's error cell and the sweep goes on; an InvalidInput anywhere,
in a trial too, exits 1 before any file is written.  The environment
variable FPS_SEED, when set, overrides any seed given by flag or config
file.  Experiment subcommands write a CSV with the fixed TrialRecord
column set plus a summary JSON that embeds the fully resolved
configuration and the package version; the summary is also printed to
stdout.

Config file grammar (phase, persist): flat ``key = value`` lines.
``#`` starts a comment, blank lines are skipped, commas make a list
(one level, no nesting).  Atoms parse as int, then float, then
true/false, else bare string.  ``grid_<axis>`` keys declare sweep axes
(grid_n, grid_p, grid_s, grid_rho for phase; grid_n, grid_r for
persist); scalar keys set model parameters and tolerances.  In persist
grids, n = 0 means "use the population matrix exactly" (no sampling).

Recognized keys: model (spiked or toy), p, k, s, t, spike_values,
noise, trials, seed, sigma_mult, alpha, output_path, support_tol, eps,
max_iters, admm_step, sandwich_tol, and the grid_* axes.
"""

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .base import _finite_real, _integer, as_support
from .errors import InvalidInput, NotConverged, NumericalFailure, SpsViolated
from .spectral import as_sym, eig_sym
from .solver import SolverConfig, solve_fps, solve_fps_constrained
from .models import (entrywise_error, gen_planted_clique, gen_spiked, gen_toy,
                     load_matrix_csv, sample_covariance, sample_gaussian,
                     save_matrix_csv)
from .diagnostics import (check_lcc, check_recovery_conditions,
                          check_sample_conditions, build_witness,
                          support_error)

# planted-clique penalty: rho = CLIQUE_RHO_MULT * sqrt(log p / (p - 1));
# calibrated on p=200: at 0.8-0.9 a size-40 clique is recovered in every
# pilot trial while size 5 (far below the sqrt(p log p) threshold) never
# is; below 0.7 the weakest clique member starts getting clipped and the
# weakly penalized solves slow down badly
CLIQUE_RHO_MULT = 0.85


# ===== experiment configuration =====

_MODEL_KEYS = ("model", "p", "k", "s", "t", "spike_values", "noise")
_SOLVER_KEYS = ("support_tol", "eps", "max_iters", "admm_step")
_TOL_KEYS = _SOLVER_KEYS + ("sandwich_tol",)
_SCALAR_KEYS = _MODEL_KEYS + _TOL_KEYS + (
    "trials", "seed", "sigma_mult", "alpha", "output_path")
_GRID_KEYS = ("grid_n", "grid_p", "grid_s", "grid_rho", "grid_r")


def _nonneg_int(name, value):
    return _integer(name, value, least=0)


# how each model parameter and grid value is checked and stored;
# grid_n = 0 is persist's "use the population matrix exactly"
_PARAM_TYPES = {"p": _integer, "k": _integer, "s": _integer, "t": _finite_real,
                "noise": _finite_real,
                "spike_values": lambda name, vals: tuple(_finite_real(name, v) for v in vals)}
_AXIS_TYPES = {"n": _nonneg_int, "p": _integer, "s": _integer,
               "rho": _finite_real, "r": _finite_real}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved sweep description: model, grid axes, trials, seed, outputs."""

    model: str = "spiked"
    model_params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    trials: int = 1
    seed: int = 1
    sigma_mult: float = 3.0
    alpha: float = None
    output_path: str = None
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        # every value is typed here, once; commands read them as stored
        params = {key: _PARAM_TYPES[key](key, v) if key in _PARAM_TYPES else v
                  for key, v in self.model_params.items()}
        grid = {}
        for axis, vals in self.grid.items():
            if axis not in _AXIS_TYPES or len(vals) == 0:
                raise InvalidInput(f"grid axis '{axis}' is unknown or empty")
            grid[axis] = tuple(_AXIS_TYPES[axis](f"grid_{axis}", v) for v in vals)
        tols = dict(self.tolerances)
        if "sandwich_tol" in tols:
            tols["sandwich_tol"] = _finite_real("sandwich_tol", tols["sandwich_tol"], 0.0)
        # the solver's own, by SolverConfig's rules
        solver = _solver_config(1, 0.0, tols)
        tols.update({key: getattr(solver, key) for key in _SOLVER_KEYS if key in tols})
        if self.alpha is not None and _finite_real("alpha", self.alpha, 0.0, strict=True) > 1:
            raise InvalidInput(f"alpha={self.alpha!r} must be in (0, 1]")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise InvalidInput(f"output_path={self.output_path!r} must be a path")
        for name, value in (
                ("model_params", params), ("grid", grid), ("tolerances", tols),
                ("trials", _integer("trials", self.trials)),
                ("seed", _nonneg_int("seed", self.seed)),
                ("sigma_mult", _finite_real("sigma_mult", self.sigma_mult, 0.0, strict=True)),
                ("alpha", None if self.alpha is None else float(self.alpha))):
            object.__setattr__(self, name, value)


def _parse_atom(text):
    text = text.strip()
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    return text


def parse_config(path):
    """Parse a flat key/value config file into an ExperimentConfig."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise InvalidInput(f"cannot read config {path}: {e}")
    raw = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InvalidInput(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise InvalidInput(f"{path}:{lineno}: empty value for '{key}'")
        if key in raw:
            raise InvalidInput(f"{path}:{lineno}: duplicate key '{key}'")
        if key not in _SCALAR_KEYS and key not in _GRID_KEYS:
            raise InvalidInput(f"{path}:{lineno}: unknown key '{key}'")
        atoms = tuple(_parse_atom(a) for a in value.split(","))
        raw[key] = atoms if (len(atoms) > 1 or key.startswith("grid_")
                             or key == "spike_values") else atoms[0]

    grid = {k[len("grid_"):]: tuple(raw.pop(k)) for k in _GRID_KEYS if k in raw}
    model_params = {k: raw.pop(k) for k in _MODEL_KEYS if k in raw and k != "model"}
    tolerances = {k: raw.pop(k) for k in _TOL_KEYS if k in raw}
    # the keys left are ExperimentConfig's own fields; absent ones take its defaults
    return ExperimentConfig(model_params=model_params, grid=grid,
                            tolerances=tolerances, **raw)


def _resolve_seed(seed):
    """The run's seed: FPS_SEED when it is set, else seed; an integer >= 0."""
    env = os.environ.get("FPS_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise InvalidInput(f"FPS_SEED={env!r} is not an integer")
    return _nonneg_int("seed", seed)


def _trial_seed(seed, cell, trial):
    # deterministic, collision-free for sane sweep sizes
    return seed * 1_000_003 + cell * 1_009 + trial


def _solver_config(k, rho, tolerances):
    kw = {key: tolerances[key] for key in _SOLVER_KEYS if key in tolerances}
    return SolverConfig(k=k, rho=rho, **kw)


# ===== trial records =====

@dataclass
class TrialRecord:
    """One row of experiment output; unset fields serialize as empty cells."""

    experiment: str
    cell: int
    trial: int
    n: int = None
    p: int = None
    s: int = None
    k: int = None
    rho: float = None
    r_level: float = None
    seed: int = None
    exact_recovery: bool = None
    false_pos: int = None
    false_neg: int = None
    frob_error: float = None
    objective: float = None
    iters: int = None
    wall_ms: int = None
    lcc_alpha: float = None
    det_cond1_lhs: float = None
    det_cond2_slack: float = None
    entrywise_min_ok: bool = None
    prob_sample_ok: bool = None
    pop_value: float = None
    emp_value: float = None
    persist_gap: float = None
    persist_bound: float = None
    sandwich_ok: bool = None
    error: str = ""

    def row(self):
        return [_fmt(getattr(self, f.name)) for f in fields(self)]


TRIAL_FIELDS = tuple(f.name for f in fields(TrialRecord))


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _stem(path):
    return path[:-4] if path.endswith(".csv") else path


def _emit_json(summary, path=None):
    """Print summary as JSON, and write it to path when one is given."""
    text = json.dumps(summary, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _write_outputs(out_csv, records, summary):
    """The trial CSV, its .summary.json sidecar, and the summary on stdout."""
    with open(out_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRIAL_FIELDS)
        for rec in records:
            w.writerow(rec.row())
    _emit_json(summary, _stem(out_csv) + ".summary.json")


# a failed solve: recorded in its trial's row, and the sweep goes on.  An
# InvalidInput is a bad config, never a row: main exits 1 before any file
_TRIAL_ERRORS = (NotConverged, NumericalFailure)


@contextmanager
def _trial(records, rec):
    """Time the body, record a typed error in rec.error, then append rec."""
    t0 = time.perf_counter()
    try:
        yield rec
    except _TRIAL_ERRORS as e:
        rec.error = str(e)
    rec.wall_ms = int(round((time.perf_counter() - t0) * 1000))
    records.append(rec)


def _score(rec, sol, model):
    fp, fn, exact = support_error(sol.support, model.J)
    rec.exact_recovery = exact
    rec.false_pos, rec.false_neg = fp, fn
    rec.frob_error = float(np.linalg.norm(sol.H.entries - model.Pi.entries))
    rec.objective = sol.objective
    rec.iters = sol.iters


def _condition_flags(rec, sigma, smat, k, j, rho):
    # best-effort: a check that cannot be evaluated leaves its cells empty
    try:
        cond = check_recovery_conditions(sigma, smat, k, j, rho)
        rec.lcc_alpha = cond.lcc_alpha
        rec.det_cond1_lhs = cond.det_cond1_lhs
        rec.det_cond2_slack = cond.det_cond2_slack
        rec.entrywise_min_ok = cond.entrywise_min_ok
    except InvalidInput:
        pass


# ===== solve =====

def cmd_solve(matrix_csv, k, rho, out_h=None, **settings):
    """Solve one matrix from CSV and print a JSON solution summary.

    settings are SolverConfig's other fields; absent ones take its defaults.
    """
    s = load_matrix_csv(matrix_csv)
    cfg = SolverConfig(k=k, rho=rho, **settings)
    sol = solve_fps(s, cfg)
    if out_h is None:
        out_h = _stem(matrix_csv) + ".H.csv"
    save_matrix_csv(out_h, sol.H.entries)
    summary = {
        "command": "solve",
        "version": __version__,
        "config": {"matrix_csv": matrix_csv, **asdict(cfg)},
        "h_csv": out_h,
        "support": list(sol.support.indices),
        "objective": sol.objective,
        "iters": sol.iters,
        "working_set": sol.working_set,
        "primal_residual": sol.primal_residual,
        "dual_residual": sol.dual_residual,
        "dual_clip_excess": sol.dual_clip_excess,
        "kkt": {name: getattr(sol.kkt, name) for name in
                ("sign_mismatch", "dual_bound_violation", "fantope_optimality_gap")},
    }
    _emit_json(summary)
    return 0


# ===== phase =====

def _build_model(name, params, seed):
    if name == "toy":
        return gen_toy(params.get("t", 0.0))
    if name == "spiked":
        p = params.get("p", 100)
        k = params.get("k", 2)
        s = params.get("s", 5)
        spikes = params.get("spike_values", tuple(range(k + 1, 1, -1)))
        noise = params.get("noise", 1.0)
        return gen_spiked(p, k, range(s), spikes, noise, seed)
    raise InvalidInput(f"unknown model '{name}' (expected spiked or toy)")


def cmd_phase(config):
    """Support-recovery sweep: sample, solve at the prescribed penalty, score."""
    seed = _resolve_seed(config.seed)
    axes = [a for a in ("n", "p", "s", "rho") if a in config.grid]
    if "n" not in axes:
        raise InvalidInput("phase needs a grid_n axis")
    cells = list(itertools.product(*(config.grid[a] for a in axes)))
    out_csv = config.output_path or "phase_results.csv"
    # k and rho are set per cell and trial
    solver = _solver_config(1, 0.0, config.tolerances)

    records, cell_stats = [], []
    for ci, values in enumerate(cells):
        coord = dict(zip(axes, values))
        params = dict(config.model_params)
        params.update({a: coord[a] for a in ("p", "s") if a in coord})
        n = coord["n"]
        model = _build_model(config.model, params, seed)
        k, p = model.k, model.dim
        alpha = config.alpha
        if alpha is None:
            _, alpha = check_lcc(model.Sigma, k, model.J)
        for ti in range(config.trials):
            tseed = _trial_seed(seed, ci, ti)
            with _trial(records, TrialRecord("phase", ci, ti, n=n, p=p,
                                             s=len(model.J), k=k,
                                             seed=tseed)) as rec:
                smat = sample_covariance(sample_gaussian(model, n, tseed))
                lam1 = eig_sym(smat).eigenvalues[0]
                sigma_hat = config.sigma_mult * lam1
                if "rho" in coord:
                    rho = coord["rho"]
                else:
                    if alpha <= 0:
                        raise InvalidInput(
                            "correlation condition leaves alpha = 0; "
                            "set an explicit alpha or rho grid")
                    rho = (sigma_hat / alpha) * math.sqrt(math.log(p) / n)
                rec.rho = rho
                sol = solve_fps(smat, solver.with_(k=k, rho=rho))
                _score(rec, sol, model)
                _condition_flags(rec, model.Sigma, smat, k, model.J, rho)
                try:
                    cond = check_sample_conditions(model.Sigma, k, model.J,
                                                   n, sigma_hat, alpha)
                    rec.prob_sample_ok = cond.prob_sample_ok
                except InvalidInput:
                    pass
        recovered = sum(bool(rec.exact_recovery) for rec in records[-config.trials:])
        cell_stats.append({"cell": ci, **coord, "recovered": recovered,
                           "trials": config.trials,
                           "frequency": recovered / config.trials})

    _write_outputs(out_csv, records,
                   {"command": "phase", "version": __version__,
                    "config": asdict(config), "seed": seed,
                    "output_csv": out_csv, "cells": cell_stats})
    return 0


# ===== planted clique =====

def cmd_clique(p, s, trials, seed, rho_mult=CLIQUE_RHO_MULT,
               support_tol=1e-3, out=None):
    """Planted-clique recovery: draw graphs, solve at k=1, score the clique."""
    trials = _integer("trials", trials)
    # the penalty below divides by p - 1 and takes log p
    p = _integer("p", p, least=3)
    s = _integer("s", s, least=2)
    seed = _resolve_seed(seed)
    rho = rho_mult * math.sqrt(math.log(p) / (p - 1))
    cfg = SolverConfig(k=1, rho=rho, support_tol=support_tol)
    out_csv = out or "clique_results.csv"

    records = []
    for ti in range(trials):
        tseed = _trial_seed(seed, 0, ti)
        with _trial(records, TrialRecord("clique", 0, ti, n=p, p=p, s=s, k=1,
                                         rho=rho, seed=tseed)) as rec:
            model, smat = gen_planted_clique(p, s, tseed)
            sol = solve_fps(smat, cfg)
            _score(rec, sol, model)
            _condition_flags(rec, model.Sigma, smat, 1, model.J, rho)
    recovered = sum(bool(rec.exact_recovery) for rec in records)

    _write_outputs(out_csv, records,
                   {"command": "clique", "version": __version__,
                    "config": {"p": p, "s": s, "trials": trials, "seed": seed,
                               "rho_mult": rho_mult, "rho": rho,
                               "support_tol": support_tol},
                    "output_csv": out_csv, "recovered": recovered,
                    "trials": trials, "frequency": recovered / trials})
    return 0


# ===== persistence =====

def cmd_persist(config):
    """Predictive-covariance sweep over l1 budgets, with the deviation bound."""
    seed = _resolve_seed(config.seed)
    if "r" not in config.grid:
        raise InvalidInput("persist needs a grid_r axis")
    n_axis = config.grid.get("n", (0,))
    r_axis = config.grid["r"]
    model = _build_model(config.model, config.model_params, seed)
    k, p = model.k, model.dim
    sandwich_tol = config.tolerances.get("sandwich_tol", 1e-6)
    cfg = _solver_config(k, 0.0, config.tolerances)
    out_csv = config.output_path or "persist_results.csv"

    # the population value depends only on R; solve once per budget
    pop = {}
    for r in r_axis:
        sol, _ = solve_fps_constrained(model.Sigma, r, cfg)
        pop[r] = float(np.sum(model.Sigma.entries * sol.H.entries))

    records, cell_stats = [], []
    cells = list(itertools.product(n_axis, r_axis))
    for ci, (n, r) in enumerate(cells):
        for ti in range(config.trials):
            tseed = _trial_seed(seed, ci, ti)
            with _trial(records, TrialRecord("persist", ci, ti, n=n, p=p, k=k,
                                             r_level=r, seed=tseed)) as rec:
                smat = (model.Sigma if n == 0 else
                        sample_covariance(sample_gaussian(model, n, tseed)))
                sol, rec.rho = solve_fps_constrained(smat, r, cfg)
                rec.objective = float(np.sum(smat.entries * sol.H.entries))
                rec.iters = sol.iters
                rec.pop_value = pop[r]
                rec.emp_value = float(np.sum(model.Sigma.entries * sol.H.entries))
                rec.persist_gap = rec.pop_value - rec.emp_value
                rec.persist_bound = 2.0 * r * entrywise_error(smat, model.Sigma)
                rec.sandwich_ok = rec.persist_gap >= -sandwich_tol
        violations = sum(not rec.sandwich_ok for rec in records[-config.trials:]
                         if rec.sandwich_ok is not None)
        cell_stats.append({"cell": ci, "n": n, "r": r,
                           "trials": config.trials,
                           "sandwich_violations": violations})

    _write_outputs(out_csv, records,
                   {"command": "persist", "version": __version__,
                    "config": asdict(config), "seed": seed,
                    "output_csv": out_csv, "cells": cell_stats})
    return 0


# ===== certify =====

def cmd_certify(sigma_csv, s_csv, k, j, rho, out=None):
    """Evaluate recovery conditions and the dual certificate; exit 0 iff both pass."""
    # wrapped once, so the conditions and the witness share Sigma's spectrum
    sigma = as_sym(load_matrix_csv(sigma_csv))
    smat = as_sym(load_matrix_csv(s_csv))
    jset = as_support(j)
    try:
        cond = check_recovery_conditions(sigma, smat, k, jset, rho)
        wit = build_witness(sigma, smat, k, jset, rho)
    except SpsViolated as e:
        print(f"certification failed: {e}", file=sys.stderr)
        return 3
    clauses = {
        "error_correlation_budget": bool(cond.det_cond1_lhs <= 1.0),
        "penalty_ceiling": bool(cond.det_cond2_slack > 0.0),
        "signal_leverage": bool(cond.signal_min_leverage
                                > cond.signal_leverage_required),
        "entrywise_floor": bool(cond.entrywise_min_ok),
    }
    certified = bool(wit.witness_valid and all(clauses.values()))
    summary = {
        "command": "certify",
        "version": __version__,
        "config": {"sigma_csv": sigma_csv, "s_csv": s_csv, "k": k,
                   "j": list(jset.indices), "rho": rho},
        "conditions": cond.to_flat_dict(),
        "witness": wit.to_flat_dict(),
        "clauses": clauses,
        "certified": certified,
    }
    _emit_json(summary, out)
    return 0 if certified else 3


# ===== argument parsing =====

class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code 2 on bad flags; route through the
    # input-error path instead so the exit-code contract holds
    def error(self, message):
        raise InvalidInput(message)


def _int_list(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InvalidInput(f"expected comma-separated integers, got {text!r}")


def _build_parser():
    ap = _Parser(prog="fps", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one matrix CSV")
    p.add_argument("matrix_csv")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", type=float, default=SolverConfig.rho)
    p.add_argument("--tau-en", type=float, default=SolverConfig.tau_en)
    p.add_argument("--support-tol", type=float, default=SolverConfig.support_tol)
    p.add_argument("--eps", type=float, default=SolverConfig.eps)
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    p.add_argument("--step", type=float, default=SolverConfig.admm_step)
    p.add_argument("--out-h", default=None)
    p.set_defaults(func=lambda a: cmd_solve(
        a.matrix_csv, a.k, a.rho, tau_en=a.tau_en, support_tol=a.support_tol,
        eps=a.eps, max_iters=a.max_iters, admm_step=a.step, out_h=a.out_h))

    p = sub.add_parser("phase", help="support-recovery sweep from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=lambda a: cmd_phase(parse_config(a.config)))

    p = sub.add_parser("clique", help="planted-clique experiment")
    p.add_argument("--p", type=int, default=200)
    p.add_argument("--s", type=int, default=40)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rho-mult", type=float, default=CLIQUE_RHO_MULT)
    p.add_argument("--support-tol", type=float, default=1e-3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=lambda a: cmd_clique(
        a.p, a.s, a.trials, a.seed, rho_mult=a.rho_mult,
        support_tol=a.support_tol, out=a.out))

    p = sub.add_parser("persist", help="persistence sweep from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=lambda a: cmd_persist(parse_config(a.config)))

    p = sub.add_parser("certify", help="conditions + dual certificate")
    p.add_argument("sigma_csv")
    p.add_argument("s_csv")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=_int_list, required=True,
                   help="support indices, comma-separated")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=lambda a: cmd_certify(
        a.sigma_csv, a.s_csv, a.k, a.j, a.rho, out=a.out))
    return ap


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (InvalidInput, OSError, NotConverged, NumericalFailure) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, (InvalidInput, OSError)) else 2


if __name__ == "__main__":
    sys.exit(main())
