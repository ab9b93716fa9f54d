"""The benchmark workloads and their correctness checks.

Each workload object has
  setup(rep)        build the model and run one warm-up trial;
  kind(i)           the class of trial i (used to split per-layer figures);
  prepare(i)        untimed: the input of trial i (by default i itself);
  run(prepared)     trial i, the timed region;
  check(i, out, captured)
                    untimed: returns (violations, recovered) where
                    recovered is True/False for a trial where theory
                    predicts exact recovery and None otherwise.
Trial i uses seed  base + i  with base = 10_000 * workload seed, so one
seed gives one contiguous, reproducible sequence of inputs; warm-up trials
use seeds from base + 9_000 on, outside any run's trial range.

The package is reached only through attributes looked up at call time
(``F.solve_fps``, ``F.cli.main``), so the tracer's rebinding is seen.
"""

import contextlib
import csv
import inspect
import io
import json
import math
import os

import numpy as np

import fantope as F
import fantope.cli  # noqa: F401  (binds F.cli)

# gate 10 of the acceptance suite: stationarity of every converged solve
KKT_SIGN = 1e-4
KKT_DUAL = 1e-6
KKT_GAP = 1e-4
# an exact recovery solves the problem restricted to the support, so its H
# must equal the witness's restricted solution; both solves stop at
# residual 1e-7 and agree to ~3e-6 in Frobenius norm at p=200
WITNESS_AGREE = 1e-4

SEED_STRIDE = 10_000
WARMUP_OFFSET = 9_000


def kkt_violations(captured):
    """Gate-10 KKT thresholds on every converged solve the trial made."""
    out = []
    for name, fn, args, kwargs, result, error in captured:
        if error is not None:
            continue
        bound = inspect.signature(fn).bind(*args, **kwargs)
        s, config = bound.arguments["s"], bound.arguments["config"]
        sol, rho = result if name == "solve_fps_constrained" else (result, config.rho)
        rep = F.check_kkt(s, sol, rho, support_tol=config.support_tol)
        obj = sol.objective
        if not (rep.sign_mismatch <= KKT_SIGN
                and rep.dual_bound_violation <= KKT_DUAL
                and rep.fantope_optimality_gap <= KKT_GAP * (1.0 + abs(obj))):
            out.append(f"{name}: KKT sign {rep.sign_mismatch:.3e} dual "
                       f"{rep.dual_bound_violation:.3e} gap {rep.fantope_optimality_gap:.3e}")
    return out


class Workload:
    def prepare(self, i):
        return i


class SpikedPhase(Workload):
    """Gate 5's prescribed-penalty pipeline at p=200 with n=8000 samples."""

    name = "spiked_phase"
    p, k, n, sigma_mult = 200, 2, 8000, 3.0
    model_seed = 12

    def __init__(self, seed, workdir):
        self.base = SEED_STRIDE * seed

    def setup(self, rep):
        self.model = F.gen_spiked(self.p, self.k, range(5), (3.0, 2.0), 1.0, self.model_seed)
        _, self.alpha = F.check_lcc(self.model.Sigma, self.k, self.model.J)
        self.run(WARMUP_OFFSET + rep)

    def kind(self, i):
        return "spiked"

    def sample(self, i):
        """Trial i's sample covariance and its plug-in penalty."""
        smat = F.sample_covariance(F.sample_gaussian(self.model, self.n, self.base + i))
        lam1 = float(F.eig_sym(smat).eigenvalues[0])
        return smat, (self.sigma_mult * lam1 / self.alpha) * math.sqrt(math.log(self.p) / self.n)

    def run(self, i):
        model = self.model
        smat, rho = self.sample(i)
        cfg = F.SolverConfig(k=self.k, rho=rho)
        sol = F.solve_fps(smat, cfg)
        exact = F.support_error(sol.support, model.J)[2]
        out = {"exact": exact, "iters": sol.iters}
        if exact:
            probe, _ = F.uniqueness_probe(smat, cfg)
            wit = F.build_witness(model.Sigma, smat, self.k, model.J, rho)
            F.check_recovery_conditions(model.Sigma, smat, self.k, model.J, rho)
            out.update(unique=probe.unique, witness_valid=wit.witness_valid,
                       witness_diff=float(np.linalg.norm(sol.H.entries - wit.Htilde.entries)))
        return out

    def check(self, i, out, captured):
        bad = kkt_violations(captured)
        if out is None:
            return bad, False
        if out["exact"] and not out["unique"]:
            bad.append("exact recovery not certified unique")
        # the witness is a sufficient certificate: an exact recovery it does
        # not certify is counted in witness_frac, not flagged
        if out["exact"] and not out["witness_diff"] <= WITNESS_AGREE:
            bad.append(f"exact recovery differs from the witness's restricted solution "
                       f"by {out['witness_diff']:.3e}")
        return bad, bool(out["exact"])


def run_fps(argv):
    """`fps <argv>` in this process, through the entry point, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = F.cli.main(argv)
    return code, buf.getvalue()


def fps_violations(out, captured, sizes, support):
    """Checks shared by the `fps` workloads: one solve, one CSV row, one summary.

    Reads and then removes the run's CSV and summary.  Returns the violations,
    whether the solve recovered `support` exactly, and the parsed summary
    (None when the outputs are unreadable or hold the wrong number of rows).
    """
    solves = [c for c in captured if c[0] == "solve_fps"]
    summary_path = out["csv"][:-4] + ".summary.json"
    try:
        with open(out["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(summary_path) as fh:
            summary = json.load(fh)
        printed = json.loads(out["stdout"])
        out["bytes"] = (os.path.getsize(out["csv"]) + os.path.getsize(summary_path)
                        + len(out["stdout"].encode()))
    except (OSError, ValueError) as e:
        return [f"unreadable output: {e}"], False, None
    finally:
        for path in (out["csv"], summary_path):
            if os.path.exists(path):
                os.remove(path)
    bad = []
    if out["code"] != 0:
        bad.append(f"fps exited with {out['code']}")
    if len(solves) != 1 or len(rows) != 1:
        bad.append(f"expected one solve and one CSV row, got {len(solves)} and {len(rows)}")
        return bad, False, None
    row, (_, _, _, _, sol, err) = rows[0], solves[0]
    exact = err is None and tuple(sol.support.indices) == tuple(support)
    if printed != summary:
        bad.append("printed summary differs from the summary file")
    if any(row.get(key) != str(value) for key, value in sizes.items()):
        bad.append("CSV row has the wrong sizes")
    if err is None:
        if (row.get("error"), row.get("exact_recovery"), row.get("iters")) != (
                "", "true" if exact else "false", str(sol.iters)):
            bad.append("CSV row disagrees with the converged solve")
    elif not row.get("error") or row.get("exact_recovery"):
        bad.append(f"CSV row hides the {type(err).__name__}")
    return bad, exact, summary


class CliqueCli(Workload):
    """`fps clique` at p=200, one trial per invocation, s=40 and s=5 mixed 3:1."""

    name = "clique_cli"
    p = 200
    period = 4  # every fourth trial is the hard s=5 case

    def __init__(self, seed, workdir):
        self.base = SEED_STRIDE * seed
        self.workdir = workdir

    def setup(self, rep):
        self.invoke(40, self.base + WARMUP_OFFSET + rep, "warmup")

    def size(self, i):
        return 5 if i % self.period == self.period - 1 else 40

    def kind(self, i):
        return f"s{self.size(i)}"

    def run(self, i):
        return self.invoke(self.size(i), self.base + i, i)

    def invoke(self, s, seed, label):
        out_csv = os.path.join(self.workdir, f"clique-{label}.csv")
        code, stdout = run_fps(["clique", "--p", str(self.p), "--s", str(s), "--trials", "1",
                                "--seed", str(seed), "--out", out_csv])
        return {"s": s, "seed": seed, "code": code, "csv": out_csv, "stdout": stdout}

    def check(self, i, out, captured):
        bad = kkt_violations(captured)
        # theory predicts exact recovery above the detection threshold only
        scored = lambda exact: exact if self.size(i) == 40 else None
        if out is None:
            return bad, scored(False)
        s = out["s"]
        more, exact, summary = fps_violations(out, captured, {"s": s, "p": self.p}, range(s))
        bad += more
        if summary is not None:
            if (summary.get("recovered"), summary.get("trials")) != (int(exact), 1):
                bad.append(f"summary says recovered={summary.get('recovered')}, trial gave {exact}")
            if summary.get("config", {}).get("seed") != out["seed"]:
                bad.append("summary seed differs from the seed passed")
        return bad, scored(exact)


class SpikedCli(SpikedPhase):
    """`spiked_phase`'s samples and penalties, solved and certified through `fps`.

    Set-up writes Sigma to CSV and each trial's sample covariance is written
    before its timer starts, so a trial is what a user of the command line
    runs: `fps solve S.csv`, and on an exact recovery `fps certify`.
    """

    name = "spiked_cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.workdir = workdir
        self.sigma_csv = os.path.join(workdir, "sigma.csv")

    def setup(self, rep):
        self.model = F.gen_spiked(self.p, self.k, range(5), (3.0, 2.0), 1.0, self.model_seed)
        _, self.alpha = F.check_lcc(self.model.Sigma, self.k, self.model.J)
        F.save_matrix_csv(self.sigma_csv, self.model.Sigma.entries)
        warm = self.run(self.prepare(WARMUP_OFFSET + rep))
        self.remove(warm)

    def prepare(self, i):
        smat, rho = self.sample(i)
        s_csv = os.path.join(self.workdir, f"S-{i}.csv")
        F.save_matrix_csv(s_csv, smat.entries)
        return {"s_csv": s_csv, "rho": rho}

    def run(self, trial):
        s_csv, rho = trial["s_csv"], trial["rho"]
        out = dict(trial, h_csv=s_csv[:-4] + ".H.csv", cert=None)
        out["code"], out["stdout"] = run_fps(["solve", s_csv, "--k", str(self.k),
                                              "--rho", repr(rho), "--out-h", out["h_csv"]])
        if out["code"] == 0 and json.loads(out["stdout"])["support"] == list(range(5)):
            out["cert"] = run_fps(["certify", self.sigma_csv, s_csv, "--k", str(self.k),
                                   "--j", "0,1,2,3,4", "--rho", repr(rho)])
        return out

    @staticmethod
    def remove(out):
        for path in (out["s_csv"], out["h_csv"]):
            if os.path.exists(path):
                os.remove(path)

    def check(self, i, out, captured):
        bad = kkt_violations(captured)
        if out is None:
            return bad, False
        # the first solve is `fps solve`'s; the witness in `fps certify` adds one
        solves = [c for c in captured if c[0] == "solve_fps"]
        if not solves or any(c[5] is not None for c in solves):
            self.remove(out)
            if not solves:
                bad.append("fps solve made no solve")
            elif solves[0][5] is not None and out["code"] == 0:
                bad.append(f"fps solve exited with 0 after {type(solves[0][5]).__name__}")
            return bad, False
        try:
            summary = json.loads(out["stdout"])
            h = F.load_matrix_csv(out["h_csv"])
            cert = None if out["cert"] is None else json.loads(out["cert"][1])
            out["bytes"] = len(out["stdout"].encode()) + os.path.getsize(out["h_csv"])
        except (F.InvalidInput, ValueError) as e:
            return bad + [f"unreadable output: {e}"], False
        finally:
            self.remove(out)
        if out["code"] != 0:
            bad.append(f"fps solve exited with {out['code']}")
        sol = solves[0][4]
        exact = tuple(sol.support.indices) == tuple(range(5))
        if (summary["support"], summary["iters"], summary["objective"]) != (
                list(sol.support.indices), sol.iters, sol.objective):
            bad.append("printed solution disagrees with the solve")
        if not np.array_equal(h, sol.H.entries):
            bad.append("H written to CSV differs from the solve's H")
        if exact != (cert is not None):
            bad.append("fps certify run on a trial that is not an exact recovery, or skipped")
        if cert is not None:
            out["witness_valid"] = cert["witness"]["witness_valid"]
            if cert["certified"] and not out["witness_valid"]:
                bad.append("fps certify certified without a valid witness")
            if (out["cert"][0] == 0) != cert["certified"]:
                bad.append(f"fps certify exited with {out['cert'][0]}, certified={cert['certified']}")
            out["bytes"] += len(out["cert"][1].encode())
        return bad, exact


class PersistBudget(Workload):
    """Gate 8's budget form at p=50, k=1, R=2: sandwich plus stability per trial."""

    name = "persist_budget"
    p, k, r_level, n = 50, 1, 2.0, 2000
    model_seed = 8

    def __init__(self, seed, workdir):
        self.base = SEED_STRIDE * seed

    def setup(self, rep):
        self.model = F.gen_spiked(self.p, self.k, range(5), (2.0,), 1.0, self.model_seed)
        self.cfg = F.SolverConfig(k=self.k)
        pop, _ = F.solve_fps_constrained(self.model.Sigma, self.r_level, self.cfg)
        self.pop_value = float(np.sum(self.model.Sigma.entries * pop.H.entries))
        warm = F.sample_covariance(F.sample_gaussian(self.model, self.n, self.base + WARMUP_OFFSET + rep))
        F.solve_fps_constrained(warm, self.r_level, self.cfg)

    def kind(self, i):
        return "budget"

    def run(self, i):
        sigma = self.model.Sigma
        seed = self.base + i
        smat = F.sample_covariance(F.sample_gaussian(self.model, self.n, seed))
        sol, _ = F.solve_fps_constrained(smat, self.r_level, self.cfg)
        gap = self.pop_value - float(np.sum(sigma.entries * sol.H.entries))
        bound = 2.0 * self.r_level * F.entrywise_error(smat, sigma)
        d = np.random.default_rng(seed).uniform(-0.05, 0.05, size=(self.p, self.p))
        f_diff, f_bound = F.stability_check(sigma, 0.5 * (d + d.T), self.k, self.r_level)
        return {"gap": gap, "bound": bound, "f_diff": f_diff, "f_bound": f_bound}

    def check(self, i, out, captured):
        bad = kkt_violations(captured)
        if out is None:
            return bad, None
        if not -1e-6 <= out["gap"] <= out["bound"] + 1e-4:
            bad.append(f"sandwich gap {out['gap']:.3e} outside [-1e-6, {out['bound']:.3e}+1e-4]")
        if not out["f_diff"] <= out["f_bound"] + 1e-9:
            bad.append(f"stability f_diff {out['f_diff']:.3e} above bound {out['f_bound']:.3e}")
        return bad, None


WORKLOADS = {w.name: w for w in (SpikedPhase, SpikedCli, CliqueCli, PersistBudget)}
