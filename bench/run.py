"""Seeded benchmark of the fantope estimator, one workload per process.

    python3 bench/run.py --workload spiked_phase --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  The workload runs as a closed loop with one caller:
each trial starts when the previous one and its correctness checks have
finished, until ``--seconds`` have passed.  Trial seeds are a contiguous
sequence derived from ``--seed``.

With ``--trace 0`` it prints every end-to-end metric with its unit and
sample count; with ``--trace 1`` it runs the trials untraced for half the
time and then again traced, on the same inputs, and prints the per-layer
metrics, the tracing overhead and the time no layer span covers.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (machine, trials,
spans) goes to ``.bench_out/`` in the checkout.  Exit code 1 means a
correctness check failed; 2 means the checkout or the arguments are unusable.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# BLAS threads are fixed before numpy loads: at the default of one thread
# per core, fresh processes on a small machine sometimes land in a mode
# where a p=50 eigh is ~40x slower, which no seed or repeat can average out
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# fps resolves FPS_SEED over --seed, which would put every trial on one seed
os.environ.pop("FPS_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics, layer_shares  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 3

END_TO_END = {"setup_s": "s", "trial_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "spectral.eigh_calls": "count/trial", "spectral.eigh_s": "s/trial",
    "spectral.eigvalsh_calls": "count/trial", "spectral.eigvalsh_s": "s/trial",
    "spectral.eigh_gflops_computed": "GFLOP/s",
    "spectral.project_calls": "count/trial", "spectral.project_self_s": "s/trial",
    "solver.solve_calls": "count/trial", "solver.solve_s": "s/trial",
    "solver.self_s": "s/trial", "solver.eigh_per_solve": "count",
    "solver.eigh_per_solve_s5": "count", "solver.eigh_per_solve_s40": "count",
    "solver.ms_per_iter": "ms", "solver.not_converged": "count/trial",
    "diagnostics.conditions_s": "s/trial", "diagnostics.witness_s": "s/trial",
    "diagnostics.stability_s": "s/trial", "diagnostics.eigh_calls": "count/trial",
    "models.generate_s": "s/trial", "models.sample_s": "s/trial",
    "cli.command_s": "s/trial", "cli.self_s": "s/trial", "cli.bytes_written": "B/trial",
    "setup.models_s": "s", "setup.solver_s": "s",
    "trace.trials": "count", "trace.trial_s": "s", "trace.unattributed_s": "s/trial",
    "trace.untraced_trials_per_s": "1/s", "trace.traced_trials_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def machine_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": int(BLAS_THREADS),
        "numpy": np.__version__, "python": platform.python_version(),
        "machine": platform.machine(),
    }


def measure(wl, tracer, seconds, typed_errors):
    """Closed loop over trials 0, 1, ... until `seconds` have passed."""
    trials = []
    stop = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < stop:
        tracer.trial = i
        tracer.captured.clear()
        error = None
        with tracer.pause():
            prepared = wl.prepare(i)
        start = time.perf_counter()
        try:
            out = wl.run(prepared)
        except typed_errors as e:
            out, error = None, e
        end = time.perf_counter()
        with tracer.pause():
            violations, recovered = wl.check(i, out, tracer.captured)
        if error is None:
            error = next((c[5] for c in tracer.captured if c[5] is not None), None)
        trials.append({
            "i": i, "kind": wl.kind(i), "start": start, "end": end,
            "error": None if error is None else f"{type(error).__name__}: {error}",
            "violations": violations, "recovered": recovered,
            "bytes": (out or {}).get("bytes", 0),
            "witness_valid": (out or {}).get("witness_valid"),
        })
        i += 1
    tracer.captured.clear()
    return trials


def end_to_end(trials, setup_s, setup_reps, import_s):
    """Every end-to-end metric as (value or None, unit, sample-count note)."""
    times = sorted(t["end"] - t["start"] for t in trials)
    n = len(times)
    failed = sum(1 for t in trials if t["error"] or t["violations"])
    rec = [t["recovered"] for t in trials if t["recovered"] is not None]
    rows = {
        "setup_s": (setup_s, "s", f"import {import_s:.3f} s + median of {len(setup_reps)} set-ups "
                                  + ", ".join(f"{x:.3f}" for x in setup_reps)),
        "trials_per_s": (n / sum(times), "1/s", f"n={n} trials"),
        "trial_p50_s": (statistics.median(times), "s", f"n={n} trials"),
        "trial_tail_s": (None, "s", f"dropped: n={n} trials leave no percentile above the "
                                    "median with ten trials beyond it"),
        "failed_frac": (failed / n, "ratio", f"{failed}/{n} trials"),
        "recovery_frac": (None, "ratio", "no trial where theory predicts exact recovery"),
        "witness_frac": (None, "ratio", "no trial built a witness"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "n=1 process"),
    }
    # nearest rank with exactly ten trials beyond it; kept only above the median
    if n - 11 > (n - 1) / 2:
        rows["trial_tail_s"] = (times[n - 11], "s", f"p{100.0 * (n - 10) / n:.1f}, n={n} trials")
    if rec:
        rows["recovery_frac"] = (sum(rec) / len(rec), "ratio", f"{sum(rec)}/{len(rec)} trials")
    wit = [t["witness_valid"] for t in trials if t["witness_valid"] is not None]
    if wit:
        rows["witness_frac"] = (sum(wit) / len(wit), "ratio",
                                f"{sum(wit)}/{len(wit)} exact recoveries certified by the witness")
    return rows


def overhead_metrics(untraced, traced):
    """Tracing overhead on the trials both halves ran, plus the CLI bytes."""
    m = min(len(untraced), len(traced))
    dur = lambda ts: sum(t["end"] - t["start"] for t in ts[:m])
    return {
        "cli.bytes_written": sum(t["bytes"] for t in traced) / len(traced),
        "trace.untraced_trials_per_s": m / dur(untraced),
        "trace.traced_trials_per_s": m / dur(traced),
        "trace.overhead_frac": dur(traced) / dur(untraced) - 1.0,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fantope", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fantope.errors
    from workloads import WORKLOADS
    if not os.path.abspath(fantope.__file__).startswith(SRC + os.sep):
        print(f"error: imported fantope from {fantope.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS or args.seed < 0 or args.seconds <= 0:
        print(f"error: need --workload in {sorted(WORKLOADS)}, --seed >= 0, --seconds > 0",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    typed_errors = tuple(v for v in vars(fantope.errors).values()
                         if isinstance(v, type) and issubclass(v, Exception))

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    tracer = Tracer()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        tracer.install(spans=False)
        setup_reps = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup(rep)
            setup_reps.append(time.perf_counter() - t0)
        tracer.captured.clear()
        setup_s = import_s + statistics.median(setup_reps)
        setup_wall_s = time.perf_counter() - T_START

        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(wl, tracer, budget, typed_errors)
        traced = []
        if args.trace:
            tracer.install(spans=True)
            tracer.trial = "setup"
            wl.setup(SETUP_REPS)
            traced = measure(wl, tracer, budget, typed_errors)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    info = machine_info()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload} seed {args.seed}: closed loop, one caller, "
          f"set-up wall {setup_wall_s:.3f} s")
    all_trials = untraced + traced
    for t in all_trials:
        if t["violations"]:
            print(f"  trial {t['i']} ({t['kind']}): " + "; ".join(t["violations"]))
        elif t["error"]:
            print(f"  trial {t['i']} ({t['kind']}): typed error {t['error']}")

    e2e = end_to_end(untraced, setup_s, setup_reps, import_s)
    record = {"args": vars(args), "machine": info, "setup_wall_s": setup_wall_s,
              "trials": [dict(t, start=t["start"] - T_START, end=t["end"] - T_START)
                         for t in all_trials]}
    if args.trace:
        windows = [(t["i"], t["start"], t["end"], t["kind"]) for t in traced]
        metrics = layer_metrics(tracer.spans, windows, "setup")
        metrics.update(overhead_metrics(untraced, traced))
        units = PER_LAYER
        shares = layer_shares(tracer.spans, windows)
        print("per-layer (traced pass, per trial unless the unit says otherwise):")
        for name, unit in units.items():
            print(f"  {name:32s} {metrics[name]:.6g} {unit}")
        print("share of traced trial time by innermost span:")
        for name, share in shares.items():
            print(f"  {name:32s} {share:7.2%}")
        record.update(layer_shares=shares, spans=tracer.spans)
        print("end-to-end (untraced half):")
    else:
        units = END_TO_END
        metrics = {name: e2e[name][0] for name in units}
        print("end-to-end (untraced):")
    for name, (value, unit, note) in e2e.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown} {unit} ({note})")
    record["metrics"] = metrics
    record["end_to_end"] = {k: v[0] for k, v in e2e.items()}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh)

    correct = not any(t["violations"] for t in all_trials)
    failed = sum(1 for t in all_trials if t["error"] or t["violations"])
    print(json.dumps({
        "correct": correct, "attempted": len(all_trials), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
