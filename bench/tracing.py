"""Spans around the fantope package's public functions and numpy's eigensolvers.

The benchmark never edits the package; it rebinds names from outside.
Every public function of every loaded ``fantope.*`` module is replaced, in
each module that binds it, by one shared wrapper: ``solve_fps`` is bound in
``fantope``, ``fantope.solver``, ``fantope.diagnostics`` and ``fantope.cli``,
and patching one of them would miss calls made through the others.
``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh`` are replaced on
``numpy.linalg`` because the package looks them up there at call time, so
every eigendecomposition passes through them however the solver loop is
written.  A function that a later refactor removes records zero spans.

The same wrappers capture the inputs and outcome of every call to the
solver entry points, so the benchmark can check each converged solve
after the timed region.
"""

import functools
import sys
import time
import types
from contextlib import contextmanager

import numpy as np

NAME, LAYER, START, END, PARENT, TRIAL, ERROR, DIM = range(8)

SOLVER_ENTRIES = {"solve_fps", "solve_fps_en", "solve_fps_constrained", "uniqueness_probe"}
CHECKED = {"solve_fps", "solve_fps_en", "solve_fps_constrained"}
WITNESS = {"build_witness"}
STABILITY = {"stability_check", "persistence_gap"}
SAMPLE = {"sample_gaussian", "sample_covariance"}
LAPACK = "lapack"


def _fantope_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fantope" or name.startswith("fantope."))]


class Tracer:
    """Installs the wrappers and keeps spans and captured solver calls in memory.

    A span is a list [name, layer, start, end, parent index, trial label,
    exception class name or None, matrix order for eigensolver calls].
    """

    def __init__(self):
        self.spans = []
        self.captured = []
        self.trial = None
        self.paused = False
        self._stack = []
        self._orig = {}

    def install(self, spans):
        """Wrap the package; with spans=False only the checked solver entries, capture only."""
        self.uninstall()
        wrappers = {}
        for mod in _fantope_modules():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("fantope")):
                    continue
                if not spans and fn.__name__ not in CHECKED:
                    continue
                if fn not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    wrappers[fn] = self._wrap(fn, layer, spans, fn.__name__ in CHECKED)
                self._orig[(mod, attr)] = fn
                setattr(mod, attr, wrappers[fn])
        if spans:
            for attr in ("eigh", "eigvalsh"):
                fn = getattr(np.linalg, attr)
                self._orig[(np.linalg, attr)] = fn
                setattr(np.linalg, attr, self._wrap(fn, LAPACK, True, False))

    def uninstall(self):
        for (mod, attr), fn in self._orig.items():
            setattr(mod, attr, fn)
        self._orig = {}

    @contextmanager
    def pause(self):
        """Run the benchmark's own checks without spans or captures."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _wrap(self, fn, layer, spans, capture):
        tracer = self
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer._open(name, layer, args) if spans else None
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                if spans:
                    tracer._close(idx, type(e).__name__)
                if capture:
                    tracer.captured.append((name, fn, args, kwargs, None, e))
                raise
            if spans:
                tracer._close(idx, None)
            if capture:
                tracer.captured.append((name, fn, args, kwargs, out, None))
            return out

        return wrapper

    def _open(self, name, layer, args):
        dim = int(np.shape(args[0])[-1]) if layer == LAPACK and args else 0
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, 0.0, 0.0, parent, self.trial, None, dim])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx, error):
        end = time.perf_counter()
        span = self.spans[idx]
        span[END] = end
        span[ERROR] = error
        self._stack.pop()


# ===== per-layer metrics from the spans =====

def layer_metrics(spans, trials, setup_label):
    """Per-layer figures from the spans of the traced trials.

    trials is a list of (label, start, end, kind).  Counts and times are
    per trial, and unattributed time is trial time outside every span.
    The set-up figures cover the spans labelled setup_label (one set-up).
    Self times are span durations minus the part covered by child spans of
    the named layers, which is exact because one thread makes properly
    nested spans.
    """
    n_trials = len(trials)
    kind_of = {label: kind for label, _, _, kind in trials}
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def nearest(i, pred):
        # descendants matching pred, without looking inside a match
        out, todo = [], list(children[i])
        while todo:
            j = todo.pop()
            if pred(j):
                out.append(j)
            else:
                todo.extend(children[j])
        return out

    def has_ancestor(i, pred):
        j = spans[i][PARENT]
        while j is not None:
            if pred(j):
                return True
            j = spans[j][PARENT]
        return False

    def outermost(pred, label_ok):
        return [i for i, s in enumerate(spans)
                if label_ok(s[TRIAL]) and pred(i) and not has_ancestor(i, pred)]

    in_trial = kind_of.__contains__
    is_eigh = lambda i: spans[i][LAYER] == LAPACK and spans[i][NAME] == "eigh"
    is_eigvalsh = lambda i: spans[i][LAYER] == LAPACK and spans[i][NAME] == "eigvalsh"
    is_lapack = lambda i: spans[i][LAYER] == LAPACK
    is_spectral = lambda i: spans[i][LAYER] in ("spectral", LAPACK)
    is_solve = lambda i: spans[i][LAYER] == "solver" and spans[i][NAME] in SOLVER_ENTRIES
    is_project = lambda i: spans[i][NAME] == "fantope_project"
    is_diag = lambda i: spans[i][LAYER] == "diagnostics"
    is_models = lambda i: spans[i][LAYER] == "models"
    is_cli = lambda i: spans[i][LAYER] == "cli"
    not_cli = lambda i: spans[i][LAYER] not in ("cli", "base")

    def per_trial(x):
        return x / n_trials if n_trials else 0.0

    eigh = [i for i, s in enumerate(spans) if in_trial(s[TRIAL]) and is_eigh(i)]
    eigvalsh = [i for i, s in enumerate(spans) if in_trial(s[TRIAL]) and is_eigvalsh(i)]
    eigh_s = sum(dur(i) for i in eigh)
    flops = sum(9.0 * spans[i][DIM] ** 3 for i in eigh)

    project = outermost(is_project, in_trial)
    solves = outermost(is_solve, in_trial)
    solve_s = sum(dur(i) for i in solves)
    solve_eigh = {i: len(nearest(i, is_eigh)) for i in solves}
    diag = outermost(is_diag, in_trial)
    models = outermost(is_models, in_trial)
    cli = outermost(is_cli, in_trial)

    def eigh_per_solve(kind):
        sel = [i for i in solves if kind is None or kind_of[spans[i][TRIAL]] == kind]
        return sum(solve_eigh[i] for i in sel) / len(sel) if sel else 0.0

    setup_ok = lambda label: label == setup_label
    setup_models = outermost(is_models, setup_ok)
    setup_solves = outermost(is_solve, setup_ok)

    top = sum(dur(i) for i, s in enumerate(spans) if in_trial(s[TRIAL]) and s[PARENT] is None)
    trial_s = sum(end - start for _, start, end, _ in trials)

    return {
        "spectral.eigh_calls": per_trial(len(eigh)),
        "spectral.eigh_s": per_trial(eigh_s),
        "spectral.eigvalsh_calls": per_trial(len(eigvalsh)),
        "spectral.eigvalsh_s": per_trial(sum(dur(i) for i in eigvalsh)),
        "spectral.eigh_gflops_computed": flops / eigh_s / 1e9 if eigh_s > 0 else 0.0,
        "spectral.project_calls": per_trial(len(project)),
        "spectral.project_self_s": per_trial(sum(
            dur(i) - sum(dur(j) for j in nearest(i, is_lapack)) for i in project)),
        "solver.solve_calls": per_trial(len(solves)),
        "solver.solve_s": per_trial(solve_s),
        "solver.self_s": per_trial(sum(
            dur(i) - sum(dur(j) for j in nearest(i, is_spectral)) for i in solves)),
        "solver.eigh_per_solve": eigh_per_solve(None),
        "solver.eigh_per_solve_s5": eigh_per_solve("s5"),
        "solver.eigh_per_solve_s40": eigh_per_solve("s40"),
        "solver.ms_per_iter": 1000.0 * solve_s / max(1, sum(solve_eigh.values())),
        "solver.not_converged": per_trial(sum(spans[i][ERROR] == "NotConverged" for i in solves)),
        "diagnostics.conditions_s": per_trial(sum(
            dur(i) for i in diag if spans[i][NAME] not in WITNESS | STABILITY)),
        "diagnostics.witness_s": per_trial(sum(dur(i) for i in diag if spans[i][NAME] in WITNESS)),
        "diagnostics.stability_s": per_trial(sum(dur(i) for i in diag if spans[i][NAME] in STABILITY)),
        "diagnostics.eigh_calls": per_trial(sum(
            1 for i, s in enumerate(spans) if in_trial(s[TRIAL]) and is_lapack(i)
            and has_ancestor(i, is_diag) and not has_ancestor(i, is_solve))),
        "models.generate_s": per_trial(sum(
            dur(i) for i in models if spans[i][NAME].startswith("gen_"))),
        "models.sample_s": per_trial(sum(dur(i) for i in models if spans[i][NAME] in SAMPLE)),
        "cli.command_s": per_trial(sum(dur(i) for i in cli)),
        "cli.self_s": per_trial(sum(
            dur(i) - sum(dur(j) for j in nearest(i, not_cli)) for i in cli)),
        "setup.models_s": sum(dur(i) for i in setup_models),
        "setup.solver_s": sum(dur(i) for i in setup_solves),
        "trace.trials": float(n_trials),
        "trace.trial_s": per_trial(trial_s),
        "trace.unattributed_s": per_trial(trial_s - top),
    }


def layer_shares(spans, trials):
    """Share of traced trial time whose innermost span is in each layer.

    'spectral.eigh' and 'spectral.eigvalsh' are the numpy eigensolver
    calls; 'unattributed' is trial time outside every span.
    """
    labels = {label for label, _, _, _ in trials}
    total = sum(end - start for _, start, end, _ in trials)
    if total <= 0:
        return {}
    own = {}
    child_sum = [0.0] * len(spans)
    top = 0.0
    for s in spans:
        if s[TRIAL] in labels:
            if s[PARENT] is None:
                top += s[END] - s[START]
            else:
                child_sum[s[PARENT]] += s[END] - s[START]
    for i, s in enumerate(spans):
        if s[TRIAL] in labels:
            key = "spectral." + s[NAME] if s[LAYER] == LAPACK else s[LAYER]
            own[key] = own.get(key, 0.0) + (s[END] - s[START]) - child_sum[i]
    own["unattributed"] = total - top
    return {k: v / total for k, v in sorted(own.items(), key=lambda kv: -kv[1])}
