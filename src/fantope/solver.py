"""Sparse principal subspace estimation over the trace-k Fantope.

Solves  max <S, H> - rho * ||H||_1,1 - (tau/2) * ||H||_F^2  over the
Fantope (tau = 0 the l1 problem, tau > 0 the elastic net; `solve_fps`
solves both) by operator splitting: an H-block that stays exactly feasible
(every update is a Fantope projection), a Y-block that stays exactly
sparse (entrywise soft-threshold), and a scaled multiplier U gluing them
together.  At a fixed point (step/rho) * U is a subgradient of the l1
term, which is what makes the dual certificate recoverable from the
multiplier for free.  Every form takes the same step (scaled ADMM, Boyd et
al. 2011, section 3.1.1), written on one p x p matrix v, the Y-block's
input (the Douglas-Rachford form of the same ADMM): Y = soft(v) at a
level, rho/step for the penalized forms, and U = v - Y; the H-block
projects M = (step/(tau + step)) (2Y - v) + S/(tau + step), and the
step is T(v) = v + 1.5 (H - Y).

The budget form, max <S, H> subject to ||H||_1,1 <= R, runs the same loop
with the Y-block projecting onto the l1 ball of radius R: the soft-threshold
at the level read off the sorted magnitudes (Duchi et al., ICML 2008), read
again at every v the loop moves to.  At a fixed point U = level * sign(H) on
the support, so the answer is the penalized one at rho* = step * level.  Its
maximizer is unchanged when S is rescaled, so the loop steps at the fixed
admm_step * ||S||_2, the iteration that S / ||S||_2 would take.  On 216
spiked inputs (gen_spiked(p, k, range(5), spikes, 1.0, seed) with p in
{30, 40, 50}, k = 1 with spikes (2,) or k = 2 with (3, 2), n in {500, 1000,
2000}, seed in {1, 2, 3}, sample seed 1000 seed + n + p, R in {k + 1/2,
3k/2, 2k, 3k}) the accelerated loop below converges on all 216, with a
median of 27, a 90th percentile of 712 and at most 2145 iterations.

The step is over-relaxed (Eckstein & Bertsekas 1992; Boyd et al. 2011,
section 3.4.3): the factor 1.5 in T is 1 in the plain step.  The
residuals, the stopping rule and the per-iteration work are those of the
plain step.  At a fixed point H = Y, so the limit, the multiplier
Z = (step/rho) U read from it, and every warm-start fixed point (a resumed
solve stops in an iteration or two) are the plain iteration's.
Relaxation cuts the iterations of a typical solve by about a third (p=200
spiked bench samples: 38-40 against 59-62 on the full loop, 42-52 against
64-79 on the 5x5 screened block), but an instance the plain step finishes
in a handful of iterations can take more (the 3x3 toy: 23 against 3).

Where every projection is exact anyway (a penalized or elastic-net loop
with 4 (k + 2) > p: the screened blocks, the witness's |J| x |J| solve,
toy problems), and in every budget loop, v is extrapolated by safeguarded
type-II Anderson acceleration of T (Walker & Ni 2011; Fu, Zhang & Boyd
2020): memory 5, a least-squares fit regularized by 1e-10 times the trace
of its Gram matrix plus ||T(v) - v||^2, and an extrapolated v kept only if
||T(v) - v|| falls below the last accepted point's; otherwise the loop
restarts from that point's plain step with the memory cleared.  A cold
start's first step, from Y = (k/p) I rather than soft(v), stays out of the
memory.  The bench samples' 5x5 blocks then take 16-22 iterations instead
of 42-52, and the toy 4.  Extrapolated M move further between iterations,
so more Ritz steps (below) are refused.  The Ritz-tracked penalized loop
therefore keeps the plain step (the bench samples' full loop: 7-10 full
eigh instead of 3, for 16-19 iterations instead of 38-40).  The budget
loop does not: on the 216 inputs above the plain step stalls on 14 and
takes 279198 iterations in all, the accelerated one 44470, at 0.15 full
eigh per iteration instead of 0.004.

The projection needs only the eigenpairs above the water level, about k
of them near a solution, and the H-block's input M moves little between
iterations.  So after an exact projection (one full eigh) the loop keeps
M as M_ref, lambda_{r+1}(M_ref) and the top r eigenvectors V, with r the
weighted pairs plus 2, and the next iterations take one Rayleigh-Ritz
step on span[V, M V] instead (Knyazev 2001): the products M V and M Q
(Q an orthonormal basis of the span), a p x 2r qr and a 2r x 2r eigh,
water-filled by the same routine.  A step
is accepted only if
  - lambda_{r+1}(M_ref) + ||M - M_ref||_F < theta (Weyl check: no
    eigenvalue outside the block reaches the water level theta), and
  - every weighted Ritz pair has residual at most 0.1 min(r_p, r_d) of
    the previous iteration, a bound that shrinks with the residuals, so
    the projection errors are summable and the splitting step stays
    convergent (Eckstein & Bertsekas 1992).
A refused step falls back to the full eigh, whose input becomes the new
M_ref; with 4r > p the loop always takes the full eigh.  Every exit,
whatever its stop ("converged", "stalled" or "max_iters"), leaves from an
exact projection: an iteration whose Ritz step meets a stopping rule is redone
exactly, so H, its constraint residual and the KKT report certify the
answer as an exact iteration would.

Every cold loop runs on a SymMat: S, or the screened block S[J0, J0]
that S keeps as its last restriction.  Its first iterate,
M0 = (S + step (k/p) I)/(tau + step), has that SymMat's eigenvectors, so
its exact projection reads the SymMat's retained spectrum, shifted and
scaled, instead of decomposing M0: that read is the one eigh of the
SymMat, taken here unless an earlier caller read its eigenvectors (a
plug-in penalty reads only lambda_1 of S, by eigvalsh, so a full loop
after it takes its own eigh).  A cold run depends only on the entries
and on the settings the loop reads, so the SymMat keeps its last one
with those settings (_cold_run): a repeated cold solve, such as a cold
uniqueness probe after a solve, or a witness whose support is the
screened block, reads the kept run again instead of running it.  On the
p=200 spiked bench samples the full loop (the screen below kept off, as
the tests' full_loop_only does) takes the same 40-43 iterations with 3
full eigh beyond S's own (two Weyl refreshes and the exact finish),
instead of one per iteration, and about 1.6 ms per iteration instead of
6.1 (numpy 2.4 with OpenBLAS at one thread on a 2-core x86_64 host);
those samples now answer on the 5x5 screened block.

Every penalized solve (rho > 0), warm or cold, first screens, in the
manner of the strong rules (Tibshirani et al., JRSS-B 2012) and of exact
covariance thresholding (Mazumder & Hastie, JMLR 2012).  J0 is the set of
rows with an off-diagonal |S_ij| > rho, topped up with the k rows of
largest diagonal when it holds fewer than k.  When 4 |J0| <= p the loop
runs on S[J0, J0] alone, from a warm start restricted to J0 x J0 when one
is given.  Its answer is completed as in Lei & Vu's primal-dual witness:
H is the block's projection embedded in zeros, Z on J0 x J0 is the
block's multiplier, and Z elsewhere is S/rho with a zero diagonal.  Every
entry outside J0 x J0 lies in a row or a column outside J0, so
|S_ij| <= rho there: the fill sits in [-1, 1] without a clip, it is a
subgradient of |H_ij| = 0, and S - rho Z is block-diagonal (the block's
gradient on J0, diag(S) off it).  So the objective, the support, the
Z clip and the KKT report are all read on the block, the report's
spectrum being the block's merged with diag(S) off J0; the only p x p
work builds the returned H and Z.  The answer stands when the report
certifies it, fantope_optimality_gap <= eps sqrt(p) (1 + |objective|): H
then maximizes <S - rho Z, .> over the Fantope, so the pair is optimal
for the full problem.  The certificate does not depend on where the loop
started, so the one rule serves warm and cold solves alike.  A refused
certificate, or a block run that stalls or runs out of iterations, falls
back to the full loop, from the warm start when one was given.  On the
p=200 bench samples J0 is the 5-row support; a planted clique screens
nothing (|J0| = p) and keeps the full loop.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .base import SupportSet, _finite_real, _integer, entry_max_norm
from .errors import GapCollapsed, InfeasibleConstraint, InvalidInput, NotConverged
from .spectral import (FantopePoint, _check_order, _project, _projected_point, _ritz_project,
                       as_sym)


# ===== configuration and result types =====

@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the splitting solver; defaults follow the reference tuning.

    A solve converges once both residuals are at most eps * sqrt(p).
    """

    k: int
    rho: float = 0.0
    tau_en: float = 0.0
    admm_step: float = 1.0
    max_iters: int = 20000
    eps: float = 1e-7
    support_tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "k", _integer("k", self.k))
        object.__setattr__(self, "max_iters", _integer("max_iters", self.max_iters))
        for name, strict in (("rho", False), ("tau_en", False), ("admm_step", True),
                             ("eps", True), ("support_tol", True)):
            object.__setattr__(self, name, _finite_real(name, getattr(self, name), 0.0, strict))

    def with_(self, **kw):
        return replace(self, **kw)


@dataclass(frozen=True)
class KktReport:
    """Stationarity residuals of a primal-dual pair (all ~0 at an optimum).

    eigengap is lambda_k - lambda_{k+1} of the gradient S - rho Z - tau H
    that fantope_optimality_gap is read from (+inf when k = p).
    """

    sign_mismatch: float
    dual_bound_violation: float
    fantope_optimality_gap: float
    eigengap: float


@dataclass(frozen=True)
class FpsSolution:
    """Converged primal-dual pair with diagnostics.

    H is the iteration's last projection, certified by the clipped
    eigenvalues it was built from; objective is evaluated once, at exit.
    dual_clip_excess records how far the recovered multiplier poked
    outside [-1, 1] before clipping (0 at a clean optimum).

    Z is the subgradient of ||H||_1,1 read off the scaled multiplier U as
    (step/rho) * U, symmetrized and clipped to [-1, 1], with its diagonal
    set to zero.  The diagonal carries nothing: every Fantope point is
    positive semidefinite, so sum_i |H_ii| = trace(H) = k is constant on the
    feasible set.  solve_fps(s, config, warm=solution) resumes the
    splitting iteration from this pair, converged or not.

    working_set is the order of the loop that produced the answer: |J0| when
    the screened block answered (Z off J0 x J0 is then S/rho), p for the
    full loop; iters counts that loop's iterations.
    """

    H: FantopePoint
    Z: np.ndarray
    objective: float
    support: SupportSet
    iters: int
    primal_residual: float
    dual_residual: float
    kkt: KktReport
    dual_clip_excess: float = 0.0
    working_set: int = None


@dataclass(frozen=True)
class UniquenessProbe:
    """Outcome of the two-route uniqueness check."""

    unique: bool
    discrepancy: float
    tau: float
    gap: float


def _check_solution(sol, p, k=None):
    """sol, if it is an FpsSolution whose H and Z are finite p x p arrays
    (H of order k when k is given); anything else raises InvalidInput."""
    if not (isinstance(sol, FpsSolution) and isinstance(sol.H, FantopePoint)):
        raise InvalidInput(f"expected an FpsSolution, got {type(sol).__name__}")
    shapes = getattr(sol.H.entries, "shape", None), getattr(sol.Z, "shape", None)
    if shapes != ((p, p), (p, p)):
        raise InvalidInput(f"solution has H and Z of shapes {shapes}; the problem is {p}x{p}")
    if k is not None and sol.H.k != k:
        raise InvalidInput(f"solution has order k={sol.H.k}; the problem has k={k}")
    if not (np.all(np.isfinite(sol.H.entries)) and np.all(np.isfinite(sol.Z))):
        raise InvalidInput("solution has non-finite entries")
    return sol


def soft_threshold(a, level):
    """Entrywise shrinkage toward zero by `level` (diagonal included)."""
    # np.clip(a, -level, level), at under half its per-call cost on small arrays
    return a - np.minimum(np.maximum(a, -level), level)


def _l1_level(a, radius):
    """The soft-threshold level that projects a onto {||X||_1,1 <= radius}.

    0 inside the ball, where a is its own projection; outside, the one level
    whose soft-threshold leaves l1 norm radius, read off the sorted
    magnitudes (Duchi et al., ICML 2008).  radius must be positive.
    """
    mags = np.abs(a).ravel()
    if mags.sum() <= radius:
        return 0.0
    desc = np.sort(mags)[::-1]
    excess = np.cumsum(desc) - radius
    j = int(np.nonzero(desc * np.arange(1, desc.size + 1) > excess)[0][-1])
    return float(excess[j] / (j + 1))


# ===== core splitting loop =====

def _extract_support(h, support_tol, primal_residual):
    # entries below the solver's own resolution are numerical dust, not support
    d = np.diag(h)
    top = float(np.max(d)) if d.size else 0.0
    cut = max(support_tol * top, 4.0 * primal_residual)
    return SupportSet(np.nonzero(d > cut)[0].tolist())


def _kkt_arrays(s, h, z, rho, k, support_tol, primal_residual, tau, diag_off=()):
    """The KKT report of (h, z) on s: a loop's own arrays, or the p x p pair.

    Off a screened block H is 0, Z lies in [-1, 1] and S - rho Z - tau H is
    block-diagonal with diagonal diag_off (diag(S) off J0; empty for a full
    loop and for check_kkt), so its spectrum is the block's merged with it.
    """
    p = s.shape[0]
    off = ~np.eye(p, dtype=bool)

    if rho > 0.0:
        cut = max(support_tol * float(np.max(np.abs(h[off]))) if p > 1 else 0.0,
                  2.0 * primal_residual, 1e-14)
        sig = off & (np.abs(h) > cut)
        sign_mismatch = float(np.max(np.abs(z[sig] - np.sign(h[sig])))) if np.any(sig) else 0.0
    else:
        sign_mismatch = 0.0  # no l1 term, nothing to sign-match

    dual_bound_violation = max(0.0, entry_max_norm(z) - 1.0)

    # gradient of the objective at H; the elastic net adds -tau H
    grad = s - rho * z
    if tau:
        grad = grad - tau * h
    w = np.sort(np.concatenate([np.linalg.eigvalsh(0.5 * (grad + grad.T)), diag_off]))
    gap = float(np.sum(w[-k:])) - float(np.sum(grad * h))
    return KktReport(
        sign_mismatch=sign_mismatch,
        dual_bound_violation=dual_bound_violation,
        fantope_optimality_gap=gap,
        eigengap=float(w[-k] - w[-k - 1]) if k < w.size else float("inf"),
    )


def check_kkt(s, solution, rho, support_tol=1e-6):
    """Stationarity residuals of a solution to the l1 problem (tau = 0) at penalty rho.

    sign_mismatch: worst |Z_ij - sign(H_ij)| over significant off-diagonal
    entries of H (entries beneath the solver's primal resolution are not
    sign-classifiable and are skipped); vacuous at rho = 0.
    dual_bound_violation: how far Z pokes outside the unit entrywise box.
    fantope_optimality_gap: how far H is from maximizing <S - rho Z, .>
    over the Fantope (sum of top-k eigenvalues minus the achieved value).
    An elastic-net solve's own report (solution.kkt) adds -tau H.  A
    solution that is not an FpsSolution of S's dimension, or a rho or
    support_tol that SolverConfig rejects, raises InvalidInput.
    """
    s = as_sym(s).entries
    p = s.shape[0]
    _check_solution(solution, p)
    cfg = SolverConfig(k=solution.H.k, rho=rho, support_tol=support_tol)
    return _kkt_arrays(s, solution.H.entries, solution.Z, cfg.rho, cfg.k,
                       cfg.support_tol, solution.primal_residual, 0.0)


def _reference(m, gamma, v, g):
    """The Ritz step's state after an exact projection of m, or None to stay exact.

    (m, lambda_{r+1}(m), the top r eigenvectors of m) with r the weighted
    pairs plus _RITZ_MARGIN; None when 4r > p, where the block saves nothing.
    """
    p = gamma.shape[0]
    r = int(np.count_nonzero(g)) + _RITZ_MARGIN
    if 4 * r > p:
        return None
    return m, float(gamma[-r - 1]), v[:, -r:].copy()


class _Run(NamedTuple):
    """The state a splitting loop leaves: its last projection and how it stopped."""

    s: np.ndarray       # the array the loop ran on
    h: np.ndarray       # the last (exact) projection
    g: np.ndarray       # its clipped eigenvalues
    u: np.ndarray       # the scaled multiplier
    level: float        # the last soft-threshold level
    iters: int
    r_p: float
    r_d: float
    stop: str           # "converged", "stalled" or "max_iters"


class _Anderson:
    """Safeguarded type-II Anderson acceleration of the loop's map v -> T(v).

    Keeps the differences dT and dF of T(v_i) and of the residuals
    f_i = T(v_i) - v_i over the last _AA_MEMORY + 1 accepted points, and
    extrapolates from v to T(v) - dT gamma, gamma minimizing
    ||f - dF gamma||^2 + reg ||gamma||^2 with
    reg = _AA_REG (tr(dF^T dF) + ||f||^2) (Walker & Ni 2011; Fu, Zhang &
    Boyd 2020); the ||f||^2 term keeps differences at rounding level, which
    carry no secant information, from blowing gamma up.  An extrapolated
    point whose residual does not fall below that of the last accepted point
    is dropped: the loop restarts from the plain step T of that point, with
    the memory cleared.  (Where soft(v) is flat the residual is too, and
    extrapolated points of equal residual would drift without bound.)
    """

    def __init__(self, n):
        self.d_t, self.d_f = np.empty((_AA_MEMORY, n)), np.empty((_AA_MEMORY, n))
        self.count = 0      # differences written, cyclically (their order does not matter)
        self.last = None    # (T(v), f) at the last accepted v, flattened
        self.plain = None   # (T(v), soft(T(v))) there
        self.res = np.inf   # ||f|| there
        self.extrapolated = False

    def next(self, v, t, y_t, level_of):
        """The loop's next (v, Y), after the step from v reached t = T(v) with soft(t) = y_t.

        level_of(x) is the soft-threshold level at a loop state x.
        """
        f = (t - v).ravel()
        res = float(np.sqrt(f @ f))
        if self.extrapolated and res >= self.res:
            self.count, self.last, self.extrapolated = 0, None, False
            return self.plain
        t_flat = t.ravel()
        if self.last is not None:
            row = self.count % _AA_MEMORY
            np.subtract(t_flat, self.last[0], out=self.d_t[row])
            np.subtract(f, self.last[1], out=self.d_f[row])
            self.count += 1
        self.last, self.plain, self.res = (t_flat, f), (t, y_t), res
        used = min(self.count, _AA_MEMORY)
        d_f = self.d_f[:used]
        gram = d_f @ d_f.T
        reg = _AA_REG * (gram.trace() + res * res)
        self.extrapolated = used > 0 and reg > 0.0
        if not self.extrapolated:
            return t, y_t
        gram.flat[::used + 1] += reg
        x = t - (np.linalg.solve(gram, d_f @ f) @ self.d_t[:used]).reshape(t.shape)
        return x, soft_threshold(x, level_of(x))


def _loop(s, k, cfg, start=None, eig=None, budget=None):
    """The splitting loop on the raw symmetric array s; returns its _Run.

    The loop's state is v, the Y-step's input: Y = soft(v) at the level and
    U = v - Y.  start is a trusted v shaped like s, read at the level
    rho/step (penalized solves resume; budget solves start cold).  Without
    one, the loop starts from Y = (k/p) I, U = 0, so iteration 1 projects
    M0 = (S + step (k/p) I)/(tau + step); eig, the ascending eigenpairs of
    s, which every cold start (_cold_run's) hands in, gives M0's shifted
    and scaled, so the cold start takes no eigh of its own.  Every
    iteration takes the one step T of the module docstring at the fixed
    step admm_step; the forms differ only in the soft-threshold level,
    level_of(v): rho/step without a budget; with a budget R the level that
    projects v onto the l1 ball of radius R.  A budget loop, and a
    penalized loop whose every projection is exact (4 (k + _RITZ_MARGIN) > p),
    extrapolates v by _Anderson.

    The run's stop says how the loop ended, decided once per iteration:
    "converged" once both residuals are at most eps sqrt(p); else "stalled"
    when, at a multiple of 1000 iterations past the 2000th, the best
    max(r_p, r_d) of the window's last 500 iterations is above 0.995 times
    that of its first 500; else "max_iters" at the last iteration.
    """
    p = s.shape[0]
    rho, tau, sigma = cfg.rho, cfg.tau_en, cfg.admm_step
    # the H-step's input is shrink * (2Y - v) + s_scaled for every tau >= 0
    shrink, s_scaled = sigma / (tau + sigma), s / (tau + sigma)

    def level_of(x):
        # the Y-step's soft-threshold level at the loop state x
        return rho / sigma if budget is None else _l1_level(x, budget)

    if start is None:
        v = y = (k / p) * np.eye(p)
        # the loop's m below at Y = (k/p) I, U = 0, read off s's eigenpairs
        cold = ((1.0 / (tau + sigma)) * eig[0] + shrink * (k / p), eig[1])
    else:
        v, y = start, soft_threshold(start, level_of(start))
        cold = None
    accel = _Anderson(p * p) if budget is not None or 4 * (k + _RITZ_MARGIN) > p else None

    tol = cfg.eps * np.sqrt(p)
    window, half = 1000, 500
    hist = np.empty(window)  # max(r_p, r_d) of the last window iterations, cyclic
    ref = None  # (M_ref, lambda_{r+1}(M_ref), tracked top-r block) for the Ritz step
    for it in range(1, cfg.max_iters + 1):
        m = 2.0 * y - v
        m *= shrink
        m += s_scaled
        # a Ritz step when one is tracked, else (or on refusal, or to exit) the full eigh
        for exact in (ref is None, True):
            if exact:
                h, _, gamma, vecs, g = _project(m, k, cold)
                cold = None
                ref = _reference(m, gamma, vecs, g)
            else:
                # Weyl: lambda_{r+1}(m) <= lambda_{r+1}(M_ref) + ||m - M_ref||_F
                m_ref, lam_ref, vecs = ref
                step = _ritz_project(m, k, vecs, lam_ref + float(np.linalg.norm(m - m_ref)),
                                     _RITZ_RES_FRAC * min(r_p, r_d))
                if step is None:
                    continue
                h, vecs, g = step
                ref = (m_ref, lam_ref, vecs)
            # T(v) = v + _RELAX (H - Y): the relaxed H-step plus the multiplier U
            v_new = h - y
            v_new *= _RELAX
            v_new += v
            level = level_of(v_new)
            y_new = soft_threshold(v_new, level)
            r_p = float(np.linalg.norm(h - y_new))
            r_d = float(sigma * np.linalg.norm(y_new - y))
            hist[(it - 1) % window] = max(r_p, r_d)
            # converged, else the sublinear-progress bail-out (a linear-rate solve
            # shrinks far more than 0.5% per thousand steps; hist is in order here)
            if r_p <= tol and r_d <= tol:
                stop = "converged"
            elif (it >= 2 * window and it % window == 0
                  and (hist[half:] / tol).min() > 0.995 * (hist[:half] / tol).min()):
                stop = "stalled"
            else:
                stop = "max_iters" if it == cfg.max_iters else None
            # every exit leaves from an exact projection: redo a Ritz step that would stop
            if exact or stop is None:
                break
        # a cold start's Y = (k/p) I is not soft(v), so its step is no sample of T
        if accel is None or stop is not None or (it == 1 and start is None):
            v, y = v_new, y_new
        else:
            v, y = accel.next(v, v_new, y_new, level_of)
        if stop is not None:
            break
    return _Run(s, h, g, v - y, level, it, r_p, r_d, stop)


def _cold_run(sym, k, cfg, budget=None):
    """The _Run of the splitting loop on the SymMat sym from a cold start.

    A cold run is a pure function of sym's entries and of what _loop reads
    of the settings, so sym keeps its last one under that key (k, rho,
    tau_en, admm_step, max_iters, eps, budget) and a repeat re-reads it.
    support_tol is not in the key: only _read_out reads it, and every
    caller reads the run out afresh.  A run that stopped short is kept too;
    read again, it raises the same NotConverged.
    """
    key = (k, cfg.rho, cfg.tau_en, cfg.admm_step, cfg.max_iters, cfg.eps, budget)
    return sym._keep(key, lambda: _loop(sym.entries, k, cfg, None, sym.spectrum.ascending(),
                                        budget))


def _read_out(s, k, cfg, run, rho, rows=None):
    """The FpsSolution of a finished run on S, or on S[J0, J0] with J0 = rows.

    Z is (step/rho) U symmetrized, its diagonal zeroed and clipped to
    [-1, 1] (0 at rho = 0, where U is 0).  The objective, the support and
    the KKT report are read once, on the arrays the loop ran on; only then,
    for a block, are H embedded in zeros, Z in S/rho with a zero diagonal
    (the screen keeps it inside [-1, 1]) and the support mapped through rows.
    """
    h, tau = run.h, cfg.tau_en
    z = (cfg.admm_step / rho if rho > 0.0 else 0.0) * run.u
    z = 0.5 * (z + z.T)
    np.fill_diagonal(z, 0.0)
    clip_excess = max(0.0, entry_max_norm(z) - 1.0)
    z = np.clip(z, -1.0, 1.0)
    objective = float(np.sum(run.s * h) - rho * np.sum(np.abs(h)) - 0.5 * tau * np.sum(h * h))
    support = _extract_support(h, cfg.support_tol, run.r_p)
    diag_off = () if rows is None else np.delete(np.diag(s), rows)
    kkt = _kkt_arrays(run.s, h, z, rho, k, cfg.support_tol, run.r_p, tau, diag_off)
    if rows is not None:
        support = SupportSet(rows[list(support.indices)].tolist())
        h = _embed(h, rows, np.zeros(s.shape))
        z = _embed(z, rows, s / rho)
        np.fill_diagonal(z, 0.0)
    return FpsSolution(
        H=_projected_point(h, k, run.g), Z=z, objective=objective, support=support,
        iters=run.iters, primal_residual=run.r_p, dual_residual=run.r_d, kkt=kkt,
        dual_clip_excess=clip_excess, working_set=run.h.shape[0],
    )


def _screen(s, rho, k):
    """The rows of s with an off-diagonal entry above rho in magnitude.

    Fewer than k such rows are topped up with the k rows of largest
    diagonal, so the block can carry a rank-k projector.
    """
    off = np.abs(s) > rho
    np.fill_diagonal(off, False)
    rows = np.flatnonzero(off.any(axis=1))
    if rows.size < k:
        rows = np.union1d(rows, np.argsort(np.diag(s), kind="stable")[-k:])
    return rows


def _embed(block, idx, out):
    """out with block written at its rows and columns idx; returns out."""
    out[np.ix_(idx, idx)] = block
    return out


def _solve_raw(sym, cfg, start=None, budget=None):
    """Every solve of the SymMat S: the screened block, else the full p x p loop.

    A penalized solve (rho > 0, no budget) whose screen keeps 4 |J0| <= p
    rows first runs the loop on S[J0, J0], the SymMat S keeps as its last
    restriction, from the loop state start restricted to J0 x J0 when
    given.  _read_out reads that run on its block and builds the p x p H
    and Z only for the answer it returns.  That answer stands when its KKT
    report certifies it for the full problem.  Otherwise (refused, or a
    block run that did not converge) the full loop runs on S, from start.
    A cold loop, on the block or on S, is _cold_run's: it starts from its
    SymMat's retained spectrum, and a repeat re-reads the run that SymMat
    keeps.

    With a budget R, rho* = step * (the last level) stands in for cfg.rho in
    Z, the objective and the KKT report.  Returns (solution, the penalty it
    was read at).  A full run that stops short ("stalled" or "max_iters")
    raises NotConverged with its solution; the message gives that stop, the
    iteration count, both residuals and the tolerance eps sqrt(p).
    """
    s = sym.entries
    p = s.shape[0]
    k = _check_order(cfg.k, p)
    if cfg.rho > 0.0 and budget is None:
        rows = _screen(s, cfg.rho, k)
        if 4 * rows.size <= p:
            block = sym._restrict(rows)
            if start is None:
                run = _cold_run(block, k, cfg)
            else:
                run = _loop(block.entries, k, cfg, start[np.ix_(rows, rows)])
            if run.stop == "converged":
                sol = _read_out(s, k, cfg, run, cfg.rho, rows)
                tol = cfg.eps * np.sqrt(p) * (1.0 + abs(sol.objective))
                if sol.kkt.fantope_optimality_gap <= tol:
                    return sol, cfg.rho
    if start is None:
        run = _cold_run(sym, k, cfg, budget)
    else:
        run = _loop(s, k, cfg, start, budget=budget)
    rho = cfg.rho if budget is None else cfg.admm_step * run.level
    sol = _read_out(s, k, cfg, run, rho)
    if run.stop != "converged":
        raise NotConverged(
            f"splitting loop stopped ({run.stop}) after {run.iters} iterations: primal "
            f"residual {run.r_p:.3e}, dual {run.r_d:.3e}, tolerance eps sqrt(p) "
            f"{cfg.eps * np.sqrt(p):.3e}", sol)
    return sol, rho


def solve_fps(s, config, warm=None):
    """Penalized Fantope solve; tau_en > 0 makes it strongly concave.

    At rho > 0 the solve first tries the screened block (see the module
    docstring), warm or cold, and runs the full loop only when its answer is
    not certified.  warm, an FpsSolution of this problem's order and
    dimension (a converged answer, or NotConverged.solution), resumes the
    iteration from it; anything else raises InvalidInput.  Raises
    NotConverged (carrying the partial solution) if the iteration budget
    runs out or progress stalls.
    """
    sym = as_sym(s)
    start = None
    if warm is not None:
        _check_solution(warm, sym.dim, config.k)
        # the loop state v = Y + U at the pair: Y = H and U = (rho/step) W, with
        # W = Z + I a subgradient of ||H||_1,1 too (W_ii = 1 = sign(H_ii)
        # wherever H_ii > 0, and <W, H> = <Z, H> + k on the Fantope), so
        # soft(v) = H at the level rho/step
        start = warm.H.entries + (config.rho / config.admm_step) * (warm.Z + np.eye(sym.dim))
    return _solve_raw(sym, config, start)[0]


# ===== constrained form =====

def solve_fps_constrained(s, r_level, config):
    """Solve max <S, H> over the Fantope subject to ||H||_1,1 <= R.

    One run of the splitting loop with the l1-ball Y-step (see the module
    docstring); config.rho and tau_en are ignored.  The step is
    admm_step * ||S||_2 (admm_step when S = 0), read off the SymMat's
    retained spectrum, which the cold start reads anyway.  Returns
    (solution, rho_star), where rho_star = step * level is the penalty Z,
    objective and kkt are read at (0 when the budget is slack).  An R that
    is not a finite number raises InvalidInput, R < k InfeasibleConstraint,
    and a stall or an exhausted iteration budget NotConverged with the
    partial solution.
    """
    sym = as_sym(s)
    r_level = _finite_real("r_level", r_level)
    k = config.k
    if r_level < k:
        raise InfeasibleConstraint(
            f"R={r_level} < k={k}: every Fantope point has ||H||_1,1 >= k"
        )
    # read as the cold start reads it, vectors first: one eigh, no eigvalsh
    gamma, _ = sym.spectrum.ascending()
    scale = float(np.max(np.abs(gamma), initial=0.0)) or 1.0
    cfg = config.with_(rho=0.0, tau_en=0.0, admm_step=config.admm_step * scale)
    return _solve_raw(sym, cfg, budget=r_level)


# ===== uniqueness probe =====

# an eigengap of S - rho Z at or below this is a tie: the maximizer is not
# unique; the two routes agree when their H differ by at most _UNIQUE_TOL
_GAP_TIE_TOL = 1e-10
_UNIQUE_TOL = 1e-5
# over-relaxation of the splitting step T(v) = v + _RELAX (H - Y) (1 is the
# plain step)
_RELAX = 1.5
# the Ritz step tracks the weighted eigenpairs plus _RITZ_MARGIN more, and a
# weighted Ritz residual may be _RITZ_RES_FRAC of the last min(r_p, r_d)
_RITZ_MARGIN = 2
_RITZ_RES_FRAC = 0.1
# _Anderson keeps _AA_MEMORY differences and regularizes its least squares
# by _AA_REG times the trace of their Gram matrix plus ||f||^2
_AA_MEMORY = 5
_AA_REG = 1e-10


def uniqueness_probe(s, config, solution=None):
    """Two-route uniqueness check for the penalized solution.

    Solves the plain problem (or takes `solution`, a plain solve of the
    same problem that the caller already holds; on a SymMat that a cold
    solve at these settings already ran, the plain solve re-reads its kept
    run), reads the eigengap of
    S - rho Z at order k off that solve's KKT report (kkt.eigengap), and
    re-solves, also through `solve_fps`, with a strongly concave
    perturbation tau = gap / 2 (any tau inside the gap leaves the maximizer
    unchanged when the solution is the unique rank-k projector).  Agreement of the two routes within 1e-5
    (Frobenius) certifies uniqueness; a collapsed gap raises GapCollapsed.

    The second route resumes from the first route's answer (warm=sol), on
    the screened block like any solve.  When H is the rank-k projector of
    S - rho Z, subtracting tau H with tau < gap keeps it the top-k
    projector, so the answer is an exact fixed point of the elastic-net
    iteration and the resumed solve stops within an iteration or two.
    Otherwise the iterates move away from it.  Either way the elastic-net
    problem is strongly concave, its maximizer is unique and the iteration
    converges to it from any start, so the warm start changes the
    iteration count, not the limit the first route is compared with.

    A handed `solution` that is not an FpsSolution of the problem's order k
    and dimension raises InvalidInput; it is returned as the first route.
    """
    sym = as_sym(s)
    p = sym.dim
    if solution is None:
        sol = solve_fps(sym, config.with_(tau_en=0.0))
    else:
        sol = _check_solution(solution, p, config.k)
    if config.k == p:
        return UniquenessProbe(unique=True, discrepancy=0.0, tau=0.0, gap=float("inf")), sol
    gap = sol.kkt.eigengap
    if gap <= _GAP_TIE_TOL:
        raise GapCollapsed(
            f"eigengap of S - rho Z at order k={config.k} is {gap:.3e}; "
            "the penalized maximizer is not certifiably unique"
        )
    tau = 0.5 * gap
    sol_en = solve_fps(sym, config.with_(tau_en=tau), warm=sol)
    disc = float(np.linalg.norm(sol.H.entries - sol_en.H.entries))
    probe = UniquenessProbe(unique=disc <= _UNIQUE_TOL, discrepancy=disc, tau=tau, gap=gap)
    return probe, sol
