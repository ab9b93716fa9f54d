"""Sparse principal subspace estimation over the trace-k Fantope.

Solves  max <S, H> - rho * ||H||_1,1 - (tau/2) * ||H||_F^2  over the
Fantope (tau = 0 the l1 problem, tau > 0 the elastic net; `solve_fps`
solves both) by operator splitting: an H-block that stays exactly feasible
(every update is a Fantope projection), a Y-block that stays exactly
sparse (entrywise soft-threshold), and a scaled multiplier U gluing them
together.  At a fixed point (step/rho) * U is a subgradient of the l1
term, which is what makes the dual certificate recoverable from the
multiplier for free.  Every form takes the same step (scaled ADMM, Boyd et
al. 2011, section 3.1.1): the H-block projects
M = (step/(tau + step)) (Y - U) + S/(tau + step), and the Y-block
soft-thresholds H + U at a level, rho/step for the penalized forms.

The budget form, max <S, H> subject to ||H||_1,1 <= R, runs the same loop
with the Y-block projecting onto the l1 ball of radius R: the soft-threshold
at the level read off the sorted magnitudes (Duchi et al., ICML 2008).  At a
fixed point U = level * sign(H) on the support, so the answer is the
penalized one at rho* = step * level.  Its maximizer is unchanged when S
is rescaled, so the loop starts at step admm_step * ||S||_2, the iteration
that S / ||S||_2 would take.  Every 20 iterations it also doubles (halves)
the step while the primal (dual) residual is over ten times the other,
rescaling U to keep the multiplier step * U (residual balancing, Boyd et
al. 2011, section 3.4.1).  On the p=50, n=2000 resamples of the
persistence gate the fixed step 1 stalls on one and takes 4114-7452
iterations on three others.  The fixed step ||S||_2 converges on all of
them but stalls on 6 of 216 wider inputs (p=30-50, k=1-2, n=500-2000, R up
to 3k); the balanced step solves all 216, with a median of 58 and at most
3658 iterations.

The step is over-relaxed (Eckstein & Bertsekas 1992; Boyd et al. 2011,
section 3.4.3): the Y- and U-updates read H_rel = 1.5 H + (1 - 1.5) Y_prev
in place of the fresh projection H.  The residuals, the stopping rule and
the per-iteration work are those of the plain step.  At a fixed point
H = Y = Y_prev, so H_rel = H: the limit, the multiplier Z = (step/rho) U
read from it, and every warm-start fixed point (a resumed solve stops in
an iteration or two) are the plain iteration's.  Relaxation cuts the
iterations of a typical solve by about a third (p=200 spiked samples:
about 41 against 63); an instance the plain step finishes in a handful of
iterations can take more (the 3x3 toy: 23 against 3).

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
M_ref; with 4r > p the loop always takes the full eigh.  Every exit
(converged, stalled or out of iterations) leaves from an exact
projection: an iteration whose Ritz step meets a stopping rule is redone
exactly, so H, its constraint residual and the KKT report certify the
answer as an exact iteration would.  A cold start's first iterate,
M0 = (S + step (k/p) I)/(tau + step), has S's
eigenvectors, so its exact projection reads the SymMat's retained
spectrum, shifted and scaled, instead of decomposing M0.  On the p=200
spiked bench samples a solve takes the same 40-43 iterations with 3 full
eigh (two Weyl refreshes and the exact finish) once S's spectrum is known
(the plug-in penalty reads it), instead of one per iteration, and about
1.6 ms per iteration instead of 6.1 (numpy 2.4 with OpenBLAS at one
thread on a 2-core x86_64 host).
"""

from dataclasses import dataclass, replace

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
        for name in ("rho", "tau_en", "admm_step", "eps", "support_tol"):
            object.__setattr__(self, name, _finite_real(name, getattr(self, name)))
        if self.rho < 0 or self.tau_en < 0:
            raise InvalidInput("rho and tau_en must be non-negative")
        if min(self.admm_step, self.eps, self.support_tol) <= 0:
            raise InvalidInput("admm_step and the tolerances must be positive")

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
    feasible set.  For the same reason W = Z + I is also a subgradient
    (W_ii = 1 = sign(H_ii) wherever H_ii > 0, and |W_ii| <= 1 where it is
    zero), and the penalty only shifts S - rho W by the constant rho * k.
    So (H, H, (rho/step) * (Z + I)) is a valid warm start (H, Y, U) that
    resumes the splitting iteration from this solution.
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


@dataclass(frozen=True)
class UniquenessProbe:
    """Outcome of the two-route uniqueness check."""

    unique: bool
    discrepancy: float
    tau: float
    gap: float


def soft_threshold(a, level):
    """Entrywise shrinkage toward zero by `level` (diagonal included)."""
    return a - np.clip(a, -level, level)


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
    return SupportSet(tuple(np.nonzero(d > cut)[0]))


def _kkt_arrays(s, h, z, rho, k, support_tol, primal_residual, tau=0.0):
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
    w = np.linalg.eigvalsh(0.5 * (grad + grad.T))
    gap = float(np.sum(w[-k:])) - float(np.sum(grad * h))
    return KktReport(
        sign_mismatch=sign_mismatch,
        dual_bound_violation=dual_bound_violation,
        fantope_optimality_gap=gap,
        eigengap=float(w[-k] - w[-k - 1]) if k < p else float("inf"),
    )


def check_kkt(s, solution, rho, support_tol=1e-6):
    """Stationarity residuals of a solution to the l1 problem (tau = 0) at penalty rho.

    sign_mismatch: worst |Z_ij - sign(H_ij)| over significant off-diagonal
    entries of H (entries beneath the solver's primal resolution are not
    sign-classifiable and are skipped); vacuous at rho = 0.
    dual_bound_violation: how far Z pokes outside the unit entrywise box.
    fantope_optimality_gap: how far H is from maximizing <S - rho Z, .>
    over the Fantope (sum of top-k eigenvalues minus the achieved value).
    An elastic-net solve's own report (solution.kkt) adds -tau H.
    """
    s = as_sym(s).entries
    h = solution.H.entries
    return _kkt_arrays(
        s, h, np.asarray(solution.Z, dtype=float), float(rho), solution.H.k,
        support_tol=support_tol,
        primal_residual=solution.primal_residual,
    )


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


def _solve_raw(sym, cfg, warm=None, budget=None):
    """The one solve body: the splitting loop, then the solution read off its state.

    sym is the SymMat S; warm is a trusted (H, Y, U) triple of p x p arrays.
    Without one, iteration 1 projects M0 = (S + step (k/p) I)/(tau + step),
    whose eigenpairs are S's retained spectrum shifted and scaled, so a cold
    start takes no eigh of its own.  Every iteration takes the one step of
    the module docstring; the forms differ only in the soft-threshold level.
    It is rho/step without a budget; with a budget R it is the level that
    projects onto the l1 ball of radius R, the step is balanced, and
    rho* = step * (the last level) stands in for cfg.rho in Z, the objective
    and the KKT report.  Returns (solution, the penalty it was read at).
    """
    s = sym.entries
    p = s.shape[0]
    k, rho, tau, sigma = _check_order(cfg.k, p), cfg.rho, cfg.tau_en, cfg.admm_step
    # the H-step's input is shrink * (Y - U) + s_scaled for every tau >= 0
    shrink, s_scaled = sigma / (tau + sigma), s / (tau + sigma)
    if warm is None:
        h = (k / p) * np.eye(p)
        y = h.copy()
        u = np.zeros((p, p))
        # the loop's m below at Y = (k/p) I, U = 0
        gamma, v = sym.spectrum.ascending()
        cold = ((1.0 / (tau + sigma)) * gamma + shrink * (k / p), v)
    else:
        h, y, u = warm
        cold = None

    tol = cfg.eps * np.sqrt(p)
    window = 1000
    hist = np.empty(window)  # max(r_p, r_d) of the last window iterations, cyclic
    ref = None  # (M_ref, lambda_{r+1}(M_ref), tracked top-r block) for the Ritz step
    for it in range(1, cfg.max_iters + 1):
        m = y - u
        m *= shrink
        m += s_scaled
        # a Ritz step when one is tracked, else (or on refusal, or to exit) the full eigh
        for exact in (ref is None, True):
            if exact:
                h, _, gamma, v, g = _project(m, k, cold)
                cold = None
                ref = _reference(m, gamma, v, g)
            else:
                # Weyl: lambda_{r+1}(m) <= lambda_{r+1}(M_ref) + ||m - M_ref||_F
                m_ref, lam_ref, v = ref
                step = _ritz_project(m, k, v, lam_ref + float(np.linalg.norm(m - m_ref)),
                                     _RITZ_RES_FRAC * min(r_p, r_d))
                if step is None:
                    continue
                h, v, g = step
                ref = (m_ref, lam_ref, v)
            # H_rel + U is the Y-step's input; less Y_new, it is the new multiplier
            u_new = _RELAX * h + (1.0 - _RELAX) * y + u
            level = rho / sigma if budget is None else _l1_level(u_new, budget)
            y_new = soft_threshold(u_new, level)
            u_new -= y_new
            r_p = float(np.linalg.norm(h - y_new))
            r_d = float(sigma * np.linalg.norm(y_new - y))
            hist[(it - 1) % window] = max(r_p, r_d)
            converged = r_p <= tol and r_d <= tol
            # sublinear-progress bail-out: a degenerate penalty (tied optima)
            # makes the iterates drift along the solution face at O(1/t); a
            # linear-rate solve shrinks far more than 0.5% per thousand steps
            stalled = False
            if not converged and it >= 2 * window and it % window == 0:
                ratios = hist / tol  # in order: it % window == 0
                half = window // 2
                stalled = bool(ratios[half:].min() > 0.995 * ratios[:half].min())
            # every exit leaves from an exact projection: redo a Ritz step that would stop
            if exact or not (converged or stalled or it == cfg.max_iters):
                break
        y, u = y_new, u_new
        if converged or stalled:
            break
        if budget is not None and it % _BALANCE_EVERY == 0:
            # residual balancing: double or halve the step while one residual
            # exceeds _BALANCE times the other; sigma * U is the multiplier, kept
            f = 2.0 if r_p > _BALANCE * r_d else 0.5 if r_d > _BALANCE * r_p else 1.0
            if f != 1.0:
                sigma *= f
                u = u / f
                shrink, s_scaled = sigma / (tau + sigma), s / (tau + sigma)

    if budget is not None:
        rho = sigma * level
    if rho > 0.0:
        z_raw = (sigma / rho) * u
        z_raw = 0.5 * (z_raw + z_raw.T)
        np.fill_diagonal(z_raw, 0.0)
        clip_excess = max(0.0, entry_max_norm(z_raw) - 1.0)
        z = np.clip(z_raw, -1.0, 1.0)
    else:
        z = np.zeros((p, p))
        clip_excess = 0.0

    sol = FpsSolution(
        H=_projected_point(h, k, g), Z=z,
        objective=float(np.sum(s * h) - rho * np.sum(np.abs(h)) - 0.5 * tau * np.sum(h * h)),
        support=_extract_support(h, cfg.support_tol, r_p), iters=it,
        primal_residual=r_p, dual_residual=r_d,
        kkt=_kkt_arrays(s, h, z, rho, k, cfg.support_tol, r_p, tau),
        dual_clip_excess=clip_excess,
    )
    if not converged:
        if stalled:
            msg = (f"progress stalled after {it} iterations "
                   f"(primal {r_p:.3e}, dual {r_d:.3e}); the problem is "
                   "likely degenerate at this penalty")
        else:
            msg = (f"splitting solver hit max_iters={cfg.max_iters} "
                   f"(primal {r_p:.3e}, dual {r_d:.3e})")
        raise NotConverged(msg, solution=sol)
    return sol, rho


def solve_fps(s, config, warm=None):
    """Penalized Fantope solve; tau_en > 0 makes it strongly concave.

    warm is an optional (H, Y, U) triple of finite p x p arrays to resume
    from; anything else raises InvalidInput.  Raises NotConverged (carrying
    the partial solution) if the iteration budget runs out or progress
    stalls.
    """
    sym = as_sym(s)
    if warm is not None:
        warm = _warm_triple(warm, sym.dim)
    sol, _ = _solve_raw(sym, config, warm)
    return sol


def _warm_triple(warm, p):
    """A caller's warm start as three finite p x p float arrays, or InvalidInput."""
    try:
        parts = [np.array(a, dtype=float) for a in warm]
    except (TypeError, ValueError) as e:
        raise InvalidInput(f"warm must be an (H, Y, U) triple of arrays: {e}") from None
    if len(parts) != 3 or any(a.shape != (p, p) for a in parts):
        raise InvalidInput(
            f"warm must be three {p}x{p} arrays (H, Y, U), got shapes {[a.shape for a in parts]}"
        )
    if not all(np.all(np.isfinite(a)) for a in parts):
        raise InvalidInput("warm has non-finite entries")
    return parts


# ===== constrained form =====

def solve_fps_constrained(s, r_level, config):
    """Solve max <S, H> over the Fantope subject to ||H||_1,1 <= R.

    One run of the splitting loop with the l1-ball Y-step (see the module
    docstring); config.rho and tau_en are ignored.  The step starts at
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
    scale = float(np.max(np.abs(sym.spectrum.eigenvalues), initial=0.0)) or 1.0
    cfg = config.with_(rho=0.0, tau_en=0.0, admm_step=config.admm_step * scale)
    return _solve_raw(sym, cfg, budget=r_level)


# ===== uniqueness probe =====

# an eigengap of S - rho Z at or below this is a tie: the maximizer is not
# unique; the two routes agree when their H differ by at most _UNIQUE_TOL
_GAP_TIE_TOL = 1e-10
_UNIQUE_TOL = 1e-5
# over-relaxation of the splitting step: the Y- and U-updates read
# _RELAX * H + (1 - _RELAX) * Y_prev in place of H (1 is the plain step)
_RELAX = 1.5
# the budget form's step follows its residuals (Boyd et al. 2011, section
# 3.4.1), checked every _BALANCE_EVERY iterations
_BALANCE = 10.0
_BALANCE_EVERY = 20
# the Ritz step tracks the weighted eigenpairs plus _RITZ_MARGIN more, and a
# weighted Ritz residual may be _RITZ_RES_FRAC of the last min(r_p, r_d)
_RITZ_MARGIN = 2
_RITZ_RES_FRAC = 0.1


def uniqueness_probe(s, config, solution=None):
    """Two-route uniqueness check for the penalized solution.

    Solves the plain problem (or takes `solution`, a plain solve of the
    same problem that the caller already holds), reads the eigengap of
    S - rho Z at order k off that solve's KKT report (kkt.eigengap), and
    re-solves, also through `solve_fps`, with a strongly concave
    perturbation tau = gap / 2 (any tau inside the gap leaves the maximizer
    unchanged when the solution is the unique rank-k projector).  Agreement of the two routes within 1e-5
    (Frobenius) certifies uniqueness; a collapsed gap raises GapCollapsed.

    The second route resumes from the first route's answer, the triple
    (H, H, (rho/step)(Z + I)).  When H is the rank-k projector of S - rho Z,
    subtracting tau H with tau < gap keeps it the top-k projector, so the
    triple is an exact fixed point of the elastic-net iteration and the
    resumed solve stops within an iteration or two.  Otherwise the iterates
    move away from it.  Either way the elastic-net problem is strongly
    concave, its maximizer is unique and the iteration converges to it from
    any start, so the warm start changes the iteration count, not the limit
    the first route is compared with.

    A handed `solution` whose order k or dimension differs from the
    problem's raises InvalidInput; it is returned as the first route.
    """
    sym = as_sym(s)
    p = sym.dim
    if solution is None:
        sol = solve_fps(sym, config.with_(tau_en=0.0))
    elif solution.H.k != config.k or solution.H.dim != p:
        raise InvalidInput(
            f"solution has k={solution.H.k}, p={solution.H.dim}; "
            f"the problem has k={config.k}, p={p}"
        )
    else:
        sol = solution
    if config.k == p:
        return UniquenessProbe(unique=True, discrepancy=0.0, tau=0.0, gap=float("inf")), sol
    gap = sol.kkt.eigengap
    if gap <= _GAP_TIE_TOL:
        raise GapCollapsed(
            f"eigengap of S - rho Z at order k={config.k} is {gap:.3e}; "
            "the penalized maximizer is not certifiably unique"
        )
    tau = 0.5 * gap
    h = sol.H.entries
    u = (config.rho / config.admm_step) * (sol.Z + np.eye(p))
    sol_en = solve_fps(sym, config.with_(tau_en=tau), warm=(h, h, u))
    disc = float(np.linalg.norm(h - sol_en.H.entries))
    probe = UniquenessProbe(unique=disc <= _UNIQUE_TOL, discrepancy=disc, tau=tau, gap=gap)
    return probe, sol
