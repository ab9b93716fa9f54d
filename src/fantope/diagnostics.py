"""Assumption checks, error bounds, and the primal-dual certificate.

Everything here evaluates a claim about a (population, estimate) pair of
matrices: eigengap and support identifiability, the correlation budget
between relevant and irrelevant variables, penalty-level conditions for
exact support recovery, the Frobenius error bound, an explicit dual
certificate built from the support-restricted subproblem, and the
predictive-covariance persistence/stability bounds for the constrained
form.  All checks are pure functions of their inputs.
"""

from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .base import (SupportSet, _finite_real, _integer, _support_of, as_support,
                   entry_max_norm, l11_norm, row_l2_max)
from .errors import InvalidInput, SpsViolated
from .solver import SolverConfig, solve_fps, solve_fps_constrained
from .spectral import (FantopePoint, SymMat, _check_order, _top_k, as_sym, eig_sym,
                       procrustes_align)


# ===== report types =====

@dataclass(frozen=True)
class ConditionReport:
    """Numeric record of the recovery conditions.

    Fields that a particular check cannot evaluate (e.g. the error-norm
    condition when no estimate matrix is given) are None.  rho is the
    penalty the other fields were evaluated at; signal_leverage_required
    is the threshold signal_min_leverage is compared against.
    """

    sps_gap: float
    sps_support: SupportSet
    lcc_lhs: float
    lcc_alpha: float
    det_cond1_lhs: float
    det_cond2_slack: float
    signal_min_leverage: float
    signal_leverage_required: float
    entrywise_min_ok: bool
    prob_sample_ok: bool
    rho: float

    def to_flat_dict(self):
        flat = {f.name: getattr(self, f.name) for f in fields(self)}
        flat["sps_support"] = list(self.sps_support.indices)
        return flat


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the explicit dual-certificate construction.

    Htilde is the support-restricted solution embedded back into p x p;
    it is excluded from the flat serialization (matrices don't belong in
    a flat summary).
    """

    Htilde: FantopePoint
    Q_deviation: float
    Q_bound: float
    dual_offsupport_max: float
    noise_opnorm: float
    signal_gap: float
    witness_valid: bool

    def to_flat_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "Htilde"}


# ===== population spectrum =====

class _Population(NamedTuple):
    """What the recovery theory reads off Sigma's one (retained) eigendecomposition."""

    gap: float           # lambda_k - lambda_{k+1}; +inf when k = p
    lam1: float          # lambda_1
    pi: FantopePoint     # top-k projector
    support: SupportSet  # indices where Pi_ii passes the support rule


def _population(sym, k):
    k = _check_order(k, sym.dim)
    spec = sym.spectrum
    pi, gap = _top_k(spec, k)
    return _Population(gap=gap, lam1=float(spec.eigenvalues[0]), pi=pi,
                       support=_support_of(np.diag(pi.entries)))


def _pair(sigma, s):
    sym, smat = as_sym(sigma), as_sym(s)
    if sym.dim != smat.dim:
        raise InvalidInput("population and estimate dimensions differ")
    return sym, smat


def _gapped(sym, k, why=""):
    # the checks below are stated for an identifiable top-k subspace
    pop = _population(sym, k)
    if pop.gap <= 0:
        raise SpsViolated(f"eigengap at order {k} is {pop.gap:.3e}{why}")
    return pop


def check_sps(sigma, k):
    """Eigengap at order k and the support read off the top-k projector.

    Returns (gap, support) with gap = lambda_k - lambda_{k+1} and support
    the indices where the projector's diagonal exceeds 1e-10.  When gap
    <= 1e-10 the projector is not identifiable and the returned support
    is an arbitrary representative -- treat it as unreliable.
    """
    pop = _population(as_sym(sigma), k)
    return pop.gap, pop.support


def _lcc(sym, j, gap):
    comp = j.complement(sym.dim)
    if len(comp) == 0:
        return 0.0, 1.0
    block = sym.entries[np.ix_(comp.as_array(), j.as_array())]
    lhs = float(8.0 * len(j) / gap * row_l2_max(block))
    return lhs, max(0.0, 1.0 - lhs)


def check_lcc(sigma, k, j):
    """Correlation budget between support and complement rows.

    lhs = (8s / gap) * max row norm of Sigma[complement, support]; the
    condition holds with constant alpha when lhs <= 1 - alpha.  Returns
    (lhs, alpha) with alpha = max(0, 1 - lhs).
    """
    sym = as_sym(sigma)
    j = as_support(j)
    if len(j.complement(sym.dim)) == 0:
        return 0.0, 1.0  # no complement rows: nothing to budget, no gap needed
    pop = _gapped(sym, k, "; correlation budget is undefined")
    return _lcc(sym, j, pop.gap)


_SIGN_ZERO_TOL = 1e-12  # an entry this small has no sign


def sign_rank_one(m, j):
    """Whether sign(M[J, J]) factors as an outer product b b^T, b in {-1,1}^s.

    Any entry with magnitude <= 1e-12 disqualifies the pattern.  The
    check fixes b from the first row's signs and verifies consistency,
    which is equivalent to the exhaustive search over all sign vectors.
    """
    m = np.asarray(m, dtype=float)
    j = as_support(j)
    sub = m[np.ix_(j.as_array(), j.as_array())]
    if np.any(np.abs(sub) <= _SIGN_ZERO_TOL):
        return False
    sgn = np.sign(sub)
    b = sgn[0, :]
    return bool(np.array_equal(sgn, np.outer(b, b)))


def support_error(est, truth):
    """Count support mistakes: (false_positives, false_negatives, exact)."""
    a = set(as_support(est).indices)
    b = set(as_support(truth).indices)
    fp = len(a - b)
    fn = len(b - a)
    return fp, fn, (fp == 0 and fn == 0)


_ROW_TOL = 1e-10  # a row of H with l2 norm at most this counts as zero


def l11_row_bound(point):
    """Sparsity bound ||H||_1,1 <= k * (number of rows with norm > 1e-10).

    Returns (lhs, rhs, ok).  Holds for every Fantope member by
    Cauchy-Schwarz, with k = trace(H).
    """
    h = point.entries
    lhs = l11_norm(h)
    rows = int(np.count_nonzero(np.sqrt((h * h).sum(axis=1)) > _ROW_TOL))
    rhs = float(point.k * rows)
    return lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-9))


# ===== recovery condition checks =====

def _carried(j, k):
    """j as a SupportSet; InvalidInput when it is too small to carry a rank-k projector."""
    j = as_support(j)
    if len(j) < k:
        raise InvalidInput(f"support of size {len(j)} cannot carry a rank-{k} projector")
    return j


def _conditions(sym, k, j, rho, signed_floor):
    """The condition report fields both checks share, from one spectrum.

    Returns (report, population); det_cond1_lhs and prob_sample_ok are left
    None for the caller to fill.  A support smaller than k raises InvalidInput.
    """
    pop = _gapped(sym, k)
    j = _carried(j, k)
    card = len(j)
    jj = j.as_array()
    lcc_lhs, lcc_alpha = _lcc(sym, j, pop.gap)
    sub = sym.entries[np.ix_(jj, jj)]
    floor = np.min(sub) if signed_floor else np.min(np.abs(sub))
    rep = ConditionReport(
        sps_gap=pop.gap,
        sps_support=pop.support,
        lcc_lhs=lcc_lhs,
        lcc_alpha=lcc_alpha,
        det_cond1_lhs=None,
        det_cond2_slack=float(pop.gap - 4.0 * rho * card * (1.0 + 8.0 * pop.lam1 / pop.gap)),
        signal_min_leverage=float(np.sqrt(np.min(np.diag(pop.pi.entries)[jj]))),
        signal_leverage_required=4.0 * rho * card / pop.gap,
        entrywise_min_ok=bool(floor > 2.0 * rho) and sign_rank_one(sym.entries, j),
        prob_sample_ok=None,
        rho=float(rho),
    )
    return rep, pop


def check_recovery_conditions(sigma, s, k, j, rho):
    """Evaluate the exact-recovery conditions for a known population matrix.

    Checks, at penalty rho > 0:
      - error-vs-correlation budget: ||S - Sigma||_max / rho + lcc_lhs <= 1
        (reported as det_cond1_lhs);
      - penalty ceiling: gap - 4*rho*s*(1 + 8*lambda_1/gap) > 0 (reported
        as det_cond2_slack, positive means pass);
      - signal floor: min_{i in J} sqrt(Pi_ii) > 4*rho*s/gap;
      - entrywise floor: min |Sigma_JJ| > 2*rho together with a rank-one
        sign pattern on the support block.
    prob_sample_ok is None here; it belongs to the sampling-based check.
    """
    sym, smat = _pair(sigma, s)
    if _finite_real("rho", rho) <= 0:
        raise InvalidInput("recovery conditions are stated for rho > 0")
    rep, _ = _conditions(sym, k, as_support(j), rho, signed_floor=False)
    err = entry_max_norm(smat.entries - sym.entries)
    return replace(rep, det_cond1_lhs=float(err / rho + rep.lcc_lhs))


def check_sample_conditions(sigma, k, j, n, sigma_scale, alpha):
    """Evaluate the sampling-based recovery conditions at sample size n.

    Uses the prescribed penalty rho = (sigma_scale / alpha) *
    sqrt(log(p) / n).  prob_sample_ok records whether
    s * sqrt(log(p)/n) stays below alpha * gap^2 / (4 * sigma_scale *
    (8 * lambda_1 + gap)).  The entrywise floor here uses the raw
    (signed) minimum of Sigma_JJ, which is the stricter sampling-based
    clause.  det_cond1_lhs is None: it needs an observed estimate.
    """
    sym = as_sym(sigma)
    p = sym.dim
    if not (0 < _finite_real("alpha", alpha) <= 1):
        raise InvalidInput(f"alpha={alpha} must be in (0, 1]")
    if _finite_real("sigma_scale", sigma_scale) <= 0:
        raise InvalidInput(f"sigma_scale={sigma_scale} must be positive")
    if _integer("n", n) < np.log(p):
        raise InvalidInput(f"sample size n={n} must be an integer >= log(p)")
    j = as_support(j)
    rate = np.sqrt(np.log(p) / n)
    rho = float(sigma_scale / alpha * rate)
    rep, pop = _conditions(sym, k, j, rho, signed_floor=True)
    lhs_sample = len(j) * rate
    rhs_sample = alpha * pop.gap**2 / (4.0 * sigma_scale * (8.0 * pop.lam1 + pop.gap))
    return replace(rep, prob_sample_ok=bool(lhs_sample < rhs_sample))


_FROBENIUS_TOL = 1e-6  # slack on the bound for the solver's own error


def frobenius_bound_check(sigma, s, k, j, rho, sol):
    """Frobenius error bound ||H - Pi||_F <= 4*rho*s/gap (up to 1e-6).

    The bound's regime needs rho at least the entrywise error
    ||S - Sigma||_max; the caller owns that choice.  Returns
    (lhs, rhs, ok).
    """
    j = as_support(j)
    pop = _gapped(as_sym(sigma), k)
    lhs = float(np.linalg.norm(sol.H.entries - pop.pi.entries))
    rhs = float(4.0 * rho * len(j) / pop.gap)
    return lhs, rhs, bool(lhs <= rhs + _FROBENIUS_TOL)


# ===== dual certificate =====

def _aligned_eigvecs(mat, k):
    # descending eigenvectors split into leading k and trailing block
    spec = eig_sym(mat)
    return spec.eigenvectors[:, :k], spec.eigenvectors[:, k:]


def build_witness(sigma, s, k, j, rho):
    """Construct the explicit primal-dual certificate for support recovery.

    Solves the support-restricted problem on S[J, J], recovers that
    subproblem's dual, aligns the empirical and population eigenbases on
    the support (leading and trailing blocks separately) to form the
    rotation Q, and computes the off-support dual blocks in closed form:
    cross block (S_ij - <Q_i, Sigma_J j>) / rho, complement block
    (S - Sigma)_ij / rho.  The report records how far the construction
    is from certifying optimality:
      - Q_deviation vs its bound 8*rho*s/gap,
      - the largest off-support dual magnitude (feasible iff <= 1),
      - the operator norm of the non-signal residual, which must stay
        below half the population eigengap.
    witness_valid requires all three.
    """
    if _finite_real("rho", rho) <= 1e-12:
        raise InvalidInput("certificate construction divides by rho; need rho > 1e-12")
    sym, smat = _pair(sigma, s)
    p = sym.dim
    j = _carried(j, k)
    card = len(j)
    jj = j.as_array()
    jc = j.complement(p).as_array()

    gap = _gapped(sym, k).gap

    sub_s = smat.entries[np.ix_(jj, jj)]
    sub_sol = solve_fps(sub_s, SolverConfig(k=k, rho=rho))
    z_sub = sub_sol.Z

    # block-diag(B, 0) has B's spectrum plus zeros: B's residual carries over
    htilde = np.zeros((p, p))
    htilde[np.ix_(jj, jj)] = sub_sol.H.entries
    htilde.flags.writeable = False
    htilde_point = FantopePoint(dim=p, k=sub_sol.H.k, entries=htilde,
                                constraint_residual=sub_sol.H.constraint_residual)

    sigma_jj = sym.entries[np.ix_(jj, jj)]
    u_hat_lead, u_hat_trail = _aligned_eigvecs(sub_s - rho * z_sub, k)
    u_pop_lead, u_pop_trail = _aligned_eigvecs(sigma_jj, k)
    o_lead, _ = procrustes_align(u_pop_lead, u_hat_lead)
    o_trail, _ = procrustes_align(u_pop_trail, u_hat_trail)
    v_hat = np.hstack([u_hat_lead @ o_lead, u_hat_trail @ o_trail])
    v_pop = np.hstack([u_pop_lead, u_pop_trail])
    q = v_hat @ v_pop.T
    q_dev = float(np.linalg.norm(q - np.eye(card)))
    q_bound = float(8.0 * rho * card / gap)

    wmat = smat.entries - sym.entries
    if jc.size:
        cross = (smat.entries[np.ix_(jj, jc)] - q @ sym.entries[np.ix_(jj, jc)]) / rho
        comp = wmat[np.ix_(jc, jc)] / rho
        np.fill_diagonal(comp, 0.0)
        offsupport_max = max(
            float(np.max(np.abs(cross))),
            float(np.max(np.abs(comp))) if jc.size > 1 else 0.0,
        )
    else:
        offsupport_max = 0.0

    # non-signal residual: the support block left over after removing the
    # rotated population block, plus the diagonal of the complement error
    noise_block = sub_s - rho * z_sub - q @ sigma_jj @ q.T
    opn = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (noise_block + noise_block.T)))))
    if jc.size:
        opn = max(opn, float(np.max(np.abs(np.diag(wmat[np.ix_(jc, jc)])))))

    valid = (
        q_dev <= q_bound + 1e-9
        and offsupport_max <= 1.0 + 1e-6
        and 2.0 * opn <= gap + 1e-9
    )
    return WitnessReport(
        Htilde=htilde_point,
        Q_deviation=q_dev,
        Q_bound=q_bound,
        dual_offsupport_max=offsupport_max,
        noise_opnorm=opn,
        signal_gap=gap,
        witness_valid=bool(valid),
    )


# ===== predictive covariance: persistence and stability =====

def persistence_gap(sigma, s, k, r_level):
    """Predictive-covariance loss of the estimated constrained solution.

    pop_value is the best constrained predictive covariance <Sigma, H>
    achievable knowing Sigma; emp_value evaluates the solution computed
    from S against Sigma.  Their gap is nonnegative up to solver slack
    and bounded by 2*R*||S - Sigma||_max.  Returns (pop_value,
    emp_value, gap, bound).
    """
    sym, smat = _pair(sigma, s)
    h_pop, _ = solve_fps_constrained(sym, r_level, SolverConfig(k=k))
    h_emp, _ = solve_fps_constrained(smat, r_level, SolverConfig(k=k))
    pop_value = float(np.sum(sym.entries * h_pop.H.entries))
    emp_value = float(np.sum(sym.entries * h_emp.H.entries))
    bound = float(2.0 * r_level * entry_max_norm(smat.entries - sym.entries))
    return pop_value, emp_value, pop_value - emp_value, bound


def stability_check(sigma, delta, k, r_level):
    """Continuity of the constrained predictive covariance value.

    f(M) = max <M, H> over the Fantope intersected with the l1 budget;
    |f(Sigma + Delta) - f(Sigma)| <= 2*R*||Delta||_max.  Returns
    (f_diff, bound).
    """
    sym = as_sym(sigma)
    dmat = as_sym(delta)
    if sym.dim != dmat.dim:
        raise InvalidInput("perturbation dimension differs from the matrix")
    moved = SymMat.from_array(sym.entries + dmat.entries)
    sol_a, _ = solve_fps_constrained(sym, r_level, SolverConfig(k=k))
    sol_b, _ = solve_fps_constrained(moved, r_level, SolverConfig(k=k))
    f_a = float(np.sum(sym.entries * sol_a.H.entries))
    f_b = float(np.sum(moved.entries * sol_b.H.entries))
    bound = float(2.0 * r_level * entry_max_norm(dmat.entries))
    return abs(f_b - f_a), bound
