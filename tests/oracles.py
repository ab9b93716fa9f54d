"""Independent reference routes used to freeze expected values in tests.

Everything here deliberately avoids the package's own algorithms: scalar
bisection instead of breakpoint scans, dense grids instead of ADMM,
exhaustive enumeration instead of algebraic shortcuts.  Named corpora of
hard inputs are kept here as parameters, for the tests to build.
"""

from typing import NamedTuple

import numpy as np


def waterfill_theta_bisect(gamma, k, iters=200):
    """Water level by plain bisection on phi(theta) = sum clip(gamma-theta,0,1)."""
    gamma = np.asarray(gamma, dtype=float)
    lo = float(gamma.min()) - 1.0   # phi = p >= k
    hi = float(gamma.max())         # phi = 0 < k
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.clip(gamma - mid, 0.0, 1.0).sum() >= k:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def l1_level_bisect(a, radius, iters=200):
    """Soft-threshold level leaving l1 norm radius, by plain bisection (0 inside the ball)."""
    mags = np.abs(np.asarray(a, dtype=float)).ravel()
    if mags.sum() <= radius:
        return 0.0
    lo, hi = 0.0, float(mags.max())  # l1 norm above radius at lo, 0 at hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(mags - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_feasible_point(rng, p, k, max_tries=1000):
    """A Fantope member built directly: random basis, rescaled box spectrum."""
    g = None
    for _ in range(max_tries):
        cand = rng.uniform(0.0, 1.0, size=p)
        cand *= k / cand.sum()
        if cand.max() <= 1.0:
            g = cand
            break
    if g is None:
        # fall back to a flat spectrum, always feasible
        g = np.full(p, k / p)
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    h = (q * g) @ q.T
    return 0.5 * (h + h.T)


def penalized_objective(s, h, rho):
    """<S, H> - rho * ||H||_1,1."""
    s = np.asarray(s, dtype=float)
    h = np.asarray(h, dtype=float)
    return float(np.sum(s * h) - rho * np.sum(np.abs(h)))


def grid_solve_2x2(s, rho, res=1e-3):
    """Dense grid maximization of the penalized objective on the 2x2 Fantope, k=1.

    Every trace-1 symmetric 2x2 H is [[a, c], [c, 1-a]]; it lies in the
    Fantope iff (a - 1/2)^2 + c^2 <= 1/4.  Returns (best_objective, best_H).
    """
    s = np.asarray(s, dtype=float)
    a = np.arange(0.0, 1.0 + res / 2, res)
    c = np.arange(-0.5, 0.5 + res / 2, res)
    aa, cc = np.meshgrid(a, c, indexing="ij")
    feas = (aa - 0.5) ** 2 + cc**2 <= 0.25 + 1e-15
    obj = (
        s[0, 0] * aa + s[1, 1] * (1.0 - aa) + 2.0 * s[0, 1] * cc
        - rho * (np.abs(aa) + np.abs(1.0 - aa) + 2.0 * np.abs(cc))
    )
    obj = np.where(feas, obj, -np.inf)
    idx = np.unravel_index(np.argmax(obj), obj.shape)
    best_h = np.array([
        [aa[idx], cc[idx]],
        [cc[idx], 1.0 - aa[idx]],
    ])
    return float(obj[idx]), best_h


def sign_rank_one_bruteforce(m, zero_tol=0.0):
    """Is sign(M) == b b^T for some sign vector b?  Exhaustive over 2^s.

    Any zero entry (|entry| <= zero_tol) disqualifies the pattern, matching
    the strict reading used by the diagnostics.
    """
    m = np.asarray(m, dtype=float)
    sgn = np.sign(m)
    if np.any(np.abs(m) <= zero_tol):
        return False
    s = m.shape[0]
    for bits in range(2 ** (s - 1)):
        b = np.ones(s)
        for j in range(1, s):
            if (bits >> (j - 1)) & 1:
                b[j] = -1.0
        if np.array_equal(sgn, np.outer(b, b)):
            return True
    return False


def grid_solve_2x2_zoom(s, rho, coarse=1e-3, fine=2e-5):
    """Two-stage dense grid maximization on the 2x2 Fantope, k=1.

    A coarse full-domain pass locates the basin; the objective is concave
    on a convex set, so the true maximizer lies within one coarse step of
    the coarse argmax and a local fine grid around it is exhaustive.
    """
    s = np.asarray(s, dtype=float)
    _, h0 = grid_solve_2x2(s, rho, res=coarse)
    a0, c0 = h0[0, 0], h0[0, 1]
    pad = 3.0 * coarse
    a = np.arange(max(0.0, a0 - pad), min(1.0, a0 + pad) + fine / 2, fine)
    c = np.arange(max(-0.5, c0 - pad), min(0.5, c0 + pad) + fine / 2, fine)
    aa, cc = np.meshgrid(a, c, indexing="ij")
    feas = (aa - 0.5) ** 2 + cc**2 <= 0.25 + 1e-15
    obj = (
        s[0, 0] * aa + s[1, 1] * (1.0 - aa) + 2.0 * s[0, 1] * cc
        - rho * (np.abs(aa) + np.abs(1.0 - aa) + 2.0 * np.abs(cc))
    )
    obj = np.where(feas, obj, -np.inf)
    idx = np.unravel_index(np.argmax(obj), obj.shape)
    best_h = np.array([
        [aa[idx], cc[idx]],
        [cc[idx], 1.0 - aa[idx]],
    ])
    return float(obj[idx]), best_h


def waterfill_theta_breakpoints(gamma, k):
    """Largest root of phi(theta) = sum clip(gamma - theta, 0, 1) = k, by brute force.

    phi is linear between consecutive kinks {gamma_j, gamma_j - 1}; evaluate
    it at every kink by a direct sum, take the last kink where phi >= k and
    interpolate on the segment after it.  Kinks closer than roundoff make phi
    round at ~p*eps*(1 + max|gamma|) there, hence the slack on the comparison.
    The slack is kept at that roundoff scale: phi has slope >= 1 off its flat
    segments, so accepting a kink where phi is short of k by the slack moves
    theta by up to the slack, and a wider one (say 1e-9*k) would misplace the
    root among eigenvalues that differ by ~1e-9.
    """
    gamma = np.asarray(gamma, dtype=float)
    kinks = np.unique(np.concatenate([gamma, gamma - 1.0]))
    phi = [float(np.clip(gamma - t, 0.0, 1.0).sum()) for t in kinks]
    slack = 16 * gamma.size * np.finfo(float).eps * (1.0 + np.max(np.abs(gamma)))
    i = max(j for j, f in enumerate(phi) if f >= k - slack)
    if i == len(kinks) - 1 or phi[i] == k:
        return float(kinks[i])
    frac = (phi[i] - k) / (phi[i] - phi[i + 1])
    return float(kinks[i] + frac * (kinks[i + 1] - kinks[i]))


def gaussian_rows(sigma, n, seed):
    """n rows of N(0, Sigma) as one (n, p) draw: default_rng(seed) white rows times Sigma^{1/2}.

    The root is built from numpy's eigh with its spectrum reversed to
    descending order, the order in which the package stores a spectrum, so
    the product matches a sampler that colours with that root bit for bit.
    """
    sigma = np.asarray(sigma, dtype=float)
    w, v = np.linalg.eigh(sigma)
    w, v = np.ascontiguousarray(w[::-1]), np.ascontiguousarray(v[:, ::-1])
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return np.random.default_rng(seed).normal(size=(n, sigma.shape[0])) @ root


def two_pass_covariance(x):
    """Centred 1/n covariance of the rows of x: subtract the mean, then one product."""
    x = np.asarray(x, dtype=float)
    xc = x - x.mean(axis=0, keepdims=True)
    s = xc.T @ xc / x.shape[0]
    return 0.5 * (s + s.T)


class BudgetInput(NamedTuple):
    """A seeded budget-form input, as parameters: the package builds it.

    S is the sample covariance of n draws from
    gen_spiked(p, k, range(5), spikes, 1.0, model_seed): sample_gaussian's
    draw with sample seed `seed`, or with rows=True gaussian_rows' one-shot
    draw with that seed.  The budget is ||H||_1,1 <= r.
    """

    p: int
    k: int
    spikes: tuple
    model_seed: int
    n: int
    seed: int
    r: float
    rows: bool = False


# Budget-form inputs that stalled or ran long.  The first three are the
# inputs of a 216-input spiked scan (sample seed 1000 model_seed + n + p)
# on which the residual-balanced plain step stalled (after 4000, 8000 and
# 8000 iterations); tail-500000 is that step's slow tail (3658 iterations,
# a support of 13 where |J| = 5, many entries of H at the threshold level).
BUDGET_HARD = {
    "stall-p50-n500": BudgetInput(50, 2, (3.0, 2.0), 1, 500, 1550, 6.0),
    "stall-p40-n1000": BudgetInput(40, 2, (3.0, 2.0), 1, 1000, 2040, 6.0),
    "stall-p40-n2000": BudgetInput(40, 2, (3.0, 2.0), 1, 2000, 3040, 6.0),
    "tail-500000": BudgetInput(30, 1, (2.0,), 3, 500, 500000, 3.0, rows=True),
}
