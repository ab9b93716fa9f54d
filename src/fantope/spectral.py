"""Dense symmetric eigen-tools and the trace-k Fantope projection.

The Fantope of order k is the set of symmetric matrices H with
0 <= H <= I (in the semidefinite order) and trace(H) = k: the convex
hull of the rank-k orthogonal projectors.  Everything downstream
(the sparse-subspace solver, the certificates) reduces to Euclidean
projection onto this set, which diagonalizes: project the spectrum
onto the simplex-like set {g : 0 <= g_j <= 1, sum g_j = k} by
shifting every eigenvalue down a common water level theta and
clipping to [0, 1].
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .base import _integer, check_square, sym_residual
from .errors import InvalidInput, NumericalFailure


# ===== domain types =====

@dataclass(frozen=True)
class SymMat:
    """A dense symmetric matrix; construction symmetrizes and records the asymmetry.

    spectrum is its one eigendecomposition, taken on first read and
    retained while the SymMat lives; entries are read-only, so it cannot go
    stale.  Pass the SymMat itself, not its entries, to share it.
    """

    entries: np.ndarray
    asym_residual: float = 0.0

    @classmethod
    def from_array(cls, a):
        a = check_square(a, "SymMat input")
        resid = sym_residual(a)
        ent = 0.5 * (a + a.T)
        ent.flags.writeable = False
        return cls(entries=ent, asym_residual=resid)

    @property
    def dim(self):
        return self.entries.shape[0]

    @cached_property
    def spectrum(self):
        """The descending Spectrum of entries, from one eigh."""
        try:
            w, v = np.linalg.eigh(self.entries)
        except np.linalg.LinAlgError as e:
            raise NumericalFailure(f"dense symmetric eigensolver failed: {e}")
        return _descending(w, v)


def as_sym(a):
    """Coerce an array (or SymMat) to SymMat."""
    return a if isinstance(a, SymMat) else SymMat.from_array(a)


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition, eigenvalues descending, eigenvectors in columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return self.eigenvalues.shape[0]

    def reconstruct(self):
        v, w = self.eigenvectors, self.eigenvalues
        return (v * w) @ v.T

    def ascending(self):
        """(eigenvalues, eigenvectors) in eigh's ascending order, as views."""
        return self.eigenvalues[::-1], self.eigenvectors[:, ::-1]


# how far a validated Fantope point's eigenvalues may leave [0, 1], and its
# trace may leave k (relative to k)
_FANTOPE_EIG_TOL = 1e-8
_FANTOPE_TRACE_TOL = 1e-8


@dataclass(frozen=True)
class FantopePoint:
    """A member of the trace-k Fantope, with its certified constraint residual.

    constraint_residual bounds how far `entries` sits from the exact set:
    max of the asymmetry, the eigenvalue-box violation, and |trace - k|.
    from_entries reads them off the entries' spectrum; a projection's point
    off the clipped eigenvalues it was built from, leaving the trace defect.
    """

    dim: int
    k: int
    entries: np.ndarray
    constraint_residual: float

    @classmethod
    def from_entries(cls, entries, k):
        """A validated point, certified by one eigvalsh of the entries.

        Eigenvalues outside [0, 1] by 1e-8, or a trace off k by 1e-8 * k,
        raise InvalidInput.
        """
        a = check_square(entries, "Fantope point")
        p = a.shape[0]
        k = _check_order(k, p)
        sresid = sym_residual(a)
        sym = 0.5 * (a + a.T)
        try:
            w = np.linalg.eigvalsh(sym)
        except np.linalg.LinAlgError as e:
            raise NumericalFailure(f"eigvalsh failed on Fantope candidate: {e}")
        box = max(max(0.0, -float(w.min())), max(0.0, float(w.max()) - 1.0))
        tr = abs(float(np.sum(w)) - k)
        if box > _FANTOPE_EIG_TOL:
            raise InvalidInput(f"eigenvalues outside [0,1] by {box:.3e}")
        if tr > _FANTOPE_TRACE_TOL * max(k, 1):
            raise InvalidInput(f"trace off by {tr:.3e} from k={k}")
        sym.flags.writeable = False
        return cls(dim=p, k=k, entries=sym, constraint_residual=max(sresid, box, tr))


@dataclass(frozen=True)
class FantopeProjectionResult:
    """Output of fantope_project: the point, the water level, and the spectra."""

    point: FantopePoint
    theta: float
    spectrum: Spectrum       # spectrum of the input matrix
    gamma_plus: np.ndarray   # clipped eigenvalues of the projection, descending


# ===== operations =====

def _check_order(k, p):
    """k as an int, by the base integer rule, or InvalidInput when it exceeds p."""
    k = _integer("k", k)
    if k > p:
        raise InvalidInput(f"subspace order k={k} must be an integer in [1, {p}]")
    return k


def _descending(w, v):
    """Read-only Spectrum from numpy's ascending eigh output."""
    w = np.ascontiguousarray(w[::-1])
    v = np.ascontiguousarray(v[:, ::-1])
    w.flags.writeable = False
    v.flags.writeable = False
    return Spectrum(eigenvalues=w, eigenvectors=v)


def eig_sym(a):
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending.

    A SymMat's is its retained spectrum: taken once, then shared by every
    later call; a raw array is wrapped and decomposed afresh.
    """
    return as_sym(a).spectrum


def _water_fill(gamma, k):
    """Water level theta and weights g = clip(gamma - theta, 0, 1) summing to k.

    gamma is ascending and has at least k entries.  The water level solves
    phi(theta) = sum_j clip(gamma_j - theta, 0, 1) = k.  phi is continuous,
    piecewise linear and non-increasing, with kinks only at gamma_j and
    gamma_j - 1, so it is evaluated at every kink from prefix sums of the
    sorted spectrum, and the root is interpolated on the one segment where
    phi crosses k (the largest root when phi is flat at k).
    """
    p = gamma.shape[0]
    if k == p:
        # every clipped eigenvalue must saturate at 1
        theta = float(gamma[0]) - 1.0
    else:
        cands = np.sort(np.concatenate([gamma - 1.0, gamma]))
        csum = np.concatenate([[0.0], np.cumsum(gamma)])
        lo = np.searchsorted(gamma, cands, side="right")       # gamma_j <= c: 0
        hi = np.searchsorted(gamma, cands + 1.0, side="left")  # gamma_j >= c+1: 1
        phis = (p - hi) + (csum[hi] - csum[lo]) - (hi - lo) * cands
        # phi(cands[0]) = p >= k and phi(cands[-1]) = 0 < k, so a crossing exists;
        # the comparison is slackened because phi near a kink rounds at ~p*eps
        above = np.nonzero(phis >= k - 1e-9 * k)[0]
        if above.size == 0:
            raise NumericalFailure("water-level scan found no feasible segment")
        i = int(above[-1])
        theta = float(cands[i])
        if i < len(cands) - 1 and phis[i] != k:
            # phis[i] ~>= k > phis[i+1]: strict drop, linear on the segment
            frac = (phis[i] - k) / (phis[i] - phis[i + 1])
            theta += float(frac * (cands[i + 1] - cands[i]))
    g = np.clip(gamma - theta, 0.0, 1.0)
    # one Newton correction on the active linear segment mops up roundoff
    resid = float(g.sum()) - k
    active = int(np.count_nonzero((g > 0.0) & (g < 1.0)))
    if resid != 0.0 and active:
        theta += resid / active
        g = np.clip(gamma - theta, 0.0, 1.0)
    return theta, g


def _rebuild(v, g):
    """sum_j g_j v_j v_j^T from the columns that carry weight only (solutions are low-rank)."""
    keep = g > 0.0
    vk = v[:, keep]
    h = (vk * g[keep]) @ vk.T
    return 0.5 * (h + h.T)


def _project(m, k, eig=None):
    """Fantope projection of a symmetric array, on raw arrays and unvalidated.

    eig is the ascending (gamma, v) of m when the caller already holds them
    (a SymMat's retained spectrum, or one shifted and scaled from it); else
    m is decomposed here with one eigh.
    Returns (h, theta, gamma, v, g): the projection, the water level, the
    ascending eigenvalues and eigenvectors of m, and the clipped eigenvalues
    g = clip(gamma - theta, 0, 1).  This is the solver's exact projection
    and the one full-spectrum path; fantope_project wraps it.
    """
    if eig is None:
        try:
            eig = np.linalg.eigh(m)
        except np.linalg.LinAlgError as e:
            raise NumericalFailure(f"dense symmetric eigensolver failed: {e}")
    gamma, v = eig
    theta, g = _water_fill(gamma, k)
    return _rebuild(v, g), theta, gamma, v, g


def _ritz_project(m, k, v, ceiling, res_tol):
    """Fantope projection of m from one Rayleigh-Ritz step, or None when uncertified.

    v is an orthonormal p x r block (2r <= p) that tracks the top r
    eigenvectors of m, and ceiling is an upper bound on the (r+1)-th largest
    eigenvalue of m.  The step takes the Ritz pairs (mu_j, x_j) of m on
    span[v, m v] (one p x 2r qr and a 2r x 2r eigh), water-fills the top r
    Ritz values with the exact projection's routine, and rebuilds
    H = sum_j g_j x_j x_j^T.  It is accepted only if
      - ceiling < theta: no eigenvalue of m outside the block reaches the
        water level, so none of them carries weight, and
      - every weighted Ritz pair has residual ||m x_j - mu_j x_j|| <= res_tol.
    Returns (h, x, g): the projection, and the top r Ritz vectors (the next
    block) with their weights; or None, without building H, when either
    check fails or the small eigh does (the full eigh then reports it).
    """
    r = v.shape[1]
    q, _ = np.linalg.qr(np.hstack([v, m @ v]))
    mq = m @ q
    t = q.T @ mq
    try:
        mu, y = np.linalg.eigh(0.5 * (t + t.T))
    except np.linalg.LinAlgError:
        return None
    mu, y = mu[-r:], y[:, -r:]
    theta, g = _water_fill(mu, k)
    if not ceiling < theta:
        return None
    w = g > 0.0
    x = q @ y
    res = np.linalg.norm(mq @ y[:, w] - x[:, w] * mu[w], axis=0)
    if not float(res.max()) <= res_tol:
        return None
    return _rebuild(x, g), x, g


def _projected_point(h, k, g):
    """The FantopePoint of a _project output (h, g), with no second spectrum.

    g lies in [0, 1] by construction, so the residual is |sum g - k|.
    """
    h.flags.writeable = False
    return FantopePoint(dim=h.shape[0], k=k, entries=h,
                        constraint_residual=abs(float(g.sum()) - k))


def fantope_project(a, k):
    """Euclidean projection of a symmetric matrix onto the trace-k Fantope.

    Water-fills the input's spectrum (a SymMat's retained one): the
    projection is sum_j clip(gamma_j - theta, 0, 1) v_j v_j^T with theta
    chosen so the clipped eigenvalues sum to k.

    Returns a FantopeProjectionResult; its point carries the constraint
    residual certified from the constructed spectrum.
    """
    s = as_sym(a)
    k = _check_order(k, s.dim)
    ent, theta, _, _, g = _project(s.entries, k, s.spectrum.ascending())
    # g is non-decreasing along the ascending spectrum, so reversing sorts it
    return FantopeProjectionResult(
        point=_projected_point(ent, k, g), theta=theta, spectrum=s.spectrum,
        gamma_plus=np.ascontiguousarray(g[::-1]),
    )


def top_k_projector(a, k):
    """Orthogonal projector onto the span of the top-k eigenvectors.

    Returns (point, gap) where gap = gamma_k - gamma_{k+1}; the projector is
    the unique Fantope maximizer of <A, H> iff gap > 0, so a gap at or
    below the solver's tie tolerance (1e-10) flags a tie.  gap is +inf when
    k = p.
    """
    s = as_sym(a)
    return _top_k(s.spectrum, _check_order(k, s.dim))


def _top_k(spec, k):
    """top_k_projector's (point, gap), read off an existing descending Spectrum."""
    w, v = spec.eigenvalues, spec.eigenvectors
    p = spec.dim
    vk = v[:, :k]
    ent = vk @ vk.T
    ent = 0.5 * (ent + ent.T)
    ent.flags.writeable = False
    gap = float("inf") if k == p else float(w[k - 1] - w[k])
    point = FantopePoint(
        dim=p, k=int(k), entries=ent,
        constraint_residual=abs(float(np.trace(ent)) - k),
    )
    return point, gap


# orthonormality residual max|F^T F - I| allowed in an input frame
_ORTH_TOL = 1e-8


def procrustes_align(u, v):
    """Best orthogonal alignment of two orthonormal k-frames.

    Returns (omega, dist): the k x k orthogonal matrix minimizing
    ||u - v @ omega||_F and the achieved distance.  The minimum never
    exceeds the Frobenius distance between the two spanned projectors,
    ||u u^T - v v^T||_F.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 2 or v.ndim != 2 or u.shape != v.shape:
        raise InvalidInput(f"frames must share a p x k shape, got {u.shape} vs {v.shape}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise InvalidInput("frame has non-finite entries")
    kk = u.shape[1]
    for name, f in (("first", u), ("second", v)):
        err = np.max(np.abs(f.T @ f - np.eye(kk))) if kk else 0.0
        if err > _ORTH_TOL:
            raise InvalidInput(f"{name} frame is not orthonormal (residual {err:.3e})")
    try:
        pmat, _, qt = np.linalg.svd(v.T @ u)
    except np.linalg.LinAlgError as e:
        raise NumericalFailure(f"svd failed in frame alignment: {e}")
    omega = pmat @ qt
    dist = float(np.linalg.norm(u - v @ omega))
    return omega, dist
