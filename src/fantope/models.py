"""Synthetic covariance models with known sparse principal subspaces.

Each generator returns a ModelInstance carrying the population covariance,
its top-k projector, the true support, and the eigengap, so experiments can
score support recovery and subspace error against ground truth.
"""

from dataclasses import dataclass, field

import numpy as np

from .base import SupportSet, _support_of, as_support, entry_max_norm
from .errors import DegenerateModel, InvalidInput
from .spectral import FantopePoint, SymMat, as_sym, eig_sym, top_k_projector


# ===== domain types =====

@dataclass(frozen=True)
class ModelInstance:
    """A population covariance with known principal-subspace structure."""

    Sigma: SymMat
    Pi: FantopePoint
    J: SupportSet
    gap: float
    k: int
    params: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.Sigma.dim


@dataclass(frozen=True)
class SampleBatch:
    """n i.i.d. rows drawn from a model; X has shape (n, p)."""

    X: np.ndarray
    n: int
    p: int
    seed: int


# ===== generators =====

def _finish_instance(sigma, k, expect_support, params):
    sig = as_sym(sigma)
    pi, gap = top_k_projector(sig, k)
    if gap <= 0.0:
        raise DegenerateModel(f"population eigengap is {gap:.3e}")
    got = _support_of(np.diag(pi.entries))
    want = as_support(expect_support)
    if got.indices != want.indices:
        raise DegenerateModel(
            f"projector support {got.indices} differs from intended {want.indices}"
        )
    return ModelInstance(Sigma=sig, Pi=pi, J=want, gap=float(gap), k=int(k), params=params)


def gen_toy(t):
    """Three-variable toy covariance: a correlated pair plus a decoy variable.

    [[0.9, 0.8,  t],
     [0.8, 0.9, -t],
     [ t, -t,  1.0]]

    The antisymmetric coupling keeps (1,1,0)/sqrt2 an exact leading
    eigenvector for every |t| < 0.35, so the true support stays {0, 1}
    while t tunes how correlated the decoy is with the signal pair.
    """
    t = float(t)
    if not abs(t) < 0.35:
        raise InvalidInput(f"coupling t={t} outside (-0.35, 0.35)")
    sigma = np.array([
        [0.9, 0.8, t],
        [0.8, 0.9, -t],
        [t, -t, 1.0],
    ])
    return _finish_instance(sigma, 1, (0, 1), {"model": "toy", "t": t})


def gen_spiked(p, k, j, spike_values, noise, seed):
    """Sparse spiked covariance: Sigma = U diag(spikes) U^T + noise * I.

    U is an s x k Haar frame embedded on the rows in j.  Row i of U has
    leverage Pi_ii = ||u_i||^2, so a draw with a row that fails the package's
    support rule (leverage above 1e-10) is rejected and resampled (at most
    100 tries).  The eigengap is spike_values[k-1] by construction.
    """
    j = as_support(j)
    spikes = np.asarray(spike_values, dtype=float)
    if spikes.ndim != 1 or spikes.shape[0] != k:
        raise InvalidInput("need exactly k spike values")
    if np.any(spikes <= 0) or np.any(np.diff(spikes) > 0):
        raise InvalidInput("spike values must be positive and non-increasing")
    if not (1 <= k <= j.size <= p):
        raise InvalidInput(f"need 1 <= k <= |j| <= p, got k={k}, |j|={j.size}, p={p}")
    if noise <= 0:
        raise InvalidInput("noise variance must be positive")
    rng = np.random.default_rng(seed)
    s = j.size
    u = None
    for _ in range(100):
        cand, _ = np.linalg.qr(rng.normal(size=(s, k)))
        if _support_of(np.sum(cand * cand, axis=1)).size == s:
            u = cand
            break
    if u is None:
        raise DegenerateModel("could not draw a frame with all rows nonzero")
    u_emb = np.zeros((p, k))
    u_emb[j.as_array(), :] = u
    sigma = (u_emb * spikes) @ u_emb.T + noise * np.eye(p)
    params = {
        "model": "spiked", "p": int(p), "k": int(k), "s": int(s),
        "spikes": tuple(float(x) for x in spikes), "noise": float(noise),
        "seed": int(seed),
    }
    return _finish_instance(sigma, k, j, params)


def gen_planted_clique(p, s, seed):
    """Planted-clique adjacency model; returns (ModelInstance, SymMat sample).

    A is a symmetric +-1 matrix with unit diagonal; off-diagonal entries are
    +1 with probability 1 inside the planted index set {0..s-1} and 1/2
    elsewhere.  The 'sample covariance' is S = A A / (p - 1); its expectation
    Sigma has diagonal p/(p-1), in-clique off-diagonal s/(p-1), zero outside,
    so the leading eigenvector of Sigma is 1_J / sqrt(s).
    """
    if not (2 <= s <= p):
        raise InvalidInput(f"need 2 <= s <= p, got s={s}, p={p}")
    if p < 3:
        raise InvalidInput("need p >= 3")
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(p, k=1)
    prob = np.full(len(iu[0]), 0.5)
    in_clique = (iu[0] < s) & (iu[1] < s)
    prob[in_clique] = 1.0
    edges = rng.random(len(iu[0])) < prob
    a = np.eye(p)
    a[iu] = np.where(edges, 1.0, -1.0)
    a = a + a.T - np.eye(p)
    s_mat = SymMat.from_array(a @ a / (p - 1))

    sigma = np.zeros((p, p))
    sigma[np.ix_(range(s), range(s))] = s / (p - 1)
    np.fill_diagonal(sigma, p / (p - 1))
    params = {"model": "planted_clique", "p": int(p), "s": int(s), "seed": int(seed)}
    model = _finish_instance(sigma, 1, range(s), params)
    return model, s_mat


# ===== sampling =====

def sample_gaussian(model, n, seed):
    """n i.i.d. rows from N(0, Sigma), reproducible for a given seed."""
    if n < 2:
        raise InvalidInput("need n >= 2 samples")
    spec = eig_sym(model.Sigma)
    w = np.clip(spec.eigenvalues, 0.0, None)
    root = (spec.eigenvectors * np.sqrt(w)) @ spec.eigenvectors.T
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, model.dim)) @ root
    return SampleBatch(X=x, n=int(n), p=model.dim, seed=int(seed))


def sample_covariance(batch):
    """Centered sample covariance with 1/n normalization."""
    x = np.asarray(batch.X, dtype=float)
    xc = x - x.mean(axis=0, keepdims=True)
    return SymMat.from_array(xc.T @ xc / x.shape[0])


def entrywise_error(s, sigma):
    """||S - Sigma||_inf,inf, the noise scale the theory is phrased in."""
    return entry_max_norm(as_sym(s).entries - as_sym(sigma).entries)


# ===== matrix file format =====

def save_matrix_csv(path, a):
    """Write a p x p matrix as plain-decimal CSV, no header."""
    np.savetxt(path, np.asarray(a, dtype=float), delimiter=",", fmt="%.17g")


def load_matrix_csv(path):
    """Read a square matrix from plain CSV; validates shape and finiteness."""
    try:
        a = np.loadtxt(path, delimiter=",", ndmin=2)
    except Exception as e:
        raise InvalidInput(f"could not parse matrix CSV {path}: {e}")
    if a.shape[0] != a.shape[1]:
        raise InvalidInput(f"matrix in {path} is {a.shape[0]}x{a.shape[1]}, not square")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"matrix in {path} has non-finite entries")
    return a
