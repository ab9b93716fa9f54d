"""Synthetic covariance models with known sparse principal subspaces.

Each generator returns a ModelInstance carrying the population covariance,
its top-k projector, the true support, and the eigengap, so experiments can
score support recovery and subspace error against ground truth.

Gaussian draws keep only what FPS reads.  The centred scatter of n
N(0, I_p) rows is Wishart_p(n - 1, I), so sample_gaussian draws it directly
by the Bartlett decomposition (Bartlett, 1933): W = R^T R with R the
m x p upper trapezoid, m = min(n - 1, p), R_ii = sqrt(chi^2_{n-1-i}) and
N(0, 1) above the diagonal, the R factor of an (n - 1) x p Gaussian.
sample_covariance colours it once with the model's Sigma^{1/2}.  A draw
takes about p^2 / 2 variates, one p x p product and O(p^2) memory,
whatever n is, and no eigendecomposition.
"""

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .base import (SupportSet, _finite_real, _integer, _support_of, as_support, check_square,
                   entry_max_norm)
from .errors import DegenerateModel, InvalidInput
from .spectral import FantopePoint, SymMat, _pair, _top_k, as_sym


# ===== domain types =====

@dataclass(frozen=True)
class ModelInstance:
    """A population covariance with known principal-subspace structure.

    root is the symmetric square root Sigma^{1/2} (eigenvalues clipped at
    0), read off the same eigendecomposition as Pi: Sigma's retained
    spectrum, which every later check on Sigma reuses; sample_gaussian
    colours its draws with root.
    """

    Sigma: SymMat
    Pi: FantopePoint
    J: SupportSet
    gap: float
    k: int
    root: np.ndarray = field(repr=False, compare=False)
    params: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.Sigma.dim


@dataclass(frozen=True)
class SampleBatch:
    """n i.i.d. draws from a model, held as their white centred scatter.

    scatter is sum_i (z_i - zbar)(z_i - zbar)^T for n N(0, I) rows z_i,
    drawn directly as a Wishart_p(n - 1, I) variate; the rows themselves
    are never drawn, and root colours the scatter into the sample's.
    """

    n: int
    p: int
    seed: int
    root: np.ndarray = field(repr=False, compare=False)
    scatter: np.ndarray = field(repr=False, compare=False)


# ===== generators =====

def _finish_instance(sigma, k, expect_support, params):
    sig = as_sym(sigma)
    spec = sig.spectrum
    pi, gap = _top_k(spec, k)  # reads the vectors first: one eigh, no eigvalsh
    if gap <= 0.0:
        raise DegenerateModel(f"population eigengap is {gap:.3e}")
    got = _support_of(np.diag(pi.entries))
    want = as_support(expect_support)
    if got.indices != want.indices:
        raise DegenerateModel(
            f"projector support {got.indices} differs from intended {want.indices}"
        )
    v, w = spec.eigenvectors, np.clip(spec.eigenvalues, 0.0, None)
    root = (v * np.sqrt(w)) @ v.T
    root.flags.writeable = False
    return ModelInstance(Sigma=sig, Pi=pi, J=want, gap=float(gap), k=int(k),
                         root=root, params=params)


def gen_toy(t):
    """Three-variable toy covariance: a correlated pair plus a decoy variable.

    [[0.9, 0.8,  t],
     [0.8, 0.9, -t],
     [ t, -t,  1.0]]

    The antisymmetric coupling keeps (1,1,0)/sqrt2 an exact leading
    eigenvector for every |t| < 0.35, so the true support stays {0, 1}
    while t tunes how correlated the decoy is with the signal pair.
    """
    t = _finite_real("t", t)
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
    p, k, seed = _integer("p", p), _integer("k", k), _integer("seed", seed, least=0)
    j = as_support(j)
    spikes = np.asarray(spike_values, dtype=object)
    if spikes.ndim != 1 or spikes.shape[0] != k:
        raise InvalidInput("need exactly k spike values")
    spikes = np.array([_finite_real("spike_values", v, 0.0, strict=True) for v in spikes])
    if np.any(np.diff(spikes) > 0):
        raise InvalidInput("spike values must be non-increasing")
    if not (1 <= k <= j.size <= p) or j.indices[-1] >= p:
        raise InvalidInput(f"need 1 <= k <= |j| <= p and j in range(p), "
                           f"got k={k}, j={j.indices}, p={p}")
    noise = _finite_real("noise", noise, 0.0, strict=True)
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
        "model": "spiked", "p": p, "k": k, "s": s,
        "spikes": tuple(float(x) for x in spikes), "noise": noise,
        "seed": seed,
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
    p, s = _integer("p", p, least=3), _integer("s", s, least=2)
    seed = _integer("seed", seed, least=0)
    if s > p:
        raise InvalidInput(f"clique size s={s} exceeds the graph's p={p} vertices")
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
    params = {"model": "planted_clique", "p": p, "s": s, "seed": seed}
    model = _finish_instance(sigma, 1, range(s), params)
    return model, s_mat


# ===== sampling =====

def sample_gaussian(model, n, seed):
    """n i.i.d. draws from N(0, Sigma), reproducible for a given seed.

    The white centred scatter is drawn as one Wishart_p(n - 1, I) variate
    by the Bartlett decomposition (see the module docstring): default_rng(seed)
    gives the N(0, 1) entries above the diagonal of R, row by row, then the
    chi-square diagonal.  It has rank min(n - 1, p).
    """
    n, seed = _integer("n", n, least=2), _integer("seed", seed, least=0)
    p = model.dim
    m = min(n - 1, p)
    rng = np.random.default_rng(seed)
    r = np.zeros((m, p))
    above = np.triu(np.ones((m, p), dtype=bool), 1)
    r[above] = rng.normal(size=m * p - m * (m + 1) // 2)
    r[np.arange(m), np.arange(m)] = np.sqrt(rng.chisquare(n - 1 - np.arange(m)))
    scatter = r.T @ r
    scatter.flags.writeable = False
    return SampleBatch(n=n, p=p, seed=seed, root=model.root, scatter=scatter)


def sample_covariance(batch):
    """Centered sample covariance with 1/n normalization of a SampleBatch.

    The batch is coloured once, S = root (W / n) root, from its white
    scatter W.
    """
    return SymMat.from_array(batch.root @ (batch.scatter / batch.n) @ batch.root)


def entrywise_error(s, sigma):
    """||S - Sigma||_inf,inf, the noise scale the theory is phrased in (InvalidInput
    unless S and Sigma are finite square matrices of one dimension)."""
    sym, smat = _pair(sigma, s)
    return entry_max_norm(smat.entries - sym.entries)


# ===== matrix file format =====

def save_matrix_csv(path, a):
    """Write a finite square matrix as headerless CSV: one row per line, entries as %.17g.

    The bytes are np.savetxt(path, a, delimiter=",", fmt="%.17g")'s, and a
    .gz, .bz2 or .xz path is compressed through numpy's DataSource as
    savetxt compresses it, so load_matrix_csv reads the matrix back bit for
    bit.  Each line is written as it is made.  A row with a nonzero entry is
    formatted from its Python floats through one precomputed line; a row
    whose entries are all +0.0 (by bit pattern: a -0.0 entry is formatted,
    and written as -0) is a copy of one zero line formatted once.  So the
    cost scales with the nonzero rows, not with p^2 entries: an FPS answer
    at p = 200 with 5 support rows takes ~0.5 ms, savetxt ~5.4 ms, and a
    dense p = 200 matrix ~19 ms either way (1 BLAS thread, 2-core x86_64).
    a must be what load_matrix_csv accepts, a non-empty finite square
    matrix; anything else raises InvalidInput and writes nothing.
    """
    a = check_square(a, "matrix to save")
    p = a.shape[0]
    if p == 0:
        raise InvalidInput("matrix to save is empty: a CSV of it would hold no matrix")
    line = ",".join(["%.17g"] * p) + "\n"
    zero = line % ((0.0,) * p)
    nonzero = a.view(np.uint64).any(axis=1).tolist()
    # DataSource opens only an existing file, so the path is created first, as savetxt does
    path = os.fspath(path)
    open(path, "w").close()
    with np.lib.npyio.DataSource(os.curdir).open(path, "wt") as fh:
        for row, keep in zip(a, nonzero):
            fh.write(line % tuple(row.tolist()) if keep else zero)


def load_matrix_csv(path):
    """Read a square matrix from headerless CSV (a .gz, .bz2 or .xz path decompressed).

    An empty file, a table that is not square, or an entry that does not
    parse or is not finite raises InvalidInput.
    """
    try:
        with warnings.catch_warnings():
            # numpy warns on an empty file and returns no rows; the check below names it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            a = np.loadtxt(path, delimiter=",", ndmin=2)
    except Exception as e:
        raise InvalidInput(f"could not parse matrix CSV {path}: {e}")
    if a.size == 0:
        raise InvalidInput(f"{path} holds no matrix")
    return check_square(a, f"matrix in {path}")
