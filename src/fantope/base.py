"""Shared primitives: the integer and real-number rules, matrix norms, support sets."""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput


# ===== the argument rules: integers (counts, orders, sizes, seeds) and reals =====

def _integer(name, value, least=1):
    # integer-valued floats (a config file's "2.0") are accepted and stored as int
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value != int(value) or value < least):
        raise InvalidInput(f"{name}={value!r} must be an integer >= {least}")
    return int(value)


def _finite_real(name, value, least=-math.inf, strict=False):
    # the one rule for real-valued arguments: a finite number >= least (> least
    # when strict), stored as float
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < least or (strict and value == least)):
        bound = f" {'>' if strict else '>='} {least:g}" if least > -math.inf else ""
        raise InvalidInput(f"{name}={value!r} must be a finite number{bound}")
    return float(value)


# ===== matrix norms used by the estimator's bounds =====

def entry_max_norm(a):
    """Entrywise max-abs norm ||A||_inf,inf."""
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def l11_norm(a):
    """Entrywise l1 norm ||A||_1,1 (sum of absolute values, diagonal included)."""
    return float(np.sum(np.abs(np.asarray(a, dtype=float))))


def row_l2_max(a):
    """Max row l2 norm ||A||_2,inf."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0.0
    return float(np.max(np.sqrt(np.sum(a * a, axis=1))))


def sym_residual(a):
    """max_ij |A_ij - A_ji|, the asymmetry of a square matrix."""
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a - a.T))) if a.size else 0.0


def _finite_array(a, name):
    # the one rule for array arguments: numeric, rectangular and finite, as floats
    try:
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as e:
        raise InvalidInput(f"{name} is not a numeric array: {e}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} has non-finite entries")
    return a


def check_square(a, name="matrix"):
    a = _finite_array(a, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    return a


# ===== support sets =====

@dataclass(frozen=True)
class SupportSet:
    """Sorted, duplicate-free set of row/column indices, each by the integer rule with least 0."""

    indices: tuple

    def __post_init__(self):
        idx = tuple(self.indices)
        # plain non-negative ints pass the rule without its per-index cost
        if not (all(type(i) is int for i in idx) and min(idx, default=0) >= 0):
            idx = [_integer("support index", i, least=0) for i in idx]
        object.__setattr__(self, "indices", tuple(sorted(set(idx))))

    @property
    def size(self):
        return len(self.indices)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i):
        return i in self.indices

    def as_array(self):
        return np.asarray(self.indices, dtype=int)

    def complement(self, dim):
        """Indices in range(dim) not in this set."""
        dim, inside = _integer("dim", dim, least=0), set(self.indices)
        if inside and max(inside) >= dim:
            raise InvalidInput("support index exceeds dimension")
        return SupportSet(tuple(i for i in range(dim) if i not in inside))


def as_support(j):
    """Coerce an iterable of indices (or SupportSet) to a SupportSet."""
    return j if isinstance(j, SupportSet) else SupportSet(j)


# A variable is in the support of a projector Pi when its leverage Pi_ii
# exceeds this cut; models, generators and checks all use this one rule.
_SUPPORT_CUT = 1e-10


def _support_of(leverage):
    """Indices whose leverage (projector diagonal entry) exceeds _SUPPORT_CUT."""
    return SupportSet(np.nonzero(np.asarray(leverage) > _SUPPORT_CUT)[0].tolist())
