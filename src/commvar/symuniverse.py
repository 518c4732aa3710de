"""Truncated symmetric-algebra universe and its canonical isometries.

A universe is the monomial basis of the polynomials on n variables of degree
at most D, carrying the inner product in which distinct monomials are
orthogonal and <e_alpha, e_alpha> = alpha! (the product of the factorials of
the exponents).  Coordinates are always taken in the orthonormalized basis
e_alpha / sqrt(alpha!), so every canonical isometry below is a literal
permutation of coordinates.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations
from types import MappingProxyType

import numpy as np


@functools.cache
def _monomials(n: int, D: int):
    """Monomials, read-only index and norms_sq of the (n, D) universe.  Each
    degree d comes from stars and bars: n - 1 bars among d + n - 1 slots,
    in reverse itertools order, give descending lexicographic order."""
    alphas = []
    for d in range(D + 1):
        for bars in reversed(list(combinations(range(d + n - 1), n - 1))):
            cuts = (-1, *bars, d + n - 1)
            alphas.append(tuple(b - a - 1 for a, b in zip(cuts, cuts[1:])))
    index = MappingProxyType({a: i for i, a in enumerate(alphas)})
    norms_sq = tuple(math.prod(math.factorial(e) for e in a) for a in alphas)
    return tuple(alphas), index, norms_sq


class UniverseBasis:
    """Monomial basis of degree <= D polynomials in n variables.

    monomials are exponent multi-indices in graded lexicographic order, with
    the constant monomial (the scalar line) first.  norms_sq[i] = alpha_i!
    as an exact integer.  monomials, index and norms_sq are shared by every
    basis of the same (n, D), so index is a read-only mapping.
    """

    def __init__(self, n: int, D: int):
        if n < 1:
            raise ValueError("universe needs at least one variable")
        if D < 0:
            raise ValueError("truncation degree must be non-negative")
        self.n = n
        self.D = D
        self.monomials, self.index, self.norms_sq = _monomials(n, D)

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def __eq__(self, other):
        return isinstance(other, UniverseBasis) and (self.n, self.D) == (other.n, other.D)

    def __hash__(self):
        return hash((self.n, self.D))

    def __repr__(self):
        return f"UniverseBasis(n={self.n}, D={self.D}, dim={self.dim})"


def j0(universe: UniverseBasis) -> np.ndarray:
    """Rank-1 frame spanning the scalar line (the constant monomial)."""
    f = np.zeros((universe.dim, 1), dtype=complex)
    f[universe.index[(0,) * universe.n], 0] = 1.0
    return f


def perm_inverse(sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=int)
    inv = np.empty_like(sigma)
    inv[sigma] = np.arange(len(sigma))
    return inv


def _check_perm(sigma, n: int):
    sigma = np.asarray(sigma, dtype=int)
    if sorted(sigma.tolist()) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {sigma}")
    return sigma


@functools.cache
def _monomial_codes(n: int, D: int):
    """Exponents (dim, n) of the (n, D) monomials, the place values of their
    radix-(D + 1) codes (Python integers past int64), their sort order, the sorted codes."""
    exps = np.array(_monomials(n, D)[0], dtype=int).reshape(-1, n)
    places = np.array([(D + 1) ** j for j in range(n)],
                      dtype=np.int64 if (D + 1) ** n < 2 ** 63 else object)
    order = np.argsort(exps @ places)
    return exps, places, order, (exps @ places)[order]


def sigma_star(sigma, universe: UniverseBasis) -> np.ndarray:
    """Coordinate permutation induced on the universe by permuting variables.

    Returns perm with perm[i] = index of sigma . monomial_i; as an operator
    on coordinate vectors, (sigma_* v)[perm[i]] = v[i]; one searchsorted
    finds the images by their mixed-radix codes.
    """
    inv = perm_inverse(_check_perm(sigma, universe.n))
    exps, places, order, sorted_codes = _monomial_codes(universe.n, universe.D)
    return order[np.searchsorted(sorted_codes, exps[:, inv] @ places)]


def apply_perm_to_coords(perm, vecs: np.ndarray) -> np.ndarray:
    """Apply a coordinate permutation to a vector or the rows of a frame."""
    out = np.empty_like(vecs)
    out[perm] = vecs
    return out


class PsiIsometry:
    """Isometric embedding of a tensor product of universes.

    On orthonormalized basis vectors it sends (alpha, beta) to the
    concatenated multi-index, which is again orthonormalized because
    (alpha, beta)! = alpha! beta!.  The embedding is a bijection onto the
    target monomials of bidegree <= (D_left, D_right).
    """

    def __init__(self, left: UniverseBasis, right: UniverseBasis):
        self.target = UniverseBasis(left.n + right.n, left.D + right.D)
        self.pair_index = _pair_index(left.n, left.D, right.n, right.D)

    def kron_vec(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Image of u (x) v in the target coordinates."""
        return self.kron_frame(np.asarray(u)[:, None], np.asarray(v)[:, None])[:, 0]

    def kron_frame(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Columnwise images of all tensor pairs; pair (a, b) lands at
        column a * g.shape[1] + b, matching np.kron index order.  The products
        of row pair (i, k) are written to target row pair_index[i, k]."""
        f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
        if (f.shape[0], g.shape[0]) != self.pair_index.shape:
            raise ValueError(f"frame rows {f.shape[0]}, {g.shape[0]} != {self.pair_index.shape}")
        w = (f[:, None, :, None] * g[None, :, None, :]).reshape(
            f.shape[0] * g.shape[0], f.shape[1] * g.shape[1])
        out = np.zeros((self.target.dim, w.shape[1]), dtype=complex)
        out[self.pair_index.reshape(-1)] = w
        return out


@functools.cache
def _pair_index(left_n: int, left_D: int, right_n: int, right_D: int) -> np.ndarray:
    """Read-only (left.dim, right.dim) array of the target indices of the
    concatenated multi-indices, whose degrees never exceed left_D + right_D."""
    target = _monomials(left_n + right_n, left_D + right_D)[1]
    right = _monomials(right_n, right_D)[0]
    idx = np.array([[target[a + b] for b in right]
                    for a in _monomials(left_n, left_D)[0]], dtype=int)
    idx.flags.writeable = False
    return idx


def psi_embed(left: UniverseBasis, right: UniverseBasis) -> PsiIsometry:
    """Canonical isometry of the tensor product of two universes into the
    joint universe of degree left.D + right.D."""
    return PsiIsometry(left, right)
