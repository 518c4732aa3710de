"""Seeded generators for exactly commuting tuples and canonical
configurations.

Tuples are exact by construction: sample an eigenvalue tuple per coordinate,
sample a Haar unitary (or orthogonal) basis, and conjugate the diagonals.
All randomness flows through the SplitMix64 stream, so every generator is
deterministic in its seed.
"""

from __future__ import annotations

import numpy as np

from .commodel import CommutingTuple
from .gammaconf import Configuration, Label, SpherePoint, canonicalize
from .isodecomp import unit_normalize
from .numkit import DEFAULT_TOL, Tolerances, identity
from .rng import SplitMix64, haar_orthogonal, haar_unitary, unit_phase
from .symuniverse import UniverseBasis


def _sample_value(rng: SplitMix64, kind: str, margin: float) -> complex:
    if kind == "unitary":
        return unit_phase(rng, margin)
    if kind == "skew_hermitian":
        return 1j * rng.normal()
    return rng.normal()


def sample_value_columns(rng: SplitMix64, kind: str, n: int, cols: int,
                         margin: float, min_separation: float) -> np.ndarray:
    """(n, cols) value tuples of `kind`, one column per eigenvector or label
    (unitary values with arguments in [margin, 2 pi - margin]); each column
    is redrawn, up to 1000 times, until it lies min_separation from every
    earlier column in the max metric: one test per draw, none when
    min_separation is 0."""
    vals = np.zeros((n, cols), dtype=complex)
    for c in range(cols):
        for _attempt in range(1000):
            col = np.array([_sample_value(rng, kind, margin) for _ in range(n)])
            if min_separation == 0.0 or not n or (
                    np.abs(col[:, None] - vals[:, :c]).max(axis=0) >= min_separation).all():
                break
        vals[:, c] = col
    return vals


def _assemble(kind: str, vals: np.ndarray, rng: SplitMix64, s: int) -> CommutingTuple:
    if kind == "real_symmetric":
        q = haar_orthogonal(rng, s)
        vals = vals.real
    else:
        q = haar_unitary(rng, s)
    mats = q @ (vals[:, :, None] * identity(s)) @ q.conj().T
    if kind == "skew_hermitian":
        mats = 0.5 * (mats - np.conj(mats.swapaxes(1, 2)))
    return CommutingTuple(kind, mats)


def gen_random_commuting(seed: int, n: int, s: int, kind: str,
                         margin: float = 0.0,
                         min_separation: float = 0.0) -> CommutingTuple:
    """Exactly commuting random tuple, deterministic in the seed.

    margin keeps unitary eigenvalues away from 1 (arc distance);
    min_separation enforces pairwise distinctness of the eigenvalue tuples
    in the max metric.
    """
    rng = SplitMix64(seed)
    vals = sample_value_columns(rng, kind, n, s, margin, min_separation)
    return _assemble(kind, vals, rng, s)


def gen_partition_tuple(seed: int, n: int, parts, kind: str = "skew_hermitian",
                        traceless: bool = False, unit: bool = False) -> CommutingTuple:
    """Commuting tuple whose coarsest eigenspace decomposition realizes the
    prescribed part sizes: one shared eigenvalue tuple per part, parts kept
    0.5 apart in the max metric.  `unit` scales by `unit_normalize`, so a
    single part (traceless part 0 up to roundoff) raises ZeroTuple; a part
    below 1 raises ValueError."""
    parts = list(parts)
    if any(p < 1 for p in parts):
        raise ValueError("parts must be positive")
    s = sum(parts)
    rng = SplitMix64(seed)
    part_vals = sample_value_columns(rng, kind, n, len(parts), 0.3, 0.5)
    t = _assemble(kind, np.repeat(part_vals, parts, axis=1), rng, s)
    if traceless or unit:
        if kind == "unitary":
            raise ValueError("traceless projection needs a Lie-algebra kind")
        tr = t.mats.trace(axis1=1, axis2=2) / s
        t = CommutingTuple(kind, t.mats - tr[:, None, None] * identity(s))
    return unit_normalize(t) if unit else t


def config_on_basis(universe: UniverseBasis, basis: np.ndarray, dims, points: np.ndarray,
                    tol: Tolerances = DEFAULT_TOL) -> Configuration:
    """Canonical configuration whose labels are consecutive column slices of
    `basis`, of dimensions `dims`, at the columns of `points`."""
    frames = np.split(np.asarray(basis, complex), np.cumsum(dims), axis=1)[:-1]
    return canonicalize(Configuration(universe, [
        Label(f, SpherePoint(coords)) for f, coords in zip(frames, points.T)]), tol)


def gen_random_config(seed: int, universe: UniverseBasis, max_labels: int = 3,
                      max_rank: int | None = None, dims=None,
                      tol: Tolerances = DEFAULT_TOL) -> Configuration:
    """Canonical random configuration with well-separated labels.

    Label subspaces are slices of a Haar unitary frame of the universe;
    point coordinates have arguments in [0.35, 2 pi - 0.35], away from the
    basepoint, and points are pairwise 0.2 apart in the max metric, so
    canonicalization is stable.  Passing `dims` pins the label dimensions
    (and hence the rank) exactly; one below 1 raises ValueError.
    """
    rng = SplitMix64(seed)
    dim = universe.dim
    if dims is not None:
        dims = list(dims)
        if any(d < 1 for d in dims):
            raise ValueError("label dimensions must be positive")
        if sum(dims) > dim:
            raise ValueError("label dimensions exceed the universe dimension")
    else:
        if max_rank is None:
            max_rank = dim
        max_rank = min(max_rank, dim)
        k = rng.randint(1, min(max_labels, max_rank) + 1)
        dims = []
        budget = max_rank
        for i in range(k):
            d = rng.randint(1, budget - (k - 1 - i) + 1)
            dims.append(d)
            budget -= d
    basis = haar_unitary(rng, dim)
    points = sample_value_columns(rng, "unitary", universe.n, len(dims), 0.35, 0.2)
    return config_on_basis(universe, basis, dims, points, tol)


def gen_exact_rank_tuple(seed: int, n: int, s: int,
                         ambient_dim: int | None = None) -> CommutingTuple:
    """Unitary tuple of exact stratum rank s inside a larger ambient space:
    s eigenvalue columns away from 1 and mutually separated, padded by
    identity directions."""
    if ambient_dim is None:
        ambient_dim = s + 2
    if ambient_dim < s:
        raise ValueError("ambient dimension must be at least the rank")
    rng = SplitMix64(seed)
    vals = sample_value_columns(rng, "unitary", n, s, 0.3, 0.2)
    ones = np.ones((n, ambient_dim - s), dtype=complex)
    return _assemble("unitary", np.hstack([vals, ones]), rng, ambient_dim)
