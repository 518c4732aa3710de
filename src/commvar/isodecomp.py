"""Isotropy analysis: decomposition types, fixed-subspace dimensions, unit
normalization, and the unordered flag parametrization.

The decomposition type of a commuting tuple is the partition of the matrix
size by the dimensions of the coarsest simultaneous eigenspace decomposition;
its stabilizer under conjugation is the corresponding block subgroup.  A type
with more than one part is called complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .commodel import CommutingTuple, JointSpectrum, checked_spectrum, require_kind
from .errors import ShapeMismatch, ZeroTuple
from .numkit import (DEFAULT_TOL, Tolerances, check_entries, check_structure, fro, identity,
                     phase_normalize)


@dataclass(frozen=True)
class DecompType:
    """Unordered partition recording simultaneous eigenspace dimensions."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        object.__setattr__(self, "parts", tuple(sorted(self.parts, reverse=True)))

    @property
    def s(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)


def decomposition_type(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL,
                       spectrum: JointSpectrum | None = None) -> DecompType:
    """Partition of the size by the coarsest joint eigenblock dimensions; an s = 0
    tuple (no blocks) raises ShapeMismatch, a config_spectrum (no off-F blocks) ValueError."""
    spectrum = checked_spectrum(t, tol, spectrum)
    if spectrum.Q is None:
        raise ValueError("a configuration spectrum has no off-F blocks to type")
    if not spectrum.blocks:
        raise ShapeMismatch("an s = 0 tuple has no decomposition type")
    return DecompType(tuple(b.frame.shape[1] for b in spectrum.blocks))


def is_complete_type(d: DecompType) -> bool:
    """A type is complete when it has more than one part."""
    return d.k > 1


def fixed_subspace_dim(d: DecompType, n: int, field: str = "complex") -> int:
    """Dimension of the linear space of n-tuples of traceless block-scalar
    matrices with the given block pattern: n (k - 1), for unitary blocks and
    orthogonal blocks alike."""
    if n < 1:
        raise ValueError("need at least one tuple component")
    if field not in ("complex", "real"):
        raise ValueError("field must be 'complex' or 'real'")
    return n * (d.k - 1)


def tuple_norm(t: CommutingTuple) -> float:
    """Euclidean norm of a tuple: sqrt of the summed squared Frobenius norms."""
    return math.sqrt(sum(fro(m) ** 2 for m in t.mats))


def _check_traceless(t: CommutingTuple, eps: float):
    check_entries(t.mats)  # before any norm is taken
    scale = max((fro(m) for m in t.mats), default=0.0)
    for m in t.mats:
        if abs(m.trace()) > eps * max(1.0, scale):
            raise ValueError("tuple is not traceless")


def unit_normalize(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL) -> CommutingTuple:
    """Scale a nonzero traceless tuple to unit norm.  Raises InvalidTuple
    (check_entries), and ZeroTuple when the norm is not above eps_struct."""
    require_kind(t, "skew_hermitian", "real_symmetric")
    _check_traceless(t, tol.eps_struct)
    norm = tuple_norm(t)
    if norm <= tol.eps_struct:
        raise ZeroTuple(f"tuple norm {norm:.3e}")
    return CommutingTuple(t.kind, t.mats / norm, t.ambient)


def _check_diagonal_unit(x: CommutingTuple, tol: Tolerances):
    require_kind(x, "skew_hermitian")
    _check_traceless(x, tol.eps_struct)
    for m in x.mats:
        if fro(m - np.diag(m.diagonal())) > tol.eps_struct:
            raise ValueError("flag coordinates must be diagonal")
    if abs(tuple_norm(x) - 1.0) > tol.eps_struct:
        raise ValueError("flag coordinates must have unit norm")


def flag_map(g: np.ndarray, x: CommutingTuple,
             tol: Tolerances = DEFAULT_TOL) -> CommutingTuple:
    """Conjugate a diagonal traceless unit tuple by a unitary matrix.

    The output lies in the unit-norm commuting traceless tuples; right
    multiplication of g by diagonal unitaries, or by permutation matrices
    matched with the same permutation of the diagonals, does not change it.
    """
    g = np.asarray(g, dtype=complex)
    check_structure("unitary", g, tol)
    _check_diagonal_unit(x, tol)
    if g.shape[0] != x.s:
        raise ShapeMismatch("flag frame and coordinates disagree in size")
    mats = g @ x.mats @ g.conj().T
    mats = 0.5 * (mats - np.conj(mats.swapaxes(1, 2)))
    return CommutingTuple("skew_hermitian", mats)


def canonical_flag_class(g: np.ndarray, x: CommutingTuple,
                         tol: Tolerances = DEFAULT_TOL):
    """Canonical representative of a flag-map preimage class.

    Columns are sorted by the lexicographic order of their diagonal value
    tuples (imaginary parts) and phase-normalized, collapsing the diagonal
    torus and the permutation twist.
    """
    diags = x.mats.diagonal(axis1=1, axis2=2)
    order = sorted(range(x.s), key=lambda c: tuple(diags[:, c].imag))
    g_sorted = np.asarray(g, dtype=complex)[:, order]
    mats = diags[:, order, None] * identity(x.s)
    return phase_normalize(g_sorted, tol), CommutingTuple("skew_hermitian", mats)


def flag_map_preimage(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL,
                      spectrum: JointSpectrum | None = None):
    """Canonical preimage of a unit tuple under the flag map.

    Requires the joint spectrum to be simple (all eigenblocks of dimension
    one); joint diagonalization supplies the frame and the diagonals, and
    canonicalization picks the representative of the preimage class.
    """
    spectrum = checked_spectrum(t, tol, spectrum)
    if decomposition_type(t, tol, spectrum).k != t.s:
        raise ValueError("flag preimage needs a simple joint spectrum")
    g = np.hstack([b.frame for b in spectrum.blocks])
    diags = np.array([b.values for b in spectrum.blocks]).T[:, :, None] * identity(t.s)
    # project the recovered diagonals back onto the imaginary axis
    diags = 0.5 * (diags - np.conj(diags.swapaxes(1, 2)))
    x = CommutingTuple("skew_hermitian", diags)
    return canonical_flag_class(g, x, tol)
