"""Real variant: commuting real symmetric tuples, special-orthogonal joint
diagonalization, the real Cayley transform, and real stratum charts.

A real symmetric X maps to the unitary (iX - Id)(iX + Id)^{-1}, which is
complex symmetric; conversely a commuting tuple of symmetric unitaries whose
joint eigenspaces are complexified real subspaces charts down to a commuting
real symmetric tuple together with a real isometric frame.

Every piece is the complex one of `rankstrata` applied to iX, plus a
realness step: real_cayley(X) = cayley(iX), and the real chart is -i times
the complex chart in a real frame of F, checked to be real as a whole stack.
real_stratum_chart takes an optional commodel.JointSpectrum of t at tol, as
subquotient_chart does, and refuses one of another tuple or tolerances.
A block is real when the imaginary part of its projection P is at most
eps_struct; its real frame is then the top eigenvectors of Re P.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .commodel import (CommutingTuple, JointSpectrum, checked_spectrum, joint_diagonalize,
                       require_kind)
from .errors import NotRealizable
from .numkit import DEFAULT_TOL, Tolerances, check_structure, fro, unitary_defect
from .rankstrata import (
    SubquotientChart,
    cayley,
    cayley_solve,
    reassemble_trace,
    reconstruct_chart,
    subquotient_chart,
    trace_split,
)


@dataclass
class RealSplit:
    """Traceless part and scalar part of a real symmetric tuple."""

    traceless: CommutingTuple
    tau: np.ndarray


def _real_part(z: np.ndarray) -> np.ndarray:
    """Re z; NotRealizable when |Im z|_F > 1e-8 max(1, |z|_F), over all of z."""
    if fro(z.imag) > 1e-8 * max(1.0, fro(z)):
        raise NotRealizable(f"inverse transform is not real (|Im| = {fro(z.imag):.3e})")
    return z.real


def real_cayley(x: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Cayley transform of i times a real symmetric matrix.

    The image is unitary, complex symmetric (A^T = A), and A - Id is
    non-singular; conjugation by real orthogonal matrices commutes with the
    transform.  Raises NotSymmetric when X fails the check at tol.eps_struct.
    """
    check_structure("real_symmetric", x, tol)
    return cayley(1j * np.asarray(x, dtype=complex), tol)


def real_cayley_inv(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse of real_cayley.  Input must be unitary complex symmetric with
    A - Id non-singular; output is real symmetric.  Raises as cayley_solve,
    and NotRealizable when the solve is not real."""
    # the realness check reads the raw solve: symmetrizing first would hide
    # a complex symmetric result
    x = _real_part(-1j * cayley_solve(a, tol))
    return 0.5 * (x + x.T)


def joint_diagonalize_real(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL) -> JointSpectrum:
    """Joint diagonalization of a commuting real symmetric tuple by a
    special orthogonal matrix: joint_diagonalize's spectrum with its Q.

    det(Q) is corrected to +1 by flipping the sign of the last column; this
    constructively realizes every commuting symmetric tuple as a rotation of
    a diagonal one.
    """
    require_kind(t, "real_symmetric")
    spectrum = joint_diagonalize(t, tol)
    q = spectrum.Q.copy()
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return replace(spectrum, Q=q)


def real_trace_split(t: CommutingTuple) -> RealSplit:
    """Split off the scalar part: X_i = traceless_i + tau_i Id, tau real."""
    require_kind(t, "real_symmetric")
    bar, tau = trace_split(CommutingTuple("skew_hermitian", 1j * t.mats))
    return RealSplit(CommutingTuple("real_symmetric", bar.mats.imag), tau)


def reassemble_real_split(split: RealSplit) -> CommutingTuple:
    ix = CommutingTuple("skew_hermitian", 1j * split.traceless.mats)
    return CommutingTuple("real_symmetric", reassemble_trace(ix, split.tau).mats.imag)


def real_stratum_chart(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL,
                       spectrum: JointSpectrum | None = None) -> SubquotientChart:
    """Chart of a commuting tuple of symmetric unitaries.

    Each joint eigenblock must be the complexification of a real subspace
    (NotRealizable otherwise); the concatenated real frames span F, and -i
    times the complex chart in that frame must be real (NotRealizable
    otherwise).  The frame is determined up to O(s).
    The F blocks and their order are those of the complex chart.
    """
    require_kind(t, "unitary")
    spectrum, frames = checked_spectrum(t, tol, spectrum), []
    for b in [b for b in spectrum.blocks if b.in_F]:
        proj = b.frame @ b.frame.conj().T
        if fro(proj.imag) > tol.eps_struct:
            raise NotRealizable(
                f"eigenspace is not conjugation-stable (|Im P| = {fro(proj.imag):.3e})"
            )
        # with |Im P| <= eps_struct, Re P is a real rank-k projection to
        # eps_struct, and its top k eigenvectors are a real frame of the block
        frames.append(np.linalg.eigh(proj.real)[1][:, -b.frame.shape[1]:])
    f = np.hstack(frames) if frames else np.zeros((t.s, 0))
    x = CommutingTuple("real_symmetric",
                       _real_part(-1j * subquotient_chart(t, tol, f, spectrum).X.mats))
    split = real_trace_split(x)
    return SubquotientChart(f.shape[1], x, f, split.traceless, split.tau)


def reconstruct_real_chart(chart: SubquotientChart, ambient_dim: int,
                           tol: Tolerances = DEFAULT_TOL) -> CommutingTuple:
    """Rebuild the canonical symmetric unitary tuple from a real chart: the
    complex reconstruction of iX, since real_cayley(X) = cayley(iX)."""
    ix = CommutingTuple("skew_hermitian", 1j * chart.X.mats)
    return reconstruct_chart(replace(chart, X=ix), ambient_dim, tol)


def is_symmetric_unitary(a: np.ndarray) -> bool:
    """Membership test for the symmetric unitaries: both defects within 1e-9
    relative."""
    a = np.asarray(a)
    bound = 1e-9 * max(1.0, fro(a))
    return fro(a - a.T) <= bound and unitary_defect(a) <= bound
