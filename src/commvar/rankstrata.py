"""Rank stratification: Cayley charts, trace splitting, stabilization,
and the Kronecker pairing.

The Cayley transform X -> (X - Id)(X + Id)^{-1} carries skew-Hermitian
matrices bijectively onto the unitaries without eigenvalue 1.  Conjugating a
unitary tuple onto its distinguished subspace F and pulling back along the
transform yields the chart (X, f) of the open stratum of exact rank s: X a
commuting skew-Hermitian tuple of size s, f an isometric frame spanning F.

The chart is read off one commodel.JointSpectrum, an optional `spectrum` of
subquotient_chart (of t at tol, else ValueError), so a caller holding one
diagonalizes once.  The columns of the F frame are joint eigenvectors, so X
is diagonal in that frame, the inverse transform of the Rayleigh quotients.
For a tuple that commutes only to working tolerance this is the chart of its
clustered tuple: the off-diagonal joint residual is dropped.  The real chart
of `realk` is this chart in a real frame of F, plus a realness check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commodel import (
    CommutingTuple,
    F_subspace,
    JointSpectrum,
    extend_by_identity,
    kron_pair,
    require_kind,
)
from .errors import ShapeMismatch, SingularAtOne, WrongStratum
from .numkit import DEFAULT_TOL, Tolerances, check_structure, fro, identity


@dataclass
class SubquotientChart:
    """Chart data of a stratum element.

    s          stratum rank (dimension of F)
    X          commuting skew-Hermitian tuple of size s
    f          isometric frame of s columns spanning F in the ambient space
    traceless  X with the scalar part removed
    tau        imaginary parts of tr(X_i)/s, one real number per component
    """

    s: int
    X: CommutingTuple
    f: np.ndarray
    traceless: CommutingTuple
    tau: np.ndarray


def cayley(x: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Cayley transform of a skew-Hermitian matrix: (X - Id)(X + Id)^{-1}.

    The output is unitary and its distance from the identity is invertible;
    the transform is equivariant under unitary conjugation.  Raises
    NotSkewHermitian when X fails the check at tol.eps_struct.
    """
    check_structure("skew_hermitian", x, tol)
    x = np.asarray(x, dtype=complex)
    eye = identity(len(x))
    # factors commute, so the one-sided solve computes the two-sided product
    return np.linalg.solve(x + eye, x - eye)


def cayley_solve(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """(Id - A)^{-1}(Id + A), the solve shared by both inverse transforms.

    A must pass check_structure("unitary") (InvalidTuple, NotUnitary), and
    the smallest singular value of A - Id must exceed eps_struct (else
    SingularAtOne).
    """
    a = np.asarray(a, dtype=complex)
    check_structure("unitary", a, tol)
    eye = identity(len(a))
    sv = np.linalg.svd(a - eye, compute_uv=False)
    if sv.size and sv[-1] <= tol.eps_struct:
        raise SingularAtOne(f"A - Id has smallest singular value {sv[-1]:.3e}")
    return np.linalg.solve(eye - a, eye + a)


def cayley_inv(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse Cayley transform (Id - A)^{-1}(Id + A) of a unitary A; raises
    as cayley_solve.  The result is skew-Hermitized to kill roundoff in the
    Hermitian direction.
    """
    x = cayley_solve(a, tol)
    return 0.5 * (x - x.conj().T)


def stratum_rank(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL) -> int:
    """Dimension of the distinguished subspace F: s for a Lie-kind tuple."""
    return F_subspace(t, tol).shape[1]


def subquotient_chart(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL,
                      frame: np.ndarray | None = None,
                      spectrum: JointSpectrum | None = None) -> SubquotientChart:
    """Chart of a unitary tuple in the open stratum of its exact rank:
    X_i = diag(i Im((1 + v)/(1 - v))) for the Rayleigh quotients
    v = diag(f^H A_i f) of the columns of the F frame.

    The frame defaults to the joint eigenblock frames of F sorted by their
    leading coordinate; passing a frame spanning F exposes the documented
    U(s)-conjugation ambiguity, and gives W^H X_i W with W = f^H frame.
    Raises WrongStratum when some component minus the identity is singular
    on F at working tolerance."""
    require_kind(t, "unitary")
    f = F_subspace(t, tol, spectrum)
    s = f.shape[1]
    v = (f.conj() * (t.mats @ f)).sum(axis=1)
    if (np.abs(v - 1) <= tol.eps_struct).any():
        raise WrongStratum("a component is singular at 1 on F; tolerance breach "
                           "between clustering and the chart")
    x = 1j * ((1 + v) / (1 - v)).imag[:, :, None] * identity(s)
    if frame is not None:
        frame = np.asarray(frame, dtype=complex)
        if frame.shape != (t.s, s):
            raise ShapeMismatch(f"frame must be {(t.s, s)}, got {frame.shape}")
        if not fro(frame @ frame.conj().T - f @ f.conj().T) <= 1e-8:
            raise WrongStratum("supplied frame does not span F")
        w = f.conj().T @ frame
        x, f = w.conj().T @ x @ w, frame
    x = CommutingTuple("skew_hermitian", x)
    traceless, tau = trace_split(x)
    return SubquotientChart(s, x, f, traceless, tau)


def reconstruct_chart(chart: SubquotientChart, ambient_dim: int,
                      tol: Tolerances = DEFAULT_TOL) -> CommutingTuple:
    """Rebuild the canonical unitary tuple from (X, f): push the Cayley
    transform of each component into the ambient space along f and extend by
    the identity."""
    if chart.f.shape[0] != ambient_dim:
        raise ShapeMismatch("frame does not match the ambient dimension")
    smalls = np.array([cayley(x, tol) for x in chart.X.mats]).reshape(chart.X.mats.shape)
    return CommutingTuple("unitary", extend_by_identity(chart.f.astype(complex), smalls))


def trace_split(x: CommutingTuple):
    """Split a skew-Hermitian tuple into traceless part and scalar part.

    Returns (traceless tuple, tau) with X_i = traceless_i + i tau_i Id and
    tau_i = Im(tr X_i)/s real.  The reassembly is exact.
    """
    require_kind(x, "skew_hermitian")
    s = x.s
    # an empty trace is 0, so a 0 x 0 tuple has tau = 0
    tau = x.mats.trace(axis1=1, axis2=2).imag / max(s, 1)
    bar = x.mats - 1j * tau[:, None, None] * identity(s)
    return CommutingTuple("skew_hermitian", bar), tau


def reassemble_trace(traceless: CommutingTuple, tau: np.ndarray) -> CommutingTuple:
    mats = traceless.mats + 1j * np.asarray(tau)[:, None, None] * identity(traceless.s)
    return CommutingTuple("skew_hermitian", mats)


def stabilize(x: CommutingTuple, m: int) -> CommutingTuple:
    """Append m zero components; the composition law
    stabilize(stabilize(x, a), b) = stabilize(x, a + b) holds on the nose."""
    require_kind(x, "skew_hermitian")
    if m < 0:
        raise ValueError("cannot remove components")
    zeros = np.zeros((m, x.s, x.s), dtype=complex)
    return CommutingTuple("skew_hermitian", np.concatenate([x.mats, zeros]))


def pairing_chart(x: CommutingTuple, y: CommutingTuple) -> CommutingTuple:
    """Kronecker pairing of skew-Hermitian tuples:
    (X_1 (x) Id, ..., X_n (x) Id, Id (x) Y_1, ..., Id (x) Y_m)."""
    require_kind(x, "skew_hermitian")
    require_kind(y, "skew_hermitian")
    return CommutingTuple("skew_hermitian", kron_pair(x.mats, y.mats))
