"""Rank stratification: Cayley charts, trace splitting, stabilization,
and the Kronecker pairing.

The Cayley transform X -> (X - Id)(X + Id)^{-1} carries skew-Hermitian
matrices bijectively onto the unitaries without eigenvalue 1.  Conjugating a
unitary tuple onto its distinguished subspace F and pulling back along the
transform yields the chart (X, f) of the open stratum of exact rank s: X a
commuting skew-Hermitian tuple of size s, f an isometric frame spanning F.

The chart is built from the eigenblocks of one joint diagonalization
(`chart_from_blocks`).  The real chart of `realk` is this chart plus a
realness step: it reuses the restriction to F, the guarded inverse solve,
the trace split and the reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commodel import (
    CommutingTuple,
    EigenBlock,
    F_frame,
    F_subspace,
    extend_by_identity,
    joint_diagonalize,
)
from .errors import ShapeMismatch, SingularAtOne, WrongStratum
from .numkit import (
    DEFAULT_TOL,
    Tolerances,
    check_skew_hermitian,
    fro,
    require_square,
)


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
    s = require_square(x)
    check_skew_hermitian(x, tol)
    eye = np.eye(s)
    # factors commute, so the one-sided solve computes the two-sided product
    return np.linalg.solve(np.asarray(x, dtype=complex) + eye, np.asarray(x, dtype=complex) - eye)


def cayley_solve(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """(Id - A)^{-1}(Id + A), the solve shared by both inverse transforms.

    Requires the smallest singular value of A - Id to exceed eps_struct;
    raises SingularAtOne otherwise.
    """
    s = require_square(a)
    a = np.asarray(a, dtype=complex)
    eye = np.eye(s)
    sv = np.linalg.svd(a - eye, compute_uv=False)
    if s and sv[-1] <= tol.eps_struct:
        raise SingularAtOne(f"A - Id has smallest singular value {sv[-1]:.3e}")
    return np.linalg.solve(eye - a, eye + a)


def cayley_inv(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse Cayley transform (Id - A)^{-1}(Id + A).

    Requires the smallest singular value of A - Id to exceed eps_struct;
    raises SingularAtOne otherwise.  The result is skew-Hermitized to kill
    roundoff in the Hermitian direction.
    """
    x = cayley_solve(a, tol)
    return 0.5 * (x - x.conj().T)


def stratum_rank(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL) -> int:
    """Dimension of the distinguished subspace F of a unitary tuple."""
    return F_subspace(t, tol).shape[1]


def invert_on_frame(t: CommutingTuple, f: np.ndarray, inverse,
                    tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Stack of inverse(f^H A f, tol) over the components A of t.

    A component singular at 1 on the span of f means that clustering and
    the chart disagree at working tolerance: WrongStratum.
    """
    try:
        xs = [inverse(f.conj().T @ a @ f, tol) for a in t.mats]
    except SingularAtOne as exc:
        raise WrongStratum(
            "a component is singular at 1 on F; tolerance breach between "
            "clustering and the chart"
        ) from exc
    return np.array(xs).reshape(t.n, f.shape[1], f.shape[1])


def chart_from_blocks(t: CommutingTuple, blocks: list[EigenBlock],
                      tol: Tolerances = DEFAULT_TOL,
                      frame: np.ndarray | None = None) -> SubquotientChart:
    """subquotient_chart of a unitary tuple from the eigenblocks that
    joint_diagonalize returned for it."""
    f = F_frame(t, blocks, tol)
    s = f.shape[1]
    if frame is not None:
        frame = np.asarray(frame, dtype=complex)
        if frame.shape != (t.s, s):
            raise ShapeMismatch(f"frame must be {(t.s, s)}, got {frame.shape}")
        if fro(frame @ frame.conj().T - f @ f.conj().T) > 1e-8:
            raise WrongStratum("supplied frame does not span F")
        f = frame
    x = CommutingTuple("skew_hermitian", invert_on_frame(t, f, cayley_inv, tol))
    traceless, tau = trace_split(x)
    return SubquotientChart(s, x, f, traceless, tau)


def subquotient_chart(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL,
                      frame: np.ndarray | None = None) -> SubquotientChart:
    """Chart of a unitary tuple in the open stratum of its exact rank.

    The frame defaults to the joint eigenblock frames of F sorted by their
    leading coordinate; passing a frame spanning F exposes the documented
    U(s)-conjugation ambiguity.  Raises WrongStratum when some component
    minus the identity is singular on F at working tolerance.
    """
    if t.kind != "unitary":
        raise ValueError("charts are defined for unitary tuples")
    _, blocks = joint_diagonalize(t, tol)
    return chart_from_blocks(t, blocks, tol, frame)


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
    if x.kind != "skew_hermitian":
        raise ValueError("trace_split expects a skew-Hermitian tuple")
    s = x.s
    # an empty trace is 0, so a 0 x 0 tuple has tau = 0
    tau = np.trace(x.mats, axis1=1, axis2=2).imag / max(s, 1)
    bar = x.mats - 1j * tau[:, None, None] * np.eye(s)
    return CommutingTuple("skew_hermitian", bar), tau


def reassemble_trace(traceless: CommutingTuple, tau: np.ndarray) -> CommutingTuple:
    mats = traceless.mats + 1j * np.asarray(tau)[:, None, None] * np.eye(traceless.s)
    return CommutingTuple("skew_hermitian", mats)


def stabilize(x: CommutingTuple, m: int) -> CommutingTuple:
    """Append m zero components; the composition law
    stabilize(stabilize(x, a), b) = stabilize(x, a + b) holds on the nose."""
    if x.kind != "skew_hermitian":
        raise ValueError("stabilize expects a skew-Hermitian tuple")
    if m < 0:
        raise ValueError("cannot remove components")
    zeros = np.zeros((m, x.s, x.s), dtype=complex)
    return CommutingTuple("skew_hermitian", np.concatenate([x.mats, zeros]), x.ambient)


def pairing_chart(x: CommutingTuple, y: CommutingTuple) -> CommutingTuple:
    """Kronecker pairing of skew-Hermitian tuples:
    (X_1 (x) Id, ..., X_n (x) Id, Id (x) Y_1, ..., Id (x) Y_m)."""
    if x.kind != "skew_hermitian" or y.kind != "skew_hermitian":
        raise ValueError("pairing expects skew-Hermitian tuples")
    # stacked kron with a (1, r, r) identity acts slice by slice
    return CommutingTuple("skew_hermitian", np.concatenate([
        np.kron(x.mats, np.eye(y.s)[None]),
        np.kron(np.eye(x.s)[None], y.mats),
    ]))
