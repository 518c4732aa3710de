"""Commuting matrix tuples and their equivalence with labeled configurations.

A commuting tuple is a list of pairwise commuting square matrices, flagged as
unitary, skew-Hermitian, or real symmetric.  Joint diagonalization
(numkit.joint_diagonalizer) yields the unique coarsest orthogonal decomposition
on whose summands every matrix acts by a scalar; the eigenblocks with no
value equal to 1 assemble the distinguished subspace F on which every
component minus the identity is non-singular.  Reading eigenblocks as labels
(frame, value tuple) converts a unitary tuple into a configuration and back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotCommuting, ShapeMismatch
from .gammaconf import (
    Configuration,
    Label,
    SpherePoint,
    canonicalize,
    frame_order,
    near_basepoint_rows,
    single_linkage,
)
from .numkit import (
    DEFAULT_TOL,
    MAX_ENTRY,
    Tolerances,
    check_structure,
    commutator_defect,
    fro,
    joint_diagonalizer,
    leading_indices,
    phase_normalize,
    stack_off_norm,
)
from .symuniverse import UniverseBasis, conjugate_by_perm, perm_inverse, sigma_star

KINDS = ("unitary", "skew_hermitian", "real_symmetric")


@dataclass
class CommutingTuple:
    """n pairwise commuting s x s matrices of one structural kind.

    mats is stacked (n, s, s); real_symmetric tuples are stored with a real
    dtype (complex data is accepted only when every imaginary part is 0),
    the other kinds as complex.  ambient optionally records the
    universe whose coordinates the matrices act on.
    """

    kind: str
    mats: np.ndarray
    ambient: UniverseBasis | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        real = self.kind == "real_symmetric"
        mats = np.asarray(self.mats)
        if real and np.iscomplexobj(mats):
            if np.any(mats.imag != 0):
                raise ValueError("real_symmetric matrices have a nonzero imaginary part")
            mats = mats.real
        self.mats = np.asarray(mats, dtype=float if real else complex)
        if self.mats.ndim != 3 or self.mats.shape[1] != self.mats.shape[2]:
            raise ShapeMismatch(f"expected (n, s, s) stack, got {self.mats.shape}")

    @property
    def n(self) -> int:
        return self.mats.shape[0]

    @property
    def s(self) -> int:
        return self.mats.shape[1]

    def validate(self, tol: Tolerances = DEFAULT_TOL):
        """Return self, or raise an InvalidTuple subclass: component by
        component, the check_structure gate (an entry not finite or above
        MAX_ENTRY in modulus, or a component off its kind's structure), then
        a commutator defect above eps_struct."""
        for m in self.mats:
            check_structure(self.kind, m, tol)
        defect = commutator_defect(self.mats)
        if not defect <= tol.eps_struct:
            raise NotCommuting(f"commutator defect {defect:.3e}")
        return self


def require_kind(t: CommutingTuple, *kinds: str):
    """Raise ValueError unless t is of one of the given kinds."""
    if t.kind not in kinds:
        raise ValueError(f"expected a {' or '.join(kinds)} tuple, got {t.kind}")


def identity_tuple(n: int, s: int, ambient: UniverseBasis | None = None) -> CommutingTuple:
    return CommutingTuple("unitary", np.broadcast_to(np.eye(s), (n, s, s)).copy(), ambient)


@dataclass
class EigenBlock:
    """Simultaneous eigenspace with its tuple of eigenvalues."""

    frame: np.ndarray
    values: np.ndarray


def _hermitian_components(t: CommutingTuple) -> np.ndarray:
    if t.kind == "unitary":
        # Hermitian and skew part of each component, interleaved
        h = np.conj(np.swapaxes(t.mats, 1, 2))
        return np.stack([0.5 * (t.mats + h), (t.mats - h) / 2j], axis=1).reshape(2 * t.n, t.s, t.s)
    if t.kind == "skew_hermitian":
        return -1j * t.mats
    return t.mats.copy()


def joint_diagonalize(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL):
    """Simultaneously diagonalize a commuting tuple.

    Returns (Q, blocks): Q unitary (orthogonal for real tuples) with
    Q^H A_j Q diagonal up to a joint residual of 1e-8 max_j ||A_j||_F, and
    the coarsest eigenblock decomposition obtained by single-linkage
    clustering of the joint eigenvalue tuples at eps_cluster.  Blocks are
    sorted by their value tuples.  A block's frame is its columns of
    phase_normalize(Q): Q is unitary by construction (LAPACK eigenvectors
    times plane rotations), so the frames are orthonormal without a
    further Gram-Schmidt pass.

    The tuple is validated first (an InvalidTuple subclass on failure); a
    joint residual above its bound raises NoConvergence.
    """
    t.validate(tol)
    comps = _hermitian_components(t)
    scale = max((fro(a) for a in t.mats), default=0.0)
    q = joint_diagonalizer(comps, off_target=1e-12 * scale)
    diag = q.conj().T @ t.mats @ q
    resid = stack_off_norm(diag)
    if resid > 1e-8 * max(scale, 1e-300):
        raise NoConvergence(f"joint residual {resid:.3e} for tuple of size {t.s}")
    vals = np.diagonal(diag, axis1=1, axis2=2)
    # single linkage in the max metric; with no components every column agrees
    close = np.max(np.abs(vals[:, :, None] - vals[:, None, :]), axis=0,
                   initial=0.0) < tol.eps_cluster
    frames = phase_normalize(q, tol)
    groups = single_linkage(close)
    means = np.array([vals[:, cols].mean(axis=1) for cols in groups]).reshape(len(groups), t.n)
    order = frame_order(np.zeros(len(groups), int), means)
    return q, [EigenBlock(frames[:, groups[i]], means[i]) for i in order]


def F_blocks(blocks: list[EigenBlock], tol: Tolerances = DEFAULT_TOL) -> list[EigenBlock]:
    """The eigenblocks (as joint_diagonalize returns them) that span the
    distinguished subspace F, in chart order.

    A block belongs to F when its value tuple, read as a sphere point, is
    not near the basepoint: no coordinate lies within eps_base of 1.  For an
    empty tuple (n = 0) the condition is vacuous and F is the whole space.
    Chart order sorts by the leading coordinate of the frame, then by the
    value tuple, as configuration labels are sorted.
    """
    values = np.array([b.values for b in blocks] or np.zeros((0, 0)))
    keep = np.flatnonzero(~near_basepoint_rows(values, tol.eps_base))
    order = frame_order(leading_indices([blocks[i].frame for i in keep], tol), values[keep])
    return [blocks[keep[i]] for i in order]


def F_frame(t: CommutingTuple, blocks: list[EigenBlock],
            tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Isometric frame of F from the eigenblocks of t: the frames of
    F_blocks side by side."""
    frames = [b.frame for b in F_blocks(blocks, tol)]
    return np.hstack(frames) if frames else np.zeros((t.s, 0), dtype=t.mats.dtype)


def F_subspace(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Frame spanning the largest subspace on which every A_i - Id is
    non-singular: the sum of the eigenblocks whose value tuple stays away
    from 1 in every coordinate (threshold eps_base), the whole space when
    n = 0."""
    _, blocks = joint_diagonalize(t, tol)
    return F_frame(t, blocks, tol)


def extend_by_identity(g: np.ndarray, smalls: np.ndarray) -> np.ndarray:
    """Stack of g X g^H + (Id - g g^H) over the stack smalls: each X acts on
    the span of the isometric frame g, the identity on its complement."""
    gh = g.conj().T
    return g @ smalls @ gh + (np.eye(g.shape[0], dtype=complex) - g @ gh)


def kron_pair(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The stack X_1 (x) Id, ..., X_n (x) Id, Id (x) Y_1, ..., Id (x) Y_m of
    two stacks of square matrices."""
    # stacked kron with a (1, r, r) identity acts slice by slice
    return np.concatenate([np.kron(xs, np.eye(ys.shape[-1])[None]),
                           np.kron(np.eye(xs.shape[-1])[None], ys)])


def canonical_rep(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL) -> CommutingTuple:
    """Canonical representative of the equivalence class of a unitary tuple:
    each component restricted to F and extended by the identity."""
    return rep_from_blocks(t, joint_diagonalize(t, tol)[1], tol)


def rep_from_blocks(t: CommutingTuple, blocks: list[EigenBlock],
                    tol: Tolerances = DEFAULT_TOL) -> CommutingTuple:
    """canonical_rep of a unitary tuple from its eigenblocks."""
    f = F_frame(t, blocks, tol)
    return CommutingTuple("unitary", extend_by_identity(f, f.conj().T @ t.mats @ f), t.ambient)


def class_distance(t1: CommutingTuple, t2: CommutingTuple,
                   tol: Tolerances = DEFAULT_TOL) -> float:
    """Distance between equivalence classes via canonical representatives."""
    return rep_distance(canonical_rep(t1, tol), canonical_rep(t2, tol))


def rep_distance(a: CommutingTuple, b: CommutingTuple) -> float:
    """Largest component distance of two tuples on one space; class_distance
    of two canonical representatives."""
    if a.mats.shape != b.mats.shape:
        raise ShapeMismatch("tuples live on different spaces")
    return max((fro(x - y) for x, y in zip(a.mats, b.mats)), default=0.0)


def tuples_equivalent(t1: CommutingTuple, t2: CommutingTuple,
                      tol: Tolerances = DEFAULT_TOL) -> bool:
    """Two unitary tuples are equivalent iff their canonical representatives
    agree within eps_struct."""
    return class_distance(t1, t2, tol) <= tol.eps_struct


def config_to_commuting(c: Configuration) -> CommutingTuple:
    """Unitary tuple acting on the universe of a canonical configuration:
    component j scales each label subspace by the j-th point coordinate and
    fixes the orthogonal complement."""
    t = identity_tuple(c.universe.n, c.universe.dim, c.universe)
    for lab in c.labels:
        if lab.point.is_basepoint:
            continue
        proj = lab.frame @ lab.frame.conj().T
        for j in range(c.universe.n):
            t.mats[j] += (lab.point.coords[j] - 1.0) * proj
    return t


def commuting_to_config(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL) -> Configuration:
    """Inverse direction: eigenblocks whose value tuple avoids 1 become
    labels; blocks touching 1 are the basepoint part and disappear."""
    if t.ambient is None:
        raise ValueError("tuple needs an ambient universe to become a configuration")
    require_kind(t, "unitary")
    return config_from_blocks(t, joint_diagonalize(t, tol)[1], tol)


def config_from_blocks(t: CommutingTuple, blocks: list[EigenBlock],
                       tol: Tolerances = DEFAULT_TOL) -> Configuration:
    """commuting_to_config of a unitary tuple with an ambient universe, from its blocks."""
    labels = [Label(b.frame, SpherePoint(b.values)) for b in F_blocks(blocks, tol)]
    return canonicalize(Configuration(t.ambient, labels), tol)


def sigma_action_tuple(sigma, t: CommutingTuple) -> CommutingTuple:
    """Permutation action on tuples over a universe: component j of the
    output is sigma_* A_{sigma^{-1}(j)} sigma_*^{-1}.

    The inverse index pairs with the coordinate convention
    (sigma . x)_j = x_{sigma^{-1}(j)} to make the action a left action that
    intertwines the configuration correspondence.
    """
    if t.ambient is None:
        raise ValueError("tuple needs an ambient universe for the permutation action")
    perm = sigma_star(sigma, t.ambient)
    inv = perm_inverse(sigma)
    mats = np.array([conjugate_by_perm(perm, t.mats[inv[j]]) for j in range(t.n)])
    return CommutingTuple(t.kind, mats, t.ambient)
