"""Commuting matrix tuples and their equivalence with labeled configurations.

A commuting tuple is a list of pairwise commuting square matrices, flagged as
unitary, skew-Hermitian, or real symmetric.  Joint diagonalization
(numkit.joint_diagonalizer) yields the unique coarsest orthogonal decomposition
on whose summands every matrix acts by a scalar.  For a unitary tuple the
eigenvectors with no joint value within eps_base of 1 span the distinguished
subspace F on which every component minus the identity is non-singular;
joint_diagonalize decides this once per eigenvector and marks each block in
or off F.  A skew-Hermitian or real symmetric tuple never reaches the point
at infinity, which the Cayley transforms send to 1, so its F is the whole
space.  Reading eigenblocks as labels (frame, value tuple) converts a
unitary tuple into a configuration and back.  Each function that
diagonalizes its tuple takes an optional JointSpectrum of it at the same
tolerances (ValueError otherwise), so a caller holding one diagonalizes once.
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
    identity,
    joint_diagonalizer,
    leading_rows,
    off_norm,
    phase_normalize,
)
from .symuniverse import UniverseBasis, perm_inverse, sigma_star

KINDS = ("unitary", "skew_hermitian", "real_symmetric")


@dataclass
class CommutingTuple:
    """n pairwise commuting s x s matrices of one structural kind.

    mats is stacked (n, s, s); real_symmetric tuples are stored with a real
    dtype (complex data is accepted only when every imaginary part is 0),
    the other kinds as complex.  ambient optionally records the
    universe whose coordinates the matrices act on: n components of its dim.
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
            if (mats.imag != 0).any():
                raise ValueError("real_symmetric matrices have a nonzero imaginary part")
            mats = mats.real
        self.mats = mats.astype(float if real else complex, copy=False)
        if self.mats.ndim != 3 or self.mats.shape[1] != self.mats.shape[2]:
            raise ShapeMismatch(f"expected (n, s, s) stack, got {self.mats.shape}")
        if self.ambient is not None and self.mats.shape[:2] != (self.ambient.n, self.ambient.dim):
            raise ShapeMismatch(f"stack {self.mats.shape} does not match ambient {self.ambient}")

    @property
    def n(self) -> int:
        return self.mats.shape[0]

    @property
    def s(self) -> int:
        return self.mats.shape[1]

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> list[float]:
        """Return the components' Frobenius norms, or raise an InvalidTuple
        subclass: component by component, the check_structure gate (an entry
        not finite or above MAX_ENTRY in modulus, or a component off its
        kind's structure), then a commutator defect above eps_struct."""
        norms = [check_structure(self.kind, m, tol) for m in self.mats]
        defect = commutator_defect(self.mats)
        if not defect <= tol.eps_struct:
            raise NotCommuting(f"commutator defect {defect:.3e}")
        return norms


def require_kind(t: CommutingTuple, *kinds: str):
    """Raise ValueError unless t is of one of the given kinds."""
    if t.kind not in kinds:
        raise ValueError(f"expected a {' or '.join(kinds)} tuple, got {t.kind}")


def identity_tuple(n: int, s: int, ambient: UniverseBasis | None = None) -> CommutingTuple:
    return CommutingTuple("unitary", np.broadcast_to(identity(s), (n, s, s)).copy(), ambient)


@dataclass
class EigenBlock:
    """Simultaneous eigenspace with its tuple of eigenvalues, and whether it
    lies in F: for a unitary tuple, none of its columns has a joint value
    within eps_base of 1; every block of a Lie-kind tuple lies in F."""

    frame: np.ndarray
    values: np.ndarray
    in_F: bool


@dataclass(frozen=True, eq=False)
class JointSpectrum:
    """Q and the eigenblocks, in chart order, of one joint diagonalization of
    the tuple t at the tolerances tol; it unpacks and indexes as (Q, blocks).
    A configuration's spectrum (config_spectrum) has no Q, only in-F blocks."""

    t: CommutingTuple
    tol: Tolerances
    Q: np.ndarray | None
    blocks: list[EigenBlock]

    def __getitem__(self, i):
        return (self.Q, self.blocks)[i]


def _hermitian_components(t: CommutingTuple) -> np.ndarray:
    if t.kind == "unitary":
        # Hermitian and skew part of each component, interleaved
        h = np.conj(t.mats.swapaxes(1, 2))
        return np.stack([0.5 * (t.mats + h), (t.mats - h) / 2j], axis=1).reshape(2 * t.n, t.s, t.s)
    if t.kind == "skew_hermitian":
        return -1j * t.mats
    return t.mats.copy()


def joint_diagonalize(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL) -> JointSpectrum:
    """Simultaneously diagonalize a commuting tuple.

    Returns JointSpectrum(t, tol, Q, blocks): Q unitary (orthogonal for
    real tuples) with Q^H A_j Q diagonal up to a joint residual of
    1e-8 max_j ||A_j||_F, and the coarsest eigenblock decomposition from
    single-linkage clustering of the joint eigenvalue tuples at eps_cluster,
    in chart order (leading frame coordinate, then value tuple).  For a
    unitary tuple only columns on one side of the cut at eps_base from 1
    link, so each block is in or off F as a whole, and two in-F columns
    whose phases in one coordinate have opposite signs in the right
    half-plane do not link, so no in-F block straddles 1 and its mean stays
    off it.  A block's frame is its columns of phase_normalize(Q): Q is
    unitary by construction (LAPACK eigenvectors times Cayley transforms and
    plane rotations), so the frames are orthonormal without a Gram-Schmidt pass.

    After the residual check the blocks are built in one pass:
    _group_reduce gives each group's mean, leading row and F flag, with a
    per-group np.mean only for a group of 8 floats or more, and one gather
    of the columns in block order gives every frame, each a C-contiguous
    (s, w) array as a per-group fancy index would give it.

    The tuple is validated first (an InvalidTuple subclass on failure); a
    joint residual above its bound raises NoConvergence.
    """
    scale = max(t.validate(tol), default=0.0)
    comps = _hermitian_components(t)
    q = joint_diagonalizer(comps, off_target=1e-12 * scale)
    diag = q.conj().T @ t.mats @ q
    resid = off_norm(diag)
    if resid > 1e-8 * max(scale, 1e-300):
        raise NoConvergence(f"joint residual {resid:.3e} for tuple of size {t.s}")
    vals = diag.diagonal(axis1=1, axis2=2)
    # single linkage in the max metric; with no components every column agrees
    close = np.abs(vals[:, :, None] - vals[:, None, :]).max(axis=0, initial=0.0) < tol.eps_cluster
    near = np.zeros(t.s, dtype=bool)  # a value near 1 means nothing to the Lie kinds
    if t.kind == "unitary":
        near = near_basepoint_rows(vals.T, tol.eps_base)
        # an in-F block must not straddle 1: no coordinate of its columns
        # takes phases of both signs in the right half-plane
        side = np.where((vals.real > 0) & ~near, np.sign(vals.imag), 0.0)
        close &= (near[:, None] == near) & ~(side[:, :, None] * side[:, None] < 0).any(axis=0)
    frames = phase_normalize(q, tol)
    groups = single_linkage(close)
    means, lead, in_f = _group_reduce(vals, groups, leading_rows(frames, tol), ~near)
    order, in_f = frame_order(lead.tolist(), means).tolist(), in_f.tolist()
    # one gather puts the columns of every block side by side, in block order,
    # as rows; a frame is its rows transposed, copied only to make it C-contiguous
    rows, blocks, end = frames.T[[c for i in order for c in groups[i]]], [], 0
    for i in order:
        start, end = end, end + len(groups[i])
        blocks.append(EigenBlock(np.ascontiguousarray(rows[start:end].T), means[i], in_f[i]))
    return JointSpectrum(t, tol, q, blocks)


def checked_spectrum(t: CommutingTuple, tol: Tolerances, spectrum) -> JointSpectrum:
    """spectrum, or joint_diagonalize(t, tol) when it is None; ValueError when
    it is of another tuple object or was taken at other tolerances."""
    if spectrum is None:
        return joint_diagonalize(t, tol)
    if spectrum.t is not t:
        raise ValueError("spectrum is of another tuple")
    if spectrum.tol != tol:
        raise ValueError(f"spectrum was taken at {spectrum.tol}, not at {tol}")
    return spectrum


def _group_reduce(vals: np.ndarray, groups: list[list[int]], lead: np.ndarray,
                  in_f: np.ndarray):
    """Per group, as single_linkage lists them: vals[:, cols].mean(axis=1)
    bit for bit, min(lead[cols]) and all(in_f[cols]).  np.mean adds fewer
    than 8 floats (8 real values, 4 complex) to +0.0 left to right, then
    divides by the count, which for one value is exact: a sum begun at +0.0
    holds no -0.0.  So one value's mean is 0 + v, and reduceat over the
    columns in group order with a zero row put before each group sums as
    np.mean does.  Larger groups keep np.mean."""
    n, s = vals.shape
    if len(groups) == s:  # every column its own group
        return np.add(vals.T, 0.0, order="C"), lead, in_f
    sizes, g = np.array([len(cols) for cols in groups]), len(groups)
    members, starts = np.concatenate(groups), np.cumsum(sizes) - sizes
    padded = np.zeros((s + g, n), vals.dtype)
    padded[np.arange(s) + np.repeat(np.arange(1, g + 1), sizes)] = vals.T[members]
    means = np.add.reduceat(padded, starts + np.arange(g), axis=0) / sizes[:, None]
    for i in np.flatnonzero(sizes >= (4 if vals.dtype.kind == "c" else 8)).tolist():
        means[i] = vals[:, groups[i]].mean(axis=1)
    return (means, np.minimum.reduceat(lead[members], starts),
            np.logical_and.reduceat(in_f[members], starts))


def F_subspace(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL,
               spectrum: JointSpectrum | None = None) -> np.ndarray:
    """Frame spanning the largest subspace on which every A_i - Id of a
    unitary tuple is non-singular, the whole space when n = 0 or t is of a
    Lie kind: the frames of the in_F blocks side by side, in block order."""
    frames = [b.frame for b in checked_spectrum(t, tol, spectrum).blocks if b.in_F]
    return np.hstack(frames) if frames else np.zeros((t.s, 0), dtype=t.mats.dtype)


def extend_by_identity(g: np.ndarray, smalls: np.ndarray) -> np.ndarray:
    """Stack of g X g^H + (Id - g g^H) over the stack smalls: each X acts on
    the span of the isometric frame g, the identity on its complement."""
    gh = g.conj().T
    return g @ smalls @ gh + (identity(g.shape[0], complex) - g @ gh)


def kron_pair(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The stack X_1 (x) Id, ..., X_n (x) Id, Id (x) Y_1, ..., Id (x) Y_m of
    two stacks of square matrices."""
    (n, p, _), (m, r, _) = xs.shape, ys.shape
    # the broadcast products that np.kron takes, in its operand order
    left = xs[:, :, None, :, None] * identity(r)[:, None, :]
    right = identity(p)[:, None, :, None] * ys[:, None, :, None]
    return np.concatenate([left.reshape(n, p * r, p * r), right.reshape(m, p * r, p * r)])


def canonical_rep(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL,
                  spectrum: JointSpectrum | None = None) -> CommutingTuple:
    """Canonical representative of the equivalence class of a unitary tuple:
    each component restricted to F and extended by the identity."""
    require_kind(t, "unitary")
    f = F_subspace(t, tol, spectrum)
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


def config_to_commuting(c: Configuration) -> CommutingTuple:
    """Unitary tuple acting on the universe of a canonical configuration:
    component j scales each label subspace by the j-th point coordinate and
    fixes the orthogonal complement; a point not of length n raises ValueError."""
    t = identity_tuple(c.universe.n, c.universe.dim, c.universe)
    for lab in c.labels:
        if lab.point.is_basepoint:
            continue
        proj = lab.frame @ lab.frame.conj().T
        t.mats += (lab.point.coords - 1.0).reshape(c.universe.n, 1, 1) * proj
    return t


def config_spectrum(c: Configuration, tol: Tolerances = DEFAULT_TOL) -> JointSpectrum:
    """The spectrum of config_to_commuting(c), bound to that tuple, for a
    canonical c, read off its labels instead of diagonalizing: one in-F block
    per label, with the label's phase-normalized frame and its point, in the
    chart order canonicalize already gives.  It has no Q and no off-F blocks."""
    return JointSpectrum(config_to_commuting(c), tol, None, [
        EigenBlock(phase_normalize(lab.frame, tol), lab.point.coords, True) for lab in c.labels])


def commuting_to_config(t: CommutingTuple, tol: Tolerances = DEFAULT_TOL,
                        spectrum: JointSpectrum | None = None) -> Configuration:
    """Inverse direction: eigenblocks whose value tuple avoids 1 become
    labels; blocks touching 1 are the basepoint part and disappear."""
    if t.ambient is None:
        raise ValueError("tuple needs an ambient universe to become a configuration")
    require_kind(t, "unitary")
    labels = [Label(b.frame, SpherePoint(b.values))
              for b in checked_spectrum(t, tol, spectrum).blocks if b.in_F]
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
    perm, mats = sigma_star(sigma, t.ambient), np.empty_like(t.mats)
    mats[:, perm[:, None], perm] = t.mats[perm_inverse(sigma)]
    return CommutingTuple(t.kind, mats, t.ambient)
