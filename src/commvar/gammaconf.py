"""Labeled configurations of sphere points with orthogonal subspace labels.

A configuration over a universe is an unordered list of labels
(frame, point): mutually orthogonal subspaces of the universe, each attached
to a point of the n-torus sphere model, where a point is a tuple of unit
complex coordinates and the basepoint is reached as soon as any coordinate
equals 1.  Canonicalization applies the standard identifications: basepoint
labels and zero-dimensional labels are dropped, coincident points are merged
by summing their labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRange, NotOrthogonal
from .numkit import DEFAULT_TOL, Tolerances, identity, leading_rows, orthonormalize
from .symuniverse import (UniverseBasis, _check_perm, apply_perm_to_coords, perm_inverse,
                          sigma_star)


class SpherePoint:
    """Point of the smash power of unit circles, or the basepoint symbol."""

    __slots__ = ("coords",)

    def __init__(self, coords=None):
        if coords is None:
            self.coords = None
        else:
            self.coords = np.asarray(coords, dtype=complex).reshape(-1)

    @property
    def is_basepoint(self) -> bool:
        return self.coords is None

    def near_basepoint(self, eps: float) -> bool:
        """True when some coordinate lies within eps of 1."""
        return self.coords is None or bool(near_basepoint_rows(self.coords[None], eps)[0])

    def __repr__(self):
        if self.coords is None:
            return "SpherePoint(basepoint)"
        return f"SpherePoint({np.round(self.coords, 6)})"


BASEPOINT = SpherePoint(None)


def near_basepoint_rows(values: np.ndarray, eps: float) -> np.ndarray:
    """Whether each row of a (k, n) coordinate array has an entry within eps of 1."""
    return (np.abs(values - 1.0) <= eps).any(axis=1)


def sphere_coord(t: float) -> complex:
    """Chart from the extended real line to the unit circle,
    t -> (it - 1) / (it + 1), with infinity -> 1."""
    if math.isinf(t):
        return complex(1.0, 0.0)
    return complex(1j * t - 1.0) / complex(1j * t + 1.0)


def smash(x: SpherePoint, y: SpherePoint) -> SpherePoint:
    """Coordinate concatenation; basepoint absorbs."""
    if x.is_basepoint or y.is_basepoint:
        return BASEPOINT
    return SpherePoint(np.concatenate([x.coords, y.coords]))


def permute_point(sigma, x: SpherePoint) -> SpherePoint:
    """(sigma . x)_j = x_{sigma^{-1}(j)}; basepoint is fixed.  A sigma that
    is not a permutation of x's coordinates raises ValueError."""
    if x.is_basepoint:
        return BASEPOINT
    return SpherePoint(x.coords[perm_inverse(_check_perm(sigma, len(x.coords)))])


@dataclass
class Label:
    frame: np.ndarray
    point: SpherePoint


@dataclass
class Configuration:
    universe: UniverseBasis
    labels: list[Label] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.labels)


def rank(c: Configuration) -> int:
    """Total dimension of the labels (the rank filtration degree)."""
    return sum(lab.frame.shape[1] for lab in c.labels)


def single_linkage(close: np.ndarray) -> list[list[int]]:
    """Single-linkage clusters of 0..count-1 under the (count, count)
    boolean closeness matrix close, of which only the entries i < j are
    read.  Members are listed in increasing order and clusters by their
    smallest member; with no close pair every item is its own cluster, and
    no union-find runs."""
    count = close.shape[0]
    rows, cols = np.nonzero(close)
    upper = rows < cols
    if not upper.any():
        return [[i] for i in range(count)]
    parent = list(range(count))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(rows[upper].tolist(), cols[upper].tolist()):
        parent[find(j)] = find(i)
    groups: dict[int, list[int]] = {}
    for i in range(count):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def frame_order(lead, values: np.ndarray) -> np.ndarray:
    """Stable order of k items by leading frame index, then by their row of the
    (k, n) value array (real, then imaginary part of each coordinate): one sort of
    (lead, re_0, im_0, ...) tuples, as a lexsort orders them (no value is a nan)."""
    rows = np.ascontiguousarray(values, dtype=complex).view(float).tolist()
    keys = [(i, *row) for i, row in zip(lead, rows)]
    return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=int)


def _label_leads(stacked: np.ndarray, widths: list[int], tol: Tolerances) -> list[int]:
    """Each label's leading row: the least leading row of its columns in the
    stacked frame, whose columns come in runs of the (positive) label widths."""
    first = iter(leading_rows(stacked, tol).tolist())
    return [min(next(first) for _ in range(w)) for w in widths]


def _check_labels(labels: list[Label], u: UniverseBasis, tol: Tolerances):
    """Raise for the first label failing a check: frame, unit coordinates, point dimension."""
    for lab in labels:
        if lab.frame.shape[0] != u.dim:
            raise NotOrthogonal(f"frame ambient dimension {lab.frame.shape[0]} "
                                f"!= universe dim {u.dim}")
        if not np.abs(np.abs(lab.point.coords) - 1.0).max(initial=0.0) <= tol.eps_struct:
            raise ValueError("sphere point coordinates must be unit complex numbers")
        if len(lab.point.coords) != u.n:
            raise ValueError("sphere point dimension must match the universe")


def canonicalize(c: Configuration, tol: Tolerances = DEFAULT_TOL) -> Configuration:
    """Canonical form of a configuration.

    Drops basepoint and zero-dimensional labels, merges labels whose points
    agree within eps_cluster per coordinate (concatenating and
    re-orthonormalizing frames), and sorts the result deterministically; a
    label that merges with no other keeps its frame when that is isometric
    to eps_struct.  Raises NotOrthogonal when surviving labels overlap.

    One Gram matrix of the stacked frames checks every pair and isometry,
    and the same stack gives each label's leading row (per-label data are
    Python lists); a single label, or labels that neither merge nor need a
    new frame, skip the merge pass.
    """
    u = c.universe
    labels = [lab for lab in c.labels if lab.frame.shape[1] > 0 and not lab.point.is_basepoint]
    if any(len(lab.point.coords) != u.n or lab.frame.shape[0] != u.dim for lab in labels):
        # such labels cannot join the stacked arrays: check label by label
        labels = [lab for lab in labels if not lab.point.near_basepoint(tol.eps_base)]
        _check_labels(labels, u, tol)
    values = np.array([lab.point.coords for lab in labels]).reshape(len(labels), u.n)
    live = ~near_basepoint_rows(values, tol.eps_base)
    if not live.all():
        labels, values = [lab for lab, keep in zip(labels, live) if keep], values[live]
    if not np.abs(np.abs(values) - 1.0).max(initial=0.0) <= tol.eps_struct:
        _check_labels(labels, u, tol)
    if not labels:
        return Configuration(u, [])

    widths = [lab.frame.shape[1] for lab in labels]
    stacked = np.concatenate([lab.frame for lab in labels], axis=1)
    gram = stacked.conj().T @ stacked
    gram.reshape(-1)[::gram.shape[0] + 1] -= 1
    defect = np.abs(gram)
    non_isometric = [False] * len(labels)
    # orthonormal frames on mutually orthogonal labels leave nothing to locate
    if not defect.max() <= tol.eps_struct:
        owner = np.repeat(np.arange(len(labels)), widths)
        off = ~(defect <= tol.eps_struct)
        cross = off & (owner[:, None] < owner)
        if cross.any():
            i, j = min(map(tuple, owner[np.argwhere(cross)].tolist()))
            overlap = defect[np.ix_(owner == i, owner == j)].max()
            raise NotOrthogonal(f"labels {i} and {j} overlap (|<v,w>| = {overlap:.3e})")
        for i in owner[(off & (owner[:, None] == owner)).any(axis=1)].tolist():
            non_isometric[i] = True

    groups = [[0]]
    if len(labels) > 1:
        order = frame_order(_label_leads(stacked, widths, tol), values)
        labels, non_isometric = [labels[i] for i in order], [non_isometric[i] for i in order]
        values = values[order]
        groups = single_linkage(np.abs(values[:, None] - values).max(axis=2) < tol.eps_cluster)
    # only a merge or a re-orthonormalized frame can move a label
    if len(groups) == len(labels) and not any(non_isometric):
        return Configuration(u, labels)
    merged = [labels[g[0]] if len(g) == 1 and not non_isometric[g[0]] else Label(
        orthonormalize(np.hstack([labels[i].frame for i in g]), tol), labels[g[0]].point)
        for g in groups]
    lead = _label_leads(np.hstack([lab.frame for lab in merged]),
                        [lab.frame.shape[1] for lab in merged], tol)
    return Configuration(u, [merged[i] for i in frame_order(lead, values[[g[0] for g in groups]])])


def push_labels(labels: list[Label], alpha, n_targets: int, ambient_dim: int,
                tol: Tolerances = DEFAULT_TOL) -> list[Label]:
    """Indexed push of an ordered label list along a based map.

    alpha[j] in 0..n_targets assigns label j to target alpha[j]; target 0 is
    the basepoint and deletes the label.  Returns one label per target slot:
    the direct sum of the frames sent to it, with the point of the first
    contributing label of positive dimension (slots receiving nothing carry a
    zero-dimensional basepoint label).  The sum is orthonormalized unless it
    is one frame isometric to eps_struct, which is kept.  Composition of
    pushes is associative on the nose, before any canonicalization.
    """
    alpha = list(alpha)
    if len(alpha) != len(labels):
        raise IndexOutOfRange("based map length must match the label count")
    for a in alpha:
        if not (0 <= a <= n_targets):
            raise IndexOutOfRange(f"target {a} outside 0..{n_targets}")
    slots = []
    for i in range(1, n_targets + 1):
        srcs = [lab for lab, a in zip(labels, alpha) if a == i and lab.frame.shape[1] > 0]
        if not srcs:
            slots.append(Label(np.zeros((ambient_dim, 0), dtype=complex), BASEPOINT))
            continue
        frame = np.hstack([lab.frame for lab in srcs])
        if len(srcs) > 1 or not (np.abs(frame.conj().T @ frame - identity(frame.shape[1]))
                                 <= tol.eps_struct).all():
            frame = orthonormalize(frame, tol)
        slots.append(Label(frame, srcs[0].point))
    return slots


def apply_based_map(c: Configuration, alpha, n_targets: int,
                    tol: Tolerances = DEFAULT_TOL) -> Configuration:
    """Push a configuration along a based map of finite pointed sets and
    canonicalize.

    Labels sent to 0 are deleted; target i gets the direct sum of the frames
    sent to it with the first contributing label's point (callers are
    responsible for only collapsing labels with equal points).
    """
    slots = push_labels(c.labels, alpha, n_targets, c.universe.dim, tol)
    return canonicalize(Configuration(c.universe, slots), tol)


def sigma_action_config(sigma, c: Configuration,
                        tol: Tolerances = DEFAULT_TOL) -> Configuration:
    """Permutation action: frames move by the induced universe isometry,
    point coordinates by (sigma . x)_j = x_{sigma^{-1}(j)}."""
    perm, inv = sigma_star(sigma, c.universe), perm_inverse(sigma)
    labels = [Label(apply_perm_to_coords(perm, lab.frame),
                    BASEPOINT if lab.point.is_basepoint else SpherePoint(lab.point.coords[inv]))
              for lab in c.labels]
    return canonicalize(Configuration(c.universe, labels), tol)


def frame_distance(f: np.ndarray, g: np.ndarray) -> float:
    """||f f^H - g g^H||_F for isometric frames, from the part of each frame
    outside the other's span, without forming either projection."""
    x = f.conj().T @ g
    outside = np.concatenate([(g - f @ x).ravel(), (f - g @ x.conj().T).ravel()])
    return math.sqrt(np.vdot(outside, outside).real)


def _cheapest_first(cost: np.ndarray) -> list[int]:
    """Column matched to each row of a square cost matrix, taking pairs
    cheapest first (ties in row-major order) while row and column are free."""
    k = cost.shape[0]
    cols, taken = [-1] * k, [False] * k
    for flat in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(flat, k)
        if cols[i] < 0 and not taken[j]:
            cols[i], taken[j] = j, True
    return cols


def config_distance(a: Configuration, b: Configuration) -> float:
    """Label-matching distance: the worst matched pair, with labels matched
    cheapest pair first on point distance plus frame projection distance.
    Infinite when the universes or label counts differ, or when the matching
    pairs a basepoint with a point or takes a point of another dimension.

    The matching is the optimal assignment when every corresponding pair
    costs less than every other pair, as when each costs less than half the
    least point distance between two labels of one side.  Every cost off
    the identity is at least the least off-diagonal point distance m, so
    identity costs all below m certify the identity (a basepoint or another
    dimension gives a nan, which fails): its k costs give the value, and the
    k^2 costs and the matching are skipped."""
    if a.universe != b.universe or a.k != b.k:
        return math.inf
    if a.k == 0:
        return 0.0
    # (k, n) point arrays with a nan row for the basepoint or a point of another
    # dimension: infinitely far from all points, but two basepoints are at 0
    nan = np.full(a.universe.n, np.nan)
    pa, pb = (np.array([nan if lab.point.is_basepoint or len(lab.point.coords) != len(nan)
                        else lab.point.coords for lab in x.labels]) for x in (a, b))
    dist = np.abs(pa[:, None] - pb[None]).max(axis=2)
    frames = [frame_distance(la.frame, lb.frame) for la, lb in zip(a.labels, b.labels)]
    diag = dist.diagonal() + frames
    if diag.max() < np.where(identity(a.k, bool), np.inf, dist).min():
        return float(diag.max())
    both = np.outer(*([lab.point.is_basepoint for lab in x.labels] for x in (a, b)))
    cost = np.where(both, 0.0, np.where(np.isnan(dist), np.inf, dist))
    for i, la in enumerate(a.labels):
        for j, lb in enumerate(b.labels):
            cost[i, j] += frames[i] if i == j else frame_distance(la.frame, lb.frame)
    return float(cost[range(a.k), _cheapest_first(cost)].max())
