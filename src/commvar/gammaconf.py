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
from .numkit import DEFAULT_TOL, Tolerances, leading_indices, orthonormalize
from .symuniverse import UniverseBasis, apply_perm_to_coords, perm_inverse, sigma_star


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
    return np.any(np.abs(values - 1.0) <= eps, axis=1)


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
    """(sigma . x)_j = x_{sigma^{-1}(j)}; basepoint is fixed."""
    if x.is_basepoint:
        return BASEPOINT
    inv = perm_inverse(sigma)
    return SpherePoint(x.coords[inv])


def point_distance(x: SpherePoint, y: SpherePoint) -> float:
    """Max per-coordinate distance; infinite across the basepoint divide."""
    if x.is_basepoint and y.is_basepoint:
        return 0.0
    if x.is_basepoint or y.is_basepoint:
        return math.inf
    if len(x.coords) != len(y.coords):
        return math.inf
    return float(np.max(np.abs(x.coords - y.coords))) if len(x.coords) else 0.0


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
    smallest member."""
    count = close.shape[0]
    parent = list(range(count))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = np.nonzero(close)
    for i, j in zip(rows[rows < cols].tolist(), cols[rows < cols].tolist()):
        parent[find(j)] = find(i)
    groups: dict[int, list[int]] = {}
    for i in range(count):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def frame_order(lead, values: np.ndarray) -> np.ndarray:
    """Stable order of k items by leading frame index, then by their row of the
    (k, n) value array (real, then imaginary part of each coordinate), in one lexsort."""
    keys = [part for col in values.T[::-1] for part in (col.imag, col.real)]
    return np.lexsort([*keys, lead])


def _check_labels(labels: list[Label], u: UniverseBasis, tol: Tolerances):
    """Raise for the first label failing a check: frame, unit coordinates, point dimension."""
    for lab in labels:
        if lab.frame.shape[0] != u.dim:
            raise NotOrthogonal(f"frame ambient dimension {lab.frame.shape[0]} "
                                f"!= universe dim {u.dim}")
        if not np.max(np.abs(np.abs(lab.point.coords) - 1.0), initial=0.0) <= tol.eps_struct:
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
    """
    u = c.universe
    labels = [lab for lab in c.labels if lab.frame.shape[1] > 0 and not lab.point.is_basepoint]
    if any(len(lab.point.coords) != u.n or lab.frame.shape[0] != u.dim for lab in labels):
        # such labels cannot join the stacked arrays: check label by label
        labels = [lab for lab in labels if not lab.point.near_basepoint(tol.eps_base)]
        _check_labels(labels, u, tol)
    values = np.array([lab.point.coords for lab in labels]).reshape(len(labels), u.n)
    live = ~near_basepoint_rows(values, tol.eps_base)
    labels, values = [lab for lab, keep in zip(labels, live) if keep], values[live]
    if not np.max(np.abs(np.abs(values) - 1.0), initial=0.0) <= tol.eps_struct:
        _check_labels(labels, u, tol)
    if not labels:
        return Configuration(u, [])

    # one Gram matrix of the stacked frames checks all label pairs and isometries
    frames = [lab.frame for lab in labels]
    stacked = np.hstack(frames)
    owner = np.repeat(np.arange(len(labels)), [f.shape[1] for f in frames])
    defect = np.abs(stacked.conj().T @ stacked - np.eye(stacked.shape[1]))
    off = ~(defect <= tol.eps_struct)
    cross = off & (owner[:, None] < owner)
    if cross.any():
        i, j = min(map(tuple, owner[np.argwhere(cross)].tolist()))
        overlap = np.max(defect[np.ix_(owner == i, owner == j)])
        raise NotOrthogonal(f"labels {i} and {j} overlap (|<v,w>| = {overlap:.3e})")
    non_isometric = np.zeros(len(labels), bool)
    non_isometric[owner[np.any(off & (owner[:, None] == owner), axis=1)]] = True

    order = frame_order(leading_indices(frames, tol), values)
    labels, values, non_isometric = [labels[i] for i in order], values[order], non_isometric[order]
    groups = single_linkage(np.max(np.abs(values[:, None] - values), axis=2) < tol.eps_cluster)
    merged = [labels[g[0]] if len(g) == 1 and not non_isometric[g[0]] else Label(
        orthonormalize(np.hstack([labels[i].frame for i in g]), tol), labels[g[0]].point)
        for g in groups]
    # only a merge or a re-orthonormalized frame can move a label
    if len(groups) < len(labels) or non_isometric.any():
        lead = leading_indices([lab.frame for lab in merged], tol)
        merged = [merged[i] for i in frame_order(lead, values[[g[0] for g in groups]])]
    return Configuration(u, merged)


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
        if len(srcs) > 1 or not np.all(np.abs(frame.conj().T @ frame - np.eye(frame.shape[1]))
                                       <= tol.eps_struct):
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
    perm = sigma_star(sigma, c.universe)
    labels = [
        Label(apply_perm_to_coords(perm, lab.frame), permute_point(sigma, lab.point))
        for lab in c.labels
    ]
    return canonicalize(Configuration(c.universe, labels), tol)


def frame_distance(f: np.ndarray, g: np.ndarray) -> float:
    """||f f^H - g g^H||_F for isometric frames, from the part of each frame
    outside the other's span, without forming either projection."""
    x = f.conj().T @ g
    outside = np.concatenate([(g - f @ x).ravel(), (f - g @ x.conj().T).ravel()])
    return math.sqrt(np.vdot(outside, outside).real)


def min_cost_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a minimum-total-cost matching of the smaller side
    of a finite (r, c) cost matrix into the larger, rows ascending.

    Shortest augmenting paths with dual potentials (Kuhn 1955; Jonker and
    Volgenant 1987), one row at a time: O(r^2 c).
    """
    cost = np.asarray(cost, dtype=float)
    r, c = cost.shape
    if r > c:
        cols, rows = min_cost_assignment(cost.T)
        order = np.argsort(rows)
        return rows[order], cols[order]
    # column 0 is a sentinel; row_of[j] is the 1-based row matched to column j
    u, v = np.zeros(r + 1), np.zeros(c + 1)
    row_of = np.zeros(c + 1, dtype=int)
    for i in range(1, r + 1):
        row_of[0], j0 = i, 0
        minv = np.full(c + 1, np.inf)
        way = np.zeros(c + 1, dtype=int)
        used = np.zeros(c + 1, dtype=bool)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            better = ~used[1:] & (reduced < minv[1:])
            minv[1:][better] = reduced[better]
            way[1:][better] = j0
            j1 = 1 + int(np.argmin(np.where(used[1:], np.inf, minv[1:])))
            delta = minv[j1]
            u[row_of[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
        while j0:
            row_of[j0] = row_of[way[j0]]
            j0 = way[j0]
    matched = np.flatnonzero(row_of[1:])
    cols = np.empty(r, dtype=int)
    cols[row_of[1:][matched] - 1] = matched
    return np.arange(r), cols


def config_distance(a: Configuration, b: Configuration) -> float:
    """Label-matching distance: optimal assignment on point distance plus
    frame projection distance, reported as the worst matched pair.
    Infinite when the universes or label counts differ."""
    if a.universe != b.universe or a.k != b.k:
        return math.inf
    if a.k == 0:
        return 0.0
    # (k, n) point arrays with a nan row for the basepoint or a point of another
    # dimension: infinitely far (cost 1e6) from all points, but two basepoints are at 0
    nan = np.full(a.universe.n, np.nan)
    pa, pb = (np.array([nan if lab.point.is_basepoint or len(lab.point.coords) != len(nan)
                        else lab.point.coords for lab in x.labels]) for x in (a, b))
    dist = np.max(np.abs(pa[:, None] - pb[None]), axis=2)
    base_a, base_b = ([lab.point.is_basepoint for lab in x.labels] for x in (a, b))
    cost = np.where(np.outer(base_a, base_b), 0.0, np.where(np.isnan(dist), 1e6, dist))
    for i, la in enumerate(a.labels):
        for j, lb in enumerate(b.labels):
            cost[i, j] += frame_distance(la.frame, lb.frame)
    rows, cols = min_cost_assignment(cost)
    return float(np.max(cost[rows, cols]))
