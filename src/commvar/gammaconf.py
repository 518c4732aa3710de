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
from .numkit import DEFAULT_TOL, Tolerances, fro, leading_indices, orthonormalize
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
        if self.coords is None:
            return True
        return bool(np.any(np.abs(self.coords - 1.0) <= eps))

    def unit_defect(self) -> float:
        if self.coords is None:
            return 0.0
        return float(np.max(np.abs(np.abs(self.coords) - 1.0)))

    def __repr__(self):
        if self.coords is None:
            return "SpherePoint(basepoint)"
        return f"SpherePoint({np.round(self.coords, 6)})"


BASEPOINT = SpherePoint(None)


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


def empty_config(universe: UniverseBasis) -> Configuration:
    return Configuration(universe, [])


def rank(c: Configuration) -> int:
    """Total dimension of the labels (the rank filtration degree)."""
    return sum(lab.frame.shape[1] for lab in c.labels)


def value_key(values: np.ndarray) -> tuple:
    """Sort key of a value tuple: the real and imaginary part of each
    coordinate in turn."""
    return tuple(v for z in values for v in (z.real, z.imag))


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

    for i, j in np.argwhere(np.triu(close, 1)).tolist():
        parent[find(j)] = find(i)
    groups: dict[int, list[int]] = {}
    for i in range(count):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def frame_order(frames: list[np.ndarray], keys: list, tol: Tolerances) -> list[int]:
    """Stable order of items by the leading index of their frame, then by
    their key; the leading indices come from one leading_indices pass."""
    lead = leading_indices(frames, tol)
    return sorted(range(len(frames)), key=lambda i: (lead[i], keys[i]))


def _sorted_labels(labels: list[Label], tol: Tolerances) -> list[Label]:
    keys = [() if lab.point.is_basepoint else value_key(lab.point.coords) for lab in labels]
    return [labels[i] for i in frame_order([lab.frame for lab in labels], keys, tol)]


def _validate_labels(labels: list[Label], universe: UniverseBasis, tol: Tolerances):
    for lab in labels:
        if lab.frame.shape[0] != universe.dim:
            raise NotOrthogonal(
                f"frame ambient dimension {lab.frame.shape[0]} != universe dim {universe.dim}"
            )
        if not lab.point.is_basepoint and lab.point.unit_defect() > tol.eps_struct:
            raise ValueError("sphere point coordinates must be unit complex numbers")
        if not lab.point.is_basepoint and len(lab.point.coords) != universe.n:
            raise ValueError("sphere point dimension must match the universe")
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            gram = labels[i].frame.conj().T @ labels[j].frame
            if gram.size and np.max(np.abs(gram)) > tol.eps_struct:
                raise NotOrthogonal(
                    f"labels {i} and {j} overlap (|<v,w>| = {np.max(np.abs(gram)):.3e})"
                )


def canonicalize(c: Configuration, tol: Tolerances = DEFAULT_TOL) -> Configuration:
    """Canonical form of a configuration.

    Drops basepoint and zero-dimensional labels, merges labels whose points
    agree within eps_cluster per coordinate (concatenating and
    re-orthonormalizing frames), and sorts the result deterministically.
    Raises NotOrthogonal when surviving labels overlap.
    """
    live = [
        lab for lab in c.labels
        if lab.frame.shape[1] > 0 and not lab.point.near_basepoint(tol.eps_base)
    ]
    _validate_labels(live, c.universe, tol)
    live = _sorted_labels(live, tol)

    # every live point has universe.n coordinates (validated above)
    coords = np.array([lab.point.coords for lab in live]).reshape(len(live), c.universe.n)
    groups = single_linkage(np.max(np.abs(coords[:, None] - coords), axis=2) < tol.eps_cluster)
    merged = []
    for members in groups:
        frame = orthonormalize(np.hstack([live[i].frame for i in members]), tol)
        merged.append(Label(frame, live[members[0]].point))
    merged = _sorted_labels(merged, tol)
    return Configuration(c.universe, merged)


def push_labels(labels: list[Label], alpha, n_targets: int, ambient_dim: int,
                tol: Tolerances = DEFAULT_TOL) -> list[Label]:
    """Indexed push of an ordered label list along a based map.

    alpha[j] in 0..n_targets assigns label j to target alpha[j]; target 0 is
    the basepoint and deletes the label.  Returns one label per target slot:
    the direct sum of the frames sent to it, with the point of the first
    contributing label of positive dimension (slots receiving nothing carry a
    zero-dimensional basepoint label).  Composition of pushes is associative
    on the nose, before any canonicalization.
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
        frame = orthonormalize(np.hstack([lab.frame for lab in srcs]), tol)
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
    return math.hypot(fro(g - f @ (f.conj().T @ g)), fro(f - g @ (g.conj().T @ f)))


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
    cost = np.zeros((a.k, b.k))
    for i, la in enumerate(a.labels):
        for j, lb in enumerate(b.labels):
            d = point_distance(la.point, lb.point)
            cost[i, j] = (1e6 if math.isinf(d) else d) + frame_distance(la.frame, lb.frame)
    rows, cols = min_cost_assignment(cost)
    return float(np.max(cost[rows, cols]))
