"""Level structure of the tower of configuration spaces: unit maps,
multiplication, and structure maps, in both pictures.

The configuration picture is the computational primary; the commuting-tuple
formulas are implemented verbatim as an independent second route, and their
agreement through the configuration/tuple correspondence is the strongest
correctness oracle in the package.
"""

from __future__ import annotations

from .commodel import (
    CommutingTuple,
    F_subspace,
    JointSpectrum,
    extend_by_identity,
    identity_tuple,
    kron_pair,
)
from .gammaconf import (
    Configuration,
    Label,
    SpherePoint,
    canonicalize,
    smash,
)
from .numkit import DEFAULT_TOL, Tolerances
from .symuniverse import UniverseBasis, j0, psi_embed


def unit_map(x: SpherePoint, universe: UniverseBasis,
             tol: Tolerances = DEFAULT_TOL) -> Configuration:
    """Unit: a sphere point labels the scalar line of the universe.

    Basepoints (exact or within eps_base) give the empty configuration.
    """
    if x.is_basepoint:
        return Configuration(universe, [])
    if len(x.coords) != universe.n:
        raise ValueError("point dimension must match the universe")
    return canonicalize(Configuration(universe, [Label(j0(universe), x)]), tol)


def unit_map_tuple(x: SpherePoint, universe: UniverseBasis) -> CommutingTuple:
    """Tuple picture of the unit: coordinate j scales the scalar line by
    x_j and fixes everything else."""
    t = identity_tuple(universe.n, universe.dim, universe)
    if not x.is_basepoint:
        if len(x.coords) != universe.n:
            raise ValueError("point dimension must match the universe")
        idx = universe.index[(0,) * universe.n]
        t.mats[:, idx, idx] = x.coords
    return t


def multiply(a: Configuration, b: Configuration, tol: Tolerances = DEFAULT_TOL) -> Configuration:
    """Multiplication of configurations: one label per pair, with the tensor
    frame embedded in the joint universe and the smashed point."""
    psi = psi_embed(a.universe, b.universe)
    labels = [
        Label(psi.kron_frame(la.frame, lb.frame), smash(la.point, lb.point))
        for la in a.labels
        for lb in b.labels
    ]
    return canonicalize(Configuration(psi.target, labels), tol)


def _structure_target(universe: UniverseBasis, y: SpherePoint, m: int | None):
    """The universe of m variables (default: one per coordinate of y) at the
    degree of `universe`, and psi_embed of the pair; raises ValueError when
    m is missing at the basepoint or disagrees with y's coordinates."""
    if m is None:
        if y.is_basepoint:
            raise ValueError("structure map at the basepoint needs an explicit m")
        m = len(y.coords)
    if not y.is_basepoint and len(y.coords) != m:
        raise ValueError("sphere point dimension must match the universe")
    right = UniverseBasis(m, universe.D)
    return right, psi_embed(universe, right)


def structure_map(a: Configuration, y: SpherePoint, m: int | None = None,
                  tol: Tolerances = DEFAULT_TOL) -> Configuration:
    """Structure map: smash every point with y and embed every frame along
    the scalar line of a fresh universe of m variables and the degree of
    a's universe.

    Equals multiply(a, unit_map(y, ...)); implemented directly from its own
    formula so that the equality stays a testable law.
    """
    right, psi = _structure_target(a.universe, y, m)
    if y.is_basepoint:
        return Configuration(psi.target, [])
    jframe = j0(right)
    labels = [
        Label(psi.kron_frame(la.frame, jframe), smash(la.point, y))
        for la in a.labels
    ]
    return canonicalize(Configuration(psi.target, labels), tol)


def multiply_tuple(ta: CommutingTuple, tb: CommutingTuple, tol: Tolerances = DEFAULT_TOL,
                   spectrum_a: JointSpectrum | None = None,
                   spectrum_b: JointSpectrum | None = None) -> CommutingTuple:
    """Tuple picture of the multiplication.

    Restrict each component to the distinguished subspace of its own tuple,
    tensor with the identity of the other side, push into the joint universe,
    and extend by the identity.
    """
    if ta.ambient is None or tb.ambient is None:
        raise ValueError("both tuples need ambient universes")
    fa = F_subspace(ta, tol, spectrum_a)
    fb = F_subspace(tb, tol, spectrum_b)
    psi = psi_embed(ta.ambient, tb.ambient)
    g = psi.kron_frame(fa, fb)
    smalls = kron_pair(fa.conj().T @ ta.mats @ fa, fb.conj().T @ tb.mats @ fb)
    return CommutingTuple("unitary", extend_by_identity(g, smalls), psi.target)


def structure_map_tuple(t: CommutingTuple, y: SpherePoint, m: int | None = None,
                        tol: Tolerances = DEFAULT_TOL,
                        spectrum: JointSpectrum | None = None) -> CommutingTuple:
    """Tuple picture of the structure map: components of t act on F tensored
    with the scalar line of a fresh universe of m variables and the degree
    of t's universe; the new components scale that subspace by the
    coordinates of y.  The arguments are checked before t is diagonalized,
    which happens only when y is not the basepoint."""
    if t.ambient is None:
        raise ValueError("tuple needs an ambient universe")
    right, psi = _structure_target(t.ambient, y, m)
    if y.is_basepoint:
        return identity_tuple(t.n + right.n, psi.target.dim, psi.target)
    f = F_subspace(t, tol, spectrum)
    g = psi.kron_frame(f, j0(right))
    smalls = kron_pair(f.conj().T @ t.mats @ f, y.coords[:, None, None])
    return CommutingTuple("unitary", extend_by_identity(g, smalls), psi.target)
