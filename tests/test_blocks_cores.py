"""Each function that diagonalizes its tuple takes optional blocks, and
handed the blocks `joint_diagonalize` returns it gives what it gives on its
own, bit for bit, on tuples of every kind: results are compared by dtype,
shape and bytes, and a raised error by its type and message.  Handed the
blocks, none of them diagonalizes again."""

import dataclasses

import numpy as np
import pytest

from commvar.commodel import (
    CommutingTuple,
    F_subspace,
    canonical_rep,
    commuting_to_config,
    config_to_commuting,
    identity_tuple,
    joint_diagonalize,
)
from commvar.gammaconf import BASEPOINT, Configuration, Label, SpherePoint, canonicalize
from commvar.generate import (
    gen_exact_rank_tuple,
    gen_partition_tuple,
    gen_random_commuting,
    gen_random_config,
)
from commvar.isodecomp import decomposition_type, flag_map_preimage
from commvar.rankstrata import subquotient_chart
from commvar.realk import real_stratum_chart
from commvar.rng import SplitMix64, haar_orthogonal
from commvar.spectrumops import multiply_tuple, structure_map, structure_map_tuple
from commvar.symuniverse import UniverseBasis
from test_verify import _record_diagonalizations


def _bits(x):
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, SpherePoint):
        return None if x.coords is None else _bits(x.coords)
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(_bits(v) for v in x)
    return x


def _outcome(fn):
    try:
        return "value", _bits(fn())
    except Exception as exc:
        return "error", type(exc).__name__, str(exc)


def _blocks(t):
    return joint_diagonalize(t)[1]


def _symmetric_unitary(seed):
    """Canonical tuple of a configuration with real frames: its eigenspaces
    are conjugation-stable, so it has a real chart."""
    rng = SplitMix64(seed)
    u = UniverseBasis(2, 1)
    basis = haar_orthogonal(rng, u.dim).astype(complex)
    labels = [Label(basis[:, :1], SpherePoint([-1.0, 1j])),
              Label(basis[:, 1:3], SpherePoint([-1j, -1.0]))]
    return config_to_commuting(canonicalize(Configuration(u, labels)))


def _ambient_tuples():
    """Unitary tuples with an ambient universe: labels of rank 1 to 4, an
    empty configuration (F empty, the identity) and a symmetric one."""
    out = []
    for seed, (n, d) in enumerate([(1, 1), (2, 1), (2, 2), (3, 1)]):
        out.append(config_to_commuting(gen_random_config(seed, UniverseBasis(n, d),
                                                         max_labels=3, max_rank=4)))
    u = UniverseBasis(2, 1)
    out.append(identity_tuple(2, u.dim, u))
    out.append(_symmetric_unitary(5))
    return out


def _tuples():
    """Tuples of every kind, with n = 0, with F empty, F partial and F whole."""
    out = _ambient_tuples()
    out += [gen_exact_rank_tuple(7, 2, 2, 4), identity_tuple(1, 3)]
    for kind in ("unitary", "skew_hermitian", "real_symmetric"):
        out += [gen_random_commuting(11, 2, 4, kind), gen_random_commuting(12, 1, 1, kind),
                CommutingTuple(kind, np.zeros((0, 3, 3))),
                CommutingTuple(kind, np.zeros((0, 1, 1)))]
    out += [gen_partition_tuple(13, 2, (1, 1, 1), traceless=True, unit=True),
            gen_partition_tuple(14, 1, (2, 1), traceless=True, unit=True)]
    return out


TUPLES = _tuples()
IDS = [f"{t.kind}-n{t.n}-s{t.s}-{i}" for i, t in enumerate(TUPLES)]


@pytest.mark.parametrize("t", TUPLES, ids=IDS)
def test_F_subspace_with_and_without_blocks(t):
    assert _outcome(lambda: F_subspace(t)) == _outcome(lambda: F_subspace(t, blocks=_blocks(t)))


@pytest.mark.parametrize("t", TUPLES, ids=IDS)
def test_decomposition_type_with_and_without_blocks(t):
    assert _outcome(lambda: decomposition_type(t)) == _outcome(
        lambda: decomposition_type(t, blocks=_blocks(t)))


@pytest.mark.parametrize("t", TUPLES, ids=IDS)
def test_canonical_rep_is_its_blocks_core(t):
    assert _outcome(lambda: canonical_rep(t)) == _outcome(
        lambda: canonical_rep(t, blocks=_blocks(t)))


@pytest.mark.parametrize("t", TUPLES, ids=IDS)
def test_flag_map_preimage_is_its_blocks_core(t):
    assert _outcome(lambda: flag_map_preimage(t)) == _outcome(
        lambda: flag_map_preimage(t, blocks=_blocks(t)))


@pytest.mark.parametrize("t", [t for t in TUPLES if t.kind == "unitary"],
                         ids=[i for i, t in zip(IDS, TUPLES) if t.kind == "unitary"])
def test_charts_are_their_blocks_cores(t):
    assert _outcome(lambda: subquotient_chart(t)) == _outcome(
        lambda: subquotient_chart(t, blocks=_blocks(t)))
    assert _outcome(lambda: real_stratum_chart(t)) == _outcome(
        lambda: real_stratum_chart(t, blocks=_blocks(t)))


def test_real_chart_core_covers_both_outcomes():
    kinds = {_outcome(lambda: real_stratum_chart(t))[0]
             for t in TUPLES if t.kind == "unitary"}
    assert kinds == {"value", "error"}


@pytest.mark.parametrize("t", _ambient_tuples())
def test_commuting_to_config_is_its_blocks_core(t):
    assert _outcome(lambda: commuting_to_config(t)) == _outcome(
        lambda: commuting_to_config(t, blocks=_blocks(t)))


@pytest.mark.parametrize("y", [SpherePoint([-1.0]), SpherePoint([1j, -1j]), BASEPOINT])
def test_tuple_level_maps_are_their_blocks_cores(y):
    ambient, m = _ambient_tuples(), 2 if y.is_basepoint else None
    for ta in ambient:
        assert _outcome(lambda: structure_map_tuple(ta, y, m)) == _outcome(
            lambda: structure_map_tuple(ta, y, m, blocks=_blocks(ta)))
        for tb in ambient[:3]:
            assert _outcome(lambda: multiply_tuple(ta, tb)) == _outcome(
                lambda: multiply_tuple(ta, tb, blocks_a=_blocks(ta), blocks_b=_blocks(tb)))
    # the arguments are checked before the tuple is diagonalized, so a tuple
    # that fails validation meets the configuration picture's ValueError
    bad = CommutingTuple("unitary", 2 * ambient[0].mats, ambient[0].ambient)
    assert _outcome(bad.validate)[:2] == ("error", "NotUnitary")
    wrong_m = None if y.is_basepoint else len(y.coords) + 1
    want = _outcome(lambda: structure_map(commuting_to_config(ambient[0]), y, wrong_m))
    assert want[:2] == ("error", "ValueError")
    assert _outcome(lambda: structure_map_tuple(bad, y, wrong_m)) == want
    assert _outcome(lambda: structure_map_tuple(
        ambient[0], y, wrong_m, blocks=_blocks(ambient[0]))) == want


AMBIENT = _ambient_tuples()
# each function that takes blocks, as a call on a tuple and its blocks, with
# the tuples it is called on
WITH_BLOCKS = {
    "F_subspace": (TUPLES, lambda t, b: F_subspace(t, blocks=b)),
    "canonical_rep": (TUPLES, lambda t, b: canonical_rep(t, blocks=b)),
    "commuting_to_config": (AMBIENT, lambda t, b: commuting_to_config(t, blocks=b)),
    "subquotient_chart": (TUPLES, lambda t, b: subquotient_chart(t, blocks=b)),
    "real_stratum_chart": (TUPLES, lambda t, b: real_stratum_chart(t, blocks=b)),
    "decomposition_type": (TUPLES, lambda t, b: decomposition_type(t, blocks=b)),
    "flag_map_preimage": (TUPLES, lambda t, b: flag_map_preimage(t, blocks=b)),
    "multiply_tuple": (AMBIENT, lambda t, b: multiply_tuple(t, t, blocks_a=b, blocks_b=b)),
    "structure_map_tuple": (AMBIENT, lambda t, b: structure_map_tuple(
        t, SpherePoint([1j, -1j]), blocks=b)),
}


@pytest.mark.parametrize("name", sorted(WITH_BLOCKS))
def test_given_blocks_no_function_diagonalizes_again(name, monkeypatch):
    tuples, call = WITH_BLOCKS[name]
    blocks = [_blocks(t) for t in tuples]
    seen = _record_diagonalizations(monkeypatch)
    outcomes = [_outcome(lambda: call(t, b)) for t, b in zip(tuples, blocks)]
    assert not seen
    assert "value" in {outcome[0] for outcome in outcomes}
