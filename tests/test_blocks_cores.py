"""Each function that diagonalizes its tuple takes an optional spectrum, and
handed the JointSpectrum `joint_diagonalize` returns for its own tuple it
gives what it gives on its own, bit for bit, on tuples of every kind: results
are compared by dtype, shape and bytes, and a raised error by its type and
message.  Handed the spectrum, none of them diagonalizes again; handed the
spectrum of another tuple, or one taken at other tolerances, each raises
ValueError."""

import dataclasses
import re

import numpy as np
import pytest

from commvar.commodel import (
    CommutingTuple,
    F_subspace,
    canonical_rep,
    commuting_to_config,
    config_spectrum,
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
from commvar.numkit import DEFAULT_TOL, Tolerances
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


def _spectrum(t):
    return joint_diagonalize(t)


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
    assert _outcome(lambda: F_subspace(t)) == _outcome(lambda: F_subspace(t, spectrum=_spectrum(t)))


@pytest.mark.parametrize("t", TUPLES, ids=IDS)
def test_decomposition_type_with_and_without_blocks(t):
    assert _outcome(lambda: decomposition_type(t)) == _outcome(
        lambda: decomposition_type(t, spectrum=_spectrum(t)))


@pytest.mark.parametrize("t", TUPLES, ids=IDS)
def test_canonical_rep_is_its_blocks_core(t):
    assert _outcome(lambda: canonical_rep(t)) == _outcome(
        lambda: canonical_rep(t, spectrum=_spectrum(t)))


@pytest.mark.parametrize("t", TUPLES, ids=IDS)
def test_flag_map_preimage_is_its_blocks_core(t):
    assert _outcome(lambda: flag_map_preimage(t)) == _outcome(
        lambda: flag_map_preimage(t, spectrum=_spectrum(t)))


@pytest.mark.parametrize("t", [t for t in TUPLES if t.kind == "unitary"],
                         ids=[i for i, t in zip(IDS, TUPLES) if t.kind == "unitary"])
def test_charts_are_their_blocks_cores(t):
    assert _outcome(lambda: subquotient_chart(t)) == _outcome(
        lambda: subquotient_chart(t, spectrum=_spectrum(t)))
    assert _outcome(lambda: real_stratum_chart(t)) == _outcome(
        lambda: real_stratum_chart(t, spectrum=_spectrum(t)))


def test_real_chart_core_covers_both_outcomes():
    kinds = {_outcome(lambda: real_stratum_chart(t))[0]
             for t in TUPLES if t.kind == "unitary"}
    assert kinds == {"value", "error"}


@pytest.mark.parametrize("t", _ambient_tuples())
def test_commuting_to_config_is_its_blocks_core(t):
    assert _outcome(lambda: commuting_to_config(t)) == _outcome(
        lambda: commuting_to_config(t, spectrum=_spectrum(t)))


@pytest.mark.parametrize("y", [SpherePoint([-1.0]), SpherePoint([1j, -1j]), BASEPOINT])
def test_tuple_level_maps_are_their_blocks_cores(y):
    ambient, m = _ambient_tuples(), 2 if y.is_basepoint else None
    for ta in ambient:
        assert _outcome(lambda: structure_map_tuple(ta, y, m)) == _outcome(
            lambda: structure_map_tuple(ta, y, m, spectrum=_spectrum(ta)))
        for tb in ambient[:3]:
            assert _outcome(lambda: multiply_tuple(ta, tb)) == _outcome(
                lambda: multiply_tuple(ta, tb, spectrum_a=_spectrum(ta), spectrum_b=_spectrum(tb)))
    # the arguments are checked before the tuple is diagonalized, so a tuple
    # that fails validation meets the configuration picture's ValueError
    bad = CommutingTuple("unitary", 2 * ambient[0].mats, ambient[0].ambient)
    assert _outcome(bad.validate)[:2] == ("error", "NotUnitary")
    wrong_m = None if y.is_basepoint else len(y.coords) + 1
    want = _outcome(lambda: structure_map(commuting_to_config(ambient[0]), y, wrong_m))
    assert want[:2] == ("error", "ValueError")
    assert _outcome(lambda: structure_map_tuple(bad, y, wrong_m)) == want
    assert _outcome(lambda: structure_map_tuple(
        ambient[0], y, wrong_m, spectrum=_spectrum(ambient[0]))) == want


AMBIENT = _ambient_tuples()
# each function that takes a spectrum, as a call on a tuple and a spectrum,
# with the tuples it is called on
WITH_SPECTRUM = {
    "F_subspace": (TUPLES, lambda t, sp: F_subspace(t, spectrum=sp)),
    "canonical_rep": (TUPLES, lambda t, sp: canonical_rep(t, spectrum=sp)),
    "commuting_to_config": (AMBIENT, lambda t, sp: commuting_to_config(t, spectrum=sp)),
    "subquotient_chart": (TUPLES, lambda t, sp: subquotient_chart(t, spectrum=sp)),
    "real_stratum_chart": (TUPLES, lambda t, sp: real_stratum_chart(t, spectrum=sp)),
    "decomposition_type": (TUPLES, lambda t, sp: decomposition_type(t, spectrum=sp)),
    "flag_map_preimage": (TUPLES, lambda t, sp: flag_map_preimage(t, spectrum=sp)),
    "multiply_tuple": (AMBIENT, lambda t, sp: multiply_tuple(t, t, spectrum_a=sp,
                                                             spectrum_b=sp)),
    "structure_map_tuple": (AMBIENT, lambda t, sp: structure_map_tuple(
        t, SpherePoint([1j, -1j]), spectrum=sp)),
}


@pytest.mark.parametrize("name", sorted(WITH_SPECTRUM))
def test_given_blocks_no_function_diagonalizes_again(name, monkeypatch):
    tuples, call = WITH_SPECTRUM[name]
    spectra = [_spectrum(t) for t in tuples]
    seen = _record_diagonalizations(monkeypatch)
    outcomes = [_outcome(lambda: call(t, sp)) for t, sp in zip(tuples, spectra)]
    assert not seen
    assert "value" in {outcome[0] for outcome in outcomes}


OTHER_TOL = Tolerances(eps_cluster=1e-5)


@pytest.mark.parametrize("name", sorted(WITH_SPECTRUM))
def test_a_spectrum_of_another_tuple_or_tolerance_is_refused(name):
    # wherever a tuple's own spectrum gives a value, an equal tuple's (another
    # object) and its own at other tolerances raise ValueError
    tuples, call = WITH_SPECTRUM[name]
    refused = 0
    for t in tuples:
        if _outcome(lambda: call(t, _spectrum(t)))[0] != "value":
            continue
        twin = CommutingTuple(t.kind, t.mats.copy(), t.ambient)
        with pytest.raises(ValueError, match="^spectrum is of another tuple$"):
            call(t, _spectrum(twin))
        other = re.escape(f"spectrum was taken at {OTHER_TOL}, not at {DEFAULT_TOL}")
        with pytest.raises(ValueError, match=other):
            call(t, joint_diagonalize(t, OTHER_TOL))
        refused += 1
    assert refused


def _seeded_pair():
    return gen_random_commuting(1, 2, 4, "unitary"), gen_random_commuting(2, 2, 4, "unitary")


def test_a_chart_refuses_the_spectrum_of_another_tuple():
    # with t1's blocks, t2's chart came out with X off by 1.55
    t1, t2 = _seeded_pair()
    with pytest.raises(ValueError, match="another tuple"):
        subquotient_chart(t2, spectrum=joint_diagonalize(t1))
    with pytest.raises(ValueError, match="another tuple"):
        multiply_tuple(*AMBIENT[:2], spectrum_a=_spectrum(AMBIENT[0]),
                       spectrum_b=_spectrum(AMBIENT[0]))


def test_a_type_refuses_a_spectrum_taken_at_other_tolerances():
    # with its blocks at eps_cluster = 1.0, t2 of type (1, 1, 1, 1) typed as (3, 1)
    _, t2 = _seeded_pair()
    coarse = Tolerances(eps_cluster=1.0)
    assert decomposition_type(t2).parts == (1, 1, 1, 1)
    assert decomposition_type(t2, coarse).parts == (3, 1)
    with pytest.raises(ValueError, match=re.escape(f"taken at {coarse}")):
        decomposition_type(t2, DEFAULT_TOL, joint_diagonalize(t2, coarse))


@pytest.mark.parametrize("n,D", [(1, 1), (2, 2)])
def test_a_configuration_spectrum_serves_F_but_not_the_type(n, D):
    # it holds the in-F blocks only, so the type and the flag preimage refuse it
    for seed in range(4):
        spectrum = config_spectrum(gen_random_config(seed, UniverseBasis(n, D), max_rank=4))
        t = spectrum.t
        assert spectrum.Q is None
        got, want = F_subspace(t, spectrum=spectrum), F_subspace(t)
        assert np.abs(got @ got.conj().T - want @ want.conj().T).max() <= 1e-12
        for call in (decomposition_type, flag_map_preimage):
            with pytest.raises(ValueError, match="configuration spectrum"):
                call(t, spectrum=spectrum)


def test_a_spectrum_unpacks_and_indexes_as_q_and_blocks():
    t = TUPLES[0]
    spectrum = joint_diagonalize(t)
    q, blocks = spectrum
    assert spectrum.t is t and spectrum.tol == DEFAULT_TOL
    assert q is spectrum.Q is spectrum[0] and blocks is spectrum.blocks is spectrum[1]
