"""Library input gates that no CLI path reaches: each rejects its bad input
with the documented exception and a message naming what is wrong."""

import numpy as np
import pytest

from commvar import (commodel, gammaconf, generate, isodecomp, numkit, rankstrata, spectrumops,
                     symuniverse)
from commvar.errors import ShapeMismatch
from commvar.rng import SplitMix64

U2 = symuniverse.UniverseBasis(2, 1)


def _bare(n=1, s=2):
    """An identity unitary tuple with no ambient universe."""
    return commodel.identity_tuple(n, s)


def _chart():
    return rankstrata.subquotient_chart(generate.gen_exact_rank_tuple(0, 1, 2, 4))


def _flag_coordinates():
    """A diagonal traceless skew-Hermitian tuple of size 3."""
    return commodel.CommutingTuple("skew_hermitian", np.diag([1j, -1j, 0j])[None])


GATES = {
    "universe with no variable": (lambda: symuniverse.UniverseBasis(0, 1),
                                  ValueError, "at least one variable"),
    "universe of negative degree": (lambda: symuniverse.UniverseBasis(1, -1),
                                    ValueError, "non-negative"),
    "sigma_star of a non-permutation": (lambda: symuniverse.sigma_star([0, 0], U2),
                                        ValueError, "not a permutation of 0..1"),
    "stabilize by a negative count": (lambda: rankstrata.stabilize(
        commodel.CommutingTuple("skew_hermitian", np.zeros((1, 2, 2))), -1),
        ValueError, "cannot remove components"),
    "reconstruct_chart in the wrong dimension": (lambda: rankstrata.reconstruct_chart(
        _chart(), 5), ShapeMismatch, "ambient dimension"),
    # the frame has the ambient rows but not one column per chart coordinate
    "reconstruct_chart with a frame of the wrong width": (lambda: rankstrata.reconstruct_chart(
        rankstrata.SubquotientChart(3, _flag_coordinates(), np.eye(3)[:, :1],
                                    _flag_coordinates(), np.zeros(1)), 3),
        ShapeMismatch, "frame (3, 1), not (ambient dimension, rank) (3, 3)"),
    "subquotient_chart with a frame of the wrong shape": (lambda: rankstrata.subquotient_chart(
        generate.gen_exact_rank_tuple(0, 1, 2, 4), frame=np.eye(4)[:, :3]),
        ShapeMismatch, "frame must be (4, 2), got (4, 3)"),
    "2-D tuple": (lambda: commodel.CommutingTuple("unitary", np.eye(2)),
                  ShapeMismatch, "expected (n, s, s) stack, got (2, 2)"),
    "rep_distance across shapes": (lambda: commodel.rep_distance(_bare(1, 2), _bare(1, 3)),
                                   ShapeMismatch, "different spaces"),
    "commuting_to_config with no universe": (lambda: commodel.commuting_to_config(_bare()),
                                             ValueError, "ambient universe"),
    "sigma_action_tuple with no universe": (lambda: commodel.sigma_action_tuple([0], _bare()),
                                            ValueError, "ambient universe"),
    "multiply_tuple with no universe": (lambda: spectrumops.multiply_tuple(_bare(), _bare()),
                                        ValueError, "ambient universes"),
    "structure_map_tuple with no universe": (lambda: spectrumops.structure_map_tuple(
        _bare(), gammaconf.SpherePoint([-1.0])), ValueError, "ambient universe"),
    "unit_map of a point of the wrong dimension": (lambda: spectrumops.unit_map(
        gammaconf.SpherePoint([-1.0]), U2), ValueError, "point dimension"),
    "unit_map_tuple of a point of the wrong dimension": (lambda: spectrumops.unit_map_tuple(
        gammaconf.SpherePoint([-1.0]), U2), ValueError, "point dimension"),
    "traceless unitary partition tuple": (lambda: generate.gen_partition_tuple(
        0, 1, (1, 1), kind="unitary", traceless=True), ValueError, "Lie-algebra kind"),
    "config dims above the universe": (lambda: generate.gen_random_config(0, U2, dims=[2, 2]),
                                       ValueError, "exceed the universe dimension"),
    # sizes a generator cannot build: refused, not replaced by other sizes
    "partition tuple with a part of 0": (lambda: generate.gen_partition_tuple(1, 2, (2, 0, 1)),
                                         ValueError, "parts must be positive"),
    "config dims with a negative first": (lambda: generate.gen_random_config(1, U2, dims=(-1, 2)),
                                          ValueError, "must be positive"),
    "config dims with a negative last": (lambda: generate.gen_random_config(1, U2, dims=(3, -1)),
                                         ValueError, "must be positive"),
    "config dims with a 0": (lambda: generate.gen_random_config(1, U2, dims=(0, 2)),
                             ValueError, "must be positive"),
    "exact-rank ambient below the rank": (lambda: generate.gen_exact_rank_tuple(
        0, 1, 3, ambient_dim=2), ValueError, "at least the rank"),
    "unit_normalize of a tuple with a trace": (lambda: isodecomp.unit_normalize(
        commodel.CommutingTuple("skew_hermitian", 1j * np.eye(2)[None])),
        ValueError, "not traceless"),
    "orthonormalize of a 3-D array": (lambda: numkit.orthonormalize(np.ones((2, 2, 2))),
                                      ShapeMismatch, "(d, k) array"),
    "orthonormalize of a 1-D array": (lambda: numkit.orthonormalize(np.ones(2)),
                                      ShapeMismatch, "not a (d, k) array: (2,)"),
    "orthonormalize of a list of vectors": (lambda: numkit.orthonormalize([np.ones(2)] * 2),
                                            ShapeMismatch, "not a (d, k) array: <class 'list'>"),
    "randint of an empty range": (lambda: SplitMix64(0).randint(3, 3), ValueError, "empty range"),
    "reassemble_trace with a tau of the wrong length": (lambda: rankstrata.reassemble_trace(
        commodel.CommutingTuple("skew_hermitian", np.zeros((1, 3, 3))), np.zeros(3)),
        ShapeMismatch, "tau must have shape (1,), got (3,)"),
    "reassemble_trace of a unitary tuple": (lambda: rankstrata.reassemble_trace(_bare(), [0.0]),
                                            ValueError, "real_symmetric tuple, got unitary"),
    "canonical_flag_class with a smaller frame": (lambda: isodecomp.canonical_flag_class(
        np.eye(2), _flag_coordinates()), ShapeMismatch, "flag frame must be (3, 3), got (2, 2)"),
    "canonical_flag_class with a non-square frame": (lambda: isodecomp.canonical_flag_class(
        np.eye(4)[:, :3], _flag_coordinates()), ShapeMismatch, "must be (3, 3), got (4, 3)"),
    "canonical_flag_class of real coordinates": (lambda: isodecomp.canonical_flag_class(
        np.eye(3), commodel.CommutingTuple("real_symmetric", np.diag([1.0, -1.0, 0.0])[None])),
        ValueError, "expected a skew_hermitian tuple, got real_symmetric"),
    # draws that cannot be separated: refused, not kept too close
    "40 unitary columns 0.2 apart in one coordinate": (lambda: generate.gen_random_commuting(
        0, 1, 40, "unitary", margin=0.3, min_separation=0.2),
        ValueError, "unitary column 22: no draw of 1000 lies 0.2 from the earlier columns"),
    "30 parts 0.5 apart in one coordinate": (lambda: generate.gen_partition_tuple(
        1, 1, [1] * 30), ValueError, "skew_hermitian column 11: no draw of 1000 lies 0.5"),
}


@pytest.mark.parametrize("call,error,fragment", GATES.values(), ids=GATES.keys())
def test_each_library_gate_rejects_its_bad_input(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)


def test_config_to_commuting_skips_a_basepoint_label():
    frame = np.eye(U2.dim, dtype=complex)
    point = gammaconf.SpherePoint([-1.0, 1j])
    live = gammaconf.Label(frame[:, :1], point)
    base = gammaconf.Label(frame[:, 1:], gammaconf.BASEPOINT)
    with_base = commodel.config_to_commuting(gammaconf.Configuration(U2, [live, base]))
    without = commodel.config_to_commuting(gammaconf.Configuration(U2, [live]))
    assert np.array_equal(with_base.mats, without.mats)
    only_base = commodel.config_to_commuting(gammaconf.Configuration(U2, [base]))
    assert np.array_equal(only_base.mats, commodel.identity_tuple(2, U2.dim).mats)
