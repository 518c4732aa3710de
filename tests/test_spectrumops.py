import numpy as np
import pytest

from commvar.commodel import (
    class_distance,
    commuting_to_config,
    config_to_commuting,
    identity_tuple,
    joint_diagonalize,
)
from commvar.gammaconf import (
    BASEPOINT,
    Configuration,
    SpherePoint,
    config_distance,
    rank,
    sigma_action_config,
    smash,
)
from commvar.generate import gen_random_config
from commvar.numkit import fro
from commvar.rng import SplitMix64, unit_phase
from commvar.spectrumops import (
    multiply,
    multiply_tuple,
    structure_map,
    structure_map_tuple,
    unit_map,
    unit_map_tuple,
)
from commvar.symuniverse import UniverseBasis


def _point(seed, n, margin=0.4):
    rng = SplitMix64(seed)
    return SpherePoint([unit_phase(rng, margin) for _ in range(n)])


def test_unit_map_examples():
    u = UniverseBasis(2, 1)
    assert unit_map(BASEPOINT, u).k == 0
    c = unit_map(SpherePoint([-1.0, -1.0]), u)
    assert c.k == 1 and rank(c) == 1
    assert abs(abs(c.labels[0].frame[0, 0]) - 1.0) < 1e-12  # scalar line
    # a point with a coordinate at 1 is the basepoint
    assert unit_map(SpherePoint([1.0, -1.0]), u).k == 0


def test_unit_map_tuple_matches():
    u = UniverseBasis(2, 1)
    x = _point(3, 2)
    t = unit_map_tuple(x, u)
    c = unit_map(x, u)
    assert class_distance(t, config_to_commuting(c)) <= 1e-10
    base = unit_map_tuple(BASEPOINT, u)
    assert max(fro(m - np.eye(u.dim)) for m in base.mats) < 1e-14


def test_multiply_with_empty_is_empty():
    u, v = UniverseBasis(1, 1), UniverseBasis(2, 1)
    a = gen_random_config(5, u, max_labels=2, max_rank=2)
    out = multiply(a, Configuration(v, []))
    assert out.k == 0
    assert out.universe == UniverseBasis(3, 2)


@pytest.mark.parametrize("seed", range(6))
def test_rank_multiplicative(seed):
    u, v = UniverseBasis(2, 1), UniverseBasis(1, 1)
    a = gen_random_config(seed, u, max_labels=2, max_rank=2)
    b = gen_random_config(seed + 50, v, max_labels=2, max_rank=2)
    assert rank(multiply(a, b)) == rank(a) * rank(b)


def test_structure_map_examples():
    u = UniverseBasis(2, 1)
    a = gen_random_config(9, u, max_labels=2, max_rank=2)
    y = _point(10, 2)
    out = structure_map(a, y)
    assert rank(out) == rank(a)
    assert out.universe == UniverseBasis(4, 2)
    # basepoint smashes everything away
    assert structure_map(a, BASEPOINT, m=2).k == 0
    # sigma_{n,m} = mu_{n,m} (id ^ iota_m)
    via_unit = multiply(a, unit_map(y, UniverseBasis(2, 1)))
    assert config_distance(out, via_unit) <= 1e-10


def test_unit_compatibility():
    x = _point(11, 2)
    y = _point(12, 1)
    u = UniverseBasis(2, 1)
    lhs = structure_map(unit_map(x, u), y)
    rhs = unit_map(smash(x, y), UniverseBasis(3, 2))
    assert config_distance(lhs, rhs) <= 1e-10


def test_associativity_exact():
    a = gen_random_config(1, UniverseBasis(1, 1), max_labels=2, max_rank=2)
    b = gen_random_config(2, UniverseBasis(2, 1), max_labels=2, max_rank=2)
    c = gen_random_config(3, UniverseBasis(1, 1), max_labels=1, max_rank=1)
    lhs = multiply(multiply(a, b), c)
    rhs = multiply(a, multiply(b, c))
    assert config_distance(lhs, rhs) <= 1e-10


def test_commutativity_up_to_swap():
    n, m = 2, 1
    a = gen_random_config(4, UniverseBasis(n, 1), max_labels=2, max_rank=2)
    b = gen_random_config(5, UniverseBasis(m, 1), max_labels=1, max_rank=1)
    chi = list(range(m, m + n)) + list(range(m))
    lhs = multiply(b, a)
    rhs = sigma_action_config(chi, multiply(a, b))
    assert config_distance(lhs, rhs) <= 1e-10


def test_equivariance():
    n, m = 2, 2
    a = gen_random_config(6, UniverseBasis(n, 1), max_labels=2, max_rank=2)
    b = gen_random_config(7, UniverseBasis(m, 1), max_labels=2, max_rank=2)
    sigma, tau = [1, 0], [1, 0]
    rho = sigma + [n + t for t in tau]
    lhs = multiply(sigma_action_config(sigma, a), sigma_action_config(tau, b))
    rhs = sigma_action_config(rho, multiply(a, b))
    assert config_distance(lhs, rhs) <= 1e-10


def test_structure_map_equivariance():
    from commvar.gammaconf import permute_point

    n, m = 2, 2
    a = gen_random_config(16, UniverseBasis(n, 1), max_labels=2, max_rank=2)
    y = _point(17, m)
    sigma, tau = [1, 0], [1, 0]
    rho = sigma + [n + t for t in tau]
    lhs = structure_map(sigma_action_config(sigma, a), permute_point(tau, y))
    rhs = sigma_action_config(rho, structure_map(a, y))
    assert config_distance(lhs, rhs) <= 1e-10


def test_multiply_tuple_rank_zero():
    u, v = UniverseBasis(1, 1), UniverseBasis(1, 1)
    ta = identity_tuple(1, u.dim, u)
    tb = identity_tuple(1, v.dim, v)
    out = multiply_tuple(ta, tb)
    assert all(fro(m - np.eye(out.s)) < 1e-12 for m in out.mats)


def test_multiply_tuple_reduces_to_structure_map():
    # multiplying with a unit tuple is the structure-map tuple formula
    u = UniverseBasis(2, 1)
    a = gen_random_config(8, u, max_labels=2, max_rank=2)
    ta = config_to_commuting(a)
    y = _point(13, 2)
    tb = unit_map_tuple(y, UniverseBasis(2, 1))
    lhs = multiply_tuple(ta, tb)
    rhs = structure_map_tuple(ta, y)
    assert class_distance(lhs, rhs) <= 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_stratum_rank_multiplicative_in_tuple_picture(seed):
    from commvar.rankstrata import stratum_rank

    a = gen_random_config(seed + 60, UniverseBasis(1, 1), max_labels=2, max_rank=2)
    b = gen_random_config(seed + 70, UniverseBasis(2, 1), max_labels=2, max_rank=2)
    ta, tb = config_to_commuting(a), config_to_commuting(b)
    prod = multiply_tuple(ta, tb)
    assert stratum_rank(prod) == stratum_rank(ta) * stratum_rank(tb)


@pytest.mark.parametrize("seed", range(8))
def test_cross_picture_agreement(seed):
    rng = SplitMix64(seed + 1000)
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    a = gen_random_config(rng.next_u64(), UniverseBasis(n, 1), max_labels=2, max_rank=2)
    b = gen_random_config(rng.next_u64(), UniverseBasis(m, 1), max_labels=2, max_rank=2)
    ta, tb = config_to_commuting(a), config_to_commuting(b)
    assert class_distance(config_to_commuting(multiply(a, b)),
                          multiply_tuple(ta, tb)) <= 1e-8
    y = _point(seed + 2000, m)
    assert class_distance(config_to_commuting(structure_map(a, y)),
                          structure_map_tuple(ta, y)) <= 1e-8


def test_structure_map_through_configuration_inverse():
    # push a tuple through the tuple-picture structure map and read the
    # configuration off the other side
    u = UniverseBasis(1, 1)
    a = gen_random_config(21, u, max_labels=1, max_rank=1)
    y = _point(22, 1)
    t_out = structure_map_tuple(config_to_commuting(a), y)
    c_out = commuting_to_config(t_out)
    assert config_distance(c_out, structure_map(a, y)) <= 1e-8


@pytest.mark.parametrize("m", [2, 4])
def test_structure_map_rejects_an_m_other_than_the_point_dimension(m):
    # y has 3 coordinates; both pictures refuse alike
    a = gen_random_config(21, UniverseBasis(1, 1), max_labels=1, max_rank=1)
    ta = config_to_commuting(a)
    y = _point(22, 3)
    assert a.k == 1
    message = "sphere point dimension must match the universe"
    with pytest.raises(ValueError, match=message):
        structure_map(a, y, m)
    with pytest.raises(ValueError, match=message):
        structure_map_tuple(ta, y, m)
    with pytest.raises(ValueError, match=message):
        structure_map_tuple(ta, y, m, spectrum=joint_diagonalize(ta))


def test_structure_map_rejects_an_m_other_than_the_point_dimension_with_no_labels():
    # an empty configuration never reaches canonicalize's point check
    a = Configuration(UniverseBasis(1, 1), [])
    y = SpherePoint([1j, -1.0, 1j])
    message = "sphere point dimension must match the universe"
    with pytest.raises(ValueError, match=message):
        structure_map(a, y, 2)
    with pytest.raises(ValueError, match=message):
        structure_map_tuple(config_to_commuting(a), y, 2)
