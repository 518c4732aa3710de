import numpy as np
import pytest

from commvar.commodel import KINDS
from commvar.errors import ZeroTuple
from commvar.gammaconf import config_distance, rank
from commvar.generate import (
    _sample_value,
    config_on_basis,
    gen_exact_rank_tuple,
    gen_partition_tuple,
    gen_random_commuting,
    gen_random_config,
    sample_value_columns,
)
from commvar.numkit import (
    commutator_defect,
    fro,
    skew_hermitian_defect,
    real_symmetric_defect,
    unitary_defect,
)
from commvar.rankstrata import trace_split
from commvar.rng import MASK64, SplitMix64, haar_orthogonal, haar_unitary, subseed
from commvar.symuniverse import UniverseBasis


def test_splitmix_reference_sequence():
    # SplitMix64 with the documented constants, seed 0
    rng = SplitMix64(0)
    first = rng.next_u64()
    rng2 = SplitMix64(0)
    assert rng2.next_u64() == first
    assert 0 <= first <= MASK64
    vals = {SplitMix64(s).next_u64() for s in range(64)}
    assert len(vals) == 64  # no collisions across nearby seeds


def test_splitmix_stream_is_pinned():
    # the published SplitMix64 reference outputs for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    # Box-Muller's spare Gaussian carries over from one call to the next
    rng = SplitMix64(5)
    split = np.concatenate([rng.normals(3), rng.normals(1)])
    assert split.tobytes() == SplitMix64(5).normals(4).tobytes()


def test_subseed_independent():
    seeds = {subseed(5, i) for i in range(100)}
    assert len(seeds) == 100
    assert subseed(5, 3) == subseed(5, 3)
    assert subseed(5, 3) != subseed(6, 3)


def _old_haar_unitary(rng, s):
    q, r = np.linalg.qr(rng.complex_normals(s, s))
    d = np.diagonal(r).copy()
    d[np.abs(d) == 0] = 1.0
    return q * (d / np.abs(d))


def _old_haar_orthogonal(rng, s):
    q, r = np.linalg.qr(rng.normals(s, s))
    d = np.sign(np.diagonal(r)).copy()
    d[d == 0] = 1.0
    return q * d


@pytest.mark.parametrize("seed", range(20))
def test_haar_draws_are_the_written_out_phase_fixed_qr(seed):
    # the shared phase-fixed QR reproduces each sampler's own formula bit for bit
    for s in range(1, 10):
        for new, old in ((haar_unitary, _old_haar_unitary),
                         (haar_orthogonal, _old_haar_orthogonal)):
            a, b = new(SplitMix64(seed), s), old(SplitMix64(seed), s)
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_haar_matrices():
    rng = SplitMix64(2)
    u = haar_unitary(rng, 5)
    assert fro(u.conj().T @ u - np.eye(5)) < 1e-12
    o = haar_orthogonal(rng, 5)
    assert o.dtype.kind == "f"
    assert fro(o.T @ o - np.eye(5)) < 1e-12


@pytest.mark.parametrize("kind,defect", [
    ("unitary", unitary_defect),
    ("skew_hermitian", skew_hermitian_defect),
    ("real_symmetric", real_symmetric_defect),
])
def test_gen_random_commuting(kind, defect):
    t = gen_random_commuting(11, 3, 4, kind)
    assert t.n == 3 and t.s == 4
    assert commutator_defect(t.mats) <= 1e-12
    assert max(defect(m) for m in t.mats) <= 1e-12
    # determinism
    t2 = gen_random_commuting(11, 3, 4, kind)
    assert max(fro(a - b) for a, b in zip(t.mats, t2.mats)) == 0.0
    t3 = gen_random_commuting(12, 3, 4, kind)
    assert max(fro(a - b) for a, b in zip(t.mats, t3.mats)) > 1e-3


def test_gen_partition_tuple_traceless_unit():
    t = gen_partition_tuple(3, 2, (2, 2, 1), kind="skew_hermitian",
                            traceless=True, unit=True)
    assert abs(np.sqrt(sum(fro(m) ** 2 for m in t.mats)) - 1.0) <= 1e-12
    assert max(abs(np.trace(m)) for m in t.mats) <= 1e-12
    assert commutator_defect(t.mats) <= 1e-12


@pytest.mark.parametrize("kind", ["skew_hermitian", "real_symmetric"])
def test_traceless_partition_tuple_is_the_trace_split_of_the_draw(kind):
    for n in range(4):
        for parts in ([1], [2, 1], [3, 2, 1], [1, 1, 2, 2]):
            for seed in (0, 7):
                got = gen_partition_tuple(seed, n, parts, kind, traceless=True)
                want = trace_split(gen_partition_tuple(seed, n, parts, kind))[0]
                assert got.kind == kind and got.mats.tobytes() == want.mats.tobytes()


def test_gen_random_config_canonical():
    u = UniverseBasis(3, 1)
    c = gen_random_config(7, u, max_labels=3, max_rank=4)
    assert 1 <= rank(c) <= 4
    from commvar.gammaconf import canonicalize

    assert config_distance(canonicalize(c), c) < 1e-13
    c2 = gen_random_config(7, u, max_labels=3, max_rank=4)
    assert config_distance(c, c2) < 1e-15


@pytest.mark.parametrize("cap", ["max_labels", "max_rank"])
def test_gen_random_config_refuses_a_cap_below_one(cap):
    with pytest.raises(ValueError, match=f"{cap} must be at least 1"):
        gen_random_config(1, UniverseBasis(2, 1), **{cap: 0})


def test_unit_partition_tuple_takes_the_traceless_projection_itself():
    for kind in ("skew_hermitian", "real_symmetric"):
        got = gen_partition_tuple(3, 2, (2, 2, 1), kind, unit=True)
        want = gen_partition_tuple(3, 2, (2, 2, 1), kind, traceless=True, unit=True)
        assert got.mats.tobytes() == want.mats.tobytes()


def test_gen_exact_rank():
    t = gen_exact_rank_tuple(5, 2, 4, 7)
    from commvar.rankstrata import stratum_rank

    assert t.s == 7
    assert stratum_rank(t) == 4


@pytest.mark.parametrize("kind,dtype", [
    ("unitary", complex), ("skew_hermitian", complex), ("real_symmetric", float),
])
def test_empty_tuples_keep_shape_and_dtype(kind, dtype):
    # n = 0 is a legitimate tuple: every builder returns an empty (0, s, s) stack
    built = [gen_random_commuting(4, 0, 3, kind), gen_partition_tuple(4, 0, (2, 1), kind)]
    if kind == "unitary":
        built.append(gen_exact_rank_tuple(4, 0, 2, 3))
    for t in built:
        assert t.mats.shape == (0, 3, 3)
        assert t.mats.dtype == dtype


@pytest.mark.parametrize("kind", ["skew_hermitian", "real_symmetric"])
@pytest.mark.parametrize("parts", [(1,), (3,), (4,)])
def test_unit_partition_tuple_of_one_part_is_zero(kind, parts):
    # the traceless part of a single-part tuple is 0 up to roundoff
    for seed in range(3):
        with pytest.raises(ZeroTuple):
            gen_partition_tuple(seed, 2, parts, kind, traceless=True, unit=True)


def test_config_on_basis_labels_are_consecutive_slices():
    u = UniverseBasis(2, 2)
    basis = haar_orthogonal(SplitMix64(3), u.dim)
    points = np.exp(1j * np.array([[1.0, 2.0, 3.0], [2.5, 1.5, 0.5]]))
    c = config_on_basis(u, basis, [2, 1, 1], points)
    assert rank(c) == 4 and c.k == 3
    assert all(lab.frame.dtype == complex for lab in c.labels)
    for piece in (basis[:, :2], basis[:, 2:3], basis[:, 3:4]):
        assert any(np.array_equal(lab.frame, piece) for lab in c.labels)


def _per_column_value_columns(rng, kind, n, cols, margin, min_separation):
    # the per-column separation loop that sample_value_columns' one test replaced;
    # returns the column index where all 1000 draws were too close
    vals = np.zeros((n, cols), dtype=complex)
    for c in range(cols):
        for _attempt in range(1000):
            col = np.array([_sample_value(rng, kind, margin) for _ in range(n)])
            ok = all(
                np.max(np.abs(col - vals[:, p])) >= min_separation
                for p in range(c)
            ) if n else True
            if ok or min_separation == 0.0:
                break
        else:
            return c
        vals[:, c] = col
    return vals


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("min_separation", [0.0, 0.2, 0.5, 1.5])
def test_value_columns_are_the_per_column_loop(kind, min_separation):
    # 1.5 forces redraws, up to the cap: unitary values lie within 2 of each other;
    # where the reference exhausts a column, sample_value_columns raises at that column
    exhausted = 0
    for n in range(4):
        for cols in range(9):
            for margin in (0.0, 0.3):
                for seed in (0, 7, 2024):
                    rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
                    ref = _per_column_value_columns(ref_rng, kind, n, cols, margin, min_separation)
                    if isinstance(ref, int):
                        exhausted += 1
                        with pytest.raises(ValueError, match=f"^{kind} column {ref}: no draw "
                                                             f"of 1000 lies {min_separation} from"):
                            sample_value_columns(rng, kind, n, cols, margin, min_separation)
                    else:
                        got = sample_value_columns(rng, kind, n, cols, margin, min_separation)
                        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
                    assert (rng.state, rng._gauss_cache) == (ref_rng.state, ref_rng._gauss_cache)
    assert (exhausted > 0) == (min_separation == 1.5)


def test_generator_defaults():
    # max_rank defaults to the universe dimension, ambient_dim to s + 2
    u = UniverseBasis(2, 2)
    for seed in range(5):
        a, b = gen_random_config(seed, u), gen_random_config(seed, u, max_rank=u.dim)
        assert [(lab.frame.tobytes(), lab.point.coords.tobytes()) for lab in a.labels] == [
            (lab.frame.tobytes(), lab.point.coords.tobytes()) for lab in b.labels]
        t, ref = gen_exact_rank_tuple(seed, 2, 3), gen_exact_rank_tuple(seed, 2, 3, 5)
        assert t.s == 5 and t.mats.tobytes() == ref.mats.tobytes()
