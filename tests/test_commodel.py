import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commvar import commodel, numkit
from commvar.commodel import (
    KINDS,
    CommutingTuple,
    F_subspace,
    canonical_rep,
    class_distance,
    commuting_to_config,
    config_spectrum,
    config_to_commuting,
    identity_tuple,
    joint_diagonalize,
    sigma_action_tuple,
)
from commvar.errors import NoConvergence, NotCommuting, NotUnitary, ShapeMismatch
from commvar.gammaconf import (
    BASEPOINT,
    Configuration,
    Label,
    SpherePoint,
    canonicalize,
    config_distance,
    frame_order,
    near_basepoint_rows,
    rank,
    sigma_action_config,
    single_linkage,
)
from commvar.generate import gen_partition_tuple, gen_random_commuting, gen_random_config
from commvar.isodecomp import decomposition_type
from commvar.numkit import (
    DEFAULT_TOL,
    _all_pairs_step,
    _jacobi_sweeps,
    commutator_defect,
    fro,
    off_norm,
    phase_normalize,
)
from commvar.rankstrata import cayley
from commvar.rng import SplitMix64, haar_orthogonal, haar_unitary
from commvar.symuniverse import UniverseBasis, perm_inverse, sigma_star


def test_validate_rejects_garbage():
    bad = CommutingTuple("unitary", np.array([np.eye(2) * 2.0]))
    with pytest.raises(NotUnitary):
        bad.validate()
    x = np.diag([1j, -1j])
    y = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    # exactly unitary but far from commuting
    noncomm = CommutingTuple("unitary", np.array([x, y]))
    with pytest.raises(NotCommuting):
        noncomm.validate()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [0, 1, 3])
def test_validate_returns_the_component_norms(kind, n):
    t = gen_random_commuting(5, n, 4, kind)
    norms = t.validate()
    expected = [fro(m) for m in t.mats]
    assert type(norms) is list and len(norms) == n
    assert np.array(norms, float).tobytes() == np.array(expected, float).tobytes()


def test_joint_diagonalize_already_diagonal():
    t = CommutingTuple("unitary", np.array([np.diag([-1.0, 1j, 1.0]),
                                            np.diag([1j, 1j, -1.0])]))
    q, blocks = joint_diagonalize(t)
    assert fro(np.abs(q) - np.eye(3)) < 1e-10
    assert sorted(b.frame.shape[1] for b in blocks) == [1, 1, 1]


def test_joint_diagonalize_construct_then_recover():
    rng = SplitMix64(13)
    q0 = haar_unitary(rng, 4)
    d1 = np.diag([1j, 1j, -1j, 1.0])
    d2 = np.diag([-1.0, 1.0, -1.0, 1j])
    t = CommutingTuple("unitary", np.array([q0 @ d1 @ q0.conj().T,
                                            q0 @ d2 @ q0.conj().T]))
    _, blocks = joint_diagonalize(t)
    got = sorted(
        tuple(np.round(b.values, 6)) for b in blocks for _ in range(b.frame.shape[1])
    )
    expect = sorted(
        (np.round(d1[i, i], 6), np.round(d2[i, i], 6)) for i in range(4)
    )
    assert np.allclose(np.array(got, dtype=complex), np.array(expect, dtype=complex),
                       atol=1e-8)


def test_joint_diagonalize_skew_2x2_closed_form():
    # i * [[0,1],[1,0]] has eigenvalues +-i with eigenvectors (e1 +- e2)/sqrt(2)
    x = 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    t = CommutingTuple("skew_hermitian", np.array([x]))
    _, blocks = joint_diagonalize(t)
    assert len(blocks) == 2
    vals = sorted(complex(b.values[0]).imag for b in blocks)
    assert vals == pytest.approx([-1.0, 1.0])
    for b in blocks:
        v = b.frame[:, 0]
        assert abs(abs(np.vdot(v, np.array([1.0, np.sign(b.values[0].imag)])
                               / np.sqrt(2))) - 1.0) < 1e-10


def test_joint_residual_requirement():
    t = gen_random_commuting(3, 3, 6, "unitary")
    q, _ = joint_diagonalize(t)
    diag = q.conj().T @ t.mats @ q
    res = np.sqrt(sum(off_norm(d) ** 2 for d in diag))
    assert res <= 1e-8 * max(fro(a) for a in t.mats)


def test_joint_diagonalize_checks_the_kernel_residual(monkeypatch):
    # the kernel returns Q unchecked: an identity Q leaves the whole
    # off-diagonal part of a non-diagonal tuple
    t = gen_random_commuting(3, 2, 4, "unitary")
    assert off_norm(t.mats[0]) > 1e-3
    monkeypatch.setattr(commodel, "joint_diagonalizer",
                        lambda hmats, *args, **kwargs: np.eye(hmats.shape[-1]))
    with pytest.raises(NoConvergence, match="joint residual"):
        joint_diagonalize(t)


def _relative_joint_residual(t, q):
    diag = q.conj().T @ t.mats @ q
    return off_norm(diag) / max(fro(a) for a in t.mats)


def test_joint_diagonalize_near_commuting_refines_once(monkeypatch):
    # right-multiplying each component by exp(i 1e-10 H), H a random
    # unit-norm Hermitian matrix, keeps it unitary but commuting only to
    # about 1e-10: above the 1e-12 sweep goal, so the eigenvectors of the
    # random combination leave a residual that one sweep refinement reduces
    base = gen_random_commuting(5, 2, 12, "unitary", margin=0.3, min_separation=0.2)
    rng = SplitMix64(5 ^ 0xA5A5)
    mats = []
    for a in base.mats:
        g = rng.complex_normals(12, 12)
        h = 0.5 * (g + g.conj().T)
        w, v = np.linalg.eigh(h / np.linalg.norm(h))
        mats.append(a @ (v * np.exp(1j * 1e-10 * w)) @ v.conj().T)
    t = CommutingTuple("unitary", np.array(mats))
    original = numkit._jacobi_sweeps
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(numkit, "_jacobi_sweeps", counted)
    spectrum = joint_diagonalize(t)
    assert len(calls) == 1
    assert _relative_joint_residual(t, spectrum.Q) <= 1e-8
    assert decomposition_type(t, spectrum=spectrum).parts == (1,) * 12


def _times_near_identity(mats, rng, eps=1e-10):
    """Each matrix right-multiplied by exp(i eps H), H a random unit-norm
    Hermitian matrix from rng, as in the near-commuting test above."""
    out = []
    for a in mats:
        g = rng.complex_normals(a.shape[0], a.shape[0])
        h = 0.5 * (g + g.conj().T)
        w, v = np.linalg.eigh(h / np.linalg.norm(h))
        out.append(a @ (v * np.exp(1j * eps * w)) @ v.conj().T)
    return CommutingTuple("unitary", np.array(out))


def _refined(monkeypatch, t):
    """joint_diagonalize(t)'s Q, the off-norm each all-pairs step started
    from, and for each sweep call its input stack, target, pair mask and
    returned unitary."""
    steps, sweeps = [], []

    def step(c):
        steps.append(off_norm(c))
        return _all_pairs_step(c)

    def sweep(c, off_target, pairs):
        entry = c.copy()
        q = _jacobi_sweeps(c, off_target, pairs)
        sweeps.append((entry, off_target, pairs, q))
        return q

    monkeypatch.setattr(numkit, "_all_pairs_step", step)
    monkeypatch.setattr(numkit, "_jacobi_sweeps", sweep)
    return joint_diagonalize(t)[0], steps, sweeps


def test_sweeps_return_at_entry_when_the_start_is_at_the_target(monkeypatch):
    # an exactly commuting tuple: the LAPACK start is already at the target,
    # and the kernel returns it with no step and no sweep
    t = gen_random_commuting(0, 2, 8, "unitary", min_separation=0.2)
    q, steps, sweeps = _refined(monkeypatch, t)
    assert steps == [] and sweeps == []
    # LAPACK gives the last row real, one imaginary part -0.0; the kernel
    # returns +0.0 there, as a product would, and seeded output shows it
    parts = q.view(float)
    assert (parts == 0.0).any() and not np.signbit(parts[parts == 0.0]).any()


def test_sweeps_stop_at_the_target(monkeypatch):
    # exactly commuting, but the LAPACK start misses the target: the
    # all-pairs step reaches it, and the sweep returns at entry
    t = gen_random_commuting(1000, 2, 16, "unitary", margin=0.3, min_separation=0.2)
    _, [start], [(entry, target, _, q)] = _refined(monkeypatch, t)
    assert start > target >= off_norm(entry)
    assert np.array_equal(q, np.eye(16))


def test_the_sweep_returns_at_entry_at_its_target():
    c = np.array([[[1.0, 1e-3], [1e-3, 2.0]]])
    q = _jacobi_sweeps(c, 1e-2, np.ones((2, 2), bool))
    assert np.array_equal(q, np.eye(2)) and c[0, 0, 1] == 1e-3


def test_sweeps_stop_when_a_sweep_gains_nothing(monkeypatch):
    # the near-commuting tuple above: the step reaches the floor its
    # perturbation leaves, above the target; every pair has a joint gap and
    # a first-order angle under GAP_FLOOR, so the sweep has no pair to rotate
    base = gen_random_commuting(5, 2, 12, "unitary", margin=0.3, min_separation=0.2)
    t = _times_near_identity(base.mats, SplitMix64(5 ^ 0xA5A5))
    _, [start], [(entry, target, pairs, q)] = _refined(monkeypatch, t)
    assert start > off_norm(entry) > target
    assert not pairs.any() and np.array_equal(q, np.eye(12))


def test_the_step_leaves_a_pair_with_a_wide_angle_to_the_sweep():
    # |K_01| = 1.5, far above GAP_FLOOR: the step does not rotate the pair
    # and hands it to the sweep
    c = np.array([[[0.0, 1.5], [1.5, 1.0]]])
    u, pairs = _all_pairs_step(c)
    assert np.array_equal(u, np.eye(2)) and c[0, 0, 1] == 1.5
    assert pairs.tolist() == [[False, True], [False, False]]


def test_the_step_masks_both_sides_of_a_pair_that_straddles_the_floor():
    # Hermitian only to rounding, as a conjugated stack is: |K_01| one ulp
    # above GAP_FLOOR and |K_10| one ulp below.  Zeroing one side alone
    # would leave K not skew-Hermitian and U not unitary
    f = numkit.GAP_FLOOR
    c = np.array([[[0.0, np.nextafter(f, 1.0)], [np.nextafter(f, 0.0), 1.0]]])
    u, pairs = _all_pairs_step(c)
    assert np.array_equal(u, np.eye(2))
    assert pairs.tolist() == [[False, True], [False, False]]


def test_sweeps_with_no_pair_to_rotate_return_at_once(caplog):
    c = np.array([[[1.0, 1e-3], [1e-3, 2.0]]])
    with caplog.at_level("DEBUG", logger="commvar.numkit"):
        q = _jacobi_sweeps(c, 0.0, pairs=np.zeros((2, 2), bool))
    assert np.array_equal(q, np.eye(2)) and c[0, 0, 1] == 1e-3
    assert caplog.messages == ["refinement ended above target: 0 sweeps over 0 pairs, "
                               "relative off-norm 6.325e-04"]


def test_a_refinement_that_ends_above_the_target_logs_one_line(caplog):
    base = gen_random_commuting(5, 2, 12, "unitary", margin=0.3, min_separation=0.2)
    near = _times_near_identity(base.mats, SplitMix64(5 ^ 0xA5A5))
    with caplog.at_level("DEBUG", logger="commvar.numkit"):
        joint_diagonalize(base)
        assert not caplog.records
        q, _ = joint_diagonalize(near)
    [record] = caplog.records
    assert (record.name, record.levelname) == ("commvar.numkit", "DEBUG")
    sweeps, pairs, off = record.args
    assert (sweeps, pairs) == (0, 0)
    assert 1e-12 < off <= 1e-10
    assert record.getMessage().startswith("refinement ended above target: 0 sweeps over 0 pairs")


@pytest.mark.parametrize("s", [12, 32])
def test_the_step_keeps_a_real_q_orthogonal(monkeypatch, s):
    # a real symmetric tuple plus a symmetric perturbation of norm 1e-10
    base = gen_random_commuting(s, 2, s, "real_symmetric", min_separation=0.2)
    g = np.array(SplitMix64(s ^ 0xA5A5).normals(s * s)).reshape(s, s)
    h = (g + g.T) / np.linalg.norm(g + g.T)
    t = CommutingTuple("real_symmetric", base.mats + 1e-10 * np.array([h, h @ h]))
    q, steps, _ = _refined(monkeypatch, t)
    assert steps
    assert not np.iscomplexobj(q)
    assert fro(q.T @ q - np.eye(s)) <= 1e-14
    assert _relative_joint_residual(t, q) <= 1e-10


def _pairs_apart(s, gap):
    """Two unitary components, conjugated by one Haar unitary, whose joint
    eigenvalues come in s/2 pairs gap apart in phase, the pairs 0.2 apart."""
    ph = np.repeat(0.3 + 0.2 * np.arange(s // 2), 2) + np.tile([0.0, gap], s // 2)
    q = haar_unitary(SplitMix64(s), s)
    return [q @ np.diag(np.exp(1j * k * ph)) @ q.conj().T for k in (1, -2)]


def test_the_step_hands_the_pairs_under_the_gap_floor_to_the_sweeps(monkeypatch):
    t = _times_near_identity(_pairs_apart(16, 1e-7), SplitMix64(16 ^ 0xA5A5))
    q, steps, [(c, _, pairs, _)] = _refined(monkeypatch, t)
    d = np.diagonal(c, axis1=1, axis2=2).real
    gap2 = np.sum((d[:, :, None] - d[:, None, :]) ** 2, axis=0)
    floor = (numkit.GAP_FLOOR * fro(c)) ** 2
    assert steps
    assert np.array_equal(pairs, np.triu(gap2 < floor, 1))
    # exactly the eight pairs 1e-7 apart, far from the floor both ways
    assert pairs.sum() == 8
    assert np.max(gap2[pairs]) < 1e-2 * floor
    assert np.min(gap2[np.triu(~pairs, 1)]) > 1e2 * floor
    assert _relative_joint_residual(t, q) <= 1e-8
    assert decomposition_type(t).parts == (2,) * 8


def test_blocks_under_a_near_commuting_perturbation_keep_their_type():
    parts = [16] + [2] * 23 + [1, 1]
    x = gen_partition_tuple(64, 2, parts, kind="skew_hermitian")
    t = _times_near_identity([cayley(m) for m in x.mats], SplitMix64(64 ^ 0xA5A5))
    spectrum = joint_diagonalize(t)
    assert decomposition_type(t, spectrum=spectrum).parts == tuple(parts)
    assert _relative_joint_residual(t, spectrum.Q) <= 1e-10


def test_one_sweep_brings_an_accepted_edge_input_under_the_bound(monkeypatch):
    # pairs 1e-7 apart under exp(i 6e-8 H): the validator accepts the tuple,
    # and only the sweep over the pairs under the gap floor takes its joint
    # residual under the 1e-8 bound (1.155e-7 without it)
    t = _times_near_identity(_pairs_apart(128, 1e-7), SplitMix64(0 ^ 0xA5A5), eps=6e-8)
    assert 9.40e-10 < commutator_defect(t.mats) < 9.42e-10
    q, _ = joint_diagonalize(t)
    assert _relative_joint_residual(t, q) <= 1e-8
    monkeypatch.setattr(numkit, "_jacobi_sweeps",
                        lambda c, *args: np.eye(c.shape[-1], dtype=c.dtype))
    with pytest.raises(NoConvergence, match="joint residual"):
        joint_diagonalize(t)


def _collision(s, seed, phi):
    """An n = 1 unitary tuple of size s, conjugated by a Haar unitary, with
    eigenphases alpha +- phi and others strictly between alpha + phi and
    alpha + pi; and the values of its phases in the kernel's combination
    a (A + A^H)/2 + b (A - A^H)/2i, alpha = atan2(b, a).  The phases
    alpha +- phi take one value there."""
    a, b = SplitMix64(0x5EEDC0FFEE ^ (2 << 16) ^ s).normals(2)
    ph = np.arctan2(b, a) + np.concatenate(
        [[phi, -phi], phi + np.arange(1, s - 1) * (np.pi - phi) / (s - 1)])
    q = haar_unitary(SplitMix64(seed), s)
    t = CommutingTuple("unitary", ((q * np.exp(1j * ph)) @ q.conj().T)[None])
    return t, a * np.cos(ph) + b * np.sin(ph)


def _real_collision(s, seed):
    """A real symmetric pair of size s, conjugated by a Haar orthogonal
    matrix, with joint eigenvalues (0, 0), (b, -a) and the others on the line
    through (a, b); and their values in the kernel's combination a A + b B.
    The first two take one value there."""
    a, b = SplitMix64(0x5EEDC0FFEE ^ (2 << 16) ^ s).normals(2)
    pts = np.array([[0.0, 0.0], [b, -a], *(0.7 * j * np.array([a, b]) for j in range(1, s - 1))])
    q = haar_orthogonal(SplitMix64(seed), s)
    t = CommutingTuple("real_symmetric", np.array([(q * pts[:, k]) @ q.T for k in (0, 1)]))
    return t, pts @ [a, b]


def _check_collision(t, values):
    # the precondition: two joint eigenvalues take one value in the
    # combination, so the LAPACK start mixes them and the step leaves their
    # pair to the sweep
    assert abs(values[0] - values[1]) <= 1e-14
    with pytest.MonkeyPatch.context() as mp:
        q, steps, [(_, _, pairs, _)] = _refined(mp, t)
    assert steps and pairs.any()
    assert _relative_joint_residual(t, q) <= 1e-12
    assert decomposition_type(t).parts == (1,) * t.s


def test_the_step_does_not_rotate_a_collided_pair(monkeypatch):
    # s = 2, phases alpha +- 0.1 that take one value in the combination: the
    # start mixes them, and the pair's first-order angle is far above
    # GAP_FLOOR, so the step takes the identity and the sweep the pair
    t, _ = _collision(2, 1, 0.1)
    taken = []

    def step(c):
        taken.append(_all_pairs_step(c))
        return taken[-1]

    monkeypatch.setattr(numkit, "_all_pairs_step", step)
    q, _ = joint_diagonalize(t)
    [(u, pairs)] = taken
    assert np.array_equal(u, np.eye(2)) and pairs.tolist() == [[False, True], [False, False]]
    assert _relative_joint_residual(t, q) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("s", [2, 3, 4, 6, 8])
def test_eigenvalues_that_collide_in_the_combination_are_swept_apart(s, seed):
    for phi in np.linspace(0.1, 3.0, 8):
        _check_collision(*_collision(s, seed, phi))
    _check_collision(*_real_collision(s, seed))


@given(st.integers(2, 8), st.integers(0, 2**16), st.floats(0.05, 3.0))
@settings(max_examples=100, deadline=None)
def test_any_collision_in_the_combination_is_swept_apart(s, seed, phi):
    _check_collision(*_collision(s, seed, phi))


def _check_partition_tuple(seed, kind, parts):
    # one block of s/4, then pairs, then singletons
    t = gen_partition_tuple(seed, 2, parts, kind=kind)
    spectrum = joint_diagonalize(t)
    q = spectrum.Q
    assert _relative_joint_residual(t, q) <= 1e-8
    assert fro(q.conj().T @ q - np.eye(t.s)) <= 1e-12
    if kind == "real_symmetric":
        assert not np.iscomplexobj(q)
    assert decomposition_type(t, spectrum=spectrum).parts == tuple(parts)


@pytest.mark.parametrize("kind", ["unitary", "skew_hermitian", "real_symmetric"])
def test_joint_diagonalize_large_degenerate(kind):
    _check_partition_tuple(17, kind, [8] + [2] * 11 + [1] * 2)


@pytest.mark.parametrize("kind", ["unitary", "skew_hermitian", "real_symmetric"])
def test_joint_diagonalize_s128_partition(kind):
    _check_partition_tuple(19, kind, [32] + [2] * 32 + [1] * 32)


@pytest.mark.parametrize("kind", ["unitary", "skew_hermitian", "real_symmetric"])
@pytest.mark.parametrize("s", [8, 32, 64])
def test_block_frames_are_orthonormal_and_phase_normalized(kind, s):
    # the block frames are columns of one unitary Q, each phase-normalized
    big = s // 4
    parts = [big] + [2] * ((s - big) // 2) + [1] * ((s - big) % 2)
    t = gen_partition_tuple(s, 2, parts, kind=kind)
    _, blocks = joint_diagonalize(t)
    f = np.hstack([b.frame for b in blocks])
    assert f.shape == (s, s)
    assert fro(f.conj().T @ f - np.eye(s)) <= 1e-12
    eps = DEFAULT_TOL.eps_struct
    for col in f.T:
        lead = col[np.flatnonzero(np.abs(col) > eps)[0]]
        # real up to the rounding of u * conj(u) / |u|
        assert lead.real > 0.0 and abs(lead.imag) <= 1e-15 * lead.real


def test_joint_diagonalize_clusters_a_chain():
    # eigenvalues a ~ b ~ c within eps_cluster of their neighbours but a and
    # c farther apart: single linkage gives one block of three
    eps = DEFAULT_TOL.eps_cluster
    vals = np.array([2.0, 2.0 + 0.6 * eps, 2.0 + 1.2 * eps, 3.0])
    t = CommutingTuple("unitary", np.diag(np.exp(1j * vals))[None])
    _, blocks = joint_diagonalize(t)
    assert sorted(b.frame.shape[1] for b in blocks) == [1, 3]


def test_F_subspace_examples():
    ident = identity_tuple(2, 3)
    assert F_subspace(ident).shape[1] == 0
    # enumerate eigenvalue tuples: e1 -> (-1, -1) kept; e2 -> (1, -1) and
    # e3 -> (i, 1) each contain a 1 and are dropped
    t = CommutingTuple("unitary", np.array([np.diag([-1.0, 1.0, 1j]),
                                            np.diag([-1.0, -1.0, 1.0])]))
    f = F_subspace(t)
    assert f.shape[1] == 1
    assert abs(abs(f[0, 0]) - 1.0) < 1e-12
    # no eigenvalue 1 anywhere: full space
    t2 = CommutingTuple("unitary", np.array([np.diag([-1.0, 1j, -1j])]))
    assert F_subspace(t2).shape[1] == 3


def test_F_subspace_two_routes():
    t = gen_random_commuting(17, 2, 5, "unitary")
    f = F_subspace(t)
    kernels = []
    for a in t.mats:
        w, v = np.linalg.eig(a)
        kernels.append(v[:, np.abs(w - 1.0) <= 1e-8])
    kmat = np.hstack(kernels)
    if kmat.shape[1]:
        u_, sv, _ = np.linalg.svd(kmat)
        r = int(np.sum(sv > 1e-8))
        pk = u_[:, :r] @ u_[:, :r].conj().T
    else:
        pk = np.zeros((5, 5), dtype=complex)
    assert fro(f @ f.conj().T - (np.eye(5) - pk)) <= 1e-8


def test_canonical_rep_idempotent_and_fixed():
    t = gen_random_commuting(23, 2, 4, "unitary")
    c1 = canonical_rep(t)
    c2 = canonical_rep(c1)
    assert max(fro(a - b) for a, b in zip(c1.mats, c2.mats)) < 1e-10
    # tuples with no eigenvalue 1 are already canonical
    t2 = CommutingTuple("unitary", np.array([np.diag([-1.0, 1j])]))
    assert fro(canonical_rep(t2).mats[0] - t2.mats[0]) < 1e-12
    ident = identity_tuple(2, 3)
    assert fro(canonical_rep(ident).mats[0] - np.eye(3)) < 1e-12


@pytest.mark.parametrize("kind", ["skew_hermitian", "real_symmetric"])
def test_canonical_rep_refuses_lie_kind_tuples(kind):
    # a Lie-kind value near 1 means nothing, so there is no F to restrict to
    scale = 1j if kind == "skew_hermitian" else 1
    t = CommutingTuple(kind, scale * np.diag([1, 2, 1 + 5e-10])[None])
    unitary = identity_tuple(1, 3)
    message = f"expected a unitary tuple, got {kind}"
    for call in (lambda: canonical_rep(t),
                 lambda: canonical_rep(t, spectrum=joint_diagonalize(t)),
                 lambda: class_distance(t, unitary), lambda: class_distance(unitary, t)):
        with pytest.raises(ValueError, match=message):
            call()


def test_canonical_rep_constant_on_classes():
    # two representatives differing only on the kernel directions
    a1 = np.diag([-1.0, 1.0, 1.0]).astype(complex)
    t1 = CommutingTuple("unitary", np.array([a1]))
    t2 = CommutingTuple("unitary", np.array([a1 @ np.diag([1.0, 1.0, np.exp(0.7j)])]))
    assert class_distance(t1, t2) > 0.1  # different classes: kernel changed
    assert not class_distance(t1, t2) <= DEFAULT_TOL.eps_struct
    # same class: both components act through the same values on the common
    # complement of the joint kernel, and keep 1 as a value on it
    s1 = CommutingTuple("unitary", np.array([
        np.diag([-1.0, np.exp(0.3j), 1.0]), np.diag([1j, 1.0, 1.0])]))
    s2 = CommutingTuple("unitary", np.array([
        np.diag([-1.0, np.exp(0.3j), 1.0]), np.diag([1j, 1.0, 1.0])]))
    assert class_distance(s1, s2) <= DEFAULT_TOL.eps_struct
    # changing a component on the joint kernel sum stays in the class: in s1
    # the second and third coordinates carry a value 1 somewhere, so the
    # first component may move there freely
    kernel_moved = CommutingTuple("unitary", np.array([
        np.diag([-1.0, np.exp(0.9j), 1.0]), np.diag([1j, 1.0, 1.0])]))
    assert class_distance(s1, kernel_moved) <= DEFAULT_TOL.eps_struct
    # changing a component on F is detected
    f_moved = CommutingTuple("unitary", np.array([
        np.diag([-1.0, np.exp(0.3j), 1.0]), np.diag([-1j, 1.0, 1.0])]))
    assert not class_distance(s1, f_moved) <= DEFAULT_TOL.eps_struct


def test_config_to_commuting_single_label():
    u = UniverseBasis(2, 1)  # dimension 3
    eye = np.eye(u.dim, dtype=complex)
    c = canonicalize(Configuration(u, [Label(eye[:, [0]], SpherePoint([-1.0, 1j]))]))
    t = config_to_commuting(c)
    assert fro(t.mats[0] - np.diag([-1.0, 1.0, 1.0])) < 1e-12
    assert fro(t.mats[1] - np.diag([1j, 1.0, 1.0])) < 1e-12
    assert F_subspace(t).shape[1] == rank(c) == 1
    # inverse direction recovers the label
    back = commuting_to_config(t)
    assert config_distance(c, back) < 1e-10


def test_empty_config_gives_identities():
    u = UniverseBasis(2, 1)
    t = config_to_commuting(Configuration(u, []))
    assert all(fro(m - np.eye(u.dim)) < 1e-14 for m in t.mats)
    assert commuting_to_config(t).k == 0


@pytest.mark.parametrize("n,D", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_config_blocks_are_the_in_F_blocks_of_the_configuration_tuple(n, D):
    u = UniverseBasis(n, D)
    configs = [Configuration(u, [])] + [
        gen_random_config(seed, u, max_labels=3, max_rank=min(u.dim, 6)) for seed in range(12)]
    widths = []
    for c in configs:
        spectrum = config_spectrum(c)
        assert spectrum.Q is None and spectrum.tol == DEFAULT_TOL
        assert np.array_equal(spectrum.t.mats, config_to_commuting(c).mats)
        got = spectrum.blocks
        want = [b for b in joint_diagonalize(spectrum.t).blocks if b.in_F]
        assert len(got) == len(want) == c.k
        for g, w in zip(got, want):
            assert g.in_F and np.max(np.abs(g.frame - phase_normalize(g.frame))) <= 1e-15
            proj = g.frame @ g.frame.conj().T - w.frame @ w.frame.conj().T
            assert np.max(np.abs(proj)) <= 1e-12
            assert np.max(np.abs(g.values - w.values)) <= 1e-12
            widths.append(g.frame.shape[1])
    assert max(widths) > 1  # some label spans more than one column


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_random(seed):
    u = UniverseBasis(2, 2)
    c = gen_random_config(seed, u, max_labels=3, max_rank=5)
    t = config_to_commuting(c)
    back = commuting_to_config(t)
    assert config_distance(c, back) <= 1e-6


def test_clustering_threshold_behaviour():
    # value tuples closer than eps_cluster merge into one block; clearly
    # separated ones stay apart
    close = np.diag([np.exp(1j * 1.0), np.exp(1j * (1.0 + 5e-7)), -1.0])
    t = CommutingTuple("unitary", np.array([close]))
    _, blocks = joint_diagonalize(t)
    assert sorted(b.frame.shape[1] for b in blocks) == [1, 2]
    apart = np.diag([np.exp(1j * 1.0), np.exp(1j * (1.0 + 1e-4)), -1.0])
    _, blocks2 = joint_diagonalize(CommutingTuple("unitary", np.array([apart])))
    assert sorted(b.frame.shape[1] for b in blocks2) == [1, 1, 1]


def test_eigenvalues_on_unit_torus():
    t = gen_random_commuting(31, 3, 5, "unitary")
    _, blocks = joint_diagonalize(t)
    for b in blocks:
        assert np.max(np.abs(np.abs(b.values) - 1.0)) <= 1e-6


def test_sigma_action_tuple_identity_and_composition():
    u = UniverseBasis(3, 1)
    c = gen_random_config(41, u, max_labels=2, max_rank=3)
    t = config_to_commuting(c)
    ident = sigma_action_tuple([0, 1, 2], t)
    assert max(fro(a - b) for a, b in zip(ident.mats, t.mats)) < 1e-13
    sigma, tau = [1, 2, 0], [0, 2, 1]
    comp = [sigma[tau[j]] for j in range(3)]
    lhs = sigma_action_tuple(sigma, sigma_action_tuple(tau, t))
    rhs = sigma_action_tuple(comp, t)
    assert class_distance(lhs, rhs) < 1e-10


@pytest.mark.parametrize("sigma", [[1, 0, 2], [1, 2, 0], [2, 0, 1]])
def test_sigma_action_intertwines_configurations(sigma):
    u = UniverseBasis(3, 1)
    c = gen_random_config(43, u, max_labels=2, max_rank=3)
    t = config_to_commuting(c)
    lhs = sigma_action_tuple(sigma, t)
    rhs = config_to_commuting(sigma_action_config(sigma, c))
    assert class_distance(lhs, rhs) <= 1e-8


def _loop_config_to_commuting(c):
    # the per-coordinate loop before the stacked sum
    t = identity_tuple(c.universe.n, c.universe.dim, c.universe)
    for lab in c.labels:
        if lab.point.is_basepoint:
            continue
        proj = lab.frame @ lab.frame.conj().T
        for j in range(c.universe.n):
            t.mats[j] += (lab.point.coords[j] - 1.0) * proj
    return t


def _loop_sigma_action_tuple(sigma, t):
    # one conjugation by the permutation per component, before the one
    # indexed assignment
    perm, inv = sigma_star(sigma, t.ambient), perm_inverse(sigma)
    mats = []
    for j in range(t.n):
        out = np.empty_like(t.mats[j])
        out[np.ix_(perm, perm)] = t.mats[inv[j]]
        mats.append(out)
    return CommutingTuple(t.kind, np.array(mats), t.ambient)


def _stack_configs(u):
    # random canonical configurations, the empty one, and a live label beside
    # a basepoint label
    eye = np.eye(u.dim, dtype=complex)
    live = Label(eye[:, :1], SpherePoint(np.exp(1j * np.arange(1, u.n + 1))))
    return ([Configuration(u, []), Configuration(u, [live, Label(eye[:, 1:], BASEPOINT)])]
            + [gen_random_config(seed, u, max_labels=3, max_rank=min(u.dim, 6))
               for seed in range(8)])


def _same_tuple(got, want):
    return (got.kind == want.kind and got.ambient == want.ambient
            and got.mats.dtype == want.mats.dtype and got.mats.shape == want.mats.shape
            and got.mats.tobytes() == want.mats.tobytes())


@pytest.mark.parametrize("n,D", [(n, D) for n in range(1, 5) for D in range(1, 4)])
def test_config_to_commuting_is_the_per_coordinate_loop(n, D):
    for c in _stack_configs(UniverseBasis(n, D)):
        assert _same_tuple(config_to_commuting(c), _loop_config_to_commuting(c))


@pytest.mark.parametrize("n,D", [(n, D) for n in range(1, 4) for D in range(1, 4)])
def test_sigma_action_tuple_is_the_per_component_conjugation(n, D):
    u = UniverseBasis(n, D)
    tuples = [config_to_commuting(c) for c in _stack_configs(u)[1:4]] + [
        CommutingTuple(kind, gen_random_commuting(5, n, u.dim, kind).mats, u) for kind in KINDS]
    for sigma in itertools.permutations(range(n)):
        for t in tuples:
            assert _same_tuple(sigma_action_tuple(list(sigma), t),
                               _loop_sigma_action_tuple(list(sigma), t))


@pytest.mark.parametrize("length", [1, 3])
def test_config_to_commuting_rejects_a_point_of_the_wrong_length(length):
    # a point needs one coordinate per component, neither fewer nor more
    u = UniverseBasis(2, 1)
    frame = np.eye(u.dim, dtype=complex)[:, :1]
    c = Configuration(u, [Label(frame, SpherePoint(-np.ones(length)))])
    with pytest.raises(ValueError):
        config_to_commuting(c)


def _reference_joint_diagonalize(t, tol=DEFAULT_TOL):
    # the tail before the one-pass rewrite: one np.mean and one fancy index
    # per group
    t.validate(tol)
    comps = commodel._hermitian_components(t)
    scale = max((fro(a) for a in t.mats), default=0.0)
    q = numkit.joint_diagonalizer(comps, off_target=1e-12 * scale)
    diag = q.conj().T @ t.mats @ q
    resid = off_norm(diag)
    if resid > 1e-8 * max(scale, 1e-300):
        raise NoConvergence(f"joint residual {resid:.3e} for tuple of size {t.s}")
    vals = np.diagonal(diag, axis1=1, axis2=2)
    close = np.max(np.abs(vals[:, :, None] - vals[:, None, :]), axis=0,
                   initial=0.0) < tol.eps_cluster
    near = np.zeros(t.s, dtype=bool)
    if t.kind == "unitary":
        near = near_basepoint_rows(vals.T, tol.eps_base)
        side = np.where((vals.real > 0) & ~near, np.sign(vals.imag), 0.0)
        close &= (near[:, None] == near) & ~np.any(side[:, :, None] * side[:, None] < 0, axis=0)
    frames = phase_normalize(q, tol)
    groups = single_linkage(close)
    means = np.array([vals[:, cols].mean(axis=1) for cols in groups]).reshape(len(groups), t.n)
    first = numkit.leading_rows(frames, tol).tolist()
    order = frame_order([min(first[c] for c in cols) for cols in groups], means)
    in_f = (~near).tolist()
    return q, [commodel.EigenBlock(frames[:, groups[i]], means[i], all(in_f[c] for c in groups[i]))
               for i in order]


def _conjugated(kind, diag_mats, seed):
    """The diagonal stack conjugated by a Haar unitary (orthogonal for a real kind)."""
    s = diag_mats.shape[-1]
    u = (haar_orthogonal if kind == "real_symmetric" else haar_unitary)(SplitMix64(seed), s)
    return CommutingTuple(kind, u @ diag_mats @ u.conj().T)


def _one_pass_cases():
    cases = {}
    for kind in ("unitary", "skew_hermitian", "real_symmetric"):
        cases[f"{kind}-singletons"] = gen_random_commuting(3, 2, 12, kind)
        cases[f"{kind}-s1"] = gen_random_commuting(4, 2, 1, kind)
        cases[f"{kind}-n0"] = CommutingTuple(kind, np.zeros((0, 3, 3)))
        cases[f"{kind}-n0-s9"] = CommutingTuple(kind, np.zeros((0, 9, 9)))
        # numpy sums up to 128 floats of a row in one block and splits a longer
        # row recursively: 70 complex or 130 real values take that path
        wide = [130, 1] if kind == "real_symmetric" else [70, 1]
        for parts in ([2, 3, 4, 5, 6, 7, 1], [8, 1], [9, 2, 1], [12, 3, 3, 1, 1], [7, 7], [4],
                      wide):
            cases[f"{kind}-parts{parts}"] = gen_partition_tuple(5, 2, parts, kind=kind)
        for seed in range(6):
            rng = SplitMix64(seed)
            parts = [1 + rng.randint(0, 10) for _ in range(1 + rng.randint(0, 5))]
            cases[f"{kind}-random{seed}"] = gen_partition_tuple(seed, 1 + seed % 3, parts,
                                                                kind=kind)
    # columns at and within eps_base of 1 beside clusters and singletons, in a
    # dense frame (every leading row 0, so the order falls to the values)
    phases = np.array([[0.0, 0.0, 0.0, 1e-10, 0.5, 0.5, 1.1, 2.0, 2.0 + 3e-7, -2.5],
                       [0.0, 0.0, 0.0, 0.0, 0.7, 0.7, -1.3, 0.4, 0.4, 3.0]])
    diag = np.exp(1j * phases)[:, :, None] * np.eye(10)
    cases["unitary-near-basepoint"] = _conjugated("unitary", diag, 11)
    cases["unitary-near-basepoint-diagonal"] = CommutingTuple("unitary", diag)
    # a Lie kind has no cut at 1: a block holding values on both sides of 1
    # lies in F
    values = np.array([[1.0, 1.0 + 5e-7, 1.0 + 9e-7, 2.0, 2.0, -3.0]])
    cases["real_symmetric-straddles-the-cut"] = _conjugated(
        "real_symmetric", values[:, :, None] * np.eye(6), 12)
    # diagonal tuples: the frames are unit columns, so leading rows are the
    # column indices; a negative zero survives into the values of these
    for name, imag in (("singletons", [1.0, -0.0]), ("pair", [-0.0, -0.0]),
                       ("triple", [-0.0, -0.0, -0.0])):
        cases[f"skew_hermitian-negative-zero-{name}"] = CommutingTuple(
            "skew_hermitian", np.diag([complex(-0.0, y) for y in imag])[None])
    return cases


_ONE_PASS_CASES = _one_pass_cases()


@pytest.mark.parametrize("name", sorted(_ONE_PASS_CASES))
def test_joint_diagonalize_matches_the_reference_bit_for_bit(name):
    t = _ONE_PASS_CASES[name]
    q, blocks = joint_diagonalize(t)
    q_ref, expect = _reference_joint_diagonalize(t)
    assert q.tobytes() == q_ref.tobytes()
    assert len(blocks) == len(expect)
    for got, ref in zip(blocks, expect):
        assert got.frame.dtype == ref.frame.dtype and got.frame.shape == ref.frame.shape
        assert got.frame.flags.c_contiguous
        assert got.frame.tobytes() == ref.frame.tobytes()
        assert got.values.dtype == ref.values.dtype and got.values.shape == ref.values.shape
        assert got.values.tobytes() == ref.values.tobytes()
        assert got.in_F is ref.in_F


def test_the_one_pass_cases_reach_every_branch():
    # groups of every size from 1 to 9 and one above numpy's 128-float
    # pairwise block, off-F blocks and negative zeros
    sizes, in_f, negative_zero = set(), set(), False
    for t in _ONE_PASS_CASES.values():
        q, blocks = _reference_joint_diagonalize(t)
        sizes.update(b.frame.shape[1] for b in blocks)
        in_f.update((t.kind, b.in_F) for b in blocks)
        vals = np.diagonal(q.conj().T @ t.mats @ q, axis1=1, axis2=2).copy()
        parts = vals.view(float) if vals.dtype.kind == "c" else vals
        negative_zero |= bool(np.any((parts == 0) & np.signbit(parts)))
    assert set(range(1, 10)) <= sizes
    assert {70, 130} <= sizes
    # only a unitary tuple has blocks off F
    assert ("unitary", False) in in_f
    assert not {("skew_hermitian", False), ("real_symmetric", False)} & in_f
    # a -0.0 reaches the values only through a BLAS product that keeps it
    assert negative_zero or not _kernel_keeps_negative_zero()


def _kernel_keeps_negative_zero():
    """Whether q^H A q keeps a -0.0 real part of A's diagonal for the unit q:
    OpenBLAS's SkylakeX zgemm does, and its Haswell, SandyBridge and Prescott
    kernels do not."""
    a = np.diag([complex(-0.0, 1.0), complex(-0.0, -0.0)])[None]
    q = np.eye(2, dtype=complex)
    vals = (q.conj().T @ a @ q).diagonal(axis1=1, axis2=2).copy().view(float)
    return bool(((vals == 0) & np.signbit(vals)).any())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["unitary", "skew_hermitian", "real_symmetric"]),
       st.integers(0, 3), st.lists(st.integers(1, 10), min_size=1, max_size=6),
       st.integers(0, 2**16))
def test_joint_diagonalize_matches_the_reference_on_partitions(kind, n, parts, seed):
    t = gen_partition_tuple(seed, n, parts, kind=kind) if n else CommutingTuple(
        kind, np.zeros((0, sum(parts), sum(parts))))
    q, blocks = joint_diagonalize(t)
    _, expect = _reference_joint_diagonalize(t)
    assert [(b.frame.tobytes(), b.values.tobytes(), b.in_F) for b in blocks] == \
        [(b.frame.tobytes(), b.values.tobytes(), b.in_F) for b in expect]


@pytest.mark.parametrize("dtype", [float, complex])
def test_group_reduce_matches_per_group_np_mean_min_and_all(dtype):
    # signed zeros and values of mixed magnitude, in groups of every size up
    # to 10 and, every tenth trial, up to 140, past numpy's 128-float
    # pairwise block, and all singletons
    rng = np.random.default_rng(3)
    entries = np.array([-0.0, 0.0, -1.5, 2.25, 1e-300, -5e-324, 3.0, 0.1, -0.7])
    for trial in range(300):
        top = 141 if trial % 10 == 9 else 11
        n, sizes = trial % 4, rng.integers(1, top, size=rng.integers(1, 7)).tolist()
        s = sum(sizes)
        vals = np.zeros((n, s), dtype)
        parts = vals.reshape(-1).view(float)
        parts[:] = rng.choice(entries, size=parts.size)
        lead, in_f = rng.integers(0, 5, size=s), rng.random(s) < 0.8
        cols = rng.permutation(s).tolist()
        # as single_linkage lists them: members increasing, groups by their first
        groups = sorted(sorted(cols[a:a + w]) for a, w in zip(np.cumsum([0] + sizes[:-1]), sizes))
        for groups in (groups, [[c] for c in range(s)]):
            means, got_lead, got_in_f = commodel._group_reduce(vals, groups, lead, in_f)
            expect = np.array([vals[:, g].mean(axis=1) for g in groups]).reshape(len(groups), n)
            assert means.dtype == expect.dtype and means.shape == expect.shape
            assert means.flags.c_contiguous
            assert means.tobytes() == expect.tobytes(), (trial, groups)
            assert got_lead.tolist() == [min(lead[g]) for g in groups]
            assert got_in_f.tolist() == [bool(all(in_f[g])) for g in groups]


@pytest.mark.parametrize("build", [
    lambda u: sigma_action_tuple([1, 0], identity_tuple(1, 3, u)),  # too few components
    lambda u: CommutingTuple("unitary", np.broadcast_to(np.eye(5), (2, 5, 5)), u),  # too large
    lambda u: commuting_to_config(identity_tuple(2, 5, u)),
    lambda u: CommutingTuple("skew_hermitian", np.zeros((3, 3, 3)), u),
], ids=["sigma_action-n1", "stack-s5", "commuting_to_config-s5", "stack-n3"])
def test_a_stack_that_does_not_fit_its_ambient_universe_is_named(build):
    # UniverseBasis(2, 1) is 2 coordinates on a dim-3 space: at the parent the
    # first case raised a bare IndexError, the second a broadcast ValueError
    # in sigma_action_tuple, the third NotOrthogonal
    with pytest.raises(ShapeMismatch, match=r"stack \(\d, \d, \d\) does not match ambient "
                                            r"UniverseBasis\(n=2, D=1, dim=3\)"):
        build(UniverseBasis(2, 1))


def test_a_stack_that_fits_its_ambient_universe_is_kept():
    u = UniverseBasis(2, 1)
    t = sigma_action_tuple([1, 0], identity_tuple(2, 3, u))
    assert t.ambient == u and commuting_to_config(t).labels == []
    assert CommutingTuple("unitary", np.zeros((0, 3, 3)), None).ambient is None
