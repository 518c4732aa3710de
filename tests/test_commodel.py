import numpy as np
import pytest

from commvar import numkit
from commvar.commodel import (
    CommutingTuple,
    F_subspace,
    canonical_rep,
    class_distance,
    commuting_to_config,
    config_to_commuting,
    identity_tuple,
    joint_diagonalize,
    sigma_action_tuple,
    tuples_equivalent,
)
from commvar.errors import NotCommuting, NotUnitary
from commvar.gammaconf import (
    Configuration,
    Label,
    SpherePoint,
    canonicalize,
    config_distance,
    rank,
    sigma_action_config,
)
from commvar.generate import gen_partition_tuple, gen_random_commuting, gen_random_config
from commvar.isodecomp import block_type
from commvar.numkit import DEFAULT_TOL, fro, off_norm, stack_off_norm
from commvar.rng import SplitMix64, haar_unitary
from commvar.symuniverse import UniverseBasis


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
    diag = np.einsum("ab,kbc,cd->kad", q.conj().T, t.mats, q)
    res = np.sqrt(sum(off_norm(d) ** 2 for d in diag))
    assert res <= 1e-8 * max(fro(a) for a in t.mats)


def _relative_joint_residual(t, q):
    diag = np.einsum("ab,kbc,cd->kad", q.conj().T, t.mats, q)
    return stack_off_norm(diag) / max(fro(a) for a in t.mats)


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
    q, blocks = joint_diagonalize(t)
    assert len(calls) == 1
    assert _relative_joint_residual(t, q) <= 1e-8
    assert block_type(blocks).parts == (1,) * 12


def _check_partition_tuple(seed, kind, parts):
    # one block of s/4, then pairs, then singletons
    t = gen_partition_tuple(seed, 2, parts, kind=kind)
    q, blocks = joint_diagonalize(t)
    assert _relative_joint_residual(t, q) <= 1e-8
    assert fro(q.conj().T @ q - np.eye(t.s)) <= 1e-12
    if kind == "real_symmetric":
        assert not np.iscomplexobj(q)
    assert block_type(blocks).parts == tuple(parts)


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


def test_canonical_rep_constant_on_classes():
    # two representatives differing only on the kernel directions
    a1 = np.diag([-1.0, 1.0, 1.0]).astype(complex)
    t1 = CommutingTuple("unitary", np.array([a1]))
    t2 = CommutingTuple("unitary", np.array([a1 @ np.diag([1.0, 1.0, np.exp(0.7j)])]))
    assert class_distance(t1, t2) > 0.1  # different classes: kernel changed
    assert not tuples_equivalent(t1, t2)
    # same class: both components act through the same values on the common
    # complement of the joint kernel, and keep 1 as a value on it
    s1 = CommutingTuple("unitary", np.array([
        np.diag([-1.0, np.exp(0.3j), 1.0]), np.diag([1j, 1.0, 1.0])]))
    s2 = CommutingTuple("unitary", np.array([
        np.diag([-1.0, np.exp(0.3j), 1.0]), np.diag([1j, 1.0, 1.0])]))
    assert tuples_equivalent(s1, s2)
    # changing a component on the joint kernel sum stays in the class: in s1
    # the second and third coordinates carry a value 1 somewhere, so the
    # first component may move there freely
    kernel_moved = CommutingTuple("unitary", np.array([
        np.diag([-1.0, np.exp(0.9j), 1.0]), np.diag([1j, 1.0, 1.0])]))
    assert tuples_equivalent(s1, kernel_moved)
    # changing a component on F is detected
    f_moved = CommutingTuple("unitary", np.array([
        np.diag([-1.0, np.exp(0.3j), 1.0]), np.diag([-1j, 1.0, 1.0])]))
    assert not tuples_equivalent(s1, f_moved)


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
