import itertools
import math

import numpy as np
import pytest

from commvar.commodel import CommutingTuple, sigma_action_tuple
from commvar.numkit import fro
from commvar.rng import SplitMix64
from commvar.symuniverse import (
    UniverseBasis,
    apply_perm_to_coords,
    j0,
    perm_inverse,
    psi_embed,
    sigma_star,
)


def permute_multi_index(sigma, alpha) -> tuple[int, ...]:
    """(sigma . alpha)_j = alpha_{sigma^{-1}(j)}: the per-monomial oracle for sigma_star."""
    return tuple(alpha[j] for j in perm_inverse(sigma))


@pytest.mark.parametrize("n,D", [(1, 1), (2, 2), (3, 1), (2, 3), (4, 2)])
def test_dimension_binomial(n, D):
    u = UniverseBasis(n, D)
    assert u.dim == math.comb(n + D, n)
    assert len(set(u.monomials)) == u.dim


def test_monomial_order():
    u = UniverseBasis(2, 2)
    assert u.monomials[0] == (0, 0)
    degrees = [sum(a) for a in u.monomials]
    assert degrees == sorted(degrees)
    # graded lex within degree 2: x^2 before xy before y^2
    assert u.index[(2, 0)] < u.index[(1, 1)] < u.index[(0, 2)]


def test_norms_are_factorials():
    u = UniverseBasis(2, 3)
    assert u.norms_sq[u.index[(0, 0)]] == 1
    assert u.norms_sq[u.index[(2, 0)]] == 2
    assert u.norms_sq[u.index[(2, 1)]] == 2
    assert u.norms_sq[u.index[(3, 0)]] == 6


def test_psi_degree_zero_and_concatenation():
    u = UniverseBasis(1, 1)
    v = UniverseBasis(1, 1)
    psi = psi_embed(u, v)
    # 1 (x) 1 -> 1
    assert psi.pair_index[u.index[(0,)], v.index[(0,)]] == psi.target.index[(0, 0)]
    # e1 (x) e1' -> the (1,1) monomial, norm preserved: (1,1)! = 1
    tgt = psi.pair_index[u.index[(1,)], v.index[(1,)]]
    assert tgt == psi.target.index[(1, 1)]
    assert psi.target.norms_sq[tgt] == 1


def test_psi_degree_two_norm():
    u = UniverseBasis(1, 2)
    v = UniverseBasis(1, 2)
    psi = psi_embed(u, v)
    # e1^2/sqrt(2) (x) 1 -> x^2/sqrt(2): target norm squared is 2! = 2
    tgt = psi.pair_index[u.index[(2,)], v.index[(0,)]]
    assert psi.target.norms_sq[tgt] == 2
    assert u.norms_sq[u.index[(2,)]] == 2


def test_psi_exact_isometry_and_bijectivity():
    u = UniverseBasis(2, 2)
    v = UniverseBasis(1, 1)
    psi = psi_embed(u, v)
    seen = set()
    for i, a in enumerate(u.monomials):
        for k, b in enumerate(v.monomials):
            t = psi.pair_index[i, k]
            assert t >= 0
            # (alpha, beta)! = alpha! beta!, the exact isometry identity
            assert psi.target.norms_sq[t] == u.norms_sq[i] * v.norms_sq[k]
            seen.add(int(t))
    assert len(seen) == u.dim * v.dim
    # image is exactly the bidegree <= (D_u, D_v) monomials
    expect = {
        psi.target.index[m]
        for m in psi.target.monomials
        if sum(m[: u.n]) <= u.D and sum(m[u.n:]) <= v.D
    }
    assert seen == expect


def test_psi_isometry_on_random_vectors():
    rng = SplitMix64(5)
    u = UniverseBasis(2, 1)
    v = UniverseBasis(2, 1)
    psi = psi_embed(u, v)
    a, b = rng.complex_normals(u.dim), rng.complex_normals(u.dim)
    c, d = rng.complex_normals(v.dim), rng.complex_normals(v.dim)
    lhs = np.vdot(psi.kron_frame(a[:, None], c[:, None]), psi.kron_frame(b[:, None], d[:, None]))
    rhs = np.vdot(a, b) * np.vdot(c, d)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_sigma_star_identity_and_example():
    u = UniverseBasis(2, 3)
    ident = sigma_star([0, 1], u)
    assert np.all(ident == np.arange(u.dim))
    swap = sigma_star([1, 0], u)
    # x1 x2^2 has multi-index (1, 2) and maps to (2, 1)
    assert swap[u.index[(1, 2)]] == u.index[(2, 1)]
    # the scalar line is fixed by every permutation
    assert swap[u.index[(0, 0)]] == u.index[(0, 0)]


def test_sigma_star_homomorphism():
    u = UniverseBasis(3, 2)
    sigma = [1, 2, 0]
    tau = [0, 2, 1]
    comp = [sigma[tau[j]] for j in range(3)]
    assert np.all(sigma_star(comp, u) == sigma_star(sigma, u)[sigma_star(tau, u)])


def test_permute_multi_index_left_action():
    sigma = [1, 2, 0]
    tau = [0, 2, 1]
    alpha = (5, 7, 9)
    comp = tuple(sigma[tau[j]] for j in range(3))
    via = permute_multi_index(sigma, permute_multi_index(tau, alpha))
    assert via == permute_multi_index(comp, alpha)


def test_psi_equivariance():
    u = UniverseBasis(2, 1)
    v = UniverseBasis(2, 1)
    psi = psi_embed(u, v)
    sigma, tau = [1, 0], [1, 0]
    rho = sigma + [u.n + t for t in tau]
    ps, pt = sigma_star(sigma, u), sigma_star(tau, v)
    pr = sigma_star(rho, psi.target)
    for i in range(u.dim):
        for k in range(v.dim):
            assert pr[psi.pair_index[i, k]] == psi.pair_index[ps[i], pt[k]]


def test_perm_helpers_roundtrip():
    rng = SplitMix64(8)
    u = UniverseBasis(2, 2)
    perm = sigma_star([1, 0], u)
    vec = rng.complex_normals(u.dim)
    moved = apply_perm_to_coords(perm, vec)
    assert np.allclose(moved[perm], vec)
    # component j of the action is P A_{sigma^{-1}(j)} P^T; [1, 0] is its own inverse
    a = rng.complex_normals(2, u.dim, u.dim)
    b = sigma_action_tuple([1, 0], CommutingTuple("unitary", a, u)).mats
    p = np.zeros((u.dim, u.dim))
    p[perm, np.arange(u.dim)] = 1.0
    assert fro(b[0] - p @ a[1] @ p.T) < 1e-13 and fro(b[1] - p @ a[0] @ p.T) < 1e-13


def test_j0():
    u = UniverseBasis(1, 2)
    f = j0(u)
    assert f.shape == (u.dim, 1)
    assert f[u.index[(0,)], 0] == 1.0
    assert abs(np.vdot(f[:, 0], f[:, 0]) - 1.0) < 1e-15
    # composed with psi: alpha concatenates with the zero index
    v = UniverseBasis(2, 1)
    psi = psi_embed(v, u)
    for i, alpha in enumerate(v.monomials):
        vec = np.zeros(v.dim, dtype=complex)
        vec[i] = 1.0
        out = psi.kron_frame(vec[:, None], f)[:, 0]
        assert out[psi.target.index[alpha + (0,)]] == 1.0


def _filter_and_sort_monomials(n, D):
    """Reference enumeration: every exponent tuple of (D + 1)^n with degree
    <= D, sorted by degree and then by descending lexicographic order."""
    alphas = [a for a in itertools.product(range(D + 1), repeat=n) if sum(a) <= D]
    alphas.sort(key=lambda a: (sum(a), tuple(-e for e in a)))
    return tuple(alphas)


def test_monomials_match_filter_and_sort():
    for n in range(1, 7):
        for D in range(5):
            assert UniverseBasis(n, D).monomials == _filter_and_sort_monomials(n, D)


def test_universe_data_is_shared_and_read_only():
    u, v = UniverseBasis(2, 2), UniverseBasis(2, 2)
    assert u.monomials is v.monomials and u.index is v.index
    with pytest.raises(TypeError):
        u.index[(9, 9)] = 0
    psi = psi_embed(u, UniverseBasis(1, 1))
    assert psi.pair_index.flags.writeable is False
    with pytest.raises(ValueError):
        psi.pair_index[0, 0] = 5


def test_sigma_star_matches_per_monomial_form():
    # the per-monomial dict lookup that one searchsorted of codes replaced
    for n, D in itertools.product(range(1, 5), range(4)):
        u = UniverseBasis(n, D)
        for sigma in itertools.permutations(range(n)):
            expect = [u.index[permute_multi_index(sigma, a)] for a in u.monomials]
            assert sigma_star(list(sigma), u).tolist() == expect


def test_sigma_star_codes_beyond_int64():
    # (D + 1)^n = 2^64 overflows int64, so the codes are Python integers
    u = UniverseBasis(64, 1)
    sigma = list(range(1, 64)) + [0]
    expect = [u.index[permute_multi_index(sigma, a)] for a in u.monomials]
    assert sigma_star(sigma, u).tolist() == expect


@pytest.mark.parametrize("ka,kb", [(1, 1), (2, 3), (3, 0), (4, 2)])
def test_kron_frame_matches_np_kron(ka, kb):
    rng = SplitMix64(11)
    u, v = UniverseBasis(3, 2), UniverseBasis(2, 2)
    psi = psi_embed(u, v)
    f = rng.complex_normals(u.dim, ka)
    g = rng.complex_normals(v.dim, kb)
    out = psi.kron_frame(f, g)
    assert out.shape == (psi.target.dim, ka * kb)
    # rows of np.kron run over pairs (i, k) as i * v.dim + k, like pair_index
    assert np.array_equal(out[psi.pair_index.reshape(-1)], np.kron(f, g))


def _reference_kron_frame(psi, f, g):
    # the same scatter through the (left.dim, right.dim) pair index, with the
    # products kept in that shape
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    w = (f[:, None, :, None] * g[None, :, None, :]).reshape(
        f.shape[0], g.shape[0], f.shape[1] * g.shape[1])
    out = np.zeros((psi.target.dim, w.shape[2]), dtype=complex)
    out[psi.pair_index] = w
    return out


@pytest.mark.parametrize("shapes", [((3, 2), (2, 2)), ((3, 2), (3, 2)), ((1, 1), (2, 3))])
def test_kron_frame_matches_the_reference_bit_for_bit(shapes):
    rng = np.random.default_rng(5)
    u, v = (UniverseBasis(*nd) for nd in shapes)
    psi = psi_embed(u, v)
    for ka, kb in [(1, 1), (2, 3), (3, 0), (0, 2), (4, 2)]:
        f = rng.normal(size=(u.dim, ka)) + 0j
        g = rng.normal(size=(v.dim, kb)) + 1j * rng.normal(size=(v.dim, kb))
        out, expect = psi.kron_frame(f, g), _reference_kron_frame(psi, f, g)
        assert out.dtype == expect.dtype and out.shape == expect.shape
        assert out.tobytes() == expect.tobytes()


_SMALL_UNIVERSES = [UniverseBasis(n, D) for n in range(1, 4) for D in range(3)]


@pytest.mark.parametrize("u", _SMALL_UNIVERSES, ids=repr)
def test_kron_frame_is_np_kron_scattered_by_the_pair_index(u):
    rng = np.random.default_rng(7)
    for v in _SMALL_UNIVERSES:
        psi = psi_embed(u, v)
        f = rng.normal(size=(u.dim, 2)) + 1j * rng.normal(size=(u.dim, 2))
        g = rng.normal(size=(v.dim, 3)) + 1j * rng.normal(size=(v.dim, 3))
        expect = np.zeros((psi.target.dim, 6), dtype=complex)
        expect[psi.pair_index.reshape(-1)] = np.kron(f, g)
        out = psi.kron_frame(f, g)
        assert out.dtype == expect.dtype and out.tobytes() == expect.tobytes()
        # the pair image is the bidegree <= (u.D, v.D) monomials, hit once
        # each; every other row is zero
        image = {i for i, a in enumerate(psi.target.monomials)
                 if sum(a[:u.n]) <= u.D and sum(a[u.n:]) <= v.D}
        assert sorted(psi.pair_index.reshape(-1).tolist()) == sorted(image)
        rest = [i for i in range(psi.target.dim) if i not in image]
        assert not out[rest].any()


def test_kron_frame_scatter_is_cached_and_read_only():
    u = UniverseBasis(2, 2)
    psi = psi_embed(u, u)
    assert psi_embed(u, UniverseBasis(2, 2)).pair_index is psi.pair_index
    assert psi.pair_index.shape == (u.dim, u.dim) and psi.pair_index.min() >= 0
    assert psi.pair_index.flags.writeable is False
    with pytest.raises(ValueError):
        psi.pair_index[0, 0] = 0


def test_kron_frame_rejects_frames_of_the_wrong_universes():
    # 6 x 3 = 3 x 6 rows: swapped factors fit the flat scatter, and are refused
    u, v = UniverseBasis(2, 2), UniverseBasis(2, 1)
    psi = psi_embed(u, v)
    f, g = np.ones((u.dim, 1)), np.ones((v.dim, 1))
    assert psi.kron_frame(f, g).shape == (psi.target.dim, 1)
    with pytest.raises(ValueError, match="frame rows"):
        psi.kron_frame(g, f)


def test_universe_hash_and_repr():
    assert hash(UniverseBasis(2, 2)) == hash(UniverseBasis(2, 2))
    assert repr(UniverseBasis(2, 2)) == "UniverseBasis(n=2, D=2, dim=6)"
