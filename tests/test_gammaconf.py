import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from commvar import gammaconf
from commvar.errors import IndexOutOfRange, NotOrthogonal, RankDeficient
from commvar.gammaconf import (
    BASEPOINT,
    Configuration,
    Label,
    SpherePoint,
    _cheapest_first,
    apply_based_map,
    _check_labels,
    canonicalize,
    config_distance,
    frame_distance,
    frame_order,
    push_labels,
    rank,
    sigma_action_config,
    single_linkage,
    smash,
    sphere_coord,
)
from commvar.generate import gen_random_config
from commvar.numkit import DEFAULT_TOL, fro, orthonormalize
from commvar.rng import SplitMix64, haar_unitary
from commvar.spectrumops import multiply, structure_map, unit_map
from commvar.symuniverse import UniverseBasis, psi_embed
from commvar.verify import RunConfig, run_suite


def _unit_labels(universe, *specs):
    """Labels from (column indices, coords) specs on the standard basis."""
    eye = np.eye(universe.dim, dtype=complex)
    out = []
    for cols, coords in specs:
        point = BASEPOINT if coords is None else SpherePoint(coords)
        out.append(Label(eye[:, list(cols)], point))
    return out


def point_distance(x: SpherePoint, y: SpherePoint) -> float:
    """Max per-coordinate distance; infinite across the basepoint divide."""
    if x.is_basepoint and y.is_basepoint:
        return 0.0
    if x.is_basepoint or y.is_basepoint:
        return math.inf
    if len(x.coords) != len(y.coords):
        return math.inf
    return float(np.max(np.abs(x.coords - y.coords))) if len(x.coords) else 0.0


def test_sphere_coord_values():
    assert sphere_coord(0.0) == pytest.approx(-1.0)
    # (i - 1)/(i + 1) = i by direct complex division
    assert sphere_coord(1.0) == pytest.approx(1j)
    assert sphere_coord(math.inf) == pytest.approx(1.0)
    for t in [-3.0, 0.25, 17.0]:
        assert abs(abs(sphere_coord(t)) - 1.0) < 1e-15


def test_canonicalize_drops_basepoint_and_empty():
    u = UniverseBasis(2, 1)
    c = Configuration(u, _unit_labels(u, ((0,), None)))
    assert canonicalize(c).k == 0
    near = SpherePoint([1.0 + 1e-12, -1.0])  # first coordinate within eps of 1
    c2 = Configuration(u, [Label(np.eye(u.dim, dtype=complex)[:, [0]], near)])
    assert canonicalize(c2).k == 0
    zero_dim = Configuration(u, [Label(np.zeros((u.dim, 0), dtype=complex),
                                       SpherePoint([-1.0, -1.0]))])
    assert canonicalize(zero_dim).k == 0


def test_canonicalize_merges_equal_points():
    u = UniverseBasis(2, 1)
    x = [-1.0, 1j]
    c = Configuration(u, _unit_labels(u, ((0,), x), ((1,), x)))
    out = canonicalize(c)
    assert out.k == 1
    assert out.labels[0].frame.shape[1] == 2
    assert rank(out) == 2


def test_single_linkage_chains_in_both_closeness_forms():
    # a ~ b ~ c with a and c more than eps_cluster apart, then d far away:
    # single linkage joins all of a, b, c through b
    eps = DEFAULT_TOL.eps_cluster
    vals = np.exp(1j * np.array([[2.0, 2.0 + 0.6 * eps, 2.0 + 1.2 * eps, 3.0],
                                 [1.0, 1.0, 1.0, 1.5]]))
    # the broadcast form of joint_diagonalize, on value columns
    broadcast = np.max(np.abs(vals[:, :, None] - vals[:, None, :]), axis=0) < eps
    # the pairwise form of canonicalize, on sphere points
    points = [SpherePoint(vals[:, i]) for i in range(4)]
    pairwise = np.zeros((4, 4), dtype=bool)
    for i in range(4):
        for j in range(i + 1, 4):
            pairwise[i, j] = point_distance(points[i], points[j]) < eps
    assert not broadcast[0, 2] and not pairwise[0, 2]
    assert single_linkage(broadcast) == single_linkage(pairwise) == [[0, 1, 2], [3]]
    # member order is increasing, cluster order by smallest member
    close = np.zeros((5, 5), dtype=bool)
    close[3, 4] = close[0, 4] = close[1, 2] = True
    assert single_linkage(close) == [[0, 3, 4], [1, 2]]
    assert single_linkage(np.zeros((0, 0), dtype=bool)) == []


def test_canonicalize_merges_a_chain():
    eps = DEFAULT_TOL.eps_cluster
    u = UniverseBasis(1, 3)
    args = [2.0, 2.0 + 0.6 * eps, 2.0 + 1.2 * eps, 3.0]
    c = Configuration(u, _unit_labels(u, *(((i,), [np.exp(1j * a)]) for i, a in enumerate(args))))
    out = canonicalize(c)
    assert sorted(lab.frame.shape[1] for lab in out.labels) == [1, 3]


def test_canonicalize_idempotent_and_orthogonality_error():
    u = UniverseBasis(2, 1)
    c = gen_random_config(4, u, max_labels=3, max_rank=3)
    again = canonicalize(c)
    assert config_distance(c, again) < 1e-13
    overlapping = Configuration(u, _unit_labels(
        u, ((0,), [-1.0, -1.0]), ((0, 1), [1j, -1.0])))
    with pytest.raises(NotOrthogonal):
        canonicalize(overlapping)


def test_rank_additive():
    u = UniverseBasis(2, 2)
    c = Configuration(u, _unit_labels(
        u, ((0, 1), [-1.0, -1.0]), ((2, 3, 4), [1j, -1j])))
    assert rank(canonicalize(c)) == 5
    assert rank(Configuration(u, [])) == 0
    # dropping a basepoint label drops its dimension
    c2 = Configuration(u, _unit_labels(
        u, ((0, 1), [-1.0, -1.0]), ((2, 3, 4), None)))
    assert rank(canonicalize(c2)) == 2


def test_apply_based_map_identity_and_delete():
    u = UniverseBasis(2, 1)
    c = canonicalize(Configuration(u, _unit_labels(
        u, ((0,), [-1.0, -1.0]), ((1,), [1j, -1.0]))))
    same = apply_based_map(c, [1, 2], 2)
    assert config_distance(c, same) < 1e-13
    gone = apply_based_map(c, [0, 0], 2)
    assert gone.k == 0


def test_apply_based_map_fold_on_equal_points():
    u = UniverseBasis(2, 1)
    x = [-1.0, 1j]
    c = canonicalize(Configuration(u, _unit_labels(u, ((0,), x), ((1,), x))))
    # canonicalize already merged the two labels; rebuild unmerged input
    c_raw = Configuration(u, _unit_labels(u, ((0,), x), ((1,), x)))
    folded = apply_based_map(c_raw, [1, 1], 1)
    assert folded.k == 1
    assert rank(folded) == 2
    assert config_distance(folded, c) < 1e-13


def test_apply_based_map_index_errors():
    u = UniverseBasis(2, 1)
    c = canonicalize(Configuration(u, _unit_labels(u, ((0,), [-1.0, -1.0]))))
    with pytest.raises(IndexOutOfRange):
        apply_based_map(c, [3], 2)
    with pytest.raises(IndexOutOfRange):
        apply_based_map(c, [1, 1], 2)


def test_push_labels_functorial():
    u = UniverseBasis(2, 1)
    x = [-1.0, 1j]
    labels = _unit_labels(u, ((0,), x), ((1,), x), ((2,), x))
    alpha = [1, 2, 1]
    beta = [2, 0]
    mid = push_labels(labels, alpha, 2, u.dim)
    two_step = canonicalize(Configuration(u, push_labels(mid, beta, 2, u.dim)))
    composed = [beta[a - 1] if a else 0 for a in alpha]
    direct = apply_based_map(Configuration(u, labels), composed, 2)
    assert config_distance(two_step, direct) < 1e-13


def test_push_labels_keeps_only_a_single_isometric_frame():
    u = UniverseBasis(2, 2)
    basis = haar_unitary(SplitMix64(31), u.dim)
    x, y = SpherePoint([-1.0, 1j]), SpherePoint([1j, -1j])
    near = basis[:, 3:5] + 1e-12 * basis[:, 5:6]  # isometric to eps_struct
    labels = [Label(basis[:, :2], x), Label(2.0 * basis[:, 2:3], y), Label(near, x),
              Label(basis[:, 5:], y), Label(basis[:, :0], x)]
    slots = push_labels(labels, [1, 2, 3, 4, 4], 5, u.dim)
    # slots 1, 3 and 4 each receive one isometric frame (the zero-dimensional
    # label adds nothing to slot 4), which is kept bit for bit
    for slot, frame in ((slots[0], basis[:, :2]), (slots[2], near), (slots[3], basis[:, 5:])):
        assert slot.frame.dtype == frame.dtype and slot.frame.tobytes() == frame.tobytes()
    assert [slots[i].point for i in (0, 2, 3)] == [x, x, y]
    # a non-isometric single frame is orthonormalized as before
    assert slots[1].frame.tobytes() == orthonormalize(2.0 * basis[:, 2:3]).tobytes()
    assert slots[4].frame.shape == (u.dim, 0) and slots[4].point.is_basepoint

    merged = push_labels(labels[:2], [1, 1], 1, u.dim)[0]
    stacked = np.hstack([basis[:, :2], 2.0 * basis[:, 2:3]])
    assert merged.frame.tobytes() == orthonormalize(stacked).tobytes() and merged.point is x
    # two frames that are each isometric are still orthonormalized together
    pair = push_labels([labels[0], labels[3]], [1, 1], 1, u.dim)[0]
    stacked = np.hstack([basis[:, :2], basis[:, 5:]])
    assert pair.frame.tobytes() == orthonormalize(stacked).tobytes()


@pytest.mark.parametrize("frames,alpha", [
    ([np.hstack([np.eye(4)[:, :1], np.eye(4)[:, :1]])], [1]),  # one dependent frame
    ([np.eye(4)[:, :2], np.eye(4)[:, 1:3]], [1, 1]),  # merged frames that overlap
    ([np.zeros((4, 1))], [1]),  # a zero vector
])
def test_push_labels_raises_rank_deficient_as_before(frames, alpha):
    labels = [Label(f.astype(complex), SpherePoint([-1.0])) for f in frames]
    with pytest.raises(RankDeficient):
        push_labels(labels, alpha, 1, 4)


def test_push_labels_orthonormalizes_a_nan_frame():
    # a NaN frame is not isometric, so it is not kept; orthonormalize rejects it
    labels = [Label(np.array([[np.nan], [0.0]], dtype=complex), SpherePoint([-1.0]))]
    with pytest.raises(RankDeficient):
        push_labels(labels, [1], 1, 2)


def test_sigma_action_is_group_action():
    u = UniverseBasis(3, 1)
    c = gen_random_config(9, u, max_labels=2, max_rank=3)
    sigma, tau = [1, 2, 0], [0, 2, 1]
    comp = [sigma[tau[j]] for j in range(3)]
    lhs = sigma_action_config(sigma, sigma_action_config(tau, c))
    rhs = sigma_action_config(comp, c)
    assert config_distance(lhs, rhs) < 1e-12
    assert rank(lhs) == rank(c)
    ident = sigma_action_config([0, 1, 2], c)
    assert config_distance(ident, c) < 1e-13


def test_sigma_action_swaps_coordinates():
    u = UniverseBasis(2, 1)
    c = canonicalize(Configuration(u, _unit_labels(u, ((0,), [-1.0, 1j]))))
    out = sigma_action_config([1, 0], c)
    got = out.labels[0].point.coords
    assert np.allclose(got, [1j, -1.0])


def test_smash_and_point_distance():
    x = SpherePoint([-1.0])
    y = SpherePoint([1j, -1j])
    assert np.allclose(smash(x, y).coords, [-1.0, 1j, -1j])
    assert smash(x, BASEPOINT).is_basepoint
    assert point_distance(BASEPOINT, BASEPOINT) == 0.0
    assert point_distance(x, BASEPOINT) == math.inf
    assert point_distance(y, y) == 0.0


def test_sphere_point_repr_and_the_fixed_basepoint():
    assert repr(BASEPOINT) == "SpherePoint(basepoint)"
    assert repr(SpherePoint([1j, -1.0])) == "SpherePoint([ 0.+1.j -1.+0.j])"
    assert gammaconf.permute_point([1, 0], BASEPOINT) is BASEPOINT


def test_permute_point_takes_only_a_permutation_of_the_coordinates():
    # a short sigma used to drop a coordinate, and a repeated entry read an
    # uninitialized index out of perm_inverse
    x = SpherePoint([1j, -1.0, -1j])
    assert np.array_equal(gammaconf.permute_point([2, 0, 1], x).coords, [-1.0, -1j, 1j])
    for sigma in ([0, 1], [0, 0, 1], [0, 1, 3], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="not a permutation of 0..2"):
            gammaconf.permute_point(sigma, x)
    # the basepoint is fixed by every sigma, unchecked as before
    assert gammaconf.permute_point([0, 0, 1], BASEPOINT) is BASEPOINT


def test_config_distance_detects_differences():
    u = UniverseBasis(2, 1)
    a = canonicalize(Configuration(u, _unit_labels(u, ((0,), [-1.0, -1.0]))))
    b = canonicalize(Configuration(u, _unit_labels(u, ((1,), [-1.0, -1.0]))))
    assert config_distance(a, b) > 0.5
    assert config_distance(a, Configuration(u, [])) == math.inf
    moved = canonicalize(Configuration(u, _unit_labels(u, ((0,), [-1.0, 1j]))))
    assert config_distance(a, moved) > 0.5


def test_config_distance_is_infinite_across_the_basepoint_and_dimensions():
    # point_distance is infinite for these pairs, and so is their matching
    # cost: a matching that must take one reports it
    u = UniverseBasis(2, 1)
    e = np.eye(u.dim, dtype=complex)
    x = SpherePoint([np.exp(0.5j), np.exp(1j)])
    point = Configuration(u, [Label(e[:, :1], x)])
    base = Configuration(u, [Label(e[:, :1], BASEPOINT)])
    wrong = Configuration(u, [Label(e[:, :1], SpherePoint([np.exp(0.5j), np.exp(1j), -1.0]))])
    assert point_distance(BASEPOINT, x) == math.inf
    assert config_distance(base, point) == config_distance(point, base) == math.inf
    assert config_distance(wrong, point) == config_distance(point, wrong) == math.inf
    assert config_distance(base, base) == 0.0
    # a matching that can avoid the divide still does
    two = Configuration(u, [Label(e[:, :1], BASEPOINT), Label(e[:, 1:2], x)])
    swapped = Configuration(u, [Label(e[:, 1:2], x), Label(e[:, :1], BASEPOINT)])
    assert config_distance(two, swapped) == 0.0


def test_config_distance_runs_without_scipy(monkeypatch):
    # a None entry in sys.modules makes any import of that module fail
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    u = UniverseBasis(2, 1)
    a = canonicalize(Configuration(u, _unit_labels(u, ((0,), [-1.0, -1.0]), ((1,), [1j, -1.0]))))
    b = canonicalize(Configuration(u, _unit_labels(u, ((1,), [1j, -1.0]), ((0,), [-1.0, -1.0]))))
    assert config_distance(a, b) < 1e-13


def _isometric_frame(rng, d, k):
    q, _ = np.linalg.qr(rng.complex_normals(d, k))
    return q


@pytest.mark.parametrize("d,kf,kg", [(10, 3, 1), (56, 2, 5), (210, 7, 4)])
def test_frame_distance_matches_projection_difference(d, kf, kg):
    rng = SplitMix64(d)
    f, g = _isometric_frame(rng, d, kf), _isometric_frame(rng, d, kg)
    # h spans f and one more direction
    h, _ = np.linalg.qr(np.hstack([f, rng.complex_normals(d, 1)]))
    for x, y in [(f, g), (g, f), (f, h), (f, f)]:
        expect = fro(x @ x.conj().T - y @ y.conj().T)
        assert abs(frame_distance(x, y) - expect) <= 1e-12 * max(expect, 1.0)


def test_frame_distance_resolves_nearby_subspaces():
    # g tilts column i of f by the principal angle theta_i toward a direction
    # orthogonal to f, so ||f f^H - g g^H||_F = sqrt(2) ||sin theta||
    rng = SplitMix64(4)
    d, k = 56, 3
    q, _ = np.linalg.qr(rng.complex_normals(d, d))
    theta = np.array([1.0, 0.5, 0.25]) * 1e-8
    f = q[:, :k]
    g = q[:, :k] * np.cos(theta) + q[:, k:2 * k] * np.sin(theta)
    expect = math.sqrt(2.0) * np.linalg.norm(np.sin(theta))
    assert abs(frame_distance(f, g) - expect) <= 1e-6 * expect
    assert abs(frame_distance(g, f) - expect) <= 1e-6 * expect


@st.composite
def _square_costs(draw):
    k = draw(st.integers(1, 6))
    # few distinct values, so that ties are common
    cost = draw(hnp.arrays(float, (k, k), elements=st.sampled_from([0.0, 1.0, 2.5, 7.0])))
    return np.where(draw(hnp.arrays(bool, (k, k))), np.inf, cost)


@settings(deadline=None, max_examples=300)
@given(_square_costs())
def test_cheapest_first_returns_a_permutation(cost):
    cols = _cheapest_first(cost)
    assert sorted(cols) == list(range(len(cost)))
    if len(set(cost.ravel().tolist())) == 1:  # ties go in row-major order
        assert cols == list(range(len(cost)))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_cheapest_first_finds_a_permutation_cheaper_than_every_other_pair(data):
    # entries of perm below 1, every other entry at least 1: the greedy
    # takes perm, which is the brute-force minimum-sum assignment
    k = data.draw(st.integers(1, 6))
    perm = data.draw(st.permutations(range(k)))
    cost = data.draw(hnp.arrays(float, (k, k), elements=st.floats(1.0, 10.0)))
    cost[range(k), perm] = data.draw(hnp.arrays(float, k, elements=st.floats(0.0, 0.999)))
    assert _cheapest_first(cost) == list(perm)
    best = min(itertools.permutations(range(k)), key=lambda p: cost[range(k), list(p)].sum())
    assert cost[range(k), list(best)].sum() == cost[range(k), perm].sum()


def _value_key(values):
    # the per-label sort key that one lexsort of the value array replaced
    return tuple(v for z in values for v in (z.real, z.imag))


def _first_overlap(labels, tol=DEFAULT_TOL):
    # the pair loop that one Gram matrix of the stacked frames replaced
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            gram = labels[i].frame.conj().T @ labels[j].frame
            if gram.size and np.max(np.abs(gram)) > tol.eps_struct:
                return i, j
    return None


def test_canonicalize_keeps_the_value_key_order_on_tied_coordinates():
    # points drawn from a few coordinates (two with one real part) tie on
    # some coordinates; frames from a block-diagonal unitary tie on their
    # leading index within each block
    rng = SplitMix64(29)
    coords = [-1.0, 1j, -1j, np.exp(2j), np.exp(-2j)]
    u = UniverseBasis(2, 2)
    q = np.zeros((u.dim, u.dim), dtype=complex)
    q[:3, :3] = np.linalg.qr(rng.complex_normals(3, 3))[0]
    q[3:, 3:] = np.linalg.qr(rng.complex_normals(u.dim - 3, u.dim - 3))[0]
    for _ in range(40):
        cols = [int(c) for c in np.argsort([rng.uniform() for _ in range(u.dim)])]
        points = list(itertools.product(coords, repeat=2))
        picks = [points[i] for i in np.argsort([rng.uniform() for _ in points])[:u.dim]]
        labels, start = [], 0
        while start < u.dim:
            width = rng.randint(1, 3)
            labels.append(Label(q[:, cols[start:start + width]],
                                SpherePoint(picks[len(labels)])))
            start += width
        out = canonicalize(Configuration(u, labels))
        lead = [int(np.flatnonzero(np.max(np.abs(lab.frame), axis=1) > 1e-9)[0])
                for lab in labels]
        expect = sorted(range(len(labels)),
                        key=lambda i: (lead[i], _value_key(labels[i].point.coords)))
        assert [lab.point.coords.tolist() for lab in out.labels] == [
            labels[i].point.coords.tolist() for i in expect]
        for lab, i in zip(out.labels, expect):
            assert np.array_equal(lab.frame, labels[i].frame)


def test_not_orthogonal_names_the_first_pair_of_the_pair_loop():
    rng = SplitMix64(31)
    u = UniverseBasis(2, 2)
    for _ in range(30):
        q = np.linalg.qr(rng.complex_normals(u.dim, u.dim))[0]
        labels = [Label(q[:, [i]], SpherePoint([np.exp(0.3j * (i + 1)), -1.0]))
                  for i in range(5)]
        # tilt two labels toward others, so that several pairs overlap
        for _ in range(2):
            i, j = rng.randint(0, 5), rng.randint(0, 5)
            if i != j:
                tilted = q[:, [i]] + 0.1 * q[:, [j]]
                labels[i] = Label(tilted / fro(tilted), labels[i].point)
        expect = _first_overlap(labels)
        if expect is None:
            canonicalize(Configuration(u, labels))
            continue
        with pytest.raises(NotOrthogonal, match=f"labels {expect[0]} and {expect[1]} overlap"):
            canonicalize(Configuration(u, labels))


def test_canonicalize_orthonormalizes_a_non_isometric_single_label():
    u = UniverseBasis(2, 1)
    frame = np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
    iso = np.eye(u.dim, dtype=complex)[:, [2]]
    out = canonicalize(Configuration(u, [Label(frame, SpherePoint([-1.0, 1j])),
                                         Label(iso, SpherePoint([1j, -1.0]))]))
    assert out.k == 2
    got = {lab.point.coords.tolist()[0]: lab.frame for lab in out.labels}
    f = got[-1.0]
    assert fro(f.conj().T @ f - np.eye(2)) < 1e-14
    # same span as the input frame
    assert fro(frame - f @ (f.conj().T @ frame)) < 1e-14
    # an isometric label that merges with nothing keeps its frame as it is
    assert np.array_equal(got[1j], iso)


def test_canonicalize_rejects_a_nan_point_coordinate():
    u = UniverseBasis(1, 1)
    label = Label(np.eye(u.dim, dtype=complex)[:, [0]], SpherePoint([math.nan]))
    with pytest.raises(ValueError, match="unit complex numbers"):
        canonicalize(Configuration(u, [label]))


def test_canonicalize_rejects_a_nan_frame():
    # a NaN frame is not isometric, and its re-orthonormalization finds the
    # column dependent
    label = Label(np.array([[math.nan], [0.0]]), SpherePoint([-1.0]))
    with pytest.raises(RankDeficient):
        canonicalize(Configuration(UniverseBasis(1, 1), [label]))


def _first_label_error(labels, u, tol=DEFAULT_TOL):
    # the per-label checks of the loop that the point-array checks replaced
    for lab in labels:
        if lab.frame.shape[0] != u.dim:
            return NotOrthogonal, "frame ambient dimension"
        if np.max(np.abs(np.abs(lab.point.coords) - 1.0), initial=0.0) > tol.eps_struct:
            return ValueError, "unit complex numbers"
        if len(lab.point.coords) != u.n:
            return ValueError, "dimension must match"
    return None


def test_canonicalize_reports_the_first_failing_label_check_of_the_loop():
    u = UniverseBasis(2, 1)
    eye = np.eye(u.dim, dtype=complex)
    variants = {
        "good": Label(eye[:, [0]], SpherePoint([-1.0, 1j])),
        "frame": Label(np.eye(u.dim + 1, dtype=complex)[:, [1]], SpherePoint([-1.0, 1j])),
        "unit": Label(eye[:, [1]], SpherePoint([-2.0, 1j])),
        "dim": Label(eye[:, [2]], SpherePoint([-1.0, 1j, -1j])),
        "frame+dim": Label(np.eye(u.dim + 1, dtype=complex)[:, [1]],
                           SpherePoint([-1.0, 1j, -1j])),
        "unit+dim": Label(eye[:, [1]], SpherePoint([-2.0, 1j, -1j])),
        "dim near base": Label(eye[:, [2]], SpherePoint([1.0, 1j, -1j])),
    }
    for pair in itertools.permutations(variants, 2):
        labels = [variants[name] for name in pair]
        live = [lab for lab in labels if not lab.point.near_basepoint(DEFAULT_TOL.eps_base)]
        expect = _first_label_error(live, u)
        if expect is None:
            canonicalize(Configuration(u, labels))
            continue
        with pytest.raises(expect[0], match=expect[1]):
            canonicalize(Configuration(u, labels))


def _union_find(close):
    # plain union-find over the pairs i < j, listed by smallest member
    count = close.shape[0]
    root = list(range(count))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i in range(count):
        for j in range(i + 1, count):
            if close[i, j]:
                a, b = find(i), find(j)
                root[max(a, b)] = min(a, b)
    groups = {}
    for i in range(count):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


@settings(deadline=None, max_examples=300)
@given(hnp.arrays(bool, st.integers(0, 9).map(lambda n: (n, n))))
def test_single_linkage_matches_a_plain_union_find(close):
    assert single_linkage(close) == _union_find(close)


def _reference_leading_indices(frames, tol=DEFAULT_TOL):
    # the stacked leading indices with a vstacked sentinel row
    if not frames:
        return []
    big = np.abs(np.hstack(frames)) > tol.eps_struct
    first = np.vstack([big, np.ones((1, big.shape[1]), bool)]).argmax(axis=0)
    lead = np.full(len(frames), frames[0].shape[0])
    np.minimum.at(lead, np.repeat(np.arange(len(frames)), [f.shape[1] for f in frames]), first)
    return lead.tolist()


def _loop_leading_index(frame, tol=DEFAULT_TOL):
    # one frame's leading index: its first row with a non-negligible entry
    rows = np.flatnonzero(np.max(np.abs(frame), axis=1) > tol.eps_struct)
    return int(rows[0]) if rows.size else frame.shape[0]


def test_label_leads_match_the_per_frame_loop():
    # canonicalize passes labels of positive width only, and at least one
    rng = np.random.default_rng(1)
    for _ in range(200):
        d, k = rng.integers(0, 9), rng.integers(1, 9)
        a = rng.normal(size=(d, k))
        if rng.random() < 0.6:
            a = a + 1j * rng.normal(size=(d, k))
        # negligible leading rows and zero columns
        a[:rng.integers(0, d + 1)] *= rng.choice([0.0, 1e-12, 1e-10])
        if rng.random() < 0.3:
            a[:, rng.integers(0, k)] = 0.0
        cuts = np.unique(rng.integers(1, k, size=3)) if k > 1 else []
        frames = np.split(a, cuts, axis=1)
        leads = gammaconf._label_leads(a, [f.shape[1] for f in frames], DEFAULT_TOL)
        assert leads == [_loop_leading_index(f) for f in frames]
        assert leads == _reference_leading_indices(frames)


def _reference_frame_order(lead, values):
    # frame_order before the key sort: one lexsort, its last key (lead) first
    keys = [part for col in values.T[::-1] for part in (col.imag, col.real)]
    return np.lexsort([*keys, lead])


@st.composite
def _order_inputs(draw):
    """Leads and (k, n) values for frame_order: k = 0..24, parts drawn from a
    few values so that leads and coordinates tie, signed zeros among them;
    real or complex values, C or Fortran order, leads as a list or an array."""
    k, n = draw(st.integers(0, 24)), draw(st.integers(0, 3))
    parts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300])
    lead = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    values = draw(hnp.arrays(float, (k, n), elements=parts))
    if draw(st.booleans()):
        values = values.astype(complex)
        values.imag = draw(hnp.arrays(float, (k, n), elements=parts))
    if draw(st.booleans()):
        values = np.asfortranarray(values)
    return (np.array(lead, dtype=int) if draw(st.booleans()) else lead), values


@settings(deadline=None, max_examples=400)
@given(_order_inputs())
def test_frame_order_matches_the_lexsort(inputs):
    lead, values = inputs
    order, expect = frame_order(lead, values), _reference_frame_order(lead, values)
    assert order.dtype == expect.dtype and order.tolist() == expect.tolist()


def test_frame_order_ties_signed_zeros_and_keeps_input_order():
    values = np.zeros((4, 1), dtype=complex)
    values.real, values.imag = [[0.0], [-0.0], [0.0], [-0.0]], [[1.0], [1.0], [-0.0], [0.0]]
    for lead, expect in [([0, 0, 0, 0], [2, 3, 0, 1]), ([1, 0, 1, 0], [3, 1, 2, 0])]:
        assert frame_order(lead, values).tolist() == expect
        assert _reference_frame_order(lead, values).tolist() == expect


def _reference_canonicalize(c, tol=DEFAULT_TOL):
    # canonicalize before the one-pass rewrite: every mask built on every
    # call, leading indices stacked a second time, linkage always run
    u = c.universe
    labels = [lab for lab in c.labels if lab.frame.shape[1] > 0 and not lab.point.is_basepoint]
    if any(len(lab.point.coords) != u.n or lab.frame.shape[0] != u.dim for lab in labels):
        labels = [lab for lab in labels if not lab.point.near_basepoint(tol.eps_base)]
        _check_labels(labels, u, tol)
    values = np.array([lab.point.coords for lab in labels]).reshape(len(labels), u.n)
    live = ~np.any(np.abs(values - 1.0) <= tol.eps_base, axis=1)
    labels, values = [lab for lab, keep in zip(labels, live) if keep], values[live]
    if not np.max(np.abs(np.abs(values) - 1.0), initial=0.0) <= tol.eps_struct:
        _check_labels(labels, u, tol)
    if not labels:
        return Configuration(u, [])
    frames = [lab.frame for lab in labels]
    stacked = np.hstack(frames)
    owner = np.repeat(np.arange(len(labels)), [f.shape[1] for f in frames])
    defect = np.abs(stacked.conj().T @ stacked - np.eye(stacked.shape[1]))
    off = ~(defect <= tol.eps_struct)
    cross = off & (owner[:, None] < owner)
    if cross.any():
        i, j = min(map(tuple, owner[np.argwhere(cross)].tolist()))
        overlap = np.max(defect[np.ix_(owner == i, owner == j)])
        raise NotOrthogonal(f"labels {i} and {j} overlap (|<v,w>| = {overlap:.3e})")
    non_isometric = np.zeros(len(labels), bool)
    non_isometric[owner[np.any(off & (owner[:, None] == owner), axis=1)]] = True
    order = _reference_frame_order(_reference_leading_indices(frames, tol), values)
    labels, values, non_isometric = [labels[i] for i in order], values[order], non_isometric[order]
    groups = _union_find(np.max(np.abs(values[:, None] - values), axis=2) < tol.eps_cluster)
    merged = [labels[g[0]] if len(g) == 1 and not non_isometric[g[0]] else Label(
        orthonormalize(np.hstack([labels[i].frame for i in g]), tol), labels[g[0]].point)
        for g in groups]
    if len(groups) < len(labels) or non_isometric.any():
        lead = _reference_leading_indices([lab.frame for lab in merged], tol)
        merged = [merged[i] for i in _reference_frame_order(lead, values[[g[0] for g in groups]])]
    return Configuration(u, merged)


_ORACLE_UNIVERSES = [UniverseBasis(1, 1), UniverseBasis(2, 1), UniverseBasis(1, 4),
                     UniverseBasis(2, 2), UniverseBasis(3, 2)]


def _oracle_config(rng):
    """A seeded configuration mixing the cases canonicalize treats apart:
    merges and chains of close points, tied and distinct leading rows,
    non-isometric frames, basepoint, near-basepoint and zero-width labels,
    overlapping labels and points of the wrong dimension; one label or none
    in some draws."""
    u = _ORACLE_UNIVERSES[rng.integers(len(_ORACLE_UNIVERSES))]
    eps = DEFAULT_TOL.eps_cluster
    # a unitary with a block of leading zero rows in some columns, so that
    # labels differ in their leading rows; columns in shuffled order
    q = np.zeros((u.dim, u.dim), dtype=complex)
    cut = int(rng.integers(u.dim))
    for lo, hi in ((0, cut), (cut, u.dim)):
        z = rng.normal(size=(hi - lo, hi - lo)) + 1j * rng.normal(size=(hi - lo, hi - lo))
        q[lo:hi, lo:hi] = np.linalg.qr(z)[0]
    q = q[:, rng.permutation(u.dim)]
    labels, start = [], 0
    for _ in range(rng.choice([0, 1, 2, 3, 4, 5], p=[0.05, 0.15, 0.2, 0.2, 0.2, 0.2])):
        width = min(int(rng.integers(0, 3)), u.dim - start)
        frame = q[:, start:start + width]
        start += width
        kind = rng.choice(["fresh", "close", "chain", "base", "near", "wrong"],
                          p=[0.4, 0.2, 0.15, 0.1, 0.1, 0.05])
        if kind in ("close", "chain") and labels and not labels[-1].point.is_basepoint:
            # close points merge; a chain steps 0.6 eps_cluster from the last one
            step = 0.6 if kind == "chain" else rng.uniform(0.0, 0.9)
            coords = labels[-1].point.coords * np.exp(1j * step * eps)
        else:
            coords = np.exp(1j * rng.uniform(0.5, 2 * np.pi - 0.5, size=u.n))
        if kind == "base":
            point = BASEPOINT
        elif kind == "wrong":
            point = SpherePoint(np.append(coords, -1.0))
        else:
            if kind == "near":
                coords[rng.integers(u.n)] = np.exp(1j * rng.choice([1e-12, 1e-10]))
            point = SpherePoint(coords)
        flaw = rng.random()
        if width and flaw < 0.1:
            frame = frame * (1.0 + rng.choice([1e-6, 1e-11]))  # non-isometric, or within eps_struct
        elif width == 2 and flaw < 0.2:
            frame = frame @ np.array([[1.0, 0.3], [0.0, 1.0]])
        elif width and labels and flaw < 0.27:
            other = next((lab.frame for lab in labels if lab.frame.shape[1]), None)
            if other is not None:  # tilt toward an earlier label
                tilted = frame[:, :1] + rng.choice([0.1, 1e-12]) * other[:, :1]
                frame = np.hstack([tilted / np.linalg.norm(tilted), frame[:, 1:]])
        labels.append(Label(frame, point))
    return Configuration(u, labels)


def _outcome(fn, c):
    try:
        out = fn(c)
    except Exception as exc:
        return type(exc), str(exc)
    return [(lab.frame.dtype, lab.frame.shape, lab.frame.tobytes(), lab.point.coords.tobytes())
            for lab in out.labels]


@pytest.mark.parametrize("seed", range(4))
def test_canonicalize_matches_the_reference_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(400):
        c = _oracle_config(rng)
        expect = _outcome(_reference_canonicalize, c)
        assert _outcome(canonicalize, c) == expect
        seen.add(expect[0].__name__ if isinstance(expect, tuple) else min(len(expect), 2))
    # every outcome shows up: none, one or several labels, and each error
    assert seen == {0, 1, 2, "NotOrthogonal", "ValueError"}


def test_canonicalize_matches_the_reference_on_products():
    # products of dimension-10 factors: four labels in dimension 210, with
    # some pairs of points made to coincide
    u = UniverseBasis(3, 2)
    psi = psi_embed(u, u)
    for seed in range(20):
        a = gen_random_config(seed, u, dims=(2, 1))
        b = gen_random_config(seed + 100, u, dims=(2, 1))
        if seed % 2:
            b.labels[1].point = b.labels[0].point
        big = Configuration(psi.target, [
            Label(psi.kron_frame(la.frame, lb.frame), smash(la.point, lb.point))
            for la in a.labels for lb in b.labels])
        expect = _outcome(_reference_canonicalize, big)
        assert len(expect) == (2 if seed % 2 else 4)
        assert _outcome(canonicalize, big) == expect


def _reference_config_distance(a, b):
    # config_distance without the identity certificate: every k x k frame
    # distance, then the matching
    if a.universe != b.universe or a.k != b.k:
        return math.inf
    if a.k == 0:
        return 0.0
    nan = np.full(a.universe.n, np.nan)
    pa, pb = (np.array([nan if lab.point.is_basepoint or len(lab.point.coords) != len(nan)
                        else lab.point.coords for lab in x.labels]) for x in (a, b))
    dist = np.max(np.abs(pa[:, None] - pb[None]), axis=2)
    base_a, base_b = ([lab.point.is_basepoint for lab in x.labels] for x in (a, b))
    both = np.outer(base_a, base_b)
    cost = np.where(both, 0.0, np.where(np.isnan(dist), np.inf, dist))
    for i, la in enumerate(a.labels):
        for j, lb in enumerate(b.labels):
            cost[i, j] += frame_distance(la.frame, lb.frame)
    return float(np.max(cost[range(a.k), _cheapest_first(cost)]))


@pytest.fixture
def assignments(monkeypatch):
    """The number of _cheapest_first matchings config_distance starts."""
    calls = [0]

    def counted(cost):
        calls[0] += 1
        return _cheapest_first(cost)

    monkeypatch.setattr(gammaconf, "_cheapest_first", counted)
    return calls


def _law_pairs(seed):
    """(lhs, rhs) pairs of the configuration laws on dims-(2, 1) factors in
    n = 3, D = 2: products in dimension 210, their permutations and a based
    map, each side in its own label order."""
    u = UniverseBasis(3, 2)
    rng = np.random.default_rng(seed)
    a = gen_random_config(seed, u, dims=(2, 1))
    b = gen_random_config(seed + 1000, u, dims=(2, 1))
    sigma, tau = rng.permutation(3).tolist(), rng.permutation(3).tolist()
    y = SpherePoint(np.exp(1j * rng.uniform(0.4, 2 * np.pi - 0.4, size=2)))
    ab = multiply(a, b)
    alpha = (rng.permutation(4) + 1).tolist()
    return [
        (canonicalize(multiply(b, a)), sigma_action_config([3, 4, 5, 0, 1, 2], ab)),
        (canonicalize(structure_map(a, y)), multiply(a, unit_map(y, UniverseBasis(2, 2)))),
        (canonicalize(multiply(sigma_action_config(sigma, a), sigma_action_config(tau, b))),
         sigma_action_config(sigma + [3 + t for t in tau], ab)),
        (Configuration(ab.universe, push_labels(ab.labels, alpha, 4, ab.universe.dim)),
         apply_based_map(ab, alpha, 4)),
        (a, b),
    ]


def _shuffled(c, rng):
    return Configuration(c.universe, [c.labels[i] for i in rng.permutation(c.k)])


def _nudged(c, rng, size):
    """c with every point moved and every frame tilted by about size."""
    labels = []
    for lab in c.labels:
        frame = lab.frame
        if frame.shape[1]:
            tilt = rng.normal(size=frame.shape) + 1j * rng.normal(size=frame.shape)
            frame = np.linalg.qr(frame + size * tilt)[0]
        point = lab.point
        if not point.is_basepoint:
            point = SpherePoint(point.coords * np.exp(1j * size * rng.normal(size=len(point.coords))))
        labels.append(Label(frame, point))
    return Configuration(c.universe, labels)


@pytest.mark.parametrize("seed", range(4))
def test_config_distance_matches_the_reference_bit_for_bit(seed, assignments):
    rng = np.random.default_rng(seed)
    pairs = [pair for s in range(10 * seed, 10 * seed + 10) for pair in _law_pairs(s)]
    for _ in range(300):
        c = _oracle_config(rng)
        pairs += [(c, c), (c, _shuffled(c, rng)), (_nudged(c, rng, 1e-9), c),
                  (c, _nudged(c, rng, rng.choice([1e-12, 1e-7, 1e-3])))]
    for a, b in pairs:
        assert repr(config_distance(a, b)) == repr(_reference_config_distance(a, b))
    # both paths are taken
    assert 0 < assignments[0] < len(pairs)


def test_config_distance_certificate_on_single_labels_and_sentinels(assignments):
    u = UniverseBasis(3, 2)
    one = gen_random_config(5, u, dims=(3,))
    other = gen_random_config(6, u, dims=(2,))
    # k = 1 has no off-diagonal pair: always certified, however far apart
    for a, b in [(one, one), (one, other), (other, _nudged(other, np.random.default_rng(0), 0.1))]:
        assert repr(config_distance(a, b)) == repr(_reference_config_distance(a, b))
    assert config_distance(one, other) > 0.5
    assert assignments[0] == 0
    # a basepoint or a point of another dimension always takes the matching
    e = np.eye(u.dim, dtype=complex)
    x, z = SpherePoint(np.exp([0.5j, 1j, 2j])), SpherePoint(np.exp([1j, 2j, 3j]))
    wrong = SpherePoint(np.exp([0.5j, 1j, 2j, 3j]))
    for p, q in [(BASEPOINT, x), (x, BASEPOINT), (BASEPOINT, BASEPOINT), (wrong, x), (wrong, wrong)]:
        a = Configuration(u, [Label(e[:, :1], p), Label(e[:, 1:2], z)])
        b = Configuration(u, [Label(e[:, :1], q), Label(e[:, 1:2], z)])
        calls = assignments[0]
        assert repr(config_distance(a, b)) == repr(_reference_config_distance(a, b))
        assert assignments[0] == calls + 1


def test_config_distance_falls_back_near_coincident_points(assignments):
    # two labels m = 1e-7 apart: the identity is certified while each of its
    # costs stays below m, and not from m on
    u = UniverseBasis(2, 1)
    e = np.eye(u.dim, dtype=complex)
    x = np.exp([0.5j, 1j])
    a = Configuration(u, [Label(e[:, :1], SpherePoint(x)),
                          Label(e[:, 1:2], SpherePoint(x * np.exp(1e-7j)))])

    def tilted(t):  # label 0 turned by atan(t): frame distance sqrt(2) sin(atan(t))
        frame = (e[:, :1] + t * e[:, 2:3]) / math.hypot(1.0, t)
        return Configuration(u, [Label(frame, a.labels[0].point), a.labels[1]])

    swapped = Configuration(u, a.labels[::-1])
    cases = [(a, 0.0, 0), (tilted(0.5e-7), 7.07e-8, 0), (tilted(1e-7), 1.414e-7, 1),
             (tilted(1e-6), 1.414e-6, 1), (swapped, 0.0, 1)]
    for b, dist, runs in cases:
        calls = assignments[0]
        assert repr(config_distance(a, b)) == repr(_reference_config_distance(a, b))
        assert assignments[0] == calls + runs
        assert config_distance(a, b) == pytest.approx(dist, rel=1e-3, abs=1e-15)


def test_config_distance_runs_the_assignment_only_when_not_certified(assignments):
    u = UniverseBasis(3, 2)
    a = gen_random_config(7, u, dims=(2, 1, 1))
    assert config_distance(a, _nudged(a, np.random.default_rng(1), 1e-10)) < 1e-8
    assert assignments[0] == 0
    permuted = Configuration(u, a.labels[::-1])
    assert config_distance(a, permuted) < 1e-13
    assert assignments[0] == 1


@pytest.mark.parametrize("dims", [(2, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1, 1, 1)])
def test_config_distance_fallback_computes_each_frame_distance_once(dims, monkeypatch,
                                                                    assignments):
    # reversed labels fail the identity certificate: the k diagonal frame
    # distances of the certificate are reused by the k^2 cost loop
    calls = [0]

    def counted(f, g):
        calls[0] += 1
        return frame_distance(f, g)

    monkeypatch.setattr(gammaconf, "frame_distance", counted)
    a = gen_random_config(11, UniverseBasis(3, 2), dims=dims)
    for b in (Configuration(a.universe, a.labels[::-1]),
              _nudged(Configuration(a.universe, a.labels[::-1]), np.random.default_rng(2), 1e-6)):
        calls[0], runs = 0, assignments[0]
        got = config_distance(a, b)
        assert (calls[0], assignments[0]) == (a.k ** 2, runs + 1)
        assert repr(got) == repr(_reference_config_distance(a, b))


@pytest.mark.parametrize("seed", range(3))
def test_verify_decides_no_verdict_by_the_matching(seed, assignments, monkeypatch):
    # every config_distance verify makes is certified on the identity, so the
    # matching rule behind the certificate decides none of its verdicts
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return config_distance(a, b)

    monkeypatch.setattr(gammaconf, "config_distance", counted)
    run_suite("all", RunConfig(seed=seed, trials=3))
    assert calls[0] > 0
    assert assignments[0] == 0


def _label_for_label(c):
    # each label matched to itself: the largest frame_distance(f, f), which
    # is not 0 for a non-isometric frame, or inf for a point of another dimension
    if any(not lab.point.is_basepoint and len(lab.point.coords) != c.universe.n
           for lab in c.labels):
        return math.inf
    return max((frame_distance(lab.frame, lab.frame) for lab in c.labels), default=0.0)


@pytest.mark.parametrize("seed", range(3))
def test_config_distance_matches_each_label_to_itself(seed):
    # duplicate, chained and zero-width labels included, in any label order
    rng = np.random.default_rng(seed)
    for _ in range(300):
        c = _oracle_config(rng)
        expect = _label_for_label(c)
        assert config_distance(c, c) == expect
        assert config_distance(c, _shuffled(c, rng)) == expect
