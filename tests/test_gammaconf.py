import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from commvar.errors import IndexOutOfRange, NotOrthogonal, RankDeficient
from commvar.gammaconf import (
    BASEPOINT,
    Configuration,
    Label,
    SpherePoint,
    apply_based_map,
    canonicalize,
    config_distance,
    frame_distance,
    min_cost_assignment,
    point_distance,
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
from commvar.symuniverse import UniverseBasis


def _unit_labels(universe, *specs):
    """Labels from (column indices, coords) specs on the standard basis."""
    eye = np.eye(universe.dim, dtype=complex)
    out = []
    for cols, coords in specs:
        point = BASEPOINT if coords is None else SpherePoint(coords)
        out.append(Label(eye[:, list(cols)], point))
    return out


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


def test_config_distance_detects_differences():
    u = UniverseBasis(2, 1)
    a = canonicalize(Configuration(u, _unit_labels(u, ((0,), [-1.0, -1.0]))))
    b = canonicalize(Configuration(u, _unit_labels(u, ((1,), [-1.0, -1.0]))))
    assert config_distance(a, b) > 0.5
    assert config_distance(a, Configuration(u, [])) == math.inf
    moved = canonicalize(Configuration(u, _unit_labels(u, ((0,), [-1.0, 1j]))))
    assert config_distance(a, moved) > 0.5


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
def _cost_matrices(draw):
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    cost = draw(hnp.arrays(float, shape, elements=st.floats(0.0, 10.0)))
    # an infinite point distance enters config_distance as 1e6
    far = draw(hnp.arrays(bool, shape))
    return cost + 1e6 * far


@settings(deadline=None, max_examples=300)
@given(_cost_matrices())
def test_min_cost_assignment_matches_brute_force(cost):
    r, c = cost.shape
    rows, cols = min_cost_assignment(cost)
    assert len(rows) == len(cols) == min(r, c)
    assert len(set(rows.tolist())) == len(set(cols.tolist())) == min(r, c)
    assert rows.tolist() == sorted(rows.tolist())
    if r <= c:
        best = min(cost[np.arange(r), list(p)].sum()
                   for p in itertools.permutations(range(c), r))
    else:
        best = min(cost[list(p), np.arange(c)].sum()
                   for p in itertools.permutations(range(r), c))
    assert math.isclose(cost[rows, cols].sum(), best, rel_tol=1e-12, abs_tol=1e-9)


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
