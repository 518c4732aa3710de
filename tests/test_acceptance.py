"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and trial count is pinned here.
"""

import math
import time

import numpy as np

from commvar.cohomtab import a0_lambda_table, poincare_poly
from commvar.commodel import (
    CommutingTuple,
    F_subspace,
    class_distance,
    commuting_to_config,
    config_to_commuting,
    sigma_action_tuple,
)
from commvar.errors import NotOddPrime, SingularAtOne
from commvar.gammaconf import (
    Configuration,
    Label,
    SpherePoint,
    canonicalize,
    config_distance,
    permute_point,
    rank,
    sigma_action_config,
    smash,
    sphere_coord,
)
from commvar.generate import (
    gen_partition_tuple,
    gen_random_commuting,
    gen_random_config,
)
from commvar.isodecomp import (
    DecompType,
    canonical_flag_class,
    decomposition_type,
    fixed_subspace_dim,
    flag_map,
    flag_map_preimage,
    is_complete_type,
    tuple_norm,
)
from commvar.numkit import commutator_defect, fro, off_norm
from commvar.rankstrata import (
    cayley,
    cayley_inv,
    pairing_chart,
    reconstruct_chart,
    stratum_rank,
    subquotient_chart,
    trace_split,
)
from commvar.realk import (
    is_symmetric_unitary,
    joint_diagonalize_real,
    real_cayley,
    real_stratum_chart,
)
from commvar.rng import SplitMix64, haar_orthogonal, haar_unitary, subseed, unit_phase
from commvar.spectrumops import (
    multiply,
    multiply_tuple,
    structure_map,
    structure_map_tuple,
    unit_map,
)
from commvar.symuniverse import UniverseBasis, apply_perm_to_coords, perm_inverse, sigma_star
from isotropy_oracle import fixed_dim_nullspace_oracle

SEED = 20260809


def _finish(idx, name, failures, detail=""):
    status = "PASS" if failures == 0 else f"FAIL ({failures} failures{detail})"
    print(f"ACCEPTANCE {idx:02d} {name}: {status}", flush=True)
    assert failures == 0, f"criterion {idx} {name}: {failures} failures{detail}"


def _partitions(s):
    def rec(left, cap):
        if left == 0:
            yield ()
            return
        for first in range(min(left, cap), 0, -1):
            for rest in rec(left - first, first):
                yield (first,) + rest
    yield from rec(s, s)


def _composition(rng, s):
    dims = []
    left = s
    while left:
        d = rng.randint(1, left + 1)
        dims.append(d)
        left -= d
    return dims


# universes with dimension at most 10
_UNIVERSES = [(1, 1), (1, 2), (2, 1), (3, 1), (2, 2), (1, 5), (3, 2), (2, 3)]


def test_criterion_01_round_trip_homeomorphism():
    started = time.time()
    failures = 0
    for trial in range(200):
        rng = SplitMix64(subseed(SEED, trial))
        n, d = _UNIVERSES[rng.randint(0, len(_UNIVERSES))]
        universe = UniverseBasis(n, d)
        assert universe.dim <= 10 and universe.n <= 3
        c = gen_random_config(rng.next_u64(), universe, max_labels=3,
                              max_rank=min(6, universe.dim))
        back = commuting_to_config(config_to_commuting(c))
        if not config_distance(c, back) <= 1e-6:
            failures += 1
    elapsed = time.time() - started
    assert elapsed <= 30.0, f"round-trip suite took {elapsed:.1f}s"
    _finish(1, "round-trip homeomorphism (200 trials)", failures,
            f", {elapsed:.1f}s")


def test_criterion_02_cayley_suite():
    failures = 0
    for trial in range(50):
        rng = SplitMix64(subseed(SEED + 1, trial))
        s = rng.randint(1, 7)
        x = gen_random_commuting(rng.next_u64(), 1, s, "skew_hermitian").mats[0]
        a = cayley(x)
        if not fro(cayley_inv(a) - x) <= 1e-10:
            failures += 1
        if not fro(cayley(cayley_inv(a)) - a) <= 1e-10:
            failures += 1
        u = haar_unitary(rng, s)
        if not fro(cayley(u @ x @ u.conj().T) - u @ a @ u.conj().T) <= 1e-10:
            failures += 1
        # errors exactly when A - Id is singular
        try:
            cayley_inv(np.eye(s, dtype=complex))
            failures += 1
        except SingularAtOne:
            pass
        try:
            cayley_inv(a)  # no eigenvalue 1: must not raise
        except SingularAtOne:
            failures += 1
    rng = SplitMix64(subseed(SEED + 1, 10_000))
    for _ in range(50):
        t = math.tan((rng.uniform() - 0.5) * math.pi * 0.98)
        if not abs(cayley(np.array([[1j * t]]))[0, 0] - sphere_coord(t)) <= 1e-14:
            failures += 1
    _finish(2, "Cayley transform suite", failures)


def _ranked_tuple(rng, n, s):
    """Unitary tuple on a universe with exact stratum rank s."""
    choices = [(1, 5), (2, 2), (3, 2)]
    un, ud = choices[n - 1]
    universe = UniverseBasis(un, ud)
    dims = _composition(rng, s)
    c = gen_random_config(rng.next_u64(), universe, dims=dims)
    return config_to_commuting(c), c


def test_criterion_03_stratum_chart():
    failures = 0
    for trial in range(100):
        rng = SplitMix64(subseed(SEED + 2, trial))
        n = rng.randint(1, 4)
        s = rng.randint(1, 6)
        t, _ = _ranked_tuple(rng, n, s)
        if stratum_rank(t) != s:
            failures += 1
            continue
        chart = subquotient_chart(t)
        rec = reconstruct_chart(chart, t.s)
        if not class_distance(rec, t) <= 1e-8:
            failures += 1
        g = haar_unitary(rng, s)
        chart2 = subquotient_chart(t, frame=chart.f @ g)
        amb = max(fro(chart2.X.mats[i] - g.conj().T @ chart.X.mats[i] @ g)
                  for i in range(n))
        if not amb <= 1e-8:
            failures += 1
    # chart equivariance for every permutation at n <= 3
    import itertools

    for trial in range(12):
        rng = SplitMix64(subseed(SEED + 3, trial))
        n = rng.randint(1, 4)
        s = rng.randint(1, 4)
        t, _ = _ranked_tuple(rng, n, s)
        chart = subquotient_chart(t)
        if chart.s != s:
            failures += 1
            continue
        for sg in itertools.permutations(range(n)):
            ts = sigma_action_tuple(list(sg), t)
            chart_s = subquotient_chart(ts)
            perm_univ = sigma_star(list(sg), t.ambient)
            g = chart_s.f.conj().T @ apply_perm_to_coords(perm_univ, chart.f)
            inv = perm_inverse(list(sg))
            err = max(
                fro(chart_s.X.mats[j] - g @ chart.X.mats[inv[j]] @ g.conj().T)
                for j in range(n))
            if not err <= 1e-8:
                failures += 1
    _finish(3, "stratum chart (reconstruction, ambiguity, equivariance)", failures)


def _law_trial(rng):
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    ua, ub = UniverseBasis(n, 1), UniverseBasis(m, 1)
    a = gen_random_config(rng.next_u64(), ua, max_labels=2, max_rank=2)
    b = gen_random_config(rng.next_u64(), ub, max_labels=2, max_rank=2)
    x = SpherePoint([unit_phase(rng, 0.4) for _ in range(n)])
    y = SpherePoint([unit_phase(rng, 0.4) for _ in range(m)])
    return n, m, ua, ub, a, b, x, y


def test_criterion_04_spectrum_laws():
    failures = 0
    for trial in range(100):
        rng = SplitMix64(subseed(SEED + 4, trial))
        n, m, ua, ub, a, b, x, y = _law_trial(rng)
        # unit law
        if not config_distance(
                structure_map(unit_map(x, ua), y),
                unit_map(smash(x, y), UniverseBasis(n + m, 2))) <= 1e-8:
            failures += 1
        # sigma = mu (id ^ iota)
        if not config_distance(
                structure_map(a, y),
                multiply(a, unit_map(y, UniverseBasis(m, 1)))) <= 1e-8:
            failures += 1
        # associativity
        c = gen_random_config(rng.next_u64(), UniverseBasis(1, 1),
                              max_labels=1, max_rank=1)
        if not config_distance(multiply(multiply(a, b), c),
                               multiply(a, multiply(b, c))) <= 1e-8:
            failures += 1
        # equivariance
        import itertools

        perms_n = list(itertools.permutations(range(n)))
        perms_m = list(itertools.permutations(range(m)))
        sigma = list(perms_n[rng.randint(0, len(perms_n))])
        tau = list(perms_m[rng.randint(0, len(perms_m))])
        rho = sigma + [n + t for t in tau]
        if not config_distance(
                multiply(sigma_action_config(sigma, a), sigma_action_config(tau, b)),
                sigma_action_config(rho, multiply(a, b))) <= 1e-8:
            failures += 1
        if not config_distance(
                structure_map(sigma_action_config(sigma, a), permute_point(tau, y)),
                sigma_action_config(rho, structure_map(a, y))) <= 1e-8:
            failures += 1
        # rank laws
        if rank(structure_map(a, y)) != rank(a):
            failures += 1
        if rank(multiply(a, b)) != rank(a) * rank(b):
            failures += 1
    _finish(4, "spectrum laws (6 laws x 100 trials)", failures)


def test_criterion_05_cross_picture_coherence():
    failures = 0
    for trial in range(100):
        rng = SplitMix64(subseed(SEED + 5, trial))
        n, m, ua, ub, a, b, x, y = _law_trial(rng)
        ta, tb = config_to_commuting(a), config_to_commuting(b)
        if not class_distance(config_to_commuting(multiply(a, b)),
                              multiply_tuple(ta, tb)) <= 1e-8:
            failures += 1
        if not class_distance(config_to_commuting(structure_map(a, y)),
                              structure_map_tuple(ta, y)) <= 1e-8:
            failures += 1
    _finish(5, "cross-picture coherence (100 pairs)", failures)


def test_criterion_06_trace_split_and_pairing():
    failures = 0
    for trial in range(50):
        rng = SplitMix64(subseed(SEED + 6, trial))
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        s = rng.randint(1, 4)
        t_ = rng.randint(1, 4)
        x = gen_random_commuting(rng.next_u64(), n, s, "skew_hermitian")
        bar, tau = trace_split(x)
        reassembled = np.array([mm + 1j * c * np.eye(s) for mm, c in zip(bar.mats, tau)])
        if not max(fro(p - q) for p, q in zip(reassembled, x.mats)) <= 1e-12:
            failures += 1
        if not max(abs(np.trace(mm)) for mm in bar.mats) <= 1e-12:
            failures += 1
        y = gen_random_commuting(rng.next_u64(), m, t_, "skew_hermitian")
        pair = pairing_chart(x, y)
        if not commutator_defect(pair.mats) <= 1e-12:
            failures += 1
        # rank identity through the Cayley transform: dim F of the
        # unitarized pair equals the product of the factor dims
        ux = CommutingTuple("unitary", np.array([cayley(mm) for mm in x.mats]))
        uy = CommutingTuple("unitary", np.array([cayley(mm) for mm in y.mats]))
        up = CommutingTuple("unitary", np.array([cayley(mm) for mm in pair.mats]))
        fx = F_subspace(ux).shape[1]
        fy = F_subspace(uy).shape[1]
        fp = F_subspace(up).shape[1]
        if not (fx == s and fy == t_ and fp == fx * fy):
            failures += 1
    _finish(6, "trace splitting and Kronecker pairing (50 trials)", failures)


def test_criterion_07_isotropy():
    failures = 0
    for trial in range(100):
        rng = SplitMix64(subseed(SEED + 7, trial))
        s = rng.randint(2, 6)
        n = rng.randint(1, 4)
        parts_all = list(_partitions(s))
        parts = parts_all[rng.randint(0, len(parts_all))]
        kind = "skew_hermitian" if rng.uniform() < 0.6 else "real_symmetric"
        t = gen_partition_tuple(rng.next_u64(), n, parts, kind=kind)
        if decomposition_type(t).parts != tuple(sorted(parts, reverse=True)):
            failures += 1
        if len(parts) > 1:
            tu = gen_partition_tuple(rng.next_u64(), n, parts, kind=kind,
                                     traceless=True, unit=True)
            if abs(tuple_norm(tu) - 1.0) > 1e-10:
                failures += 1
            if not is_complete_type(decomposition_type(tu)):
                failures += 1
    for s in range(1, 6):
        for parts in _partitions(s):
            for n in range(1, 4):
                for field in ("complex", "real"):
                    if fixed_subspace_dim(DecompType(parts), n, field) != \
                            fixed_dim_nullspace_oracle(parts, n, field, SEED):
                        failures += 1
    _finish(7, "isotropy types and fixed-subspace dimensions", failures)


def _expand_oracle(p):
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return out

    poly = [0] * (2 * p - 3) + [1]
    poly = mul(poly, [1, 1])
    for i in range(1, p - 1):
        poly = mul(poly, [1] + [0] * (2 * i - 2) + [1])
    poly[0] += 1
    return {d: c for d, c in enumerate(poly) if c}


def test_criterion_08_cohomology_table():
    failures = 0
    if poincare_poly(3).to_dict() != {0: 1, 3: 1, 4: 2, 5: 1}:
        failures += 1
    if poincare_poly(5).to_dict() != _expand_oracle(5):
        failures += 1
    for p in (3, 5, 7, 11):
        tab = a0_lambda_table(p)
        if min(tab) != 2 * p - 3:
            failures += 1
        with_unit = dict(tab)
        with_unit[0] = with_unit.get(0, 0) + 1
        if with_unit != poincare_poly(p).to_dict():
            failures += 1
    try:
        poincare_poly(2)
        failures += 1
    except NotOddPrime:
        pass
    _finish(8, "cohomology tables (exact)", failures)


def test_criterion_09_real_variant():
    failures = 0
    for trial in range(100):
        rng = SplitMix64(subseed(SEED + 9, trial))
        s = rng.randint(1, 7)
        n = rng.randint(1, 4)
        x = gen_random_commuting(rng.next_u64(), 1, s, "real_symmetric").mats[0]
        a = real_cayley(x)
        if not (fro(a.conj().T @ a - np.eye(s)) <= 1e-10 and fro(a - a.T) <= 1e-10):
            failures += 1
        t = gen_random_commuting(rng.next_u64(), n, s, "real_symmetric")
        q, _ = joint_diagonalize_real(t)
        diag = q.T @ t.mats @ q
        res = math.sqrt(sum(off_norm(dd) ** 2 for dd in diag))
        if not res <= 1e-8 * max(fro(mm) for mm in t.mats):
            failures += 1
        if not abs(np.linalg.det(q) - 1.0) <= 1e-10:
            failures += 1
    # real chart vs complexified chart
    for trial in range(30):
        rng = SplitMix64(subseed(SEED + 10, trial))
        n = rng.randint(1, 3)
        universe = UniverseBasis(n, 1)
        basis = haar_orthogonal(rng, universe.dim)
        dims = _composition(rng, min(3, universe.dim))
        labels = []
        offset = 0
        pts = []
        for d in dims:
            for _ in range(100):
                p = SpherePoint([unit_phase(rng, 0.4) for _ in range(n)])
                if all(float(np.max(np.abs(p.coords - q2.coords))) >= 0.25
                       for q2 in pts):
                    break
            pts.append(p)
            labels.append(Label(basis[:, offset:offset + d].astype(complex), p))
            offset += d
        c = canonicalize(Configuration(universe, labels))
        tsym = config_to_commuting(c)
        if not all(is_symmetric_unitary(mm) for mm in tsym.mats):
            failures += 1
            continue
        rchart = real_stratum_chart(tsym)
        cchart = subquotient_chart(tsym)
        if rchart.s != cchart.s:
            failures += 1
            continue
        if rchart.s:
            g = cchart.f.conj().T @ rchart.f.astype(complex)
            err = max(fro(1j * rchart.X.mats[i] - g.conj().T @ cchart.X.mats[i] @ g)
                      for i in range(n))
            if not err <= 1e-8:
                failures += 1
    _finish(9, "real variant (Cayley image, SO diagonalization, charts)", failures)


def test_criterion_10_flag_map_bijectivity_p2():
    failures = 0
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for trial in range(500):
        rng = SplitMix64(subseed(SEED + 11, trial))
        # random point of the unit sphere of traceless skew-Hermitian 2x2
        h = rng.complex_normals(2, 2)
        h = 0.5 * (h + h.conj().T)
        h -= np.trace(h).real / 2.0 * np.eye(2)
        nrm = fro(h)
        if nrm < 1e-6:
            continue
        target = CommutingTuple("skew_hermitian", np.array([1j * h / nrm]))
        g, x = flag_map_preimage(target)
        rebuilt = flag_map(g, x)
        if not max(fro(p - q) for p, q in zip(rebuilt.mats, target.mats)) <= 1e-8:
            failures += 1
        # the alternative (swapped) preimage canonicalizes to the same class
        g2, x2 = canonical_flag_class(
            g @ swap,
            CommutingTuple("skew_hermitian",
                           np.array([swap @ mm @ swap for mm in x.mats])))
        class_gap = fro(g - g2) + max(fro(p - q) for p, q in zip(x.mats, x2.mats))
        if not class_gap <= 1e-8:
            failures += 1
    _finish(10, "unordered flag parametrization at p=2 (500 samples)", failures)
