"""Seeded verification suites covering every module's invariant list.

Suite map (each invariant family is reachable through exactly one suite):

  roundtrip    matrix kernel quality, configuration canonicalization, the
               configuration/tuple round trip, F-subspace two-route checks
  cayley       Cayley transform laws, stratum charts, trace splitting,
               stabilization, Kronecker pairing
  spectrum     unit/multiplication/structure-map laws and the cross-picture
               coherence oracle
  equivariance universe isometries, permutation actions, chart equivariance
  real         real Cayley, SO joint diagonalization, real charts
  isotropy     decomposition types, fixed-subspace dimensions, flag map
  cohomology   exact polynomial tables

Each suite runs `trials` seeded trials (deterministic per trial index) and
reports {suite, trials, failures, worst_residual, messages}, the messages
naming the first 20 failed checks.  The isotropy suite's deterministic sweep
solves the null-space oracle once per (parts, field) for one matrix and
compares n times that count with the fixed-dimension formula for n = 1..3.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import cohomtab, isodecomp
from .commodel import (
    CommutingTuple,
    F_frame,
    canonical_rep,
    class_distance,
    config_from_blocks,
    config_to_commuting,
    extend_by_identity,
    joint_diagonalize,
    rep_distance,
    rep_from_blocks,
    sigma_action_tuple,
)
from .errors import CommVarError, NotOddPrime, SingularAtOne
from .gammaconf import (
    Configuration,
    Label,
    SpherePoint,
    apply_based_map,
    canonicalize,
    config_distance,
    permute_point,
    push_labels,
    rank,
    sigma_action_config,
    smash,
    sphere_coord,
)
from .generate import (
    config_on_basis,
    gen_exact_rank_tuple,
    gen_partition_tuple,
    gen_random_commuting,
    gen_random_config,
    sample_value_columns,
)
from .isodecomp import (
    DecompType,
    block_type,
    decomposition_type,
    fixed_subspace_dim,
    flag_map,
    flag_preimage_from_blocks,
    is_complete_type,
    tuple_norm,
    unit_normalize,
)
from .numkit import (
    Tolerances,
    commutator_defect,
    fro,
    hermitian_eig,
    orthonormalize,
    stack_off_norm,
)
from .rankstrata import (
    cayley,
    cayley_inv,
    chart_from_blocks,
    pairing_chart,
    reassemble_trace,
    reconstruct_chart,
    stabilize,
    trace_split,
)
from .realk import (
    is_symmetric_unitary,
    joint_diagonalize_real,
    real_cayley,
    real_cayley_inv,
    real_chart_from_blocks,
    real_trace_split,
    reassemble_real_split,
    reconstruct_real_chart,
)
from .rng import SplitMix64, haar_orthogonal, haar_unitary, phase_fixed_q, subseed, unit_phase
from .spectrumops import (
    multiply,
    multiply_from_blocks,
    structure_map,
    structure_map_from_blocks,
    unit_map,
    unit_map_tuple,
)
from .symuniverse import (
    UniverseBasis,
    apply_perm_to_coords,
    perm_inverse,
    psi_embed,
    sigma_star,
)


# largest tuple length, truncation degree and trial count a run accepts: the
# equivariance suite charts all n! permutations, a universe holds C(n + D, n)
# monomials, and a trial of all suites takes about 0.06 s
MAX_N = 6
MAX_D = 4
MAX_TRIALS = 1000


@dataclass
class RunConfig:
    """Knobs of a verification run."""

    seed: int = 0
    trials: int = 25
    tol: Tolerances = field(default_factory=Tolerances)
    n_max: int = 3
    s_max: int = 6
    D_max: int = 2

    def __post_init__(self):
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must be between 1 and {MAX_TRIALS}")
        if min(self.n_max, self.s_max, self.D_max) < 1:
            raise ValueError("size caps must be at least 1")
        if self.n_max > MAX_N or self.D_max > MAX_D:
            raise ValueError(f"n_max must be at most {MAX_N} and D_max at most {MAX_D}")


class Recorder:
    """Collects check outcomes; an exception or an out-of-bound residual
    counts as one failure."""

    def __init__(self):
        self.failures = 0
        self.worst = 0.0
        self.messages: list[str] = []

    def check(self, label: str, residual: float, bound: float):
        self.worst = max(self.worst, residual)
        if not (residual <= bound):
            self.failures += 1
            self.messages.append(f"{label}: residual {residual:.3e} > {bound:.3e}")

    def expect(self, label: str, condition: bool):
        if not condition:
            self.failures += 1
            self.messages.append(f"{label}: expectation failed")


# suite name -> callable cfg -> summary, in definition order
SUITES = {}


def _trial_suite(name: str, sweep=None):
    """Decorator making a trial body (rng, cfg, rec) into the suite `name`,
    a callable cfg -> summary recorded in SUITES.

    The suite records into one Recorder: first the deterministic
    sweep(cfg, rec), if given, then cfg.trials trials, trial k drawing from
    SplitMix64(subseed(cfg.seed, k)).  A domain or validation error inside a
    trial counts as one failure.
    """
    def make(body):
        def suite(cfg: RunConfig) -> dict:
            rec = Recorder()
            if sweep is not None:
                sweep(cfg, rec)
            for trial in range(cfg.trials):
                try:
                    body(SplitMix64(subseed(cfg.seed, trial)), cfg, rec)
                except (CommVarError, ValueError) as exc:
                    rec.failures += 1
                    rec.messages.append(f"trial {trial}: {type(exc).__name__}: {exc}")
            return {"suite": name, "trials": cfg.trials, "failures": rec.failures,
                    "worst_residual": rec.worst, "messages": rec.messages[:20]}
        SUITES[name] = suite
        return suite
    return make


# ---------------------------------------------------------------- roundtrip


def _random_hermitian(rng: SplitMix64, s: int) -> np.ndarray:
    g = rng.complex_normals(s, s)
    return 0.5 * (g + g.conj().T)


@_trial_suite("roundtrip")
def suite_roundtrip(rng: SplitMix64, cfg: RunConfig, rec: Recorder):
    tol = cfg.tol
    s = rng.randint(2, 9)
    h = _random_hermitian(rng, s)
    q, lam = hermitian_eig(h, tol)
    rec.check("eig unitary", fro(q @ q.conj().T - np.eye(s)), 1e-10)
    rec.check("eig residual", fro(q.conj().T @ h @ q - np.diag(lam)),
              1e-10 * max(fro(h), 1e-30))
    rec.expect("eig ascending", bool(np.all(np.diff(lam) >= -1e-12)))

    frame = orthonormalize(rng.complex_normals(s, min(3, s)), tol)
    rec.check("orthonormalize idempotent", fro(orthonormalize(frame, tol) - frame), 1e-12)

    n = rng.randint(1, cfg.n_max + 1)
    t = gen_random_commuting(rng.next_u64(), n, min(s, cfg.s_max), "unitary")
    u = haar_unitary(rng, t.s)
    conj = u @ t.mats @ u.conj().T
    rec.check("defect conjugation invariance",
              abs(commutator_defect(conj) - commutator_defect(t.mats)), 1e-12)

    universe = UniverseBasis(n, rng.randint(1, cfg.D_max + 1))
    c = gen_random_config(rng.next_u64(), universe, max_labels=3,
                          max_rank=min(universe.dim, 6), tol=tol)
    rec.check("canonicalize idempotent",
              config_distance(canonicalize(c, tol), c), 1e-12)
    rec.expect("rank bound", rank(c) <= universe.dim)

    # tup is diagonalized once, for every check of it below
    tup = config_to_commuting(c)
    _, blocks = joint_diagonalize(tup, tol)
    rec.check("config round trip", config_distance(c, config_from_blocks(tup, blocks, tol)), 1e-6)
    f = F_frame(tup, blocks, tol)
    rec.expect("rank additivity", f.shape[1] == rank(c))

    torus = max(
        (float(np.max(np.abs(np.abs(b.values) - 1.0))) for b in blocks if b.values.size),
        default=0.0,
    )
    rec.check("values on unit torus", torus, tol.eps_cluster)

    # two-route F: complement of the sum of the eigenvalue-1 kernels
    kernels = []
    for a in tup.mats:
        w, v = np.linalg.eig(a)
        kernels.append(v[:, np.abs(w - 1.0) <= 1e-8])
    kmat = np.hstack(kernels) if kernels else np.zeros((tup.s, 0), dtype=complex)
    if kmat.shape[1]:
        u_, sv, _ = np.linalg.svd(kmat)
        rank_k = int(np.sum(sv > 1e-8))
        pk = u_[:, :rank_k] @ u_[:, :rank_k].conj().T
    else:
        pk = np.zeros((tup.s, tup.s), dtype=complex)
    rec.check("F two-route", fro(f @ f.conj().T - (np.eye(tup.s) - pk)), 1e-8)

    can = rep_from_blocks(tup, blocks, tol)
    rec.check("canonical_rep idempotent", rep_distance(canonical_rep(can, tol), can), 1e-8)

    # class constancy: rotating one component on the joint kernel keeps
    # the class, because the other components still pin those directions
    # (config-model tuples act as the identity off their labels); needs
    # n >= 2, since for n = 1 the kernel itself would change
    if tup.s > f.shape[1] and tup.n >= 2:
        phase = unit_phase(rng, 0.3)
        k0 = np.linalg.svd(np.eye(tup.s) - f @ f.conj().T)[0][:, :1]  # a complement column
        perturbed = tup.mats.copy()
        perturbed[0] = perturbed[0] @ extend_by_identity(k0, np.array([[phase]]))
        rec.check("class constancy",
                  rep_distance(canonical_rep(CommutingTuple("unitary", perturbed, tup.ambient),
                                             tol), can), 1e-8)

    # residual invariance under pre-conjugation
    u2 = haar_unitary(rng, tup.s)
    conj_t = CommutingTuple("unitary", u2 @ tup.mats @ u2.conj().T, tup.ambient)
    q2, _ = joint_diagonalize(conj_t, tol)
    d2 = q2.conj().T @ conj_t.mats @ q2
    res2 = stack_off_norm(d2)
    rec.check("joint residual after conjugation", res2,
              1e-8 * max(1.0, max(fro(a) for a in conj_t.mats)))

    # based-map functoriality: indexed pushes compose on the nose, and
    # canonicalizing the two-step push equals applying the composite
    if c.k >= 1:
        point = c.labels[0].point
        eq = canonicalize(
            Configuration(c.universe, [Label(lab.frame, point) for lab in c.labels]),
            tol)
        k = eq.k
        if k:
            alpha = [rng.randint(0, 3) for _ in range(k)]  # into <2>
            beta = [rng.randint(0, 4) for _ in range(2)]  # <2> -> <3>
            mid = push_labels(eq.labels, alpha, 2, eq.universe.dim, tol)
            two_step = canonicalize(
                Configuration(eq.universe,
                              push_labels(mid, beta, 3, eq.universe.dim, tol)),
                tol)
            composed = [beta[a - 1] if a else 0 for a in alpha]
            direct = apply_based_map(eq, composed, 3, tol)
            rec.check("based-map functoriality",
                      config_distance(two_step, direct), 1e-9)


# ------------------------------------------------------------------ cayley


@_trial_suite("cayley")
def suite_cayley(rng: SplitMix64, cfg: RunConfig, rec: Recorder):
    tol = cfg.tol
    s = rng.randint(1, min(6, cfg.s_max) + 1)
    x = gen_random_commuting(rng.next_u64(), 1, s, "skew_hermitian").mats[0]
    a = cayley(x, tol)
    rec.check("cayley unitary", fro(a.conj().T @ a - np.eye(s)), 1e-10)
    rec.check("cayley round trip", fro(cayley_inv(a, tol) - x), 1e-10)
    u = haar_unitary(rng, s)
    rec.check("cayley equivariance",
              fro(cayley(u @ x @ u.conj().T, tol) - u @ a @ u.conj().T), 1e-10)
    rec.check("cayley_inv(-Id)", fro(cayley_inv(-np.eye(s, dtype=complex), tol)), 1e-12)
    try:
        cayley_inv(np.eye(s, dtype=complex), tol)
        rec.expect("cayley_inv singular detection", False)
    except SingularAtOne:
        pass

    for i in range(50):
        t = math.tan((rng.uniform() - 0.5) * math.pi * 0.98)
        rec.check("cayley scalar chart",
                  abs(cayley(np.array([[1j * t]]), tol)[0, 0] - sphere_coord(t)), 1e-14)

    n = rng.randint(1, cfg.n_max + 1)
    srank = rng.randint(1, min(5, cfg.s_max) + 1)
    t_ex = gen_exact_rank_tuple(rng.next_u64(), n, srank, srank + 2)
    _, blocks = joint_diagonalize(t_ex, tol)
    chart = chart_from_blocks(t_ex, blocks, tol)
    rec.expect("stratum rank", chart.s == srank)
    rec.check("chart X commuting", commutator_defect(chart.X.mats), 1e-9)
    rec.check("chart reconstruction",
              rep_distance(canonical_rep(reconstruct_chart(chart, t_ex.s, tol), tol),
                           rep_from_blocks(t_ex, blocks, tol)), 1e-8)
    g = haar_unitary(rng, srank)
    chart2 = chart_from_blocks(t_ex, blocks, tol, frame=chart.f @ g)
    rec.check("chart frame ambiguity", rep_distance(chart2.X, CommutingTuple(
        "skew_hermitian", g.conj().T @ chart.X.mats @ g)), 1e-8)

    xt = gen_random_commuting(rng.next_u64(), n, srank, "skew_hermitian")
    bar, tau = trace_split(xt)
    rec.check("trace split traceless",
              max((abs(np.trace(m)) for m in bar.mats), default=0.0), 1e-12)
    rec.check("trace split reassembly", rep_distance(reassemble_trace(bar, tau), xt), 1e-12)

    yt = gen_random_commuting(rng.next_u64(), rng.randint(1, 3), rng.randint(1, 4),
                              "skew_hermitian")
    pair = pairing_chart(xt, yt)
    rec.check("pairing commutes", commutator_defect(pair.mats), 1e-12)
    tr_err = max(
        (abs(np.trace(pair.mats[i]) - yt.s * np.trace(xt.mats[i]))
         for i in range(xt.n)), default=0.0)
    rec.check("pairing trace identity", tr_err, 1e-10)

    st = stabilize(stabilize(xt, 1), 2)
    rec.expect("stabilize composition", st.n == xt.n + 3)
    rec.check("stabilize defect", commutator_defect(st.mats), 1e-12)


# ---------------------------------------------------------------- spectrum


def _random_point(rng: SplitMix64, n: int) -> SpherePoint:
    return SpherePoint([unit_phase(rng, 0.4) for _ in range(n)])


def _random_perm(rng: SplitMix64, n: int) -> list[int]:
    """A uniformly random permutation of 0..n-1, from one randint draw."""
    return list(list(itertools.permutations(range(n)))[rng.randint(0, math.factorial(n))])


@_trial_suite("spectrum")
def suite_spectrum(rng: SplitMix64, cfg: RunConfig, rec: Recorder):
    tol = cfg.tol
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    ua = UniverseBasis(n, 1)
    ub = UniverseBasis(m, 1)
    a = gen_random_config(rng.next_u64(), ua, max_labels=2, max_rank=2, tol=tol)
    b = gen_random_config(rng.next_u64(), ub, max_labels=2, max_rank=2, tol=tol)
    x = _random_point(rng, n)
    y = _random_point(rng, m)

    rec.check("unit law",
              config_distance(structure_map(unit_map(x, ua, tol), y, tol=tol),
                              unit_map(smash(x, y), UniverseBasis(n + m, 2), tol)),
              1e-8)
    rec.check("structure = multiply(unit)",
              config_distance(structure_map(a, y, tol=tol),
                              multiply(a, unit_map(y, UniverseBasis(m, ua.D), tol), tol=tol)),
              1e-8)
    ab = multiply(a, b, tol=tol)
    rec.expect("rank multiplicative", rank(ab) == rank(a) * rank(b))
    rec.expect("rank preserved", rank(structure_map(a, y, tol=tol)) == rank(a))

    uc = UniverseBasis(1, 1)
    c = gen_random_config(rng.next_u64(), uc, max_labels=1, max_rank=1, tol=tol)
    rec.check("associativity",
              config_distance(multiply(multiply(a, b, tol=tol), c, tol=tol),
                              multiply(a, multiply(b, c, tol=tol), tol=tol)),
              1e-8)

    # commutativity up to the block swap
    chi = list(range(m, m + n)) + list(range(m))
    rec.check("commutativity up to swap",
              config_distance(multiply(b, a, tol=tol),
                              sigma_action_config(chi, ab, tol)),
              1e-8)

    sigma, tau = _random_perm(rng, n), _random_perm(rng, m)
    rho = sigma + [n + t for t in tau]
    rec.check("multiply equivariance",
              config_distance(multiply(sigma_action_config(sigma, a, tol),
                                       sigma_action_config(tau, b, tol), tol=tol),
                              sigma_action_config(rho, ab, tol)),
              1e-8)
    rec.check("structure map equivariance",
              config_distance(
                  structure_map(sigma_action_config(sigma, a, tol),
                                permute_point(tau, y), tol=tol),
                  sigma_action_config(rho, structure_map(a, y, tol=tol), tol)),
              1e-8)

    # cross-picture coherence
    ta = config_to_commuting(a)
    tb = config_to_commuting(b)
    _, blocks_a = joint_diagonalize(ta, tol)
    rec.check("cross-picture multiply",
              class_distance(config_to_commuting(ab), multiply_from_blocks(
                  ta, blocks_a, tb, joint_diagonalize(tb, tol)[1], tol=tol), tol),
              1e-8)
    rec.check("cross-picture structure map",
              class_distance(config_to_commuting(structure_map(a, y, tol=tol)),
                             structure_map_from_blocks(ta, blocks_a, y, tol=tol), tol),
              1e-8)
    rec.check("cross-picture unit",
              class_distance(config_to_commuting(unit_map(x, ua, tol)),
                             unit_map_tuple(x, ua), tol),
              1e-8)


# ------------------------------------------------------------ equivariance


@_trial_suite("equivariance")
def suite_equivariance(rng: SplitMix64, cfg: RunConfig, rec: Recorder):
    tol = cfg.tol
    n = rng.randint(1, cfg.n_max + 1)
    m = rng.randint(1, 3)
    du = rng.randint(1, cfg.D_max + 1)
    u = UniverseBasis(n, du)
    v = UniverseBasis(m, rng.randint(1, 2))
    rec.expect("dim binomial", u.dim == math.comb(u.n + u.D, u.n))

    psi = psi_embed(u, v)
    norm_ok = all(
        u.norms_sq[i] * v.norms_sq[k]
        == psi.target.norms_sq[psi.pair_index[i, k]]
        for i in range(u.dim) for k in range(v.dim)
    )
    rec.expect("psi exact isometry on monomials", norm_ok)
    flat = psi.pair_index.reshape(-1)
    rec.expect("psi injective", len(set(flat.tolist())) == flat.size)

    vec1 = rng.complex_normals(u.dim)
    vec2 = rng.complex_normals(u.dim)
    w1 = rng.complex_normals(v.dim)
    w2 = rng.complex_normals(v.dim)
    lhs = np.vdot(psi.kron_vec(vec1, w1), psi.kron_vec(vec2, w2))
    rhs = np.vdot(vec1, vec2) * np.vdot(w1, w2)
    rec.check("psi isometry numeric", abs(lhs - rhs), 1e-10 * max(1.0, abs(rhs)))

    perms_u = list(itertools.permutations(range(n)))
    sigma, tau = _random_perm(rng, n), _random_perm(rng, m)
    ps = sigma_star(sigma, u)
    rec.expect("sigma_* fixes scalar line", ps[u.index[(0,) * n]] == u.index[(0,) * n])
    sig2 = _random_perm(rng, n)
    comp = [sigma[sig2[j]] for j in range(n)]
    rec.expect("sigma_* homomorphism",
               bool(np.all(sigma_star(comp, u)
                           == sigma_star(sigma, u)[sigma_star(sig2, u)])))

    # psi equivariance: (sigma x tau)_* psi = psi (sigma_* (x) tau_*)
    rho = sigma + [n + t for t in tau]
    pr = sigma_star(rho, psi.target)
    pt = sigma_star(tau, v)
    ok = all(
        pr[psi.pair_index[i, k]] == psi.pair_index[ps[i], pt[k]]
        for i in range(u.dim) for k in range(v.dim)
    )
    rec.expect("psi equivariance", ok)

    c = gen_random_config(rng.next_u64(), u, max_labels=2,
                          max_rank=min(u.dim, 4), tol=tol)
    t = config_to_commuting(c)

    @functools.cache
    def permuted(sg):  # sigma_action_tuple(sg, t) and its blocks, once; t for the identity
        ts = t if sg == perms_u[0] else sigma_action_tuple(list(sg), t)
        return ts, joint_diagonalize(ts, tol)[1]

    rec.check("model equivariance",
              rep_distance(rep_from_blocks(*permuted(tuple(sigma)), tol), canonical_rep(
                  config_to_commuting(sigma_action_config(sigma, c, tol)), tol)),
              1e-8)
    comp_t = sigma_action_tuple(sigma, sigma_action_tuple(sig2, t))
    rec.check("tuple action composition",
              rep_distance(canonical_rep(comp_t, tol),
                           rep_from_blocks(*permuted(tuple(comp)), tol)), 1e-8)
    rec.expect("rank invariance",
               rank(sigma_action_config(sigma, c, tol)) == rank(c))

    # chart equivariance for every permutation
    ch = chart_from_blocks(*permuted(perms_u[0]), tol)
    if ch.s:
        for sg in perms_u:
            ch_s = ch if sg == perms_u[0] else chart_from_blocks(*permuted(sg), tol)
            perm_univ = sigma_star(list(sg), u)
            f_moved = apply_perm_to_coords(perm_univ, ch.f)
            g = ch_s.f.conj().T @ f_moved
            moved = g @ ch.X.mats[perm_inverse(list(sg))] @ g.conj().T
            rec.check("chart equivariance",
                      rep_distance(ch_s.X, CommutingTuple("skew_hermitian", moved)), 1e-8)


# -------------------------------------------------------------------- real


@_trial_suite("real")
def suite_real(rng: SplitMix64, cfg: RunConfig, rec: Recorder):
    tol = cfg.tol
    s = rng.randint(1, min(6, cfg.s_max) + 1)
    n = rng.randint(1, cfg.n_max + 1)

    x = gen_random_commuting(rng.next_u64(), 1, s, "real_symmetric").mats[0]
    a = real_cayley(x, tol)
    rec.check("real cayley unitary", fro(a.conj().T @ a - np.eye(s)), 1e-10)
    rec.check("real cayley symmetric", fro(a - a.T), 1e-10)
    rec.check("real cayley inverse", fro(real_cayley_inv(a, tol) - x), 1e-10)
    o = haar_orthogonal(rng, s)
    rec.check("real cayley equivariance",
              fro(real_cayley(o @ x @ o.T, tol) - o @ a @ o.T), 1e-10)

    t = gen_random_commuting(rng.next_u64(), n, s, "real_symmetric")
    q, _ = joint_diagonalize_real(t, tol)
    diag = q.T @ t.mats @ q
    res = stack_off_norm(diag)
    rec.check("SO joint residual", res, 1e-8 * max(1.0, max(fro(m) for m in t.mats)))
    rec.check("SO determinant", abs(np.linalg.det(q) - 1.0), 1e-10)

    split = real_trace_split(t)
    rec.check("real split traceless",
              max((abs(np.trace(m)) for m in split.traceless.mats), default=0.0), 1e-12)
    rec.check("real split reassembly", rep_distance(reassemble_real_split(split), t), 1e-12)

    # real configuration data -> symmetric unitaries -> real chart
    universe = UniverseBasis(n, 1)
    dim = universe.dim
    basis = haar_orthogonal(rng, dim)
    dims, left = [], rng.randint(1, min(dim, 3) + 1)
    while left > 0:
        dims.append(rng.randint(1, left + 1))
        left -= dims[-1]
    pts = sample_value_columns(rng, "unitary", n, len(dims), 0.4, 0.2)
    c = config_on_basis(universe, basis, dims, pts, tol)
    tsym = config_to_commuting(c)
    rec.expect("complexified data is symmetric",
               all(is_symmetric_unitary(m) for m in tsym.mats))
    _, blocks = joint_diagonalize(tsym, tol)
    chart = real_chart_from_blocks(tsym, blocks, tol)
    rec.expect("real chart is real", chart.X.kind == "real_symmetric")
    rec.check("real chart reconstruction",
              rep_distance(canonical_rep(reconstruct_real_chart(chart, dim, tol), tol),
                           rep_from_blocks(tsym, blocks, tol)), 1e-8)

    chart_c = chart_from_blocks(tsym, blocks, tol)
    if chart.s:
        g = chart_c.f.conj().T @ chart.f.astype(complex)
        rec.check("real chart complexifies", rep_distance(
            CommutingTuple("skew_hermitian", 1j * chart.X.mats),
            CommutingTuple("skew_hermitian", g.conj().T @ chart_c.X.mats @ g)), 1e-8)

    # unit sphere of the rank-one diagonal family: parametrization hits
    # valid tuples for s = 2
    theta = rng.uniform() * 2 * math.pi
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    diag_vals = rng.normals(n, 2)
    diag_vals -= diag_vals.mean(axis=1, keepdims=True)
    nrm = math.sqrt(float(np.sum(diag_vals ** 2)))
    if nrm > 1e-9:
        diag_vals /= nrm
        mats = np.array([rot @ np.diag(dv) @ rot.T for dv in diag_vals])
        cand = CommutingTuple("real_symmetric", mats)
        cand.validate(tol)
        rec.check("moebius parametrization norm",
                  abs(tuple_norm(cand) - 1.0), 1e-10)
        rec.check("moebius parametrization traceless",
                  max(abs(np.trace(m)) for m in mats), 1e-10)


# ---------------------------------------------------------------- isotropy


def _field_basis(s: int, field: str) -> np.ndarray:
    """Real basis of the skew-Hermitian (complex field) or real symmetric
    (real field) s x s matrices, as an (m, s, s) stack: the diagonal units,
    then for each pair a < b in row order the symmetric unit (complex field:
    the antisymmetric real and the symmetric imaginary unit)."""
    units = np.eye(s * s).reshape(s, s, s, s)  # units[a, b] = E_ab
    a, b = np.triu_indices(s, 1)
    diag = units[np.arange(s), np.arange(s)]
    upper, lower = units[a, b], units[b, a]
    if field == "real":
        return np.concatenate([diag, upper + lower])
    pairs = np.stack([upper - lower, 1j * (upper + lower)], axis=1).reshape(2 * len(a), s, s)
    return np.concatenate([1j * diag, pairs])


@functools.cache
def _field_columns(s: int, field: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (s*s, m) flattened `_field_basis` columns and real (m,) trace row."""
    basis = _field_basis(s, field)
    cols = basis.reshape(len(basis), s * s).T.copy()
    trace = np.trace(basis.imag if field == "complex" else basis.real, axis1=1, axis2=2)
    cols.flags.writeable = trace.flags.writeable = False
    return cols, trace


def _block_elements(parts, field: str, rng: SplitMix64) -> np.ndarray:
    """(2 + len(parts), s, s) stack generating (a dense subgroup of) the block
    subgroup: two Haar block elements from one Gaussian draw scattered through
    the block-diagonal mask and one stacked `phase_fixed_q` (the Householder
    QR keeps off-block entries exactly 0), then one reflection
    I - 2 e e^T per block, e the unit vector at its first coordinate."""
    s = sum(parts)
    labels = np.repeat(np.arange(len(parts)), parts)
    mask = labels[:, None] == labels[None, :]
    z = np.zeros((2, s, s), dtype=complex if field == "complex" else float)
    z[:, mask] = (rng.complex_normals if field == "complex" else rng.normals)(2, mask.sum())
    e = np.eye(s)[np.searchsorted(labels, np.arange(len(parts)))]
    return np.concatenate([phase_fixed_q(z), np.eye(s) - 2 * e[:, :, None] * e[:, None, :]])


def fixed_dim_nullspace_oracle(parts, n: int, field: str, seed: int = 0) -> int:
    """Independent route to the fixed-subspace dimension: the null-space
    dimension, by SVD, of the real-linear system 'commutes with the block
    subgroup and is traceless' on one matrix, times n for the n-fold direct
    sum.  On row-major flattened matrices X -> g X g^H is g (x) conj(g): one
    stacked Kronecker product and one matmul give every commutator defect."""
    s = sum(parts)
    cols, trace = _field_columns(s, field)
    g = _block_elements(parts, field, SplitMix64(seed ^ 0xFACADE))
    kron = (g[:, :, None, :, None] * g.conj()[:, None, :, None, :]).reshape(len(g), s * s, s * s)
    diff = kron @ cols - cols
    sv = np.linalg.svd(np.concatenate([*diff.real, *diff.imag, trace[None]]), compute_uv=False)
    rank_ = int(np.sum(sv > 1e-8 * (sv[0] if sv.size else 1.0)))
    return n * (len(trace) - rank_)


def _partitions(s: int):
    def rec(left, cap):
        if left == 0:
            yield ()
            return
        for first in range(min(left, cap), 0, -1):
            for rest in rec(left - first, first):
                yield (first,) + rest
    yield from rec(s, s)


def _fixed_dim_sweep(cfg: RunConfig, rec: Recorder):
    """Deterministic sweep: the fixed-dimension formula against the
    null-space oracle, solved once per (parts, field) for one matrix; the
    n-tuple space is its n-fold direct sum."""
    fields = ("complex", "real")
    for s in range(1, 6):
        for parts in _partitions(s):
            d = DecompType(parts)
            per_matrix = {f: fixed_dim_nullspace_oracle(parts, 1, f, cfg.seed) for f in fields}
            for n in range(1, 4):
                for field_ in fields:
                    rec.expect(f"fixed dim {parts} n={n} {field_}",
                               fixed_subspace_dim(d, n, field_) == n * per_matrix[field_])


@_trial_suite("isotropy", sweep=_fixed_dim_sweep)
def suite_isotropy(rng: SplitMix64, cfg: RunConfig, rec: Recorder):
    tol = cfg.tol
    s = rng.randint(min(2, cfg.s_max), min(5, cfg.s_max) + 1)
    n = rng.randint(1, cfg.n_max + 1)
    parts_all = [p for p in _partitions(s)]
    parts = parts_all[rng.randint(0, len(parts_all))]
    kind = "skew_hermitian" if rng.uniform() < 0.7 else "real_symmetric"
    t = gen_partition_tuple(rng.next_u64(), n, parts, kind=kind)
    rec.expect("prescribed type", decomposition_type(t, tol).parts
               == tuple(sorted(parts, reverse=True)))

    if len(parts) > 1:
        tu = gen_partition_tuple(rng.next_u64(), n, parts, kind=kind,
                                 traceless=True, unit=True)
        rec.check("unit norm", abs(tuple_norm(tu) - 1.0), 1e-10)
        tu_type = decomposition_type(tu, tol)
        rec.expect("complete type", is_complete_type(tu_type))
        rec.expect("type invariant under scaling",
                   decomposition_type(unit_normalize(
                       CommutingTuple(tu.kind, 7.0 * tu.mats), tol), tol).parts
                   == tu_type.parts)
        if kind == "skew_hermitian":
            u = haar_unitary(rng, s)
            conj = CommutingTuple(kind, u @ tu.mats @ u.conj().T)
            rec.expect("type conjugation invariant",
                       decomposition_type(conj, tol).parts == tu_type.parts)
            rec.expect("stabilize keeps type",
                       decomposition_type(stabilize(tu, 2), tol).parts == tu_type.parts)

    # flag map sampling at p = 2
    g = haar_unitary(rng, 2)
    amp = 1.0 / math.sqrt(2.0)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    x = CommutingTuple("skew_hermitian",
                       np.array([np.diag([sign * 1j * amp, -sign * 1j * amp])]))
    target = flag_map(g, x, tol)
    rec.check("flag image unit", abs(tuple_norm(target) - 1.0), 1e-10)
    _, blocks = joint_diagonalize(target, tol)
    rec.expect("flag type", block_type(blocks).parts == (1, 1))
    gc, xc = flag_preimage_from_blocks(target, blocks, tol)
    rec.check("flag preimage residual", rep_distance(flag_map(gc, xc, tol), target), 1e-8)
    # the swapped preimage canonicalizes to the same class
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    g2, x2 = isodecomp.canonical_flag_class(
        g @ swap, CommutingTuple("skew_hermitian", swap @ x.mats @ swap), tol)
    g1, x1 = isodecomp.canonical_flag_class(g, x, tol)
    rec.check("flag class uniqueness", fro(g1 - g2) + rep_distance(x1, x2), 1e-8)


# -------------------------------------------------------------- cohomology


def _cohomology_tables(cfg: RunConfig, rec: Recorder):
    """Deterministic sweep: the fixed tables and the rejected non-primes."""
    p3 = cohomtab.poincare_poly(3)
    rec.expect("p=3 expansion", p3.to_dict() == {0: 1, 3: 1, 4: 2, 5: 1})
    rec.expect("p=3 reduced table", cohomtab.a0_lambda_table(3) == {3: 1, 4: 2, 5: 1})
    for p in (3, 5, 7, 11):
        poly = cohomtab.poincare_poly(p)
        tab = cohomtab.a0_lambda_table(p)
        rec.expect(f"P(0)=1 p={p}", poly.evaluate(0) == 1)
        rec.expect(f"P(1) p={p}", poly.evaluate(1) == 1 + 2 ** (p - 1))
        rec.expect(f"degree p={p}", poly.degree == 2 * p - 2 + (p - 2) ** 2)
        rec.expect(f"lowest degree p={p}", min(tab) == 2 * p - 3)
        rec.expect(f"total dim p={p}", sum(tab.values()) == 2 ** (p - 1))
        with_unit = dict(tab)
        with_unit[0] = with_unit.get(0, 0) + 1
        rec.expect(f"reduced consistency p={p}", with_unit == poly.to_dict())
    for bad in (2, 4, 9, 15):
        try:
            cohomtab.poincare_poly(bad)
            rec.expect(f"NotOddPrime {bad}", False)
        except NotOddPrime:
            pass
    one_plus_t = cohomtab.IntPolynomial({0: 1, 1: 1})
    rec.expect("(1+t)^2", (one_plus_t * one_plus_t).to_dict() == {0: 1, 1: 2, 2: 1})


@_trial_suite("cohomology", sweep=_cohomology_tables)
def suite_cohomology(rng: SplitMix64, cfg: RunConfig, rec: Recorder):
    a = cohomtab.IntPolynomial({rng.randint(0, 6): rng.randint(-5, 6) for _ in range(3)})
    b = cohomtab.IntPolynomial({rng.randint(0, 6): rng.randint(-5, 6) for _ in range(3)})
    rec.expect("poly mult commutes", a * b == b * a)
    rec.expect("poly add commutes", a + b == b + a)
    rec.expect("zero annihilates", (a * cohomtab.IntPolynomial.zero()).coeffs == {})


def run_suite(name: str, cfg: RunConfig) -> dict:
    """Run one named suite, or all of them aggregated."""
    if name == "all":
        subs = [fn(cfg) for fn in SUITES.values()]
        return {
            "suite": "all",
            "trials": cfg.trials,
            "failures": sum(s["failures"] for s in subs),
            "worst_residual": max(s["worst_residual"] for s in subs),
            "suites": subs,
        }
    return SUITES[name](cfg)
