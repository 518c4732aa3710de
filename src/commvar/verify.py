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
naming the first 20 failed checks.  The cross-picture checks of spectrum and
equivariance read a configuration's spectrum off its labels
(commodel.config_spectrum) and diagonalize only the tuple side.  Two
deterministic sweeps read no config, so no size cap applies: isotropy solves
the null-space oracle once per process for each (parts, field) of s = 1..5,
on fixed signed permutations of the block subgroup, and compares n times each
count with the formula for n = 1..3 on every run; cohomology checks p = 3, 5,
7 and 11.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import (cohomtab, commodel, gammaconf, generate, isodecomp, numkit, rankstrata, realk,
               spectrumops, symuniverse)
from .errors import CommVarError, NotOddPrime, SingularAtOne
from .rng import SplitMix64, haar_orthogonal, haar_unitary, subseed, unit_phase


# largest tuple length, truncation degree and trial count a run accepts: a
# universe holds C(n + D, n) monomials.  A trial of all suites takes about
# 13 ms at the default caps and 0.14 s at n_max = 6, D_max = 4, most of it
# roundtrip and equivariance (seeds 0-3; 2-vCPU Xeon host, Python 3.11.7)
MAX_N = 6
MAX_D = 4
MAX_TRIALS = 1000


@dataclass
class RunConfig:
    """Knobs of a verification run."""

    seed: int = 0
    trials: int = 25
    tol: numkit.Tolerances = field(default_factory=numkit.Tolerances)
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
    counts as one failure and adds one message."""

    def __init__(self):
        self.worst = 0.0
        self.messages: list[str] = []

    def check(self, label: str, residual: float, bound: float):
        self.worst = max(self.worst, residual)
        if not (residual <= bound):
            self.messages.append(f"{label}: residual {residual:.3e} > {bound:.3e}")

    def expect(self, label: str, condition: bool):
        if not condition:
            self.messages.append(f"{label}: expectation failed")


# suite name -> callable cfg -> summary, in definition order
SUITES = {}


def _trial_suite(name: str, sweep=None):
    """Decorator making a trial body (rng, cfg, rec) into the suite `name`,
    a callable cfg -> summary recorded in SUITES.

    The suite records into one Recorder: first the deterministic sweep(rec),
    if given, then cfg.trials trials, trial k drawing from
    SplitMix64(subseed(cfg.seed, k)).  A domain or validation error inside a
    trial counts as one failure.
    """
    def make(body):
        def suite(cfg: RunConfig) -> dict:
            rec = Recorder()
            if sweep is not None:
                sweep(rec)
            for trial in range(cfg.trials):
                try:
                    body(SplitMix64(subseed(cfg.seed, trial)), cfg, rec)
                except (CommVarError, ValueError) as exc:
                    rec.messages.append(f"trial {trial}: {type(exc).__name__}: {exc}")
            return {"suite": name, "trials": cfg.trials, "failures": len(rec.messages),
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
    q, lam = numkit.hermitian_eig(h, tol)
    rec.check("eig unitary", numkit.fro(q @ q.conj().T - np.eye(s)), 1e-10)
    rec.check("eig residual", numkit.fro(q.conj().T @ h @ q - np.diag(lam)),
              1e-10 * max(numkit.fro(h), 1e-30))
    rec.expect("eig ascending", bool(np.all(np.diff(lam) >= -1e-12)))

    frame = numkit.orthonormalize(rng.complex_normals(s, min(3, s)), tol)
    rec.check("orthonormalize idempotent",
              numkit.fro(numkit.orthonormalize(frame, tol) - frame), 1e-12)

    n = rng.randint(1, cfg.n_max + 1)
    t = generate.gen_random_commuting(rng.next_u64(), n, min(s, cfg.s_max), "unitary")
    u = haar_unitary(rng, t.s)
    conj = u @ t.mats @ u.conj().T
    rec.check("defect conjugation invariance",
              abs(numkit.commutator_defect(conj) - numkit.commutator_defect(t.mats)), 1e-12)

    universe = symuniverse.UniverseBasis(n, rng.randint(1, cfg.D_max + 1))
    c = generate.gen_random_config(rng.next_u64(), universe, max_labels=3,
                                   max_rank=min(universe.dim, 6), tol=tol)
    rec.check("canonicalize idempotent",
              gammaconf.config_distance(gammaconf.canonicalize(c, tol), c), 1e-12)
    rec.expect("rank bound", gammaconf.rank(c) <= universe.dim)

    # tup is diagonalized once, for every check of it below
    tup = commodel.config_to_commuting(c)
    spec = commodel.joint_diagonalize(tup, tol)
    rec.check("config round trip",
              gammaconf.config_distance(c, commodel.commuting_to_config(tup, tol, spec)), 1e-6)
    f = commodel.F_subspace(tup, tol, spec)
    rec.expect("rank additivity", f.shape[1] == gammaconf.rank(c))

    torus = np.abs(np.abs([b.values for b in spec.blocks]) - 1.0).max(initial=0.0)
    rec.check("values on unit torus", float(torus), tol.eps_cluster)

    # two-route F: complement of the sum of the eigenvalue-1 kernels
    w, v = np.linalg.eig(tup.mats)
    u_, sv, _ = np.linalg.svd(np.hstack([vj[:, np.abs(wj - 1.0) <= 1e-8] for wj, vj in zip(w, v)]))
    rank_k = int(np.sum(sv > 1e-8))
    pk = u_[:, :rank_k] @ u_[:, :rank_k].conj().T
    rec.check("F two-route", numkit.fro(f @ f.conj().T - (np.eye(tup.s) - pk)), 1e-8)

    can = commodel.canonical_rep(tup, tol, spec)
    rec.check("canonical_rep idempotent",
              commodel.rep_distance(commodel.canonical_rep(can, tol), can), 1e-8)

    # class constancy: rotating one component on the joint kernel keeps
    # the class, because the other components still pin those directions
    # (config-model tuples act as the identity off their labels); needs
    # n >= 2, since for n = 1 the kernel itself would change
    if tup.s > f.shape[1] and tup.n >= 2:
        phase = unit_phase(rng, 0.3)
        k0 = np.linalg.svd(np.eye(tup.s) - f @ f.conj().T)[0][:, :1]  # a complement column
        perturbed = tup.mats.copy()
        perturbed[0] = perturbed[0] @ commodel.extend_by_identity(k0, np.array([[phase]]))
        rotated = commodel.CommutingTuple("unitary", perturbed, tup.ambient)
        rec.check("class constancy",
                  commodel.rep_distance(commodel.canonical_rep(rotated, tol), can), 1e-8)

    # residual invariance under pre-conjugation
    u2 = haar_unitary(rng, tup.s)
    conj_t = commodel.CommutingTuple("unitary", u2 @ tup.mats @ u2.conj().T, tup.ambient)
    q2 = commodel.joint_diagonalize(conj_t, tol).Q
    rec.check("joint residual after conjugation", numkit.off_norm(q2.conj().T @ conj_t.mats @ q2),
              1e-8 * max(1.0, max(numkit.fro(a) for a in conj_t.mats)))

    # based-map functoriality: indexed pushes compose on the nose, and
    # canonicalizing the two-step push equals applying the composite
    if c.k >= 1:
        point = c.labels[0].point
        eq = gammaconf.canonicalize(gammaconf.Configuration(
            c.universe, [gammaconf.Label(lab.frame, point) for lab in c.labels]), tol)
        k = eq.k
        if k:
            alpha = [rng.randint(0, 3) for _ in range(k)]  # into <2>
            beta = [rng.randint(0, 4) for _ in range(2)]  # <2> -> <3>
            mid = gammaconf.push_labels(eq.labels, alpha, 2, eq.universe.dim, tol)
            two_step = gammaconf.canonicalize(
                gammaconf.Configuration(eq.universe,
                                        gammaconf.push_labels(mid, beta, 3, eq.universe.dim, tol)),
                tol)
            composed = [beta[a - 1] if a else 0 for a in alpha]
            direct = gammaconf.apply_based_map(eq, composed, 3, tol)
            rec.check("based-map functoriality",
                      gammaconf.config_distance(two_step, direct), 1e-9)


# ------------------------------------------------------------------ cayley


@_trial_suite("cayley")
def suite_cayley(rng: SplitMix64, cfg: RunConfig, rec: Recorder):
    tol = cfg.tol
    s = rng.randint(1, min(6, cfg.s_max) + 1)
    x = generate.gen_random_commuting(rng.next_u64(), 1, s, "skew_hermitian").mats[0]
    a = rankstrata.cayley(x, tol)
    rec.check("cayley unitary", numkit.fro(a.conj().T @ a - np.eye(s)), 1e-10)
    rec.check("cayley round trip", numkit.fro(rankstrata.cayley_inv(a, tol) - x), 1e-10)
    u = haar_unitary(rng, s)
    rec.check("cayley equivariance",
              numkit.fro(rankstrata.cayley(u @ x @ u.conj().T, tol) - u @ a @ u.conj().T), 1e-10)
    rec.check("cayley_inv(-Id)",
              numkit.fro(rankstrata.cayley_inv(-np.eye(s, dtype=complex), tol)), 1e-12)
    try:
        rankstrata.cayley_inv(np.eye(s, dtype=complex), tol)
        rec.expect("cayley_inv singular detection", False)
    except SingularAtOne:
        pass

    # one diagonal chart solves entry by entry, as fifty 1 x 1 charts would
    ts = [math.tan((rng.uniform() - 0.5) * math.pi * 0.98) for _ in range(50)]
    charts = np.diagonal(rankstrata.cayley(np.diag(1j * np.array(ts)), tol))
    for t, z in zip(ts, charts.tolist()):
        rec.check("cayley scalar chart", abs(z - gammaconf.sphere_coord(t)), 1e-14)

    n = rng.randint(1, cfg.n_max + 1)
    srank = rng.randint(1, min(5, cfg.s_max) + 1)
    t_ex = generate.gen_exact_rank_tuple(rng.next_u64(), n, srank, srank + 2)
    spec = commodel.joint_diagonalize(t_ex, tol)
    chart = rankstrata.subquotient_chart(t_ex, tol, spectrum=spec)
    rec.expect("stratum rank", chart.s == srank)
    rec.check("chart X commuting", numkit.commutator_defect(chart.X.mats), 1e-9)
    rebuilt = rankstrata.reconstruct_chart(chart, t_ex.s, tol)
    rec.check("chart reconstruction",
              commodel.rep_distance(commodel.canonical_rep(rebuilt, tol),
                                    commodel.canonical_rep(t_ex, tol, spec)), 1e-8)
    g = haar_unitary(rng, srank)
    chart2 = rankstrata.subquotient_chart(t_ex, tol, chart.f @ g, spec)
    rec.check("chart frame ambiguity", commodel.rep_distance(chart2.X, commodel.CommutingTuple(
        "skew_hermitian", g.conj().T @ chart.X.mats @ g)), 1e-8)

    xt = generate.gen_random_commuting(rng.next_u64(), n, srank, "skew_hermitian")
    bar, tau = rankstrata.trace_split(xt)
    rec.check("trace split traceless",
              max((abs(np.trace(m)) for m in bar.mats), default=0.0), 1e-12)
    rec.check("trace split reassembly",
              commodel.rep_distance(rankstrata.reassemble_trace(bar, tau), xt), 1e-12)

    yt = generate.gen_random_commuting(rng.next_u64(), rng.randint(1, min(2, cfg.n_max) + 1),
                                       rng.randint(1, min(3, cfg.s_max) + 1), "skew_hermitian")
    pair = rankstrata.pairing_chart(xt, yt)
    rec.check("pairing commutes", numkit.commutator_defect(pair.mats), 1e-12)
    tr_err = max(
        (abs(np.trace(pair.mats[i]) - yt.s * np.trace(xt.mats[i]))
         for i in range(xt.n)), default=0.0)
    rec.check("pairing trace identity", tr_err, 1e-10)

    st = rankstrata.stabilize(rankstrata.stabilize(xt, 1), 2)
    rec.expect("stabilize composition", st.n == xt.n + 3)
    rec.check("stabilize defect", numkit.commutator_defect(st.mats), 1e-12)


# ---------------------------------------------------------------- spectrum


def _random_point(rng: SplitMix64, n: int) -> gammaconf.SpherePoint:
    return gammaconf.SpherePoint([unit_phase(rng, 0.4) for _ in range(n)])


def _random_perm(rng: SplitMix64, n: int) -> list[int]:
    """A uniformly random permutation of 0..n-1, from one randint draw."""
    return list(list(itertools.permutations(range(n)))[rng.randint(0, math.factorial(n))])


def _config_rep(c: gammaconf.Configuration, tol: numkit.Tolerances) -> commodel.CommutingTuple:
    """canonical_rep(config_to_commuting(c)) of a canonical c, its spectrum read off its labels."""
    spec = commodel.config_spectrum(c, tol)
    return commodel.canonical_rep(spec.t, tol, spec)


@_trial_suite("spectrum")
def suite_spectrum(rng: SplitMix64, cfg: RunConfig, rec: Recorder):
    tol = cfg.tol
    n = rng.randint(1, min(2, cfg.n_max) + 1)
    m = rng.randint(1, min(2, cfg.n_max) + 1)
    ua = symuniverse.UniverseBasis(n, 1)
    ub = symuniverse.UniverseBasis(m, 1)
    a = generate.gen_random_config(rng.next_u64(), ua, max_labels=2, max_rank=2, tol=tol)
    b = generate.gen_random_config(rng.next_u64(), ub, max_labels=2, max_rank=2, tol=tol)
    x = _random_point(rng, n)
    y = _random_point(rng, m)

    unit_x = spectrumops.unit_map(x, ua, tol)
    ay = spectrumops.structure_map(a, y, tol=tol)
    rec.check("unit law",
              gammaconf.config_distance(
                  spectrumops.structure_map(unit_x, y, tol=tol),
                  spectrumops.unit_map(gammaconf.smash(x, y), symuniverse.UniverseBasis(n + m, 2),
                                       tol)),
              1e-8)
    unit_y = spectrumops.unit_map(y, symuniverse.UniverseBasis(m, ua.D), tol)
    rec.check("structure = multiply(unit)",
              gammaconf.config_distance(ay, spectrumops.multiply(a, unit_y, tol=tol)), 1e-8)
    ab = spectrumops.multiply(a, b, tol=tol)
    rec.expect("rank multiplicative", gammaconf.rank(ab) == gammaconf.rank(a) * gammaconf.rank(b))
    rec.expect("rank preserved", gammaconf.rank(ay) == gammaconf.rank(a))

    uc = symuniverse.UniverseBasis(1, 1)
    c = generate.gen_random_config(rng.next_u64(), uc, max_labels=1, max_rank=1, tol=tol)
    rec.check("associativity",
              gammaconf.config_distance(
                  spectrumops.multiply(ab, c, tol=tol),
                  spectrumops.multiply(a, spectrumops.multiply(b, c, tol=tol), tol=tol)),
              1e-8)

    # commutativity up to the block swap
    chi = list(range(m, m + n)) + list(range(m))
    rec.check("commutativity up to swap",
              gammaconf.config_distance(spectrumops.multiply(b, a, tol=tol),
                                        gammaconf.sigma_action_config(chi, ab, tol)),
              1e-8)

    sigma, tau = _random_perm(rng, n), _random_perm(rng, m)
    rho = sigma + [n + t for t in tau]
    sigma_a = gammaconf.sigma_action_config(sigma, a, tol)
    rec.check("multiply equivariance",
              gammaconf.config_distance(
                  spectrumops.multiply(sigma_a, gammaconf.sigma_action_config(tau, b, tol),
                                       tol=tol),
                  gammaconf.sigma_action_config(rho, ab, tol)),
              1e-8)
    rec.check("structure map equivariance",
              gammaconf.config_distance(
                  spectrumops.structure_map(sigma_a, gammaconf.permute_point(tau, y), tol=tol),
                  gammaconf.sigma_action_config(rho, ay, tol)),
              1e-8)

    # cross-picture coherence: the configuration side reads its spectrum off
    # its labels, the tuple side is diagonalized
    sa, sb = commodel.config_spectrum(a, tol), commodel.config_spectrum(b, tol)
    rec.check("cross-picture multiply",
              commodel.rep_distance(_config_rep(ab, tol), commodel.canonical_rep(
                  spectrumops.multiply_tuple(sa.t, sb.t, tol, sa, sb), tol)), 1e-8)
    rec.check("cross-picture structure map",
              commodel.rep_distance(_config_rep(ay, tol), commodel.canonical_rep(
                  spectrumops.structure_map_tuple(sa.t, y, tol=tol, spectrum=sa), tol)),
              1e-8)
    rec.check("cross-picture unit",
              commodel.rep_distance(_config_rep(unit_x, tol), commodel.canonical_rep(
                  spectrumops.unit_map_tuple(x, ua), tol)), 1e-8)


# ------------------------------------------------------------ equivariance


@_trial_suite("equivariance")
def suite_equivariance(rng: SplitMix64, cfg: RunConfig, rec: Recorder):
    tol = cfg.tol
    n = rng.randint(1, cfg.n_max + 1)
    m = rng.randint(1, min(2, cfg.n_max) + 1)
    du = rng.randint(1, cfg.D_max + 1)
    u = symuniverse.UniverseBasis(n, du)
    v = symuniverse.UniverseBasis(m, rng.randint(1, 2))
    rec.expect("dim binomial", u.dim == math.comb(u.n + u.D, u.n))

    psi = symuniverse.psi_embed(u, v)
    rec.expect("psi exact isometry on monomials", bool(np.all(
        np.outer(u.norms_sq, v.norms_sq) == np.array(psi.target.norms_sq)[psi.pair_index])))
    rec.expect("psi injective", len(set(psi.pair_index.ravel().tolist())) == psi.pair_index.size)

    vec1 = rng.complex_normals(u.dim)
    vec2 = rng.complex_normals(u.dim)
    w1 = rng.complex_normals(v.dim)
    w2 = rng.complex_normals(v.dim)
    lhs = np.vdot(psi.kron_vec(vec1, w1), psi.kron_vec(vec2, w2))
    rhs = np.vdot(vec1, vec2) * np.vdot(w1, w2)
    rec.check("psi isometry numeric", abs(lhs - rhs), 1e-10 * max(1.0, abs(rhs)))

    ident = tuple(range(n))
    sigma, tau = _random_perm(rng, n), _random_perm(rng, m)
    ps = symuniverse.sigma_star(sigma, u)
    rec.expect("sigma_* fixes scalar line", ps[u.index[(0,) * n]] == u.index[(0,) * n])
    sig2 = _random_perm(rng, n)
    comp = [sigma[sig2[j]] for j in range(n)]
    rec.expect("sigma_* homomorphism",
               bool(np.all(symuniverse.sigma_star(comp, u)
                           == symuniverse.sigma_star(sigma, u)[symuniverse.sigma_star(sig2, u)])))

    # psi equivariance: (sigma x tau)_* psi = psi (sigma_* (x) tau_*)
    rho = sigma + [n + t for t in tau]
    pr = symuniverse.sigma_star(rho, psi.target)
    pt = symuniverse.sigma_star(tau, v)
    rec.expect("psi equivariance",
               bool(np.all(pr[psi.pair_index] == psi.pair_index[np.ix_(ps, pt)])))

    c = generate.gen_random_config(rng.next_u64(), u, max_labels=2,
                                   max_rank=min(u.dim, 4), tol=tol)
    t = commodel.config_to_commuting(c)

    @functools.cache
    def permuted(sg):  # the spectrum of sigma_action_tuple(sg, t), once; t's for the identity
        return commodel.joint_diagonalize(
            t if sg == ident else commodel.sigma_action_tuple(list(sg), t), tol)

    sigma_c = gammaconf.sigma_action_config(sigma, c, tol)
    sp = permuted(tuple(sigma))
    rec.check("model equivariance", commodel.rep_distance(
        commodel.canonical_rep(sp.t, tol, sp), _config_rep(sigma_c, tol)), 1e-8)
    # the action only moves entries: both routes give the same tuple, bit for bit
    comp_t = commodel.sigma_action_tuple(sigma, commodel.sigma_action_tuple(sig2, t))
    rec.expect("tuple action composition",
               np.array_equal(comp_t.mats, commodel.sigma_action_tuple(comp, t).mats))
    rec.expect("rank invariance", gammaconf.rank(sigma_c) == gammaconf.rank(c))

    # chart equivariance for every permutation up to n = 3; above that for the
    # identity, (0 1), the n-cycle and sigma, which generate S_n, as the exact
    # composition check ties every other permutation to them
    ch = rankstrata.subquotient_chart(t, tol, spectrum=permuted(ident))
    if ch.s:
        for sg in (itertools.permutations(range(n)) if n <= 3 else dict.fromkeys(
                [ident, (1, 0, *range(2, n)), (*range(1, n), 0), tuple(sigma)])):
            sp = permuted(sg)
            ch_s = ch if sg == ident else rankstrata.subquotient_chart(sp.t, tol, spectrum=sp)
            perm_univ = symuniverse.sigma_star(list(sg), u)
            f_moved = symuniverse.apply_perm_to_coords(perm_univ, ch.f)
            g = ch_s.f.conj().T @ f_moved
            moved = g @ ch.X.mats[symuniverse.perm_inverse(list(sg))] @ g.conj().T
            rec.check("chart equivariance", commodel.rep_distance(
                ch_s.X, commodel.CommutingTuple("skew_hermitian", moved)), 1e-8)


# -------------------------------------------------------------------- real


@_trial_suite("real")
def suite_real(rng: SplitMix64, cfg: RunConfig, rec: Recorder):
    tol = cfg.tol
    s = rng.randint(1, min(6, cfg.s_max) + 1)
    n = rng.randint(1, cfg.n_max + 1)

    x = generate.gen_random_commuting(rng.next_u64(), 1, s, "real_symmetric").mats[0]
    a = realk.real_cayley(x, tol)
    rec.check("real cayley unitary", numkit.fro(a.conj().T @ a - np.eye(s)), 1e-10)
    rec.check("real cayley symmetric", numkit.fro(a - a.T), 1e-10)
    rec.check("real cayley inverse", numkit.fro(realk.real_cayley_inv(a, tol) - x), 1e-10)
    o = haar_orthogonal(rng, s)
    rec.check("real cayley equivariance",
              numkit.fro(realk.real_cayley(o @ x @ o.T, tol) - o @ a @ o.T), 1e-10)

    t = generate.gen_random_commuting(rng.next_u64(), n, s, "real_symmetric")
    q = realk.joint_diagonalize_real(t, tol).Q
    rec.check("SO joint residual", numkit.off_norm(q.T @ t.mats @ q),
              1e-8 * max(1.0, max(numkit.fro(m) for m in t.mats)))
    rec.check("SO determinant", abs(np.linalg.det(q) - 1.0), 1e-10)

    split = realk.real_trace_split(t)
    rec.check("real split traceless",
              max((abs(np.trace(m)) for m in split.traceless.mats), default=0.0), 1e-12)
    rec.check("real split reassembly",
              commodel.rep_distance(realk.reassemble_real_split(split), t), 1e-12)

    # real configuration data -> symmetric unitaries -> real chart
    universe = symuniverse.UniverseBasis(n, 1)
    dim = universe.dim
    basis = haar_orthogonal(rng, dim)
    dims, left = [], rng.randint(1, min(dim, 3) + 1)
    while left > 0:
        dims.append(rng.randint(1, left + 1))
        left -= dims[-1]
    pts = generate.sample_value_columns(rng, "unitary", n, len(dims), 0.4, 0.2)
    c = generate.config_on_basis(universe, basis, dims, pts, tol)
    tsym = commodel.config_to_commuting(c)
    rec.expect("complexified data is symmetric",
               all(realk.is_symmetric_unitary(m) for m in tsym.mats))
    spec = commodel.joint_diagonalize(tsym, tol)
    chart = realk.real_stratum_chart(tsym, tol, spec)
    rec.expect("real chart is real", chart.X.kind == "real_symmetric")
    rebuilt = realk.reconstruct_real_chart(chart, dim, tol)
    rec.check("real chart reconstruction",
              commodel.rep_distance(commodel.canonical_rep(rebuilt, tol),
                                    commodel.canonical_rep(tsym, tol, spec)), 1e-8)

    chart_c = rankstrata.subquotient_chart(tsym, tol, spectrum=spec)
    if chart.s:
        g = chart_c.f.conj().T @ chart.f.astype(complex)
        rec.check("real chart complexifies", commodel.rep_distance(
            commodel.CommutingTuple("skew_hermitian", 1j * chart.X.mats),
            commodel.CommutingTuple("skew_hermitian", g.conj().T @ chart_c.X.mats @ g)), 1e-8)

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
        cand = commodel.CommutingTuple("real_symmetric", mats)
        cand.validate(tol)
        rec.check("moebius parametrization norm",
                  abs(isodecomp.tuple_norm(cand) - 1.0), 1e-10)
        rec.check("moebius parametrization traceless",
                  max(abs(np.trace(m)) for m in mats), 1e-10)


# ---------------------------------------------------------------- isotropy


@functools.cache
def _field_basis(s: int, field: str) -> np.ndarray:
    """Real basis of the skew-Hermitian (complex field) or real symmetric
    (real field) s x s matrices, as a read-only (m, s, s) stack built once per
    process: the diagonal units, then for each pair a < b in row order the
    symmetric unit (complex field: the antisymmetric real, symmetric imaginary unit)."""
    units = np.eye(s * s).reshape(s, s, s, s)  # units[a, b] = E_ab
    a, b = np.triu_indices(s, 1)
    diag = units[np.arange(s), np.arange(s)]
    upper, lower = units[a, b], units[b, a]
    real = field == "real"
    pairs = [upper + lower] if real else [upper - lower, 1j * (upper + lower)]
    basis = np.concatenate([diag if real else 1j * diag,
                            np.stack(pairs, axis=1).reshape(len(pairs) * len(a), s, s)])
    basis.flags.writeable = False
    return basis


def _block_generators(parts, dtype) -> np.ndarray:
    """Signed permutations of the block subgroup of `parts`, as one stack: the
    bit_length(s - 1) sign matrices diag((-1)^(bit b of a)), which together fix
    only the diagonal matrices, then the permutation moving each coordinate to
    the next one in its block, cyclically, which among those fixes only the
    block scalars.  Each lies in every U(p) and O(p) block."""
    s = sum(parts)
    signs = 1 - 2 * ((np.arange(s) >> np.arange((s - 1).bit_length())[:, None]) & 1)
    ends = np.cumsum(parts, dtype=int)
    after = np.arange(1, s + 1)
    after[ends - 1] = ends - parts
    return np.concatenate([signs[:, None] * np.eye(s), np.eye(s)[after][None]]).astype(dtype)


@functools.cache
def _fixed_dim(parts: tuple, field: str) -> int:
    """The fixed-subspace dimension of `parts` on one matrix: the SVD null-space
    dimension of the real-linear system 'commutes with the block subgroup and is
    traceless' in `_field_basis` coordinates.  It poses the rows itself: g X g^H - X
    for each `_block_generators` element g and basis element X, by one Kronecker
    stack g (x) conj(g) and one matmul; real parts, then (complex field only)
    imaginary parts, then the trace row.  The generators fix only the block scalars,
    so they pose the subgroup's system.  Solved once per process; `cache_clear()`
    makes a test that rebinds a helper solve again."""
    s = sum(parts)
    basis = _field_basis(s, field)
    cols = basis.reshape(len(basis), s * s).T
    g = _block_generators(parts, basis.dtype)
    kron = (g[:, :, None, :, None] * g.conj()[:, None, :, None, :]).reshape(len(g), s * s, s * s)
    rows = np.concatenate(kron @ cols - cols)
    halves = [rows] if field == "real" else [rows.real, rows.imag]
    trace = np.trace(basis.imag if field == "complex" else basis.real, axis1=1, axis2=2)
    sv = np.linalg.svd(np.concatenate([*halves, trace[None]]), compute_uv=False)
    return len(basis) - int(np.sum(sv > 1e-8 * sv[:1]))


def _partitions(s: int, cap: int = 0):
    if s == 0:
        yield ()
    for first in range(min(s, cap or s), 0, -1):
        yield from ((first,) + rest for rest in _partitions(s - first, first))


def _fixed_dim_sweep(rec: Recorder):
    """Deterministic sweep at s = 1..5, whatever the run's caps: the formula for
    n = 1..3 against n times the oracle on one matrix, one `_fixed_dim` call
    per (parts, field).  It draws nothing."""
    for parts in itertools.chain.from_iterable(map(_partitions, range(1, 6))):
        dims = {f: _fixed_dim(parts, f) for f in ("complex", "real")}
        for n, field_ in itertools.product(range(1, 4), dims):
            formula = isodecomp.fixed_subspace_dim(isodecomp.DecompType(parts), n, field_)
            rec.expect(f"fixed dim {parts} n={n} {field_}", formula == n * dims[field_])


@_trial_suite("isotropy", sweep=_fixed_dim_sweep)
def suite_isotropy(rng: SplitMix64, cfg: RunConfig, rec: Recorder):
    tol = cfg.tol
    s = rng.randint(min(2, cfg.s_max), min(5, cfg.s_max) + 1)
    n = rng.randint(1, cfg.n_max + 1)
    parts_all = [p for p in _partitions(s)]
    parts = parts_all[rng.randint(0, len(parts_all))]
    kind = "skew_hermitian" if rng.uniform() < 0.7 else "real_symmetric"
    t = generate.gen_partition_tuple(rng.next_u64(), n, parts, kind=kind)
    rec.expect("prescribed type", isodecomp.decomposition_type(t, tol).parts
               == tuple(sorted(parts, reverse=True)))

    if len(parts) > 1:
        tu = generate.gen_partition_tuple(rng.next_u64(), n, parts, kind=kind,
                                          traceless=True, unit=True)
        rec.check("unit norm", abs(isodecomp.tuple_norm(tu) - 1.0), 1e-10)
        tu_type = isodecomp.decomposition_type(tu, tol)
        rec.expect("complete type", isodecomp.is_complete_type(tu_type))
        rec.expect("type invariant under scaling",
                   isodecomp.decomposition_type(isodecomp.unit_normalize(
                       commodel.CommutingTuple(tu.kind, 7.0 * tu.mats), tol), tol).parts
                   == tu_type.parts)
        if kind == "skew_hermitian":
            u = haar_unitary(rng, s)
            conj = commodel.CommutingTuple(kind, u @ tu.mats @ u.conj().T)
            rec.expect("type conjugation invariant",
                       isodecomp.decomposition_type(conj, tol).parts == tu_type.parts)
            rec.expect("stabilize keeps type", isodecomp.decomposition_type(
                rankstrata.stabilize(tu, 2), tol).parts == tu_type.parts)

    # flag map sampling at p = 2
    g = haar_unitary(rng, 2)
    amp = 1.0 / math.sqrt(2.0)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    x = commodel.CommutingTuple("skew_hermitian",
                                np.array([np.diag([sign * 1j * amp, -sign * 1j * amp])]))
    target = isodecomp.flag_map(g, x, tol)
    rec.check("flag image unit", abs(isodecomp.tuple_norm(target) - 1.0), 1e-10)
    spec = commodel.joint_diagonalize(target, tol)
    rec.expect("flag type", isodecomp.decomposition_type(target, tol, spec).parts == (1, 1))
    gc, xc = isodecomp.flag_map_preimage(target, tol, spec)
    rec.check("flag preimage residual",
              commodel.rep_distance(isodecomp.flag_map(gc, xc, tol), target), 1e-8)
    # the swapped preimage canonicalizes to the same class
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    g2, x2 = isodecomp.canonical_flag_class(
        g @ swap, commodel.CommutingTuple("skew_hermitian", swap @ x.mats @ swap), tol)
    g1, x1 = isodecomp.canonical_flag_class(g, x, tol)
    rec.check("flag class uniqueness", numkit.fro(g1 - g2) + commodel.rep_distance(x1, x2), 1e-8)


# -------------------------------------------------------------- cohomology


def _cohomology_tables(rec: Recorder):
    """Deterministic sweep: the fixed tables at p = 3, 5, 7, 11 and the rejected non-primes."""
    rec.expect("p=3 expansion", cohomtab.poincare_poly(3).to_dict() == {0: 1, 3: 1, 4: 2, 5: 1})
    rec.expect("p=3 reduced table", cohomtab.a0_lambda_table(3) == {3: 1, 4: 2, 5: 1})
    for p in (3, 5, 7, 11):
        poly = cohomtab.poincare_poly(p).to_dict()
        tab = cohomtab.a0_lambda_table(p)
        rec.expect(f"P(0)=1 p={p}", poly.get(0) == 1)
        rec.expect(f"P(1) p={p}", sum(poly.values()) == 1 + 2 ** (p - 1))
        rec.expect(f"degree p={p}", max(poly) == 2 * p - 2 + (p - 2) ** 2)
        rec.expect(f"lowest degree p={p}", min(tab) == 2 * p - 3)
        rec.expect(f"total dim p={p}", sum(tab.values()) == 2 ** (p - 1))
        rec.expect(f"reduced consistency p={p}", {**tab, 0: tab.get(0, 0) + 1} == poly)
    for bad in (2, 4, 9, 15):
        try:
            cohomtab.poincare_poly(bad)
            rec.expect(f"NotOddPrime {bad}", False)
        except NotOddPrime:
            pass


@_trial_suite("cohomology", sweep=_cohomology_tables)
def suite_cohomology(rng: SplitMix64, cfg: RunConfig, rec: Recorder):
    # P(-1) = 1 exactly: the factor 1 + t of the reduced part vanishes at t = -1
    p = (3, 5, 7, 11, 13, 17, 19)[rng.randint(0, 7)]
    poly = cohomtab.poincare_poly(p).to_dict()
    rec.expect(f"P(-1)=1 p={p}", sum(c * (-1) ** d for d, c in poly.items()) == 1)


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
