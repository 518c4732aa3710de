"""The benchmark's three workloads: seeded request sets and their correctness checks.

A run's request set is `rounds(seconds)` rounds of ops, each op with inputs
of its own, so no op repeats another's inputs within a run.  Every round has
the same shape (the same op kinds at the same sizes); the seed and the round
index decide the matrix and configuration contents.  The round count is fixed
by `seconds` and `ROUND_S`, the time one round takes on the reference machine
(2 cores, Python 3.11, numpy 2.4), so both commits of a comparison run the
same ops.  Op 0 of round 0 is the op a fresh interpreter times as the first
op.

Each op is a pair of callables: `run()` is timed, `check(output)` runs after
the timed loop and returns None or a failure message.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from commvar import cli, jsonio
from commvar.commodel import CommutingTuple, class_distance
from commvar.gammaconf import (
    Configuration,
    SpherePoint,
    apply_based_map,
    canonicalize,
    config_distance,
    push_labels,
    rank,
    sigma_action_config,
    smash,
)
from commvar.generate import (
    gen_exact_rank_tuple,
    gen_partition_tuple,
    gen_random_commuting,
    gen_random_config,
)
from commvar.rankstrata import SubquotientChart, cayley, reconstruct_chart
from commvar.rng import SplitMix64, subseed, unit_phase
from commvar.spectrumops import multiply, structure_map, unit_map
from commvar.symuniverse import UniverseBasis
from commvar.verify import SUITES, RunConfig, run_suite

LAW_BOUND = 1e-8


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def digest(output) -> str:
    """Short digest of an op's output, to compare outputs across processes."""
    return hashlib.sha256(repr(output).encode()).hexdigest()[:16]


class Workload:
    name = ""
    #: seconds one round takes on the reference machine
    ROUND_S = 1.0

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.ROUND_S))

    def round_ops(self, seed: int, r: int) -> list[Op]:
        raise NotImplementedError

    def request_set(self, seed: int, rounds: int) -> list[Op]:
        return [op for r in range(rounds) for op in self.round_ops(seed, r)]


# ------------------------------------------------------------------ verify-all


class VerifyAll(Workload):
    """`run_suite` on each suite at the CLI's default caps (n <= 3, s <= 6,
    D <= 2); one op is one suite-trial, `run_suite(suite, RunConfig(seed=k,
    trials=1))`.  Round r runs the 7 suites at trial seed r.

    The benchmark seed is not used.  The suites draw their own sizes, so one
    trial costs from 1 ms to 1.9 s, and the costs are heavy-tailed: with
    trial seeds drawn from the benchmark seed, the total cost of about 32
    rounds spreads by 0.16 (inter-quartile over median) across seeds, and by
    0.12 with the trials' first size draws stratified.  Trial seeds
    0..rounds-1 are the same work on every seed, and each still runs once.
    """

    name = "verify-all"
    ROUND_S = 0.56

    def round_ops(self, seed: int, r: int) -> list[Op]:
        return [_suite_op(suite, r) for suite in SUITES]


def _suite_op(suite: str, k: int) -> Op:
    def run():
        return run_suite(suite, RunConfig(seed=k, trials=1))

    def check(summary):
        if summary["failures"]:
            return f"{summary['messages'][:3]}"
        return None

    return Op(f"{suite}/{k}", run, check)


# -------------------------------------------------------------- stratify-large


@contextlib.contextmanager
def _stdin(text: str):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def _near_commuting(t: CommutingTuple, rng: SplitMix64, eps: float) -> CommutingTuple:
    """Right-multiply each component by exp(i eps H) for a random unit-norm
    Hermitian H: still unitary, commuting only to about eps, which is inside
    eps_struct but above the kernel's 1e-12 goal, so the fallback runs."""
    mats = []
    for a in t.mats:
        g = rng.complex_normals(t.s, t.s)
        h = 0.5 * (g + g.conj().T)
        h /= np.linalg.norm(h)
        w, v = np.linalg.eigh(h)
        mats.append(a @ (v * np.exp(1j * eps * w)) @ v.conj().T)
    return CommutingTuple("unitary", np.array(mats))


def _blocks(s: int) -> list[int]:
    """Degenerate block sizes for size s: one block of s/4, the rest pairs
    and a singleton, so both the clustering and the simple path show."""
    big = s // 4
    rest = s - big
    return [big] + [2] * ((rest - 1) // 2) + [1] * (1 + (rest - 1) % 2)


N_COMPONENTS = 2


def make_request(kind: str, s: int, seed: int):
    """(tuple, expected rank, expected decomposition type) for one request."""
    n = N_COMPONENTS
    if kind == "unitary-simple":
        t = gen_random_commuting(seed, n, s, "unitary", margin=0.3, min_separation=0.2)
        return t, s, [1] * s
    if kind == "unitary-padded":
        r = s // 2
        t = gen_exact_rank_tuple(seed, n, r, ambient_dim=s)
        return t, r, [s - r] + [1] * r
    if kind == "unitary-blocks":
        parts = _blocks(s)
        x = gen_partition_tuple(seed, n, parts, kind="skew_hermitian")
        t = CommutingTuple("unitary", np.array([cayley(m) for m in x.mats]))
        return t, s, sorted(parts, reverse=True)
    if kind == "unitary-near":
        base = gen_random_commuting(seed, n, s, "unitary", margin=0.3, min_separation=0.2)
        return _near_commuting(base, SplitMix64(seed ^ 0xA5A5), 1e-10), s, [1] * s
    if kind == "real-symmetric":
        parts = _blocks(s)
        t = gen_partition_tuple(seed, n, parts, kind="real_symmetric")
        return t, None, sorted(parts, reverse=True)
    if kind == "skew-hermitian":
        t = gen_random_commuting(seed, n, s, "skew_hermitian", min_separation=0.2)
        return t, None, [1] * s
    raise ValueError(kind)


def stratify_cli(payload: str) -> tuple[int, str]:
    """`commvar stratify` in process: JSON on stdin, (exit code, stdout)."""
    out = io.StringIO()
    with _stdin(payload), contextlib.redirect_stdout(out):
        code = cli.main(["stratify"])
    return code, out.getvalue()


def check_stratify(t: CommutingTuple, rank_expected, type_expected, result) -> "str | None":
    code, out = result
    if code != 0:
        return f"exit code {code}: {out[:200]}"
    report = json.loads(out)
    if report["rank"] != rank_expected:
        return f"rank {report['rank']} != {rank_expected}"
    if report["decomposition_type"] != type_expected:
        return f"type {report['decomposition_type']} != {type_expected}"
    if t.kind != "unitary":
        return None
    chart = report["chart"]
    x = jsonio.tuple_from_json(chart["X"])
    f = jsonio.matrix_from_json(chart["f"])
    # reconstruct_chart reads only X and f from the chart
    back = reconstruct_chart(SubquotientChart(x.s, x, f, x, np.zeros(x.n)), t.s)
    dist = class_distance(t, back)
    if not dist <= LAW_BOUND:
        return f"reconstructed class distance {dist:.3e}"
    return None


class StratifyLarge(Workload):
    """`cli.main(["stratify"])` on JSON stdin, one op per request.

    A round is one request of each kind at a fixed size from 8 to 24; the
    seed and the round draw the matrices.  Unitary kinds take the chart path
    (two joint diagonalizations today), the others the type-only branch
    (one), and the near-commuting kind the kernel's random-combination
    fallback.
    """

    name = "stratify-large"
    # Sizes stop at 24.  One request's cost varies by up to 2x with its
    # contents (the sweep count), so a steady figure needs many requests; at
    # s = 32 one request takes 1-3 s and a run holds too few of them.
    # s = 32 and 64 belong here once the kernel is faster.  The small
    # request leads, so that the first op's cost is mostly first-call work.
    ROUND = (
        ("unitary-simple", 8),
        ("unitary-simple", 16),
        ("unitary-padded", 16),
        ("unitary-blocks", 12),
        ("unitary-near", 12),
        ("real-symmetric", 24),
        ("skew-hermitian", 24),
    )
    ROUND_S = 2.4

    def round_ops(self, seed: int, r: int) -> list[Op]:
        return [self._op(kind, s, subseed(seed, r * len(self.ROUND) + i))
                for i, (kind, s) in enumerate(self.ROUND)]

    @staticmethod
    def _op(kind: str, s: int, seed: int) -> Op:
        t, rank_expected, type_expected = make_request(kind, s, seed)
        payload = jsonio.dumps(jsonio.tuple_to_json(t))
        return Op(f"{kind}/{s}", lambda: stratify_cli(payload),
                  lambda result: check_stratify(t, rank_expected, type_expected, result))


# ---------------------------------------------------------------- config-tower


def _point(rng: SplitMix64, n: int) -> SpherePoint:
    return SpherePoint([unit_phase(rng, 0.4) for _ in range(n)])


def _perm(rng: SplitMix64, n: int) -> list[int]:
    p = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i + 1)
        p[i], p[j] = p[j], p[i]
    return p


def _law(label: str, fn) -> Op:
    def check(result):
        dist, ok = result
        if not dist <= LAW_BOUND:
            return f"config distance {dist:.3e}"
        if not ok:
            return "rank is not multiplicative"
        return None

    return Op(label, fn, check)


class ConfigTower(Workload):
    """Configuration-picture laws; one op is one law with its distance check.

    Factors live in universes of dimension 10 (n = 3, D = 2), so products
    reach dimension 210 (n = 6, D = 4).  A round evaluates one law per map:
    multiply (commutativity up to the block swap), structure_map (equals
    multiply with the unit), unit_map (the unit law), sigma_action_config
    (equivariance of multiply) and apply_based_map (functoriality).  No law
    reaches the Jacobi kernel.
    """

    name = "config-tower"
    ROUND_S = 0.075
    N, D = 3, 2
    DIMS_A = (2, 1)
    DIMS_B = (2, 1)

    def round_ops(self, seed: int, r: int) -> list[Op]:
        rng = SplitMix64(subseed(seed, r))
        u = UniverseBasis(self.N, self.D)  # one per round, so no op reuses another's
        a = gen_random_config(rng.next_u64(), u, dims=self.DIMS_A)
        b = gen_random_config(rng.next_u64(), u, dims=self.DIMS_B)
        x = _point(rng, u.n)
        y = _point(rng, 2)
        sigma, tau = _perm(rng, u.n), _perm(rng, u.n)
        k = len(self.DIMS_A) * len(self.DIMS_B)
        alpha = [i + 1 for i in _perm(rng, k)]
        alpha[rng.randint(0, k)] = 0
        beta = [i + 1 for i in _perm(rng, k)]
        return [
            _law("multiply", lambda: self._multiply(a, b)),
            _law("structure_map", lambda: self._structure(a, y)),
            _law("unit_map", lambda: self._unit(u, x, y)),
            _law("sigma_action_config", lambda: self._equivariance(a, b, sigma, tau)),
            _law("apply_based_map", lambda: self._based_map(a, b, alpha, beta)),
        ]

    @staticmethod
    def _multiply(a, b):
        ab = multiply(a, b)
        n, m = a.universe.n, b.universe.n
        chi = list(range(m, m + n)) + list(range(m))
        dist = config_distance(canonicalize(multiply(b, a)), sigma_action_config(chi, ab))
        return dist, rank(ab) == rank(a) * rank(b)

    @staticmethod
    def _structure(a, y):
        lhs = canonicalize(structure_map(a, y))
        rhs = multiply(a, unit_map(y, UniverseBasis(len(y.coords), a.universe.D)))
        return config_distance(lhs, rhs), rank(lhs) == rank(a)

    @staticmethod
    def _unit(u, x, y):
        lhs = canonicalize(structure_map(unit_map(x, u), y))
        rhs = unit_map(smash(x, y), UniverseBasis(u.n + len(y.coords), 2 * u.D))
        return config_distance(lhs, rhs), rank(lhs) == 1

    @staticmethod
    def _equivariance(a, b, sigma, tau):
        n = a.universe.n
        rho = sigma + [n + t for t in tau]
        lhs = canonicalize(multiply(sigma_action_config(sigma, a), sigma_action_config(tau, b)))
        rhs = sigma_action_config(rho, multiply(a, b))
        return config_distance(lhs, rhs), rank(lhs) == rank(a) * rank(b)

    @staticmethod
    def _based_map(a, b, alpha, beta):
        # pushes that merge labels keep the first label's point, so the law
        # holds only for maps that merge nothing: permutations with deletions
        ab = multiply(a, b)
        dim = ab.universe.dim
        k = len(alpha)
        mid = push_labels(ab.labels, alpha, k, dim)
        two_step = canonicalize(Configuration(ab.universe, push_labels(mid, beta, k, dim)))
        composed = [beta[i - 1] if i else 0 for i in alpha]
        direct = apply_based_map(ab, composed, k)
        return config_distance(two_step, direct), rank(ab) == rank(a) * rank(b)


WORKLOADS = {w.name: w for w in (VerifyAll, StratifyLarge, ConfigTower)}
