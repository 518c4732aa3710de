"""Dense complex/real matrix kernel.

Provides orthonormalization, the shared tolerance policy, structure checks,
commutator defects, and the eigen-machinery used everywhere else.  A family
of commuting Hermitian matrices is jointly diagonalized by the LAPACK
eigenvectors of a seeded random real combination of its members (He &
Kressner, arXiv:2212.07248), refined by joint Jacobi sweeps to a target
off-norm or until a sweep gains under 1e-6 relative; a single Hermitian
matrix takes LAPACK eigh alone.  A sweep visits the index pairs in
round-robin order (Brent & Luk, SIAM J. Sci. Stat. Comput. 6(1), 1985) and
rotates the disjoint pairs of each round together.  Each rotation maximizes
the summed squared diagonal separation of its pair, which is equivalent to
minimizing the summed off-diagonal Frobenius energy, and is taken in closed
form from the dominant eigenvector of a 3x3 real symmetric matrix G (Cardoso
& Souloumiac, SIAM J. Matrix Anal. Appl. 17(1), 1996).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidTuple,
    NoConvergence,
    NotHermitian,
    NotSkewHermitian,
    NotSymmetric,
    NotUnitary,
    RankDeficient,
    ShapeMismatch,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class Tolerances:
    """Tolerance policy threaded explicitly through all operations.

    eps_struct   structural checks (unitarity, hermiticity, orthogonality)
    eps_cluster  eigenvalue-tuple clustering threshold
    eps_base     basepoint detection, distance of a value from 1
    """

    eps_struct: float = 1e-9
    eps_cluster: float = 1e-6
    eps_base: float = 1e-9

    def __post_init__(self):
        if not (self.eps_struct > 0 and self.eps_cluster > 0 and self.eps_base > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.eps_struct > self.eps_cluster:
            raise ValueError("eps_struct must not exceed eps_cluster")


DEFAULT_TOL = Tolerances()
# cap on the Jacobi sweeps of one joint_diagonalizer call
MAX_SWEEPS = 100
# largest entry modulus a caller's matrix may hold: every norm and product
# that the checks and the kernel take then stays finite, for s up to 256
MAX_ENTRY = 1e64


def fro(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part of a matrix, or of all the
    matrices of a stack together."""
    a = np.asarray(a)
    return fro(a[..., ~np.eye(a.shape[-1], dtype=bool)])


stack_off_norm = off_norm


def hermitian_defect(a: np.ndarray) -> float:
    return fro(a - a.conj().T)


def unitary_defect(a: np.ndarray) -> float:
    return fro(a.conj().T @ a - np.eye(a.shape[0]))


def skew_hermitian_defect(a: np.ndarray) -> float:
    return fro(a + a.conj().T)


def real_symmetric_defect(a: np.ndarray) -> float:
    return fro(np.asarray(a).imag) + fro(a - a.T)


def require_square(a: np.ndarray) -> int:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


_STRUCTURES = {
    "hermitian": (hermitian_defect, NotHermitian, "hermitian"),
    "unitary": (unitary_defect, NotUnitary, "unitary"),
    "skew_hermitian": (skew_hermitian_defect, NotSkewHermitian, "skew-hermitian"),
    "real_symmetric": (real_symmetric_defect, NotSymmetric, "symmetric"),
}


def check_entries(a):
    """The input gate's entry bound: InvalidTuple unless every entry of the
    array a is finite and at most MAX_ENTRY in modulus."""
    if not np.max(np.abs(a), initial=0.0) <= MAX_ENTRY:
        raise InvalidTuple(f"entries must be finite and at most {MAX_ENTRY:.0e} in modulus")


def check_structure(kind: str, a, tol: Tolerances = DEFAULT_TOL):
    """Check a square matrix against a tuple kind or "hermitian": the input
    gate for a caller's matrix.

    Raises check_entries' InvalidTuple before any product is taken; then the
    kind's InvalidTuple subclass, naming the defect, unless the kind's
    defect is at most eps_struct max(1, ||a||_F).
    """
    require_square(a)
    check_entries(a)
    defect_of, error, name = _STRUCTURES[kind]
    defect = defect_of(a)
    if not defect <= tol.eps_struct * max(1.0, fro(a)):
        raise error(f"{name} defect {defect:.3e}")


def orthonormalize(vectors, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormalize a family of column vectors.

    Householder QR (Golub & Van Loan, Matrix Computations, 5.2), each column
    of Q scaled so that diag R is real positive: the frame of full-rank input
    is unique.  Accepts a (d, k) array or a sequence of 1-d arrays.

    Raises RankDeficient when |R_jj| falls below eps_struct times the norm
    of vector j, when a vector is zero or NaN, or when k > d.
    """
    v = vectors if isinstance(vectors, np.ndarray) else np.column_stack(vectors)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2:
        raise ShapeMismatch(f"expected vectors or a (d, k) array, got {v.shape}")
    d, k = v.shape
    v = v.astype(complex if np.iscomplexobj(v) else float)
    if k > d:
        raise RankDeficient(f"{k} vectors in dimension {d} are dependent")
    q, r = np.linalg.qr(v)
    # hypot never squares an entry, so the norms of entries above 1e154 stay finite
    diag, norms = np.diagonal(r), np.hypot.reduce(np.abs(v), axis=0, initial=0.0)
    dependent = ~(np.abs(diag) >= tol.eps_struct * norms) | (norms == 0.0)
    if dependent.any():
        j = int(dependent.argmax())
        raise RankDeficient(f"vector {j} is dependent (residual {abs(diag[j]):.3e})")
    return q * (diag / np.abs(diag))


def phase_normalize(frame: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Scale each column so its first non-negligible entry is real positive;
    a column with no such entry is left as it is."""
    out = np.array(frame, copy=True)
    if out.size == 0:
        return out
    big = np.abs(out) > tol.eps_struct
    live = big.any(axis=0)
    u = out[big.argmax(axis=0)[live], live]
    # hypot is the scalar modulus; numpy's vector complex abs may differ
    # from it in the last bit
    out[:, live] = out[:, live] * (np.conj(u) / np.hypot(u.real, u.imag))
    return out


def leading_indices(frames, tol: Tolerances = DEFAULT_TOL) -> list[int]:
    """For each frame of a sequence of frames with one row count d, the
    smallest row index at which any of its columns has a non-negligible
    entry; d for a frame with none (or with no columns)."""
    if not frames:
        return []
    d = frames[0].shape[0]
    big = np.abs(np.hstack(frames)) > tol.eps_struct
    # a sentinel row d below the frames stops each column's search
    first = np.vstack([big, np.ones((1, big.shape[1]), bool)]).argmax(axis=0)
    lead = np.full(len(frames), d)
    np.minimum.at(lead, np.repeat(np.arange(len(frames)), [f.shape[1] for f in frames]), first)
    return lead.tolist()


def _round_robin(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Brent-Luk round-robin ordering of the index pairs of 0..s-1.

    Returns (P, Q), each (rounds, pairs): round r rotates the disjoint pairs
    (P[r, i], Q[r, i]) with P < Q, and the s - 1 rounds (s padded to even,
    the pairs with the dummy index dropped) cover each pair exactly once.
    This is the circle method: index m - 1 (m = s padded) meets r in round
    r, and the others pair as (r + j, r - j) mod m - 1.
    """
    m = s + s % 2
    r, j = np.arange(m - 1)[:, None], np.arange(1, m // 2)
    a = np.hstack([np.full((m - 1, 1), m - 1), (r + j) % (m - 1)])
    b = np.hstack([r, (r - j) % (m - 1)])
    p, q = np.minimum(a, b), np.maximum(a, b)
    keep = q < s
    return p[keep].reshape(m - 1, -1), q[keep].reshape(m - 1, -1)


def _jacobi_sweeps(c: np.ndarray, max_sweeps: int,
                   off_target: float = 0.0) -> np.ndarray:
    """Round-robin Jacobi sweeps on a stack of Hermitian matrices, in place.

    Returns the accumulated unitary (orthogonal for real input) Q with
    Q^H C_k Q as diagonal as the sweeps achieve.  For each pair (p, q) the
    plane rotation maximizes sum_k (c'_pp - c'_qq)^2, the classical extended
    Jacobi angle choice; per pair this equals minimizing sum_k |c'_pq|^2.
    The maximizer is the dominant eigenvector v of G = H H^T, where column k
    of H is (c_pp - c_qq, -2 Re c_pq, -2 Im c_pq) for matrix k.  A sweep is
    the s - 1 rounds of `_round_robin`; the pairs of one round are disjoint,
    so their rotations commute and are taken together from one batched
    eigh of their G matrices.  Sweeping stops at `off_target` (checked at
    entry too), after a sweep that lowers the stack off-norm by under 1e-6
    relative (as one that rotates nothing does), or after `max_sweeps`.
    """
    s = c.shape[-1]
    real_input = not np.iscomplexobj(c)
    q_acc = np.eye(s, dtype=c.dtype)
    off = stack_off_norm(c)
    if off <= off_target:
        return q_acc
    rounds = list(zip(*_round_robin(s)))
    for _sweep in range(max_sweeps):
        for p, q in rounds:
            d = c[:, p, q]
            hmat = np.stack([c[:, p, p].real - c[:, q, q].real,
                             -2.0 * d.real, -2.0 * d.imag], axis=1).T
            g = hmat @ np.swapaxes(hmat, 1, 2)
            v = np.linalg.eigh(g)[1][:, :, -1]
            v *= np.where(v[:, :1] < 0, -1.0, 1.0)
            cth = np.sqrt(0.5 * (1.0 + v[:, 0]))
            if real_input:
                s_rot = v[:, 1] / (2.0 * cth)
            else:
                s_rot = (v[:, 1] - 1j * v[:, 2]) / (2.0 * cth)
            # a zero G (equal diagonals, zero off-diagonal) needs no
            # rotation; eigh returns an arbitrary top vector for it
            live = g.any(axis=(1, 2)) & (np.abs(s_rot) > 1e-14)
            if not live.any():
                continue
            p, q, cth, s_rot = p[live], q[live], cth[live, None], s_rot[live, None]
            # C <- J^H C J with J = [[cth, conj(s)], [-s, cth]] on (p, q)
            rp, rq = c[:, p, :], c[:, q, :]
            c[:, p, :] = cth * rp - np.conj(s_rot) * rq
            c[:, q, :] = s_rot * rp + cth * rq
            for m in (c, q_acc[None]):
                cp, cq = m[:, :, p], m[:, :, q]
                m[:, :, p] = cp * cth.T - cq * s_rot.T
                m[:, :, q] = cp * np.conj(s_rot).T + cq * cth.T
        prev_off, off = off, stack_off_norm(c)
        # at the target, or stalled on the floor of a nearly-commuting family
        if off <= off_target or not off < prev_off * (1.0 - 1e-6):
            break
    return q_acc


def joint_diagonalizer(hmats, off_target: float) -> np.ndarray:
    """Unitary (orthogonal for real input) Q jointly diagonalizing commuting
    Hermitian matrices.

    Input already diagonal to `off_target` gives the identity.  Otherwise Q
    starts as the LAPACK eigenvectors of a deterministic random
    real-coefficient combination of the inputs, which separates every
    eigenspace the family does (He & Kressner, arXiv:2212.07248); joint
    Jacobi sweeps then refine the conjugated family under the stop rule of
    `_jacobi_sweeps` at `off_target`, at most MAX_SWEEPS, also resolving
    clusters the combination leaves mixed.  The caller bounds the residual.
    """
    kk, s = len(hmats), hmats.shape[-1]
    c = 0.5 * (hmats + np.conj(np.swapaxes(hmats, 1, 2)))
    if stack_off_norm(c) <= max(off_target, 1e-300):
        return np.eye(s, dtype=c.dtype)
    coeffs = SplitMix64(0x5EEDC0FFEE ^ (kk << 16) ^ s).normals(kk)
    q0 = np.linalg.eigh(np.tensordot(coeffs, c, axes=(0, 0)))[1]
    c = q0.conj().T @ c @ q0
    return q0 @ _jacobi_sweeps(c, MAX_SWEEPS, off_target=off_target)


def hermitian_eig(h: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Hermitian eigendecomposition by LAPACK eigh, columns phase-normalized.

    Returns (Q, lam) with Q unitary, lam real ascending, and
    ||Q^H H Q - diag(lam)||_F <= 1e-12 ||H||_F; NoConvergence above that.
    """
    check_structure("hermitian", h, tol)
    hs = 0.5 * (np.asarray(h) + np.asarray(h).conj().T)
    lam, q = np.linalg.eigh(hs)
    resid = fro(q.conj().T @ hs @ q - np.diag(lam))
    if resid > 1e-12 * max(fro(hs), 1e-300):
        raise NoConvergence(f"eigendecomposition residual {resid:.3e}")
    return phase_normalize(q, tol), lam


def commutator_defect(mats) -> float:
    """Largest normalized pairwise commutator norm of a matrix tuple.

    max over i < j of ||X_i X_j - X_j X_i||_F / max(1, ||X_i||_F ||X_j||_F).
    """
    arr = [np.asarray(m) for m in mats]
    if not arr:
        return 0.0
    n0 = require_square(arr[0])
    for m in arr[1:]:
        if require_square(m) != n0:
            raise ShapeMismatch("matrices in a tuple must share one size")
    worst = 0.0
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            comm = fro(arr[i] @ arr[j] - arr[j] @ arr[i])
            worst = max(worst, comm / max(1.0, fro(arr[i]) * fro(arr[j])))
    return worst
