"""Dense complex/real matrix kernel.

Provides orthonormalization, the shared tolerance policy, structure checks,
commutator defects, and the eigen-machinery used everywhere else.  A family
of commuting Hermitian matrices is jointly diagonalized by the LAPACK
eigenvectors of a seeded random real combination of its members (He &
Kressner, arXiv:2212.07248), refined by joint Jacobi sweeps; a single
Hermitian matrix is diagonalized by the sweeps alone.  A sweep visits the
index pairs in round-robin order (Brent & Luk, SIAM J. Sci. Stat. Comput.
6(1), 1985) and rotates the disjoint pairs of each round together.  Each
rotation maximizes the summed squared diagonal separation of its pair, which
is equivalent to minimizing the summed off-diagonal Frobenius energy, and is
taken in closed form from the dominant eigenvector of a 3x3 real symmetric
matrix G (Cardoso & Souloumiac, SIAM J. Matrix Anal. Appl. 17(1), 1996).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
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
    max_sweeps   cap on Jacobi sweeps
    """

    eps_struct: float = 1e-9
    eps_cluster: float = 1e-6
    eps_base: float = 1e-9
    max_sweeps: int = 100

    def __post_init__(self):
        if not (self.eps_struct > 0 and self.eps_cluster > 0 and self.eps_base > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.eps_struct > self.eps_cluster:
            raise ValueError("eps_struct must not exceed eps_cluster")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


DEFAULT_TOL = Tolerances()


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


def _scaled(defect: float, a: np.ndarray, eps: float) -> bool:
    return defect <= eps * max(1.0, fro(a))


def check_hermitian(a, tol: Tolerances = DEFAULT_TOL):
    require_square(a)
    if not _scaled(hermitian_defect(a), a, tol.eps_struct):
        raise NotHermitian(f"hermitian defect {hermitian_defect(a):.3e}")


def check_unitary(a, tol: Tolerances = DEFAULT_TOL):
    require_square(a)
    if not _scaled(unitary_defect(a), a, tol.eps_struct):
        raise NotUnitary(f"unitary defect {unitary_defect(a):.3e}")


def check_skew_hermitian(a, tol: Tolerances = DEFAULT_TOL):
    require_square(a)
    if not _scaled(skew_hermitian_defect(a), a, tol.eps_struct):
        raise NotSkewHermitian(f"skew-hermitian defect {skew_hermitian_defect(a):.3e}")


def check_real_symmetric(a, tol: Tolerances = DEFAULT_TOL):
    require_square(a)
    if not _scaled(real_symmetric_defect(a), a, tol.eps_struct):
        raise NotSymmetric(f"symmetric defect {real_symmetric_defect(a):.3e}")


def orthonormalize(vectors, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormalize a family of column vectors.

    Modified Gram-Schmidt with one re-orthogonalization pass.  Accepts a
    (d, k) array or a sequence of 1-d arrays; returns a (d, k) array whose
    columns span the same subspace.

    Raises RankDeficient when a vector's residual norm falls below
    eps_struct times its input norm.
    """
    if isinstance(vectors, np.ndarray):
        v = vectors
    else:
        v = np.column_stack([np.asarray(x) for x in vectors])
    v = np.asarray(v)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2:
        raise ShapeMismatch(f"expected vectors or a (d, k) array, got {v.shape}")
    d, k = v.shape
    dtype = complex if np.iscomplexobj(v) else float
    qs: list[np.ndarray] = []
    for j in range(k):
        w = v[:, j].astype(dtype)
        norm_in = fro(w)
        for _ in range(2):
            for q in qs:
                w = w - (q.conj() @ w) * q
        r = fro(w)
        if r < tol.eps_struct * norm_in or norm_in == 0.0:
            raise RankDeficient(f"vector {j} is dependent (residual {r:.3e})")
        qs.append(w / r)
    if not qs:
        return np.zeros((d, 0), dtype=dtype)
    return np.column_stack(qs)


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
    eigh of their G matrices.  Sweeps stop at `off_target`, when a sweep
    rotates nothing, when a sweep stalls, or after `max_sweeps`.
    """
    kk, s, _ = c.shape
    real_input = not np.iscomplexobj(c)
    q_acc = np.eye(s, dtype=c.dtype)
    if s < 2 or kk == 0 or stack_off_norm(c) <= off_target:
        return q_acc
    rounds = list(zip(*_round_robin(s)))
    prev_off = math.inf
    for _sweep in range(max_sweeps):
        rotated = False
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
            rotated = True
            p, q, cth, s_rot = p[live], q[live], cth[live, None], s_rot[live, None]
            # C <- J^H C J with J = [[cth, conj(s)], [-s, cth]] on (p, q)
            rp, rq = c[:, p, :], c[:, q, :]
            c[:, p, :] = cth * rp - np.conj(s_rot) * rq
            c[:, q, :] = s_rot * rp + cth * rq
            for m in (c, q_acc[None]):
                cp, cq = m[:, :, p], m[:, :, q]
                m[:, :, p] = cp * cth.T - cq * s_rot.T
                m[:, :, q] = cp * np.conj(s_rot).T + cq * cth.T
        if not rotated:
            break
        off = stack_off_norm(c)
        if off <= off_target:
            break
        # stalled on the off-diagonal floor of a nearly-commuting family
        if off >= prev_off * (1.0 - 1e-6):
            break
        prev_off = off
    return q_acc


def joint_diagonalizer(hmats, tol: Tolerances, off_target: float,
                       off_required: float) -> np.ndarray:
    """Unitary (orthogonal for real input) Q jointly diagonalizing commuting
    Hermitian matrices.

    Input already diagonal to `off_target` gives the identity.  Otherwise Q
    starts as the LAPACK eigenvectors of a deterministic random
    real-coefficient combination of the inputs, which separates every
    eigenspace the family does (He & Kressner, arXiv:2212.07248), and joint
    Jacobi sweeps then refine the conjugated family toward `off_target`,
    also resolving clusters the combination leaves mixed.  NoConvergence is
    raised only when the final residual exceeds `off_required` (at least
    `off_target`), the hard bound for tuples commuting at working tolerance.
    """
    kk, s = len(hmats), hmats.shape[-1]
    c = 0.5 * (hmats + np.conj(np.swapaxes(hmats, 1, 2)))
    if stack_off_norm(c) <= max(off_target, 1e-300):
        return np.eye(s, dtype=c.dtype)
    coeffs = SplitMix64(0x5EEDC0FFEE ^ (kk << 16) ^ s).normals(kk)
    q0 = np.linalg.eigh(np.tensordot(coeffs, c, axes=(0, 0)))[1]
    c = q0.conj().T @ c @ q0
    q_acc = q0 @ _jacobi_sweeps(c, tol.max_sweeps, off_target=off_target)
    resid = stack_off_norm(c)
    if resid <= max(off_required, 1e-300):
        return q_acc
    raise NoConvergence(f"joint off-diagonal residual {resid:.3e} above {off_required:.3e}")


def hermitian_eig(h: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Hermitian eigendecomposition by round-robin Jacobi sweeps.

    Returns (Q, lam) with Q unitary, lam real ascending, and
    ||Q^H H Q - diag(lam)||_F <= 1e-12 ||H||_F.
    """
    require_square(h)
    check_hermitian(h, tol)
    hs = 0.5 * (np.asarray(h) + np.asarray(h).conj().T)
    scale = fro(hs)
    c = hs[None].copy()
    q = _jacobi_sweeps(c, tol.max_sweeps, off_target=1e-13 * scale)
    resid = off_norm(c[0])
    if resid > 1e-12 * max(scale, 1e-300):
        raise NoConvergence(f"off-diagonal residual {resid:.3e}")
    lam = np.diagonal(c[0]).real.copy()
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    q = phase_normalize(q[:, order], tol)
    return q, lam


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
