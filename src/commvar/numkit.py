"""Dense complex/real matrix kernel.

Provides orthonormalization, the shared tolerance policy, structure checks,
commutator defects, and the eigen-machinery used everywhere else.  A family
of commuting Hermitian matrices is jointly diagonalized by the LAPACK
eigenvectors of a seeded random real combination of its members (He &
Kressner, arXiv:2212.07248).  A start above the target off-norm is refined
by one all-pairs step, a Cayley transform that corrects pairs to first
order all at once (Ogita & Aishima, Japan J. Indust. Appl. Math. 35, 2018;
the unitary form of FFDIAG, Ziehe, Laskov, Nolte & Mueller, JMLR 5, 2004),
and then by one joint Jacobi sweep.  The step applies only what it
settles; the sweep takes the rest: the pairs under the gap floor, and
those whose first-order angle |K_pq| is above it, since the step leaves an
error of order K_pq^2 on a pair.  A single Hermitian matrix takes LAPACK
eigh alone.  The sweep visits the index pairs in round-robin order (Brent
& Luk, SIAM J. Sci. Stat. Comput. 6(1), 1985) and rotates the disjoint
pairs of each round together.  Each rotation maximizes the summed squared
diagonal separation of its pair, which is equivalent to minimizing the
summed off-diagonal Frobenius energy, and is taken in closed form from the
dominant eigenvector of a 3x3 real symmetric matrix G (Cardoso &
Souloumiac, SIAM J. Matrix Anal. Appl. 17(1), 1996).

Read-only constants are built once per process: `identity`, per size and
dtype, and the start's combination coefficients, per tuple length and size.
"""

from __future__ import annotations

import functools
import math
import sys
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
        if not all(0 < e < math.inf for e in (self.eps_struct, self.eps_cluster, self.eps_base)):
            raise ValueError("tolerances must be finite and strictly positive")
        if self.eps_struct > self.eps_cluster:
            raise ValueError("eps_struct must not exceed eps_cluster")


DEFAULT_TOL = Tolerances()
# a pair whose joint gap is under GAP_FLOOR times the stack norm, or whose
# first-order angle is above GAP_FLOOR, is left to the sweep
GAP_FLOOR = 1e-6
# largest entry modulus a caller's matrix may hold: every norm and product
# that the checks and the kernel take then stays finite, for s up to 256
MAX_ENTRY = 1e64


def fro(a: np.ndarray) -> float:
    """Frobenius norm: np.linalg.norm's sum without its wrapper, bit for bit
    on float64 and complex128 data; other data is converted as it converts it."""
    x = np.asarray(a)
    x = (x if x.dtype.kind in "fc" else x.astype(float)).ravel(order="K")
    if x.dtype.kind == "c":
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return math.sqrt(x.dot(x))


@functools.cache
def identity(s: int, dtype=float) -> np.ndarray:
    """The read-only s x s identity of a dtype, built once per process."""
    eye = np.eye(s, dtype=dtype)
    eye.flags.writeable = False
    return eye


def off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part of a matrix, or of all the
    matrices of a stack together."""
    a = np.asarray(a)
    return fro(a[..., ~identity(a.shape[-1], bool)])


def hermitian_defect(a: np.ndarray) -> float:
    return fro(a - a.conj().T)


def unitary_defect(a: np.ndarray) -> float:
    return fro(a.conj().T @ a - identity(a.shape[0]))


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
    if not np.abs(a).max(initial=0.0) <= MAX_ENTRY:
        raise InvalidTuple(f"entries must be finite and at most {MAX_ENTRY:.0e} in modulus")


def check_structure(kind: str, a, tol: Tolerances = DEFAULT_TOL):
    """Check a square matrix against a tuple kind or "hermitian": the input
    gate for a caller's matrix.  Returns ||a||_F.

    Raises check_entries' InvalidTuple before any product is taken; then the
    kind's InvalidTuple subclass, naming the defect, unless the kind's
    defect is at most eps_struct max(1, ||a||_F).
    """
    require_square(a)
    check_entries(a)
    defect_of, error, name = _STRUCTURES[kind]
    defect, norm = defect_of(a), fro(a)
    if not defect <= tol.eps_struct * max(1.0, norm):
        raise error(f"{name} defect {defect:.3e}")
    return norm


def orthonormalize(vectors, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormalize a family of column vectors.

    Householder QR (Golub & Van Loan, Matrix Computations, 5.2), each column
    of Q scaled so that diag R is real positive: the frame of full-rank input
    is unique.

    Raises ShapeMismatch unless vectors is a (d, k) ndarray, and
    RankDeficient when |R_jj| falls below eps_struct times the norm of
    vector j, when a vector is zero or NaN, or when k > d.
    """
    if not isinstance(vectors, np.ndarray) or vectors.ndim != 2:
        raise ShapeMismatch(f"not a (d, k) array: {getattr(vectors, 'shape', type(vectors))}")
    d, k = vectors.shape
    v = vectors.astype(complex if np.iscomplexobj(vectors) else float)
    if k > d:
        raise RankDeficient(f"{k} vectors in dimension {d} are dependent")
    q, r = np.linalg.qr(v)
    # hypot never squares an entry, so the norms of entries above 1e154 stay finite
    diag, norms = r.diagonal(), np.hypot.reduce(np.abs(v), axis=0, initial=0.0)
    dependent = ~(np.abs(diag) >= tol.eps_struct * norms) | (norms == 0.0)
    if dependent.any():
        j = int(dependent.argmax())
        raise RankDeficient(f"vector {j} is dependent (residual {abs(diag[j]):.3e})")
    return q * (diag / np.abs(diag))


def phase_normalize(frame: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Scale each column so its first non-negligible entry is real positive;
    a column with no such entry is left as it is."""
    out = np.array(frame, copy=True)
    lead = leading_rows(out, tol)
    live = lead < out.shape[0]
    u = out[lead[live], live]
    # hypot is the scalar modulus; numpy's vector complex abs may differ
    # from it in the last bit
    out[:, live] = out[:, live] * (np.conj(u) / np.hypot(u.real, u.imag))
    return out


def leading_rows(a: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """For each column of a (d, k) array, the first row index holding a
    non-negligible entry; d for a column with none."""
    # a sentinel row d below the columns stops each one's search
    big = np.ones((a.shape[0] + 1, a.shape[1]), bool)
    np.greater(np.abs(a), tol.eps_struct, out=big[:-1])
    return big.argmax(axis=0)


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


def _all_pairs_step(c: np.ndarray):
    """One all-pairs refinement step of a nearly diagonal Hermitian stack,
    in place.

    The step takes the diagonal gaps d_k = c_k,pp - c_k,qq and the
    first-order correction of every pair at once, the skew-Hermitian
    K_pq = -sum_k d_k c_k,pq / sum_k d_k^2 (the all-pairs update of Ogita &
    Aishima and of FFDIAG), and applies U = (Id - K/2)^{-1} (Id + K/2):
    exactly unitary, and real for real C.  Its error on a pair is of order
    K_pq^2, so it applies K_pq only where that settles the pair: the joint
    gap sqrt(sum_k d_k^2) is at least GAP_FLOOR ||C||_F and |K_pq| is at
    most GAP_FLOOR.  Every other pair keeps K_pq = 0 and is left to the
    sweep.  Returns (U, pairs): the unitary taken, and the mask of the
    pairs p < q it leaves to the sweep.
    """
    eye = identity(c.shape[-1], c.dtype)
    d = c.diagonal(axis1=1, axis2=2).real
    gaps = d[:, :, None] - d[:, None, :]
    gap2 = (gaps * gaps).sum(axis=0)
    under_floor = gap2 < (GAP_FLOOR * fro(c)) ** 2
    k = -(gaps * c).sum(axis=0) / np.where(under_floor, np.inf, gap2)
    # |K| is symmetric only to rounding; a symmetric mask keeps U unitary
    wide = (np.abs(k) > GAP_FLOOR) | (np.abs(k.T) > GAP_FLOOR)
    # zero only these: the signed zeros under the floor reach seeded output
    k[wide] = 0.0
    u = np.linalg.solve(eye - 0.5 * k, eye + 0.5 * k)
    c[...] = u.conj().T @ c @ u
    return u, np.triu(under_floor | wide, 1)


def _jacobi_sweeps(c: np.ndarray, off_target: float, pairs: np.ndarray) -> np.ndarray:
    """One round-robin Jacobi sweep on a stack of Hermitian matrices, in place.

    Returns the accumulated unitary (orthogonal for real input) Q with
    Q^H C_k Q as diagonal as the sweep achieves.  For each pair (p, q) the
    plane rotation maximizes sum_k (c'_pp - c'_qq)^2, the classical extended
    Jacobi angle choice; per pair this equals minimizing sum_k |c'_pq|^2.
    The maximizer is the dominant eigenvector v of G = H H^T, where column k
    of H is (c_pp - c_qq, -2 Re c_pq, -2 Im c_pq) for matrix k.  The sweep
    is the s - 1 rounds of `_round_robin`; the pairs of one round are
    disjoint, so their rotations commute and are taken together from one
    batched eigh of their G matrices, over only the pairs of the (s, s)
    boolean mask `pairs`, read at p < q: the pairs the all-pairs step left.
    A stack at `off_target` is returned at entry.  Ending above `off_target`
    logs one DEBUG line on the commvar.numkit logger, once a caller has
    imported logging: the sweeps (0 or 1), their pairs and the off-norm
    relative to the stack norm.
    """
    s = c.shape[-1]
    real_input = not np.iscomplexobj(c)
    q_acc = identity(s, c.dtype).copy()
    if off_norm(c) <= off_target:
        return q_acc
    rounds = [(p[m], q[m]) for p, q in zip(*_round_robin(s)) if (m := pairs[p, q]).any()]
    for p, q in rounds:
        d = c[:, p, q]
        hmat = np.stack([c[:, p, p].real - c[:, q, q].real,
                         -2.0 * d.real, -2.0 * d.imag], axis=1).T
        g = hmat @ hmat.swapaxes(1, 2)
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
        p, q, cth, s_rot = p[live], q[live], cth[live, None], s_rot[live, None]
        # C <- J^H C J with J = [[cth, conj(s)], [-s, cth]] on (p, q)
        rp, rq = c[:, p, :], c[:, q, :]
        c[:, p, :] = cth * rp - np.conj(s_rot) * rq
        c[:, q, :] = s_rot * rp + cth * rq
        for m in (c, q_acc[None]):
            cp, cq = m[:, :, p], m[:, :, q]
            m[:, :, p] = cp * cth.T - cq * s_rot.T
            m[:, :, q] = cp * np.conj(s_rot).T + cq * cth.T
    # only a process that imported logging can have a handler for the line;
    # importing it here would cost a few ms and 0.4 MB the first time
    if "logging" in sys.modules and (off := off_norm(c)) > off_target:
        sys.modules["logging"].getLogger(__name__).debug(
            "refinement ended above target: %d sweeps over %d pairs, relative off-norm %.3e",
            int(bool(rounds)), sum(p.size for p, _ in rounds), off / fro(c))
    return q_acc


def joint_diagonalizer(hmats, off_target: float) -> np.ndarray:
    """Unitary (orthogonal for real input) Q jointly diagonalizing commuting
    Hermitian matrices.

    Input already diagonal to `off_target` gives the identity.  Otherwise Q
    starts as the LAPACK eigenvectors of a deterministic random
    real-coefficient combination of the inputs, which separates every
    eigenspace the family does (He & Kressner, arXiv:2212.07248).  A start
    above `off_target` is refined by one `_all_pairs_step`, which applies
    only what it settles, then by one joint Jacobi sweep over the rest: the
    pairs under the gap floor (the clusters the combination leaves mixed)
    and those whose first-order angle |K_pq| exceeds GAP_FLOOR, as where
    two joint eigenvalues collide in it.  The caller bounds the residual.
    """
    kk, s = len(hmats), hmats.shape[-1]
    c = 0.5 * (hmats + np.conj(hmats.swapaxes(1, 2)))
    if off_norm(c) <= max(off_target, 1e-300):
        return identity(s, c.dtype).copy()
    # the (1, kk) by (kk, s^2) product that np.tensordot(coeffs, c, axes=(0, 0)) takes
    q0 = np.linalg.eigh(np.dot(_coefficients(kk, s), c.reshape(kk, s * s)).reshape(s, s))[1]
    c = q0.conj().T @ c @ q0
    if off_norm(c) <= off_target:
        # adding 0.0 turns a -0.0 entry into +0.0, as the refined path's
        # products do: the signs of zeros reach seeded output
        return q0 + 0.0
    u, pairs = _all_pairs_step(c)
    return q0 @ u @ _jacobi_sweeps(c, off_target, pairs)


@functools.cache
def _coefficients(kk: int, s: int) -> np.ndarray:
    """The read-only (1, kk) real coefficients of the start's combination."""
    coeffs = SplitMix64(0x5EEDC0FFEE ^ (kk << 16) ^ s).normals(kk)[None]
    coeffs.flags.writeable = False
    return coeffs


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
    if len({require_square(m) for m in arr}) > 1:
        raise ShapeMismatch("matrices in a tuple must share one size")
    if len(arr) < 2:
        return 0.0
    norms = [fro(m) for m in arr]
    worst = 0.0
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            comm = fro(arr[i] @ arr[j] - arr[j] @ arr[i])
            worst = max(worst, comm / max(1.0, norms[i] * norms[j]))
    return worst
