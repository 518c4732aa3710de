"""Deterministic sampling on a SplitMix64 stream.

The generator is pinned by its update constants, so its integer stream is
the same on every platform:

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z      <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output <- z XOR (z >> 31)

Uniform doubles take the top 53 output bits; Gaussians use Box-Muller
through libm.  Haar unitary and orthogonal matrices both come from one
phase-fixed QR of a Gaussian draw (`phase_fixed_q`) through LAPACK, so they
and the Gaussians repeat only on one libm, BLAS build, kernel and thread count.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# distinct odd constant used only to derive per-trial sub-seeds
SUBSEED_STRIDE = 0xD1B54A32D192ED03


class SplitMix64:
    """SplitMix64 stream with uniform/normal/complex helpers."""

    def __init__(self, seed: int):
        self.state = int(seed) & MASK64
        self._gauss_cache: float | None = None

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi); modulo bias is irrelevant at these ranges."""
        if hi <= lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo)

    def normal(self) -> float:
        if self._gauss_cache is not None:
            g, self._gauss_cache = self._gauss_cache, None
            return g
        u1 = max(self.uniform(), 2.0 ** -53)
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._gauss_cache = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normals(self, *shape: int) -> np.ndarray:
        out = np.array([self.normal() for _ in range(math.prod(shape))])
        return out.reshape(shape) if shape else out[0]

    def complex_normals(self, *shape: int) -> np.ndarray:
        re = self.normals(*shape)
        im = self.normals(*shape)
        return (re + 1j * im) / math.sqrt(2.0)


def subseed(seed: int, index: int) -> int:
    """Independent 64-bit seed for trial `index` of a run seeded by `seed`."""
    mixer = SplitMix64((seed ^ ((index + 1) * SUBSEED_STRIDE)) & MASK64)
    return mixer.next_u64()


def phase_fixed_q(z: np.ndarray) -> np.ndarray:
    """Q of the QR of a matrix or a stack, each column scaled so that diag R
    is real positive (a zero entry counts as 1): on a Gaussian draw, this
    R-diagonal phase fix makes Q exactly Haar (sign(d) on real input)."""
    q, r = np.linalg.qr(z)
    d = r.diagonal(axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(rng: SplitMix64, s: int) -> np.ndarray:
    """Haar-distributed s x s unitary: phase-fixed QR of a complex Gaussian."""
    return phase_fixed_q(rng.complex_normals(s, s))


def haar_orthogonal(rng: SplitMix64, s: int) -> np.ndarray:
    """Haar-distributed s x s real orthogonal matrix."""
    return phase_fixed_q(rng.normals(s, s))


def unit_phase(rng: SplitMix64, margin: float = 0.0) -> complex:
    """Point on the unit circle with argument in [margin, 2*pi - margin]."""
    theta = margin + rng.uniform() * (2.0 * math.pi - 2.0 * margin)
    return complex(math.cos(theta), math.sin(theta))
