import pytest

from commvar.cohomtab import IntPolynomial, a0_lambda_table, poincare_poly
from commvar.errors import NotOddPrime
from commvar.rng import SplitMix64


def expand_oracle(p):
    """Independent expansion of 1 + t^(2p-3) (1+t) prod (1 + t^(2i-1)) using
    dense list convolution."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    poly = [0] * (2 * p - 3) + [1]
    poly = mul(poly, [1, 1])
    for i in range(1, p - 1):
        poly = mul(poly, [1] + [0] * (2 * i - 2) + [1])
    poly[0] += 1
    return {d: c for d, c in enumerate(poly) if c}


def test_poly_arithmetic():
    one_plus_t = IntPolynomial({0: 1, 1: 1})
    assert (one_plus_t * one_plus_t).to_dict() == {0: 1, 1: 2, 2: 1}
    assert (one_plus_t * IntPolynomial.zero()).to_dict() == {}
    a = IntPolynomial({0: 2, 3: -1})
    b = IntPolynomial({1: 5, 3: 1})
    assert a * b == b * a
    assert a + b == b + a
    assert (a + b).evaluate(2) == a.evaluate(2) + b.evaluate(2)
    assert IntPolynomial({2: 0}).to_dict() == {}
    assert IntPolynomial.zero().degree == -1
    assert str(IntPolynomial({0: 1, 3: 1, 4: 2})) == "1 + t^3 + 2*t^4"


def test_poly_arithmetic_random_commutes():
    rng = SplitMix64(77)
    for _ in range(50):
        a = IntPolynomial({rng.randint(0, 7): rng.randint(-4, 5) for _ in range(3)})
        b = IntPolynomial({rng.randint(0, 7): rng.randint(-4, 5) for _ in range(3)})
        assert a * b == b * a


def test_poincare_p3():
    # expansion of the product formula: (1+t)^2 at i = 1
    assert poincare_poly(3).to_dict() == {0: 1, 3: 1, 4: 2, 5: 1}


def test_poincare_p5_against_oracle():
    got = poincare_poly(5).to_dict()
    assert got == expand_oracle(5)
    assert got[8] == 2  # coefficient of t^8


def _check_invariants(poly, p):
    assert poly.evaluate(0) == 1
    assert poly.evaluate(1) == 1 + 2 ** (p - 1)
    assert poly.degree == 2 * p - 2 + (p - 2) ** 2
    assert sorted(poly.coeffs)[1] == 2 * p - 3  # the lowest degree above the unit


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 31])
def test_poincare_invariants(p):
    poly = poincare_poly(p)
    assert poly.to_dict() == expand_oracle(p)
    _check_invariants(poly, p)


def test_poincare_invariants_at_the_cap():
    _check_invariants(poincare_poly(113), 113)
    assert min(a0_lambda_table(113)) == 2 * 113 - 3


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_a0_lambda_table(p):
    tab = a0_lambda_table(p)
    assert min(tab) == 2 * p - 3
    assert sum(tab.values()) == 2 ** (p - 1)
    with_unit = dict(tab)
    with_unit[0] = with_unit.get(0, 0) + 1
    assert with_unit == poincare_poly(p).to_dict()


def test_a0_lambda_p3():
    assert a0_lambda_table(3) == {3: 1, 4: 2, 5: 1}


@pytest.mark.parametrize("p", [2, 4, 9, 15, 1, 0])
def test_not_odd_prime(p):
    with pytest.raises(NotOddPrime):
        poincare_poly(p)
    with pytest.raises(NotOddPrime):
        a0_lambda_table(p)


def test_polynomial_hash_str_and_repr():
    assert hash(IntPolynomial({2: 3, 0: 1, 1: 0})) == hash(IntPolynomial({0: 1, 2: 3}))
    assert str(IntPolynomial.zero()) == "0"
    assert repr(IntPolynomial({3: -2, 0: 1})) == "IntPolynomial({0: 1, 3: -2})"
