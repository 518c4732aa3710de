import pytest

from commvar.cohomtab import a0_lambda_table, poincare_poly, poly_text
from commvar.errors import NotOddPrime


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


def test_poly_text():
    assert poly_text({0: 1, 3: 1, 4: 2}) == "1 + t^3 + 2*t^4"
    assert poly_text({4: 2, 1: 3, 0: 5}) == "5 + 3*t + 2*t^4"
    assert poly_text({1: 1}) == "t"
    assert str(poincare_poly(3)) == "1 + t^3 + 2*t^4 + t^5"


def test_poincare_p3():
    # expansion of the product formula: (1+t)^2 at i = 1
    assert poincare_poly(3).to_dict() == {0: 1, 3: 1, 4: 2, 5: 1}


def test_poincare_p5_against_oracle():
    got = poincare_poly(5).to_dict()
    assert got == expand_oracle(5)
    assert got[8] == 2  # coefficient of t^8


def _check_invariants(poly, p):
    table = poly.to_dict()
    assert table[0] == 1  # P(0)
    assert sum(table.values()) == 1 + 2 ** (p - 1)  # P(1)
    assert sum(c * (-1) ** d for d, c in table.items()) == 1  # P(-1): 1 + t divides the rest
    assert max(table) == 2 * p - 2 + (p - 2) ** 2
    assert sorted(table)[1] == 2 * p - 3  # the lowest degree above the unit


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


def test_poincare_table_is_read_only():
    poly = poincare_poly(3)
    with pytest.raises(AttributeError):
        poly.terms = ()
    table = poly.to_dict()
    table[0] = 7
    assert poly.to_dict()[0] == 1
