"""Exact graded dimension tables of the complete unordered flag manifold at
odd primes.
"""

from commvar import a0_lambda_table, poincare_poly

for p in (3, 5, 7):
    poly = poincare_poly(p)
    table = poly.to_dict()
    print(f"p = {p}: P(t) = {poly}")
    print(f"  lowest reduced degree: {min(a0_lambda_table(p))} (= 2p-3)")
    print(f"  total reduced dimension: {sum(a0_lambda_table(p).values())}"
          f" (= 2^(p-1))")
    print(f"  P(1) = {sum(table.values())}")
    # the reduced part has the factor 1 + t, which vanishes at t = -1
    print(f"  P(-1) = {sum(c * (-1) ** d for d, c in table.items())}")
