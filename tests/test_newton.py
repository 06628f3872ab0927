import random
from fractions import Fraction as F

import pytest

from vallab.errors import PrecisionError, ValidationError
from vallab.newton import root_values, segments
from vallab.values import INFINITE, Indeterminate


def test_frozen_artin_schreier_pole():
    # X^3 - X - t^{-1}: one segment, root value -1/3, length 3
    vals = [F(-1), F(0), INFINITE, F(0)]
    assert root_values(vals) == [(F(-1, 3), 3)]


def test_frozen_artin_schreier_split():
    # X^3 - X - t: root values 1 (length 1) and 0 (length 2)
    vals = [F(1), F(0), INFINITE, F(0)]
    assert root_values(vals) == [(F(1), 1), (F(0), 2)]


def test_frozen_kummer():
    # X^3 - t: single segment of slope -1/3
    vals = [F(1), INFINITE, INFINITE, F(0)]
    assert root_values(vals) == [(F(1, 3), 3)]
    assert segments(vals) == [(F(-1, 3), 3)]


def test_vanishing_constant_term():
    # X^2(X - t): a double root "at infinity" plus the finite one
    vals = [INFINITE, INFINITE, F(1), F(0)]
    assert root_values(vals) == [(INFINITE, 2), (F(1), 1)]


def test_rejects_bad_input():
    with pytest.raises(ValidationError):
        root_values([INFINITE, INFINITE])
    with pytest.raises(ValidationError):
        root_values([F(0), INFINITE])  # leading coefficient vanishes
    with pytest.raises(PrecisionError):
        root_values([Indeterminate(F(3)), F(0)])


def test_sum_rule_random_products():
    # build polynomials as products of (X - r_i) with known monomial root
    # values; the polygon must recover the multiset of root values
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randrange(1, 6)
        roots = [F(rng.randrange(-6, 7), rng.choice((1, 2, 3))) for _ in range(n)]
        # coefficient values: elementary symmetric functions of monomials;
        # track them exactly as min over subsets (valuation of a sum can
        # exceed the min, so emulate with generic-coefficient arithmetic:
        # distinct random perturbations make cancellation impossible)
        coeffs = {0: F(0)}  # value of leading coeff of the growing product
        vals = [F(0)]
        for r in roots:
            new = [None] * (len(vals) + 1)
            for i, v in enumerate(vals):
                for (j, add) in ((i, v + r), (i + 1, v)):
                    if new[j] is None or add < new[j]:
                        new[j] = add
            vals = new
        got = root_values(vals)
        expanded = []
        for v, m in got:
            expanded.extend([v] * m)
        assert sorted(expanded) == sorted(roots)
        assert sum(v * m for v, m in got) == vals[0] - vals[-1]
