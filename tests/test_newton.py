import random
from collections import Counter
from fractions import Fraction as F

import pytest

from vallab import suites
from vallab.errors import ValidationError
from vallab.values import INFINITE

from helpers import polygon_segments, root_values


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
    assert polygon_segments(vals) == [(F(-1, 3), 3)]


def test_vanishing_constant_term():
    # X^2(X - t): a double root "at infinity" plus the finite one
    vals = [INFINITE, INFINITE, F(1), F(0)]
    assert root_values(vals) == [(INFINITE, 2), (F(1), 1)]


def test_rejects_bad_input():
    with pytest.raises(ValidationError):
        root_values([INFINITE, INFINITE])
    with pytest.raises(ValidationError):
        root_values([F(0), INFINITE])  # leading coefficient vanishes


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


def test_newton_suite_reaches_every_outcome(monkeypatch):
    # the suite checks adjoin_root against its own polygon; every outcome
    # the closed form can give must occur, so that dropping a branch of it
    # (or the separable refusal) fails the suite at every seed
    seen = Counter()
    adjoin_root = suites.adjoin_root

    def spy(*args):
        try:
            adj = adjoin_root(*args)
        except ValidationError:
            seen["refused"] += 1
            raise
        seen[adj.outcome] += 1
        return adj

    monkeypatch.setattr(suites, "adjoin_root", spy)
    for seed in range(4):
        res = suites.run_suite("newton", seed)
        assert (res.passed, res.failed) == (100, 0), res.lines
    assert sum(seen.values()) == 400
    assert set(seen) == {"not_single_slope", "refused", "ramified",
                         "residue", "no_step_detected"}
    assert min(seen.values()) >= 10, seen
