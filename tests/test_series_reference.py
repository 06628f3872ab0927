"""The integer-exponent series ring against its Fraction-keyed reference.

Seeded draws over the exponent groups (1/p^n)Z and Z[1/p] at p in
{2, 3, 5, 7}: every +, -, *, division by a monomial, Frobenius, value,
residue, printed text and R4 budget must match helpers.FractionSeries,
and every result must keep its denominator reduced.  Sums whose
largest-denominator term cancels are drawn on purpose, since they are
where an unreduced denominator would show.
"""

import math
import random
from fractions import Fraction as F

import pytest

from vallab.ogroup import ogroup
from vallab.resfield import ResField
from vallab.tower import Tower, adjoin_root, r4_budget
from vallab.values import INFINITE
from vallab.vbase import EqBase

from helpers import FractionSeries, r4_budget_fraction

PRIMES = (2, 3, 5, 7)


def _groups(p):
    """(label, group, the largest p-exponent drawn in a denominator): the
    group (1/p^n)Z is labelled n<n>, and Z[1/p] closed."""
    return [("n%d" % n, ogroup([F(1, p ** n)], prime=p), n)
            for n in (0, 1, 3)] + \
        [("closed", ogroup([F(1)], closed={0}, prime=p), 4)]


def _cases():
    return [(p, label, EqBase(p, ResField(p, "ratfun"), g), kmax)
            for p in PRIMES for label, g, kmax in _groups(p)]


def _coeff(rng, res):
    """A nonzero residue monomial c*u^e, at perfection level 0 or 1."""
    c = res.elem({rng.randint(-2, 2): rng.randint(1, res.char - 1)})
    return c.pth_root_extend() if rng.random() < 0.3 else c


def _exponent(rng, p, kmax):
    return F(rng.randint(-6, 6), p ** rng.randint(0, kmax))


def _draw(rng, base, kmax, size=4):
    """(series, reference) over up to size terms, each a sum of residue
    monomials, so a coefficient is any small residue polynomial."""
    terms = {}
    for _ in range(rng.randint(0, size)):
        g = _exponent(rng, base.p, kmax)
        c = _coeff(rng, base.res)
        terms[g] = terms[g] + c if g in terms else c
    return base.series(terms.items()), FractionSeries(base.p, terms)


def _assert_reduced(x):
    # den is the least common denominator of the exponents, 1 for zero
    assert x.den >= 1 and math.gcd(x.den, *x.nums) == 1
    assert x.den == math.lcm(*(g.denominator for g in x.terms))


def _same(x, ref):
    _assert_reduced(x)
    assert dict(x.terms) == ref.terms
    assert x.to_text() == ref.to_text()
    assert x.val() == ref.val()


def _towers(base):
    """The bare tower over base and one with an Artin-Schreier generator
    x^p = x + t^(-1), whose relation carries series coefficients."""
    t0 = Tower(base)
    a = t0.from_base(base.monomial(-1))
    return t0, adjoin_root(t0, "as", a, "x").tower


@pytest.mark.parametrize("p,label,base,kmax", _cases(),
                         ids=["%d-%s" % (c[0], c[1]) for c in _cases()])
def test_series_matches_the_fraction_reference(p, label, base, kmax):
    rng = random.Random(1000 * p + kmax)
    towers = _towers(base)
    for _ in range(30):
        (x, rx), (y, ry) = _draw(rng, base, kmax), _draw(rng, base, kmax)
        _same(x, rx)
        _same(x + y, rx + ry)
        _same(x - y, rx - ry)
        _same(-x, -rx)
        _same(x * y, rx * ry)
        _same(x.frobenius(), rx.frobenius())
        d, rd = _draw(rng, base, kmax, size=1)
        if not d.is_zero():
            _same(x / d, rx / rd)
            _same((x * d) / d, rx)
        if not x.is_zero():
            # x over its own lead monomial has value 0 and the same residue
            lead, rlead = base.monomial(rx.val()), FractionSeries.of(
                base.monomial(rx.val()))
            assert (x / lead).residue() == (rx / rlead).residue()
        else:
            assert x.val() == INFINITE
        for tw in towers:
            for elem in (tw.from_base(x), tw.from_base(x * y)):
                assert r4_budget(elem) == r4_budget_fraction(elem)
            if tw.gens:
                elem = tw.gen_elem(0) * tw.from_base(x) + tw.from_base(y)
                assert r4_budget(elem) == r4_budget_fraction(elem)


@pytest.mark.parametrize("p", PRIMES)
def test_cancelling_the_finest_term_reduces_the_denominator(p):
    # x = t^(a/p^k) + (coarser terms): x - t^(a/p^k), and x plus a series
    # whose finest term cancels x's, keep only coarser exponents, and the
    # denominator must drop to theirs
    base = EqBase(p, ResField(p, "ratfun"),
                  ogroup([F(1)], closed={0}, prime=p))
    rng = random.Random(p)
    for _ in range(40):
        k = rng.randint(1, 4)
        fine = F(rng.choice([a for a in range(-9, 10) if a % p]), p ** k)
        c = _coeff(rng, base.res)
        coarse, rcoarse = _draw(rng, base, k - 1)
        x = coarse + base.monomial(fine, c)
        assert x.den == p ** k
        for s, rs in ((x - base.monomial(fine, c), rcoarse),
                      (x + (base.monomial(fine, -c) + coarse),
                       rcoarse + rcoarse)):
            _same(s, rs)
            assert s.den < p ** k
            tw = Tower(base)
            assert r4_budget(tw.from_base(s)) == \
                r4_budget_fraction(tw.from_base(s))
    # t^(1/p) * t^((p-1)/p) = t and (t^(1/p))^p = t: products and the
    # Frobenius reduce as well
    r = base.monomial(F(1, p))
    assert (r * base.monomial(F(p - 1, p))).den == 1
    assert r.frobenius().den == 1 and r.frobenius() == base.monomial(1)
