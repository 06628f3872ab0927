"""Property tests of the tower layer: the value and residue laws.

Each example draws the top tower of one of the six construction families
at p in {2, 3} and sums of one to three monomials c * gen^e over it, each
c a base monomial of value -v(gen^e) + lift (rounded up into the base
group), so that values tie often and the R4 walk is reached.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from vallab.constructions import (build_2ext, build_as_resf,  # noqa: E402
                                  build_as_valgp, build_kummer_resf,
                                  build_kummer_valgp, build_lemma_3_3)
from vallab.errors import ValidationError  # noqa: E402
from vallab.resfield import ResField  # noqa: E402
from vallab.tower import TElem, residue, val  # noqa: E402


def _towers():
    """(tower, coefficients) for the six families at p = 2 and 3."""
    out = []
    for p in (2, 3):
        u = ResField(p, "ratfun").gen()
        out += [(build_lemma_3_3(p).towers[0], [1, u]),
                (build_as_resf(p, 2).towers[-1], list(range(1, p))),
                (build_as_valgp(p, 2).towers[-1], list(range(1, p))),
                (build_kummer_resf(p, 2).towers[-1], [1, {1: 1}]),
                (build_kummer_valgp(p, 1).towers[-1], list(range(1, p))),
                (build_2ext(p).towers[-1], [1, 2])]
    return out


TOWERS = _towers()

# deterministic, so a tier-1 run always checks the same examples
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def _base_monomial(base, v, coeff):
    """A base monomial of value v, or of the least group value above v."""
    try:
        return base.monomial(v, coeff)
    except ValidationError:
        unit = base.value_group.gens[0][0]
        return base.monomial(-((-v) // unit) * unit, coeff)


def _monomial(tw, e, lift, coeff):
    shift = sum(ei * g.value for ei, g in zip(e, tw.gens))
    return TElem(tw, {e: _base_monomial(tw.base, lift - shift, coeff)})


def _elements(tw, coeffs, lifts, unit):
    """Nonzero sums of one to three monomials; with `unit`, plus a
    constant of value 0 and monomials of value at least 0."""
    exps = st.tuples(*[st.integers(0, tw.p - 1)] * len(tw.gens))
    monos = st.lists(st.tuples(exps, st.sampled_from(lifts),
                               st.sampled_from(coeffs)),
                     min_size=0 if unit else 1, max_size=3)
    start = st.sampled_from(coeffs).map(
        lambda c: tw.from_base(tw.base.monomial(F(0), c)) if unit
        else tw.zero())
    return st.tuples(start, monos).map(
        lambda sm: sum((_monomial(tw, *m) for m in sm[1]), sm[0])).filter(
        lambda z: not z.is_zero())


def _pairs(lifts=(F(-1), F(0), F(0), F(1)), unit=False):
    """(tower, x, y) over one drawn tower."""
    return st.sampled_from(TOWERS).flatmap(
        lambda tc: st.tuples(st.just(tc[0]),
                             *[_elements(*tc, lifts, unit)] * 2))


@PROPERTY
@given(_pairs())
def test_value_of_a_product(args):
    _, x, y = args
    assert val(x * y) == val(x) + val(y)


@PROPERTY
@given(_pairs())
def test_value_of_a_sum(args):
    _, x, y = args
    vx, vy, vs = val(x), val(y), val(x + y)
    assert vs >= min(vx, vy)
    if vx != vy:
        assert vs == min(vx, vy)


def _residue(z):
    """residue(z), or None for a generator without residue data."""
    try:
        return residue(z)
    except ValidationError as exc:
        if "carries no residue data" not in str(exc):
            raise
        return None


@PROPERTY
@given(_pairs(lifts=(F(0), F(0), F(1)), unit=True))
def test_residue_of_a_product_of_units(args):
    _, x, y = args
    assume(val(x) == 0 and val(y) == 0)
    rx, ry, rxy = _residue(x), _residue(y), _residue(x * y)
    assume(None not in (rx, ry, rxy))
    assert rxy == rx * ry
