"""Property tests of the exact series ring F_p(u^(1/p^k))((t^Z[1/p])).

Each example draws a prime p in {2, 3, 5, 7} and series whose coefficients
are Laurent polynomials in u at perfection levels 0 and 1.
"""

from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from vallab.errors import ValidationError  # noqa: E402
from vallab.ogroup import ogroup  # noqa: E402
from vallab.resfield import ResField  # noqa: E402
from vallab.vbase import EqBase  # noqa: E402

BASES = {p: EqBase(p, ResField(p, "ratfun"), ogroup([F(1)], closed={0}, prime=p))
         for p in (2, 3, 5, 7)}

# deterministic, so a tier-1 run always checks the same examples
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _coeffs(p, size):
    """A nonzero residue a/(c*u^k), k in 0..2 and a of at most size terms,
    at level 0 or 1."""
    poly = st.dictionaries(st.integers(0, 2), st.integers(1, p - 1),
                           min_size=1, max_size=size)
    den = st.tuples(st.integers(0, 2), st.integers(1, p - 1)).map(
        lambda kc: {kc[0]: kc[1]})
    res = BASES[p].res
    return st.tuples(poly, den, st.booleans()).map(
        lambda t: (lambda c: c.pth_root_extend() if t[2] else c)(
            res.elem(t[0]) / res.elem(t[1])))


def _monomials(p, size=2):
    exps = st.tuples(st.integers(-4, 4), st.integers(0, 1)).map(
        lambda nk: F(nk[0], p ** nk[1]))
    return st.tuples(exps, _coeffs(p, size)).map(
        lambda gc: BASES[p].monomial(*gc))


def _series(p):
    return st.lists(_monomials(p), max_size=3).map(
        lambda ms: sum(ms, BASES[p].zero()))


def _with(n_series, n_divisors=0):
    """(p, series..., divisors...) over one drawn p; a divisor is a monomial
    whose coefficient is a residue monomial."""
    return st.sampled_from(sorted(BASES)).flatmap(
        lambda p: st.tuples(st.just(p), *[_series(p)] * n_series,
                            *[_monomials(p, 1)] * n_divisors))


@PROPERTY
@given(_with(3))
def test_distributive(args):
    _, x, y, z = args
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@PROPERTY
@given(_with(2))
def test_frobenius_is_a_ring_map(args):
    p, x, y = args
    assert (x + y).frobenius() == x.frobenius() + y.frobenius()
    assert (x * y).frobenius() == x.frobenius() * y.frobenius()
    assert x.frobenius() == x ** p


@PROPERTY
@given(_with(2))
def test_value_of_a_product(args):
    _, x, y = args
    if not (x.is_zero() or y.is_zero()):
        assert (x * y).val() == x.val() + y.val()
    else:
        assert (x * y).is_zero()


@PROPERTY
@given(_with(1, 1))
def test_monomial_division_inverts_multiplication(args):
    _, x, d = args
    assert (x / d) * d == x
    assert (x * d) / d == x


@PROPERTY
@given(_with(1, 1))
def test_division_needs_a_monomial_residue(args):
    # t^g * (1 + u) is a series monomial, but its coefficient is not a
    # residue monomial, so no series divides by it, not even zero
    p, x, d = args
    (g, _), = d.terms.items()
    one_plus_u = BASES[p].res.elem({0: 1, 1: 1})
    with pytest.raises(ValidationError, match="residue division needs a monomial"):
        x / BASES[p].monomial(g, one_plus_u)
