"""Property tests of the residue rings F_p[u^(1/p^k), u^(-1/p^k)].

Each example draws a prime p in {2, 3, 5, 7} and Laurent polynomials at
perfection levels 0 to 2, which meet at the finer level.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from vallab.errors import ValidationError  # noqa: E402
from vallab.resfield import ResField  # noqa: E402

FIELDS = {p: [ResField(p, "ratfun").at_level(lv) for lv in range(3)]
          for p in (2, 3, 5, 7)}

# deterministic, so a tier-1 run always checks the same examples
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


def _laurent(p, min_size=0, max_size=3):
    terms = st.dictionaries(st.integers(-4, 4), st.integers(0, p - 1),
                            min_size=min_size, max_size=max_size)
    return st.tuples(st.sampled_from(FIELDS[p]), terms).map(
        lambda ft: ft[0].elem(ft[1]))


def _monomial(p):
    return st.tuples(st.sampled_from(FIELDS[p]), st.integers(-4, 4),
                     st.integers(1, p - 1)).map(
        lambda fec: fec[0].elem({fec[1]: fec[2]}))


def _with(n_laurent, n_monomials=0):
    """(p, elements..., monomials...) over one drawn p."""
    return st.sampled_from(sorted(FIELDS)).flatmap(
        lambda p: st.tuples(st.just(p), *[_laurent(p)] * n_laurent,
                            *[_monomial(p)] * n_monomials))


@PROPERTY
@given(_with(3))
def test_ring_axioms(args):
    p, x, y, z = args
    one, zero = FIELDS[p][0].one(), FIELDS[p][0].zero()
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x * zero == zero
    assert x - y == x + (-y) and x - x == zero


@PROPERTY
@given(_with(2))
def test_frobenius_is_the_pth_power_ring_map(args):
    p, x, y = args
    assert (x + y).frobenius() == x.frobenius() + y.frobenius()
    assert (x * y).frobenius() == x.frobenius() * y.frobenius()
    assert x.frobenius() == x ** p
    assert x.frobenius().pth_root() == x


@PROPERTY
@given(_with(1, 2))
def test_monomial_division_inverts_multiplication(args):
    _, x, d, e = args
    assert (x / d) * d == x
    assert (x * d) / d == x
    assert d * d.inverse() == 1
    assert (d * e) ** -2 == d ** -2 * e ** -2


@PROPERTY
@given(st.sampled_from(sorted(FIELDS)).flatmap(
    lambda p: st.tuples(_laurent(p), _laurent(p, min_size=2, max_size=4))))
def test_non_monomial_divisor_refused(args):
    x, d = args
    if len(d.terms) < 2:
        d = d + d.field.gen() * (d.terms[0][1] if d.terms else 1) + 1
    if len(d.terms) < 2:
        return
    with pytest.raises(ValidationError,
                       match="residue division needs a monomial divisor"):
        x / d
    with pytest.raises(ValidationError,
                       match="residue division needs a monomial divisor"):
        d ** -1
    with pytest.raises(ZeroDivisionError):
        x / (d - d)
