"""Property tests of the digit ring Z_p[w]/(w^E - s*p), plain and Gauss.

Each example draws a ring (p in {2, 3, 5, 7}, E, twist, Gauss or plain)
and elements from raw digits at positions -2..8, each exact or capped at
a position in 3..12.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from vallab.values import INFINITE, Indeterminate  # noqa: E402
from vallab.vbase import PadicBase, PadicElem  # noqa: E402

RINGS = [PadicBase(p, E, s, gauss) for p in (2, 3, 5, 7)
         for E in sorted({1, p - 1, p}) for s in (1, -1) for gauss in (False, True)]

# deterministic, so a tier-1 run always checks the same examples
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _elems(b):
    us = st.integers(-1, 1) if b.gauss else st.just(0)
    digits = st.dictionaries(st.tuples(st.integers(-2, 8), us),
                             st.integers(-2 * b.p ** 2, 2 * b.p ** 2),
                             max_size=4)
    cap = st.one_of(st.just(INFINITE), st.integers(3, 12))
    return st.tuples(digits, cap).map(lambda dc: PadicElem(b, *dc))


def _with(n):
    """(ring, n elements of it)."""
    return st.sampled_from(RINGS).flatmap(
        lambda b: st.tuples(st.just(b), *[_elems(b)] * n))


def _determinate(v):
    return v != INFINITE and not isinstance(v, Indeterminate)


@PROPERTY
@given(_with(2))
def test_value_of_a_product(args):
    _, x, y = args
    if _determinate(x.val()) and _determinate(y.val()):
        assert (x * y).val() == x.val() + y.val()


@PROPERTY
@given(_with(2))
def test_subtraction_undoes_addition(args):
    _, x, y = args
    assert (x + y) - y == x


@PROPERTY
@given(_with(3))
def test_distributive(args):
    _, x, y, z = args
    assert x * (y + z) == x * y + x * z


@PROPERTY
@given(_with(2))
def test_quotient_times_divisor_is_the_dividend_to_its_cap(args):
    # a divisor needs a known lead digit that is a u-monomial, and an exact
    # quotient needs +-w^k u^e; y's lead k0 puts q*y - x at q.prec + k0
    _, x, y = args
    lead = y._lead()
    assume(lead is not None and len(lead[1]) == 1)
    exact_shift = list(y.digits.values()) in ([1], [-1])
    assume(x.prec != INFINITE or y.prec != INFINITE or exact_shift)
    q = x / y
    assert (q * y - x)._low() >= q.prec + lead[0]


@PROPERTY
@given(_with(1))
def test_fold_keeps_one_reduced_integer_per_class(args):
    # each (k mod E, e) holds one integer, all within E positions of the
    # lead, and a capped one lies in [0, p^ceil((prec - k)/E))
    b, x = args
    classes = [(k % b.E, e) for k, e in x.digits]
    assert len(classes) == len(set(classes))
    if x.digits:
        assert max(x.digits)[0] - min(x.digits)[0] < b.E
        assert min(x.digits)[0] == x._lead()[0]
    if x.prec != INFINITE:
        assert all(0 < c < b.p ** -((k - x.prec) // b.E)
                   for (k, _), c in x.digits.items())
