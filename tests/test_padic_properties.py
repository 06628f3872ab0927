"""Property tests of the digit ring Z_p[w]/(w^E - s*p), plain and Gauss.

Each example draws a ring (p in {2, 3, 5, 7}, E, twist, Gauss or plain)
and elements from raw digits at positions -2..8, each exact or capped at
a position in 3..12.

Exact products, sums, negations and shifts are built already folded; they
are checked against helpers' build-then-fold references on hypothesis
examples and, with or without hypothesis, on a seeded draw.
"""

import random

from vallab.values import INFINITE, Indeterminate
from vallab.vbase import PadicBase, PadicElem, _fold

from helpers import merge_then_fold, product_then_fold, shift_then_fold

try:
    from hypothesis import assume, given, settings, strategies as st
except ImportError:  # the seeded tests still run
    st = None

RINGS = [PadicBase(p, E, s, gauss) for p in (2, 3, 5, 7)
         for E in sorted({1, p - 1, p}) for s in (1, -1) for gauss in (False, True)]

# every E from 1 to 6, for the results built folded
FOLD_RINGS = [PadicBase(p, E, s, gauss) for p in (2, 3, 5, 7)
              for E in range(1, 7) for s in (1, -1) for gauss in (False, True)]


def _determinate(v):
    return v != INFINITE and not isinstance(v, Indeterminate)


def _check_built_folded(b, x, y, k, e, c):
    """x*y, x*x, x + y, x - y, -x and x / (c * w^k * u^e), all exact, equal
    their build-then-fold references and are fixed points of _fold."""
    q = b.from_digits({k: {e: c}})
    for r, ref in [(x * y, product_then_fold(x, y)),
                   (x * x, product_then_fold(x, x)),
                   (x + y, merge_then_fold(x, y, 1)),
                   (x - y, merge_then_fold(x, y, -1)),
                   (-x, shift_then_fold(x, 0, 0, -1)),
                   (x / q, shift_then_fold(x, -k, -e, c))]:
        assert r.prec == INFINITE
        assert r.digits == ref
        assert _fold(b, r.digits, INFINITE) == r.digits


def _seeded_pairs(rng, b):
    """Exact (x, y) pairs of b: two random ones, then x with a zero, with
    -x + p*w^k (so x + y cancels x's lead) and with a lead of several
    u-exponents (on a Gauss ring)."""
    us = (-1, 0, 1) if b.gauss else (0,)

    def draw(size):
        return PadicElem(b, {(rng.randint(-2, 8), rng.choice(us)):
                             rng.randint(-2 * b.p ** 2, 2 * b.p ** 2)
                             for _ in range(size)}, INFINITE)

    x, y = draw(rng.randint(1, 4)), draw(rng.randint(1, 4))
    pairs = [(x, y), (x, b.zero()), (b.zero(), x),
             (x, -x + b.from_digits({rng.randint(-2, 4): b.p}))]
    if b.gauss:
        lead = {e: rng.randint(1, b.p - 1) for e in us}
        z = b.from_digits({0: lead}) + draw(2) * b.monomial(3)
        pairs += [(z, z), (z, x), (z, -z + b.from_digits({1: {1: b.p}}))]
    return pairs


def test_exact_results_are_built_folded_seeded():
    rng = random.Random(0)
    for b in FOLD_RINGS:
        for _ in range(3):
            for x, y in _seeded_pairs(rng, b):
                _check_built_folded(b, x, y, rng.randint(-3, 3),
                                    rng.choice((-1, 0, 1)) if b.gauss else 0,
                                    rng.choice((1, -1)))


def test_a_cancelled_lead_is_refolded():
    # x + (-x + p*w^3) is p*w^3 = s*w^(3+E), whose lead lies E positions up
    for b in FOLD_RINGS:
        x = b.from_digits({0: 1, 1: b.p + 1})
        assert (x + (-x + b.from_digits({3: b.p}))).digits == {(3 + b.E, 0): b.twist}
        assert (x - (x - b.from_digits({3: b.p}))).digits == {(3 + b.E, 0): b.twist}


if st is not None:
    # deterministic, so a tier-1 run always checks the same examples
    PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

    def _elems(b, exact=False):
        us = st.integers(-1, 1) if b.gauss else st.just(0)
        digits = st.dictionaries(st.tuples(st.integers(-2, 8), us),
                                 st.integers(-2 * b.p ** 2, 2 * b.p ** 2),
                                 max_size=4)
        cap = st.just(INFINITE) if exact else \
            st.one_of(st.just(INFINITE), st.integers(3, 12))
        return st.tuples(digits, cap).map(lambda dc: PadicElem(b, *dc))

    def _with(n, rings=RINGS, exact=False):
        """(ring, n elements of it)."""
        return st.sampled_from(rings).flatmap(
            lambda b: st.tuples(st.just(b), *[_elems(b, exact)] * n))

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

    @PROPERTY
    @given(_with(2, FOLD_RINGS, exact=True), st.integers(-3, 3),
           st.integers(-1, 1), st.sampled_from((1, -1)))
    def test_exact_results_are_built_folded(args, k, e, c):
        b, x, y = args
        _check_built_folded(b, x, y, k, e if b.gauss else 0, c)
