import random
from fractions import Fraction

import pytest

from vallab.errors import ValidationError
from vallab.ogroup import _coerce_vec, _leading_index, _lex_positive
from vallab.values import Indeterminate, fr, sum_text, term_text


def test_fr_coercion():
    assert fr(3) == Fraction(3)
    assert fr(Fraction(1, 2)) == Fraction(1, 2)
    assert fr("7/4") == Fraction(7, 4)


def test_term_and_sum_text():
    # the coefficient leads unless it is 1 and a power follows
    assert term_text("1", [("x", 0), ("y", 0)]) == "1"
    assert term_text("1", [("x", 1), ("y", 0), ("z", Fraction(1, 3))]) == \
        "x*z^(1/3)"
    assert term_text("-1", [("t", -2)]) == "-1*t^(-2)"
    assert term_text("(1 + u)", [("w", 3)]) == "(1 + u)*w^3"
    assert sum_text([]) == "0"
    assert sum_text(iter(["u", "2*u^2"])) == "u + 2*u^2"


def test_indeterminate_has_no_order():
    u = Indeterminate(Fraction(5))
    assert "5" in repr(u)
    with pytest.raises(TypeError):
        u < Indeterminate(Fraction(5))  # noqa: B015


# a rank-r value is a tuple of Fractions; ogroup owns its lex helpers


def test_lex_order_is_leftmost_significant():
    def less(a, b):
        return _lex_positive(tuple(y - x for x, y in zip(a, b)))

    assert less((0, 5), (1, -100))
    assert less((0, 99), (1, 0))
    assert less((1, 2), (1, 3))
    assert less((-1, 0), (0, 0))
    assert not less((2, 7), (2, 7))


def test_leading_index_and_zero():
    assert _leading_index((0, 0, 3)) == 2
    assert _leading_index((1, 0)) == 0
    assert _leading_index((0, 0)) is None
    assert not _lex_positive((0, 0))
    assert _lex_positive(_coerce_vec((0, 1), 2))
    assert _coerce_vec(Fraction(2, 3), 1) == (Fraction(2, 3),)
    with pytest.raises(ValidationError):
        _coerce_vec((1, 2), 1)


def test_order_total_on_random_pairs():
    rng = random.Random(0)

    def rand_vec(den):
        return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, den))
                     for _ in range(3))

    for _ in range(200):
        a, b = rand_vec(4), rand_vec(4)
        d = tuple(y - x for x, y in zip(a, b))
        below = _lex_positive(d)
        above = _lex_positive(tuple(-x for x in d))
        assert below + (a == b) + above == 1
        assert below == (a < b)  # tuple order is the lex order
        c = rand_vec(1)
        ac = tuple(x + z for x, z in zip(a, c))
        bc = tuple(y + z for y, z in zip(b, c))
        assert _lex_positive(tuple(y - x for x, y in zip(ac, bc))) == below
