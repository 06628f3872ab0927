"""Exact value arithmetic: rationals, infinity, precision bounds.

A rank-one value is a plain Fraction.  A value in Q^r, ordered
lexicographically with the most significant coordinate first, is a
tuple of r Fractions; ogroup holds the helpers that coerce and compare
such tuples.  The value of zero is INFINITE, which is math.inf and
compares correctly against Fraction.  An element that vanishes to
working precision has an Indeterminate value: all that is known about
it is a lower bound.

Every printed element is written here: pow_text writes a power,
term_text one term and sum_text the sum of the terms.
"""

from __future__ import annotations

import math
from fractions import Fraction

INFINITE = math.inf


def pow_text(name: str, g) -> str:
    """name^g as printed: name alone at g = 1, g in parentheses unless it
    is a nonnegative integer."""
    if g == 1:
        return name
    if getattr(g, "denominator", 1) == 1 and g >= 0:
        return "%s^%s" % (name, g)
    return "%s^(%s)" % (name, g)


def term_text(coeff: str, factors) -> str:
    """One printed term: coeff, then pow_text(name, g) for each (name, g)
    in factors with g != 0, joined by *; a coeff of 1 is dropped before a
    power."""
    powers = [pow_text(name, g) for name, g in factors if g]
    if coeff != "1" or not powers:
        powers.insert(0, coeff)
    return "*".join(powers)


def sum_text(parts) -> str:
    """Printed terms joined by +, or 0 when there are none."""
    return " + ".join(parts) or "0"


def fr(x) -> Fraction:
    """Coerce ints, strings and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError("expected an exact rational, got %r" % (x,))


class Indeterminate:
    """A value known only to be >= bound, due to finite working precision.

    Instances deliberately define no order comparisons: code that needs
    an exact value must treat an Indeterminate as a hard stop, not as a
    number.
    """

    __slots__ = ("bound",)

    def __init__(self, bound):
        self.bound = bound

    def __repr__(self):
        return "Indeterminate(>=%s)" % (self.bound,)
