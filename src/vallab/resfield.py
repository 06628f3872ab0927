"""Residue field arithmetic: F_p, F_p(u), and perfection levels F_p(u^{1/p^k}).

An element is one Laurent polynomial in the single variable w = u^{1/p^k},
where k is the field's perfection level: a sorted tuple of (exponent,
coefficient) pairs, exponents possibly negative, coefficients in 1..p-1.
All coefficient arithmetic is mod p.  Every residue the base rings
produce is such a polynomial, and every division the library makes is by
a monomial c*w^e, whose inverse is c^-1 * w^-e; any other divisor is
refused.  Coercion moves only between levels: it substitutes
w -> w^{p^(k'-k)}, so an element's data never changes meaning, only its
exponent scale.  An F_p element never meets an F_p(u) one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError, json_get, json_keys
from .intlinalg import is_prime, p_exponent
from .values import sum_text, term_text


def power(x, n: int, one):
    """x**n for n >= 0 by square-and-multiply, shared by every element class.

    Starts from x and never squares past the top bit, so x**2 costs one
    product; one() is called only for n = 0.
    """
    out = None
    while True:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if not n:
            return one() if out is None else out
        x = x * x


def _terms(d: dict, p: int) -> tuple:
    """The sorted (exponent, coefficient mod p) pairs of d, zeros dropped."""
    return tuple(sorted((e, c % p) for e, c in d.items() if c % p))


@dataclass(frozen=True)
class ResField:
    """Descriptor of a residue field.

    kind "finite": F_q with q = p^d, d >= 1 (arithmetic implemented for
    d = 1); kind "ratfun": F_p(u); kind "perflevel": F_p(u^{1/p^level}).
    The characteristic p is a prime.
    """

    char: int
    kind: str = "finite"
    q: int = None
    level: int = 0

    def __post_init__(self):
        if self.kind not in ("finite", "ratfun", "perflevel"):
            raise ValidationError("unknown residue field kind %r" % (self.kind,))
        if not is_prime(self.char):
            raise ValidationError("residue field characteristic must be a "
                                  "prime, got %r" % (self.char,))
        if self.kind == "perflevel" and self.level < 1:
            raise ValidationError("perfection level must be at least 1")
        if self.kind != "perflevel" and self.level:
            raise ValidationError("a %s residue field has no perfection "
                                  "level, got %r" % (self.kind, self.level))
        if self.kind == "finite":
            if self.q is None:
                object.__setattr__(self, "q", self.char)
            if self.q < self.char or \
                    self.char ** p_exponent(self.q, self.char) != self.q:
                raise ValidationError(
                    "finite residue field size q must be p^d with d >= 1 for "
                    "its characteristic p = %d, got q = %r" % (self.char, self.q))

    # -- structure ---------------------------------------------------------

    def is_perfect(self) -> bool:
        return self.kind == "finite"

    def has_variable(self) -> bool:
        return self.kind != "finite"

    def at_level(self, level: int) -> "ResField":
        if not self.has_variable():
            raise ValidationError("prime fields have no perfection levels")
        if level == 0:
            return ResField(self.char, "ratfun")
        return ResField(self.char, "perflevel", level=level)

    def _require_prime_arith(self):
        if self.kind == "finite" and self.q != self.char:
            raise ValidationError("arithmetic in F_q with q > p is not supported")

    # -- constructors ------------------------------------------------------

    def elem(self, x) -> "RElem":
        """An int, or a dict {w-exponent: coefficient} (exponents may be
        negative) read mod p."""
        self._require_prime_arith()
        if isinstance(x, int):
            return RElem(self, _terms({0: x}, self.char))
        if isinstance(x, dict):
            if not self.has_variable() and any(e != 0 for e in x):
                raise ValidationError("prime field element cannot involve u")
            return RElem(self, _terms(x, self.char))
        raise ValidationError("cannot build a residue element from %r" % (x,))

    def zero(self) -> "RElem":
        return self.elem(0)

    def one(self) -> "RElem":
        return self.elem(1)

    def gen(self) -> "RElem":
        """The transcendental u, expressed at this field's level."""
        if not self.has_variable():
            raise ValidationError("no transcendental in a finite field")
        return RElem(self, ((self.char ** self.level, 1),))

    def to_json(self) -> dict:
        if self.kind == "finite":
            return {"char": self.char, "kind": "finite", "q": self.q}
        if self.kind == "ratfun":
            return {"char": self.char, "kind": "ratfun"}
        return {"char": self.char, "kind": "perflevel", "level": self.level}


def resfield_from_json(d: dict) -> ResField:
    what = "residue field"
    kind = json_get(d, "kind", what)
    if kind not in ("finite", "ratfun", "perflevel"):
        raise ValidationError("unknown residue field kind %r" % (kind,))
    extra = {"finite": ("q",), "perflevel": ("level",)}.get(kind, ())
    json_keys(d, what, ("char", "kind") + extra)
    char = json_get(d, "char", what, int)
    if kind == "finite":
        return ResField(char, kind, q=json_get(d, "q", what, int, char))
    if kind == "perflevel":
        return ResField(char, kind, level=json_get(d, "level", what, int))
    return ResField(char, kind)


@dataclass(frozen=True)
class RElem:
    """The Laurent polynomial sum c * w^e over terms, the sorted (e, c)."""

    field: ResField
    terms: tuple

    # -- conversions -------------------------------------------------------

    def level(self) -> int:
        return self.field.level

    def least_level(self) -> int:
        """The least perfection level that holds this element: one level
        down while every exponent is divisible by p."""
        p, lv = self.field.char, self.level()
        exps = [e for e, _ in self.terms]
        while lv > 0 and all(e % p == 0 for e in exps):
            exps = [e // p for e in exps]
            lv -= 1
        return lv

    def at_level(self, level: int) -> "RElem":
        """Rewrite in the variable of a finer level (data scales up)."""
        lv = self.level()
        if level == lv:
            return self
        if level < lv:
            raise ValidationError("cannot coarsen a residue element")
        s = self.field.char ** (level - lv)
        return RElem(self.field.at_level(level),
                     tuple((e * s, c) for e, c in self.terms))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def _merge(self, other, sign: int) -> "RElem":
        """self + sign*other, sign = +-1, in one pass over other's terms."""
        a, b = coerce_pair(self, other)
        out = dict(a.terms)
        for e, c in b.terms:
            out[e] = out.get(e, 0) + sign * c
        return RElem(a.field, _terms(out, a.field.char))

    def __neg__(self):
        p = self.field.char
        return RElem(self.field, tuple((e, p - c) for e, c in self.terms))

    def __mul__(self, other):
        a, b = coerce_pair(self, other)
        out = {}
        for e1, c1 in a.terms:
            for e2, c2 in b.terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return RElem(a.field, _terms(out, a.field.char))

    def inverse(self) -> "RElem":
        """c^-1 * w^-e for a monomial c * w^e; other divisors are refused."""
        if len(self.terms) != 1:
            if not self.terms:
                raise ZeroDivisionError("inverting zero residue element")
            raise ValidationError("residue division needs a monomial divisor, "
                                  "got %s" % (self.to_text(),))
        (e, c), = self.terms
        p = self.field.char
        return RElem(self.field, ((-e, pow(c, p - 2, p)),))

    def __truediv__(self, other):
        a, b = coerce_pair(self, other)
        return a * b.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, lambda: self.field.one().at_level(self.level()))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.elem(other)
        if not isinstance(other, RElem):
            return NotImplemented
        a, b = coerce_pair(self, other)
        return a.terms == b.terms

    def __hash__(self):
        # hash at the least level, where elements equal across levels agree
        lv = self.least_level()
        k = self.field.char ** (self.level() - lv)
        return hash((self.field.char, lv,
                     tuple((e // k, c) for e, c in self.terms)))

    # -- characteristic-p structure -----------------------------------------

    def frobenius(self) -> "RElem":
        # over F_p, f(w)^p = f(w^p)
        p = self.field.char
        return RElem(self.field, tuple((e * p, c) for e, c in self.terms))

    def pth_root(self):
        """The unique y in the SAME field with y^p = x, or None."""
        p = self.field.char
        if all(e % p == 0 for e, _ in self.terms):
            return RElem(self.field, tuple((e // p, c) for e, c in self.terms))
        return None

    def pth_root_extend(self):
        """p-th root, promoting one perfection level when needed."""
        r = self.pth_root()
        if r is not None:
            return r
        # at level k+1 the same data reads as exponents scaled by p, so the
        # root is literally the same polynomial one level up
        return RElem(self.field.at_level(self.level() + 1), self.terms)

    # -- display -----------------------------------------------------------

    def _poly_text(self, terms) -> str:
        scale = self.field.char ** self.level()
        return sum_text(term_text(str(c), [("u", Fraction(e, scale))])
                        for e, c in terms)

    def to_text(self) -> str:
        """The polynomial; a least exponent -s < 0 prints as (u^s * x)/(u^s)."""
        s = -self.terms[0][0] if self.terms else 0
        if s <= 0:
            return self._poly_text(self.terms)
        return "(%s)/(%s)" % (self._poly_text((e + s, c) for e, c in self.terms),
                              self._poly_text(((s, 1),)))

    def __repr__(self):
        return self.to_text()


def coerce_pair(a: RElem, b) -> tuple:
    """a and b in one field: an int joins a's field, and two elements of
    F_p(u) meet at the finer of their perfection levels."""
    if isinstance(b, int):
        return a, a.field.elem(b)
    if a.field == b.field:
        return a, b
    if a.field.char != b.field.char:
        raise ValidationError("characteristic mismatch")
    if not (a.field.has_variable() and b.field.has_variable()):
        raise ValidationError("residues of F_%d and F_%d(u) do not mix"
                              % (a.field.char, a.field.char))
    lv = max(a.level(), b.level())
    return a.at_level(lv), b.at_level(lv)
