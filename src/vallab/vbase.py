"""Base valued fields: coefficient series and twisted p-adic digit rings.

Two element models share one interface (val, residue, ring arithmetic,
restricted division), and one class, _Elem, holds what both use.  Each
model supplies its lowest determinate term, the value of a position, the
residue of a leading coefficient, and its own +, -, *, /, unary - and text:

* equal characteristic: exact finite sums  sum c_gamma * t^gamma  with
  residue field coefficients and exponents in a fixed rank-1 group.  An
  element keeps its exponents as integers over one positive denominator
  den, reduced so that gcd(den, every numerator) = 1: {g: c} stands for
  sum c * t^(g/den), and a position is g/den.  + and * align both sides
  to the lcm of their denominators, a quotient by a monomial shifts the
  numerators and the Frobenius multiplies them by p; Fractions appear
  only at the edges (the value, the text, the terms view and the
  constructor).  The Artin-Schreier relations rewrite every p-th power
  exactly, so no term is ever unknown, and a series divides only by a
  monomial c*t^g whose coefficient c is a residue monomial, which shifts
  and scales each term;
* mixed characteristic: sparse integer polynomials in a uniformizer w
  with w^E = s*p (s = +-1), so v(w) = 1/E when v(p) = 1.  An element is
  one dict {(position, u-exponent): int}; a Gauss-extended ring adjoins a
  transcendental residue u, and a plain ring is the case u-exponent = 0.
  The integers are folded as in Z[w]/(w^E - s*p), one per (position
  mod E, u-exponent) from the lead on.  Position k has value k/E.  _fold
  is the one definition of that form, but exact products, sums,
  negations and shifts are built in it and skip _fold.  A product's
  digit at the sum v of the leads is the product of the lead digits mod
  p, nonzero because F_p[u^+-1] is a domain, so each term at v + E or
  above moves down E positions times s*p as the convolution forms it.
  A sum folds the operand with the higher lead into the E positions from
  the lower lead, whose digit survives mod p.  A shift by +-w^k u^e
  moves each class intact.  Capped results, a sum whose equal leads
  cancel mod p and raw digits go through _fold.

Precision is a p-adic digit position: digits at position >= prec are
unknown, and the caps of products and quotients are computed on
positions.  INFINITE prec means exact, and every series has it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType

from .errors import PrecisionError, ValidationError
from .intlinalg import is_prime, p_exponent
from .ogroup import OGroup, contains as group_contains, ogroup
from .resfield import RElem, ResField, power
from .values import (INFINITE, Indeterminate, fr, pow_text, sum_text,
                     term_text)

# an exact element shows its digits below max(0, its lowest position) + 24
_EXACT_SHOWN = 24


def require_prime(p: int):
    if not is_prime(p):
        raise ValidationError("p must be a prime, got %r" % (p,))


class _Elem:
    """The interface both element models share.

    A model has base and prec (the class constant INFINITE for a series),
    the name _RING (for messages), and supplies _lead (the lowest
    determinate position and its coefficient, or None), _value (the value
    of a position) and _residue (of a leading coefficient), plus +, -, *,
    /, unary - and to_text.
    """

    __slots__ = ()

    # -- valuation data ------------------------------------------------------

    def val(self):
        lead = self._lead()
        if lead is not None:
            return self._value(lead[0])
        if self.prec == INFINITE:
            return INFINITE
        return Indeterminate(self._value(self.prec))

    def is_zero(self) -> bool:
        return self.prec == INFINITE and self._lead() is None

    def residue(self) -> RElem:
        lead = self._lead()
        if lead is None:
            raise ValidationError("residue of (indistinguishable from) zero")
        v = self._value(lead[0])
        if v != 0:
            raise ValidationError("residue requires value exactly 0, got %s" % (v,))
        return self._residue(lead[1])

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, x):
        """x in this ring: an element of the same base, or an int."""
        if isinstance(x, _Elem):
            if x.base is not self.base and x.base != self.base:
                raise ValidationError("mixed %ss" % self._RING)
            return x
        if isinstance(x, int):
            return self.base.from_int(x)
        raise ValidationError("cannot coerce %r into the %s" % (x, self._RING))

    def __pow__(self, n: int):
        """x**n by square-and-multiply; a negative n inverts x first."""
        x = self
        if n < 0:
            x, n = self.base.one() / self, -n
        return power(x, n, self.base.one)

    def __eq__(self, other):
        """Indistinguishability: no determinate term separates the two."""
        if isinstance(other, int):
            other = self.base.from_int(other)
        elif not isinstance(other, type(self)):
            return NotImplemented
        return (self - other)._lead() is None

    __hash__ = None  # approximate elements do not hash consistently

    def __repr__(self):
        return self.to_text()


# ---------------------------------------------------------------------------
# equal characteristic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqBase:
    """F((t^Gamma)) with residue field F and exponent group Gamma."""

    p: int
    res: ResField
    group: OGroup

    def __post_init__(self):
        require_prime(self.p)
        if self.group.rank != 1:
            raise ValidationError("series exponent group must have rank 1")
        if self.res.char != self.p:
            raise ValidationError("residue characteristic mismatch")

    @property
    def eq_char(self) -> bool:
        return True

    @property
    def value_group(self) -> OGroup:
        return self.group

    @property
    def residue_field(self) -> ResField:
        return self.res

    def _coeff(self, c) -> RElem:
        if isinstance(c, RElem):
            return c
        return self.res.elem(c)

    def zero(self) -> "SeriesElem":
        return _series(self, 1, {})

    def one(self) -> "SeriesElem":
        return self.from_int(1)

    def from_int(self, n: int) -> "SeriesElem":
        return _series(self, 1, {0: self._coeff(n)})

    def series(self, terms) -> "SeriesElem":
        """The sum c * t^g over the (g, c) pairs in terms, whose exponents
        are distinct; the group is checked to hold them all."""
        terms = [(fr(g), self._coeff(c)) for g, c in terms]
        den, nums = _over_lcm(terms)
        # the exponents g/den generate Z n/den, n = gcd(nums), so they all
        # lie in the group exactly when n/den does (0 lies in every group);
        # only a failed test looks for the first exponent outside it
        n = gcd(*nums)
        if n and not group_contains(
                self.group,
                (terms[0][0] if len(terms) == 1 else Fraction(n, den),)):
            g = next(g for g, _ in terms
                     if not group_contains(self.group, (g,)))
            raise ValidationError("exponent %s outside the value group" % (g,))
        return _series(self, den, nums)

    def monomial(self, gamma, coeff=1) -> "SeriesElem":
        return self.series([(gamma, coeff)])


class SeriesElem(_Elem):
    """The exact sum of c * t^(g/den) over nums = {g: c}.

    den is positive and reduced, gcd(den, every g) = 1, so it is the least
    common denominator of the exponents (1 for zero).  The constructor
    takes {exponent: coefficient} with rational exponents; terms reads
    them back.
    """

    __slots__ = ("base", "den", "nums")
    _RING = "series ring"
    prec = INFINITE

    def __init__(self, base: EqBase, terms: dict):
        self._set(base, *_over_lcm(terms.items()))

    def _set(self, base: EqBase, den: int, nums: dict):
        """Keep the nonzero terms of nums over den, den reduced."""
        nums = {g: c for g, c in nums.items() if not c.is_zero()}
        r = gcd(den, *nums)
        if r != 1:
            den //= r
            nums = {g // r: c for g, c in nums.items()}
        self.base, self.den, self.nums = base, den, nums

    @property
    def terms(self):
        """{exponent: coefficient}, read-only, the exponents as Fractions."""
        den = self.den
        return MappingProxyType({Fraction(g, den): c
                                 for g, c in self.nums.items()})

    def is_zero(self) -> bool:
        return not self.nums

    def _lead(self):
        if not self.nums:
            return None
        g = min(self.nums)
        return g, self.nums[g]

    def _value(self, g):
        return Fraction(g, self.den)

    def _residue(self, c) -> RElem:
        return c

    def _over(self, den: int) -> dict:
        """nums over den, a multiple of self.den (nums itself at den)."""
        if den == self.den:
            return self.nums
        s = den // self.den
        return {g * s: c for g, c in self.nums.items()}

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def _merge(self, other, sub: bool):
        """self + other, or self - other when sub, in one pass over other."""
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        out = dict(self._over(den))
        for g, c in other._over(den).items():
            s = out.get(g)
            if s is None:
                out[g] = -c if sub else c
            else:
                out[g] = s - c if sub else s + c
        return _series(self.base, den, out)

    def __neg__(self):
        return _series(self.base, self.den,
                       {g: -c for g, c in self.nums.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        out, terms = {}, other._over(den).items()
        for g1, c1 in self._over(den).items():
            for g2, c2 in terms:
                g = g1 + g2
                s = out.get(g)
                out[g] = c1 * c2 if s is None else s + c1 * c2
        return _series(self.base, den, out)

    def __truediv__(self, other):
        """Division by a monomial c0*t^g0 whose coefficient c0 is a residue
        monomial: each term shifts by -g0 and is scaled by 1/c0."""
        other = self._coerce(other)
        if len(other.nums) != 1:
            if not other.nums:
                raise ZeroDivisionError("series division by zero")
            raise ValidationError("series division needs a monomial divisor")
        den = lcm(self.den, other.den)
        (g0, c0), = other._over(den).items()
        inv = c0.inverse()
        return _series(self.base, den, {g - g0: c * inv
                                        for g, c in self._over(den).items()})

    # -- characteristic-p structure -------------------------------------------

    def frobenius(self) -> "SeriesElem":
        p = self.base.p
        return _series(self.base, self.den, {g * p: c.frobenius()
                                             for g, c in self.nums.items()})

    # -- display ---------------------------------------------------------------

    def to_text(self) -> str:
        parts = []
        for g in sorted(self.nums):
            ct = self.nums[g].to_text()
            if not ct.lstrip("-").isdigit():
                ct = "(%s)" % ct
            parts.append(term_text(ct, [("t", Fraction(g, self.den))]))
        return sum_text(parts)


def _over_lcm(terms):
    """(den, nums) for (rational exponent, coefficient) pairs: den is the
    exponents' least common denominator, nums {numerator over den: c}."""
    terms = [(fr(g), c) for g, c in terms]
    den = lcm(*(g.denominator for g, _ in terms))
    return den, {g.numerator * (den // g.denominator): c for g, c in terms}


def _series(base: EqBase, den: int, nums: dict) -> SeriesElem:
    """The series sum c * t^(g/den) over nums {g: c}, any positive den."""
    x = SeriesElem.__new__(SeriesElem)
    x._set(base, den, nums)
    return x


# ---------------------------------------------------------------------------
# mixed characteristic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PadicBase:
    """Digit ring in w with w^E = twist * p, normalized so v(p) = 1.

    Elements are integer polynomials in w and u.  gauss=True adjoins a
    transcendental residue u (Laurent exponents allowed); a plain ring is
    the case where every u-exponent is 0.
    """

    p: int
    E: int
    twist: int = 1
    gauss: bool = False

    def __post_init__(self):
        require_prime(self.p)
        if self.twist not in (1, -1):
            raise ValidationError("twist must be +1 or -1")
        if self.E < 1:
            raise ValidationError("ramification exponent must be positive")

    @property
    def eq_char(self) -> bool:
        return False

    # built once per base: every residue reads the residue field
    @cached_property
    def value_group(self) -> OGroup:
        return ogroup([Fraction(1, self.E)])

    @cached_property
    def residue_field(self) -> ResField:
        return ResField(self.p, "ratfun") if self.gauss else ResField(self.p)

    def _as_digit(self, c) -> dict:
        """One position's digit (int or {u-exponent: int}) as a dict."""
        if isinstance(c, int):
            c = {0: c}
        elif not isinstance(c, dict):
            raise ValidationError("a digit is an int or a {u-exponent: int}, "
                                  "got %r" % (c,))
        d = {e: int(x) for e, x in c.items() if int(x)}
        if not self.gauss and any(e != 0 for e in d):
            raise ValidationError("polynomial digits need a Gauss ring")
        return d

    def zero(self, prec=INFINITE) -> "PadicElem":
        return PadicElem(self, {}, prec)

    def one(self) -> "PadicElem":
        return self.from_int(1)

    def from_int(self, n: int) -> "PadicElem":
        return PadicElem(self, {(0, 0): n}, INFINITE)

    def from_digits(self, digits: dict, prec=INFINITE) -> "PadicElem":
        """{position: digit}, each digit an int or a {u-exponent: int}."""
        terms = {(int(k), e): x for k, c in digits.items()
                 for e, x in self._as_digit(c).items()}
        return PadicElem(self, terms, prec)

    def monomial(self, value, coeff=1) -> "PadicElem":
        value = fr(value)
        pos = value * self.E
        if pos.denominator != 1:
            raise ValidationError("value %s outside the value group" % (value,))
        return self.from_digits({int(pos): coeff})

    def u_elem(self) -> "PadicElem":
        if not self.gauss:
            raise ValidationError("no transcendental digit in this ring")
        return self.from_digits({0: {1: 1}})


class PadicElem(_Elem):
    """The sum of c * w^k * u^e over digits = {(k, e): c}, known below position prec.

    The integers are kept as _fold leaves them; arithmetic, the value and
    the lead digit read them, and only to_text walks their carries
    (_norm_iter) to the reduced digits {u-exponent: 1..p-1}.  The
    constructor folds; an exact product, sum, negation or shift is built
    in that form already (_product, _sum, _shift): the product of two lead
    digits is nonzero mod p, and the lower lead of a sum survives.
    """

    __slots__ = ("base", "digits", "prec")
    _RING = "digit ring"

    def __init__(self, base: PadicBase, digits: dict, prec):
        self.base = base
        self.digits = _fold(base, digits, prec)
        self.prec = prec

    def _norm_iter(self):
        """Yield (position, reduced digit) ascending: each integer's digits
        base s*p, every E-th position from its own (no carry meets another)."""
        p, E, s = self.base.p, self.base.E, self.base.twist
        wd = dict(self.digits)
        while wd and min(wd)[0] < self.prec:
            k, r = min(wd)[0], {}
            for e in [e for kk, e in wd if kk == k]:
                q, r[e] = divmod(wd.pop((k, e)), p)
                if q:
                    wd[k + E, e] = s * q
            if any(r.values()):
                yield k, {e: c for e, c in r.items() if c}

    def _lead(self):
        """The lowest reduced digit: the folded integers start at the lead
        position, and those there that p does not divide are its digit."""
        if not self.digits:
            return None
        low, p = min(self.digits)[0], self.base.p
        return low, {e: c % p for (k, e), c in self.digits.items()
                     if k == low and c % p}

    def _value(self, k):
        return Fraction(k, self.base.E)

    def _residue(self, d) -> RElem:
        return self.base.residue_field.elem(d)

    def _low(self):
        """The lead position, or the cap when no digit below it is known."""
        lead = self._lead()
        return self.prec if lead is None else lead[0]

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        return _sum(self, self._coerce(other), 1)

    def __sub__(self, other):
        return _sum(self, self._coerce(other), -1)

    def __neg__(self):
        return _shift(self, 0, 0, -1)

    def __mul__(self, other):
        # capped at each finite cap plus the other factor's lead, read only then
        other = self._coerce(other)
        cap = INFINITE
        if other.prec != INFINITE:
            cap = other.prec + self._low()
        if self.prec != INFINITE:
            cap = min(cap, self.prec + other._low())
        return _product(self, other, cap)

    def __truediv__(self, other):
        other = self._coerce(other)
        if len(other.digits) == 1 and other.prec == INFINITE:
            (k0, e0), c0 = next(iter(other.digits.items()))
            if c0 in (1, -1):
                # +-w^k0 u^e0 (so also +-p^j w^k u^e, once folded): a shift
                return _shift(self, -k0, -e0, c0)
        return self._divide(other)

    def _divide(self, other):
        """x * (1/Y) / (w^k0 u^e0), Y the unit y / (w^k0 u^e0), capped where
        d(x/y) = (dx*y - x*dy)/y^2 puts its errors, at
        min(x.prec - k0, lead(x) + y.prec - 2*k0); exact / exact has none."""
        lead = other._lead()
        if lead is None:
            if other.prec == INFINITE:
                raise ZeroDivisionError("digit division by zero")
            raise PrecisionError("division by (indistinguishable from) zero")
        k0, d0 = lead
        if len(d0) != 1:
            raise ValidationError(
                "division by a non-monomial leading digit is not supported")
        (e0, _), = d0.items()
        low = self._low()
        cap = min(self.prec - k0, low + other.prec - 2 * k0)
        if low == self.prec:
            return PadicElem(self.base, {}, cap)
        if cap == INFINITE:
            raise ValidationError(
                "an exact digit division by anything but +-p^j w^k u^e has "
                "no cap to reach; cap an operand")
        inv = _inverse(_shift(other, -k0, -e0, 1), cap + k0 - low)
        return _shift(_product(self, inv, cap + k0), -k0, -e0, 1)

    # -- display ------------------------------------------------------------------

    def to_text(self) -> str:
        """Every digit below a finite cap, then + O(w^prec).  An exact
        element's carried digits can go on forever (-1 when w^E = +p), so
        it prints those below the _EXACT_SHOWN bound, then + ... if more."""
        cap = self.prec
        if cap == INFINITE:
            floor = min((k for k, _ in self.digits), default=0)
            cap = max(0, floor) + _EXACT_SHOWN
        parts, more = [], False
        for k, d in self._norm_iter():
            if k >= cap:
                more = True
                break
            parts.append(term_text(_digit_text(d), [("w", k)]))
        body = sum_text(parts)
        if self.prec != INFINITE:
            return "%s + O(%s)" % (body, pow_text("w", self.prec))
        return body + " + ..." if more else body


def _digit_text(d: dict) -> str:
    if set(d) == {0}:
        return str(d[0])
    return "(%s)" % sum_text(term_text(str(d[e]), [("u", e)])
                             for e in sorted(d))


def _fold(base: PadicBase, digits: dict, prec) -> dict:
    """{(k, e): c} for sum c * w^k * u^e below prec, k in the E positions
    from the lead.  c * w^k = c * (s*p)^j * w^(k - jE) moves each term to
    the E positions from the least, v; a capped c at k is kept mod
    p^ceil((prec - k)/E); and if p divides every c at v, the terms move up
    to the E positions from the lead, the least k + E*v_p(c)."""
    p, E, sp = base.p, base.E, base.twist * base.p
    out = {ke: c for ke, c in digits.items() if c and ke[0] < prec}
    if not out:
        return out
    v = min(out)[0]
    if len(out) > 1 and max(out)[0] >= v + E:
        for (k, e), c in [kc for kc in out.items() if kc[0][0] >= v + E]:
            del out[k, e]
            j = (k - v) // E
            out[k - j * E, e] = out.get((k - j * E, e), 0) + c * sp ** j
        if prec == INFINITE and 0 in out.values():
            out = {ke: c for ke, c in out.items() if c}
    if prec != INFINITE:
        out = {(k, e): r for (k, e), c in out.items()
               if (r := c % p ** -((k - prec) // E))}
    if not out or out.get((v, 0), 0) % p or \
            any(c % p for (k, _), c in out.items() if k == v):
        return out
    low = min(k + E * p_exponent(c, p) for (k, _), c in out.items())
    return _fold(base, {(k - (k - low) // E * E, e): c // sp ** -((k - low) // E)
                        for (k, e), c in out.items()}, prec)


def _folded(base: PadicBase, digits: dict) -> PadicElem:
    """The exact element of digits, which are already in _fold's form."""
    x = PadicElem.__new__(PadicElem)
    x.base, x.digits, x.prec = base, digits, INFINITE
    return x


def _shift(x: PadicElem, k: int, e: int, c: int) -> PadicElem:
    """c * w^k * u^e * x for c = +-1: each term moves and is scaled.  An
    exact x stays folded, each (position mod E, u-exponent) class intact."""
    digits = {(k1 + k, e1 + e): c * c1 for (k1, e1), c1 in x.digits.items()}
    if x.prec == INFINITE:
        return _folded(x.base, digits)
    return PadicElem(x.base, digits, x.prec + k)


def _sum(x: PadicElem, y: PadicElem, sign: int) -> PadicElem:
    """x + sign*y, sign = +-1.  An exact sum folds the operand with the
    higher lead into the E positions from the lower lead v; each term moved
    there gains a factor (s*p)^j, so the lower lead's digit survives mod p.
    With equal leads the sum is folded unless p divides every integer at
    v; then, like every capped sum, it goes through _fold."""
    if x.prec != INFINITE or y.prec != INFINITE:
        out = dict(x.digits)
        for ke, c in y.digits.items():
            out[ke] = out.get(ke, 0) + sign * c
        return PadicElem(x.base, out, min(x.prec, y.prec))
    if not y.digits:
        return x
    if not x.digits:
        return y if sign == 1 else _shift(y, 0, 0, -1)
    vx, vy = min(x.digits)[0], min(y.digits)[0]
    if vx <= vy:
        v, out, hi, s = vx, dict(x.digits), y.digits, sign
    else:
        v, out, hi, s = vy, {ke: sign * c for ke, c in y.digits.items()}, \
            x.digits, 1
    E, sp = x.base.E, x.base.twist * x.base.p
    for (k, e), c in hi.items():
        j = (k - v) // E
        if j:
            k, c = k - j * E, c * sp ** j
        out[k, e] = out.get((k, e), 0) + s * c
    out = {ke: c for ke, c in out.items() if c}
    if vx != vy or any(c % x.base.p for (k, _), c in out.items() if k == v):
        return _folded(x.base, out)
    return PadicElem(x.base, out, INFINITE)


def _product(x: PadicElem, y: PadicElem, cap) -> PadicElem:
    """x*y below position cap: the convolution.  A capped one is folded by
    the constructor.  An exact one is built folded: each term at position
    v + E or above (v = the sum of the leads) moves down E positions times
    s*p, and the digit at v is the product of the lead digits mod p, which
    is nonzero because F_p[u^+-1] is a domain."""
    out, terms = {}, y.digits.items()
    if cap != INFINITE:
        # its own loop: a fold test per term costs the capped lifts ~20 %
        for (k1, e1), c1 in x.digits.items():
            for (k2, e2), c2 in terms:
                ke = k1 + k2, e1 + e2
                out[ke] = out.get(ke, 0) + c1 * c2
        return PadicElem(x.base, out, cap)
    if not x.digits or not y.digits:
        return _folded(x.base, out)
    E, sp = x.base.E, x.base.twist * x.base.p
    top = min(x.digits)[0] + min(y.digits)[0] + E
    for (k1, e1), c1 in x.digits.items():
        for (k2, e2), c2 in terms:
            k, e, c = k1 + k2, e1 + e2, c1 * c2
            if k >= top:
                k, c = k - E, c * sp
            out[k, e] = out.get((k, e), 0) + c
    return _folded(x.base, {ke: c for ke, c in out.items() if c})


def _inverse(y: PadicElem, n: int) -> PadicElem:
    """1/y below position n, for y with an integer lead digit c0 at 0:
    z = 1/c0 mod p, then z <- z*(2 - y*z) squares 1 - y*z, dividing nothing."""
    z, k = PadicElem(y.base, {(0, 0): pow(y._lead()[1][0], -1, y.base.p)}, 1), 1
    while k < n:
        k = min(2 * k, n)
        z = _product(z, -_product(y, z, k) + 2, k)
    return z


# ---------------------------------------------------------------------------
# cyclotomic uniformizer
# ---------------------------------------------------------------------------


def zeta_lambda(base: PadicBase, prec: int) -> PadicElem:
    """lambda = zeta_p - 1 in the digit ring, below a finite cap `prec`.

    lambda has value 1/(p-1), so (p-1) | E, and pi = w^m, m = E/(p-1),
    has pi^(p-1) = w^E = s*p, which must be -p at odd p.  Then Dwork's
    theta(X) = exp(pi*(X - X^p)) = sum b_n pi^n X^n has theta(1) = zeta_p,
    the root with lambda = w^m mod w^(m+1).  theta' = pi(1 - p X^(p-1))
    theta gives n b_n = b_(n-1) + b_(n-p).  With v = v_p(n!), the
    digit d_n = b_n (-p)^v is a p-adic integer at position m*s_p(n)
    (s_p the base-p digit sum), and writing n = p^a n', c = v_p of the
    multiple of p in (n-p, n]: n' d_n = (-1)^a (d_(n-1) + (-p)^(c-a)
    d_(n-p)).  Dwork's v_p(b_n pi^n) >= n(p-1)/p^2 puts every n >= N =
    ceil(prec p^2/((p-1)E)) at or above the cap, and every position is at
    least m, so the d_n are kept mod p^ceil((prec - m)/E).
    """
    p, E, s = base.p, base.E, base.twist
    m, r = divmod(E, p - 1)
    if r:
        raise ValidationError("ring cannot host zeta_%d (need (p-1) | E)" % p)
    if s != -1 and p != 2:
        raise ValidationError("ring cannot host zeta_%d (need w^E = -p)" % p)
    if prec <= E:
        # Phi_p(1+X) has the constant term p, at position E: a cap <= E
        # cannot tell lambda from 0
        raise PrecisionError(
            "lambda = zeta_%d - 1 needs a p-adic cap above %d digit positions "
            "(at least %d), got %d" % (p, E, E + 1, prec))
    if prec == INFINITE and p != 2:
        raise ValidationError(
            "lambda = zeta_%d - 1 needs a finite p-adic cap" % p)
    if p == 2:
        return base.from_int(-2)  # zeta_2 = -1 exactly
    mod = p ** -((m - prec) // E)
    digits, back, d, ds, c = {}, deque([1]), 1, 0, 1  # d_0 = 1, s_p(0) = 0
    for n in range(1, -(-prec * p * p // ((p - 1) * E))):
        old = back.popleft() if len(back) == p else 0  # d_(n-p)
        q, a = n, 0
        while q % p == 0:
            q, a = q // p, a + 1
        c, ds = a or c, ds + 1 - (p - 1) * a  # c: v_p(last multiple of p)
        d = (-1) ** a * (d + (-p) ** (c - a) * old) * pow(q, -1, mod) % mod
        back.append(d)
        if m * ds < prec:
            digits[m * ds, 0] = digits.get((m * ds, 0), 0) + d
    return PadicElem(base, digits, prec)
