"""Base valued fields: coefficient series and twisted p-adic digit rings.

Two element models share one interface (val, residue, ring arithmetic,
restricted division), and one class, _Elem, holds what both use.  Each
model supplies its lowest determinate term, the value of a position, the
residue of a leading coefficient, and its own +, *, /, unary - and text:

* equal characteristic: exact finite sums  sum c_gamma * t^gamma  with
  residue field coefficients and exponents in a fixed rank-1 group; a
  position is the exponent gamma itself.  The Artin-Schreier relations
  rewrite every p-th power exactly, so no term is ever unknown, and a
  series divides only by a monomial c*t^g whose coefficient c is a residue
  monomial, which shifts and scales each term;
* mixed characteristic: sparse integer polynomials in a uniformizer w
  with w^E = s*p (s = +-1), so v(w) = 1/E when v(p) = 1.  An element is
  one dict {(position, u-exponent): int}; a Gauss-extended ring adjoins a
  transcendental residue u, and a plain ring is the case u-exponent = 0.
  The integers are kept uncarried; a lazy carry walk produces the reduced
  digits, {u-exponent: 1..p-1} per position, on demand, and an element
  keeps its lowest one once read.  Position k has value k/E.

Precision is a p-adic digit position: digits at position >= prec are
unknown, and the caps of products and quotients (by long division) are
computed on positions.  INFINITE prec means exact, and every series has it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

from .errors import PrecisionError, ValidationError
from .intlinalg import is_prime
from .ogroup import OGroup, contains as group_contains, ogroup
from .resfield import RElem, ResField, power
from .values import INFINITE, Indeterminate, fr

# a division of two exact elements has no cap to reach; it stops here
_MAX_DIV_STEPS = 400
# an exact element shows its digits below max(0, its lowest position) + 24
_EXACT_SHOWN = 24
# a digit-ring lead not read yet (None is the lead of an element with none)
_UNREAD = object()


def require_prime(p: int):
    if not is_prime(p):
        raise ValidationError("p must be a prime, got %r" % (p,))


class _Elem:
    """The interface both element models share.

    A model has base and prec (the class constant INFINITE for a series),
    the name _RING (for messages), and supplies _lead (the lowest
    determinate position and its coefficient, or None), _value (the value
    of a position) and _residue (of a leading coefficient), plus +, *, /,
    unary - and to_text.
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

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __pow__(self, n: int):
        """x**n by square-and-multiply; a negative n inverts x first."""
        x = self
        if n < 0:
            x, n = self.base.one() / self, -n
        return power(x, n, self.base.one)

    def __eq__(self, other):
        """Indistinguishability: no determinate term separates the two."""
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self - other)._lead() is None

    __hash__ = None  # approximate elements do not hash consistently

    def __repr__(self):
        return self.to_text()


def _pow_text(name: str, g) -> str:
    if g == 1:
        return name
    if getattr(g, "denominator", 1) == 1 and g >= 0:
        return "%s^%s" % (name, g)
    return "%s^(%s)" % (name, g)


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
        return SeriesElem(self, {})

    def one(self) -> "SeriesElem":
        return self.monomial(fr(0))

    def from_int(self, n: int) -> "SeriesElem":
        return self.monomial(fr(0), n)

    def monomial(self, gamma, coeff=1) -> "SeriesElem":
        gamma = fr(gamma)
        # 0 lies in every group
        if gamma and not group_contains(self.group, (gamma,)):
            raise ValidationError("exponent %s outside the value group" % (gamma,))
        return SeriesElem(self, {gamma: self._coeff(coeff)})


_EXPONENT = itemgetter(0)


class SeriesElem(_Elem):
    """The exact sum of c * t^g over terms = {g: c}."""

    __slots__ = ("base", "terms")
    _RING = "series ring"
    prec = INFINITE

    def __init__(self, base: EqBase, terms: dict):
        self.base = base
        self.terms = {g: c for g, c in terms.items() if not c.is_zero()}

    def is_zero(self) -> bool:
        return not self.terms

    def _lead(self):
        # the minimal (exponent, coefficient) pair: looking the coefficient
        # up by its exponent would hash a Fraction, which costs more
        return min(self.terms.items(), key=_EXPONENT) if self.terms else None

    def _value(self, g):
        return g

    def _residue(self, c) -> RElem:
        return c

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            s = out.get(g)
            out[g] = c if s is None else s + c
        return SeriesElem(self.base, out)

    def __neg__(self):
        return SeriesElem(self.base, {g: -c for g, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                g = g1 + g2
                s = out.get(g)
                out[g] = c1 * c2 if s is None else s + c1 * c2
        return SeriesElem(self.base, out)

    def __truediv__(self, other):
        """Division by a monomial c0*t^g0 whose coefficient c0 is a residue
        monomial: each term shifts by -g0 and is scaled by 1/c0."""
        other = self._coerce(other)
        if len(other.terms) != 1:
            if not other.terms:
                raise ZeroDivisionError("series division by zero")
            raise ValidationError("series division needs a monomial divisor")
        (g0, c0), = other.terms.items()
        inv = c0.inverse()
        return SeriesElem(self.base, {g - g0: c * inv for g, c in self.terms.items()})

    # -- characteristic-p structure -------------------------------------------

    def frobenius(self) -> "SeriesElem":
        p = self.base.p
        return SeriesElem(self.base, {g * p: c.frobenius()
                                      for g, c in self.terms.items()})

    # -- display ---------------------------------------------------------------

    def to_text(self) -> str:
        parts = []
        for g in sorted(self.terms):
            c = self.terms[g]
            ct = c.to_text()
            if not ct.lstrip("-").isdigit():
                ct = "(%s)" % ct
            if g == 0:
                parts.append(ct)
            elif ct == "1":
                parts.append(_pow_text("t", g))
            else:
                parts.append("%s*%s" % (ct, _pow_text("t", g)))
        return " + ".join(parts) if parts else "0"


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

    def u_elem(self, j: int = 1) -> "PadicElem":
        if not self.gauss:
            raise ValidationError("no transcendental digit in this ring")
        return self.from_digits({0: {j: 1}})


class PadicElem(_Elem):
    """The sum of c * w^k * u^e over digits = {(k, e): c}, known below position prec.

    Coefficients are arbitrary integers and are not carried; the lazy walk
    _norm_iter produces the reduced digits, each a {u-exponent: 1..p-1}
    dict, in ascending position.
    """

    __slots__ = ("base", "digits", "prec", "_first")
    _RING = "digit ring"

    def __init__(self, base: PadicBase, digits: dict, prec):
        self.base = base
        self.digits = {ke: c for ke, c in digits.items() if c and ke[0] < prec}
        self.prec = prec
        self._first = _UNREAD           # _lead, kept once read

    def _norm_iter(self):
        """Yield (position, reduced digit) ascending, carrying base p."""
        p, E, s = self.base.p, self.base.E, self.base.twist
        wd = {}
        for (k, e), c in self.digits.items():
            d = wd.setdefault(k, {})
            d[e] = d.get(e, 0) + c
        while wd:
            k = min(wd)
            if k >= self.prec:
                return
            r = {}
            for e, c in wd.pop(k).items():
                q, c = divmod(c, p)
                if q:
                    d = wd.setdefault(k + E, {})
                    d[e] = d.get(e, 0) + s * q
                if c:
                    r[e] = c
            if r:
                yield k, r

    def _lead(self):
        # digits are never changed after construction, so one walk serves
        if self._first is _UNREAD:
            self._first = next(self._norm_iter(), None)
        return self._first

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
        other = self._coerce(other)
        out = dict(self.digits)
        for ke, c in other.digits.items():
            out[ke] = out.get(ke, 0) + c
        return PadicElem(self.base, out, min(self.prec, other.prec))

    def __neg__(self):
        return PadicElem(self.base, {ke: -c for ke, c in self.digits.items()},
                         self.prec)

    def _product_prec(self, other):
        """The cap of self*other: each finite cap plus the other factor's
        lead position, which is read only when that cap is finite."""
        cap = INFINITE
        if other.prec != INFINITE:
            cap = other.prec + self._low()
        if self.prec != INFINITE:
            cap = min(cap, self.prec + other._low())
        return cap

    def __mul__(self, other):
        other = self._coerce(other)
        cap = self._product_prec(other)
        out = {}
        for (k1, e1), c1 in self.digits.items():
            for (k2, e2), c2 in other.digits.items():
                if k1 + k2 < cap:
                    ke = (k1 + k2, e1 + e2)
                    out[ke] = out.get(ke, 0) + c1 * c2
        return PadicElem(self.base, out, cap)

    def __truediv__(self, other):
        other = self._coerce(other)
        if len(other.digits) == 1 and other.prec == INFINITE:
            (k0, e0), c0 = next(iter(other.digits.items()))
            if c0 in (1, -1):
                # divisor +-w^k0 u^e0: exact shift, no digit stream to walk
                # (the quotient keeps raw digits)
                digits = {(k - k0, e - e0): c * c0
                          for (k, e), c in self.digits.items()}
                return PadicElem(self.base, digits, self.prec - k0)
        return self._divide(other)

    def _divide(self, other):
        """Long division, one leading digit of the quotient per step.

        Each step cancels the remainder's lead, so the lead rises and a
        capped operand ends the loop.  With y's lead at k0, the first step
        caps the remainder at min(x.prec, lead(x) + y.prec - k0) (the
        product cap) and later steps keep that cap.  So the quotient's
        cap, the final remainder's less k0, is
        min(x.prec - k0, lead(x) + y.prec - 2*k0), where
        d(x/y) = (dx*y - x*dy)/y^2 puts the errors of x/y.
        """
        lead = other._lead()
        if lead is None:
            if other.prec == INFINITE:
                raise ZeroDivisionError("digit division by zero")
            raise PrecisionError("division by (indistinguishable from) zero")
        k0, d0 = lead
        if len(d0) != 1:
            raise ValidationError(
                "division by a non-monomial leading digit is not supported")
        (e0, c0), = d0.items()
        p = self.base.p
        inv = pow(c0, p - 2, p)
        exact = self.prec == INFINITE and other.prec == INFINITE
        q, r, steps = {}, self, 0
        while True:
            lead = r._lead()
            if lead is None:
                return PadicElem(self.base, q, r.prec - k0)
            steps += 1
            if exact and steps > _MAX_DIV_STEPS:
                # no cap ran out: the caller must cap an operand
                raise ValidationError("exact digit division passed %d quotient "
                                      "digits; cap an operand" % _MAX_DIV_STEPS)
            k, d = lead
            term = {(k - k0, e - e0): c * inv % p for e, c in d.items()}
            q.update(term)
            r = r - PadicElem(self.base, term, INFINITE) * other

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
            dt = _digit_text(d)
            if k == 0:
                parts.append(dt)
            else:
                pw = _pow_text("w", k)
                parts.append(pw if dt == "1" else "%s*%s" % (dt, pw))
        body = " + ".join(parts) if parts else "0"
        if self.prec != INFINITE:
            return "%s + O(%s)" % (body, _pow_text("w", self.prec))
        return body + " + ..." if more else body


def _digit_text(d: dict) -> str:
    if set(d) == {0}:
        return str(d[0])
    parts = []
    for e in sorted(d):
        c = d[e]
        if e == 0:
            parts.append(str(c))
        else:
            ue = "u" if e == 1 else "u^%d" % e if e > 0 else "u^(%d)" % e
            parts.append(ue if c == 1 else "%d*%s" % (c, ue))
    return "(%s)" % " + ".join(parts)


# ---------------------------------------------------------------------------
# cyclotomic uniformizer
# ---------------------------------------------------------------------------


def zeta_lambda(base: PadicBase, prec: int) -> PadicElem:
    """lambda = zeta_p - 1 in the digit ring, to `prec` digit positions.

    The root has value 1/(p-1), so (p-1) | E and lambda = w^m * y with
    m = E/(p-1) and y a unit.  Write Phi_p(1+X) = X^(p-1) + p*h(X) with
    h(X) = sum_j (C(p, j+1)/p) X^j; since w^E = s*p, lambda is a root
    exactly when

        G(y) = s*y^(p-1) + h(w^m * y) = 0.

    Mod w this reads s*y^(p-1) + 1 = 0, which needs s = -1 for odd p and
    then has the simple root y = 1, where G'(y) = s(p-1) mod w is a unit.
    (Newton on Phi_p(1+X) itself fails Hensel's condition from one digit
    when p >= 5: v(Phi_p'(1+lambda)) = (p-2)/(p-1).)

    The lift runs in integers, in R = Z[w]/(w^E - s*p): y is the list of
    its coefficients A_r of w^r, r < E.  A_r * w^r lies in w^k R when
    p^ceil((k-r)/E) | A_r, so at precision k each A_r is kept mod that power
    (0 once r >= k); as w^k R holds a power of p, R/w^k R is the digit ring
    mod w^k, whose carried digits are unique.  Newton's step y <- y - z*G(y)
    takes y from right mod w^k to right mod w^(2k) when z = 1/G'(y) mod w^k:
    G(y) lies in w^k R, so z's error in w^k R moves the step by w^(2k) alone.
    A step first takes z there by z <- z*(2 - G'(y)*z), which divides nothing.
    """
    p, E, s = base.p, base.E, base.twist
    if E % (p - 1):
        raise ValidationError("ring cannot host zeta_%d (need (p-1) | E)" % p)
    if s != -1 and p != 2:
        raise ValidationError("ring cannot host zeta_%d (need w^E = -p)" % p)
    if prec <= E:
        # Phi_p(1+X) has the constant term p, at position E: a cap <= E
        # cannot tell lambda from 0
        raise PrecisionError(
            "lambda = zeta_%d - 1 needs a p-adic cap above %d digit positions "
            "(at least %d), got %d" % (p, E, E + 1, prec))
    if p == 2:
        return base.from_int(-2)  # zeta_2 = -1 exactly
    m, zero = E // (p - 1), [0] * (E - 1)
    # (c, t) per power y^j: G(y) = sum_j c * w^t * y^j, and dg for G'(y)
    g = [(math.comb(p, j + 1) // p, j * m) for j in range(p - 1)] + [(s, 0)]
    dg = [(j * c, t) for j, (c, t) in enumerate(g)][1:]

    def mul(a, b):  # a*b mod w^k, over the nonzero entries of a
        out = [0] * (2 * E)
        for i, x in filter(itemgetter(1), enumerate(a)):
            out[i:i + E] = [o + x * v for o, v in zip(out[i:i + E], b)]
        return [(out[r] + s * p * out[r + E]) % q for r, q in enumerate(mods)]

    def ev(poly):  # sum_j c * w^t * y^j: a[r - t], r < t, wraps times s*p
        return [sum(c * a[r - t] * (1 if r >= t else s * p)
                    for (c, t), a in zip(poly, pw)) for r in range(E)]

    y, z, k = [1] + zero, [pow(s * (p - 1), -1, p)] + zero, 1
    while k < prec - m:
        k = min(2 * k, prec - m)
        mods = [p ** -((r - k) // E) for r in range(E)]  # p^ceil((k-r)/E)
        pw = [[1] + zero] + list(accumulate([y] * (p - 1), mul))  # y^j
        z = mul(z, [2 * (r == 0) - x for r, x in enumerate(mul(ev(dg), z))])
        y = [(x - v) % q for x, v, q in zip(y, mul(z, ev(g)), mods)]
    return PadicElem(base, {(r + m, 0): a for r, a in enumerate(y)}, prec)
