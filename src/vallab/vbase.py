"""Base valued fields: coefficient series and twisted p-adic digit rings.

Two element models share one interface (val, residue, ring arithmetic,
restricted division):

* equal characteristic: finite sums  sum c_gamma * t^gamma  with residue
  field coefficients and exponents in a fixed rank-1 group;
* mixed characteristic: sparse integer polynomials in a uniformizer w
  with w^E = s*p (s = +-1), so v(w) = 1/E when v(p) = 1.  An element is
  one dict {(position, u-exponent): int}; a Gauss-extended ring adjoins a
  transcendental residue u, and a plain ring is the case u-exponent = 0.
  The integers are kept uncarried; a lazy carry walk produces the reduced
  digits, {u-exponent: 1..p-1} per position, on demand.

Precision is a position bound: coefficients at value >= prec (series) or
digit position >= prec (p-adic) are unknown.  INFINITE prec means exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionError, ValidationError
from .intlinalg import is_prime
from .ogroup import OGroup, contains as group_contains, ogroup
from .resfield import RElem, ResField, power
from .values import INFINITE, Indeterminate, fr

# a division of two exact elements has no target position; it stops here
_MAX_DIV_STEPS = 400
# an exact element shows its digits below max(0, its lowest position) + 24
_EXACT_SHOWN = 24


def require_prime(p: int):
    if not is_prime(p):
        raise ValidationError("p must be a prime, got %r" % (p,))


def _power(x, n: int):
    """x**n by square-and-multiply; a negative n inverts x first."""
    if n < 0:
        x, n = x.base.one() / x, -n
    return power(x, n, x.base.one)


# ---------------------------------------------------------------------------
# equal characteristic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqBase:
    """F((t^Gamma)) with residue field F and exponent group Gamma."""

    p: int
    res: ResField
    group: OGroup
    name: str = "t"

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

    def zero(self, prec=INFINITE) -> "SeriesElem":
        return SeriesElem(self, {}, prec)

    def one(self) -> "SeriesElem":
        return self.monomial(fr(0))

    def from_int(self, n: int) -> "SeriesElem":
        return self.monomial(fr(0), n)

    def monomial(self, gamma, coeff=1) -> "SeriesElem":
        gamma = fr(gamma)
        if not group_contains(self.group, (gamma,)):
            raise ValidationError("exponent %s outside the value group" % (gamma,))
        c = self._coeff(coeff)
        return SeriesElem(self, {gamma: c} if not c.is_zero() else {}, INFINITE)

    def series(self, terms: dict, prec=INFINITE) -> "SeriesElem":
        out = {}
        for g, c in terms.items():
            g = fr(g)
            c = self._coeff(c)
            if not c.is_zero() and (prec == INFINITE or g < prec):
                out[g] = c
        return SeriesElem(self, out, prec)


class SeriesElem:
    __slots__ = ("base", "terms", "prec")

    def __init__(self, base: EqBase, terms: dict, prec):
        self.base = base
        self.terms = {g: c for g, c in terms.items()
                      if not c.is_zero() and (prec == INFINITE or g < prec)}
        self.prec = prec

    # -- valuation data ------------------------------------------------------

    def val(self):
        if self.terms:
            return min(self.terms)
        if self.prec == INFINITE:
            return INFINITE
        return Indeterminate(self.prec)

    def is_zero(self) -> bool:
        return not self.terms and self.prec == INFINITE

    def residue(self) -> RElem:
        v = self.val()
        if v == INFINITE or isinstance(v, Indeterminate):
            raise ValidationError("residue of (indistinguishable from) zero")
        if v != 0:
            raise ValidationError("residue requires value exactly 0, got %s" % (v,))
        return self.terms[fr(0)]

    # -- arithmetic ----------------------------------------------------------

    def _binop_prec(self, other):
        return min(self.prec, other.prec)

    def __add__(self, other):
        other = _as_series(self.base, other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            s = out.get(g, self.base.res.zero()) + c
            if s.is_zero():
                out.pop(g, None)
            else:
                out[g] = s
        return SeriesElem(self.base, out, self._binop_prec(other))

    def __neg__(self):
        return SeriesElem(self.base, {g: -c for g, c in self.terms.items()}, self.prec)

    def __sub__(self, other):
        return self + (-_as_series(self.base, other))

    def __mul__(self, other):
        other = _as_series(self.base, other)
        prec = _prec_of_product(self, self.prec, other, other.prec)
        out = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                g = g1 + g2
                if prec != INFINITE and g >= prec:
                    continue
                s = out.get(g, self.base.res.zero()) + c1 * c2
                if s.is_zero():
                    out.pop(g, None)
                else:
                    out[g] = s
        return SeriesElem(self.base, out, prec)

    def __pow__(self, n: int):
        return _power(self, n)

    def __truediv__(self, other):
        other = _as_series(self.base, other)
        vy = other.val()
        if isinstance(vy, Indeterminate) or vy == INFINITE:
            raise PrecisionError("division by (indistinguishable from) zero")
        target = _prec_of_quotient(self.val(), self.prec, vy, other.prec)
        q = {}
        r = self
        steps = 0
        while True:
            vr = r.val()
            if vr == INFINITE:
                return SeriesElem(self.base, q, target)
            if isinstance(vr, Indeterminate):
                return SeriesElem(self.base, q, min(target, vr.bound - vy))
            if target != INFINITE and vr - vy >= target:
                return SeriesElem(self.base, q, target)
            steps += 1
            if target == INFINITE and steps > _MAX_DIV_STEPS:
                raise PrecisionError("exact series division passed %d quotient "
                                     "terms; cap an operand" % _MAX_DIV_STEPS)
            cq = r.terms[vr] / other.terms[vy]
            q[vr - vy] = cq
            r = r - SeriesElem(self.base, {vr - vy: cq}, INFINITE) * other

    def __eq__(self, other):
        """Indistinguishability: no determinate term separates the two."""
        if not isinstance(other, SeriesElem):
            return NotImplemented
        return not (self - other).terms

    __hash__ = None  # approximate elements do not hash consistently

    # -- characteristic-p structure -------------------------------------------

    def pth_root(self) -> "SeriesElem":
        """Termwise p-th root; coefficients may climb one perfection level."""
        p = self.base.p
        terms = {g / p: c.pth_root_extend() for g, c in self.terms.items()}
        prec = INFINITE if self.prec == INFINITE else self.prec / p
        return SeriesElem(self.base, terms, prec)

    def frobenius(self) -> "SeriesElem":
        p = self.base.p
        terms = {g * p: c.frobenius() for g, c in self.terms.items()}
        prec = INFINITE if self.prec == INFINITE else self.prec * p
        return SeriesElem(self.base, terms, prec)

    # -- display ---------------------------------------------------------------

    def to_text(self) -> str:
        name = self.base.name
        parts = []
        for g in sorted(self.terms):
            c = self.terms[g]
            ct = c.to_text()
            if not ct.lstrip("-").isdigit():
                ct = "(%s)" % ct
            if g == 0:
                parts.append(ct)
            elif ct == "1":
                parts.append(_pow_text(name, g))
            else:
                parts.append("%s*%s" % (ct, _pow_text(name, g)))
        body = " + ".join(parts) if parts else "0"
        if self.prec == INFINITE:
            return body
        return "%s + O(%s)" % (body, _pow_text(name, self.prec))

    def __repr__(self):
        return self.to_text()


def _pow_text(name: str, g) -> str:
    if g == 1:
        return name
    if getattr(g, "denominator", 1) == 1 and g >= 0:
        return "%s^%s" % (name, g)
    return "%s^(%s)" % (name, g)


def _as_series(base: EqBase, x) -> SeriesElem:
    if isinstance(x, SeriesElem):
        return x
    if isinstance(x, int):
        return base.from_int(x)
    if isinstance(x, RElem):
        return base.monomial(fr(0), x)
    raise ValidationError("cannot coerce %r into the series ring" % (x,))


def _prec_of_product(a, pa, b, pb):
    """Precision of a*b: each factor's cap plus the other factor's value.

    A factor's value is read only when the other factor is capped.
    """
    terms = []
    for cap, x in ((pb, a), (pa, b)):
        if cap != INFINITE:
            v = x.val()
            terms.append(cap + (v.bound if isinstance(v, Indeterminate) else v))
    return min(terms, default=INFINITE)


def _prec_of_quotient(va, pa, vy, py):
    # x/y: d(x/y) = (dx*y - x*dy)/y^2 -> error terms at pa - vy and va + py - 2vy
    terms = []
    if pa != INFINITE:
        terms.append(pa - vy)
    if py != INFINITE:
        v = va.bound if isinstance(va, Indeterminate) else va
        if v != INFINITE:
            terms.append(v + py - 2 * vy)
    return min(terms) if terms else INFINITE


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
    name: str = "w"

    def __post_init__(self):
        require_prime(self.p)
        if self.twist not in (1, -1):
            raise ValidationError("twist must be +1 or -1")
        if self.E < 1:
            raise ValidationError("ramification exponent must be positive")

    @property
    def eq_char(self) -> bool:
        return False

    @property
    def value_group(self) -> OGroup:
        return ogroup([Fraction(1, self.E)])

    @property
    def residue_field(self) -> ResField:
        return ResField(self.p, "ratfun") if self.gauss else ResField(self.p)

    def _as_digit(self, c) -> dict:
        """One position's digit (int, {u-exponent: int} or RElem) as a dict."""
        if isinstance(c, RElem):
            c = _relem_to_digit(c)
        elif isinstance(c, int):
            c = {0: c}
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
        """{position: digit}, each digit an int, a {u-exponent: int} or an RElem."""
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


def _relem_to_digit(r: RElem) -> dict:
    """A residue field element as a digit lift (ints mod p, monomial dens)."""
    den = dict(r.den)
    if list(den.values()) != [1] or len(den) != 1:
        raise ValidationError("only monomial-denominator residues lift to digits")
    if r.level() != 0:
        raise ValidationError("residue lift must live at perfection level 0")
    shift, = den
    return {e - shift: c for e, c in r.num}


class PadicElem:
    """The sum of c * w^k * u^e over digits = {(k, e): c}, known below position prec.

    Coefficients are arbitrary integers and are not carried; the lazy walk
    _norm_iter produces the reduced digits, each a {u-exponent: 1..p-1}
    dict, in ascending position.
    """

    __slots__ = ("base", "digits", "prec")

    def __init__(self, base: PadicBase, digits: dict, prec):
        self.base = base
        self.digits = {ke: c for ke, c in digits.items() if c and ke[0] < prec}
        self.prec = prec

    # -- normalization -------------------------------------------------------

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

    def _first(self):
        for k, d in self._norm_iter():
            return k, d
        return None

    # -- valuation data --------------------------------------------------------

    def val(self):
        first = self._first()
        if first is not None:
            return Fraction(first[0], self.base.E)
        if self.prec == INFINITE:
            return INFINITE
        return Indeterminate(Fraction(self.prec, self.base.E))

    def is_zero(self) -> bool:
        return self.prec == INFINITE and self._first() is None

    def residue(self) -> RElem:
        v = self.val()
        if v == INFINITE or isinstance(v, Indeterminate):
            raise ValidationError("residue of (indistinguishable from) zero")
        if v != 0:
            raise ValidationError("residue requires value exactly 0, got %s" % (v,))
        return self.base.residue_field.elem(self._first()[1])

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        other = _as_padic(self.base, other)
        out = dict(self.digits)
        for ke, c in other.digits.items():
            out[ke] = out.get(ke, 0) + c
        return PadicElem(self.base, out, min(self.prec, other.prec))

    def __neg__(self):
        return PadicElem(self.base, {ke: -c for ke, c in self.digits.items()},
                         self.prec)

    def __sub__(self, other):
        return self + (-_as_padic(self.base, other))

    def __mul__(self, other):
        other = _as_padic(self.base, other)
        E = self.base.E
        pa = INFINITE if self.prec == INFINITE else Fraction(self.prec, E)
        pb = INFINITE if other.prec == INFINITE else Fraction(other.prec, E)
        prec = _prec_of_product(self, pa, other, pb)
        pos_cap = INFINITE if prec == INFINITE else math.ceil(prec * E)
        out = {}
        for (k1, e1), c1 in self.digits.items():
            for (k2, e2), c2 in other.digits.items():
                if k1 + k2 < pos_cap:
                    ke = (k1 + k2, e1 + e2)
                    out[ke] = out.get(ke, 0) + c1 * c2
        return PadicElem(self.base, out, pos_cap)

    def __pow__(self, n: int):
        return _power(self, n)

    def __truediv__(self, other):
        other = _as_padic(self.base, other)
        p, E = self.base.p, self.base.E
        if len(other.digits) == 1 and other.prec == INFINITE:
            (k0, e0), c0 = next(iter(other.digits.items()))
            if c0 in (1, -1):
                # divisor +-w^k0 u^e0: exact shift, no digit stream to walk
                # (the quotient keeps raw digits)
                digits = {(k - k0, e - e0): c * c0
                          for (k, e), c in self.digits.items()}
                return PadicElem(self.base, digits, self.prec - k0)
        lead = other._first()
        if lead is None:
            raise PrecisionError("division by (indistinguishable from) zero")
        k0, d0 = lead
        if len(d0) != 1:
            raise ValidationError(
                "division by a non-monomial leading digit is not supported")
        (e0, c0), = d0.items()
        inv = pow(c0, p - 2, p)
        va = self.val()
        pa = INFINITE if self.prec == INFINITE else Fraction(self.prec, E)
        py = INFINITE if other.prec == INFINITE else Fraction(other.prec, E)
        target_v = _prec_of_quotient(va, pa, Fraction(k0, E), py)
        target = INFINITE if target_v == INFINITE else int(math.floor(target_v * E))
        q = {}
        r = self
        steps = 0
        while True:
            first = r._first()
            if first is None:
                return PadicElem(self.base, q, min(target, r.prec - k0))
            vr, dr = first
            if vr - k0 >= target:
                return PadicElem(self.base, q, target)
            steps += 1
            if target == INFINITE and steps > _MAX_DIV_STEPS:
                raise PrecisionError("exact digit division passed %d quotient "
                                     "digits; cap an operand" % _MAX_DIV_STEPS)
            qd = {(vr - k0, e - e0): c * inv % p for e, c in dr.items()}
            for ke, c in qd.items():
                q[ke] = q.get(ke, 0) + c
            r = r - PadicElem(self.base, qd, INFINITE) * other

    def __eq__(self, other):
        """Indistinguishability: no determinate digit separates the two."""
        if not isinstance(other, PadicElem):
            return NotImplemented
        return (self - other)._first() is None

    __hash__ = None  # approximate elements do not hash consistently

    # -- display ------------------------------------------------------------------

    def to_text(self) -> str:
        """Every digit below a finite cap, then + O(w^prec).  An exact
        element's carried digits can go on forever (-1 when w^E = +p), so
        it prints those below the _EXACT_SHOWN bound, then + ... if more."""
        name = self.base.name
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
                pw = _pow_text(name, k)
                parts.append(pw if dt == "1" else "%s*%s" % (dt, pw))
        body = " + ".join(parts) if parts else "0"
        if self.prec != INFINITE:
            return "%s + O(%s)" % (body, _pow_text(name, self.prec))
        return body + " + ..." if more else body

    def __repr__(self):
        return self.to_text()


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


def _as_padic(base: PadicBase, x) -> PadicElem:
    if isinstance(x, PadicElem):
        if x.base != base:
            raise ValidationError("mixed digit rings")
        return x
    if isinstance(x, int):
        return base.from_int(x)
    raise ValidationError("cannot coerce %r into the digit ring" % (x,))


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
    then has the simple root y = 1: G'(y) = s(p-1)y^(p-2) mod w is a unit.
    Newton's step y <- y - G(y)/G'(y) therefore doubles the correct digits
    of y; the working cap doubles from 1 to prec - m, with one division
    per step.  (Newton on Phi_p(1+X) itself fails Hensel's condition from
    one digit when p >= 5: v(Phi_p'(1+lambda)) = (p-2)/(p-1).)
    """

    p, E, s = base.p, base.E, base.twist
    if p == 2:
        return base.from_int(-2)  # zeta_2 = -1 exactly
    if E % (p - 1):
        raise ValidationError("ring cannot host zeta_%d (need (p-1) | E)" % p)
    if s != -1:
        raise ValidationError("ring cannot host zeta_%d (need w^E = -p)" % p)
    if prec <= E:
        # Phi_p(1+X) has the constant term p, at position E: a cap <= E
        # cannot tell lambda from 0
        raise PrecisionError(
            "lambda = zeta_%d - 1 needs a p-adic cap above %d digit positions "
            "(at least %d), got %d" % (p, E, E + 1, prec))
    m = E // (p - 1)
    # G(y) = sum_j g[j] * y^j and G'(y) = sum_j dg[j] * y^j
    g = [base.from_digits({j * m: math.comb(p, j + 1) // p})
         for j in range(p - 1)] + [base.from_int(s)]
    dg = [g[j] * j for j in range(1, p)]

    def horner(coeffs, y):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * y + c
        return acc

    y = PadicElem(base, {(0, 0): 1}, 1)
    while y.prec < prec - m:
        # y is right below k = y.prec, so G(yn) vanishes below k and G'(y),
        # known below k, still gives the quotient its full cap n <= 2k
        yn = PadicElem(base, y.digits, min(2 * y.prec, prec - m))
        y = yn - horner(g, yn) / horner(dg, y)
    return PadicElem(base, {(k + m, e): c for (k, e), c in y.digits.items()},
                     prec)


# ---------------------------------------------------------------------------
# parsing (round-trip for report text)
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:\((?P<cpar>[^()]*)\)|(?P<cnum>-?\d+))?"
                      r"(?:\*?(?P<var>[A-Za-z]+)"
                      r"(?:\^(?:\((?P<epar>-?[\d/]+)\)|(?P<enum>-?\d+)))?)?$")

_VAR_RE = re.compile(r"^(?:\*?(?P<var>[A-Za-z]+)"
                     r"(?:\^(?:\((?P<epar>-?[\d/]+)\)|(?P<enum>-?\d+)))?)?$")


def _split_depth0(text: str, sep: str = " + "):
    parts, cur, depth, i = [], [], 0, 0
    while i < len(text):
        if depth == 0 and text.startswith(sep, i):
            parts.append("".join(cur))
            cur = []
            i += len(sep)
            continue
        ch = text[i]
        depth += ch == "("
        depth -= ch == ")"
        cur.append(ch)
        i += 1
    parts.append("".join(cur))
    return parts


def _parse_chunk(chunk: str):
    chunk = chunk.strip()
    if chunk.startswith("("):
        depth = 0
        for i, ch in enumerate(chunk):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0:
                break
        coeff, rest = chunk[1:i], chunk[i + 1:]
    else:
        m = re.match(r"-?\d+", chunk)
        coeff = m.group(0) if m else None
        rest = chunk[m.end():] if m else chunk
    m = _VAR_RE.match(rest)
    if not m:
        raise ValidationError("cannot parse term %r" % chunk)
    exp = Fraction(0)
    if m.group("var"):
        if m.group("epar") is not None:
            exp = Fraction(m.group("epar"))
        elif m.group("enum") is not None:
            exp = Fraction(m.group("enum"))
        else:
            exp = Fraction(1)
    return exp, coeff if coeff is not None else "1"


def _parse_terms(text: str):
    text = text.strip()
    prec = INFINITE
    m = re.search(r"\+\s*O\(([A-Za-z]+)(?:\^\(?(-?[\d/]+)\)?)?\)\s*$", text)
    if m:
        prec = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        text = text[: m.start()].strip()
    if text in ("", "0"):
        return [], prec
    return [_parse_chunk(c) for c in _split_depth0(text)], prec


def _parse_u_poly(text: str) -> dict:
    out = {}
    for chunk in text.split(" + "):
        m = _TERM_RE.match(chunk.strip())
        if not m or (m.group("var") not in (None, "u")):
            raise ValidationError("cannot parse digit %r" % chunk)
        c = int(m.group("cnum") if m.group("cnum") is not None else 1)
        e = 0
        if m.group("var"):
            e = int(m.group("epar") or m.group("enum") or 1)
        out[e] = out.get(e, 0) + c
    return out


def series_from_text(base: EqBase, text: str) -> SeriesElem:
    terms, prec = _parse_terms(text)
    out = {}
    for exp, coeff in terms:
        if coeff.lstrip("-").isdigit():
            c = base.res.elem(int(coeff))
        else:
            c = base.res.elem(_parse_u_poly(coeff))
        out[exp] = out.get(exp, base.res.zero()) + c
    return base.series(out, prec)


def padic_from_text(base: PadicBase, text: str) -> PadicElem:
    terms, prec = _parse_terms(text)
    digits = {}
    for exp, coeff in terms:
        if exp.denominator != 1:
            raise ValidationError("digit positions must be integers")
        poly = {0: int(coeff)} if coeff.lstrip("-").isdigit() else _parse_u_poly(coeff)
        d = digits.setdefault(int(exp), {})
        for e, c in poly.items():
            d[e] = d.get(e, 0) + c
    pp = INFINITE if prec == INFINITE else int(prec)
    return base.from_digits(digits, pp)
