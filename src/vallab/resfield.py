"""Residue field arithmetic: F_p, F_p(u), and perfection levels F_p(u^{1/p^k}).

Elements are reduced fractions of sparse polynomials in the single
variable w = u^{1/p^k}, where k is the field's perfection level.  All
coefficient arithmetic is mod p.  Coercion moves only between levels: it
substitutes w -> w^{p^(k'-k)}, so an element's data never changes meaning,
only its exponent scale.  An F_p element never meets an F_p(u) one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError, json_get


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


# sparse polynomials: dict {exponent >= 0: coefficient in 1..p-1}


def _pnorm(d: dict, p: int) -> dict:
    return {e: c % p for e, c in d.items() if c % p}


def _padd(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _pnorm(out, p)


def _pscale(a: dict, c: int, p: int) -> dict:
    return _pnorm({e: x * c for e, x in a.items()}, p)


def _pmul(a: dict, b: dict, p: int) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return _pnorm(out, p)


def _pdeg(a: dict) -> int:
    return max(a) if a else -1


def _pdivmod(a: dict, b: dict, p: int):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[_pdeg(b)], p - 2, p)
    q = {}
    r = dict(a)
    db = _pdeg(b)
    while r and _pdeg(r) >= db:
        dr = _pdeg(r)
        c = (r[dr] * inv) % p
        q[dr - db] = c
        for e, x in b.items():
            r[e + dr - db] = r.get(e + dr - db, 0) - c * x
        r = _pnorm(r, p)
    return q, r


def _pgcd(a: dict, b: dict, p: int) -> dict:
    a, b = dict(a), dict(b)
    while b:
        _, r = _pdivmod(a, b, p)
        a, b = b, r
    if a:
        a = _pscale(a, pow(a[_pdeg(a)], p - 2, p), p)  # monic
    return a


@dataclass(frozen=True)
class ResField:
    """Descriptor of a residue field.

    kind "finite": F_q with q = p^d (arithmetic implemented for d = 1);
    kind "ratfun": F_p(u); kind "perflevel": F_p(u^{1/p^level}).
    """

    char: int
    kind: str = "finite"
    q: int = 0
    level: int = 0

    def __post_init__(self):
        if self.kind not in ("finite", "ratfun", "perflevel"):
            raise ValidationError("unknown residue field kind %r" % (self.kind,))
        if self.kind == "perflevel" and self.level < 1:
            raise ValidationError("perfection level must be at least 1")
        if self.kind == "finite" and self.q == 0:
            object.__setattr__(self, "q", self.char)

    # -- structure ---------------------------------------------------------

    @property
    def p(self) -> int:
        return self.char

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
        self._require_prime_arith()
        if isinstance(x, int):
            num = _pnorm({0: x}, self.char)
            return RElem(self, _freeze(num), _freeze({0: 1}))
        if isinstance(x, dict):
            if not self.has_variable() and any(e != 0 for e in x):
                raise ValidationError("prime field element cannot involve u")
            shift = -min((e for e in x if x[e] % self.char), default=0)
            shift = max(shift, 0)
            num = _pnorm({e + shift: c for e, c in x.items()}, self.char)
            den = {shift: 1}
            return _reduced(self, num, den)
        raise ValidationError("cannot build a residue element from %r" % (x,))

    def zero(self) -> "RElem":
        return self.elem(0)

    def one(self) -> "RElem":
        return self.elem(1)

    def gen(self) -> "RElem":
        """The transcendental u, expressed at this field's level."""
        if not self.has_variable():
            raise ValidationError("no transcendental in a finite field")
        return RElem(self, _freeze({self.char ** self.level: 1}), _freeze({0: 1}))

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
    char = json_get(d, "char", what, int)
    if kind == "finite":
        return ResField(char, kind, q=json_get(d, "q", what, int, char))
    if kind == "perflevel":
        return ResField(char, kind, level=json_get(d, "level", what, int))
    return ResField(char, kind)


def _freeze(d: dict) -> tuple:
    return tuple(sorted(d.items()))


def _thaw(t: tuple) -> dict:
    return dict(t)


def _reduced(field: ResField, num: dict, den: dict) -> "RElem":
    p = field.char
    num, den = _pnorm(num, p), _pnorm(den, p)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return RElem(field, _freeze({}), _freeze({0: 1}))
    if len(den) == 1:
        # gcd(num, c*w^k) = w^s with s = min(k, ord_w num): a shift
        (k, c), = den.items()
        s = min(k, min(num))
        if s:
            num = {e - s: x for e, x in num.items()}
            den = {k - s: c}
    else:
        g = _pgcd(num, den, p)
        if _pdeg(g) > 0 or g.get(0, 1) != 1:
            num, _ = _pdivmod(num, g, p)
            den, _ = _pdivmod(den, g, p)
    lead = den[_pdeg(den)]
    if lead != 1:
        inv = pow(lead, p - 2, p)
        num = _pscale(num, inv, p)
        den = _pscale(den, inv, p)
    return RElem(field, _freeze(num), _freeze(den))


@dataclass(frozen=True)
class RElem:
    field: ResField
    num: tuple
    den: tuple

    # -- conversions -------------------------------------------------------

    def level(self) -> int:
        return self.field.level if self.field.kind == "perflevel" else 0

    def at_level(self, level: int) -> "RElem":
        """Rewrite in the variable of a finer level (data scales up)."""
        lv = self.level()
        if level == lv:
            return self
        if level < lv:
            raise ValidationError("cannot coarsen a residue element")
        s = self.field.char ** (level - lv)
        num = {e * s: c for e, c in self.num}
        den = {e * s: c for e, c in self.den}
        return RElem(self.field.at_level(level), _freeze(num), _freeze(den))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = coerce_pair(self, other)
        p = a.field.char
        if a.den == b.den == ((0, 1),):
            # a sum of polynomials is already reduced
            return RElem(a.field, _freeze(_padd(_thaw(a.num), _thaw(b.num), p)),
                         a.den)
        num = _padd(_pmul(_thaw(a.num), _thaw(b.den), p),
                    _pmul(_thaw(b.num), _thaw(a.den), p), p)
        den = _pmul(_thaw(a.den), _thaw(b.den), p)
        return _reduced(a.field, num, den)

    def __neg__(self):
        return RElem(self.field, _freeze(_pscale(_thaw(self.num), -1, self.field.char)),
                     self.den)

    def __sub__(self, other):
        a, b = coerce_pair(self, other)
        return a + (-b)

    def __mul__(self, other):
        a, b = coerce_pair(self, other)
        p = a.field.char
        if a.den == b.den == ((0, 1),):
            # a product of polynomials is already reduced
            return RElem(a.field, _freeze(_pmul(_thaw(a.num), _thaw(b.num), p)),
                         a.den)
        num = _pmul(_thaw(a.num), _thaw(b.num), p)
        den = _pmul(_thaw(a.den), _thaw(b.den), p)
        return _reduced(a.field, num, den)

    def inverse(self) -> "RElem":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero residue element")
        # the swapped pair stays coprime: only the new denominator's lead
        # needs scaling to 1
        p = self.field.char
        num, den = _thaw(self.den), _thaw(self.num)
        inv = pow(den[_pdeg(den)], p - 2, p)
        return RElem(self.field, _freeze(_pscale(num, inv, p)),
                     _freeze(_pscale(den, inv, p)))

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
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        # hash at the canonical (reduced, level-minimal) form: exponent gcd
        return hash((self.field.char, self._canonical()))

    def _canonical(self):
        p = self.field.char
        lv = self.level()
        exps = [e for e, _ in self.num] + [e for e, _ in self.den]
        while lv > 0 and all(e % p == 0 for e in exps):
            exps = [e // p for e in exps]
            lv -= 1
        k = p ** (self.level() - lv)
        return (lv,
                tuple(sorted((e // k, c) for e, c in self.num)),
                tuple(sorted((e // k, c) for e, c in self.den)))

    # -- characteristic-p structure -----------------------------------------

    def frobenius(self) -> "RElem":
        p = self.field.char
        # over F_p, f(w^p) = f(w)^p keeps a coprime pair coprime and monic
        return RElem(self.field, tuple((e * p, c) for e, c in self.num),
                     tuple((e * p, c) for e, c in self.den))

    def pth_root(self):
        """The unique y in the SAME field with y^p = x, or None."""
        p = self.field.char
        if all(e % p == 0 for e, _ in self.num) and all(e % p == 0 for e, _ in self.den):
            num = {e // p: c for e, c in self.num}
            den = {e // p: c for e, c in self.den}
            return _reduced(self.field, num, den)
        return None

    def pth_root_extend(self):
        """p-th root, promoting one perfection level when needed."""
        r = self.pth_root()
        if r is not None:
            return r
        # at level k+1 the same data reads as exponents scaled by p, so the
        # root is literally the same fraction one level up
        return RElem(self.field.at_level(self.level() + 1), self.num, self.den)

    # -- display -----------------------------------------------------------

    def _poly_text(self, d: dict) -> str:
        p = self.field.char
        scale = p ** self.level()
        parts = []
        for e, c in sorted(d.items()):
            ee = Fraction(e, scale)
            if ee == 0:
                parts.append(str(c))
            else:
                var = "u" if ee == 1 else ("u^%s" % ee if ee.denominator == 1
                                           else "u^(%s)" % ee)
                parts.append(var if c == 1 else "%d*%s" % (c, var))
        return " + ".join(parts) if parts else "0"

    def to_text(self) -> str:
        num = self._poly_text(_thaw(self.num))
        if _thaw(self.den) == {0: 1}:
            return num
        return "(%s)/(%s)" % (num, self._poly_text(_thaw(self.den)))

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
