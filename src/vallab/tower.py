"""Symbolic root towers over a valued base with exact valuation rules.

A tower adjoins degree-p roots one at a time, each defined by a relation

    gen^p = gen + a   (additive kind, "as")
    gen^p = a         (multiplicative kind, "kummer")

with a an element of the tower built so far.  Elements are finite sums
c * gen_1^{e_1} ... gen_n^{e_n} with base coefficients and 0 <= e_i < p;
the relations rewrite any p-th power exactly, so arithmetic is exact.  A
generator keeps its relation as data, its kind and a; the minimal
polynomial, like all text, is made only in DefectCertificate.to_json.

Values are computed by four rules:
  R1  every monomial gives the lower bound v(c) + sum e_i * v(gen_i), kept
      on the element as integers over one denominator;
  R2  a unique minimal monomial decides the value;
  R3  residues multiply through stored (mu, rho) data per generator;
  R4  ties fall back to v(x) = v(x^p)/p, iterated within the budget
      below; one walk of p-th powers serves both val and residue, which
      reads the residue off the one monomial that decides the value at
      the power val stops at.  By the multinomial theorem, each
      monomial's pure term of x^p is c^p * prod (gen_i^p)^{e_i}, and each
      mixed term has a multinomial divisible by p exactly once, so it
      vanishes in equal characteristic (x^p is the Frobenius) and in mixed
      characteristic has value at least 1 + p*vlb(x).  A step forms only
      the pure terms and bounds the mixed ones by a rest, the least bound
      of a mixed term; it is decided when the least kept bound lies below
      the rest and is attained once; a tie there passes the pure part on,
      its rest lowered by the cross terms of the part left out.  When the
      least kept bound is not below the rest, the walk starts again from
      x with plain products.  An element keeps its pure terms once taken,
      and a quotient by a base element keeps those of x^p / d^p, the rest
      shifted by -p*v(d).  x**p is the pure terms when rest is INFINITE.

Each R4 step multiplies values by p.  A tie that persists approximates a
generator by terms whose value denominators carry powers of p, and each
step strips one (the as-valgp witness x - t^(-1/p) - ... - t^(-1/p^n)
takes n steps).  So r4_budget(x) is the number of generators plus the
largest p-exponent among the value denominators of the base group's
generators, the generator values and the exponents in the relations' and
x's coefficients; a series coefficient keeps its exponents over their
least common denominator, which r4_budget reads as it is.  The bound is
measured, not proved; outlasting it is a ValidationError, since no
precision cap ran out.

Adjoining a root first classifies the step from the Newton polygon and
the residue equation.  When neither a value jump nor a residue jump is
forced, the root is attached *pending* and the caller must resolve the
step with a witness element (the defect-style constructions do exactly
that).  In equal characteristic a witness w with v(w^p - w) < 0 is a
root of X^p - X - (w^p - w) and is valued by that polygon's single
slope; the R4 walk values any other witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import PrecisionError, ValidationError
from .intlinalg import p_exponent
from .ogroup import contains as group_contains, index as group_index, join
from .resfield import RElem, power
from .values import INFINITE, Indeterminate, sum_text, term_text


@dataclass(frozen=True)
class GenInfo:
    name: str
    relation: str                   # "as" or "kummer"
    a: "TElem"                      # over the tower it was adjoined to; two
    #                                 compare, as Tower.lift does, by lifting
    value: Fraction
    mu: object = None               # base monomial of the same value, if any
    rho: RElem = None               # residue of gen/mu, if known


@dataclass(frozen=True)
class TowerStep:
    gen: GenInfo
    kind: str                       # "ramified" or "residue"
    degree: int
    e: int
    f: int
    m: int
    new_value: Fraction = None
    new_residue: RElem = None
    witness: str = None


def ostrowski_m(degree: int, e: int, f: int, p: int) -> int:
    """The p-exponent m with degree = e * f * p^m; raises when violated."""
    if e * f > degree:
        raise ValidationError(
            "fundamental inequality violated: e*f = %d exceeds degree %d"
            % (e * f, degree))
    q = degree // (e * f)
    if q * e * f != degree:
        raise ValidationError(
            "defect quotient %s/%d is not an integer" % (degree, e * f))
    m = p_exponent(q, p)
    if q != p ** m:
        raise ValidationError(
            "defect %d is not a power of the residue characteristic %d"
            % (degree // (e * f), p))
    return m


class Tower:
    """Immutable-by-convention chain of root adjunctions."""

    def __init__(self, base, gens=(), steps=(), group=None, res_desc=None):
        self.base = base
        self.gens = tuple(gens)
        self.steps = tuple(steps)
        self.group = group if group is not None else base.value_group
        self.res_desc = res_desc if res_desc is not None else base.residue_field
        if len(self.steps) not in (len(self.gens), len(self.gens) - 1):
            raise ValidationError("steps out of sync with generators")
        # generator values as integers over one denominator, which the base
        # group's generators divide too, for integer R1 bounds
        self.val_den = lcm(*(c.denominator for v in base.value_group.gens
                             for c in v),
                           *(g.value.denominator for g in self.gens))
        self.val_nums = tuple(
            g.value.numerator * (self.val_den // g.value.denominator)
            for g in self.gens)

    # built on first read: most towers, such as the one _attach makes for
    # _finalize, never reduce a p-th power
    @cached_property
    def rhs(self) -> tuple:
        """gen_i^p as an element of this tower: its relation's a, lifted,
        plus gen_i for "as"."""
        return tuple(self.lift(g.a) + self.gen_elem(i) if g.relation == "as"
                     else self.lift(g.a) for i, g in enumerate(self.gens))

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def pending(self) -> bool:
        return len(self.steps) == len(self.gens) - 1

    def res_level(self) -> int:
        return self.res_desc.level

    # -- element constructors -----------------------------------------------

    def from_base(self, c) -> "TElem":
        return TElem(self, {(0,) * len(self.gens): c})

    def from_int(self, n: int) -> "TElem":
        return self.from_base(self.base.from_int(n))

    def one(self) -> "TElem":
        return self.from_int(1)

    def zero(self) -> "TElem":
        return TElem(self, {})

    def gen_elem(self, i: int) -> "TElem":
        e = tuple(1 if j == i else 0 for j in range(len(self.gens)))
        return TElem(self, {e: self.base.from_int(1)})

    def lift(self, x: "TElem") -> "TElem":
        """Re-home an element of a shorter prefix tower over the same base."""
        pad = len(self.gens) - len(x.tower.gens)
        if pad < 0 or x.tower.base != self.base or \
                x.tower.gens != self.gens[: len(x.tower.gens)]:
            raise ValidationError("element does not come from a prefix tower")
        return TElem(self, {e + (0,) * pad: c for e, c in x.coords.items()})


class TElem:
    __slots__ = ("tower", "coords", "_pth", "_r1")

    def __init__(self, tower: Tower, coords: dict):
        self.tower = tower
        self.coords = {e: c for e, c in coords.items() if not c.is_zero()}
        self._pth = None                # (pure terms of x**p, rest)
        self._r1 = None                 # R1 bounds, see _r1

    # -- ring structure ------------------------------------------------------

    def _join(self, other) -> "TElem":
        if isinstance(other, int):
            other = self.tower.from_int(other)
        elif not isinstance(other, TElem):
            raise ValidationError("expected a tower element or an int, got %s"
                                  % type(other).__name__)
        if other.tower is not self.tower:
            other = self.tower.lift(other)
        return other

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def _merge(self, other, sub: bool) -> "TElem":
        """self + other, or self - other when sub, in one pass over other."""
        other = self._join(other)
        out = dict(self.coords)
        for e, c in other.coords.items():
            s = out.get(e)
            if s is None:
                out[e] = -c if sub else c
            else:
                out[e] = s - c if sub else s + c
        return TElem(self.tower, out)

    def __neg__(self):
        return TElem(self.tower, {e: -c for e, c in self.coords.items()})

    def __mul__(self, other):
        other = self._join(other)
        out = {}
        for e1, c1 in self.coords.items():
            for e2, c2 in other.coords.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                _reduce_into(self.tower, e, c1 * c2, out)
        return TElem(self.tower, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValidationError("negative tower powers are not supported")
        if n == self.tower.p:
            kept, rest = pth_power(self)
            if rest == INFINITE:
                return kept
        return power(self, n, self.tower.one)

    def __truediv__(self, other):
        """Division by a base element (or base-constant tower element).

        A quotient keeps the pure terms of the dividend's p-th power,
        divided by d^p: (x/d)^p = x^p / d^p, whose rest lies p*v(d) lower.
        """
        if isinstance(other, int):
            other = self.tower.base.from_int(other)
        elif isinstance(other, TElem):
            if any(any(e) for e in other.coords):
                raise ValidationError("tower division only by base elements")
            other = next(iter(other.coords.values())) if other.coords else None
            if other is None:
                raise ZeroDivisionError("division by zero")
        q = TElem(self.tower, {e: c / other for e, c in self.coords.items()})
        if self._pth is not None:
            kept, rest = self._pth
            if rest != INFINITE:
                rest = rest - self.tower.p * other.val()
            q._pth = kept / _coeff_pth(self.tower, other), rest
        return q

    def __eq__(self, other):
        other = self._join(other)
        return not (self - other).coords

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.coords

    def __repr__(self):
        return to_text(self)


def _reduce_into(tower: Tower, e: tuple, c, out: dict):
    """Accumulate c * gen^e into out, rewriting p-th powers of generators
    by their relations; the TElem built from out drops the zero sums."""
    p = tower.p
    for i, ei in enumerate(e):
        if ei >= p:
            low = tuple(x - p if j == i else x for j, x in enumerate(e))
            for re_, rc in tower.rhs[i].coords.items():
                ee = tuple(a + b for a, b in zip(low, re_))
                _reduce_into(tower, ee, c * rc, out)
            return
    s = out.get(e)
    out[e] = c if s is None else s + c


def _coeff_pth(tower: Tower, c):
    """c^p for a base coefficient: the Frobenius in equal characteristic."""
    return c.frobenius() if tower.base.eq_char else c ** tower.p


def pth_power(x: TElem):
    """(y, rest): the pure terms y of x^p and a bound on the rest.

    A pure term (c_j * gen^e_j)^p of a monomial of x is c_j^p * prod
    rhs_i^e_ij, since gen_i^p is the stored relation right-hand side.
    Every other term has all k_j < p: multinom(p; k) * prod c_j^k_j *
    gen^(sum k_j * e_j).  Its multinomial is divisible by p exactly once,
    so in characteristic p it vanishes and x -> x^p is the Frobenius, and
    in mixed characteristic its value is at least 1 + sum k_j * b_j, b_j
    the R1 bound of monomial j, least at rest = 1 + (p-1)*b_1 + b_2 for the
    two least bounds b_1 <= b_2.  rest is INFINITE when no mixed term is
    left out, and y is then x^p.  x keeps the pair once taken.
    """
    if x._pth is not None:
        return x._pth
    tower, p = x.tower, x.tower.p
    out = {}
    for e, c in x.coords.items():
        term = tower.from_base(_coeff_pth(tower, c))
        for i, ei in enumerate(e):
            for _ in range(ei):
                term = term * tower.rhs[i]
        for te, tc in term.coords.items():
            _reduce_into(tower, te, tc, out)
    rest = INFINITE
    if not tower.base.eq_char and len(x.coords) > 1:
        den, bounds = _r1(x)
        b1, b2 = sorted(t[0] for t in bounds)[:2]
        rest = Fraction(den + (p - 1) * b1 + b2, den)
    x._pth = TElem(tower, out), rest
    return x._pth


def to_text(x: TElem) -> str:
    names = [g.name for g in x.tower.gens]
    parts = []
    for e in sorted(x.coords):
        ct = x.coords[e].to_text()
        if " " in ct or "+" in ct:
            ct = "(%s)" % ct
        parts.append(term_text(ct, zip(names, e)))
    return sum_text(parts)


# ---------------------------------------------------------------------------
# valuation rules
# ---------------------------------------------------------------------------


def _r1(x: TElem):
    """(den, [(num, determinate, exps)]): each monomial's R1 bound as an
    integer num over one denominator, kept on x once computed.  den is the
    tower's val_den, widened only by a series coefficient whose exponent
    has a larger p-power denominator (over a p-closed group)."""
    if x._r1 is None:
        t, vals = x.tower, []
        den = t.val_den
        for e, c in x.coords.items():
            v = c.val()
            det = not isinstance(v, Indeterminate)
            v = v if det else v.bound
            if den % v.denominator:
                den = lcm(den, v.denominator)
            vals.append((v, det, e))
        gnums = [den // t.val_den * g for g in t.val_nums]
        x._r1 = den, [(v.numerator * (den // v.denominator) +
                       sum(a * g for a, g in zip(e, gnums)), det, e)
                      for v, det, e in vals]
    return x._r1


def vlb(x: TElem):
    """R1 lower bound for the value (INFINITE for the zero element)."""
    den, bounds = _r1(x)
    return Fraction(min(t[0] for t in bounds), den) if bounds else INFINITE


def r4_budget(x: TElem) -> int:
    """R4 steps allowed for x (see the module docstring)."""
    t = x.tower
    den = t.val_den
    if t.base.eq_char:
        # exponents in a p-closed group have unbounded denominators; a
        # series keeps its exponents over their least common one
        # (an "as" relation's unit term gen_i has denominator 1)
        coeffs = [c for g in t.gens for c in g.a.coords.values()] + \
            list(x.coords.values())
        den = lcm(den, *(c.den for c in coeffs))
    return len(t.gens) + p_exponent(den, t.p)


def _r4_walk(x: TElem):
    """(k, y, m, e) for the first y = x^(p^k) whose least monomial bound m
    is attained by one monomial, gen^e (R2), so v(x) = m/p^k; m is INFINITE
    and e None for 0.  y may lack terms of x^(p^k) of value above m.
    Passing r4_budget(x) p-th powers is a ValidationError."""
    return _walk(x, False) or _walk(x, True)


def _walk(x: TElem, whole: bool):
    """_r4_walk's loop.  Unless `whole`, each step keeps only the pure
    terms of y^p, and every mixed term lies at or above 1 + p*vlb(y), so y
    is x^(p^k) less a part of value >= rest; the walk gives up (None) when
    the least kept bound is not below the rest, and _r4_walk walks again
    with `whole`, each step the plain product y^p and its rest INFINITE;
    _carried_rest bounds what a step leaves out."""
    y, k, rest, budget, p = x, 0, INFINITE, None, x.tower.p
    while True:
        den, bounds = _r1(y)
        if not bounds:
            return (k, y, INFINITE, None) if rest == INFINITE else None
        least = min(t[0] for t in bounds)
        m = Fraction(least, den)
        if m >= rest:
            return None
        at_min = [t for t in bounds if t[0] == least]
        if any(not t[1] for t in at_min):
            raise PrecisionError(
                "value tied with an indeterminate coefficient at %s" % (m,))
        if len(at_min) == 1:
            return k, y, m, at_min[0][2]
        budget = r4_budget(x) if budget is None else budget
        if k == budget:
            raise ValidationError(
                "a value tie outlasts the R4 budget of %d p-th powers: the "
                "generator count plus the largest p-exponent of a value "
                "denominator" % budget)
        z, zrest = (power(y, p, y.tower.one), INFINITE) if whole \
            else pth_power(y)
        y, k, rest = z, k + 1, _carried_rest(zrest, rest, m, p)


def _carried_rest(zrest, rest, m, p):
    """The rest of y^p, for y = a + r with v(r) >= rest and vlb(a) = m, when
    a^p leaves out terms of value >= zrest: y^p = a^p + sum_i C(p, i)
    a^(p-i) r^i + r^p, and the terms i = 1..p-1 have value at least
    1 + (p-i)*m + i*rest, least at i = 1 or i = p - 1."""
    if rest == INFINITE:
        return zrest
    return min(zrest, p * rest, 1 + (p - 1) * m + rest,
               1 + m + (p - 1) * rest)


def val(x: TElem):
    """Exact value via R2 (unique minimum) with R4 fallback (p-th powers)."""
    k, _, m, _ = _r4_walk(x)
    return m / x.tower.p ** k


def residue(x: TElem) -> RElem:
    """Residue of a value-0 element, via R3 on stored (mu, rho) data.

    The R4 walk stops at y = x^(p^k) with a unique least monomial bound m,
    attained by gen^e, and v(x) = 0 exactly when m = 0.  Every other
    monomial of y then has a bound > m = 0, so its value is positive and it
    adds nothing: the residue of y is that of its deciding monomial alone,
    and it pulls back through k p-th roots (the Frobenius is injective here).
    """
    k, y, m, e = _r4_walk(x)
    if m != 0:
        raise ValidationError("residue requires value exactly 0, got %s"
                              % (m / x.tower.p ** k,))
    r = _monomial_residue(y.tower, e, y.coords[e])
    for _ in range(k):
        r = r.pth_root_extend()
    return r


def _monomial_residue(tower: Tower, e: tuple, c) -> RElem:
    """Residue of c * prod gen^e, a monomial of value 0 (R3): the base
    residue of c * prod mu^e times prod rho^e."""
    rho_part = None
    for i, ei in enumerate(e):
        if not ei:
            continue
        g = tower.gens[i]
        if g.mu is None or g.rho is None:
            raise ValidationError(
                "generator %s carries no residue data" % (g.name,))
        for _ in range(ei):
            c = c * g.mu
        rp = g.rho ** ei
        rho_part = rp if rho_part is None else rho_part * rp
    base_res = c.residue()
    return base_res if rho_part is None else base_res * rho_part


# ---------------------------------------------------------------------------
# adjunction
# ---------------------------------------------------------------------------


@dataclass
class Adjunction:
    outcome: str       # ramified | residue | no_step_detected |
    #                    unsupported_step | not_single_slope
    tower: Tower = None
    value: Fraction = None
    residue_root: RElem = None      # y of the residue equation y^p = rbar


def _minpoly_text(g: GenInfo) -> str:
    return "X^%d - %s(%s)" % (g.a.tower.p, "X - " * (g.relation == "as"),
                              to_text(g.a))


def adjoin_root(tower: Tower, relation: str, a: TElem, name: str) -> Adjunction:
    """Classify and attach a root of the degree-p relation over the tower."""
    if relation not in ("as", "kummer"):
        raise ValidationError("unknown relation kind %r" % (relation,))
    if tower.pending:
        raise ValidationError("resolve the pending step before adjoining")
    a = tower.zero()._join(a)  # lifts a prefix element, rejects any other
    p = tower.p
    va = val(a)
    if va == INFINITE:
        raise ValidationError("relation right-hand side must be nonzero")

    # the Newton polygon of X^p - a joins (0, v(a)) to (p, 0); X^p - X - a
    # adds (1, 0), which lies below that chord exactly when v(a) > 0
    if relation == "as" and va > 0:
        return Adjunction("not_single_slope")
    beta = va / p

    if not group_contains(tower.group, (beta,)):
        new = _attach(tower, relation, a, name, beta, None, None)
        return Adjunction("ramified", _finalize(new, "ramified", new_value=beta),
                          value=beta)

    # beta already in the group: probe the residue equation through a base
    # monomial of the same value, when one exists
    if not group_contains(tower.base.value_group, (beta,)):
        # the value is only realized by tower monomials
        new = _attach(tower, relation, a, name, beta, None, None)
        return Adjunction("unsupported_step", new, value=beta)
    mu = tower.base.monomial(beta)
    # substitute X = mu*Y and normalize: Y^p - mu^{1-p} Y - a/mu^p ("as")
    #                                    Y^p - a/mu^p            ("kummer")
    rbar = residue(a / (mu ** p))
    if relation == "as" and beta == 0:
        # middle coefficient survives reduction: a separable residue
        # equation leaves the representable residue fields
        raise ValidationError(
            "separable residue equation is outside the supported fields")
    # solve y^p = rbar in the *current* residue field of the tower
    if rbar.field.has_variable():
        rbar = rbar.at_level(max(tower.res_level(), rbar.level()))
    root = rbar.pth_root()
    if root is None:
        # residue jump: f = p via the inseparable equation y^p = rbar
        rho = rbar.pth_root_extend()
        new = _attach(tower, relation, a, name, beta, mu, rho)
        done = _finalize(new, "residue", new_residue=rho)
        return Adjunction("residue", done, value=beta, residue_root=rho)
    # the residue equation already has a root: nothing is forced
    new = _attach(tower, relation, a, name, beta, mu, root)
    return Adjunction("no_step_detected", new, value=beta, residue_root=root)


def _attach(tower: Tower, relation: str, a: TElem, name: str,
            beta, mu, rho) -> Tower:
    """Tower with the new generator attached and the step left open."""
    gi = GenInfo(name, relation, a, beta, mu, rho)
    return Tower(tower.base, tower.gens + (gi,), tower.steps,
                 tower.group, tower.res_desc)


def _finalize(tower: Tower, kind: str, new_value=None, new_residue=None,
              witness=None) -> Tower:
    """Record the pending step as `kind`, growing the group and residue field.

    The step's (e, f, m) is derived here and nowhere else: e is the index of
    the group grown by the generator's value (and new_value), f is p for a
    residue jump and 1 otherwise, and m comes from ostrowski_m.  A ramified
    step brings a value outside the group, so e >= 2, and since the degree
    p is prime ostrowski_m then admits only (p, 1, 0); a residue jump has
    f = p, which forces e = 1 and m = 0.
    """
    gi, p = tower.gens[-1], tower.p
    values = [gi.value] + ([new_value] if new_value is not None else [])
    bigger = join(tower.group, [(v,) for v in values])
    idx = group_index(bigger, tower.group)
    if idx == INFINITE:
        raise ValidationError("ramification index is not finite")
    e, f, res_desc = int(idx), 1, tower.res_desc
    if kind == "residue":
        f = p
        res_desc = res_desc.at_level(tower.res_level() + 1) \
            if res_desc.has_variable() else res_desc
    step = TowerStep(gi, kind, p, e, f, ostrowski_m(p, e, f, p), new_value,
                     new_residue, witness)
    return Tower(tower.base, tower.gens, tower.steps + (step,), bigger, res_desc)


def resolve_pending(tower: Tower, witness: TElem, witness_text: str,
                    divisor=None) -> Tower:
    """Decide a pending step from a witness element.

    A witness value outside the current group finalizes a ramified step;
    otherwise the residue of witness/divisor must land outside the current
    residue field, finalizing a residue jump that keeps it as new_residue.

    The witness and divisor are elements of the tower or of a prefix of it.
    In equal characteristic a witness w whose a = w^p - w has v(a) < 0 is
    a root of X^p - X - a, whose polygon has the single slope v(a)/p, so
    v(w) = v(a)/p; and since v(w/d^p) > 0 for a divisor d of value v(w),
    the residue of w/d is the p-th root of that of (w/d)^p, whose residue
    is that of a/d^p.  The R4 walk values any other witness.
    """
    if not tower.pending:
        raise ValidationError("tower has no pending step")
    join = tower.zero()._join  # lifts a prefix element, rejects any other
    witness = join(witness)
    if divisor is not None:
        divisor = join(divisor)
    p = tower.p
    a = witness ** p - witness if tower.base.eq_char else None
    va = INFINITE if a is None else val(a)
    if va < 0:
        v = va / p
    else:
        a, v = None, val(witness)
    if v == INFINITE:
        raise ValidationError("witness vanishes")
    if not group_contains(tower.group, (v,)):
        return _finalize(tower, "ramified", new_value=v, witness=witness_text)
    if divisor is None:
        raise ValidationError(
            "witness value %s stays in the group; need a divisor to read a "
            "residue" % (v,))
    if a is None:
        r = residue(witness / divisor)
    else:
        r = residue(a / divisor ** p).pth_root_extend()
    lvl = r.least_level()
    if lvl <= tower.res_level():
        raise ValidationError(
            "witness residue %s lies in the current residue field" % (r,))
    return _finalize(tower, "residue", new_residue=r, witness=witness_text)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class DefectCertificate:
    construction: str
    p: int
    params: dict
    steps: list                     # (n, TowerStep); to_json makes the text
    absorption: list
    limit_claim: str
    precision: dict

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "construction": self.construction,
            "p": self.p,
            "params": self.params,
            "rows": [step_row(n, step) for n, step in self.steps],
            "absorption": self.absorption,
            "limit_claim": self.limit_claim,
            "precision": self.precision,
        }


def step_row(n: int, step: TowerStep) -> dict:
    row = {
        "n": n,
        "name": step.gen.name,
        "minpoly": _minpoly_text(step.gen),
        "kind": step.kind,
        "degree": step.degree,
        "e": step.e,
        "f": step.f,
        "m": step.m,
    }
    if step.new_value is not None:
        row["new_value"] = str(step.new_value)
    if step.new_residue is not None:
        row["new_residue"] = step.new_residue.to_text()
    if step.witness is not None:
        row["witness"] = step.witness
    return row

