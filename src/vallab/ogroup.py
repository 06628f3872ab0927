"""Finitely presented ordered abelian subgroups of Q^r with lex order.

A group is presented by generators; a designated subset of them is
closed under division by a fixed prime p, so the group is

    G = Z g_1 + ... + Z g_k  +  Z[1/p] h_1 + ... + Z[1/p] h_m

sitting inside Q^r ordered lexicographically (most significant
coordinate first).  Internally every group is brought to a canonical
direct-sum form

    G = Z[1/p] b_1 + ... + Z[1/p] b_s  (+)  Z c_1 + ... + Z c_t

with the b_i (the maximal p-divisible subgroup) and the c_j in echelon
form, at every rank.  Membership is two triangular solves whose row
steps are integer divisibility tests, inclusion is membership of the
basis, and the index is a ratio of pivot products; p-divisibility,
convex subgroups and hulls reduce to linear algebra against the same
form, kept on the group and built on first use.  join presents its
result by the canonical basis followed by the new generators, so a group
grown one value at a time keeps a presentation of bounded size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat

from .errors import (ValidationError, int_text_bound, json_fraction, json_get,
                     json_int, json_keys, printable_power, too_long_to_print)
from .intlinalg import int_kernel, is_prime, prime_to_p_part, row_echelon
from .values import INFINITE, fr


def _coerce_vec(x, rank: int):
    """A value as a tuple of rank Fractions; a bare rational is rank 1."""
    v = tuple(map(fr, x)) if isinstance(x, (tuple, list)) else (fr(x),)
    if len(v) != rank:
        raise ValidationError("rank mismatch: expected %d coordinates, got %d" % (rank, len(v)))
    return v


def _lex_positive(v) -> bool:
    i = _leading_index(v)
    return i is not None and v[i] > 0


def _leading_index(v):
    for i, c in enumerate(v):
        if c != 0:
            return i
    return None


@dataclass(frozen=True)
class OGroup:
    rank: int
    gens: tuple
    p_closed: frozenset
    prime: int = 1

    def __post_init__(self):
        if self.rank < 1:
            raise ValidationError("rank must be at least 1")
        # immutable fields only: the canonical form kept on the group is
        # read off them once
        if not (isinstance(self.gens, tuple)
                and all(isinstance(v, tuple) and len(v) == self.rank
                        for v in self.gens)):
            raise ValidationError("gens must be a tuple of %d-coordinate "
                                  "tuples" % self.rank)
        # exact coordinates only: the canonical form reads their integers
        for v in self.gens:
            for c in v:
                if not isinstance(c, (int, Fraction)):
                    raise ValidationError("gens must hold int or Fraction "
                                          "coordinates, got %r" % (c,))
        if not isinstance(self.p_closed, frozenset):
            raise ValidationError("p_closed must be a frozenset")
        if self.prime != 1 and not is_prime(self.prime):
            raise ValidationError("prime %r is neither 1 nor a prime number"
                                  % (self.prime,))
        if self.prime == 1 and self.p_closed:
            raise ValidationError("prime 1 admits no p-closed generators")
        for i in self.p_closed:
            if not (0 <= i < len(self.gens)):
                raise ValidationError("p_closed index out of range")

    # a pure function of the frozen fields, built on first use; equality,
    # hash and repr read the fields alone
    @cached_property
    def _form(self):
        return _build_canon(self)

    def closed_gens(self):
        return [self.gens[i] for i in sorted(self.p_closed)]

    def free_gens(self):
        return [g for i, g in enumerate(self.gens) if i not in self.p_closed]

    def is_trivial(self) -> bool:
        return not self.gens

    def __repr__(self):
        """Generators in order, "/p^inf" marking the p-closed ones."""
        parts = []
        for i, g in enumerate(self.gens):
            s = "(" + ", ".join(str(c) for c in g) + ")" if self.rank > 1 else str(g[0])
            if i in self.p_closed:
                s += "/%d^inf" % self.prime
            parts.append(s)
        return "<" + ("; ".join(parts) if parts else "0") + ">"


def ogroup(gens, closed=(), prime: int = 1, rank=None) -> OGroup:
    """Build an OGroup from loose generator data.

    gens may contain Fractions, ints or coordinate sequences.
    closed is an iterable of indices into gens (positions, pre-filter);
    zero generators are dropped with indices renumbered.
    """
    gens = list(gens)
    if rank is None:
        if not gens:
            raise ValidationError("rank required for a trivial group")
        probe = gens[0]
        rank = len(probe) if isinstance(probe, (tuple, list)) else 1
    closed = set(closed)
    for i in sorted(closed):
        if not 0 <= i < len(gens):
            raise ValidationError("p_closed index %d is out of range for %d "
                                  "generators" % (i, len(gens)))
    vecs = []
    new_closed = set()
    for i, g in enumerate(gens):
        v = _coerce_vec(g, rank)
        if all(c == 0 for c in v):
            continue
        if i in closed:
            new_closed.add(len(vecs))
        vecs.append(v)
    if prime == 1 and new_closed:
        raise ValidationError("closed generators require a prime > 1")
    return OGroup(rank=rank, gens=tuple(vecs), p_closed=frozenset(new_closed), prime=prime)


def cyclic(q) -> OGroup:
    return ogroup([q], rank=1)


# ---------------------------------------------------------------------------
# canonical form


class _Canon:
    """The canonical form of a group: G = Z[1/p] D (+) Z F.

    D, the maximal p-divisible part, is the Z-echelon of the p-closed
    generators and of the free combinations that land in their Q-span,
    each row divided by the power of p in its pivot's numerator and each
    entry above a later pivot reduced modulo that pivot.  F lifts the
    Z-echelon of the free generators taken modulo span_Q(D).

    drows and frows hold D's rows and F's projected rows as (pivot column,
    integer numerators, denominator), lifts F's lifts as numerators over
    ld.  A solve's remainder must vanish at dzero (against D) or fzero
    (against F).  members, as solve input flagged True on D's rows, are
    the vectors a group holds when it contains this one; covolume, F's
    pivot product times the prime-to-p part of D's, gives the index
    covolume(h) / covolume(g) when the spans agree.
    """
    __slots__ = ("drows", "frows", "lifts", "ld", "dzero", "fzero",
                 "covolume", "_members", "_basis")

    def __init__(self, drows, frows, lifts, ld, rank, prime):
        self.drows, self.frows, self.lifts, self.ld = drows, frows, lifts, ld
        dpiv, fpiv = [r[0] for r in drows], [r[0] for r in frows]
        self.dzero = [k for k in range(rank) if k not in dpiv]
        self.fzero = [k for k in self.dzero if k not in fpiv]
        fn = fd = dn = dd = 1
        for c, n, d in frows:
            fn, fd = fn * n[c], fd * d
        for c, n, d in drows:
            dn, dd = dn * n[c], dd * d
        if drows:
            fn *= prime_to_p_part(dn, prime)
            fd *= prime_to_p_part(dd, prime)
        self.covolume = fn, fd
        self._members = self._basis = None

    # made on first use: inclusion alone reads members, and join and the
    # convex parts alone the basis

    @property
    def members(self):
        if self._members is None:
            self._members = (
                [(tuple(zip(n, repeat(d))), True) for _, n, d in self.drows]
                + [(tuple(zip(n, repeat(self.ld))), False)
                   for n in self.lifts])
        return self._members

    @property
    def basis(self):
        """D's rows, then F's lifts, as Fraction vectors."""
        if self._basis is None:
            self._basis = (
                tuple(tuple(Fraction(x, d) for x in n)
                      for _, n, d in self.drows)
                + tuple(tuple(Fraction(x, self.ld) for x in n)
                        for n in self.lifts))
        return self._basis


def _scale_to_int(vecs):
    """Integer numerators of rational vectors over their least common
    denominator, and that denominator."""
    denom = math.lcm(*(c.denominator for v in vecs for c in v))
    return [[c.numerator * (denom // c.denominator) for c in v]
            for v in vecs], denom


def _canon(g: OGroup):
    """g's canonical form, kept on g."""
    return g._form


def _build_canon(g: OGroup):
    """g's canonical form, read off one integer echelon of each part."""
    p, rank, nc = g.prime, g.rank, len(g.p_closed)
    ints, den = _scale_to_int(g.closed_gens() + g.free_gens() if nc
                              else g.gens)
    divgens, free = ints[:nc], ints[nc:]
    if rank == 1:
        # a column's Z-echelon is the gcd of its entries, and once a
        # nonzero generator is p-closed every free one lands in its span
        n = math.gcd(*(v[0] for v in ints))
        if any(v[0] for v in divgens):
            return _Canon([(0, [n], den * (n // prime_to_p_part(n, p)))],
                          [], [], den, rank, p)
        return _Canon([], [(0, [n], den)] * bool(n), [[n]] * bool(n), den,
                      rank, p)
    frows, lifts, d = [], [], 1
    if free:
        # the free generators modulo span_Q(closed), taken down the closed
        # generators' echelon rows: v * n[c] - v[c] * n at each row n, so
        # all of them are scaled by the one positive factor d; row_echelon
        # compares absolute values and takes floor quotients, so on d * M
        # it makes the same choices, and the same transform, as on M
        proj = free
        for n in row_echelon(divgens)[0] if nc else ():
            c = _leading_index(n)
            if c is not None:
                proj = [[x * n[c] - v[c] * y for x, y in zip(v, n)]
                        for v in proj]
                d *= n[c]
        for row, combo in zip(*row_echelon(proj)):
            c = _leading_index(row)
            if c is None and not nc:
                break
            # with nothing projected, each echelon row is its own lift
            lift = [sum(x * v[k] for x, v in zip(combo, free) if x)
                    for k in range(rank)] if nc else row
            if c is not None:
                frows.append((c, row, den * d))
                lifts.append(lift)
            elif any(lift):
                # lands in span_Q(closed) and joins the Z[1/p] part, by the
                # Bezout identity Z x + Z[1/p] m x = Z[1/p] x, m prime to p
                divgens.append(lift)
    drows = []
    if divgens:
        # each D row divided by the power of p in its pivot, all of them
        # over the one denominator den * top; then each entry above a later
        # pivot reduced modulo it
        rows = [r for r in row_echelon(divgens)[0] if any(r)]
        piv = [_leading_index(r) for r in rows]
        cut = [r[c] // prime_to_p_part(r[c], p) for r, c in zip(rows, piv)]
        top = max(cut, default=1)
        rows = [[x * (top // k) for x in r] for r, k in zip(rows, cut)]
        for j, c in enumerate(piv):
            for r in rows[:j]:
                q = r[c] // rows[j][c]
                if q:
                    r[:] = [x - q * y for x, y in zip(r, rows[j])]
        drows = [(c, r, den * top) for c, r in zip(piv, rows)]
    return _Canon(drows, frows, lifts, den, rank, p)


def _solve(xs, rows, p, zero, coeffs=None):
    """x, the rationals xs[k] = (numerator, denominator), less its
    coefficients on the echelon rows, or None once a coefficient fails or
    the remainder is not 0 at the columns zero.

    On a row (c, n, d) the coefficient is a*d / b, xs[c] = (a, e) and
    b = e * n[c]: an integer for p = 1 (b | a*d), in Z[1/p] for a prime p
    (b | a*d * p^k, k the bit length of b), anything for p = 0, which
    projects x modulo the rows' span.  Integer ones are appended to
    coeffs.  x changes right of the pivot alone, in a new list.
    """
    for c, n, d in rows:
        a, e = xs[c]
        if a:
            b = e * n[c]
            if p:
                num = a * d
                if p > 1:
                    num *= p ** b.bit_length()
                if num % b:
                    return None
                if coeffs is not None:
                    coeffs.append(num // b)
            if c + 1 < len(xs):
                xs = list(xs)
                for k in range(c + 1, len(xs)):
                    m = n[k]
                    if m:
                        xn, xd = xs[k]
                        xs[k] = xn * b - a * m * xd, xd * b
        elif coeffs is not None:
            coeffs.append(0)
    for k in zero:
        if xs[k][0]:
            return None
    return xs


def _holds(c: _Canon, xs, p, divisible=False) -> bool:
    """Whether x, the rationals xs[k] = (numerator, denominator), lies in
    the group of form c and prime p, or in its divisible part.

    Two triangular solves: x modulo span_Q(D) against F, and what is left
    once F's lifts are taken off against D.
    """
    if c.frows and not divisible:
        if not c.drows:
            return _solve(xs, c.frows, 1, c.fzero) is not None
        coeffs = []
        if _solve(_solve(xs, c.drows, 0, ()), c.frows, 1, c.fzero,
                  coeffs) is None:
            return False
        ld = c.ld
        xs = [(a * ld - sum(q * f[k] for q, f in zip(coeffs, c.lifts)) * e,
               e * ld) for k, (a, e) in enumerate(xs)]
    return _solve(xs, c.drows, p, c.dzero) is not None


def contains(g: OGroup, x) -> bool:
    """Membership, by the two triangular solves against g's form."""
    # x read as _coerce_vec reads it, straight into (numerator, denominator)
    # pairs; _coerce_vec itself raises on the wrong number of coordinates
    xs = ([fr(q).as_integer_ratio() for q in x]
          if isinstance(x, (tuple, list)) else [fr(x).as_integer_ratio()])
    if len(xs) != g.rank:
        _coerce_vec(x, g.rank)
    return _holds(g._form, xs, g.prime)


def subset(g: OGroup, h: OGroup) -> bool:
    """Whether h is contained in g: each lift of h's F must lie in g, and
    each row of h's D in g's divisible part, under the same prime."""
    if g.rank != h.rank:
        raise ValidationError("rank mismatch")
    cg, ch = g._form, h._form
    if ch.drows and g.prime != h.prime:
        # a q-divisible nonzero element cannot sit inside a group whose
        # divisible part is closed under a different prime only
        return False
    for xs, divisible in ch.members:
        if not _holds(cg, xs, g.prime, divisible):
            return False
    return True


def same_group(g: OGroup, h: OGroup) -> bool:
    return subset(g, h) and subset(h, g)


def index(g: OGroup, h: OGroup):
    """[g : h] as a positive int, or INFINITE.

    Requires h to be a subgroup of g of the same rank.  The index is finite
    exactly when the two Q-spans and the two divisible spans agree; then
    both forms have the same pivot columns, and it is the ratio of the
    covolumes.
    """
    if not subset(g, h):
        raise ValidationError("h is not a subgroup of g")
    cg, ch = g._form, h._form
    if len(cg.drows) != len(ch.drows) or len(cg.frows) != len(ch.frows):
        return INFINITE
    (gn, gd), (hn, hd) = cg.covolume, ch.covolume
    return hn * gd // (hd * gn)


def is_p_divisible(g: OGroup, p: int) -> bool:
    """Whether g = p*g.  p = 1 counts as trivially divisible."""
    if p == 1 or g.is_trivial():
        return True
    c = _canon(g)
    if c.frows:
        return False
    return (not c.drows) or g.prime == p


def join(g: OGroup, extra_gens) -> OGroup:
    """The group generated by g and additional generators.

    It is presented by g's canonical basis followed by the new nonzero
    values, so repeated joins keep at most rank + len(extra_gens)
    generators.
    """
    c = _canon(g)
    extra = [_coerce_vec(x, g.rank) for x in extra_gens]
    return ogroup(list(c.basis) + extra, closed=range(len(c.drows)),
                  prime=g.prime, rank=g.rank)


# ---------------------------------------------------------------------------
# convex subgroups


@dataclass(frozen=True)
class ConvexPart:
    group: OGroup
    cut_index: int


def _convex_at(g: OGroup, ell: int) -> OGroup:
    """The subgroup of elements whose first ell coordinates vanish.

    An element is x = a.D + n.F, a over Z[1/p] on D's rows and n over Z
    on F's lifts.  With L holding each lift's coefficients on D, the lift
    less them is its projected row, so x = (a + n.L).D + n.P.  D's rows and
    F's projected rows P have different pivot columns, and a row whose
    pivot is at or after ell has a zero head, so x has a zero head exactly
    when n is 0 on the F rows with pivot < ell and a + n.L is 0 on D', the
    D rows with pivot < ell (a prefix of D, as is the F rows' cut).  The
    part is therefore the sum of

      * Z[1/p] times the D rows with pivot >= ell, and
      * the vectors n.(F - L'.D'), n running over the F rows with pivot
        >= ell and n.L' over Z[1/p], L' being L's columns on D'.

    A triangular solve of each such lift's head down D' gives both L' and
    the reduced vector.  With L' = M / m and q the prime-to-p part of m,
    n.L' lies in Z[1/p] exactly when n.M = 0 mod q, whose solutions are
    the integer kernel of M stacked on q times the identity, cut to its
    first len(M) coordinates.

    The result is presented by its canonical basis, each vector made
    lex-positive; a brute-force cross-check lives in the tests.
    """
    if ell <= 0 or g.is_trivial():
        return g
    c, p = _canon(g), g.prime
    s = len(c.drows)
    cut = sum(k < ell for k, _, _ in c.drows)
    dprime = c.basis[:cut]
    lifts, coeffs = [], []
    for (k, _, _), v in zip(c.frows, c.basis[s:]):
        if k >= ell:
            ls = []
            for (j, _, _), u in zip(c.drows, dprime):
                a = v[j] / u[j]
                v = [x - a * y for x, y in zip(v, u)]
                ls.append(a)
            lifts.append(v)
            coeffs.append(ls)
    mat, m = _scale_to_int(coeffs)
    q = prime_to_p_part(m, p)
    ker = int_kernel(mat + [[q * (i == j) for j in range(cut)]
                            for i in range(cut)])
    closed = list(c.basis[cut:s])
    free = [[sum(n * v[k] for n, v in zip(z, lifts) if n)
             for k in range(g.rank)] for z in ker]
    # the kernel presentation is thrown away, so its form is built without
    # being kept; the part keeps its own form, built on first use
    raw = _build_canon(ogroup(closed + free, closed=range(len(closed)),
                              prime=p if closed else 1, rank=g.rank))
    basis = [v if _lex_positive(v) else tuple(-x for x in v)
             for v in raw.basis]
    return ogroup(basis, closed=range(len(raw.drows)),
                  prime=p if raw.drows else 1, rank=g.rank)


def convex_core(g: OGroup, x) -> ConvexPart:
    """Smallest convex subgroup of g containing x.

    x must be a positive element of g; the result consists of all
    elements whose leading coordinate position is at least that of x,
    reported with the cut position.
    """
    vec = _coerce_vec(x, g.rank)
    if not contains(g, vec):
        raise ValidationError("x is not an element of the group")
    if not _lex_positive(vec):
        raise ValidationError("x must be positive")
    ell = _leading_index(vec)
    return ConvexPart(group=_convex_at(g, ell), cut_index=ell)


def project_trailing(g: OGroup, ell: int) -> OGroup:
    """Drop the leading ell coordinates of the convex part at ell.

    Used to compare a composed group's lower block against a core
    group given in its own coordinates.
    """
    if ell >= g.rank:
        raise ValidationError("nothing left after projection")
    return project(_convex_at(g, ell), ell, g.rank)


def project(g: OGroup, lo: int, hi: int) -> OGroup:
    """The image of g on the coordinates lo..hi-1.

    Generators keep their order and their p-closure; the prime stays
    only while a closed generator survives the projection.
    """
    gens = [gen[lo:hi] for gen in g.gens]
    closed = [i for i in g.p_closed if any(gens[i])]
    return ogroup(gens, closed=closed, prime=g.prime if closed else 1,
                  rank=hi - lo)


# ---------------------------------------------------------------------------
# hulls and composition


def hull(g: OGroup, kind: str, level, p: int) -> OGroup:
    """Divisible hulls.

    kind "p_div": close generators under division by p; level "exact"
    closes completely, an integer level k scales generators by p**-k.
    kind "p_prime_div": divide by all integers up to level that are
    coprime to p (level must be a positive integer; "exact" is not a
    finitely presented group).  A hull whose scale needs an integer longer
    than the interpreter converts to text (sys.get_int_max_str_digits(), 0
    for no limit) is refused, the scale given up once it passes that length.
    """
    if kind == "p_div":
        if level == "exact":
            if p <= 1:
                raise ValidationError("exact p-divisible hull needs a prime")
            if g.prime not in (1, p) and g.p_closed:
                raise ValidationError("conflicting primes")
            return ogroup(list(g.gens), closed=range(len(g.gens)), prime=p, rank=g.rank)
        k = int(level)
        if k < 0:
            raise ValidationError("negative hull level")
        den = printable_power(p, k, "hull level %s" % (level,))
    elif kind == "p_prime_div":
        if level == "exact":
            raise ValidationError("the full prime-to-p hull is not finitely presented")
        n = int(level)
        if n < 1:
            raise ValidationError("hull level must be positive")
        bound, den = int_text_bound(), 1
        for m in range(1, n + 1):
            if p <= 1 or m % p != 0:
                den = math.lcm(den, m)
            if den >= bound:
                raise too_long_to_print("hull level %s" % (level,))
    else:
        raise ValidationError("unknown hull kind: %r" % (kind,))
    return ogroup([tuple(c / den for c in v) for v in g.gens],
                  closed=g.p_closed, prime=g.prime, rank=g.rank)


def lex_compose(outer: OGroup, inner: OGroup) -> OGroup:
    """Lexicographic product, outer coordinates more significant."""
    if outer.prime == inner.prime:
        prime = outer.prime
    elif outer.prime == 1:
        prime = inner.prime
    elif inner.prime == 1:
        prime = outer.prime
    else:
        raise ValidationError("incompatible primes %d and %d" % (outer.prime, inner.prime))
    rank = outer.rank + inner.rank
    gens = []
    closed = set()
    zo = (Fraction(0),) * inner.rank
    zi = (Fraction(0),) * outer.rank
    for i, g in enumerate(outer.gens):
        if i in outer.p_closed:
            closed.add(len(gens))
        gens.append(tuple(g) + zo)
    for i, g in enumerate(inner.gens):
        if i in inner.p_closed:
            closed.add(len(gens))
        gens.append(zi + tuple(g))
    return ogroup(gens, closed=closed, prime=prime, rank=rank)


# ---------------------------------------------------------------------------
# serialization


def vec_to_json(v) -> list:
    """A vector as JSON: one [numerator, denominator] pair at rank 1, a list
    of pairs otherwise."""
    pairs = [[q.numerator, q.denominator] for q in v]
    return pairs[0] if len(pairs) == 1 else pairs


def vec_from_json(item, what: str) -> tuple:
    """vec_to_json's form read back: a pair, or a list of pairs."""
    coords = item if isinstance(item, list) and item and \
        isinstance(item[0], list) else [item]
    return tuple(json_fraction(c, what) for c in coords)


def to_json(g: OGroup) -> dict:
    return {
        "rank": g.rank,
        "gens": [vec_to_json(v) for v in g.gens],
        "p_closed": sorted(g.p_closed),
        "prime": g.prime,
    }


def from_json(d: dict) -> OGroup:
    """A group from to_json's form; each generator a pair or a list of pairs."""
    what = "value group"
    json_keys(d, what, ("rank", "gens", "p_closed", "prime"))
    rank = json_get(d, "rank", what, int)
    gens = [vec_from_json(item, "%s generator %d" % (what, i))
            for i, item in enumerate(json_get(d, "gens", what, list))]
    closed = [json_int(i, "%s p_closed index" % what)
              for i in json_get(d, "p_closed", what, list, [])]
    return ogroup(gens, closed=closed, prime=json_get(d, "prime", what, int, 1),
                  rank=rank)
