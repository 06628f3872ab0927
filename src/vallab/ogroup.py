"""Finitely presented ordered abelian subgroups of Q^r with lex order.

A group is presented by generators; a designated subset of them is
closed under division by a fixed prime p, so the group is

    G = Z g_1 + ... + Z g_k  +  Z[1/p] h_1 + ... + Z[1/p] h_m

sitting inside Q^r ordered lexicographically (most significant
coordinate first).  Internally every group is brought to a canonical
direct-sum form

    G = Z[1/p] b_1 + ... + Z[1/p] b_s  (+)  Z c_1 + ... + Z c_t

with b_i, c_j jointly Q-independent.  Membership, index, p-divisibility,
convex subgroups and hulls all reduce to linear algebra against this
form.  The divisible summand is the maximal p-divisible subgroup, which
is what makes the decomposition canonical enough for index computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ValidationError, json_fraction, json_get, json_int
from .intlinalg import (
    det,
    diagonalize_with_basis,
    int_kernel,
    lattice_basis,
    lattice_solve,
    prime_to_p_part,
    rational_solve,
    row_echelon,
)
from .values import INFINITE, fr


def _coerce_vec(x, rank: int):
    """A value as a tuple of rank Fractions; a bare rational is rank 1."""
    v = tuple(fr(c) for c in x) if isinstance(x, (tuple, list)) else (fr(x),)
    if len(v) != rank:
        raise ValidationError("rank mismatch: expected %d coordinates, got %d" % (rank, len(v)))
    return v


def _lex_positive(v) -> bool:
    for c in v:
        if c != 0:
            return c > 0
    return False


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
        if self.prime == 1 and self.p_closed:
            raise ValidationError("prime 1 admits no p-closed generators")
        for i in self.p_closed:
            if not (0 <= i < len(self.gens)):
                raise ValidationError("p_closed index out of range")

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


def cyclic(q, rank=1) -> OGroup:
    return ogroup([q], rank=rank)


def trivial(rank: int = 1) -> OGroup:
    return OGroup(rank=rank, gens=(), p_closed=frozenset(), prime=1)


# ---------------------------------------------------------------------------
# canonical form


class _Canon:
    __slots__ = ("div", "free", "cols")

    def __init__(self, div, free):
        self.div = div      # tuple of Fraction vectors, Z[1/p] summand basis
        self.free = free    # tuple of Fraction vectors, Z summand basis
        self.cols = [list(v) for v in div] + [list(v) for v in free]


def _scale_to_int(vecs):
    denom = 1
    for v in vecs:
        for c in v:
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
    return [[int(c * denom) for c in v] for v in vecs], denom


def _q_reducer(rows):
    """Rational row echelon of rows; returns (echelon, pivot_cols)."""
    a = [[Fraction(c) for c in r] for r in rows]
    ncols = len(a[0]) if a else 0
    piv_cols = []
    row = 0
    for col in range(ncols):
        sel = None
        for i in range(row, len(a)):
            if a[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for i in range(len(a)):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        piv_cols.append(col)
        row += 1
    return a[:row], piv_cols


def _reduce_mod_span(x, ech, piv_cols):
    """Canonical representative of x modulo the row span of ech."""
    x = list(x)
    for r, col in zip(ech, piv_cols):
        f = x[col]
        if f != 0:
            x = [a - f * b for a, b in zip(x, r)]
    return x


@lru_cache(maxsize=4096)
def _canon(g: OGroup) -> _Canon:
    closed = [list(v) for v in g.closed_gens()]
    free = [list(v) for v in g.free_gens()]
    p = g.prime

    # complement of the divisible span, for projecting the free part
    ech, piv = _q_reducer(closed) if closed else ([], [])

    proj_free = [_reduce_mod_span(v, ech, piv) for v in free]
    int_proj, _ = _scale_to_int([[Fraction(c) for c in v] for v in proj_free]) \
        if proj_free else ([], 1)

    div_gen_vecs = list(closed)
    free_basis = []
    if free:
        ech2, t2 = row_echelon(int_proj, track=True)
        for i in range(len(free)):
            combo = t2[i]
            vec = [sum(Fraction(combo[j]) * Fraction(free[j][c]) for j in range(len(free)))
                   for c in range(g.rank)]
            if any(x != 0 for x in ech2[i]):
                free_basis.append(vec)
            else:
                # lands in the divisible span: joins the Z[1/p] summand,
                # legitimately, by the Bezout identity  Z x + Z[1/p] m x = Z[1/p] x
                # applied after diagonalization below
                if any(c != 0 for c in vec):
                    div_gen_vecs.append(vec)

    div_basis = []
    if div_gen_vecs:
        int_div, denom = _scale_to_int([[Fraction(c) for c in v] for v in div_gen_vecs])
        diag, basis = diagonalize_with_basis(int_div, g.rank)
        for d, u in zip(diag, basis):
            m = prime_to_p_part(d, p)
            div_basis.append([Fraction(m * c, denom) for c in u])

    return _Canon(tuple(tuple(v) for v in div_basis),
                  tuple(tuple(v) for v in free_basis))


def _solve_in_canon(g: OGroup, vec):
    """Coordinates of vec in the canonical basis, or None if outside span."""
    c = _canon(g)
    if not c.cols:
        return ([], []) if all(x == 0 for x in vec) else None
    sol = rational_solve(c.cols, list(vec))
    if sol is None:
        return None
    s = len(c.div)
    return sol[:s], sol[s:]


def _is_p_power_denominator(q: Fraction, p: int) -> bool:
    d = q.denominator
    if p <= 1:
        return d == 1
    while d % p == 0:
        d //= p
    return d == 1


def contains(g: OGroup, x) -> bool:
    """Membership test against the canonical decomposition."""
    vec = _coerce_vec(x, g.rank)
    sol = _solve_in_canon(g, vec)
    if sol is None:
        return False
    divc, freec = sol
    return (all(_is_p_power_denominator(q, g.prime) for q in divc)
            and all(q.denominator == 1 for q in freec))


def in_divisible_part(g: OGroup, x) -> bool:
    """Membership in the maximal p-divisible subgroup of g."""
    vec = _coerce_vec(x, g.rank)
    sol = _solve_in_canon(g, vec)
    if sol is None:
        return False
    divc, freec = sol
    return (all(_is_p_power_denominator(q, g.prime) for q in divc)
            and all(q == 0 for q in freec))


def subset(g: OGroup, h: OGroup) -> bool:
    """Whether h is contained in g (h's closed gens must land divisibly)."""
    if g.rank != h.rank:
        raise ValidationError("rank mismatch")
    if h.p_closed and g.prime != h.prime:
        # a q-divisible nonzero element cannot sit inside a group whose
        # divisible summand is closed under a different prime only
        return False
    for i, gen in enumerate(h.gens):
        if i in h.p_closed:
            if not in_divisible_part(g, gen):
                return False
        elif not contains(g, gen):
            return False
    return True


def same_group(g: OGroup, h: OGroup) -> bool:
    return subset(g, h) and subset(h, g)


def index(g: OGroup, h: OGroup):
    """[g : h] as a positive int, or INFINITE.

    Requires h to be a subgroup of g of the same rank.  Finite exactly
    when the two Q-spans and the two divisible-part spans agree; then
    the index splits as prime-to-p part of the divisible determinant
    times the free determinant.
    """
    if g.rank != h.rank:
        raise ValidationError("rank mismatch")
    if not subset(g, h):
        raise ValidationError("h is not a subgroup of g")
    cg, ch = _canon(g), _canon(h)
    if len(cg.div) != len(ch.div) or len(cg.cols) != len(ch.cols):
        return INFINITE
    if not cg.cols:
        return 1
    s = len(cg.div)
    mdiv = []
    mfree = []
    for vec in ch.div:
        sol = rational_solve(cg.cols, list(vec))
        assert sol is not None
        assert all(q == 0 for q in sol[s:]), "divisible part escaped its span"
        mdiv.append(sol[:s])
    for vec in ch.free:
        sol = rational_solve(cg.cols, list(vec))
        assert sol is not None
        mfree.append(sol[s:])
    idx = 1
    if s:
        d = det(mdiv)
        if d == 0:
            return INFINITE
        p = g.prime
        num = prime_to_p_part(d.numerator, p)
        den = prime_to_p_part(d.denominator, p)
        assert den == 1, "divisible coordinates must lie in Z[1/p]"
        idx *= num
    if mfree:
        d = det(mfree)
        if d == 0:
            return INFINITE
        assert d.denominator == 1, "free coordinates must be integral"
        idx *= abs(d.numerator)
    return idx


def is_p_divisible(g: OGroup, p: int) -> bool:
    """Whether g = p*g.  p = 1 counts as trivially divisible."""
    if p == 1 or g.is_trivial():
        return True
    c = _canon(g)
    if c.free:
        return False
    return (not c.div) or g.prime == p


def join(g: OGroup, extra_gens, closed=()) -> OGroup:
    """The group generated by g and additional generators."""
    gens = list(g.gens) + [(_coerce_vec(x, g.rank)) for x in extra_gens]
    cl = set(g.p_closed) | {len(g.gens) + i for i in closed}
    prime = g.prime
    if cl and prime == 1:
        raise ValidationError("cannot close generators without a prime")
    return OGroup(rank=g.rank, gens=tuple(gens), p_closed=frozenset(cl), prime=prime)


# ---------------------------------------------------------------------------
# convex subgroups


@dataclass(frozen=True)
class ConvexPart:
    group: OGroup
    cut_index: int


def _convex_at(g: OGroup, ell: int) -> OGroup:
    """The subgroup of elements whose first ell coordinates vanish.

    Splits off the kernel of the divisible summand first, then lifts the
    sublattice of the free summand whose image falls inside the
    divisible image; a brute-force cross-check lives in the tests.
    """
    if ell <= 0 or g.is_trivial():
        return g
    c = _canon(g)
    p = g.prime

    def sig(v):
        return [Fraction(x) for x in v[:ell]]

    def combine(coeffs, vecs):
        return [sum(fr(coeffs[i]) * vecs[i][k] for i in range(len(vecs)))
                for k in range(g.rank)]

    # part one: Z[1/p]-combinations of the divisible basis that project to zero
    div_kernel = []
    int_u, du = ([], 1)
    if c.div:
        int_u, du = _scale_to_int([sig(v) for v in c.div])
        for combo in int_kernel(int_u):
            vec = combine(combo, c.div)
            if any(x != 0 for x in vec):
                div_kernel.append(vec)

    # part two: integer combinations of the free basis whose projection lies
    # in U, the Z[1/p]-span of the projected divisible basis
    free_lifts = []
    if c.free:
        sig_free = [sig(v) for v in c.free]
        u_basis = []   # Z[1/p]-module basis of U
        u_wits = []    # ambient w in the divisible summand with sig(w) = u_basis entry
        if c.div:
            diag, basis = diagonalize_with_basis(int_u, ell)
            for d, u in zip(diag, basis):
                m = prime_to_p_part(d, p)
                u_basis.append([Fraction(m * x, du) for x in u])
                target = [m * x for x in u]
                e = 0
                z = lattice_solve(int_u, target)
                while z is None:
                    e += 1
                    target = [x * p for x in target]
                    z = lattice_solve(int_u, target)
                    assert e <= 64, "runaway p-exponent in hull witness"
                w = combine(z, c.div)
                u_wits.append([x / Fraction(p ** e) for x in w])

        # rational condition first: projection inside the Q-span of U
        if u_basis:
            ech, piv = _q_reducer(u_basis)
            resid = [_reduce_mod_span(v, ech, piv) for v in sig_free]
        else:
            resid = sig_free
        int_resid, _ = _scale_to_int([[Fraction(x) for x in r] for r in resid])
        lam1 = int_kernel(int_resid)

        lam = lam1
        if lam1 and u_basis:
            # denominator condition: U-coordinates must land in Z[1/p].
            # Working modulo Z[1/p] kills p-power denominators, leaving a
            # congruence system over Z/nn for the prime-to-p parts.
            ucols = [list(v) for v in u_basis]
            psi = []
            nn = 1
            for combo in lam1:
                tv = [sum(Fraction(combo[i]) * sig_free[i][k]
                          for i in range(len(c.free))) for k in range(ell)]
                sol = rational_solve(ucols, tv)
                assert sol is not None
                psi.append(sol)
                for q in sol:
                    dd = prime_to_p_part(q.denominator, p)
                    nn = nn * dd // math.gcd(nn, dd)
            if nn > 1:
                mrows = []
                for row in psi:
                    mrow = []
                    for q in row:
                        n0 = prime_to_p_part(q.denominator, p)
                        if n0 == 1:
                            mrow.append(0)
                            continue
                        pk = q.denominator // n0
                        y = (q.numerator * pow(pk % n0, -1, n0)) % n0
                        mrow.append((y * (nn // n0)) % nn)
                    mrows.append(mrow)
                # integer kernel of [M | nn*I] projected to the M block
                d0, sp = len(lam1), len(u_basis)
                sysrows = [mrows[i] for i in range(d0)]
                for t in range(sp):
                    r0 = [0] * sp
                    r0[t] = nn
                    sysrows.append(r0)
                lam = []
                for kv in int_kernel(sysrows):
                    cvec = kv[:d0]
                    if any(x != 0 for x in cvec):
                        lam.append([sum(cvec[i] * lam1[i][j] for i in range(d0))
                                    for j in range(len(c.free))])
                lam = lattice_basis(lam) if lam else []

        for combo in lam:
            vec = combine(combo, c.free)
            if u_basis:
                sol = rational_solve([list(v) for v in u_basis], sig(vec))
                assert sol is not None
                for qcoef, w in zip(sol, u_wits):
                    assert _is_p_power_denominator(qcoef, p), \
                        "congruence filter let a bad denominator through"
                    vec = [vv - qcoef * wv for vv, wv in zip(vec, w)]
            assert all(x == 0 for x in sig(vec))
            if any(x != 0 for x in vec):
                free_lifts.append(vec)

    gens = div_kernel + free_lifts
    if not gens:
        return trivial(g.rank)
    prime = g.prime if div_kernel else 1
    return ogroup(gens, closed=range(len(div_kernel)), prime=prime, rank=g.rank)


def convex_core(g: OGroup, x, p: int) -> ConvexPart:
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


def is_roughly_p_divisible(g: OGroup, vp, p: int) -> bool:
    """p-divisibility of the smallest convex subgroup containing vp.

    vp = None marks equal characteristic, where the whole group is used.
    """
    if vp is None:
        return is_p_divisible(g, p)
    return is_p_divisible(convex_core(g, vp, p).group, p)


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
    finitely presented group).
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
        scale = Fraction(1, p ** k)
        return ogroup([tuple(c * scale for c in v) for v in g.gens],
                      closed=g.p_closed, prime=g.prime, rank=g.rank)
    if kind == "p_prime_div":
        if level == "exact":
            raise ValidationError("the full prime-to-p hull is not finitely presented")
        n = int(level)
        if n < 1:
            raise ValidationError("hull level must be positive")
        lcm = 1
        for m in range(1, n + 1):
            if p <= 1 or m % p != 0:
                g0 = math.gcd(lcm, m)
                lcm = lcm * m // g0
        scale = Fraction(1, lcm)
        return ogroup([tuple(c * scale for c in v) for v in g.gens],
                      closed=g.p_closed, prime=g.prime, rank=g.rank)
    raise ValidationError("unknown hull kind: %r" % (kind,))


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


def to_json(g: OGroup) -> dict:
    def enc(q: Fraction):
        return [q.numerator, q.denominator]

    if g.rank == 1:
        gens = [enc(v[0]) for v in g.gens]
    else:
        gens = [[enc(c) for c in v] for v in g.gens]
    return {
        "rank": g.rank,
        "gens": gens,
        "p_closed": sorted(g.p_closed),
        "prime": g.prime,
    }


def from_json(d: dict) -> OGroup:
    """A group from to_json's form; each generator a pair or a list of pairs."""
    what = "value group"
    rank = json_get(d, "rank", what, int)
    gens = []
    for i, item in enumerate(json_get(d, "gens", what, list)):
        coords = item if isinstance(item, list) and item and \
            isinstance(item[0], list) else [item]
        gens.append(tuple(json_fraction(c, "%s generator %d" % (what, i))
                          for c in coords))
    closed = [json_int(i, "%s p_closed index" % what)
              for i in json_get(d, "p_closed", what, list, [])]
    return ogroup(gens, closed=closed, prime=json_get(d, "prime", what, int, 1),
                  rank=rank)
