"""Brute-force oracles used to cross-check the library.

Everything here is deliberately naive: bounded coefficient searches,
permutation-sum determinants and back-substitution against an echelon
form for the linear-algebra layer, and closed-form series expansions of
tower generators for the valuation rules, independent of the
implementations under test.  The tower's value and residue rules are kept
here in their earlier termwise form, the group inclusion test in its
earlier per-generator form, and the rational row echelon, the canonical
group basis, the group coordinate map and the verify suite's rank-1
membership and coset-count oracles in their earlier Fraction forms, as
references for the fast paths; so is the series ring, keyed by Fraction
exponents, for the integer ones.  The group basis the library used
before its echelon form, with a diagonal divisible part, is kept too,
and membership and index by the coordinate map on it, the way the
library computed them before its triangular solves, as the reference for
those solves at every rank.  The Smith-style diagonalization with an
adapted basis that built that diagonal part is kept with the convex part
it computed by diagonalizing the kernel, the reference for the convex
part read off the echelon form, and a seeded sample of groups to compare
the two on.  Tower values also have an independent
oracle, the norm v(N(x)) / [L:K] by a division-free determinant, and a
p-th power up to a threshold has a term-by-term reference, the lift
of lambda = zeta_p - 1 its earlier Newton form in the digit ring,
digit-ring division its earlier long division, and the digit ring's
products, sums and shifts their earlier build-then-fold form.  It also
builds series from term dicts (with no value-group check), parses the
text that SeriesElem.to_text and PadicElem.to_text print back into
elements, draws seeded mixed-characteristic descriptors, and runs code
that may hang in a child interpreter under a timeout.

The dense lower Newton polygon of a polynomial given by its coefficient
values is the reference for the root values the tower reads off its two
relations in closed form.
"""

import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd, lcm, prod

from vallab.errors import PrecisionError, ValidationError
from vallab.intlinalg import (int_kernel, p_exponent, prime_to_p_part,
                              row_echelon)
from vallab.ogroup import (_build_canon, _canon, _coerce_vec, _convex_at,
                           _leading_index, _lex_positive, _scale_to_int,
                           contains, ogroup, same_group)
from vallab.values import INFINITE, Indeterminate, fr, sum_text, term_text
from vallab.tower import TElem
from vallab.vbase import EqBase, PadicBase, PadicElem, SeriesElem, _fold


def brute_contains(free, closed, p, x, bound=10, kmax=6):
    """Is x an integer combination of free gens and closed gens over Z[1/p]?

    Searches integer coefficients in [-bound, bound] after pushing every
    closed generator down by p**k, for each k up to kmax.  Sound but only
    complete for small witnesses; keep test vectors small.
    """
    x = tuple(Fraction(c) for c in x)
    rank = len(x)
    free = [tuple(Fraction(c) for c in v) for v in free]
    closed = [tuple(Fraction(c) for c in v) for v in closed]
    for k in range(kmax):
        scale = Fraction(1, p ** k) if closed else Fraction(1)
        vecs = free + [tuple(c * scale for c in v) for v in closed]
        if not vecs:
            if all(c == 0 for c in x):
                return True
            continue
        for coeffs in product(range(-bound, bound + 1), repeat=len(vecs)):
            tot = tuple(sum(coeffs[i] * vecs[i][j] for i in range(len(vecs)))
                        for j in range(rank))
            if tot == x:
                return True
    return False


def rank1_member(free, closed, p, x, kcap=24):
    """Membership in a rank-1 group by Fraction gcd arithmetic.

    For each k below kcap, scale x and the generators free + closed/p^k
    to integers over their common denominator and test x against the gcd.
    This is the verify suite's earlier oracle, kept as the reference for
    its integer form.
    """
    x = Fraction(x)
    for k in range(kcap if closed else 1):
        gens = [Fraction(g) for g in free]
        gens += [Fraction(h) / p ** k for h in closed]
        if not gens:
            return x == 0
        d = lcm(x.denominator, *(g.denominator for g in gens))
        ints = [int(g * d) for g in gens]
        g0 = ints[0]
        for n in ints[1:]:
            g0 = gcd(g0, n)
        g0 = abs(g0)
        if g0 == 0:
            if x == 0:
                return True
        elif int(x * d) % g0 == 0:
            return True
    return False


def coset_count_pairwise(m, cap=200):
    """Order of Z^2 / mZ^2 by breadth-first enumeration.

    Membership in the image lattice is decided by inverting m over the
    rationals, and each new point is compared with every representative
    so far.  This is the verify suite's earlier oracle, kept as the
    reference for its keyed form.
    """
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    inv = ((Fraction(m[1][1], det), Fraction(-m[0][1], det)),
           (Fraction(-m[1][0], det), Fraction(m[0][0], det)))

    def in_lattice(y):
        a = inv[0][0] * y[0] + inv[0][1] * y[1]
        b = inv[1][0] * y[0] + inv[1][1] * y[1]
        return a.denominator == 1 and b.denominator == 1

    reps = [(0, 0)]
    queue = [(0, 0)]
    while queue:
        cur = queue.pop()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (cur[0] + dx, cur[1] + dy)
            if any(in_lattice((nxt[0] - r[0], nxt[1] - r[1]))
                   for r in reps):
                continue
            reps.append(nxt)
            queue.append(nxt)
            if len(reps) > cap:
                raise RuntimeError("coset enumeration exceeded the cap")
    return len(reps)


def rref(rows):
    """Reduced rational row echelon form of rows.

    Returns (echelon, pivot_cols): the nonzero rows, each with a 1 in its
    pivot column and 0 in every other pivot column.  This is the rational
    elimination the library used before its fraction-free one, kept as
    the reference for int_rref.
    """
    a = [[Fraction(c) for c in r] for r in rows]
    ncols = len(a[0]) if a else 0
    piv_cols = []
    row = 0
    for col in range(ncols):
        sel = next((i for i in range(row, len(a)) if a[i][col] != 0), None)
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


def int_rref(rows):
    """Fraction-free reduced row echelon form of integer rows.

    Returns (echelon, pivot_cols, den) with den > 0: echelon holds the
    nonzero rows, each with den in its pivot column and 0 in every other
    pivot column, so echelon / den is the rational reduced echelon form.
    Each step divides exactly by the previous pivot (Bareiss), which keeps
    every entry a minor of rows; den is |det| when rows is square of full
    rank.  The library used it for its projections and coordinate map
    before its triangular solves; it is kept as the coordinate map's
    elimination.
    """
    a = [list(map(int, r)) for r in rows]
    ncols = len(a[0]) if a else 0
    piv_cols = []
    den = 1
    row = 0
    for col in range(ncols):
        sel = next((i for i in range(row, len(a)) if a[i][col]), None)
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        pv = a[row][col]
        for i in range(len(a)):
            if i != row:
                f = a[i][col]
                a[i] = [(pv * x - f * y) // den for x, y in zip(a[i], a[row])]
        den = pv
        piv_cols.append(col)
        row += 1
    if den < 0:
        a, den = [[-x for x in r] for r in a], -den
    return a[:row], piv_cols, den


def reduce_mod_span(x, ech, piv_cols):
    """Canonical representative of x modulo the row span of rref's echelon."""
    x = list(x)
    for r, col in zip(ech, piv_cols):
        f = x[col]
        if f != 0:
            x = [a - f * b for a, b in zip(x, r)]
    return x


def canon_fraction(g):
    """The canonical (div, free) basis of g, computed in Fractions.

    The free generators are reduced modulo the rational echelon of the
    p-closed ones and scaled to integers over their common denominator
    before the integer row echelon.  The divisible basis is the integer row
    echelon of the p-closed generators and the free combinations that land
    in their span, over the generators' common denominator; each row is
    divided by the power of p in its pivot, and each entry above a later
    pivot is reduced modulo that pivot by a Fraction floor.  This is the
    library's form computed without its fraction-free projection and its
    integer reduction, kept as the reference for them.
    """
    closed = [list(v) for v in g.closed_gens()]
    free = [list(v) for v in g.free_gens()]
    ech, piv = rref(closed)
    int_proj, _ = _scale_to_int([reduce_mod_span(v, ech, piv) for v in free])
    div_gen_vecs = list(closed)
    free_basis = []
    if free:
        ech2, t2 = row_echelon(int_proj)
        for i in range(len(free)):
            vec = [sum(x * v[c] for x, v in zip(t2[i], free) if x)
                   for c in range(g.rank)]
            if any(ech2[i]):
                free_basis.append(vec)
            elif any(vec):
                div_gen_vecs.append(vec)
    denom = lcm(*(c.denominator for v in g.gens for c in v))
    rows = row_echelon([[int(c * denom) for c in v] for v in div_gen_vecs])[0]
    div_basis = []
    for row in filter(any, rows):
        a = row[_leading_index(row)]
        div_basis.append([Fraction(c * prime_to_p_part(a, g.prime),
                                   denom * a) for c in row])
    for j, b in enumerate(div_basis):
        col = _leading_index(b)
        for i in range(j):
            q = math.floor(div_basis[i][col] / b[col])
            div_basis[i] = [x - q * y for x, y in zip(div_basis[i], b)]
    return (tuple(tuple(v) for v in div_basis),
            tuple(tuple(v) for v in free_basis))


def diagonalize_with_basis(rows, n):
    """Diagonalize an integer row lattice, tracking an ambient basis.

    Given integer rows spanning a sublattice L of Z^n, returns
    (diag, basis) where diag is a list of positive integers d_1..d_s and
    basis is a list of s vectors u_1..u_s in Z^n extending to a basis of
    Z^n, with L = Z*d_1*u_1 + ... + Z*d_s*u_s.

    Row operations leave L fixed; column operations change ambient
    coordinates and are mirrored on the inverse transform, whose rows
    are the u_i.  The library used it for its diagonal divisible basis
    and its convex parts; it is kept as their reference.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    # cinv rows: current ambient basis expressed in original coordinates
    cinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_swap(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]
        cinv[j], cinv[k] = cinv[k], cinv[j]

    def col_sub(j, k, q):
        # col_j -= q * col_k  on a;  row_k += q * row_j  on cinv
        for r in a:
            r[j] -= q * r[k]
        cinv[k] = [x + q * y for x, y in zip(cinv[k], cinv[j])]

    t = 0
    while True:
        # find a nonzero pivot in the submatrix a[t:, t:]
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            col_swap(t, bj)
        # clear column t below the pivot and row t right of it
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                col_sub(j, t, q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        t += 1
        if t >= m or t >= n:
            break
    diag = []
    basis = []
    for i in range(min(m, n)):
        d = a[i][i] if i < len(a) else 0
        if d != 0:
            diag.append(abs(d))
            basis.append(list(cinv[i]))
    return diag, basis


def canon_diagonal(g):
    """The canonical (div, free) basis of g as the library built it before
    its echelon form, in Fractions: the free basis as canon_fraction's, the
    divisible one from a diagonal presentation of the divisible generators'
    lattice, d_i u_i with its prime-to-p part of d_i kept.  It spans the
    same group by another basis, so the coordinate map on it is a
    reference independent of the echelon form.
    """
    closed = [list(v) for v in g.closed_gens()]
    free = [list(v) for v in g.free_gens()]
    ech, piv = rref(closed)
    div_gen_vecs = list(closed)
    free_basis = []
    if free:
        int_proj, _ = _scale_to_int([reduce_mod_span(v, ech, piv)
                                     for v in free])
        ech2, t2 = row_echelon(int_proj)
        for i in range(len(free)):
            vec = [sum(x * v[c] for x, v in zip(t2[i], free) if x)
                   for c in range(g.rank)]
            if any(ech2[i]):
                free_basis.append(vec)
            elif any(vec):
                div_gen_vecs.append(vec)
    div_basis = []
    if div_gen_vecs:
        int_div, denom = _scale_to_int(div_gen_vecs)
        for d, u in zip(*diagonalize_with_basis(int_div, g.rank)):
            m = prime_to_p_part(d, g.prime)
            div_basis.append([Fraction(m * c, denom) for c in u])
    return (tuple(tuple(v) for v in div_basis),
            tuple(tuple(v) for v in free_basis))


class CoordinateMap:
    """A group's coordinates on a (div, free) basis, kept in integers.

    The map is one int_rref of the basis numerators bn = dn * basis
    augmented by the identity.  Its rows [en | t] over its denominator de
    give E = en/de in reduced echelon form with E = (t/de) * bn, so
    E = T * basis for T = tn/de, tn = dn * t.  A vector in the Q-span is
    the sum of its pivot entries times the rows of E, so its coordinates
    are those entries times T.  This is the map the library read at rank
    >= 2 before its triangular solves, kept as their reference.
    """

    def __init__(self, div, free, rank):
        self.div = div
        self.free = free
        self.basis = div + free
        n = len(self.basis)
        bn, dn = _scale_to_int(self.basis)
        aug, self.piv, self.de = int_rref(
            [v + [int(i == j) for j in range(n)] for i, v in enumerate(bn)])
        self.en = [r[:rank] for r in aug]
        self.tn = [[dn * x for x in r[rank:]] for r in aug]

    def coords(self, vec):
        """(divisible, free, den): vec's coordinates as integer numerators
        over one denominator, or None outside the Q-span.

        With vec = vn/dv, vec lies in the span exactly when
        de * vn = sum of vn[pivot_i] * en_i, and then its coordinates are
        (sum of vn[pivot_i] * tn_i) / (dv * de).
        """
        (vn,), dv = _scale_to_int([vec])
        lead = [(vn[c], i) for i, c in enumerate(self.piv) if vn[c]]
        de, en = self.de, self.en
        for k, x in enumerate(vn):
            if x * de != sum(a * en[i][k] for a, i in lead):
                return None
        tn = self.tn
        nums = [sum(a * tn[i][j] for a, i in lead)
                for j in range(len(self.basis))]
        s = len(self.div)
        return nums[:s], nums[s:], dv * self.de


def fits(sol, p, divisible=False):
    """Whether coordinates (or None, outside the Q-span) name an element of
    the group, or of its divisible part: Z[1/p] divisible coordinates, and
    free ones integral (zero for the divisible part).

    Over the common denominator den, a numerator names a Z[1/p]
    coordinate exactly when den's prime-to-p part divides it.
    """
    if sol is None:
        return False
    divn, freen, den = sol
    m = prime_to_p_part(den, p)
    return (all(n % m == 0 for n in divn)
            and all(n == 0 if divisible else n % den == 0 for n in freen))


def eliminated(g):
    """g's coordinate map on canon_diagonal's basis."""
    return CoordinateMap(*canon_diagonal(g), g.rank)


def in_divisible_part(g, x):
    """Membership in the maximal p-divisible subgroup of g."""
    return fits(eliminated(g).coords(_coerce_vec(x, g.rank)), g.prime,
                divisible=True)


def contains_by_elimination(g, x):
    """Membership in g by the coordinate map on its diagonal basis."""
    return fits(eliminated(g).coords(_coerce_vec(x, g.rank)), g.prime)


def index_by_elimination(g, h):
    """[g : h] by the coordinate map on the diagonal bases, or None when h
    is not a subgroup of g.

    h's diagonal basis in g's coordinates: a divisible vector must have
    Z[1/p] coordinates on g's divisible basis alone, a free one integral
    coordinates.  The index is INFINITE unless both matrices are square,
    and otherwise the prime-to-p part of the divisible determinant times
    the free one.
    """
    cg, ch = eliminated(g), eliminated(h)
    if ch.div and g.prime != h.prime:
        return None
    mdiv, mfree = [], []
    for vec in ch.div:
        sol = cg.coords(vec)
        if not fits(sol, g.prime, divisible=True):
            return None
        mdiv.append([Fraction(n, sol[2]) for n in sol[0]])
    for vec in ch.free:
        sol = cg.coords(vec)
        if not fits(sol, g.prime):
            return None
        mfree.append([n // sol[2] for n in sol[1]])
    if len(mdiv) != len(cg.div) or len(mfree) != len(cg.free):
        return INFINITE
    ddiv = abs(perm_det(mdiv))
    return (prime_to_p_part(ddiv.numerator, g.prime)
            * int(abs(perm_det(mfree))))


def member_fraction(g, x, divisible=False):
    """Membership in g, or in its divisible part, solved in Fractions.

    Takes g's canonical basis, solves x against it by one rational rref
    of the basis augmented by the identity, and tests the coordinates:
    Z[1/p] on the divisible basis, integral (zero for the divisible
    part) on the free one.  This is the coordinate map in its earlier
    Fraction form, kept as a reference for the triangular solves on the
    same basis.
    """
    c = _canon(g)
    vec = _coerce_vec(x, g.rank)
    n = len(c.basis)
    aug, piv = rref([list(v) + [int(i == j) for j in range(n)]
                     for i, v in enumerate(c.basis)])
    ech = [r[:g.rank] for r in aug]
    if any(reduce_mod_span(vec, ech, piv)):
        return False
    sol = [sum((vec[col] * r[g.rank + i] for col, r in zip(piv, aug)),
               Fraction(0)) for i in range(n)]
    divc, freec = sol[:len(c.drows)], sol[len(c.drows):]
    return (all(prime_to_p_part(q.denominator, g.prime) == 1 for q in divc)
            and all(q == 0 if divisible else q.denominator == 1
                    for q in freec))


def subset_per_generator(g, h):
    """Whether h is contained in g, one presented generator of h at a time.

    A p-closed generator must lie in g's divisible part, any other in g;
    a generator closed under another prime than g's never fits.
    """
    if g.rank != h.rank:
        raise ValidationError("rank mismatch")
    if h.p_closed and g.prime != h.prime:
        return False
    return all(in_divisible_part(g, v) if i in h.p_closed else contains(g, v)
               for i, v in enumerate(h.gens))


def convex_at_by_smith(g, ell):
    """The convex part of g at ell as the library computed it before it read
    the part off the echelon form, by a diagonalization of the kernel.

    In canonical coordinates an element is (a, n), with a over Z[1/p] on
    the divisible basis and n over Z on the free basis.  The integer
    coordinate vectors with a zero head form a saturated lattice with
    basis k (int_kernel), and saturation over Z carries over to Z[1/p].
    So the part is {q.k : q in Z[1/p]^d, q.k_free integral}, k_free
    being the free block of k.  Bring k_free to a diagonal form
    D = U k_free V with U, V unimodular: in the coordinates r = q U^-1
    the condition reads r_i D_i integral, which leaves r_i free where
    D_i = 0 and allows a denominator of at most p^v_p(D_i) where
    D_i != 0.  Hence the part is generated by

      * the p-closed vectors y.k, y running over the left kernel of
        k_free, and
      * the free vectors p^-e z.k, z running over a basis of
        {z : z.k_free = 0 mod p^e}, read off the integer kernel of
        k_free stacked on p^e I.  Here e is the largest v_p(D_i), the
        largest p-exponent among k_free's elementary divisors.

    The result is presented by its canonical basis, each vector made
    lex-positive.
    """
    if ell <= 0 or g.is_trivial():
        return g
    c = _canon(g)
    p = g.prime
    s, t = len(c.drows), len(c.frows)
    k = int_kernel(_scale_to_int([v[:ell] for v in c.basis])[0])
    k_free = [kv[s:] for kv in k]
    diag, _ = diagonalize_with_basis(k_free, t)
    pe = max((d // prime_to_p_part(d, p) for d in diag), default=1)
    mod_pe = k_free + [[pe if i == j else 0 for j in range(t)]
                       for i in range(t)]

    def combine(y, scale=1):
        coords = [Fraction(sum(yi * kv[j] for yi, kv in zip(y, k)), scale)
                  for j in range(len(c.basis))]
        return [sum(q * v[i] for q, v in zip(coords, c.basis) if q)
                for i in range(g.rank)]

    closed = [combine(y) for y in int_kernel(k_free)]
    free = [combine(z[:len(k)], pe) for z in int_kernel(mod_pe)]
    raw = _build_canon(ogroup(closed + free, closed=range(len(closed)),
                              prime=p if closed else 1, rank=g.rank))
    basis = [v if _lex_positive(v) else tuple(-x for x in v)
             for v in raw.basis]
    return ogroup(basis, closed=range(len(raw.drows)),
                  prime=p if raw.drows else 1, rank=g.rank)


def seeded_ogroups(seed, count):
    """count seeded groups of rank 2 to 4 over p in {2, 3, 5}: one to five
    generators with small entries over 1, 2, 3, p or p^2, a seeded number
    of them p-closed."""
    rng = random.Random(seed)
    for _ in range(count):
        rank, p = rng.randint(2, 4), rng.choice((2, 3, 5))
        gens = [tuple(Fraction(rng.randint(-4, 4),
                               rng.choice((1, 2, 3, p, p * p)))
                      for _ in range(rank)) for _ in range(rng.randint(1, 5))]
        nclosed = rng.randint(0, len(gens))
        yield ogroup(gens, closed=range(nclosed), prime=p if nclosed else 1,
                     rank=rank)


def convex_mismatches(seed, count):
    """The (group, cut) pairs among count seeded groups, at every cut
    1 <= ell < rank, whose convex part is not the reference's group, or
    has a generator outside g or with a nonzero head."""
    bad = []
    for g in seeded_ogroups(seed, count):
        for ell in range(1, g.rank):
            part = _convex_at(g, ell)
            if not (same_group(part, convex_at_by_smith(g, ell))
                    and all(not any(v[:ell]) and contains(g, v)
                            for v in part.gens)):
                bad.append((g, ell))
    return bad


def seeded_mixed_descriptor(seed):
    """A mixed-characteristic descriptor over a seeded rank-2 or rank-3
    group with p-closed generators, vp a positive group element."""
    rng = random.Random(seed)
    p = rng.choice((2, 3, 5))
    rank = rng.randint(2, 3)
    gens = []
    while len(gens) < rng.randint(rank, rank + 2) or not any(map(any, gens)):
        gens.append([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, p)))
                     for _ in range(rank)])
    closed = sorted(rng.sample(range(len(gens)),
                               rng.randint(1, len(gens) - 1)))
    while True:
        coeffs = [rng.randint(-2, 2) for _ in gens]
        vp = [sum((a * g[k] for a, g in zip(coeffs, gens)), Fraction(0))
              for k in range(rank)]
        lead = next((c for c in vp if c), 0)
        if lead:
            vp = [c if lead > 0 else -c for c in vp]
            break

    def pair(q):
        return [q.numerator, q.denominator]

    flags = {k: rng.choice((True, False, None)) for k in
             ("henselian", "defectless", "tame",
              "frobenius_surjective_on_completion_mod_p")}
    residue = rng.choice(({"kind": "finite", "char": p, "q": p},
                          {"kind": "abstract", "perfect": True}))
    return {"name": "seeded-%d" % seed, "char": 0, "res_char": p,
            "value_group": {"rank": rank, "gens": [[pair(c) for c in g]
                                                   for g in gens],
                            "p_closed": closed, "prime": p},
            "vp": [pair(c) for c in vp], "residue_field": residue,
            "oracle_flags": flags}


def perm_det(rows):
    """Permutation-sum determinant, fine for n <= 4."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
        total += sign * term
    return total


def sample_elements(rng, free, closed, p, count=40, coeff=4, kmax=3):
    """Random elements of the group presented by free and closed gens."""
    free = [tuple(Fraction(c) for c in v) for v in free]
    closed = [tuple(Fraction(c) for c in v) for v in closed]
    rank = len(free[0]) if free else (len(closed[0]) if closed else 1)
    out = []
    for _ in range(count):
        tot = tuple(Fraction(0) for _ in range(rank))
        for v in free:
            a = rng.randint(-coeff, coeff)
            tot = tuple(t + a * c for t, c in zip(tot, v))
        for v in closed:
            a = rng.randint(-coeff, coeff)
            k = rng.randint(0, kmax)
            q = Fraction(a, p ** k)
            tot = tuple(t + q * c for t, c in zip(tot, v))
        out.append(tot)
    return out


def lattice_solve(rows, target):
    """Integer coefficients x with sum_i x_i * rows[i] = target, or None.

    None means target is outside the integer row lattice (it may still
    lie in the rational span).
    """
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        return None if any(v != 0 for v in target) else []
    ech, tr = row_echelon(rows)
    t = list(map(int, target))
    coeffs = [0] * len(rows)
    for r, row in enumerate(ech):
        j = next((k for k, x in enumerate(row) if x != 0), None)
        if j is None:
            break
        q, rem = divmod(t[j], row[j])
        if rem:
            return None
        if q:
            t = [a - q * b for a, b in zip(t, row)]
            for i in range(len(rows)):
                coeffs[i] += q * tr[r][i]
    if any(v != 0 for v in t):
        return None
    return coeffs


# series built without the value-group check of EqBase.monomial


def series(base, terms: dict) -> SeriesElem:
    """The exact series sum c * t^g over terms {g: c}."""
    out = {fr(g): base._coeff(c) for g, c in terms.items()}
    return SeriesElem(base, out)


def pth_root(x: SeriesElem) -> SeriesElem:
    """Termwise p-th root; coefficients may climb one perfection level."""
    p = x.base.p
    terms = {g / p: c.pth_root_extend() for g, c in x.terms.items()}
    return SeriesElem(x.base, terms)


# the series ring in its earlier Fraction-keyed form (a reference)


class FractionSeries:
    """The exact sum c * t^g over terms {g: c}, each exponent g a Fraction
    key: the arithmetic SeriesElem had before it kept integer numerators
    over one denominator, kept as the reference for that model."""

    def __init__(self, p: int, terms: dict):
        self.p = p
        self.terms = {fr(g): c for g, c in terms.items() if not c.is_zero()}

    @classmethod
    def of(cls, x: SeriesElem) -> "FractionSeries":
        return cls(x.base.p, dict(x.terms))

    def __add__(self, other):
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out[g] + c if g in out else c
        return FractionSeries(self.p, out)

    def __neg__(self):
        return FractionSeries(self.p, {g: -c for g, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for g1, c1 in self.terms.items():
            for g2, c2 in other.terms.items():
                g = g1 + g2
                out[g] = out[g] + c1 * c2 if g in out else c1 * c2
        return FractionSeries(self.p, out)

    def __truediv__(self, other):
        (g0, c0), = other.terms.items()
        inv = c0.inverse()
        return FractionSeries(self.p, {g - g0: c * inv
                                       for g, c in self.terms.items()})

    def frobenius(self):
        return FractionSeries(self.p, {g * self.p: c.frobenius()
                                       for g, c in self.terms.items()})

    def val(self):
        return min(self.terms) if self.terms else INFINITE

    def residue(self):
        g = self.val()
        if g != 0:
            raise ValidationError("residue requires value exactly 0, got %s"
                                  % (g,))
        return self.terms[g]

    def to_text(self) -> str:
        parts = []
        for g in sorted(self.terms):
            ct = self.terms[g].to_text()
            if not ct.lstrip("-").isdigit():
                ct = "(%s)" % ct
            parts.append(term_text(ct, [("t", g)]))
        return sum_text(parts)


def r4_budget_fraction(x: TElem) -> int:
    """r4_budget read off Fraction exponents: the generator count plus the
    p-exponent of the lcm of the tower's value denominators and of every
    exponent denominator in the relations' and x's coefficients."""
    t = x.tower
    # an "as" relation's unit term gen_i has the denominator 1
    coeffs = [c for g in t.gens for c in g.a.coords.values()] + \
        list(x.coords.values())
    den = lcm(t.val_den, *(g.denominator for c in coeffs for g in c.terms))
    return len(t.gens) + p_exponent(den, t.p)


# closed-form expansions of tower generators (independent cross-checks)


def as_expansion_terms(c, count: int):
    """Truncated root of X^p - X = c as explicit base elements.

    For v(c) < 0 the terms are c^{1/p}, c^{1/p^2}, ...; for v(c) > 0 they
    are -c, -c^p, -c^{p^2}, ...  (both verify g(theta) -> 0).  The base
    must support the needed exponents (p-divisible group in the first
    case).
    """
    vc = c.val()
    if vc == INFINITE or isinstance(vc, Indeterminate):
        raise ValidationError("expansion needs a determinate nonzero value")
    out = []
    if vc < 0:
        t = c
        for _ in range(count):
            t = pth_root(t)
            out.append(t)
        return out
    if vc > 0:
        t = c
        for _ in range(count):
            out.append(-t)
            t = t.frobenius() if hasattr(t, "frobenius") else t ** c.base.p
        return out
    raise ValidationError("value-0 relations do not have a canonical expansion")


def rebase(c, base):
    """The series c re-homed in a base whose group holds its exponents."""
    if base.p != c.base.p:
        raise ValidationError("characteristic mismatch in rebase")
    for g in c.terms:
        if not contains(base.group, (g,)):
            raise ValidationError("exponent %s outside the target group" % (g,))
    return SeriesElem(base, dict(c.terms))


def eval_expansion(x, gen_series: list, exp_base):
    """Substitute explicit base expansions for the generators.

    gen_series[i] is an element of exp_base standing for gen_i.  The
    result is exact arithmetic in exp_base; useful as an independent check
    of engine values.
    """
    total = exp_base.zero()
    for e, c in x.coords.items():
        term = rebase(c, exp_base) if isinstance(c, SeriesElem) else c
        for i, ei in enumerate(e):
            for _ in range(ei):
                term = term * gen_series[i]
        total = total + term
    return total


# the tower's valuation rules in their earlier termwise form (references)


def monomial_bounds_fraction_sum(x):
    """[(bound, determinate, exps)] per monomial, R1, each shift summed as
    Fractions over the generator values."""
    out = []
    for e, c in x.coords.items():
        cv = c.val()
        if cv == INFINITE:
            continue
        shift = sum((Fraction(ei) * x.tower.gens[i].value
                     for i, ei in enumerate(e) if ei), Fraction(0))
        if isinstance(cv, Indeterminate):
            out.append((cv.bound + shift, False, e))
        else:
            out.append((cv + shift, True, e))
    return out


def vlb_fraction_sum(x):
    bounds = monomial_bounds_fraction_sum(x)
    return min(b for b, _, _ in bounds) if bounds else INFINITE


def r4_walk_by_products(x, budget):
    """(k, y, m, e) for the first y = x^(p^k) with a unique least bound m,
    attained at gen^e, each p-th power whole and a plain product of p - 1
    factors (no Frobenius and no kept x**p); a tie or an indeterminate
    minimum past budget raises."""
    y, p = x, x.tower.p
    for k in range(budget + 1):
        bounds = monomial_bounds_fraction_sum(y)
        if not bounds:
            return k, y, INFINITE, None
        m = min(b for b, _, _ in bounds)
        at_min = [(det, e) for b, det, e in bounds if b == m]
        if not all(det for det, _ in at_min):
            raise PrecisionError("indeterminate minimum")
        if len(at_min) == 1:
            return k, y, m, at_min[0][1]
        z = y
        for _ in range(p - 1):
            z = z * y
        y = z
    raise ValidationError("tie outlasts %d p-th powers" % budget)


def val_fraction_sum(x, budget):
    k, _, m, _ = r4_walk_by_products(x, budget)
    return m / x.tower.p ** k


def residue_termwise(x, budget):
    """Residue of a value-0 tower element as the sum of the R3 residues of
    every monomial of value >= 0 in the p-th power where the walk stops."""
    k, y, m, _ = r4_walk_by_products(x, budget)
    if m != 0:
        raise ValidationError("residue requires value exactly 0")
    total = None
    for e, c in y.coords.items():
        scaled, rho_part = c, None
        for i, ei in enumerate(e):
            if not ei:
                continue
            g = y.tower.gens[i]
            if g.mu is None or g.rho is None:
                raise ValidationError("generator %s carries no residue data"
                                      % (g.name,))
            for _ in range(ei):
                scaled = scaled * g.mu
            rp = g.rho ** ei
            rho_part = rp if rho_part is None else rho_part * rp
        v = scaled.val()
        if v == INFINITE or (not isinstance(v, Indeterminate) and v > 0):
            continue
        if isinstance(v, Indeterminate):
            if v.bound > 0:
                continue
            raise PrecisionError("monomial residue below the precision cap")
        if v < 0:
            raise ValidationError("negative monomial in a residue computation")
        term = scaled.residue()
        term = term if rho_part is None else term * rho_part
        total = term if total is None else total + term
    if total is None or total.is_zero():
        raise ValidationError("residue computation cancelled to zero")
    for _ in range(k):
        total = total.pth_root_extend()
    return total


def pth_power_by_terms(x, below):
    """(kept, rest) for x^p, term by term over every composition k of p:
    each term multinom(p; k) * prod m_j^k_j is a plain product of x's
    monomials m_j.  A pure term (one k_j = p) is always kept, a mixed one
    when 1 + sum k_j * b_j < below, b_j the Fraction R1 bound of m_j, and
    rest is the least such bound left out (INFINITE if none).  Mixed
    characteristic only: in characteristic p the mixed terms vanish."""
    tw, p = x.tower, x.tower.p
    monos = [(TElem(tw, {e: x.coords[e]}), b)
             for b, _, e in monomial_bounds_fraction_sum(x)]
    kept, rest = tw.zero(), INFINITE
    for ks in product(range(p + 1), repeat=len(monos)):
        if sum(ks) != p:
            continue
        bound = 1 + sum(k * b for k, (_, b) in zip(ks, monos))
        if p not in ks and bound >= below:
            rest = min(rest, bound)
            continue
        term = tw.from_int(factorial(p) // prod(map(factorial, ks)))
        for k, (m, _) in zip(ks, monos):
            for _ in range(k):
                term = term * m
        kept = kept + term
    return kept, rest


def zeta_lambda_by_digit_newton(base: PadicBase, prec: int) -> PadicElem:
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
        y = yn - divide_by_long_division(horner(g, yn), horner(dg, y))
    return PadicElem(base, {(k + m, e): c for (k, e), c in y.digits.items()},
                     prec)


def zeta_lambda_by_dwork_sum(base: PadicBase, prec: int) -> PadicElem:
    """lambda = zeta_p - 1 from the closed coefficients of Dwork's series.

    For odd p and w^E = -p with (p-1) | E, pi = w^m (m = E/(p-1)) has
    pi^(p-1) = -p, and theta(X) = exp(pi X) * exp(-pi X^p) has theta(1) =
    zeta_p.  Its X^n coefficient is b_n pi^n, with the double sum

        b_n = sum_j 1/(p^j j! (n - pj)!)      ((-pi)^j pi^(-(p-1)j) = p^-j),

    taken here in exact Fractions.  Writing b_n = p^k * num/den with p
    prime to num*den, and p^k = (-1)^k w^(kE), the term is the unit
    (-1)^k num/den (taken mod p^ceil(prec/E)) at position m*n + k*E.  The
    sum runs to 2N, twice the bound N = ceil(prec p^2/((p-1)E)) past which
    Dwork's estimate v_p(b_n pi^n) >= n(p-1)/p^2 puts every term at or
    above the cap.
    """
    p, E = base.p, base.E
    assert p > 2 and base.twist == -1 and E % (p - 1) == 0
    m, mod = E // (p - 1), p ** -(-prec // E)
    digits = {}
    for n in range(1, 2 * -(-prec * p * p // ((p - 1) * E))):
        b = sum(Fraction(1, p ** j * math.factorial(j) *
                         math.factorial(n - p * j)) for j in range(n // p + 1))
        num, den, k = b.numerator, b.denominator, 0
        while num % p == 0:
            num, k = num // p, k + 1
        while den % p == 0:
            den, k = den // p, k - 1
        pos = m * n + k * E
        assert pos >= m, (n, pos)
        if pos < prec:
            unit = (-1) ** (k % 2) * num * pow(den, -1, mod)
            digits[pos, 0] = digits.get((pos, 0), 0) + unit
    return PadicElem(base, digits, prec)


def divide_by_long_division(x: PadicElem, y: PadicElem) -> PadicElem:
    """x/y in the digit ring, one leading digit of the quotient per step.

    Each step cancels the remainder's lead, so the lead rises and a
    capped operand ends the loop.  With y's lead at k0, the first step
    caps the remainder at min(x.prec, lead(x) + y.prec - k0) (the
    product cap) and later steps keep that cap.  So the quotient's
    cap, the final remainder's less k0, is
    min(x.prec - k0, lead(x) + y.prec - 2*k0), where
    d(x/y) = (dx*y - x*dy)/y^2 puts the errors of x/y.  An exact x over
    an exact y stops after 400 quotient digits.
    """
    lead = y._lead()
    if lead is None:
        if y.prec == INFINITE:
            raise ZeroDivisionError("digit division by zero")
        raise PrecisionError("division by (indistinguishable from) zero")
    k0, d0 = lead
    if len(d0) != 1:
        raise ValidationError(
            "division by a non-monomial leading digit is not supported")
    (e0, c0), = d0.items()
    p = x.base.p
    inv = pow(c0, p - 2, p)
    exact = x.prec == INFINITE and y.prec == INFINITE
    q, r, steps = {}, x, 0
    while True:
        lead = r._lead()
        if lead is None:
            return PadicElem(x.base, q, r.prec - k0)
        steps += 1
        if exact and steps > 400:
            raise ValidationError("exact digit division passed 400 quotient "
                                  "digits; cap an operand")
        k, d = lead
        term = {(k - k0, e - e0): c * inv % p for e, c in d.items()}
        q.update(term)
        r = r - PadicElem(x.base, term, INFINITE) * y


# digit-ring results built raw and then folded: the earlier form of the
# exact product, sum and shift, references for the ones built folded


def product_then_fold(x: PadicElem, y: PadicElem) -> dict:
    """The digits of x*y: the whole convolution, then _fold."""
    out = {}
    for (k1, e1), c1 in x.digits.items():
        for (k2, e2), c2 in y.digits.items():
            ke = k1 + k2, e1 + e2
            out[ke] = out.get(ke, 0) + c1 * c2
    return _fold(x.base, out, min(x.prec, y.prec))


def merge_then_fold(x: PadicElem, y: PadicElem, sign: int) -> dict:
    """The digits of x + sign*y: the termwise merge, then _fold."""
    out = dict(x.digits)
    for ke, c in y.digits.items():
        out[ke] = out.get(ke, 0) + sign * c
    return _fold(x.base, out, min(x.prec, y.prec))


def shift_then_fold(x: PadicElem, k: int, e: int, c: int) -> dict:
    """The digits of c * w^k * u^e * x: each term moved, then _fold."""
    return _fold(x.base, {(k1 + k, e1 + e): c * c1
                          for (k1, e1), c1 in x.digits.items()},
                 x.prec + k)


# parsers for printed series and digit text (round-trips of to_text)

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
    """The exact series that SeriesElem.to_text printed; a series has no
    cap, so a trailing O(...) is refused."""
    terms, prec = _parse_terms(text)
    if prec != INFINITE:
        raise ValidationError("a series is exact; cannot parse an O(...) cap")
    out = {}
    for exp, coeff in terms:
        if coeff.lstrip("-").isdigit():
            c = base.res.elem(int(coeff))
        else:
            c = base.res.elem(_parse_u_poly(coeff))
        out[exp] = out.get(exp, base.res.zero()) + c
    return series(base, out)


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


# an independent value oracle: the norm of a tower element


def berkowitz_det(rows, one):
    """Determinant of a square matrix over a commutative ring, without
    division (Berkowitz): the characteristic polynomial of each leading
    block is a Toeplitz product with the one before."""
    def dot(xs, ys):
        out = None
        for x, y in zip(xs, ys):
            out = x * y if out is None else out + x * y
        return out

    n = len(rows)
    poly = [one]
    for r in range(n):
        col = [rows[i][r] for i in range(r)]
        t = [one, -rows[r][r]]
        for _ in range(r):
            t.append(-dot(rows[r][:r], col))
            col = [dot(rows[i][:r], col) for i in range(r)]
        poly = [dot([t[i - j] for j in range(min(i, r) + 1)],
                    poly[: min(i, r) + 1]) for i in range(r + 2)]
    return poly[n] if n % 2 == 0 else -poly[n]


def norm_value(x):
    """v(x) as v(N(x)) / [L:K]: N(x) is the determinant of multiplication
    by x on the monomial basis, and every base models a complete field, so
    the value extends uniquely.  An Indeterminate when the determinant
    vanishes to working precision."""
    tw = x.tower
    basis = list(product(range(tw.p), repeat=len(tw.gens)))
    zero = tw.base.zero()
    cols = []
    for e in basis:
        y = x * TElem(tw, {e: tw.base.one()})
        cols.append([y.coords.get(f, zero) for f in basis])
    v = berkowitz_det(cols, tw.base.one()).val()
    if isinstance(v, Indeterminate) or v == INFINITE:
        return v
    return v / len(basis)


def _lower_hull(pts):
    """Vertices of the lower convex hull of points in increasing abscissa."""
    hull = []
    for x, y in pts:
        # drop the last vertex unless it lies strictly below the chord
        # from the one before it to (x, y)
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2:]
            if (y1 - y0) * (x - x0) < (y - y0) * (x1 - x0):
                break
            hull.pop()
        hull.append((x, y))
    return hull


def polygon_segments(vals):
    """[(slope, horizontal length)] of the lower Newton polygon, slopes
    increasing; vals[i] is the value of the coefficient of X^i, INFINITE
    for a vanishing one."""
    pts = [(i, v) for i, v in enumerate(vals) if v != INFINITE]
    if not pts:
        raise ValidationError("polygon of the zero polynomial")
    hull = _lower_hull(pts)
    return [((y1 - y0) / (x1 - x0), x1 - x0)
            for (x0, y0), (x1, y1) in zip(hull, hull[1:])]


def root_values(vals):
    """Root values with multiplicities, largest value first, read off the
    dense lower Newton polygon; the leading coefficient must be nonzero,
    and a vanishing constant block contributes roots of value INFINITE."""
    segs = polygon_segments(vals)
    if vals[-1] == INFINITE:
        raise ValidationError("leading coefficient must be nonzero")
    k = next(i for i, v in enumerate(vals) if v != INFINITE)
    return [(INFINITE, k)] * (k > 0) + [(-slope, n) for slope, n in segs]


def run_in_child(code: str) -> subprocess.CompletedProcess:
    """Run Python source in a fresh interpreter with src/ on its path; the
    60 s timeout makes a hang fail the calling test instead of stalling it."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
