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
A rank-1 group, a subgroup of Q, is read off one gcd of its generators'
numerators over their common denominator, as Z n/d or Z[1/p] n/d, and
membership, inclusion and index are answered in closed form from those
two integers; the elimination and its coordinate map serve rank >= 2.
The canonical form is kept on the group, built on first use, and with it
the coordinate map that membership, inclusion and index read at rank
>= 2, kept in integers (numerators over one denominator).  join presents
its result by the canonical basis followed by the new generators, so a
group grown one value at a time keeps a presentation of bounded size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (ValidationError, int_text_bound, json_fraction, json_get,
                     json_int, json_keys, printable_power, too_long_to_print)
from .intlinalg import (
    diagonalize_with_basis,
    int_kernel,
    int_rref,
    is_prime,
    prime_to_p_part,
    row_echelon,
)
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
    """The canonical basis of a group of rank >= 2 and its coordinate map,
    kept in integers.

    The map is one int_rref of the basis numerators bn = dn * basis
    augmented by the identity.  Its rows [en | t] over its denominator de
    give E = en/de in reduced echelon form with E = (t/de) * bn, so
    E = T * basis for T = tn/de, tn = dn * t.  A vector in the Q-span is
    the sum of its pivot entries times the rows of E, so its coordinates
    are those entries times T.
    """
    __slots__ = ("div", "free", "basis", "piv", "en", "tn", "de")

    def __init__(self, div, free, rank):
        self.div = div      # tuple of Fraction vectors, Z[1/p] summand basis
        self.free = free    # tuple of Fraction vectors, Z summand basis
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


def _scale_to_int(vecs):
    """Integer numerators of rational vectors over their least common
    denominator, and that denominator."""
    denom = math.lcm(*(c.denominator for v in vecs for c in v))
    return [[c.numerator * (denom // c.denominator) for c in v]
            for v in vecs], denom


class _Line:
    """The canonical form of a rank-1 group, a subgroup of Q.

    Over the generators' least common denominator d, with n the gcd of
    their numerators, the group is Z n/d, or Z[1/p] m/d once a nonzero
    generator is p-closed, m being the prime-to-p part of n; the trivial group has
    no basis (n = 0).  Membership, inclusion and index are answered in
    closed form from n, d and whether the group is Z[1/p]-divisible, so a
    rank-1 group needs no coordinate map.
    """
    __slots__ = ("div", "free", "basis", "n", "d")

    def __init__(self, g):
        ints, d = _scale_to_int(g.gens)
        n = math.gcd(*(v[0] for v in ints))
        # a p-closed zero, which only a hand-built group can hold, divides
        # nothing
        closed = any(ints[i][0] for i in g.p_closed)
        if closed:
            n = prime_to_p_part(n, g.prime)
        self.n, self.d = n, d
        self.basis = ((Fraction(n, d),),) if n else ()
        self.div, self.free = ((self.basis, ()) if closed
                               else ((), self.basis))

    def holds(self, x, p) -> bool:
        """Whether the rational x = a/b lies in the group.

        x / (n/d) = a*d / (b*n): x lies in Z n/d exactly when b*n divides
        a*d, and in Z[1/p] n/d exactly when b*n divides a*d*p^k for some
        k, for which k = the bit length of b*n is enough.
        """
        if not self.n:
            return not x
        num, den = x.numerator * self.d, x.denominator * self.n
        if self.div:
            num *= p ** den.bit_length()
        return num % den == 0

    def index_of(self, h, p, q):
        """[g : h], g having this form and prime p and h the form h and
        prime q, or None when h is not a subgroup of g.

        A nonzero h lies in g when its basis b_h does and, if h is
        divisible, g is divisible under the same prime.  With a the
        numerator of b_h / b_g in lowest terms, the index is then a when
        both are free, a's prime-to-p part when both are divisible, and
        INFINITE when only g is; INFINITE for a trivial h and a nonzero g.
        """
        if not h.n:
            return INFINITE if self.n else 1
        if (h.div and not (self.div and p == q)
                or not self.holds(h.basis[0][0], p)):
            return None
        a = h.n * self.d
        a //= math.gcd(a, h.d * self.n)
        if not self.div:
            return a
        return prime_to_p_part(a, p) if h.div else INFINITE


def _canon(g: OGroup):
    """g's canonical form, kept on g."""
    return g._form


def _build_canon(g: OGroup):
    """g's canonical form: _Line at rank 1, the elimination otherwise."""
    if g.rank == 1:
        return _Line(g)
    closed = [list(v) for v in g.closed_gens()]
    free = [list(v) for v in g.free_gens()]

    # the free generators modulo the divisible span, as the integer rows
    # d * v - sum of v[c_i] * ech_i, all scaled by one positive factor;
    # row_echelon compares absolute values and takes floor quotients, so
    # on c * M it makes the same choices, and the same transform, as on M
    ints, _ = _scale_to_int(closed + free)
    ech, piv, d = int_rref(ints[:len(closed)])
    int_proj = [[d * x - sum(v[c] * e[k] for e, c in zip(ech, piv))
                 for k, x in enumerate(v)] for v in ints[len(closed):]]

    div_gen_vecs = list(closed)
    free_basis = []
    ech2, t2 = row_echelon(int_proj)
    for row, combo in zip(ech2, t2):
        vec = [sum(x * v[c] for x, v in zip(combo, free) if x)
               for c in range(g.rank)]
        if any(row):
            free_basis.append(vec)
        elif any(vec):
            # lands in the divisible span: joins the Z[1/p] summand,
            # legitimately, by the Bezout identity  Z x + Z[1/p] m x = Z[1/p] x
            # applied after diagonalization below
            div_gen_vecs.append(vec)

    int_div, denom = _scale_to_int(div_gen_vecs)
    div_basis = [[Fraction(prime_to_p_part(d, g.prime) * c, denom) for c in u]
                 for d, u in zip(*diagonalize_with_basis(int_div, g.rank))]

    return _Canon(tuple(tuple(v) for v in div_basis),
                  tuple(tuple(v) for v in free_basis), g.rank)


def _fits(sol, p, divisible=False) -> bool:
    """Whether canonical coordinates (or None, outside the Q-span) name an
    element of the group, or of its divisible part: Z[1/p] divisible
    coordinates, and free ones integral (zero for the divisible part).

    Over the common denominator den, a numerator names a Z[1/p]
    coordinate exactly when den's prime-to-p part divides it.
    """
    if sol is None:
        return False
    divn, freen, den = sol
    m = prime_to_p_part(den, p)
    return (all(n % m == 0 for n in divn)
            and all(n == 0 if divisible else n % den == 0 for n in freen))


def contains(g: OGroup, x) -> bool:
    """Membership: in closed form at rank 1, by the coordinate map
    otherwise."""
    vec = _coerce_vec(x, g.rank)
    if g.rank == 1:
        return _canon(g).holds(vec[0], g.prime)
    return _fits(_canon(g).coords(vec), g.prime)


def _coordinate_matrices(g: OGroup, h: OGroup):
    """h's canonical vectors in g's canonical coordinates, or None.

    Returns (mdiv, mfree), integer matrices: the divisible coordinates of
    h's divisible basis, each row scaled by a power of p, and the free
    coordinates of h's free basis.  None when h is not a subgroup of g: a
    Z[1/p] vector of h must lie in g's divisible part, a Z vector in g.
    """
    if g.rank != h.rank:
        raise ValidationError("rank mismatch")
    cg, ch = _canon(g), _canon(h)
    if ch.div and g.prime != h.prime:
        # a q-divisible nonzero element cannot sit inside a group whose
        # divisible summand is closed under a different prime only
        return None
    mdiv, mfree = [], []
    for vec in ch.div:
        sol = cg.coords(vec)
        if not _fits(sol, g.prime, divisible=True):
            return None
        m = prime_to_p_part(sol[2], g.prime)
        mdiv.append([n // m for n in sol[0]])
    for vec in ch.free:
        sol = cg.coords(vec)
        if not _fits(sol, g.prime):
            return None
        mfree.append([n // sol[2] for n in sol[1]])
    return mdiv, mfree


def _elimination_index(g: OGroup, h: OGroup):
    """[g : h] read off the coordinate matrices, or None when h is not a
    subgroup of g.

    Finite exactly when the two Q-spans and the two divisible-part spans
    agree; then the index splits as prime-to-p part of the divisible
    determinant times the free determinant.
    """
    mats = _coordinate_matrices(g, h)
    if mats is None:
        return None
    mdiv, mfree = mats
    cg = _canon(g)
    if len(mdiv) != len(cg.div) or len(mfree) != len(cg.free):
        return INFINITE
    # equal spans and equal divisible spans: both matrices are square and
    # invertible, the free one over Z and the divisible one over Z[1/p]
    # once its rows' powers of p are divided back out, which leaves the
    # prime-to-p part of its determinant alone; each |det| is int_rref's den
    ddiv, dfree = (int_rref(m)[2] for m in (mdiv, mfree))
    return prime_to_p_part(ddiv, g.prime) * dfree


def subset(g: OGroup, h: OGroup) -> bool:
    """Whether h is contained in g: in closed form at rank 1, read off h's
    canonical basis otherwise."""
    if g.rank == 1 == h.rank:
        return _canon(g).index_of(_canon(h), g.prime, h.prime) is not None
    return _coordinate_matrices(g, h) is not None


def same_group(g: OGroup, h: OGroup) -> bool:
    return subset(g, h) and subset(h, g)


def index(g: OGroup, h: OGroup):
    """[g : h] as a positive int, or INFINITE.

    Requires h to be a subgroup of g of the same rank; answered in closed
    form at rank 1, off the coordinate matrices otherwise.
    """
    idx = (_canon(g).index_of(_canon(h), g.prime, h.prime)
           if g.rank == 1 == h.rank else _elimination_index(g, h))
    if idx is None:
        raise ValidationError("h is not a subgroup of g")
    return idx


def is_p_divisible(g: OGroup, p: int) -> bool:
    """Whether g = p*g.  p = 1 counts as trivially divisible."""
    if p == 1 or g.is_trivial():
        return True
    c = _canon(g)
    if c.free:
        return False
    return (not c.div) or g.prime == p


def join(g: OGroup, extra_gens) -> OGroup:
    """The group generated by g and additional generators.

    It is presented by g's canonical basis followed by the new nonzero
    values, so repeated joins keep at most rank + len(extra_gens)
    generators.
    """
    c = _canon(g)
    extra = [_coerce_vec(x, g.rank) for x in extra_gens]
    return ogroup(list(c.basis) + extra, closed=range(len(c.div)),
                  prime=g.prime, rank=g.rank)


# ---------------------------------------------------------------------------
# convex subgroups


@dataclass(frozen=True)
class ConvexPart:
    group: OGroup
    cut_index: int


def _convex_at(g: OGroup, ell: int) -> OGroup:
    """The subgroup of elements whose first ell coordinates vanish.

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
    lex-positive; a brute-force cross-check lives in the tests.
    """
    if ell <= 0 or g.is_trivial():
        return g
    c = _canon(g)
    p = g.prime
    s, t = len(c.div), len(c.free)
    k = int_kernel(_scale_to_int([v[:ell] for v in c.basis])[0])
    k_free = [kv[s:] for kv in k]
    diag, _ = diagonalize_with_basis(k_free, t)
    pe = max((d // prime_to_p_part(d, p) for d in diag), default=1)
    mod_pe = k_free + [[pe if i == j else 0 for j in range(t)] for i in range(t)]

    def combine(y, scale=1):
        coords = [Fraction(sum(yi * kv[j] for yi, kv in zip(y, k)), scale)
                  for j in range(len(c.basis))]
        return [sum(q * v[i] for q, v in zip(coords, c.basis) if q)
                for i in range(g.rank)]

    closed = [combine(y) for y in int_kernel(k_free)]
    free = [combine(z[:len(k)], pe) for z in int_kernel(mod_pe)]
    # the kernel presentation is thrown away, so its form is built without
    # being kept; the part keeps its own form, built on first use
    raw = _build_canon(ogroup(closed + free, closed=range(len(closed)),
                              prime=p if closed else 1, rank=g.rank))
    basis = [v if _lex_positive(v) else tuple(-x for x in v)
             for v in raw.div + raw.free]
    return ogroup(basis, closed=range(len(raw.div)),
                  prime=p if raw.div else 1, rank=g.rank)


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
