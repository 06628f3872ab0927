import importlib
import json
import math
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from vallab.errors import ValidationError
from vallab.intlinalg import prime_to_p_part
from vallab.ogroup import (
    _canon,
    contains,
    convex_core,
    cyclic,
    from_json,
    hull,
    index,
    is_p_divisible,
    join,
    lex_compose,
    ogroup,
    project,
    project_trailing,
    same_group,
    subset,
    to_json,
)
from vallab.suites import _coset_count, _rank1_member
from vallab.values import INFINITE

from helpers import (canon_fraction, contains_by_elimination,
                     convex_at_by_smith, coset_count_pairwise, eliminated,
                     in_divisible_part, index_by_elimination, member_fraction,
                     rank1_member, rref, sample_elements, seeded_ogroups,
                     subset_per_generator)

# the package exports the function ogroup under the module's name
ogroup_module = importlib.import_module("vallab.ogroup")
intlinalg_module = importlib.import_module("vallab.intlinalg")

F = Fraction


def test_construction_drops_zero_gens():
    g = ogroup([1, 0, F(1, 2)], closed=[2], prime=5)
    assert len(g.gens) == 2
    assert g.p_closed == {1}
    with pytest.raises(ValueError):
        ogroup([], rank=None)
    with pytest.raises(ValueError):
        ogroup([1], closed=[0], prime=1)
    # a p_closed index must name a generator
    for bad in (5, 1, -1):
        with pytest.raises(ValueError, match="p_closed index %d" % bad):
            ogroup([1], closed=[bad], prime=3)
    assert ogroup([], rank=2).is_trivial()


def test_contains_frozen_examples():
    assert contains(cyclic(1), 0)
    assert contains(cyclic(1), -7)
    assert not contains(cyclic(-1), F(-1, 3))
    zp = ogroup([1], closed=[0], prime=3)
    assert contains(zp, F(5, 27))
    assert not contains(zp, F(1, 2))
    assert not contains(cyclic(2), 1)
    assert contains(ogroup([2, 3]), 1)


def test_contains_matches_gcd_oracle_rank_one():
    rng = random.Random(10)
    pool = [F(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        gens = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        nclosed = rng.randint(0, len(gens))
        closed = list(range(nclosed))
        g = ogroup(gens, closed=closed, prime=p if nclosed else 1)
        free = gens[nclosed:]
        cl = gens[:nclosed]
        for num in range(-6, 7):
            for den in (1, 2, 3, 4, p, p * p, p ** 3):
                x = F(num, den)
                got = contains(g, x)
                want = rank1_member(free, cl, p if nclosed else 2, x)
                assert got == want, (gens, closed, p, x)


def test_in_divisible_part():
    # rank one: a free generator in the span of the closed one is absorbed,
    # Z*(1/3) + Z[1/2]*1 = Z[1/2]*(1/3)
    g = join(ogroup([1], closed=[0], prime=2), [F(1, 3)])
    assert in_divisible_part(g, F(5, 8))
    assert in_divisible_part(g, F(1, 3))
    assert not in_divisible_part(g, F(1, 5))
    # rank two: genuinely free directions stay outside the divisible part
    g2 = lex_compose(ogroup([1], closed=[0], prime=2), cyclic(F(1, 3)))
    assert in_divisible_part(g2, (F(5, 8), 0))
    assert not in_divisible_part(g2, (0, F(1, 3)))
    assert contains(g2, (0, F(1, 3)))


def test_absorbed_free_generator_joins_divisible_part():
    # 1/2 spans the same line as the closed generator, so the whole group
    # collapses to Z[1/3] * 1/2
    g = ogroup([1, F(1, 2)], closed=[0], prime=3)
    assert contains(g, F(1, 6))
    assert in_divisible_part(g, F(1, 6))
    assert is_p_divisible(g, 3)
    assert same_group(g, ogroup([F(1, 2)], closed=[0], prime=3))


def test_subset_and_same_group():
    zp = ogroup([1], closed=[0], prime=3)
    assert subset(zp, cyclic(1))
    assert not subset(cyclic(1), zp)
    assert subset(zp, ogroup([F(1, 9)], closed=[0], prime=3))
    assert not subset(zp, ogroup([1], closed=[0], prime=2))
    assert same_group(ogroup([2, 3]), cyclic(1))
    with pytest.raises(ValueError):
        subset(cyclic(1), cyclic((1, 1)))


def test_index_frozen_examples():
    g = ogroup([1, F(-1, 9)])
    assert index(g, cyclic(1)) == 9
    zp = ogroup([1], closed=[0], prime=3)
    assert index(zp, cyclic(1)) == INFINITE
    assert index(cyclic(1), cyclic(1)) == 1
    assert index(zp, ogroup([1], closed=[0], prime=3)) == 1
    # prime-to-p scaling survives, p-power scaling is absorbed
    assert index(zp, ogroup([6], closed=[0], prime=3)) == 2
    assert index(zp, ogroup([9], closed=[0], prime=3)) == 1
    with pytest.raises(ValueError):
        index(cyclic(1), cyclic(F(1, 2)))


def test_index_rank_two():
    g = lex_compose(cyclic(1), cyclic(1))
    h = lex_compose(cyclic(2), cyclic(3))
    assert index(g, h) == 6
    zp = ogroup([1], closed=[0], prime=2)
    a = lex_compose(zp, cyclic(1))
    b = lex_compose(ogroup([3], closed=[0], prime=2), cyclic(5))
    assert index(a, b) == 15
    assert index(a, lex_compose(zp, ogroup([], rank=1))) == INFINITE


def test_index_matches_sympy_determinant():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    for rank in (2, 3):
        done = 0
        while done < 15:
            basis = [[F(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(rank)] for _ in range(rank)]
            coords = [[rng.randint(-5, 5) for _ in range(rank)]
                      for _ in range(rank)]
            d = sympy.Matrix(coords).det()
            if sympy.Matrix(basis).det() == 0 or d == 0:
                continue
            g = ogroup([tuple(v) for v in basis], rank=rank)
            h = ogroup([tuple(sum(c * b[k] for c, b in zip(row, basis))
                              for k in range(rank)) for row in coords],
                       rank=rank)
            assert index(g, h) == abs(int(d))
            done += 1


def test_index_multiplicative_on_chains():
    rng = random.Random(11)
    for _ in range(25):
        p = rng.choice([2, 3])
        nclosed = rng.randint(0, 1)
        gens = [F(1)] if nclosed else [F(1), F(1, 2)]
        g = ogroup(gens, closed=range(nclosed), prime=p if nclosed else 1)
        m1 = rng.choice([1, 2, 3, 5])
        m2 = rng.choice([1, 2, 3])
        h = ogroup([m1 * q for q in gens], closed=range(nclosed),
                   prime=p if nclosed else 1)
        k = ogroup([m1 * m2 * q for q in gens], closed=range(nclosed),
                   prime=p if nclosed else 1)
        assert index(g, k) == index(g, h) * index(h, k)


def _seeded_group(rng, rank, prime):
    """A group of the given rank with 0-3 generators, some p-closed."""
    gens = [tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3, prime)))
                  for _ in range(rank)) for _ in range(rng.randint(0, 3))]
    nclosed = rng.randint(0, len(gens)) if rng.random() < 0.5 else 0
    return ogroup(gens, closed=range(nclosed), prime=prime if nclosed else 1,
                  rank=rank)


def _seeded_candidate(rng, g):
    """A group of g's rank: a subgroup of g, or one that may not be."""
    rank, p = g.rank, g.prime if g.prime > 1 else rng.choice((2, 3))
    kind = rng.randrange(4)
    if kind == 0:
        # integer combinations of g's generators, and p-closed multiples of
        # its p-closed ones: a subgroup
        free = [tuple(rng.randint(-2, 2) * c for c in v) for v in g.gens]
        free = [v for v in free if any(v)]
        sub = sample_elements(rng, free, [], p, count=rng.randint(0, 2)) \
            if free else []
        closed = [tuple(rng.randint(1, 3) * c for c in v)
                  for v in g.closed_gens()][:rng.randint(0, len(g.p_closed))]
        return ogroup(closed + sub, closed=range(len(closed)),
                      prime=p if closed else 1, rank=rank)
    if kind == 1:
        # g's generators, one of them (possibly) nudged off the group
        gens = list(g.gens) or [(F(0),) * rank]
        i = rng.randrange(len(gens))
        gens[i] = tuple(c + F(rng.randint(0, 1), rng.choice((2, 5)))
                        for c in gens[i])
        closed = [j for j in g.p_closed if rng.random() < 0.5]
        return ogroup(gens, closed=closed, prime=g.prime, rank=rank)
    if kind == 2:
        # g's p-closed generators closed under another prime
        q = 5 if p != 5 else 2
        gens = g.closed_gens() or list(g.gens[:1])
        return ogroup(gens, closed=range(len(gens)), prime=q, rank=rank)
    return _seeded_group(rng, rank, p)


def test_subset_and_index_match_per_generator_reference():
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for _ in range(300):
        rank = rng.randint(1, 3)
        g = _seeded_group(rng, rank, rng.choice((2, 3)))
        h = _seeded_candidate(rng, g)
        want = subset_per_generator(g, h)
        seen[want] += 1
        assert subset(g, h) == want, (g, h)
        if not want:
            with pytest.raises(ValidationError, match="not a subgroup"):
                index(g, h)
            continue
        idx = index(g, h)
        assert idx == INFINITE or (isinstance(idx, int) and idx >= 1)
        if subset_per_generator(h, g):
            assert idx == 1, (g, h)
    assert min(seen.values()) >= 60, seen


def test_coordinate_map_solves_in_the_canonical_basis():
    rng = random.Random(37)
    for _ in range(120):
        rank = rng.randint(1, 3)
        g = _seeded_group(rng, rank, rng.choice((2, 3)))
        # the references' map, on the diagonal basis, at every rank
        c = eliminated(g)
        basis = list(c.div + c.free)
        for _ in range(4):
            inside = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in basis]
            vec = tuple(sum((q * b[k] for q, b in zip(inside, basis)), F(0))
                        for k in range(rank))
            if rng.random() < 0.5:
                vec = tuple(F(rng.randint(-5, 5), rng.randint(1, 3))
                            for _ in range(rank))
            sol = c.coords(vec)
            outside = len(rref(basis + [list(vec)])[0]) > len(basis)
            assert (sol is None) == outside, (g, vec)
            if sol is not None:
                divn, freen, den = sol
                assert all(isinstance(n, int) for n in divn + freen + [den])
                coords = [F(n, den) for n in divn + freen]
                assert len(divn) == len(c.div)
                assert tuple(sum((q * b[k] for q, b in zip(coords, basis)),
                                 F(0)) for k in range(rank)) == vec
    trivial = eliminated(ogroup([], rank=2))
    assert trivial.coords((F(0), F(0))) == ([], [], 1)
    assert trivial.coords((F(0), F(1, 2))) is None


def test_rank_one_coordinate_is_the_reduced_quotient():
    # rank-1 membership reads the quotient x / b in integers, and must agree
    # with the Fraction quotient's reduced denominator: 1 on Z b, a power of
    # p on Z[1/p] b; the trivial group holds only 0
    rng = random.Random(43)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        g = _seeded_group(rng, 1, p)
        c = _canon(g)
        x = F(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 9, 25, 49, 72,
                                                 p ** 9, 7 * p ** 9)))
        if not c.basis:
            assert contains(g, x) == (x == 0)
            continue
        den = (x / c.basis[0][0]).denominator
        want = prime_to_p_part(den, p) == 1 if c.drows else den == 1
        assert contains(g, x) == want, (g, x)


def test_contains_matches_the_fraction_coordinate_map():
    # the triangular solves against the coordinate map on the same basis,
    # solved in Fractions
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    groups = [ogroup([], rank=r) for r in (1, 2, 3)]
    for _ in range(150):
        groups.append(_seeded_group(rng, rng.randint(1, 3),
                                    rng.choice((2, 3, 5))))
    for g in groups:
        c = _canon(g)
        pool = [F(rng.randint(-3, 3), rng.choice((1, 2, 3, 7, g.prime,
                                                    g.prime ** 2)))
                for _ in range(len(c.basis))]
        for _ in range(6):
            vec = tuple(sum((q * b[k] for q, b in zip(pool, c.basis)), F(0))
                        for k in range(g.rank))
            if rng.random() < 0.3:
                vec = tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 7)))
                            for _ in range(g.rank))
            for divisible in (False, True):
                want = member_fraction(g, vec, divisible)
                seen[want] += 1
                got = in_divisible_part(g, vec) if divisible \
                    else contains(g, vec)
                assert got == want, (g, vec, divisible)
            rng.shuffle(pool)
    assert min(seen.values()) >= 300, seen


def test_rank1_canon_matches_the_elimination_reference():
    # a rank-1 group's form is one row, the gcd over the common
    # denominator: its basis against the Fraction echelon, its membership
    # against the Fraction coordinate map and the gcd oracle
    rng = random.Random(59)
    seen = {True: 0, False: 0}
    closed_at = dict.fromkeys((2, 3, 5, 7), 0)
    groups = [ogroup([], rank=1), ogroup([0, 0], rank=1)]
    for _ in range(2400):
        p = rng.choice((2, 3, 5, 7))
        gens = [F(rng.randint(-6, 6), rng.choice((1, 2, 3, 7, p, p ** 3,
                                                  5 * p ** 3)))
                for _ in range(rng.randint(0, 4))]
        if gens and rng.random() < 0.3:
            gens.append(rng.choice(gens))
        closed = rng.sample(range(len(gens)), rng.randint(0, len(gens))) \
            if rng.random() < 0.6 else []
        g = ogroup(gens, closed=closed, rank=1,
                   prime=p if closed or rng.random() < 0.5 else 1)
        closed_at[p] += bool(g.p_closed)
        groups.append(g)
    for g in groups:
        c = _canon(g)
        assert _bases(c) == canon_fraction(g), g
        p = g.prime
        free = [v[0] for v in g.free_gens()]
        closed = [v[0] for v in g.closed_gens()]
        points = [F(0), F(rng.randint(-9, 9) or 1,
                          rng.choice((1, 2, 11, p, p ** 4)))]
        for _ in range(3):
            points.append(sum((rng.randint(-3, 3) * x for x in free), F(0))
                          + sum((F(rng.randint(-3, 3), p ** rng.randint(0, 3))
                                 * x for x in closed), F(0)))
        for x in points:
            for divisible in (False, True):
                want = member_fraction(g, x, divisible)
                seen[want] += 1
                got = in_divisible_part(g, x) if divisible else contains(g, x)
                assert got == want, (g, x, divisible)
            assert contains(g, x) == rank1_member(free, closed, p, x), (g, x)
    assert len(groups) >= 2000
    assert min(closed_at.values()) >= 150, closed_at
    assert min(seen.values()) >= 3000, seen


def _seeded_line(rng, p):
    """A rank-1 group: trivial, free (under prime 1 or p), p-closed or
    mixed, its generators' denominators including high powers of p."""
    gens = [F(rng.randint(-6, 6), rng.choice((1, 2, 3, 7, p, p ** 2,
                                               5 * p ** 9)))
            for _ in range(rng.randint(0, 3))]
    kind = rng.randrange(4)
    closed = (range(len(gens)) if kind == 2 else
              range(rng.randint(1, len(gens))) if kind == 3 and gens else ())
    return ogroup(gens, closed=closed, rank=1,
                  prime=p if closed or kind == 1 else 1)


def _seeded_line_pair(rng):
    """g and a rank-1 h: a scaled copy of g, often a subgroup, or a fresh
    group, under g's prime or another."""
    p = rng.choice((2, 3, 5))
    g = _seeded_line(rng, p)
    q = p if rng.random() < 0.7 else rng.choice([r for r in (2, 3, 5)
                                                   if r != p])
    if rng.random() < 0.5:
        return g, _seeded_line(rng, q)
    s = F(rng.randint(1, 6), rng.choice((1, 1, 2, p)))
    closed = [i for i in g.p_closed if rng.random() < 0.7]
    h = ogroup([s * v[0] for v in g.gens], closed=closed, rank=1,
               prime=q if closed else rng.choice((1, q)))
    return g, h


def _seeded_pair(rng):
    """g of rank 2 or 3 and h of its rank: a candidate that may not be a
    subgroup, or a copy of g with its generators scaled by m, some of them
    by 2m, its p-closure kept in part, under g's prime or another."""
    g = _seeded_group(rng, rng.randint(2, 3), rng.choice((2, 3, 5)))
    if rng.random() < 0.4:
        return g, _seeded_candidate(rng, g)
    q = g.prime if g.prime > 1 and rng.random() < 0.8 else \
        rng.choice((2, 3, 5))
    closed = [i for i in g.p_closed if rng.random() < 0.8]
    m = rng.randint(1, 3)
    h = ogroup([tuple(m * rng.choice((1, 1, 2)) * c for c in v)
                for v in g.gens],
               closed=closed, prime=q if closed else rng.choice((1, q)),
               rank=g.rank)
    return g, h


def test_rank1_closed_forms_match_the_elimination():
    # membership, inclusion and index against the coordinate map on the
    # diagonal basis the library used before its echelon form, on 5,000
    # rank-1 pairs and 3,000 rank-2 and rank-3 pairs; index's refusal of a
    # non-subgroup included
    rng = random.Random(61)
    keys = ("refused", "infinite", "one", "finite", "same", "member",
            "outside")
    seen = {1: dict.fromkeys(keys + ("trivial", "closed", "mixed", "primes"),
                             0),
            2: dict.fromkeys(keys, 0)}
    for i in range(8000):
        g, h = _seeded_line_pair(rng) if i < 5000 else _seeded_pair(rng)
        count = seen[min(g.rank, 2)]
        want = {}
        for a, b in ((g, h), (h, g)):
            want[a, b] = index_by_elimination(a, b)
            assert subset(a, b) == (want[a, b] is not None), (a, b)
            if want[a, b] is None:
                count["refused"] += 1
                with pytest.raises(ValidationError,
                                   match="^h is not a subgroup of g$"):
                    index(a, b)
                continue
            count["infinite" if want[a, b] == INFINITE else
                  "one" if want[a, b] == 1 else "finite"] += 1
            assert index(a, b) == want[a, b], (a, b)
        same = None not in want.values()
        assert same_group(g, h) == same, (g, h)
        count["same"] += same
        if g.rank == 1:
            count["trivial"] += g.is_trivial()
            count["closed"] += 0 < len(g.p_closed) == len(g.gens)
            count["mixed"] += 0 < len(g.p_closed) < len(g.gens)
            count["primes"] += g.prime != h.prime
        basis = _canon(g).basis
        if g.rank == 1:
            x = basis[0][0] * F(rng.randint(-9, 9),
                                rng.choice((1, 2, 3, g.prime ** 3))) \
                if basis else F(rng.randint(-1, 1), rng.choice((1, 2)))
            args = (x, (x,)) + ((int(x),) if x.denominator == 1 else ())
        else:
            q = F(rng.randint(-9, 9), rng.choice((1, 2, 3, g.prime ** 3)))
            x = tuple(sum((rng.randint(-2, 2) * q * v[k] for v in basis),
                          F(0)) for k in range(g.rank)) if basis else \
                (F(rng.randint(-1, 1), rng.choice((1, 2))),) * g.rank
            args = (x, list(x))
        for arg in args:
            want = contains_by_elimination(g, arg)
            count["member" if want else "outside"] += 1
            assert contains(g, arg) == want, (g, arg)
    for count in seen.values():
        assert min(count.values()) >= 300, seen


def test_rank1_queries_refuse_as_before():
    # the triangular solves keep the class and text of every refusal
    g = cyclic(F(1, 3))
    for call, cls, text in (
            (lambda: contains(g, (1, 2)), ValidationError,
             "rank mismatch: expected 1 coordinates, got 2"),
            (lambda: contains(g, 0.5), TypeError,
             "expected an exact rational, got 0.5"),
            (lambda: contains(g, (0.5,)), TypeError,
             "expected an exact rational, got 0.5"),
            (lambda: index(g, cyclic(F(1, 9))), ValidationError,
             "h is not a subgroup of g"),
            (lambda: index(g, ogroup([1], closed=[0], prime=3)),
             ValidationError, "h is not a subgroup of g"),
            (lambda: index(g, ogroup([(1, 1)])), ValidationError,
             "rank mismatch"),
            (lambda: subset(g, ogroup([(1, 1)])), ValidationError,
             "rank mismatch")):
        with pytest.raises(Exception) as err:
            call()
        assert (type(err.value), str(err.value)) == (cls, text)


def test_rank1_oracle_matches_the_fraction_reference():
    rng = random.Random(43)
    seen = {True: 0, False: 0}
    for _ in range(5000):
        p = rng.choice((2, 3, 5))
        free = [F(rng.randint(-6, 6) or 1, rng.choice((1, 2, 3, p, p * p)))
                for _ in range(rng.randint(0, 2))]
        closed = [F(rng.randint(-6, 6) or 1, rng.choice((1, 2, 3, p)))
                  for _ in range(rng.randint(0, 2))]
        x = F(rng.randint(-12, 12),
              rng.choice((1, 2, 3, p, p ** 2, p ** 3, 7, 7 * p)))
        want = rank1_member(free, closed, p, x)
        seen[want] += 1
        assert _rank1_member(free, closed, p, x) == want, (free, closed, p, x)
    assert min(seen.values()) >= 1000, seen


def test_coset_count_matches_the_pairwise_reference():
    # the suite draws its matrices from the entries -3..3: all of them
    mats = [((a, b), (c, d)) for a, b, c, d in product(range(-3, 4), repeat=4)
            if a * d - b * c != 0]
    assert len(mats) == 2112
    for m in mats:
        assert _coset_count(m) == coset_count_pairwise(m) \
            == abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]), m


def _spy_builds(monkeypatch):
    """The groups whose canonical form is built from here on, in order."""
    built, build = [], ogroup_module._build_canon
    monkeypatch.setattr(ogroup_module, "_build_canon",
                        lambda g: built.append(g) or build(g))
    return built


def test_canon_matches_the_fraction_projection(monkeypatch):
    # the fraction-free projection against the rational one, on seeded
    # groups and on the kernel presentations their convex parts build
    build = ogroup_module._build_canon
    built = _spy_builds(monkeypatch)
    kernels = []
    rng = random.Random(53)
    groups = []
    for _ in range(1000):
        rank, p = rng.randint(1, 4), rng.choice((2, 3, 5))
        gens = [tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3, p, p * p)))
                      for _ in range(rank)) for _ in range(rng.randint(1, 5))]
        nclosed = rng.randint(0, len(gens))
        groups.append(ogroup(gens, closed=range(nclosed),
                             prime=p if nclosed else 1, rank=rank))
    for g in groups:
        c = _canon(g)
        assert _bases(c) == canon_fraction(g), g
        assert _spans(g, c), g
        for ell in range(1, g.rank):
            # g's form is built already, and the part's is not built here:
            # the one form built is the kernel presentation's
            before = len(built)
            ogroup_module._convex_at(g, ell)
            assert len(built) == before + 1
            kernels.append(built[-1])
    assert sum(1 for g in groups if g.p_closed) >= 400
    assert sum(1 for g in groups if not g.p_closed) >= 100
    assert len(kernels) >= 1000
    for k in kernels:
        c = build(k)
        assert _bases(c) == canon_fraction(k), k
        assert _spans(k, c), k


def _bases(c):
    """The form c's divisible and free bases."""
    return c.basis[:len(c.drows)], c.basis[len(c.drows):]


def _spans(g, c):
    """Whether the form c's basis, its divisible part p-closed, presents g:
    each group holds the other with index 1, by the coordinate map on the
    diagonal bases."""
    b = ogroup(list(c.basis), closed=range(len(c.drows)), prime=g.prime,
               rank=g.rank)
    return index_by_elimination(g, b) == 1 == index_by_elimination(b, g)


def test_convex_core_canonicalises_its_part_once(monkeypatch):
    g = lex_compose(cyclic(1), ogroup([1], closed=[0], prime=3))
    built = _spy_builds(monkeypatch)
    part = convex_core(g, (0, 1))
    assert is_p_divisible(part.group, 3)
    # one form for g, one for the thrown-away kernel presentation and one
    # for the part
    assert len(built) == 3
    assert built[0] is g and built[-1] is part.group


def test_each_group_builds_its_form_once(monkeypatch):
    built = _spy_builds(monkeypatch)
    g = lex_compose(cyclic(1), ogroup([F(1, 3)], closed=[0], prime=3))
    h = ogroup([(2, 0), (0, 1)], closed=[1], prime=3)
    for _ in range(3):
        assert contains(g, (F(1), F(1, 27)))
        assert index(g, h) == 2
        join(g, [(F(1, 2), F(0))])
        assert not is_p_divisible(g, 3)
        convex_core(g, (F(0), F(1)))
    # g, h and one thrown-away kernel presentation per convex_core call
    assert len(built) == 5 and built[0] is g and built[1] is h
    assert all(k is not g and k is not h for k in built[2:])


def test_a_built_form_leaves_equality_hash_and_text_alone():
    gens = [(F(1), F(0)), (F(0), F(1, 3))]
    built = ogroup(gens, closed=[1], prime=3)
    bare = ogroup(gens, closed=[1], prime=3)
    assert contains(built, (F(2), F(1, 9)))
    assert "_form" in vars(built) and "_form" not in vars(bare)
    assert built == bare and hash(built) == hash(bare)
    assert repr(built) == repr(bare)
    assert to_json(built) == to_json(bare)
    assert len({built, bare}) == 1


def test_no_module_holds_a_group_or_a_cache():
    # every process starts with no form built: no vallab module keeps a
    # group, whose form would outlive a call, or a cache to clear
    mods = [m for name, m in sorted(sys.modules.items())
            if name.startswith("vallab.") and m is not None]
    assert len(mods) >= 10
    for m in mods:
        for name, value in vars(m).items():
            assert not hasattr(value, "cache_clear"), (m.__name__, name)
            assert not isinstance(value, ogroup_module.OGroup), \
                (m.__name__, name)


@pytest.mark.parametrize("fields, what", [
    (dict(gens=[(F(1, 2),)], p_closed=frozenset()), "gens must be a tuple"),
    (dict(gens=([F(1, 2)],), p_closed=frozenset()), "gens must be a tuple"),
    (dict(gens=((F(1, 2), F(1)),), p_closed=frozenset()),
     "gens must be a tuple"),
    (dict(gens=((F(1, 2),),), p_closed={0}), "p_closed must be a frozenset"),
])
def test_hand_built_group_refuses_mutable_fields(fields, what):
    # a list or set field used to be refused only by accident, by the
    # unhashable key of a form cache; the form kept on the group would go
    # stale if such a field were mutated
    with pytest.raises(ValidationError, match=what):
        ogroup_module.OGroup(rank=1, prime=3, **fields)


@pytest.mark.parametrize("coord", [0.5, "1/2", None, complex(1, 0)])
def test_hand_built_group_refuses_inexact_coordinates(coord):
    # such a group used to build, and its first query died on the missing
    # denominator of a float or str coordinate
    with pytest.raises(ValidationError, match="^gens must hold int or "
                       "Fraction coordinates, got "):
        ogroup_module.OGroup(rank=1, gens=((coord,),), p_closed=frozenset())
    with pytest.raises(ValidationError, match="^gens must hold int"):
        ogroup_module.OGroup(rank=2, gens=((F(1), coord),),
                             p_closed=frozenset())
    g = ogroup_module.OGroup(rank=1, gens=((2,), (F(1, 3),)),
                             p_closed=frozenset({1}), prime=3)
    assert contains(g, F(5, 27)) and index(g, cyclic(F(1, 3))) == INFINITE


def test_hand_built_zero_closed_generator_divides_nothing():
    # ogroup drops zero generators, but a hand-built group may keep a
    # p-closed zero; <0/3^inf; 1> is Z, which a rank-1 form once read as
    # Z[1/3]
    g = ogroup_module.OGroup(rank=1, gens=((0,), (1,)),
                             p_closed=frozenset({0}), prime=3)
    assert not contains(g, F(1, 3)) and contains(g, 5)
    assert not is_p_divisible(g, 3)
    assert same_group(g, cyclic(1)) and index(g, cyclic(2)) == 2
    assert contains(g, F(1, 3)) == contains_by_elimination(g, F(1, 3))
    zero = ogroup_module.OGroup(rank=1, gens=((0,),),
                                p_closed=frozenset({0}), prime=3)
    assert same_group(zero, ogroup([], rank=1)) and not contains(zero, 1)


def test_join_presents_the_canonical_basis():
    # a tower's group gains one value per step; joining to the canonical
    # basis keeps the presentation at rank + 1 generators
    g = ogroup([1], closed=[0], prime=3)
    for k in range(1, 12):
        g = join(g, [F(-1, 2 ** k), F(0)])
        assert len(g.gens) <= 2 and all(any(v) for v in g.gens)
    assert same_group(g, ogroup([1, F(1, 2 ** 11)], closed=[0], prime=3))


def test_is_p_divisible():
    assert is_p_divisible(ogroup([1], closed=[0], prime=3), 3)
    assert not is_p_divisible(ogroup([1], closed=[0], prime=3), 2)
    assert not is_p_divisible(cyclic(1), 3)
    assert is_p_divisible(ogroup([], rank=1), 3)
    assert is_p_divisible(cyclic(1), 1)
    # rank-one absorption: adding 1/2 to Z[1/3] still gives a 3-divisible group
    assert is_p_divisible(join(ogroup([1], closed=[0], prime=3), [F(1, 2)]), 3)
    assert not is_p_divisible(lex_compose(ogroup([1], closed=[0], prime=3),
                                          cyclic(1)), 3)


def test_convex_core_rank_one_is_whole_group():
    g = ogroup([1], closed=[0], prime=5)
    part = convex_core(g, F(1, 5))
    assert part.cut_index == 0
    assert same_group(part.group, g)
    with pytest.raises(ValueError):
        convex_core(g, F(-1, 5))
    with pytest.raises(ValueError):
        convex_core(g, F(1, 2))


def test_convex_core_rank_two():
    g = lex_compose(cyclic(1), cyclic(F(1, 2)))
    part = convex_core(g, (0, F(3, 2)))
    assert part.cut_index == 1
    assert same_group(part.group, ogroup([(0, F(1, 2))], rank=2))
    whole = convex_core(g, (1, 0))
    assert whole.cut_index == 0
    assert same_group(whole.group, g)


def test_convex_part_saturates_against_divisible_block():
    # sigma maps the closed generator to 3; dividing it by p = 3 lets the
    # free generator cancel exactly, so the kernel is Z*(0,1), not Z*(0,3)
    g = ogroup([(3, 0), (1, 1)], closed=[0], prime=3)
    part = convex_core(g, (0, 1))
    assert same_group(part.group, ogroup([(0, 1)], rank=2))
    assert contains(g, (0, 1))


def test_convex_part_respects_prime_to_p_congruence():
    # cancelling the head needs half the closed generator, and 1/2 is not
    # allowed in Z[1/3]; only even multiples of the free generator die
    g = ogroup([(2, 0), (1, 1)], closed=[0], prime=3)
    part = convex_core(g, (0, 2))
    assert same_group(part.group, ogroup([(0, 2)], rank=2))
    assert not contains(g, (0, 1))
    assert contains(g, (0, 2))


def test_convex_part_sampling_consistency():
    rng = random.Random(12)
    pool = [-2, -1, 0, 1, 2, 3, F(1, 2)]
    for _ in range(20):
        p = rng.choice([2, 3])
        gens = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(1, 3))]
        nclosed = rng.randint(0, len(gens))
        g = ogroup(gens, closed=range(nclosed), prime=p if nclosed else 1)
        if g.is_trivial():
            continue
        h = convex_core(g, (0, 1)).group if contains(g, (0, 1)) else None
        if h is None:
            continue
        # soundness: generators of the part lie in g and have zero head
        for i, gen in enumerate(h.gens):
            assert gen[0] == 0
            assert contains(g, gen)
            if i in h.p_closed:
                assert in_divisible_part(g, gen) or contains(g, tuple(c / p for c in gen))
        # completeness on samples: zero-head elements of g land in the part
        free = [gens[i] for i in range(len(gens)) if i >= nclosed]
        cl = [gens[i] for i in range(nclosed)]
        for x in sample_elements(rng, free, cl, p, count=25, coeff=3, kmax=2):
            if x[0] == 0:
                assert contains(h, x), (gens, nclosed, p, x)


def test_convex_part_sampling_consistency_rank_three():
    # every small combination of the generators whose first ell
    # coordinates cancel must lie in the convex part at ell
    rng = random.Random(13)
    p = 5
    pool = [-1, 0, 0, 1, 2, 5, F(1, 5), F(1, 2)]
    for _ in range(15):
        gens = [tuple(rng.choice(pool) for _ in range(3))
                for _ in range(rng.randint(2, 4))]
        nclosed = rng.randint(0, len(gens))
        g = ogroup(gens, closed=range(nclosed), prime=p if nclosed else 1)
        if g.is_trivial():
            continue
        vecs = [tuple(F(c) / p for c in v) if i < nclosed else v
                for i, v in enumerate(gens)]
        combos = {tuple(sum(a * v[k] for a, v in zip(coeffs, vecs))
                        for k in range(3))
                  for coeffs in product(range(-2, 3), repeat=len(vecs))}
        for ell in (1, 2):
            heads = [x for x in combos if any(x) and not any(x[:ell])]
            if not heads:
                continue
            x = max(heads)   # lex-largest, so positive
            part = convex_core(g, x)
            assert part.cut_index == next(i for i, c in enumerate(x) if c)
            for i, gen in enumerate(part.group.gens):
                assert not any(gen[:part.cut_index])
                assert contains(g, gen)
                if i in part.group.p_closed:
                    assert in_divisible_part(g, gen)
            for y in combos:
                if not any(y[:part.cut_index]):
                    assert contains(part.group, y), (gens, nclosed, y)


def _spy_kernels(monkeypatch):
    """The row lists int_kernel is called on from ogroup, in order."""
    calls, kernel = [], ogroup_module.int_kernel
    monkeypatch.setattr(ogroup_module, "int_kernel",
                        lambda rows: calls.append(rows) or kernel(rows))
    return calls


def test_convex_part_matches_the_smith_reference(monkeypatch):
    # the part read off the echelon form against the diagonalization of
    # the kernel it replaced, at every cut of seeded groups; q is read off
    # the one int_kernel call, whose last row ends in q when D' is nonempty
    calls = _spy_kernels(monkeypatch)
    hits = dict(q=0, fcut=0, trivial=0)
    for g in seeded_ogroups(3900, 3000):
        c = _canon(g)
        for ell in range(1, g.rank):
            part = ogroup_module._convex_at(g, ell)
            assert same_group(part, convex_at_by_smith(g, ell)), (g, ell)
            for v in part.gens:
                assert not any(v[:ell]) and contains(g, v), (g, ell, v)
            cut = sum(k < ell for k, _, _ in c.drows)
            hits["q"] += cut > 0 and calls[-1][-1][-1] > 1
            hits["fcut"] += any(k < ell for k, _, _ in c.frows)
            hits["trivial"] += part.is_trivial()
    assert min(hits.values()) >= 100, hits


def test_convex_part_makes_one_kernel_call(monkeypatch):
    # one int_kernel call per part of a nontrivial group (a trivial one is
    # its own part), and no second reduction beside it
    assert not hasattr(intlinalg_module, "diagonalize_with_basis")
    calls = _spy_kernels(monkeypatch)
    parts = 0
    for g in seeded_ogroups(11, 200):
        for ell in range(1, g.rank):
            before = len(calls)
            ogroup_module._convex_at(g, ell)
            assert len(calls) == before + (not g.is_trivial()), (g, ell)
            parts += not g.is_trivial()
    assert parts >= 300


def test_is_roughly_p_divisible():
    # roughly p-divisible: the convex core of vp is p-divisible
    zp3 = ogroup([1], closed=[0], prime=3)
    g = lex_compose(cyclic(1), zp3)
    assert not is_p_divisible(g, 3)
    assert is_p_divisible(convex_core(g, (0, 1)).group, 3)
    assert not is_p_divisible(convex_core(g, (1, 0)).group, 3)
    flipped = lex_compose(zp3, cyclic(1))
    assert not is_p_divisible(convex_core(flipped, (0, 1)).group, 3)
    # equal characteristic: no distinguished element, whole group decides
    assert is_p_divisible(zp3, 3)
    assert not is_p_divisible(g, 3)


def test_quotient_keeps_divisibility():
    zp = ogroup([1], closed=[0], prime=2)
    g = lex_compose(zp, cyclic(1))
    part = convex_core(g, (0, 1))
    # g modulo its convex part at cut ell is the image on the leading ell
    q = project(g, 0, part.cut_index)
    assert same_group(q, ogroup([1], closed=[0], prime=2))
    assert is_p_divisible(q, 2)


def test_project_trailing():
    zp = ogroup([1], closed=[0], prime=3)
    g = lex_compose(cyclic(1), zp)
    t = project_trailing(g, 1)
    assert t.rank == 1
    assert same_group(t, zp)
    with pytest.raises(ValueError):
        project_trailing(g, 2)


def test_hull_p_div():
    g = cyclic(1)
    h = hull(g, "p_div", "exact", 3)
    assert same_group(h, ogroup([1], closed=[0], prime=3))
    h2 = hull(g, "p_div", 2, 3)
    assert same_group(h2, cyclic(F(1, 9)))
    assert index(h2, g) == 9
    with pytest.raises(ValueError):
        hull(g, "p_div", -1, 3)


def test_hull_p_prime_div():
    g = cyclic(1)
    h = hull(g, "p_prime_div", 4, 3)
    assert same_group(h, cyclic(F(1, 4)))
    # lcm of {1,2,3,4,6} with multiples of 5 excluded
    h6 = hull(g, "p_prime_div", 6, 5)
    assert same_group(h6, cyclic(F(1, 12)))
    with pytest.raises(ValueError):
        hull(g, "p_prime_div", "exact", 3)
    with pytest.raises(ValueError):
        hull(g, "nonsense", 1, 3)


@pytest.mark.skipif(not sys.get_int_max_str_digits(),
                    reason="the interpreter converts integers of any length")
def test_hull_refuses_exactly_a_scale_that_cannot_print():
    # a hull whose scale needs an integer longer than the interpreter
    # converts to text is refused, without building the scale: <1> at
    # level k has the scale 3^k
    bound = 10 ** sys.get_int_max_str_digits()
    k = int(math.log(bound, 3))
    while 3 ** (k + 1) < bound:
        k += 1
    while 3 ** k >= bound:
        k -= 1
    g = cyclic(1)
    assert json.dumps(to_json(hull(g, "p_div", k, 3)))
    with pytest.raises(ValidationError, match="get_int_max_str_digits"):
        hull(g, "p_div", k + 1, 3)
    with pytest.raises(ValidationError, match="get_int_max_str_digits"):
        hull(g, "p_div", 10 ** 9, 3)
    with pytest.raises(ValidationError, match="get_int_max_str_digits"):
        hull(g, "p_prime_div", 10 ** 8, 3)


def test_lex_compose():
    g = lex_compose(cyclic(1), ogroup([1], closed=[0], prime=3))
    assert g.rank == 2
    assert contains(g, (2, F(1, 27)))
    assert not contains(g, (F(1, 3), 0))
    with pytest.raises(ValueError):
        lex_compose(ogroup([1], closed=[0], prime=2),
                    ogroup([1], closed=[0], prime=3))


def test_json_round_trip():
    g = ogroup([1, F(-1, 9)], closed=[0], prime=3)
    d = to_json(g)
    assert d["rank"] == 1
    assert d["gens"] == [[1, 1], [-1, 9]]
    assert d["p_closed"] == [0]
    assert same_group(from_json(d), g)

    g2 = lex_compose(cyclic(1), ogroup([F(1, 2)], closed=[0], prime=5))
    d2 = to_json(g2)
    assert d2["gens"] == [[[1, 1], [0, 1]], [[0, 1], [1, 2]]]
    assert same_group(from_json(d2), g2)


def test_canonical_form_idempotent_under_requotation():
    rng = random.Random(13)
    pool = [F(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 3)]
    for _ in range(30):
        p = rng.choice([2, 3])
        gens = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        nclosed = rng.randint(0, len(gens))
        g = ogroup(gens, closed=range(nclosed), prime=p if nclosed else 1)
        # shuffling generators or doubling them changes nothing
        dup = ogroup(gens + gens, closed=list(range(nclosed)) +
                     [len(gens) + i for i in range(nclosed)],
                     prime=p if nclosed else 1)
        assert same_group(g, dup)
        assert index(g, dup) == 1 if not g.is_trivial() else True
