import math
import random
from fractions import Fraction

import pytest

from vallab.errors import ValidationError
from vallab.intlinalg import (
    diagonalize_with_basis,
    int_kernel,
    is_prime,
    prime_to_p_part,
    row_echelon,
)

from helpers import int_rref, lattice_solve, perm_det, reduce_mod_span, rref


def test_row_echelon_shape_and_transform():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    ech, t = row_echelon(rows)
    # transform is unimodular (square, full rank, |det| = 1) and
    # reproduces the echelon
    _, piv, den = int_rref(t)
    assert len(piv) == len(t) == len(rows) and den == 1
    for i in range(len(rows)):
        combo = [sum(t[i][j] * rows[j][c] for j in range(len(rows)))
                 for c in range(3)]
        assert combo == ech[i]
    # echelon shape: pivots strictly to the right, zero rows at the bottom
    last = -1
    seen_zero = False
    for r in ech:
        nz = [i for i, x in enumerate(r) if x != 0]
        if not nz:
            seen_zero = True
            continue
        assert not seen_zero
        assert nz[0] > last
        last = nz[0]


def test_row_echelon_preserves_lattice():
    rng = random.Random(2)
    for _ in range(30):
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        ech, _ = row_echelon(rows)
        for r in ech:
            assert lattice_solve(rows, r) is not None
        for r in rows:
            assert lattice_solve([e for e in ech if any(e)], r) is not None


def test_int_kernel_exact_and_known():
    assert int_kernel([[2, 4], [1, 2]]) in ([[1, -2]], [[-1, 2]])
    rng = random.Random(3)
    for _ in range(30):
        rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(4)]
        for combo in int_kernel(rows):
            for c in range(2):
                assert sum(combo[i] * rows[i][c] for i in range(4)) == 0


def test_int_kernel_saturated():
    # (2, -1) spans the kernel of [[1, 2], [2, 4]]; a non-saturated
    # variant would return a multiple like (4, -2)
    ker = int_kernel([[1, 2], [2, 4]])
    assert len(ker) == 1
    a, b = ker[0]
    from math import gcd
    assert gcd(a, b) == 1


def test_det_against_permutation_sum():
    # int_rref's denominator is |det| on a square matrix of full rank
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        det = perm_det(rows)
        _, piv, den = int_rref(rows)
        assert len(piv) == n if det else len(piv) < n
        if det:
            assert den == abs(det)


def test_rref_reduces_modulo_the_span():
    rng = random.Random(6)
    for _ in range(30):
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(3)] for _ in range(rng.randint(1, 3))]
        ech, piv = rref(rows)
        for r, col in zip(ech, piv):
            assert [r[c] for c in piv] == [int(c == col) for c in piv]
        # every input row reduces to zero, and a reduced vector is fixed
        for r in rows:
            assert not any(reduce_mod_span(r, ech, piv))
        x = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        y = reduce_mod_span(x, ech, piv)
        assert reduce_mod_span(y, ech, piv) == y
        assert all(y[c] == 0 for c in piv)


def test_int_rref_matches_the_rational_rref():
    rng = random.Random(8)
    cases = [[], [[0, 0, 0]], [[0], [0]], [[3]], [[2, 4], [1, 2]]]
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.5:
            # a row that is a combination of the others: rank deficient
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [a * x + b * y
                        for x, y in zip(rows[0], rows[1 % (m - 1)])]
        if rng.random() < 0.2:
            rows[rng.randrange(m)] = [0] * n
        cases.append(rows)
    for rows in cases:
        ech, piv, den = int_rref(rows)
        want, want_piv = rref(rows)
        assert den > 0 and all(isinstance(x, int) for r in ech for x in r)
        assert piv == want_piv, rows
        assert [[Fraction(x, den) for x in r] for r in ech] == want, rows


def test_diagonalize_with_basis_two_sided():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        diag, basis = diagonalize_with_basis(rows, n)
        assert all(d > 0 for d in diag)
        scaled = [[d * x for x in u] for d, u in zip(diag, basis)]
        # every original row lies in the diagonal lattice
        for r in rows:
            if any(r):
                assert lattice_solve(scaled, r) is not None
        # every diagonal generator lies in the original lattice
        for s in scaled:
            assert lattice_solve(rows, s) is not None


def test_diagonalize_matches_sympy_smith_form():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    def invariant_factors(rows):
        snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
        return [abs(int(snf[i, i])) for i in range(min(snf.shape))
                if snf[i, i] != 0]

    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diag, _ = diagonalize_with_basis(rows, n)
        # the diagonal need not form a divisor chain; its own invariant
        # factors must be the matrix's
        square = [[d if i == j else 0 for j in range(len(diag))]
                  for i, d in enumerate(diag)]
        assert (invariant_factors(square) if diag else []) == \
            invariant_factors(rows)


def test_lattice_solve():
    rows = [[2, 0], [0, 3]]
    assert lattice_solve(rows, [4, 9]) == [2, 3]
    assert lattice_solve(rows, [1, 0]) is None
    assert lattice_solve([], [0, 0]) == []
    assert lattice_solve([], [1]) is None
    assert lattice_solve([[1, 2]], [2, 4]) == [2]
    assert lattice_solve([[1, 2]], [2, 5]) is None


def test_prime_to_p_part():
    assert prime_to_p_part(12, 2) == 3
    assert prime_to_p_part(-45, 3) == 5
    assert prime_to_p_part(7, 7) == 1
    assert prime_to_p_part(10, 1) == 10
    assert prime_to_p_part(0, 3) == 0


def _by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _by_trial_division(n)
               for n in range(-3, 10 ** 5))


def test_is_prime_matches_sympy_on_seeded_64_bit_integers():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20263)
    ns = [rng.getrandbits(64) | 1 for _ in range(2000)]
    ns += [int(sympy.nextprime(rng.getrandbits(64))) for _ in range(200)]
    assert sum(map(is_prime, ns)) >= 200
    assert all(is_prime(n) == sympy.isprime(n) for n in ns)


def test_is_prime_on_mersenne_and_pseudoprimes():
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 14 + 31)
    # Carmichael numbers, and strong pseudoprimes to the bases 2-7 and 2-23
    for n in (561, 41041, 3215031751, 3825123056546413051):
        assert not is_prime(n)


def test_is_prime_refuses_an_integer_past_its_proven_bound():
    assert not is_prime(2 ** 89)            # a small factor still decides
    with pytest.raises(ValidationError, match="3317044064679887385961981"):
        is_prime(2 ** 89 - 1)
