"""Exact integer linear algebra on small dense matrices, and primality.

Everything here works on lists of integer row vectors and is sized for
the rank <= 4 lattices this library manipulates, so clarity wins over
asymptotics.  row_echelon (integer row reduction with its unimodular
transform) builds every value group's echelon form, and int_kernel reads
integer kernels off it, which cuts each convex part out of that form.
"""

from __future__ import annotations

from .errors import ValidationError


def row_echelon(rows):
    """Integer row echelon form by euclidean row operations.

    Returns (echelon, transform), the transform a unimodular matrix T
    (list of rows) with echelon = T * rows.  Zero rows sink to the bottom.
    """
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    ncols = len(a[0]) if a else 0
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    piv = 0
    for col in range(ncols):
        if piv >= n:
            break
        # euclidean elimination in this column, rows piv..n-1: the first
        # row of least nonzero absolute value becomes the pivot row
        while True:
            best, least = None, 0
            for i in range(piv, n):
                x = abs(a[i][col])
                if x and (best is None or x < least):
                    best, least = i, x
            if best is None:
                break
            if best != piv:
                a[piv], a[best] = a[best], a[piv]
                t[piv], t[best] = t[best], t[piv]
            top, ttop = a[piv], t[piv]
            done = True
            for i in range(piv + 1, n):
                x = a[i][col]
                if x:
                    q = x // top[col]
                    a[i] = [u - q * w for u, w in zip(a[i], top)]
                    t[i] = [u - q * w for u, w in zip(t[i], ttop)]
                    if a[i][col]:
                        done = False
            if done:
                break
        if piv < n and a[piv][col] != 0:
            if a[piv][col] < 0:
                a[piv] = [-x for x in a[piv]]
                t[piv] = [-x for x in t[piv]]
            piv += 1
    return a, t


def int_kernel(rows):
    """Z-basis of {x in Z^k : sum_i x_i * rows[i] = 0}.

    The result spans a saturated sublattice of Z^k (it is the full
    integer kernel, not a finite-index piece of it).
    """
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        return []
    ech, t = row_echelon(rows)
    return [t[i] for i in range(len(rows)) if not any(x != 0 for x in ech[i])]


def prime_to_p_part(n: int, p: int) -> int:
    """Largest divisor of |n| coprime to p."""
    n = abs(n)
    if n == 0:
        return 0
    if p <= 1:
        return n
    while n % p == 0:
        n //= p
    return n


def p_exponent(n: int, p: int) -> int:
    """Largest e with p^e dividing n (n nonzero, p > 1)."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


# the first 13 primes; as Miller-Rabin bases they decide every n below
# _MR_BOUND (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is a prime number.

    Trial division by the bases decides every n below 41^2.  Above that,
    n is prime exactly when it is a strong probable prime to every base,
    which is proven below _MR_BOUND (about 3.3e24); a larger n without a
    small factor is a ValidationError.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < _MR_BASES[-1] ** 2:
        return True
    if n >= _MR_BOUND:
        raise ValidationError("primality is decided only below %d"
                              % _MR_BOUND)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
