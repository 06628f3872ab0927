"""Verification suites shared by the CLI and the test suite.

Each suite runs a batch of independent cross-checks and returns a
SuiteResult with pass/fail counts and one line per failed case (plus a
summary line per block).  All randomness comes from a seeded
random.Random, so a fixed seed gives byte-identical reports.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .constructions import BUILDERS
from .corpus import shipped_corpus
from .classify import audit_implications
from .errors import VallabError, ValidationError
from .ogroup import contains, index, ogroup
from .resfield import ResField
from .tower import Tower, adjoin_root
from .values import INFINITE, Indeterminate
from .vbase import EqBase, PadicBase


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    lines: list = field(default_factory=list)

    def ok(self) -> bool:
        return self.failed == 0

    def tally(self, good: bool, line: str):
        if good:
            self.passed += 1
        else:
            self.failed += 1
            self.lines.append("FAIL " + line)


# ---------------------------------------------------------------------------
# ostrowski: every shipped construction is defectless at every finite step


_OSTROWSKI_CASES = (
    ("as-valgp", {"p": 2, "depth": 2}),
    ("as-valgp", {"p": 3, "depth": 2}),
    ("lemma33", {"p": 2}),
    ("lemma33", {"p": 3}),
    ("as-resf", {"p": 2, "depth": 1}),
    ("as-resf", {"p": 3, "depth": 1}),
    ("kummer-valgp", {"p": 2, "depth": 1}),
    ("kummer-valgp", {"p": 3, "depth": 1}),
    ("two-ext", {"p": 2}),
    ("two-ext", {"p": 3}),
    ("kummer-resf", {"p": 2, "depth": 1}),
    ("kummer-resf", {"p": 3, "depth": 1}),
)


def suite_ostrowski(seed: int) -> SuiteResult:
    res = SuiteResult("ostrowski")
    for name, params in _OSTROWSKI_CASES:
        label = name + " " + " ".join("%s=%s" % kv for kv in params.items())
        cert = BUILDERS[name](**params).certificate
        for n, step in cert.steps:
            res.tally(step.m == 0 and step.degree == step.e * step.f,
                      "%s row %s: (deg,e,f,m)=(%s,%s,%s,%s)"
                      % (label, n, step.degree, step.e, step.f, step.m))
        res.tally(all(cert.absorption),
                  "%s: absorption flags %s" % (label, cert.absorption))
    return res


# ---------------------------------------------------------------------------
# congruence: (c_1 + ... + c_n)^p = c_1^p + ... + c_n^p modulo positive value


def _random_padic(rng: random.Random, base: PadicBase):
    digits = {}
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(-1, 3)
        coeff = rng.randint(1, base.p - 1) if base.p > 2 else 1
        digits[pos] = digits.get(pos, 0) + coeff
    return base.from_digits(digits)


def suite_congruence(seed: int) -> SuiteResult:
    res = SuiteResult("congruence")
    rng = random.Random(seed)
    for p in (2, 3, 5):
        base = PadicBase(p, p)
        for t in range(200):
            terms = [_random_padic(rng, base)
                     for _ in range(rng.randint(2, 4))]
            total = base.zero()
            powers = base.zero()
            for c in terms:
                total = total + c
                powers = powers + c ** p
            diff = total ** p - powers
            v = diff.val()
            good = v == INFINITE or \
                (not isinstance(v, Indeterminate) and v >= 0)
            res.tally(good, "p=%d trial %d: val=%s" % (p, t, v))
    return res


# ---------------------------------------------------------------------------
# newton: adjoin_root against the lower hull of its relation's polygon


def suite_newton(seed: int) -> SuiteResult:
    """Adjoin roots of X^p - a and X^p - X - a, a = c t^(k/d), over F_p,
    F_p(u) or the digit ring w^d = -p, value group Z/d, against the polygon
    in units of 1/d: an inner point below the chord makes several slopes,
    and one on it a separable residue equation, which is refused; else the
    roots have value k/(pd): ramified outside Z/d, a residue jump for
    c = u^j with p not dividing j, and no step otherwise."""
    res = SuiteResult("newton")
    rng = random.Random(seed)
    towers = {}
    for t in range(100):
        p = rng.choice((2, 3, 5))
        field = rng.choice(("finite", "ratfun", "digits"))
        d = rng.choice((1 if field != "digits" else 2, p))
        relation = rng.choice(("as", "kummer"))
        k = rng.choice((-p, -1, 0, 1, p)) * rng.randint(1, 2)
        c, j = rng.randint(1, p - 1), rng.randint(0, 2) * (field == "ratfun")
        if (p, field, d) not in towers:
            towers[p, field, d] = Tower(
                PadicBase(p, d, -1) if field == "digits" else EqBase(
                    p, ResField(p, field), ogroup([Fraction(1, d)], prime=p)))
        t0 = towers[p, field, d]
        pts = [(0, k)] + [(1, 0)] * (relation == "as") + [(p, 0)]
        (x0, y0), (x1, y1) = pts[0], pts[-1]
        # > 0 for an inner point below the chord, 0 for one on it
        sides = [(y1 - y0) * (x - x0) - (y - y0) * (x1 - x0)
                 for x, y in pts[1:-1]]
        if any(side > 0 for side in sides):
            want = ("not_single_slope", None)
        elif 0 in sides:
            want = ("refused", None)
        else:
            want = ("ramified" if (y0 - y1) % (x1 - x0) else
                    "residue" if j % p else "no_step_detected",
                    Fraction(y0 - y1, (x1 - x0) * d))
        try:
            adj = adjoin_root(t0, relation, t0.from_base(
                t0.base.monomial(Fraction(k, d), {j: c})), "x")
            got = (adj.outcome, adj.value)
        except VallabError as exc:
            got = ("refused" if "separable residue equation" in str(exc)
                   else "error: %s" % exc, None)
        res.tally(got == want, "trial %d: %s p=%d over %s, v(a)=%d/%d, "
                  "u^%d: got %s %s want %s %s"
                  % ((t, relation, p, field, k, d, j) + got + want))
    return res


# ---------------------------------------------------------------------------
# ogroup: membership and index against naive arithmetic


_RANK1_KCAP = 24
_COSET_CAP = 200


def _rank1_member(free, closed, p, x):
    """Membership in a rank-1 group by integer gcd arithmetic.

    Over the common denominator d, x lies in sum Z f + sum Z h / p^k
    exactly when p^k * x * d is a multiple of gcd(p^k * f * d, h * d),
    tried for each k below _RANK1_KCAP.
    """
    vals = [x, *free, *closed]
    d = lcm(*(q.denominator for q in vals))
    xn, *nums = [q.numerator * (d // q.denominator) for q in vals]
    if not nums:
        return xn == 0
    gf, gh = gcd(*nums[:len(free)]), gcd(*nums[len(free):])
    for k in range(_RANK1_KCAP if closed else 1):
        pk = p ** k
        g0 = gcd(pk * gf, gh)
        if (pk * xn % g0 == 0) if g0 else xn == 0:
            return True
    return False


def _tri_member(u, v, x, p, closed_v):
    """Membership in Zu + Zv (v optionally Z[1/p]-scaled), u triangular."""
    a = Fraction(x[0]) / u[0]
    if a.denominator != 1:
        return False
    b = Fraction(x[1]) - a * u[1]
    if v is None:
        return b == 0
    b = b / v[1]
    if closed_v:
        den = b.denominator
        while den % p == 0:
            den //= p
        return den == 1
    return b.denominator == 1


def _order(x, free, closed, p, cap):
    """The least j in 1..cap with j*x in the rank-1 group sum Z f +
    sum Z[1/p] h, decided by _rank1_member; INFINITE when there is none."""
    return next((j for j in range(1, cap + 1)
                 if _rank1_member(free, closed, p, j * x)), INFINITE)


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _coset_count(m):
    """Order of Z^2 / mZ^2 by breadth-first enumeration.

    y lies in the image lattice exactly when adj(m) y = 0 mod det(m), so
    two points share a coset exactly when adj(m) y mod |det(m)| agrees;
    the walk keys each point by that pair and keeps the set of keys seen.
    """
    det = abs(_det2(m))
    (a, b), (c, e) = m

    def key(y):
        return (e * y[0] - b * y[1]) % det, (a * y[1] - c * y[0]) % det

    seen = {key((0, 0))}
    queue = [(0, 0)]
    while queue:
        cur = queue.pop()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (cur[0] + dx, cur[1] + dy)
            k = key(nxt)
            if k in seen:
                continue
            seen.add(k)
            queue.append(nxt)
            if len(seen) > _COSET_CAP:
                raise RuntimeError("coset enumeration exceeded the cap")
    return len(seen)


def suite_ogroup(seed: int) -> SuiteResult:
    res = SuiteResult("ogroup")
    rng = random.Random(seed)
    for t in range(100):
        p = rng.choice((2, 3))
        if t % 2 == 0:
            # rank 1, possibly with a p-divisibly closed generator
            free = [Fraction(rng.randint(1, 5), rng.randint(1, 4))]
            closed = [Fraction(rng.randint(1, 5), rng.randint(1, 4))] \
                if rng.random() < 0.5 else []
            gens = free + closed
            g = ogroup(gens, closed=tuple(range(len(free), len(gens))),
                       prime=p if closed else 1)
            for _ in range(4):
                x = sum((rng.randint(-4, 4) * f for f in free), Fraction(0))
                x += sum((Fraction(rng.randint(-4, 4), p ** rng.randint(0, 2))
                          * c for c in closed), Fraction(0))
                if rng.random() < 0.4:
                    x += Fraction(1, 7)
                want = _rank1_member(free, closed, p, x)
                got = contains(g, x)
                res.tally(got == want,
                          "t=%d rank1 contains %s: got %s want %s"
                          % (t, x, got, want))
            if not closed:
                m = rng.randint(1, 6)
                h = ogroup([m * f for f in free])
                got = index(g, h)
                res.tally(got == m,
                          "t=%d rank1 index: got %s want %s" % (t, got, m))
        else:
            # rank 2 lattice from a triangular basis, presented redundantly
            u = (Fraction(rng.randint(1, 4)), Fraction(rng.randint(-3, 3)))
            v = (Fraction(0), Fraction(rng.randint(1, 4)))
            closed_v = rng.random() < 0.4
            gens = [u, v, (u[0] + 2 * v[0], u[1] + 2 * v[1])]
            g = ogroup(gens, closed=(1,) if closed_v else (),
                       prime=p if closed_v else 1)
            for _ in range(4):
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                x = [a * u[0] + b * v[0], a * u[1] + b * v[1]]
                if closed_v and rng.random() < 0.5:
                    q = Fraction(rng.randint(1, 3), p ** rng.randint(1, 2))
                    x[0] += q * v[0]
                    x[1] += q * v[1]
                if rng.random() < 0.4:
                    x[rng.randint(0, 1)] += Fraction(1, 7)
                want = _tri_member(u, v, x, p, closed_v)
                got = contains(g, tuple(x))
                res.tally(got == want,
                          "t=%d rank2 contains %s: got %s want %s"
                          % (t, x, got, want))
            if not closed_v:
                while True:
                    m = ((rng.randint(-3, 3), rng.randint(-3, 3)),
                         (rng.randint(-3, 3), rng.randint(-3, 3)))
                    if _det2(m) != 0:
                        break
                hg = [(m[0][0] * u[0] + m[0][1] * v[0],
                       m[0][0] * u[1] + m[0][1] * v[1]),
                      (m[1][0] * u[0] + m[1][1] * v[0],
                       m[1][0] * u[1] + m[1][1] * v[1])]
                h = ogroup(hg)
                want = _coset_count(m)
                got = index(g, h)
                res.tally(got == want,
                          "t=%d rank2 index: got %s want %s"
                          % (t, got, want))
            else:
                # the closed direction makes any plain sublattice infinite
                h = ogroup([u, (2 * v[0], 2 * v[1])])
                got = index(g, h)
                res.tally(got == INFINITE,
                          "t=%d rank2 index vs closed: got %s want INFINITE"
                          % (t, got))
    _ogroup_divisible_index(res, random.Random("ogroup-index %d" % seed))
    return res


def _ogroup_divisible_index(res, rng):
    """Indices of p-divisible subgroups, from their own random stream.

    [Z[1/p] b : Z[1/p] r b] is the order of b modulo Z[1/p] r b, and
    [Z u + Z[1/p] v : Z (a u + b v) + Z[1/p] c v], u and v triangular, the
    order of u_0 modulo Z a u_0 times that of v_1 modulo Z[1/p] c v_1.
    """
    for t in range(24):
        p, kind = rng.choice((2, 3)), t % 6
        bg = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        r = Fraction(rng.randint(1, 6)) * Fraction(p) ** rng.randint(-2, 2)
        # g is Z[1/p] b_g, on odd t with a free multiple it absorbs
        g = ogroup([bg] + [bg * rng.randint(1, 3)] * (t % 2), closed=(0,),
                   prime=p)
        if kind < 3:
            h = ogroup([r * bg], closed=(0,), prime=p)
            want = _order(bg, [], [r * bg], p, r.numerator)
        elif kind == 3:
            h = ogroup([], rank=1)
            want = _order(bg, [], [], p, 6)
        elif kind == 4:
            # closed under another prime q: b_h / q^k leaves g for some k
            q = rng.choice([5, 5 - p])
            h = ogroup([r * bg], closed=(0,), prime=q)
            want = "inside" if all(_rank1_member([], [bg], p, r * bg / q ** k)
                                   for k in range(8)) else "refused"
        else:
            u = (Fraction(rng.randint(1, 4)), Fraction(rng.randint(-3, 3)))
            v = (Fraction(0), Fraction(rng.randint(1, 4)))
            a, b = rng.randint(1, 3), rng.randint(-2, 2)
            c = rng.randint(1, 3) * p ** rng.randint(0, 2)
            g = ogroup([u, v], closed=(1,), prime=p)
            h = ogroup([(a * u[0], a * u[1] + b * v[1]), (0, c * v[1])],
                       closed=(1,), prime=p)
            want = (_order(u[0], [a * u[0]], [], p, a)
                    * _order(v[1], [], [c * v[1]], p, c))
        try:
            got = index(g, h)
        except ValidationError:
            got = "refused"
        res.tally(got == want, "t=%d divisible index %s in %s: got %s want %s"
                  % (t, h, g, got, want))


# ---------------------------------------------------------------------------
# implications: the corpus audit


def suite_implications(seed: int) -> SuiteResult:
    res = SuiteResult("implications")
    report = audit_implications(shipped_corpus())
    bad = {}
    for v in report["violations"]:
        bad.setdefault(v["descriptor"], []).append(v["implication"])
    for name in report["verdicts"]:
        res.tally(name not in bad, "%s: %s" % (name, bad.get(name)))
    for note in report["notices"]:
        res.lines.append("note " + note)
    return res


SUITES = {
    "ostrowski": suite_ostrowski,
    "congruence": suite_congruence,
    "newton": suite_newton,
    "ogroup": suite_ogroup,
    "implications": suite_implications,
}


def run_suite(name: str, seed: int) -> SuiteResult:
    try:
        fn = SUITES[name]
    except KeyError:
        raise KeyError("unknown suite %r (have: %s)"
                       % (name, ", ".join(sorted(SUITES))))
    return fn(seed=seed)
