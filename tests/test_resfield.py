import random

import pytest

from vallab import resfield
from vallab.errors import ValidationError
from vallab.resfield import (ResField, _padd, _pgcd, _pmul, _pnorm, _pscale,
                             _reduced, resfield_from_json)

from helpers import reduced_by_euclid


def rand_elem(field, rng, deg=4):
    num = {rng.randrange(deg + 1): rng.randrange(field.char) for _ in range(3)}
    den = {0: 1, rng.randrange(1, deg + 1): rng.randrange(field.char)}
    x = field.elem(num)
    y = field.elem(den)
    return x / y


def test_prime_field_basics():
    f = ResField(3)
    assert f.is_perfect()
    assert f.elem(5) == f.elem(2)
    assert f.elem(2) + f.elem(2) == f.elem(1)
    assert f.elem(2) * f.elem(2) == f.elem(1)
    assert (-f.elem(1)) == f.elem(2)
    assert f.elem(2).inverse() == f.elem(2)
    assert [f.elem(c).to_text() for c in range(3)] == ["0", "1", "2"]


def test_prime_field_pth_root_is_identity():
    f = ResField(5)
    for c in range(5):
        assert f.elem(c).pth_root() == f.elem(c)


def test_ratfun_reduction():
    f = ResField(3, "ratfun")
    u = f.gen()
    # (u^2 - 1)/(u - 1) = u + 1
    x = f.elem({2: 1, 0: -1}) / f.elem({1: 1, 0: -1})
    assert x == u + 1
    assert x.to_text() == "1 + u"


def test_negative_exponent_input():
    f = ResField(3, "ratfun")
    x = f.elem({-1: 1})
    assert x * f.gen() == f.one()
    assert x.to_text() == "(1)/(u)"


def test_pth_root_frozen():
    f = ResField(3, "ratfun")
    x = f.elem({3: 1, 6: 1})  # u^3 + u^6
    r = x.pth_root()
    assert r is not None
    assert r == f.elem({1: 1, 2: 1})  # u + u^2
    assert f.gen().pth_root() is None


def test_pth_root_extend_and_halves():
    f = ResField(3, "ratfun")
    r = f.gen().pth_root_extend()
    assert r.field.kind == "perflevel" and r.field.level == 1
    assert r.to_text() == "u^(1/3)"
    # u^{1/3} * u^{1/3} = u^{2/3}
    prod = r * r
    assert prod.to_text() == "u^(2/3)"
    assert prod * r == f.gen()


def test_adjoin_pth_root_chain():
    f = ResField(2, "ratfun")
    assert f.gen().pth_root() is None
    r1 = f.gen().pth_root_extend()
    assert r1.field.level == 1
    assert r1.pth_root() is None
    r2 = r1.pth_root_extend()
    assert r2.field.level == 2
    assert r2 * r2 == r1
    # u^2 already has a root in place: no new level
    assert (f.gen() ** 2).pth_root_extend().field.level == 0


def test_cross_level_equality_and_hash():
    f = ResField(3, "ratfun")
    u0 = f.gen()
    u2 = u0.at_level(2)
    assert u0 == u2
    assert len({u0, u2}) == 1


def test_frobenius_is_pth_power():
    # frobenius skips the gcd: its num/den must be the reduced form anyway
    rng = random.Random(7)
    for p in (2, 3, 5, 7):
        for f in (ResField(p), ResField(p, "ratfun"),
                  ResField(p, "perflevel", level=2)):
            for _ in range(20):
                x = rand_elem(f, rng) if f.has_variable() \
                    else f.elem(rng.randrange(p))
                y = x.frobenius()
                ref = _reduced(f, {e * p: c for e, c in x.num},
                               {e * p: c for e, c in x.den})
                assert (y.num, y.den) == (ref.num, ref.den)
                assert y == x ** p


def test_pth_power_roundtrip():
    rng = random.Random(11)
    f = ResField(3, "ratfun")
    for _ in range(25):
        x = rand_elem(f, rng)
        y = (x ** 3).pth_root()
        assert y is not None and y == x


def test_field_axioms_sampled():
    rng = random.Random(23)
    f = ResField(5, "ratfun")
    for _ in range(15):
        a, b, c = (rand_elem(f, rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a + b) + c == a + (b + c)
        if not a.is_zero():
            assert a * a.inverse() == f.one()


def test_powers_of_root_independent():
    # 1, r, r^2 with r = u^{1/3} admit no nontrivial F_3(u)-relation
    rng = random.Random(5)
    f = ResField(3, "ratfun")
    r = f.gen().pth_root_extend()
    powers = [f.one().at_level(1), r, r * r]
    for _ in range(60):
        coeffs = [rand_elem(f, rng, deg=2) for _ in range(3)]
        if all(c.is_zero() for c in coeffs):
            continue
        acc = f.zero().at_level(1)
        for c, pw in zip(coeffs, powers):
            acc = acc + c.at_level(1) * pw
        assert not acc.is_zero()


def test_fq_descriptor_restrictions():
    f9 = ResField(3, "finite", q=9)
    assert f9.is_perfect()
    with pytest.raises(ValidationError):
        f9.elem(1)
    with pytest.raises(ValidationError):
        ResField(3).gen()


def test_json_roundtrip():
    for f in (ResField(3), ResField(3, "finite", q=27), ResField(2, "ratfun"),
              ResField(5, "perflevel", level=2)):
        assert resfield_from_json(f.to_json()) == f


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pgcd_matches_sympy_monic_gcd(p):
    # a planted common factor makes most gcds nontrivial
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(40 + p)

    def poly():
        d = rng.randint(0, 4)
        return _pnorm({**{e: rng.randrange(p) for e in range(d)},
                       d: rng.randrange(1, p)}, p)

    def to_sympy(a):
        return sympy.Poly.from_dict({(e,): c for e, c in a.items()}, x,
                                    modulus=p)

    for _ in range(300):
        f = poly()
        a, b = _pmul(f, poly(), p), _pmul(f, poly(), p)
        want = to_sympy(a).gcd(to_sympy(b))
        want = {m[0]: int(c) % p for m, c in want.terms()}
        assert _pgcd(a, b, p) == want, (a, b)


def _poly(rng, p, shape):
    """A sparse polynomial: a constant, one monomial, or several terms."""
    if shape == "const":
        return {0: rng.randrange(1, p)}
    if shape == "mono":
        return {rng.randrange(6): rng.randrange(1, p)}
    exps = rng.sample(range(7), rng.randint(2, 4))
    return {e: rng.randrange(1, p) for e in exps}


_SHAPES = ("const", "mono", "multi")


def _same(got, want):
    assert got.field == want.field
    assert (got.num, got.den) == (want.num, want.den)
    assert hash(got) == hash(want)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reduced_matches_euclid(p):
    # a planted common factor of each shape makes most reductions cancel
    rng = random.Random(60 + p)
    fields = [ResField(p)] + [ResField(p, "ratfun").at_level(lv)
                              for lv in range(3)]
    for f in fields:
        shapes = _SHAPES if f.has_variable() else ("const",)
        for _ in range(120):
            g = _poly(rng, p, rng.choice(shapes))
            num = _pmul(g, _poly(rng, p, rng.choice(shapes)), p)
            den = _pmul(g, _poly(rng, p, rng.choice(shapes)), p)
            if rng.random() < 0.1:
                num = {}
            _same(_reduced(f, num, den), reduced_by_euclid(f, num, den))


def _elem(rng, f):
    """x = num/den built through ResField.elem, negative exponents too."""
    p = f.char
    if not f.has_variable():
        return f.elem(rng.randrange(p))
    num = {e - 3: c for e, c in _poly(rng, p, rng.choice(_SHAPES)).items()}
    if rng.random() < 0.1:
        num = {0: 0}
    x = f.elem(num)
    shift = max(-min((e for e in num if num[e] % p), default=0), 0)
    _same(x, reduced_by_euclid(f, {e + shift: c for e, c in num.items()},
                               {shift: 1}))
    if rng.random() < 0.5:
        return x
    return x / f.elem(_poly(rng, p, rng.choice(_SHAPES)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_arithmetic_matches_euclid(p):
    # every result against the fraction the arithmetic forms, reduced by
    # Euclid; operands may sit at different perfection levels
    rng = random.Random(70 + p)
    fields = [ResField(p)] + [ResField(p, "ratfun").at_level(lv)
                              for lv in range(3)]
    for _ in range(150):
        fx = rng.choice(fields)
        fy = rng.choice(fields[1:] if fx.has_variable() else fields[:1])
        x, y = _elem(rng, fx), _elem(rng, fy)
        lv = max(x.level(), y.level())
        a, b = x.at_level(lv), y.at_level(lv)
        f = a.field
        an, ad, bn, bd = (dict(t) for t in (a.num, a.den, b.num, b.den))
        cross = _pmul(an, bd, p), _pmul(bn, ad, p)
        _same(x + y, reduced_by_euclid(f, _padd(*cross, p), _pmul(ad, bd, p)))
        _same(x - y, reduced_by_euclid(
            f, _padd(cross[0], _pscale(cross[1], -1, p), p), _pmul(ad, bd, p)))
        _same(x * y, reduced_by_euclid(f, _pmul(an, bn, p), _pmul(ad, bd, p)))
        _same(-x, reduced_by_euclid(x.field, _pscale(dict(x.num), -1, p),
                                    dict(x.den)))
        _same(x.frobenius(), reduced_by_euclid(
            x.field, {e * p: c for e, c in x.num}, {e * p: c for e, c in x.den}))
        if not y.is_zero():
            _same(x / y, reduced_by_euclid(f, cross[0], _pmul(ad, bn, p)))
            _same(y.inverse(), reduced_by_euclid(y.field, dict(y.den),
                                                 dict(y.num)))
        for z in (x, x ** p):
            root = z.pth_root()
            exps = [e for e, _ in z.num + z.den]
            if any(e % p for e in exps):
                assert root is None
            else:
                _same(root, reduced_by_euclid(
                    z.field, {e // p: c for e, c in z.num},
                    {e // p: c for e, c in z.den}))


def test_euclid_runs_only_for_a_multi_term_denominator(monkeypatch):
    # 1/(1 + u) needs the polynomial gcd; a monomial denominator is a shift
    calls = []
    pgcd = resfield._pgcd
    monkeypatch.setattr(resfield, "_pgcd",
                        lambda *args: calls.append(None) or pgcd(*args))
    f = ResField(3, "ratfun")
    u = f.gen()
    assert (u * u / (u * 2)).to_text() == "2*u"
    assert (u / f.elem({3: 1})).to_text() == "(1)/(u^2)"
    assert not calls
    x = f.one() / (f.one() + u)
    assert calls and x.to_text() == "(1)/(1 + u)"
    assert x * (u + 1) == f.one()


def test_inverse_runs_no_euclid(monkeypatch):
    # a reduced fraction's swap is already coprime: inverting only scales
    # the new denominator to monic, and a quotient reduces once, in its
    # product
    calls = []
    pgcd = resfield._pgcd
    monkeypatch.setattr(resfield, "_pgcd",
                        lambda *args: calls.append(None) or pgcd(*args))
    f = ResField(3, "ratfun")
    y = f.one() + f.gen()
    assert y.inverse().to_text() == "(1)/(1 + u)"
    assert len(calls) == 0
    assert (f.one() / y).to_text() == "(1)/(1 + u)"
    assert len(calls) == 1
    assert (y * 2).inverse().to_text() == "(2)/(1 + u)"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverse_matches_euclid(p):
    # the swapped pair reduced by Euclid is the reference; the inverse's
    # denominator (the old numerator) has one term or several
    rng = random.Random(90 + p)
    for lv in range(3):
        f = ResField(p, "ratfun").at_level(lv)
        for shape in _SHAPES:
            for _ in range(40):
                g = _poly(rng, p, rng.choice(_SHAPES))
                num = _pmul(g, _poly(rng, p, shape), p)
                den = _pmul(g, _poly(rng, p, rng.choice(_SHAPES)), p)
                x = reduced_by_euclid(f, num, den)
                _same(x.inverse(), reduced_by_euclid(f, dict(x.den),
                                                     dict(x.num)))


def test_prime_field_and_ratfun_residues_do_not_mix():
    # coercion moves only between perfection levels of F_p(u)
    fp, fu = ResField(3), ResField(3, "ratfun")
    pairs = ((fp.one(), fu.one()), (fu.gen(), fp.elem(2)),
             (fp.elem(2), fu.gen().pth_root_extend()))
    for a, b in pairs:
        for op in (lambda: a + b, lambda: a - b, lambda: a * b,
                   lambda: a / b, lambda: a == b):
            with pytest.raises(ValidationError, match="do not mix"):
                op()
    with pytest.raises(ValidationError, match="cannot build"):
        fu.elem(fp.one())
    assert fu.gen() + fu.gen().pth_root_extend() ** 3 == fu.gen() * 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reduced_matches_sympy_cancel(p):
    # the reduced fraction is num/g over den/g for the monic gcd g, scaled
    # to a monic denominator
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(80 + p)
    f = ResField(p, "ratfun")

    def to_sympy(a):
        return sympy.Poly.from_dict({(e,): c for e, c in a.items()}, x,
                                    modulus=p)

    def from_sympy(a):
        return _pnorm({m[0]: int(c) for m, c in a.terms()}, p)

    for _ in range(150):
        g = _poly(rng, p, rng.choice(_SHAPES))
        num = _pmul(g, _poly(rng, p, rng.choice(_SHAPES)), p)
        den = _pmul(g, _poly(rng, p, rng.choice(_SHAPES)), p)
        sn, sd = to_sympy(num), to_sympy(den)
        h = sn.gcd(sd)
        sn, sd = sn.quo(h), sd.quo(h)
        inv = pow(int(sd.LC()) % p, p - 2, p)
        want = (from_sympy(sn * inv), from_sympy(sd * inv))
        got = _reduced(f, num, den)
        assert (dict(got.num), dict(got.den)) == want, (num, den)
