import random

import pytest

from vallab.errors import ValidationError
from vallab.resfield import ResField, resfield_from_json


def rand_elem(field, rng, deg=4):
    """A Laurent polynomial of up to three terms, exponents in [-deg, deg]."""
    return field.elem({rng.randrange(-deg, deg + 1): rng.randrange(field.char)
                       for _ in range(3)})


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


def test_negative_exponent_input():
    f = ResField(3, "ratfun")
    x = f.elem({-1: 1})
    assert x * f.gen() == f.one()
    assert x.to_text() == "(1)/(u)"


def test_negative_exponent_text():
    # a least exponent -s < 0 prints over the monomial u^s, as the reduced
    # fraction with a monic monomial denominator did
    f = ResField(3, "ratfun")
    u = f.gen()
    assert (u / f.elem({3: 1})).to_text() == "(1)/(u^2)"
    assert (u ** -2 * 2 + u).to_text() == "(2 + u^3)/(u^2)"
    r = u.pth_root_extend()
    assert (r.inverse() * 2).to_text() == "(2)/(u^(1/3))"
    assert (r ** -2 + r).to_text() == "(1 + u)/(u^(2/3))"


def test_division_by_a_monomial():
    f = ResField(3, "ratfun")
    u = f.gen()
    assert (u * u / (u * 2)).to_text() == "2*u"
    assert (u * 2).inverse() == u ** -1 * 2
    assert (u + 1) / (u * 2) == f.elem({-1: 2, 0: 2})
    assert f.elem(2) / f.elem(2) == f.one()
    assert ResField(5).elem(3).inverse() == ResField(5).elem(2)


def test_division_refuses_a_non_monomial_divisor():
    f = ResField(3, "ratfun")
    u = f.gen()
    for op in (lambda: f.one() / (f.one() + u), lambda: (u - 1).inverse(),
               lambda: (u ** 2 + u) ** -1, lambda: f.zero() / (u + 1)):
        with pytest.raises(ValidationError,
                           match="residue division needs a monomial divisor"):
            op()
    for op in (lambda: u / f.zero(), lambda: f.zero().inverse(),
               lambda: f.zero() ** -1, lambda: ResField(3).one() / 3):
        with pytest.raises(ZeroDivisionError):
            op()


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


def test_only_a_perfection_level_field_takes_a_level():
    # gen() scaled by p^level while the elements read as level 0, so
    # ResField(3, "ratfun", level=2).gen() printed u^9
    for kind in ("finite", "ratfun"):
        with pytest.raises(ValidationError, match="no perfection level"):
            ResField(3, kind, level=2)
    with pytest.raises(ValidationError, match="no perfection level"):
        ResField(3, "finite", level=1)
    assert ResField(3, "perflevel", level=2).gen().to_text() == "u"


def test_cross_level_equality_and_hash():
    f = ResField(3, "ratfun")
    u0 = f.gen()
    u2 = u0.at_level(2)
    assert u0 == u2
    assert len({u0, u2}) == 1


def test_frobenius_is_pth_power():
    # over F_p, f(w)^p = f(w^p): the exponents scale by p and the
    # coefficients stay
    rng = random.Random(7)
    for p in (2, 3, 5, 7):
        for f in (ResField(p), ResField(p, "ratfun"),
                  ResField(p, "perflevel", level=2)):
            for _ in range(20):
                x = rand_elem(f, rng) if f.has_variable() \
                    else f.elem(rng.randrange(p))
                y = x.frobenius()
                assert y.terms == tuple((e * p, c) for e, c in x.terms)
                assert y == x ** p


def test_pth_power_roundtrip():
    rng = random.Random(11)
    f = ResField(3, "ratfun")
    for _ in range(25):
        x = rand_elem(f, rng)
        y = (x ** 3).pth_root()
        assert y is not None and y == x


def test_field_axioms_sampled():
    # the Laurent polynomials form a ring; a monomial is a unit
    rng = random.Random(23)
    f = ResField(5, "ratfun")
    for _ in range(15):
        a, b, c = (rand_elem(f, rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a - a == f.zero() and a * f.one() == a
        if len(a.terms) == 1:
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


def test_least_level_descends_every_level():
    # one level down for each time p divides every exponent
    assert ResField(3, "perflevel", level=3).gen().least_level() == 0
    cube_root = ResField(3, "perflevel", level=1).elem({1: 1})
    assert cube_root.to_text() == "u^(1/3)"
    assert cube_root.at_level(3).least_level() == 1
    # over F_3(u^(1/9)) the data are exponents of w = u^(1/9); the hash is
    # taken at the least level, so it survives a move to a finer level
    f = ResField(3, "perflevel", level=2)
    for data, least in (({3: 1, 6: 2}, 1), ({9: 1, -18: 2}, 0),
                        ({1: 1, 3: 1}, 2)):
        x = f.elem(data)
        assert x.least_level() == least, data
        assert x.at_level(3).least_level() == least, data
        assert hash(x) == hash(x.at_level(3)), data


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
def test_arithmetic_matches_sympy(p):
    # +, - and * of Laurent polynomials, at perfection levels 0 to 2 that
    # may differ, against sympy's polynomials mod p after a shift by w^s
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")
    rng = random.Random(80 + p)
    fields = [ResField(p, "ratfun").at_level(lv) for lv in range(3)]

    def to_sympy(x, s):
        return sympy.Poly.from_dict({(e + s,): c for e, c in x.terms}
                                    or {(0,): 0}, w, modulus=p)

    def from_sympy(poly, s):
        return tuple((m[0] - s, int(c) % p) for m, c in reversed(poly.terms())
                     if int(c) % p)

    for _ in range(150):
        x = rand_elem(rng.choice(fields), rng, deg=3)
        y = rand_elem(rng.choice(fields), rng, deg=3)
        lv = max(x.level(), y.level())
        s = 3 * p ** lv
        a, b = to_sympy(x.at_level(lv), s), to_sympy(y.at_level(lv), s)
        assert (x + y).terms == from_sympy(a + b, s), (x, y)
        assert (x - y).terms == from_sympy(a - b, s), (x, y)
        assert (x * y).terms == from_sympy(a * b, 2 * s), (x, y)
        assert (x + y).level() == (x * y).level() == lv


def test_finite_field_size_is_a_power_of_a_prime_char():
    assert ResField(2, "finite", q=8).q == 8
    assert ResField(3).q == 3
    for q in (10, -3, 1, 0, 6, 12):
        with pytest.raises(ValidationError, match="q must be p\\^d with d >= 1"):
            ResField(2, "finite", q=q)
    for char in (4, 1, 0, -3):
        for kind in ("finite", "ratfun"):
            with pytest.raises(ValidationError, match="must be a prime"):
                ResField(char, kind)
    with pytest.raises(ValidationError, match="q must be p"):
        resfield_from_json({"char": 5, "kind": "finite", "q": 10})
