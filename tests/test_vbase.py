import math
import random
from fractions import Fraction as F
from itertools import islice

import pytest

from vallab import vbase
from vallab.constructions import build_kummer_valgp
from vallab.errors import PrecisionError, ValidationError
from vallab.ogroup import ogroup
from vallab.resfield import ResField
from vallab.suites import suite_congruence
from vallab.values import INFINITE, Indeterminate
from vallab.vbase import EqBase, PadicBase, PadicElem, SeriesElem, zeta_lambda

from helpers import (divide_by_long_division, padic_from_text, pth_root,
                     run_in_child, series, series_from_text,
                     zeta_lambda_by_digit_newton, zeta_lambda_by_dwork_sum)


def laurent(p, closed=False, level=0):
    res = ResField(p) if level is None else ResField(p, "ratfun").at_level(level) \
        if level else ResField(p, "ratfun")
    grp = ogroup([F(1)], closed={0}, prime=p) if closed else ogroup([F(1)])
    return EqBase(p, res, grp)


def plain_laurent(p, closed=False):
    grp = ogroup([F(1)], closed={0}, prime=p) if closed else ogroup([F(1)])
    return EqBase(p, ResField(p), grp)


# -- series ------------------------------------------------------------------


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_bases_reject_a_non_prime_characteristic(p):
    # p = 1 used to hang: digit carries and p-exponents never end
    with pytest.raises(ValidationError, match="got %d" % p):
        PadicBase(p, 1)
    with pytest.raises(ValidationError, match="got %d" % p):
        EqBase(p, ResField(2), ogroup([F(1)]))


def test_series_val_and_zero():
    b = plain_laurent(3)
    t = b.monomial(1)
    assert t.val() == 1
    assert (t - t).is_zero()
    assert (t - t).val() == INFINITE
    assert b.zero().is_zero() and b.zero().prec == INFINITE


def test_series_monomial_group_check():
    b = plain_laurent(3)
    with pytest.raises(ValidationError):
        b.monomial(F(1, 3))
    bc = plain_laurent(3, closed=True)
    assert bc.monomial(F(1, 9)).val() == F(1, 9)


def test_series_residue_frozen():
    # residue of u*t^0 + t^{1/3} is u
    b = EqBase(3, ResField(3, "ratfun"), ogroup([F(1)], closed={0}, prime=3))
    x = series(b, {0: b.res.gen(), F(1, 3): 1})
    assert x.residue() == b.res.gen()
    with pytest.raises(ValidationError):
        b.monomial(1).residue()


def test_series_pth_root_frozen():
    # (u^3 t^3)^{1/3} = u t over F_3(u)
    b = laurent(3)
    x = b.monomial(3, b.res.elem({3: 1}))
    r = pth_root(x)
    assert r == b.monomial(1, b.res.gen())
    # coefficient climbs a perfection level when needed
    r2 = pth_root(b.monomial(1, b.res.gen()))
    assert r2.val() == F(1, 3)
    c = r2.terms[F(1, 3)]
    assert c.field.level == 1 and c.to_text() == "u^(1/3)"


def test_series_root_twice_value():
    # two successive p-th roots of t^{-1} sit at value -1/9
    b = plain_laurent(3, closed=True)
    a0 = b.monomial(-1)
    a2 = pth_root(pth_root(a0))
    assert a2.val() == F(-1, 9)
    assert (a2 ** 9) == a0


def test_series_division_exact():
    b = plain_laurent(3)
    t = b.monomial(1)
    q = (t ** 2 + t ** 3) / (t ** 2)
    assert q == b.one() + t
    assert q.prec == INFINITE


def test_series_division_needs_a_monomial_divisor(monkeypatch):
    # a series is exact, so 1/(1 + t) has no finite form: the divisor is
    # refused (exit 1) before any product is formed
    b = plain_laurent(3)
    t = b.monomial(1)
    calls = []
    mul = SeriesElem.__mul__

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(SeriesElem, "__mul__", counting)
    with pytest.raises(ValidationError, match="needs a monomial divisor"):
        b.one() / (b.one() + t)
    assert calls == []


def test_exact_zero_divisor_is_not_a_precision_failure():
    # no cap ran out, so dividing by an exact zero is a ZeroDivisionError,
    # as for tower and residue elements; only a capped divisor with no
    # known digit is a precision failure (exit 2)
    q = q3()
    for b in (plain_laurent(3), q):
        with pytest.raises(ZeroDivisionError):
            b.one() / 0
        with pytest.raises(ZeroDivisionError):
            b.one() / b.zero()
    with pytest.raises(ZeroDivisionError):
        q.one() / q.from_digits({0: 3, 2: 1})  # 3 + w^2 = 0 exactly
    with pytest.raises(PrecisionError, match="indistinguishable from"):
        q.one() / q.zero(prec=4)


def test_series_monomial_division_inverts_multiplication():
    # an exact monomial divisor shifts each term
    rng = random.Random(11)
    b = laurent(3)
    for _ in range(30):
        terms = {F(rng.randrange(-4, 5), rng.choice([1, 3])):
                 b.res.elem({rng.randrange(3): rng.randrange(1, 3)})
                 for _ in range(4)}
        x = series(b, terms)
        d = b.monomial(rng.randrange(-2, 3),
                       b.res.elem({rng.randrange(2): rng.randrange(1, 3)}))
        q = x / d
        assert q * d == x
        if not x.is_zero():
            assert q.val() == x.val() - d.val()


def test_series_ring_axioms_sampled():
    rng = random.Random(3)
    b = plain_laurent(3)
    elems = []
    for _ in range(8):
        terms = {rng.randrange(-3, 4): rng.randrange(3) for _ in range(3)}
        elems.append(series(b, terms))
    for _ in range(30):
        x, y, z = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        vx, vy = x.val(), (x * y).val()
        if vx != INFINITE and y.val() != INFINITE:
            assert vy == vx + y.val()


def test_series_text_roundtrip():
    b = laurent(3, closed=True)
    x = series(b, {-1: 2, 0: b.res.gen(), F(1, 3): b.res.elem({1: 1, 0: 1})})
    assert series_from_text(b, x.to_text()) == x
    assert "O(" not in x.to_text()
    y = b.monomial(-1)
    assert series_from_text(b, y.to_text()) == y
    with pytest.raises(ValidationError, match="a series is exact"):
        series_from_text(b, "1 + O(t^2)")


# -- p-adic digits -------------------------------------------------------------


def q3():
    return PadicBase(3, 2, twist=-1)  # w^2 = -3


def test_padic_val_frozen():
    b = q3()
    assert b.from_int(10).val() == 0
    assert b.from_int(9).val() == 2
    assert b.from_int(-3).val() == 1
    assert b.monomial(F(1, 2)).val() == F(1, 2)
    with pytest.raises(ValidationError):
        b.monomial(F(1, 3))


def test_padic_alternate_representations():
    b = q3()
    # -1 = 2 + w^2 since w^2 = -3
    assert b.from_digits({0: -1}) == b.from_digits({0: 2, 2: 1})
    assert (b.from_int(7) - b.from_int(7)).is_zero()


def test_padic_residue():
    b = q3()
    assert b.from_int(5).residue() == ResField(3).elem(2)
    with pytest.raises(ValidationError):
        b.from_int(3).residue()
    g = PadicBase(3, 2, twist=-1, gauss=True)
    x = g.u_elem() + g.from_int(3)
    assert x.residue() == g.residue_field.gen()


def test_padic_mul_val_additive():
    rng = random.Random(9)
    b = q3()
    for _ in range(40):
        x = b.from_digits({rng.randrange(-2, 3): rng.randrange(1, 9)
                           for _ in range(2)})
        y = b.from_digits({rng.randrange(-2, 3): rng.randrange(1, 9)
                           for _ in range(2)})
        if x.is_zero() or y.is_zero():
            continue
        assert (x * y).val() == x.val() + y.val()
        assert (x + y) * y == x * y + y * y


def test_padic_monomial_division_exact():
    g = PadicBase(3, 2, twist=-1, gauss=True)
    x = g.u_elem() * g.monomial(F(-3, 2))
    q = x / g.monomial(F(-3, 2))
    assert q == g.u_elem()
    assert q.prec == INFINITE


def test_padic_unit_division_truncated():
    b = q3()
    x = b.from_digits({0: 1}, prec=8)
    y = b.from_int(4)  # 1 + 3
    q = x / y
    chk = q * y - x
    v = chk.val()
    assert isinstance(v, Indeterminate) and v.bound >= 3


def test_padic_division_needs_cap():
    b = q3()
    # no cap runs out: the caller must cap an operand (exit 1)
    with pytest.raises(ValidationError, match="cap an operand"):
        b.one() / b.from_int(4)


def test_division_to_a_finite_cap_has_no_step_limit():
    # every step raises the remainder's leading position, so a cap of 450
    # ends each division; a fixed 400-step limit used to stop both
    b = q3()
    y = b.from_int(4)
    x = b.from_digits({0: 1}, prec=450)
    q = x / y
    assert q.prec == 450
    assert isinstance((q * y - x).val(), Indeterminate)
    # exact / exact has no target: it is refused before any product, and
    # no cap ran out, so it is a validation error (exit 1), not exit 2
    with pytest.raises(ValidationError, match="cap an operand"):
        b.one() / y


def test_residue_elements_are_not_digits():
    # a digit is an int or a {u-exponent: int}; a residue field element
    # has no canonical lift
    g = PadicBase(3, 2, twist=-1, gauss=True)
    for r in (g.residue_field.gen(), ResField(3).elem(1)):
        with pytest.raises(ValidationError, match="a digit is an int"):
            g.from_digits({0: r})
        with pytest.raises(ValidationError, match="a digit is an int"):
            g.monomial(0, r)


def test_padic_nonmonomial_digit_division_rejected():
    g = PadicBase(3, 2, twist=-1, gauss=True)
    y = g.u_elem() + g.one()
    with pytest.raises(ValidationError):
        g.one() / y


# -- Newton division against long division ---------------------------------------


DIFF_RINGS = [PadicBase(p, E, s, gauss) for p in (2, 3, 5, 7, 11)
              for E in sorted({1, p - 1, 2 * (p - 1), p})
              for s in (1, -1) for gauss in (False, True)]


def _random_elem(rng, b, cap):
    """Raw digits at positions -2..7, with u-exponents -1..1 in a Gauss ring."""
    us = (-1, 0, 1) if b.gauss else (0,)
    return PadicElem(b, {(rng.randint(-2, 7), rng.choice(us)):
                         rng.randint(-b.p ** 2, b.p ** 2)
                         for _ in range(rng.randint(1, 4))}, cap)


def _quotient(f):
    """(prec, carried digits) of f(), or the name of its error; an exact
    quotient shows its first 40 digits."""
    try:
        q = f()
    except (ZeroDivisionError, PrecisionError, ValidationError) as exc:
        return type(exc).__name__
    return q.prec, list(islice(q._norm_iter(), 40))


def test_newton_division_matches_long_division():
    # over 68 rings, seeded operands with at least one capped: Newton's
    # quotient has long division's cap and carried digits, and the same
    # refusals; an exact quotient by +-w^k u^e is a shift, and by anything
    # else is refused before any product; the lead read off the folded
    # integers is the carry walk's first digit
    rng = random.Random(21)
    for b in DIFF_RINGS:
        for _ in range(12):
            caps = rng.choice([(INFINITE, rng.randint(1, 12)),
                               (rng.randint(1, 12), INFINITE),
                               (rng.randint(1, 12), rng.randint(1, 12))])
            x, y = (_random_elem(rng, b, cap) for cap in caps)
            for z in (x, y):
                assert z._lead() == next(z._norm_iter(), None)
            assert _quotient(lambda: x / y) == \
                _quotient(lambda: divide_by_long_division(x, y)), (b, x, y)
            x, y = _random_elem(rng, b, INFINITE), _random_elem(rng, b, INFINITE)
            k, e = rng.randint(-2, 7), rng.choice((-1, 0, 1) if b.gauss else (0,))
            shift = PadicElem(b, {(k, e): rng.choice((1, -1))}, INFINITE)
            want = _quotient(lambda: divide_by_long_division(x, shift))
            if not isinstance(want, str):  # else x's digits do not end
                assert _quotient(lambda: x / shift) == want
            if y._lead() is not None and len(y._lead()[1]) == 1 \
                    and list(y.digits.values()) not in ([1], [-1]) \
                    and not x.is_zero():
                with pytest.raises(ValidationError, match="cap an operand"):
                    x / y


def _text_or_error(f):
    try:
        return f().to_text()
    except (PrecisionError, ValidationError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_plain_ring_matches_gauss_ring_at_u0(p):
    """Fed the same integer digits, a Gauss ring behaves like the plain ring."""
    rng = random.Random(100 + p)
    for E, s in ((1, 1), (p - 1, -1), (2, -1)):
        rings = PadicBase(p, E, s), PadicBase(p, E, s, gauss=True)
        for _ in range(15):
            # a capped dividend keeps every division finite
            args = [({rng.randrange(-2, 5): rng.randrange(-2 * p, 2 * p)
                      for _ in range(rng.randint(1, 4))}, prec)
                    for prec in (rng.choice([6, 9]), rng.choice([INFINITE, 6, 9]))]
            seen = []
            for b in rings:
                x, y = (b.from_digits(d, prec) for d, prec in args)
                seen.append((str(x.val()), x.to_text(), (x + y).to_text(),
                             (x * y).to_text(), _text_or_error(lambda: x / y)))
            assert seen[0] == seen[1]


def test_plain_ring_rejects_u_digits():
    b = q3()
    with pytest.raises(ValidationError, match="Gauss ring"):
        b.from_digits({0: {1: 1}})
    with pytest.raises(ValidationError, match="Gauss ring"):
        padic_from_text(b, "(1 + u)*w")


def test_padic_text_roundtrip():
    b = q3()
    x = b.from_digits({-1: 2, 0: 1, 3: 2}, prec=6)
    assert padic_from_text(b, x.to_text()) == x
    g = PadicBase(3, 2, twist=-1, gauss=True)
    y = g.from_digits({-2: {1: 1}, 0: {0: 2, -1: 1}}, prec=4)
    assert padic_from_text(g, y.to_text()) == y


# -- cyclotomic uniformizer ------------------------------------------------------


def test_lambda_p2_exact():
    b = PadicBase(2, 1, twist=1)
    lam = zeta_lambda(b, 8)
    assert lam == b.from_int(-2)
    # Phi_2(1+X) = 2 + X vanishes exactly
    assert (lam + b.from_int(2)).is_zero()


def val_at_least(v, bound):
    if v == INFINITE:
        return True
    if isinstance(v, Indeterminate):
        return v.bound >= bound
    return v >= bound


def test_lambda_p3_frozen_product():
    b = q3()
    lam = zeta_lambda(b, 10)
    assert lam.val() == F(1, 2)
    # Phi_3(1 + lam) = 0 to working precision
    phi = lam * lam + lam * 3 + 3
    assert val_at_least(phi.val(), 4)
    # (zeta - 1)(zeta^2 - 1) = Phi_3(1) = 3, with value exactly 1
    zeta = lam + 1
    prod = lam * (zeta * zeta - 1)
    assert prod.val() == 1
    d = prod - 3
    assert val_at_least(d.val(), 4)


def test_lambda_p5():
    b = PadicBase(5, 4, twist=-1)
    lam = zeta_lambda(b, 12)
    assert lam.val() == F(1, 4)
    phi = b.zero(12)
    x = b.one()
    for c in (5, 10, 10, 5, 1):
        phi = phi + x * c
        x = x * lam
    assert val_at_least(phi.val(), 2)


def test_lambda_requires_compatible_ring():
    with pytest.raises(ValidationError):
        zeta_lambda(PadicBase(3, 3, twist=-1), 6)


def test_lambda_needs_cap_above_E():
    # lambda sits at position E/(p-1) = 1, but the residual's constant term
    # p sits at position E = 6: below a cap of 7 the search sees nothing
    with pytest.raises(PrecisionError, match="at least 7"):
        zeta_lambda(PadicBase(7, 6, -1), 6)
    assert zeta_lambda(PadicBase(7, 6, -1), 7).val() == F(1, 6)


LAMBDA_CASES = [(p, cap) for p in (3, 5, 7, 11, 13, 17, 23)
                for cap in (p, 2 * p, 4 * p)]


@pytest.mark.parametrize("p,cap", LAMBDA_CASES,
                         ids=["p%d-cap%d" % c for c in LAMBDA_CASES])
def test_lambda_is_a_stable_root_of_phi(p, cap):
    # E = p - 1, so the caps are E + 1, 2p and 4p
    b = PadicBase(p, p - 1, -1)
    lam = zeta_lambda(b, cap)
    assert lam.prec == cap
    # Phi_p(1 + lam) = sum_j C(p, j+1) lam^j vanishes at the precision the
    # product rules give it, which is at least the cap
    phi = b.zero()
    x = b.one()
    for j in range(p):
        phi = phi + x * math.comb(p, j + 1)
        x = x * lam
    assert phi.prec >= cap
    assert phi == b.zero()
    # a larger cap only appends digits
    assert lam == zeta_lambda(b, cap + p - 1)


def test_lambda_p3_closed_form():
    # zeta_3 - 1 = w(w - 1)/2 with w^2 = -3
    b = q3()
    closed = PadicElem(b, {(2, 0): 1, (1, 0): -1}, 12) / 2
    assert closed.prec == 12
    assert zeta_lambda(b, 12) == closed


def test_kummer_valgp_certificate_prints_the_true_inverse_lambda():
    text = "w^(-1) + 1 + 2*w + O(w^2)"
    built = build_kummer_valgp(3, depth=1, padic_cap=4)
    assert built.extras["a0"].to_text() == text
    minpolys = [row["minpoly"] for row in built.certificate.to_json()["rows"]]
    assert all("((%s))" % text in mp for mp in minpolys)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_printed_inverse_lambda_is_true_to_its_printed_precision(p):
    # the text used to stop at 24 positions yet claim O(w^prec) for the
    # whole cap; parse it back and multiply by a much longer lambda
    for cap in (2 * p, 4 * p, 8 * p):
        a0 = build_kummer_valgp(p, 1, padic_cap=cap).extras["a0"]
        parsed = padic_from_text(a0.base, a0.to_text())
        assert parsed.prec == a0.prec == cap - 2
        assert parsed * zeta_lambda(a0.base, 200) - 1 == a0.base.zero(), cap


def test_exact_text_shows_a_bounded_digit_stream():
    # w^E = +p: -1 carries into an endless stream of p - 1 digits
    b = PadicBase(3, 1)
    assert b.from_int(-1).to_text().endswith("2*w^23 + ...")
    assert b.from_int(5).to_text() == "2 + w"


def test_digit_ring_builds_its_group_and_residue_field_once(monkeypatch):
    # each read built a new OGroup or ResField, and each ran is_prime again:
    # about 320 per pass over the p-adic benchmark builds
    b = PadicBase(3, 2, twist=-1, gauss=True)
    group, res = b.value_group, b.residue_field
    calls = []
    monkeypatch.setattr(ResField, "__post_init__",
                        lambda self: calls.append(self))
    assert b.value_group is group and b.residue_field is res
    assert b.from_digits({0: {1: 1}}).residue() == res.gen() and not calls
    assert b == PadicBase(3, 2, twist=-1, gauss=True)


def test_lambda_products_count(monkeypatch):
    # the greedy digit search made 8,998 products, Newton in the digit ring
    # 164 and 6 long divisions, and Newton's step on zeta^p = 1 36; Dwork's
    # series runs its recurrence in plain integers and makes none
    calls = []

    def counting(name):
        orig = getattr(PadicElem, name)
        return lambda self, *args: calls.append(name) or orig(self, *args)

    for name in ("__mul__", "_divide"):
        monkeypatch.setattr(PadicElem, name, counting(name))
    zeta_lambda(PadicBase(11, 10, -1), 44)
    assert calls == []


def test_congruence_suite_fold_count(monkeypatch):
    # exact products, sums, negations and shifts are built folded, and only
    # capped results, cancelled leads and raw digits go through _fold (its
    # own recursion counted); folding every construction made 13,546 calls
    calls = []
    fold = vbase._fold

    def counting(*args):
        calls.append(None)
        return fold(*args)

    monkeypatch.setattr(vbase, "_fold", counting)
    assert suite_congruence(0).ok()
    assert len(calls) <= 4808


LIFT_CASES = [(p, E) for p in (3, 5, 7, 11, 13) for E in (p - 1, 2 * (p - 1))] \
    + [(p, p * (p - 1)) for p in (3, 5)] + [(17, 16)]


@pytest.mark.parametrize("p,E", LIFT_CASES,
                         ids=["p%d-E%d" % c for c in LIFT_CASES])
def test_lambda_matches_the_digit_ring_lift(p, E):
    # lambda mod w^prec is unique, and so is its capped folded form: every
    # cap from E + 1 to E + 4p gives the digits of Newton in the digit ring
    b = PadicBase(p, E, -1)
    for cap in range(E + 1, E + 4 * p + 1):
        lam, ref = zeta_lambda(b, cap), zeta_lambda_by_digit_newton(b, cap)
        assert lam.prec == ref.prec == cap
        assert list(lam._norm_iter()) == list(ref._norm_iter()), cap
        assert lam.digits == ref.digits, cap


@pytest.mark.parametrize("p,E", LIFT_CASES,
                         ids=["p%d-E%d" % c for c in LIFT_CASES])
def test_lambda_matches_dwork_closed_sum(p, E):
    # the library runs the recurrence n b_n = b_(n-1) + b_(n-p) up to
    # Dwork's bound N; the reference sums the closed b_n exactly up to 2N
    b = PadicBase(p, E, -1)
    for cap in range(E + 1, E + 4 * p + 1):
        assert zeta_lambda(b, cap).digits == \
            zeta_lambda_by_dwork_sum(b, cap).digits, cap


@pytest.mark.parametrize("p", [3, 5])
def test_lambda_rejects_positive_twist(p):
    # w^E = +p leaves s*y^(p-1) + 1 = 0 without a root mod w
    with pytest.raises(ValidationError, match=r"need w\^E = -p"):
        zeta_lambda(PadicBase(p, p - 1, 1), 2 * p)


def test_product_reads_values_only_for_capped_factors(monkeypatch):
    # the precision of a*b needs a's lead only when b is capped, and vice versa
    q = q3()
    exact, capped = q.from_digits({0: 2, 1: 1}), q.from_digits({0: 1}, prec=4)
    calls = []
    orig = PadicElem._lead

    def counted(self):
        calls.append(self)
        return orig(self)

    monkeypatch.setattr(PadicElem, "_lead", counted)
    exact * exact
    assert calls == []
    capped * exact
    assert calls == [exact]


def test_value_residue_and_equality_walk_no_carries(monkeypatch):
    # the lead digit is read off the folded integers, plain and Gauss; each
    # of these used to walk the carries of every element it read
    def walk(self):
        raise AssertionError("carry walk")

    monkeypatch.setattr(PadicElem, "_norm_iter", walk)
    g = PadicBase(3, 2, twist=-1, gauss=True)
    x = g.from_digits({0: {0: 5, 1: 3}, 1: 7, 4: 2}, prec=9)
    y = g.from_digits({0: -4, 3: {2: 1}})
    assert x.val() == 0 and (x * 9).val() == 2 and (x - x).val().bound == F(9, 2)
    assert x.residue() == g.residue_field.elem({0: 2})
    assert (x * y).residue() == g.residue_field.elem({0: 1})
    assert x * y == y * x and x != y and g.from_int(-3) == g.monomial(1)
    q = PadicBase(5, 4, 1)
    assert q.from_int(-125).val() == 3 and q.from_int(6).residue() == ResField(5).elem(1)


LAMBDA_NO_CAP = """
from vallab.errors import ValidationError
from vallab.values import INFINITE
from vallab.vbase import PadicBase, zeta_lambda
try:
    zeta_lambda(PadicBase(3, 2, -1), INFINITE)
except ValidationError as exc:
    print(exc)
"""


def test_lambda_refuses_an_infinite_cap_at_odd_p():
    # the lift doubled its cap towards INFINITE and never returned
    res = run_in_child(LAMBDA_NO_CAP)
    assert res.returncode == 0 and "finite p-adic cap" in res.stdout, res.stderr
    lam = zeta_lambda(PadicBase(2, 1, twist=1), INFINITE)
    assert lam.prec == INFINITE and lam == -2


def test_base_elements_equal_ints_by_value():
    # + - * / coerce an int, and == used to say False to every int
    q = PadicBase(3, 2, -1)
    capped = q.from_digits({0: 2, 4: 1}, prec=4)
    assert q.from_int(2) == 2 and q.zero() == 0 and 2 == q.from_int(2)
    assert capped == 2 and capped != 5 and q.zero(prec=2) == 0
    assert q.from_int(-3) == q.monomial(1) and q.monomial(1) != 3
    s = laurent(3)
    assert s.one() == 1 and s.zero() == 0 and s.from_int(4) == 1
    assert s.monomial(1) != 1 and s.one() != 2
    assert q.one() != "1" and s.one() != 1.0 and s.one() != q.one()


def test_lambda_p2_needs_cap_above_E():
    # lambda = -2 sits at position E = 1: a cap of 1 cannot tell it from 0
    with pytest.raises(PrecisionError, match=r"at least 2\), got 1"):
        zeta_lambda(PadicBase(2, 1, twist=1), 1)
    assert zeta_lambda(PadicBase(2, 1, twist=1), 2) == PadicBase(2, 1).from_int(-2)


# -- ring mixing -----------------------------------------------------------------


def test_series_of_different_bases_do_not_mix():
    # t^(1/3) lies outside a's value group Z; + used to return t^(1/3) + t on a
    a = EqBase(3, ResField(3), ogroup([F(1)], prime=3))
    b = EqBase(3, ResField(3), ogroup([F(1, 3)], prime=3))
    x, y = a.monomial(1), b.monomial(F(1, 3))
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
               lambda: y + x, lambda: y * x, lambda: y / x):
        with pytest.raises(ValidationError, match="mixed series rings"):
            op()
    # an equal base built separately is the same ring
    assert x + EqBase(3, ResField(3), ogroup([F(1)], prime=3)).monomial(1) == x * 2


# -- independent oracles for digit-ring arithmetic ----------------------------------


def _vp(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _operand(rng, p, cap, unit=False):
    """Raw (uncarried) digits {(k, 0): c} below cap; a unit has a digit
    prime to p at position 0."""
    low = 0 if unit else rng.randint(0, 2)
    digits = {(k, 0): rng.randint(-p * p, p * p) for k in range(low, cap)}
    if unit:
        digits[0, 0] = rng.choice([c for c in range(-p * p, p * p) if c % p])
    return digits


def _lift(rng, p, digits, cap):
    """Another element that the same digits stand for below position cap."""
    out = dict(digits)
    for k in range(cap, cap + 3):
        out[k, 0] = out.get((k, 0), 0) + rng.randint(-p * p, p * p)
    return out


ORACLE_PRIMES = (2, 3, 5, 7)


def _divisors(rng, p, E, nb):
    """(raw digits, cap, lead position) of divisors: a capped unit, a
    capped w^j * unit, p^k (long division) and w^(kE) (exact shift)."""
    du = _operand(rng, p, nb, unit=True)
    j, k = rng.randint(1, 2), rng.randint(0, 2)
    return [(du, nb, 0),
            ({(i + j, e): c for (i, e), c in du.items()}, nb + j, j),
            ({(0, 0): p ** k}, INFINITE, k * E),
            ({(k * E, 0): 1}, INFINITE, k * E)]


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("twist", (1, -1))
def test_plain_digit_ring_agrees_with_integers_mod_p_power(p, twist):
    # E = 1: w = twist*p, so digits {(k, 0): c} stand for the rational
    # sum c*(twist*p)^k, and an element capped at N is known mod p^N.
    # Each result must agree, to its claimed cap, with the operation on
    # any integers that the capped operands stand for.
    base = PadicBase(p, 1, twist)

    def num(digits):
        return sum(F(c) * F(twist * p) ** k for (k, _), c in digits.items())

    def agrees(res, exact):
        diff = num(res.digits) - exact
        return diff == 0 or _vp(diff.numerator, p) - _vp(diff.denominator, p) >= res.prec

    rng = random.Random(1000 + p)
    for _ in range(40):
        na, nb = rng.randint(1, 10), rng.randint(1, 10)
        da, db = _operand(rng, p, na), _operand(rng, p, nb)
        a, b = PadicElem(base, da, na), PadicElem(base, db, nb)
        divisors = _divisors(rng, p, 1, nb)
        for _ in range(2):
            A, B = num(_lift(rng, p, da, na)), num(_lift(rng, p, db, nb))
            s, prod = a + b, a * b
            assert s.prec == min(na, nb) and agrees(s, A + B)
            assert prod.prec >= min(na, nb) and agrees(prod, A * B)
            for dy, ny, j in divisors:
                Y = num(dy if ny == INFINITE else _lift(rng, p, dy, ny))
                q = a / PadicElem(base, dy, ny)
                assert q.prec >= min(na, nb) - 2 * j and agrees(q, A / Y)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
@pytest.mark.parametrize("E,twist", ((2, -1), (3, 1)))
def test_ramified_digit_ring_agrees_with_sympy(p, E, twist):
    # E > 1: the ring is Z_p[x]/(x^E - twist*p) with w = x; sympy reduces
    # integer polynomials modulo x^E - twist*p, and a reduced sum
    # a_0 + ... + a_(E-1) x^(E-1) sits at position min_j(E*v_p(a_j) + j)
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    modulus = sympy.Poly(x ** E - twist * p, x, domain="ZZ")
    base = PadicBase(p, E, twist)

    def poly(digits, shift=0):
        return sympy.Poly(sum((c * x ** (k + shift) for (k, _), c in digits.items()),
                              sympy.Integer(0)), x, domain="ZZ")

    def position(f):
        coeffs = f.rem(modulus).all_coeffs()[::-1]
        return min((E * _vp(int(a), p) + j for j, a in enumerate(coeffs) if a),
                   default=INFINITE)

    rng = random.Random(2000 + 10 * p + E)
    for _ in range(12):
        na, nb = rng.randint(1, 3 * E), rng.randint(1, 3 * E)
        da, db = _operand(rng, p, na), _operand(rng, p, nb)
        a, b = PadicElem(base, da, na), PadicElem(base, db, nb)
        A, B = poly(_lift(rng, p, da, na)), poly(_lift(rng, p, db, nb))
        s, prod = a + b, a * b
        assert s.prec == min(na, nb) and position(poly(s.digits) - A - B) >= s.prec
        assert prod.prec >= min(na, nb)
        assert position(poly(prod.digits) - A * B) >= prod.prec
        for dy, ny, j in _divisors(rng, p, E, nb):
            Y = poly(dy if ny == INFINITE else _lift(rng, p, dy, ny))
            q = a / PadicElem(base, dy, ny)
            # q = A/Y to q.prec, so q*Y - A vanishes below q.prec + j; q
            # may have negative positions, so compare x^m times both
            m = max([0] + [-k for k, _ in q.digits])
            assert q.prec >= min(na, nb) - 2 * j
            assert position(poly(q.digits, m) * Y - A * x ** m) >= q.prec + j + m
