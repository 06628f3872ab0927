"""Tower engine tests: reduction arithmetic, values, residues, adjunctions.

Expected numbers below are worked out by hand from the degree-p relations
before running anything: relation gen^p = gen + a has all roots of value
v(a)/p when v(a) < 0, and witness recursions like b^p = b' tie the values
together exactly.
"""

import random
from fractions import Fraction

import pytest

from vallab.constructions import (BUILDERS, build_2ext, build_as_resf,
                                  build_as_valgp, build_kummer_resf,
                                  build_kummer_valgp, build_lemma_3_3)
from vallab import tower
from vallab.errors import PrecisionError, ValidationError
from vallab.ogroup import contains, ogroup
from vallab.resfield import ResField, RElem, power
from vallab.suites import run_suite
from vallab.tower import (DefectCertificate, TElem, Tower, adjoin_root,
                          ostrowski_m, residue, resolve_pending, to_text, val,
                          vlb)
from vallab.values import INFINITE, Indeterminate, fr
from vallab.vbase import EqBase, PadicBase, PadicElem, SeriesElem

from helpers import (as_expansion_terms, eval_expansion,
                     monomial_bounds_fraction_sum, norm_value,
                     pth_power_by_terms, r4_walk_by_products, residue_termwise,
                     root_values, series, val_fraction_sum, vlb_fraction_sum)


def laurent(p, denom=1, closed=False, ratfun=False):
    res = ResField(p, "ratfun") if ratfun else ResField(p)
    if closed:
        g = ogroup([fr(1)], closed={0}, prime=p)
    else:
        g = ogroup([Fraction(1, denom)], prime=p)
    return EqBase(p, res, g)


# -- reduction arithmetic ----------------------------------------------------


def test_kummer_relation_rewrites_pth_powers():
    base = laurent(3)
    adj = adjoin_root(Tower(base), "kummer", Tower(base).from_base(base.monomial(1)), "r")
    assert adj.outcome == "ramified"
    t = adj.tower
    r = t.gen_elem(0)
    tt = t.from_base(base.monomial(1))
    assert r ** 3 == tt
    # (r + 1)^3 = r^3 + 3 r^2 + 3 r + 1 = t + 1 in characteristic 3
    assert (r + 1) ** 3 == tt + 1
    assert r ** 4 == tt * r


def test_second_generator_reduction_keeps_upper_exponents():
    base = laurent(3)
    t0 = Tower(base)
    adj = adjoin_root(t0, "kummer", t0.from_base(base.monomial(1)), "r")
    t1 = adj.tower
    adj2 = adjoin_root(t1, "kummer", t1.gen_elem(0), "s")
    assert adj2.outcome == "ramified"
    t2 = adj2.tower
    r, s = t2.gen_elem(0), t2.gen_elem(1)
    tt = t2.from_base(base.monomial(1))
    # r^3 carries the s-exponent along: r^4 * s = t * r * s
    assert r ** 4 * s == tt * r * s
    assert s ** 3 == r
    assert s ** 9 == tt
    assert (r * s) ** 3 == tt * r


def test_tower_ring_axioms_and_freshman_dream():
    base = laurent(3)
    t0 = Tower(base)
    t1 = adjoin_root(t0, "kummer", t0.from_base(base.monomial(1)), "r").tower
    t2 = adjoin_root(t1, "kummer", t1.gen_elem(0), "s").tower
    rng = random.Random(7)

    def rand_elem():
        out = t2.zero()
        for _ in range(rng.randrange(1, 4)):
            e = (rng.randrange(3), rng.randrange(3))
            c = base.monomial(rng.randrange(-2, 3), rng.randrange(1, 3))
            out = out + t2.from_base(c) * t2.gen_elem(0) ** e[0] * t2.gen_elem(1) ** e[1]
        return out

    for _ in range(25):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert (x + y) ** 3 == x ** 3 + y ** 3


def test_division_and_power_guards():
    base = laurent(3)
    t0 = Tower(base)
    t1 = adjoin_root(t0, "kummer", t0.from_base(base.monomial(1)), "r").tower
    r = t1.gen_elem(0)
    half = (r + 1) / t1.from_base(base.monomial(0, 2))
    assert half * 2 == r + 1
    with pytest.raises(ValidationError):
        (r + 1) / r
    with pytest.raises(ValidationError):
        r ** (-1)


# -- adjunction outcomes -----------------------------------------------------


def test_adjoin_artin_schreier_negative_value_is_ramified():
    for p in (2, 3, 5):
        base = laurent(p)
        t0 = Tower(base)
        adj = adjoin_root(t0, "as", t0.from_base(base.monomial(-1)), "x")
        assert adj.outcome == "ramified"
        assert adj.value == Fraction(-1, p)
        step = adj.tower.steps[0]
        assert (step.degree, step.e, step.f, step.m) == (p, p, 1, 0)
        assert contains(adj.tower.group, (Fraction(-1, p),))
        assert step.gen.relation == "as"
        cert = DefectCertificate("as", p, {}, [(0, step)], [True], "", {})
        assert cert.to_json()["rows"][0]["minpoly"].startswith(
            "X^%d - X - (" % p)


def test_adjoin_positive_value_polygon_has_two_slopes():
    base = laurent(3)
    t0 = Tower(base)
    adj = adjoin_root(t0, "as", t0.from_base(base.monomial(1)), "x")
    assert adj.outcome == "not_single_slope"
    assert adj.tower is None


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_adjoin_root_value_matches_the_dense_newton_polygon(p):
    # the closed form against the lower hull of the coefficient values of
    # X^p - X - a or X^p - a, over a Laurent base and a ramified digit ring
    bases = ((laurent(p), (-2, -1, 0, 1, 2)),
             (PadicBase(p, p - 1, -1),
              (-1, Fraction(-1, p - 1), 0, Fraction(1, p - 1), 1)))
    for base, values in bases:
        t0 = Tower(base)
        for v in values:
            a = t0.from_base(base.monomial(v)) + \
                t0.from_base(base.monomial(v + 1))
            for relation in ("as", "kummer"):
                rv = root_values([v, fr(0) if relation == "as" else INFINITE]
                                 + [INFINITE] * (p - 2) + [fr(0)])
                if relation == "as" and v == 0:
                    assert rv == [(0, p)]
                    with pytest.raises(ValidationError,
                                       match="separable residue equation"):
                        adjoin_root(t0, relation, a, "x")
                    continue
                adj = adjoin_root(t0, relation, a, "x")
                single = len(rv) == 1
                assert (adj.outcome != "not_single_slope") == single
                if single:
                    assert rv == [(adj.value, p)]


def test_adjoin_residue_jump_frozen():
    # x^3 = x + u t^(-3): depth-0 slope -1 sits in the group, and the
    # residue equation y^3 = u has no root in F_3(u)
    base = laurent(3, ratfun=True)
    t0 = Tower(base)
    a = t0.from_base(base.monomial(-3, base.res.gen()))
    adj = adjoin_root(t0, "as", a, "x")
    assert adj.outcome == "residue"
    assert adj.value == fr(-1)
    assert adj.residue_root.to_text() == "u^(1/3)"
    step = adj.tower.steps[0]
    assert (step.e, step.f, step.m) == (1, 3, 0)
    assert adj.tower.res_desc.level == 1
    assert adj.tower.res_level() == 1


def test_adjoin_unsupported_when_only_tower_monomials_reach_the_value():
    base = laurent(3)
    t0 = Tower(base)
    t1 = adjoin_root(t0, "as", t0.from_base(base.monomial(-1)), "x").tower
    a = t1.from_base(base.monomial(-1))
    adj = adjoin_root(t1, "kummer", a, "y")
    assert adj.outcome == "unsupported_step"
    assert adj.tower.pending
    # only tower monomials reach the value
    assert contains(t1.group, (adj.value,))
    assert not contains(base.value_group, (adj.value,))


def test_adjoin_beta_zero_artin_schreier_rejected():
    base = laurent(3, ratfun=True)
    t0 = Tower(base)
    with pytest.raises(ValidationError):
        adjoin_root(t0, "as", t0.from_base(base.monomial(0, base.res.gen())), "x")


def test_adjoin_root_rejects_a_sibling_tower_element():
    # y of a sibling tower would be read as x, its exponent (1,) in the
    # tower it is adjoined over
    base = laurent(3)
    t0 = Tower(base)
    ta = adjoin_root(t0, "as", t0.from_base(base.monomial(-1)), "x").tower
    tb = adjoin_root(t0, "as", t0.from_base(base.monomial(-2)), "y").tower
    with pytest.raises(ValidationError, match="prefix tower"):
        adjoin_root(ta, "as", tb.gen_elem(0), "z")
    # an element of a prefix tower is lifted: t^-2 has a root of value -2/3
    adj = adjoin_root(ta, "as", t0.from_base(base.monomial(-2)), "z")
    assert adj.value == Fraction(-2, 3)
    # a sibling that adjoins x by the same relation is an equal tower, each
    # lifting the other's generator; one by another relation is refused
    tc = adjoin_root(t0, "as", t0.from_base(base.monomial(-1)), "x").tower
    assert ta.lift(tc.gen_elem(0)) == ta.gen_elem(0)
    assert tc.lift(ta.gen_elem(0)) == tc.gen_elem(0)
    tx = adjoin_root(t0, "as", t0.from_base(base.monomial(-2)), "x").tower
    with pytest.raises(ValidationError, match="prefix tower"):
        ta.lift(tx.gen_elem(0))
    # a second generator over equal but distinct prefixes still lifts: the
    # relations y^3 = y + x compare x over ta and x over tc
    ua, uc = (adjoin_root(t, "as", t.gen_elem(0), "y").tower for t in (ta, tc))
    assert ua.lift(uc.gen_elem(1)) == ua.gen_elem(1)


def test_adjoin_on_pending_tower_rejected():
    base = laurent(3, denom=3)
    t0 = Tower(base)
    adj = adjoin_root(t0, "as", t0.from_base(base.monomial(-1)), "x")
    assert adj.outcome == "no_step_detected"
    with pytest.raises(ValidationError):
        adjoin_root(adj.tower, "as", adj.tower.from_base(base.monomial(-1)), "y")


def eager_rhs(tw):
    """Tower.rhs built by hand from each relation: a's exponents padded to
    the tower's length, plus the unit term gen_i for "as"."""
    n, out = len(tw.gens), []
    for i, g in enumerate(tw.gens):
        coords = {e + (0,) * (n - len(e)): c for e, c in g.a.coords.items()}
        if g.relation == "as":
            coords[tuple(int(j == i) for j in range(n))] = tw.base.from_int(1)
        out.append(TElem(tw, coords))
    return tuple(out)


def test_attach_and_finalize_build_no_rhs_until_read():
    # each tower rebuilt every relation right-hand side on construction,
    # though most never reduce a p-th power
    base = laurent(3)
    t0 = Tower(base)
    a = t0.from_base(base.monomial(-1))
    new = tower._attach(t0, "as", a, "x", Fraction(-1, 3), None, None)
    done = tower._finalize(new, "ramified", new_value=Fraction(-1, 3))
    assert all("rhs" not in vars(t) for t in (t0, new, done))
    x = done.gen_elem(0)
    assert x ** 3 == x + done.from_base(base.monomial(-1))
    assert "rhs" in vars(done)
    assert "rhs" not in vars(new)
    assert [r.coords for r in done.rhs] == [r.coords for r in eager_rhs(done)]


def test_rhs_matches_the_eager_build_on_every_family_tower(monkeypatch):
    made = []
    init = Tower.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tower, "__init__", recording)
    for p in (2, 3, 5):
        for build in BUILDERS.values():
            build(p)
    read = sum("rhs" in vars(t) for t in made)
    assert 0 < read < len(made)
    for t in made:
        assert [r.coords for r in t.rhs] == [r.coords for r in eager_rhs(t)]


def test_no_text_is_made_before_a_certificate_is_serialized(monkeypatch):
    # adjunctions keep their relations as data; only to_json renders them
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__qualname__)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(tower, "to_text", counting(tower.to_text))
    for cls in (SeriesElem, PadicElem, RElem):
        monkeypatch.setattr(cls, "to_text", counting(cls.to_text))
    for name in ("newton", "ostrowski"):
        assert run_suite(name, 0).ok()
        assert calls == [], name
    for name, build in BUILDERS.items():
        cert = build(3).certificate
        assert calls == [], name
        cert.to_json()
        assert "to_text" in calls, name
        calls.clear()


# -- witness recursions ------------------------------------------------------


def as_pending(p, depth):
    """Pending x^p = x + t^(-1) over exponents (1/p^depth) Z."""
    base = laurent(p, denom=p ** depth)
    t0 = Tower(base)
    adj = adjoin_root(t0, "as", t0.from_base(base.monomial(-1)), "x")
    assert adj.outcome == "no_step_detected"
    return base, adj.tower


def test_witness_values_follow_pth_roots():
    for p in (2, 3):
        base, tw = as_pending(p, 2)
        x = tw.gen_elem(0)
        assert val(x) == Fraction(-1, p)
        b1 = x - tw.from_base(base.monomial(Fraction(-1, p)))
        b2 = b1 - tw.from_base(base.monomial(Fraction(-1, p * p)))
        # b1^p = x and b2^p = b1 exactly, so values divide by p each time
        assert (b1 ** p - x).is_zero()
        assert (b2 ** p - b1).is_zero()
        assert val(b1) == Fraction(-1, p ** 2)
        assert val(b2) == Fraction(-1, p ** 3)
        assert vlb(b2) == Fraction(-1, p)
        assert b2 ** p - b2 == tw.from_base(base.monomial(Fraction(-1, p ** 2)))


def test_resolve_pending_ramified_row():
    base, tw = as_pending(3, 2)
    x = tw.gen_elem(0)
    b2 = x - tw.from_base(base.monomial(Fraction(-1, 3))) \
        - tw.from_base(base.monomial(Fraction(-1, 9)))
    done = resolve_pending(tw, b2, "b2 = x - t^(-1/3) - t^(-1/9)")
    step = done.steps[-1]
    assert step.kind == "ramified"
    assert (step.e, step.f, step.m) == (3, 1, 0)
    assert step.new_value == Fraction(-1, 27)
    assert step.witness.startswith("b2")
    assert contains(done.group, (Fraction(-1, 27),))
    assert not done.pending


def test_resolve_pending_needs_nonzero_witness():
    base, tw = as_pending(3, 1)
    with pytest.raises(ValidationError):
        resolve_pending(tw, tw.zero(), "0")
    done = resolve_pending(tw, tw.gen_elem(0) - tw.from_base(base.monomial(Fraction(-1, 3))), "b1")
    with pytest.raises(ValidationError):
        resolve_pending(done, done.gen_elem(0), "again")


def kummer_floor_tower(p):
    """u^(1/p) floor plus a pending x^p = x + u t^(-1) on top."""
    res = ResField(p, "ratfun")
    base = EqBase(p, res, ogroup([fr(1)], closed={0}, prime=p))
    t0 = Tower(base)
    adj = adjoin_root(t0, "kummer", t0.from_base(base.monomial(0, res.gen())), "c1")
    assert adj.outcome == "residue"
    t1 = adj.tower
    a = t1.from_base(base.monomial(-1, res.gen()))
    adj2 = adjoin_root(t1, "as", a, "x")
    assert adj2.outcome == "no_step_detected"
    return base, adj2.tower


def test_resolve_pending_residue_row():
    base, tw = kummer_floor_tower(3)
    u3 = base.res.gen().pth_root_extend()
    x = tw.gen_elem(1)
    b1 = x - tw.from_base(base.monomial(Fraction(-1, 3), u3))
    assert (b1 ** 3 - x).is_zero()
    assert val(b1) == Fraction(-1, 9)
    divisor = tw.from_base(base.monomial(Fraction(-1, 9)))
    done = resolve_pending(tw, b1, "b1 = x - u^(1/3) t^(-1/3)", divisor)
    step = done.steps[-1]
    assert step.kind == "residue"
    assert (step.e, step.f, step.m) == (1, 3, 0)
    assert step.new_residue.to_text() == "u^(1/9)"
    assert done.res_level() == 2


def test_resolve_pending_residue_requires_divisor_and_a_jump():
    base, tw = kummer_floor_tower(3)
    u3 = base.res.gen().pth_root_extend()
    x = tw.gen_elem(1)
    b1 = x - tw.from_base(base.monomial(Fraction(-1, 3), u3))
    with pytest.raises(ValidationError):
        resolve_pending(tw, b1, "b1")  # value stays in the closed group
    bad = tw.from_base(base.monomial(Fraction(-1, 9), u3 ** 3))
    with pytest.raises(ValidationError):
        # residue u lies in the current residue field: no jump to certify
        resolve_pending(tw, bad, "bad", tw.from_base(base.monomial(Fraction(-1, 9))))


def test_resolve_pending_refuses_an_element_over_another_base():
    # t^(-1/9) of a generator-free tower over exponents (1/9) Z has no
    # generators to disagree on; it used to be re-read over (1/3) Z and
    # certify a ramified step of value -1/9
    base, tw = as_pending(3, 1)
    fine = laurent(3, denom=9)
    foreign = Tower(fine).from_base(fine.monomial(Fraction(-1, 9)))
    with pytest.raises(ValidationError, match="does not come from a prefix tower"):
        resolve_pending(tw, foreign, "b1")
    with pytest.raises(ValidationError, match="does not come from a prefix tower"):
        resolve_pending(tw, tw.gen_elem(0), "x", divisor=foreign)
    with pytest.raises(ValidationError, match="expected a tower element"):
        resolve_pending(tw, tw.gen_elem(0), "x", divisor=base.monomial(-1))


def test_adjoin_root_refuses_an_element_over_another_base():
    # it used to fail as "fundamental inequality violated: e*f = 9 exceeds
    # degree 3", from a root value -1/27 read over (1/3) Z
    t0 = Tower(laurent(3, denom=3))
    fine = laurent(3, denom=9)
    foreign = Tower(fine).from_base(fine.monomial(Fraction(-1, 9)))
    with pytest.raises(ValidationError, match="does not come from a prefix tower"):
        adjoin_root(t0, "as", foreign, "x")


def test_resolve_pending_values_an_artin_schreier_root_by_the_slope():
    # w^3 - w = t^(-1/9): one slope, v(w) = -1/27
    base, tw = as_pending(3, 2)
    w = as_witness(base, tw, 2)
    assert (w ** 3 - w - tw.from_base(base.monomial(Fraction(-1, 9)))).is_zero()
    step = resolve_pending(tw, w, "b2").steps[-1]
    assert step.kind == "ramified" and step.new_value == Fraction(-1, 27)
    # w + 1 is a root of the same relation, with the same value
    step = resolve_pending(tw, w + 1, "b2 + 1").steps[-1]
    assert step.new_value == Fraction(-1, 27)


def test_resolve_pending_walks_a_witness_of_nonnegative_as_value():
    # v(w^3 - w) >= 0 does not fix v(w) at v(w^3 - w)/3: the walk values
    # w.  For t^(1/3), v(w^3 - w) = 1/3 and v(w) = 1/3, not 1/9; for 1,
    # w^3 - w vanishes and v(w) = 0
    base, tw = as_pending(3, 1)
    with pytest.raises(ValidationError, match="1/3 stays in the group"):
        resolve_pending(tw, tw.from_base(base.monomial(Fraction(1, 3))), "w")
    with pytest.raises(ValidationError, match="lies in the current residue"):
        resolve_pending(tw, tw.one(), "1", tw.one())


# -- values and residues on towers --------------------------------------------


def test_residue_termwise_uses_stored_generator_data():
    base, tw = kummer_floor_tower(3)
    x = tw.gen_elem(1)
    y = x * tw.from_base(base.monomial(Fraction(1, 3)))
    assert residue(y).to_text() == "u^(1/3)"
    c1 = tw.gen_elem(0)
    assert residue(c1).to_text() == "u^(1/3)"
    assert residue(c1 * c1).to_text() == "u^(2/3)"
    with pytest.raises(ValidationError):
        residue(x)  # value -1/3, not 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_residue_of_a_tie_is_read_where_the_value_walk_stops(p):
    # 1 and gen/t tie at value 0; every monomial bound is already >= 0, so
    # a residue loop of its own could stop at k = 0, one p-th power before
    # the value walk, which reads the residue off z^p
    tw = build_lemma_3_3(p).towers[0]
    z = tw.one() + tw.gen_elem(0) / tw.base.monomial(-1)
    assert val(z) == 0
    r = residue(z)
    assert r.to_text() == "1 + u^(1/%d)" % p
    assert r.level() == 1


def test_residue_ignores_monomials_of_positive_value():
    # t*x has value 2/3 > 0, so x's missing residue data does not matter
    base = laurent(3)
    t0 = Tower(base)
    tw = adjoin_root(t0, "as", t0.from_base(base.monomial(-1)), "x").tower
    assert tw.gens[0].mu is None and val(tw.gen_elem(0)) == Fraction(-1, 3)
    z = tw.one() + tw.gen_elem(0) * tw.from_base(base.monomial(1))
    assert residue(z).to_text() == "1"
    with pytest.raises(ValidationError, match="no residue data"):
        residue_termwise(z, 4)


def _base_monomial_from(base, v, coeff):
    """A base monomial of value v, or of the least group value above v."""
    try:
        return base.monomial(v, coeff)
    except ValidationError:
        unit = base.value_group.gens[0][0]
        return base.monomial(-((-v) // unit) * unit, coeff)


def _seeded_elements(tw, rng, count, lifts, coeffs):
    """Sums of one to three monomials c*gen^e, each c a base monomial of
    value -v(gen^e) + lift (rounded up into the base group)."""
    out = []
    while len(out) < count:
        z = tw.zero()
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(tw.p) for _ in tw.gens)
            shift = sum(ei * g.value for ei, g in zip(e, tw.gens))
            c = _base_monomial_from(tw.base, rng.choice(lifts) - shift,
                                    rng.choice(coeffs))
            z = z + TElem(tw, {e: c})
        if not z.is_zero():
            out.append(z)
    return out


def _differential_cases():
    """(tower, coefficients) in equal characteristic and over p-adic digit
    rings, with residue jumps (ties at value 0) and ramified generators."""
    cases = []
    for p in (2, 3):
        u = ResField(p, "ratfun").gen()
        cases += [(build_lemma_3_3(p).towers[0], [1, u]),
                  (build_as_resf(p, 2).towers[-1], list(range(1, p))),
                  (build_as_valgp(p, 2).towers[0], list(range(1, p))),
                  (build_kummer_resf(p, 2).towers[-1], [1, {1: 1}]),
                  (build_kummer_valgp(p, 1).towers[-1], list(range(1, p)))]
    cases += [(t, [1, 2]) for t in build_2ext(3).towers]
    return cases


def test_residue_matches_the_termwise_reference():
    # the residue is read off the deciding monomial alone; the reference
    # sums the residues of every monomial of value >= 0
    rng = random.Random(20261)
    compared = ties = 0
    for tw, coeffs in _differential_cases():
        for z in _seeded_elements(tw, rng, 12, [fr(0), fr(0), fr(1)], coeffs):
            try:
                want = residue_termwise(z, tower.r4_budget(z))
            except (ValidationError, PrecisionError):
                continue
            got = residue(z)
            assert (got.to_text(), got.level()) == (want.to_text(), want.level())
            compared += 1
            ties += tower._r4_walk(z)[0] >= 1
    assert compared >= 80 and ties >= 20


def test_vlb_and_val_match_the_fraction_sum_shift():
    rng = random.Random(20262)
    lifts = [fr(-1), fr(0), Fraction(1, 2), fr(1)]
    for tw, coeffs in _differential_cases():
        for z in _seeded_elements(tw, rng, 8, lifts, coeffs):
            assert vlb(z) == vlb_fraction_sum(z)
            try:
                want = val_fraction_sum(z, tower.r4_budget(z))
            except (ValidationError, PrecisionError):
                continue
            assert val(z) == want


def test_val_budget_exhaustion_raises(monkeypatch):
    base, tw = as_pending(3, 2)
    b1 = tw.gen_elem(0) - tw.from_base(base.monomial(Fraction(-1, 3)))
    monkeypatch.setattr(tower, "r4_budget", lambda x: 1)
    assert val(b1) == Fraction(-1, 9)
    monkeypatch.setattr(tower, "r4_budget", lambda x: 0)
    with pytest.raises(ValidationError):
        val(b1)


def as_witness(base, tw, n):
    """x - t^(-1/p) - ... - t^(-1/p^n), which needs exactly n R4 steps."""
    w = tw.gen_elem(0)
    for k in range(1, n + 1):
        w = w - tw.from_base(base.monomial(Fraction(-1, tw.p ** k)))
    return w


def test_r4_budget_is_derived_from_the_tower(monkeypatch):
    # exponents (1/27) Z: p-exponent 3, plus one generator of value -1/3
    base, tw = as_pending(3, 3)
    assert tower.r4_budget(Tower(base).one()) == 3
    assert tower.r4_budget(tw.gen_elem(0)) == 4
    # the as-valgp witness at level n needs exactly n R4 steps
    for n in range(1, 6):
        base, tw = as_pending(3, n)
        w = as_witness(base, tw, n)
        monkeypatch.setattr(tower, "r4_budget", lambda x: n)
        assert val(w) == Fraction(-1, 3 ** (n + 1))
        monkeypatch.setattr(tower, "r4_budget", lambda x: n - 1)
        with pytest.raises(ValidationError):
            val(w)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_r4_budget_reads_coefficient_exponents_over_a_p_closed_group(n):
    # Z[1/3] has the generator 1, so only the witness's own exponents
    # t^(-1/3^k) show how many steps the tie takes
    base = laurent(3, closed=True)
    t0 = Tower(base)
    tw = adjoin_root(t0, "as", t0.from_base(base.monomial(-1)), "x").tower
    w = as_witness(base, tw, n)
    assert tower.r4_budget(w) == n + 1
    assert val(w) == Fraction(-1, 3 ** (n + 1))


def test_r4_exhaustion_is_a_validation_error(monkeypatch):
    # no precision cap runs out on an exact build, so the CLI exits 1
    base, tw = as_pending(3, 2)
    b1 = tw.gen_elem(0) - tw.from_base(base.monomial(Fraction(-1, 3)))
    y = b1 * tw.from_base(base.monomial(Fraction(1, 9)))  # value 0
    monkeypatch.setattr(tower, "r4_budget", lambda x: 1)
    assert residue(y).to_text() == "1"
    monkeypatch.setattr(tower, "r4_budget", lambda x: 0)
    with pytest.raises(ValidationError, match="a value tie outlasts the R4 "
                       "budget of 0") as info:
        val(b1)
    assert not isinstance(info.value, PrecisionError)
    assert "the largest p-exponent of a value denominator" in str(info.value)


def test_val_additivity_on_monomials():
    base, tw = as_pending(3, 2)
    rng = random.Random(11)
    x = tw.gen_elem(0)
    for _ in range(20):
        g1 = Fraction(rng.randrange(-6, 7), 9)
        g2 = Fraction(rng.randrange(-6, 7), 9)
        m1 = tw.from_base(base.monomial(g1)) * x ** rng.randrange(3)
        m2 = tw.from_base(base.monomial(g2)) * x ** rng.randrange(3)
        assert val(m1 * m2) == val(m1) + val(m2)


def test_val_of_zero_is_infinite():
    base, tw = as_pending(3, 1)
    assert val(tw.zero()) == INFINITE
    assert vlb(tw.zero()) == INFINITE


# -- bookkeeping ---------------------------------------------------------------


def test_ostrowski_m_frozen_and_guards():
    assert ostrowski_m(3, 3, 1, 3) == 0
    assert ostrowski_m(3, 1, 1, 3) == 1
    assert ostrowski_m(9, 3, 3, 3) == 0
    assert ostrowski_m(6, 2, 1, 3) == 1
    with pytest.raises(ValidationError, match="fundamental inequality"):
        ostrowski_m(3, 3, 3, 3)
    with pytest.raises(ValidationError):
        ostrowski_m(6, 4, 1, 2)
    with pytest.raises(ValidationError):
        ostrowski_m(6, 1, 1, 5)


# -- explicit expansions --------------------------------------------------------


def test_expansion_terms_negative_value():
    exp = laurent(3, closed=True)
    c = exp.monomial(-1)
    terms = as_expansion_terms(c, 4)
    assert [t.val() for t in terms] == [Fraction(-1, 3), Fraction(-1, 9), Fraction(-1, 27), Fraction(-1, 81)]
    theta = exp.zero()
    for t in terms:
        theta = theta + t
    g = theta ** 3 - theta - c
    assert g.val() == Fraction(-1, 81)


def test_expansion_terms_positive_value():
    exp = laurent(3)
    c = exp.monomial(1)
    terms = as_expansion_terms(c, 4)
    theta = exp.zero()
    for t in terms:
        theta = theta + t
    g = theta ** 3 - theta - c
    assert g.val() == fr(81)


def test_expansion_guards():
    exp = laurent(3)
    with pytest.raises(ValidationError):
        as_expansion_terms(exp.zero(), 3)
    with pytest.raises(ValidationError):
        as_expansion_terms(exp.one(), 3)


def test_eval_expansion_matches_engine_value():
    base, tw = as_pending(3, 2)
    exp = laurent(3, closed=True)
    c = exp.monomial(-1)
    theta = exp.zero()
    for t in as_expansion_terms(c, 4):
        theta = theta + t
    x = tw.gen_elem(0)
    b2 = x - tw.from_base(base.monomial(Fraction(-1, 3))) \
        - tw.from_base(base.monomial(Fraction(-1, 9)))
    shadow = eval_expansion(b2, [theta], exp)
    assert shadow.val() == val(b2) == Fraction(-1, 27)


# -- p-th powers by Frobenius ------------------------------------------------


def _pfold(x, p):
    out = x
    for _ in range(p - 1):
        out = out * x
    return out


def _rand_coeff(base, rng, denom):
    res = base.res
    terms = {}
    for _ in range(rng.randrange(1, 3)):
        if res.has_variable():
            c = res.elem({rng.randrange(3): rng.randrange(1, base.p)})
            for _ in range(rng.randrange(3)):
                c = c.pth_root_extend()
        else:
            c = res.elem(rng.randrange(1, base.p))
        terms[Fraction(rng.randrange(-3, 4), denom)] = c
    return series(base, terms)


def _rand_telem(tower, rng, denom):
    out = tower.zero()
    for _ in range(rng.randrange(1, 3)):
        e = tuple(rng.randrange(tower.p) for _ in tower.gens)
        out = out + TElem(tower, {e: _rand_coeff(tower.base, rng, denom)})
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_frobenius_power_matches_pfold_product(p):
    rng = random.Random(1000 + p)
    cases = [(build_as_resf(p, 3).towers[-1], p ** 2),    # Kummer floors, AS top
             (build_as_valgp(p, 2).towers[-1], p ** 2),
             (build_lemma_3_3(p).towers[0], 1)]
    for tower, denom in cases:
        assert tower.base.eq_char
        for _ in range(3):
            x = _rand_telem(tower, rng, denom)
            assert x ** p == _pfold(x, p)


def _agrees_with_cap_at_least(got, want):
    """Every determinate coefficient of got and want agrees and got's cap is
    at least want's on each monomial."""
    zero = got.tower.base.zero()
    for e in set(got.coords) | set(want.coords):
        a, b = got.coords.get(e, zero), want.coords.get(e, zero)
        assert a == b and a.prec >= b.prec, (to_text(got), to_text(want), e)


def _power_cases():
    """(tower, coefficients, extra base term) over towers of every
    family, both characteristics, with capped kummer-valgp towers whose
    1/lambda is the extra term."""
    cases = []
    for p in (2, 3, 5):
        u = ResField(p, "ratfun").gen()
        cases += [(build_lemma_3_3(p).towers[0], [1, u], None),
                  (build_as_resf(p, 2).towers[-1], list(range(1, p)), None),
                  (build_as_valgp(p, 2).towers[-1], list(range(1, p)), None),
                  (build_kummer_resf(p, 2).towers[-1], [1, {1: 1}], None),
                  (build_2ext(p).towers[-1], [1, {1: 1}], None)]
        for cap in (None, 2 * p):
            r = build_kummer_valgp(p, 2, padic_cap=cap)
            cases.append((r.towers[-1], list(range(1, p)), r.extras["a0"]))
    return cases


def test_pth_power_matches_square_and_multiply():
    # x**p (the Frobenius in equal characteristic, the plain product for
    # several monomials in mixed) against power(x, p, one); a quotient's
    # power, carried through the division, against the power taken again
    # on the quotient
    rng = random.Random(20263)
    walked = quotients = 0
    for tw, coeffs, extra in _power_cases():
        p = tw.p
        zs = _seeded_elements(tw, rng, 6, [fr(-1), fr(0), fr(1)], coeffs)
        if extra is not None:
            zs += [z + tw.from_base(extra) for z in zs[:3]]
        for z in zs + [tw.zero()]:
            _agrees_with_cap_at_least(z ** p, power(z, p, tw.one))
            walked += not tw.base.eq_char and len(z.coords) > 1
        # an exact divisor, as resolve_pending's are: u or -1 times a monomial
        dc = coeffs[-1] if not isinstance(coeffs[-1], int) else -1
        d = _base_monomial_from(tw.base, fr(1), dc)
        for z in zs:
            carried = (z / d) ** p             # z keeps z**p from above
            again = (TElem(tw, z.coords) / d) ** p
            assert carried is not again
            _agrees_with_cap_at_least(carried, again)
            quotients += 1
        assert (tw.zero() ** p).is_zero()
    assert walked >= 60 and quotients >= 140


def test_power_products_count(monkeypatch):
    # square-and-multiply from x itself: x**2 is one product, x**5 three
    tK = build_2ext(3).towers[0]
    cases = ((PadicElem, PadicBase(3, 2, twist=-1).from_digits({0: 2, 1: 1})),
             (TElem, tK.gen_elem(0) + tK.from_base(tK.base.from_int(1))))
    for cls, x in cases:
        x2, x5 = x * x, x * x * x * x * x
        calls = []
        orig = cls.__mul__

        def counted(self, other, orig=orig):
            calls.append(1)
            return orig(self, other)

        monkeypatch.setattr(cls, "__mul__", counted)
        y2 = x ** 2
        assert len(calls) == 1
        y5 = x ** 5
        assert len(calls) == 1 + 3
        monkeypatch.undo()
        assert y2 == x2 and y5 == x5


# -- p-th powers up to a threshold --------------------------------------------


def _same(a, b):
    """Whether two tower elements agree coefficient by coefficient, each
    pair indistinguishable at the lower cap."""
    zero = a.tower.base.zero()
    return all(a.coords.get(e, zero) == b.coords.get(e, zero)
               for e in set(a.coords) | set(b.coords))


def _tie_twice(p):
    """Seeded elements of build_kummer_resf(p, 2)'s top tower whose value
    walk ties twice; at p = 5 three of them, of 3 monomials, took 4-20 s
    in the walk when each p-th power was whole (123 of the tower's 125
    monomials after one step)."""
    tw = build_kummer_resf(p, 2).towers[-1]
    zs = _seeded_elements(tw, random.Random(5), 40, [fr(-1), fr(0), fr(1)],
                          [1, {1: 1}])
    return tw, [z for z in zs if len(z.coords) > 1 and
                r4_walk_by_products(z, tower.r4_budget(z))[0] >= 2]


def test_truncated_power_matches_its_terms():
    # the pure terms with the least mixed bound as rest against a
    # term-by-term expansion at 1 + p*vlb, where no mixed term lands; the
    # whole power differs from them only in monomials of bound >= rest; a
    # quotient's carried power is the quotient's own, rest p*v(d) lower
    rng = random.Random(20264)
    compared = carried = 0
    cases = [_tie_twice(3)]
    for tw, coeffs, extra in _power_cases():
        zs = _seeded_elements(tw, rng, 6, [fr(-1), fr(0), fr(1)], coeffs)
        if extra is not None:
            zs += [z + tw.from_base(extra) for z in zs[:3]]
        cases.append((tw, zs))
    for tw, zs in cases:
        p = tw.p
        for z in zs:
            v0 = vlb(z)
            whole = power(z, p, tw.one)
            if tw.base.eq_char:
                kept, rest = tower.pth_power(TElem(tw, z.coords))
                assert rest == INFINITE and _same(kept, whole)
                continue
            below = 1 + p * v0
            kept, rest = tower.pth_power(TElem(tw, z.coords))
            want, want_rest = pth_power_by_terms(z, below)
            assert _same(kept, want) and rest == want_rest
            assert rest >= below
            assert all(b >= rest for b, det, _ in
                       monomial_bounds_fraction_sum(whole - kept) if det)
            compared += 1
            d = _base_monomial_from(tw.base, fr(1), -1)
            kept, rest = tower.pth_power(z)
            q = z / d
            qkept, qrest = q._pth
            fresh = tower.pth_power(TElem(tw, q.coords))
            assert qrest == rest - p * d.val() == fresh[1]
            assert _same(qkept, fresh[0])
            carried += 1
    assert compared >= 90 and carried >= 90


def test_pth_power_serves_a_lower_threshold_from_the_kept_power():
    # the pure terms are kept and served again; z**3 of several monomials
    # is the plain product and leaves the kept pure terms in place
    z = _tie_twice(3)[1][0]
    low = tower.pth_power(z)
    assert low[1] != INFINITE
    assert tower.pth_power(z) is low
    assert _same(z ** 3, power(z, 3, z.tower.one)) and z._pth is low


@pytest.mark.parametrize("family", ["kummer-valgp", "kummer-resf"])
def test_witness_pure_terms_are_its_power_below_zero(family):
    # the chase checks v(w^p + floor) >= 0, so it needs the terms of w^p
    # below 0: no mixed term of a witness lands there, so they are the
    # pure terms, and the least mixed bound is at least 0
    for p in (2, 3, 5, 7):
        for depth in (1, 2, 3):
            w = BUILDERS[family](p, depth).extras["witness"]
            kept, rest = tower.pth_power(TElem(w.tower, w.coords))
            want, want_rest = pth_power_by_terms(w, 0)
            assert _same(kept, want) and rest == want_rest >= 0


def test_walk_refuses_a_tie_with_an_indeterminate_coefficient():
    # g^3 = w^3 over Z_3[w], w^2 = -3: g has value 1/2, and so may a zero
    # known only mod w, so the tie cannot be decided and a cap ran out
    base = PadicBase(3, 2, twist=-1)
    t0 = Tower(base)
    w = base.from_digits({1: 1})
    adj = adjoin_root(t0, "kummer", t0.from_base(w ** 3), "g")
    assert adj.outcome == "no_step_detected"
    x = adj.tower.gen_elem(0) + adj.tower.from_base(base.zero(prec=1))
    with pytest.raises(PrecisionError, match="value tied with an "
                       "indeterminate coefficient at 1/2"):
        val(x)


def test_threshold_walk_matches_the_whole_walk():
    # each step keeps only the terms below 1 + p*vlb(y), where no mixed
    # term lands; (k, m, e) and the residue equal the walk of whole powers,
    # and no element needs the whole powers
    rng = random.Random(20265)
    compared = ties = residues = 0
    cases = [(tw, _seeded_elements(tw, rng, 12, [fr(0), fr(0), fr(1)],
                                   coeffs))
             for tw, coeffs in _differential_cases()]
    cases.append(_tie_twice(3))
    for tw, zs in cases:
        for z in zs:
            budget = tower.r4_budget(z)
            try:
                k, _, m, e = r4_walk_by_products(z, budget)
            except (ValidationError, PrecisionError):
                continue
            assert tower._walk(TElem(tw, z.coords), False) is not None
            got = tower._r4_walk(z)
            assert (got[0], got[2], got[3]) == (k, m, e)
            compared += 1
            ties += k >= 1
            if m == 0:
                try:
                    want = residue_termwise(z, budget)
                except ValidationError:         # a monomial without
                    continue                    # residue data
                r = residue(z)
                assert (r.to_text(), r.level()) == (want.to_text(),
                                                    want.level())
                residues += 1
    assert compared >= 150 and ties >= 40 and residues >= 80


@pytest.mark.parametrize("k", [2, 4, 5])
def test_walk_widens_when_the_kept_part_cannot_decide(monkeypatch, k):
    # g^3 = 1 + w^k over Z_3[w], w^2 = -3 (w^4 = 9 at E = 4): in (g - 1)^3
    # the pure terms leave w^k, of value k/E >= 1, where the mixed terms
    # 3g^2 and 3g begin, so the kept part cannot decide and the walk forms
    # whole powers; the tie then takes two steps, one more than the
    # derived budget of 1 allows, although the norm gives the same value
    monkeypatch.setattr(tower, "r4_budget", lambda x: 2)
    base = PadicBase(3, 2 if k == 2 else 4, twist=-1)
    t0 = Tower(base)
    a = t0.from_base(base.one() + base.from_digits({k: 1}))
    tw = adjoin_root(t0, "kummer", a, "g").tower
    x = tw.gen_elem(0) - tw.one()
    assert tower._walk(x, False) is None
    got, want = tower._r4_walk(x), r4_walk_by_products(x, 2)
    assert got[0] == want[0] == 2
    assert (got[2], got[3]) == (want[2], want[3])
    assert val(x) == norm_value(x) == Fraction(k, 3 * base.E)


def test_value_walk_on_elements_that_tie_twice_forms_no_mixed_term(
        monkeypatch):
    tw, zs = _tie_twice(3)
    tw5 = build_kummer_resf(5, 2).towers[-1]
    zs5 = _seeded_elements(tw5, random.Random(5), 10, [fr(-1), fr(0), fr(1)],
                           [1, {1: 1}])
    calls = []
    monkeypatch.setattr(tower, "power", lambda *a: calls.append(a))
    ks = [tower._r4_walk(z)[0] for z in zs + zs5]
    assert ks.count(2) >= 10 and not calls


def test_norm_oracle_agrees_with_both_walks():
    # v(x) = v(N(x)) / [L:K] over all six families at a basis of at most 9
    # monomials, on elements biased to tie at value 0
    rng = random.Random(20266)
    cases = []
    for p in (2, 3):
        u = ResField(p, "ratfun").gen()
        small = 2 if p == 2 else 1
        cases += [(build_lemma_3_3(p).towers[0], [1, u]),
                  (build_as_resf(p, small).towers[-1], list(range(1, p))),
                  (build_as_valgp(p, 2).towers[-1], list(range(1, p))),
                  (build_kummer_resf(p, small).towers[-1], [1, {1: 1}]),
                  (build_kummer_valgp(p, 1).towers[-1], list(range(1, p))),
                  (build_kummer_valgp(p, 1, padic_cap=p).towers[-1],
                   list(range(1, p)))]
    cases += [(t, [1, 2]) for t in build_2ext(3).towers]
    compared = ties = skipped = 0
    for tw, coeffs in cases:
        assert tw.p ** len(tw.gens) <= 9
        for z in _seeded_elements(tw, rng, 8, [fr(0), fr(0), fr(1)], coeffs):
            want = norm_value(z)
            if isinstance(want, Indeterminate):
                skipped += 1
                continue
            assert val(z) == want
            assert val_fraction_sum(z, tower.r4_budget(z)) == want
            compared += 1
            ties += tower._r4_walk(z)[0] >= 1
    assert compared >= 100 and ties >= 25 and 1 <= skipped <= 10


def test_carried_rest_bounds_the_cross_terms():
    # y = z^p = a + r with a kept below 1 + p*vlb(z) and v(r) >= rest:
    # y^p - a^p = sum_i C(p, i) a^(p-i) r^i + r^p lies at or above the
    # carried rest, and its cross terms fall below p*rest, the bound of
    # r^p alone
    rng = random.Random(20267)
    compared = below_p_rest = 0
    cases = [_tie_twice(3)]
    for p in (2, 3):
        for tw in (build_kummer_resf(p, 1).towers[-1],
                   build_2ext(p).towers[-1]):
            cases.append((tw, _seeded_elements(tw, rng, 8, [fr(-1), fr(0)],
                                               [1, {1: 1}])))
    for tw, zs in cases:
        p = tw.p
        for z in zs:
            a, rest = tower.pth_power(TElem(tw, z.coords))
            if rest == INFINITE:
                continue
            left = power(power(z, p, tw.one), p, tw.one) - power(a, p, tw.one)
            bounds = [b for b, det, _ in monomial_bounds_fraction_sum(left)
                      if det]
            carried = tower._carried_rest(INFINITE, rest, vlb(a), p)
            assert all(b >= carried for b in bounds)
            compared += 1
            below_p_rest += any(b < p * rest for b in bounds)
    assert compared >= 30 and below_p_rest >= 20
