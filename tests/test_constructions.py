"""Builder tests against hand-computed rows, values and residues."""

import importlib
import math
import tracemalloc
from fractions import Fraction

import pytest

from vallab import tower, vbase
from vallab.constructions import (BUILDERS, build_2ext, build_as_resf,
                                  build_as_valgp, build_kummer_resf,
                                  build_kummer_valgp, build_lemma_3_3)
from vallab.errors import PrecisionError, ValidationError
from vallab.ogroup import ogroup
from vallab.resfield import ResField, RElem
from vallab.tower import TElem, val

from helpers import run_in_child

# the package exports the function ogroup under the module's name
ogroup_module = importlib.import_module("vallab.ogroup")


def rows_of(result):
    return result.certificate.to_json()["rows"]


# -- growing value group, equal characteristic --------------------------------


def test_as_valgp_depth3_p3_frozen():
    r = build_as_valgp(3, 3)
    data = r.certificate.to_json()
    assert data["schema"] == 1
    assert data["construction"] == "as-valgp"
    assert len(data["rows"]) == 4
    for row in data["rows"]:
        assert row["kind"] == "ramified"
        assert (row["degree"], row["e"], row["f"], row["m"]) == (3, 3, 1, 0)
    assert data["rows"][0]["new_value"] == "-1/3"
    assert data["rows"][3]["new_value"] == "-1/81"
    assert data["absorption"] == [True, True, True, True]
    vals = [val(w) for w in r.extras["witnesses"]]
    assert vals == [Fraction(-1, 3), Fraction(-1, 9),
                    Fraction(-1, 27), Fraction(-1, 81)]


def test_as_valgp_small_primes():
    for p in (2, 5):
        r = build_as_valgp(p, 2)
        rows = rows_of(r)
        assert len(rows) == 3
        assert all((row["e"], row["f"], row["m"]) == (p, 1, 0) for row in rows)
        assert rows[-1]["new_value"] == str(Fraction(-1, p ** 3))
        assert rows[-1]["witness"].startswith("b2")


def test_as_valgp_series_mul_count(monkeypatch):
    # equal-characteristic p-th powers go through Frobenius; square-and-
    # multiply made 2,635 series products here
    calls = []
    mul = vbase.SeriesElem.__mul__

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(vbase.SeriesElem, "__mul__", counting)
    build_as_valgp(7, depth=5)
    assert len(calls) <= 500


def test_kummer_resf_is_zero_count(monkeypatch):
    # zero coefficients are dropped only where elements are built; when the
    # sums and the tower reduction dropped them too, each digit-ring
    # coefficient was checked twice or more: 22,980 questions here
    calls = []
    is_zero = vbase._Elem.is_zero

    def counting(self):
        calls.append(None)
        return is_zero(self)

    monkeypatch.setattr(vbase._Elem, "is_zero", counting)
    build_kummer_resf(7, 4)
    assert len(calls) <= 3000


def test_as_resf_pth_power_count(monkeypatch):
    # val and residue share one walk of p-th powers; when residue walked
    # its own after val's, the build took 19 p-th powers
    calls = []
    pow_ = TElem.__pow__

    def counting(self, n):
        calls.append(n)
        return pow_(self, n)

    monkeypatch.setattr(TElem, "__pow__", counting)
    build_as_resf(3, 3)
    assert calls.count(3) <= 13


def _count_calls(monkeypatch, cls, name, build):
    calls = []
    orig = getattr(cls, name)

    def counting(self, *args):
        calls.append(None)
        return orig(self, *args)

    monkeypatch.setattr(cls, name, counting)
    build()
    monkeypatch.undo()
    return len(calls)


def test_kummer_resf_products_count(monkeypatch):
    # a residue is read off the one monomial that decides the value, and a
    # witness keeps its p-th power: summing the residues of all 117
    # monomials of the witness's p-th power made 3,529 residue-field
    # products, and taking that power again for val, resolve_pending and
    # the builder made 20 tower products; reading the witness residue again
    # in the builder, instead of off the step, made 12; taking the
    # quotient's p-th power again in resolve_pending, instead of carrying
    # the witness's through the division, made 8
    build = lambda: build_kummer_resf(7, 4)
    assert _count_calls(monkeypatch, RElem, "__mul__", build) <= 20
    assert _count_calls(monkeypatch, TElem, "__mul__", build) <= 5


@pytest.mark.parametrize("build,bound", [
    (lambda: build_2ext(7), 2), (lambda: build_as_resf(5, 3), 3)],
    ids=["two-ext", "as-resf"])
def test_witness_residue_products_count(monkeypatch, build, bound):
    # the witness residue is read once, by resolve_pending, on a quotient
    # that keeps the witness's p-th power; the builder reading it again on
    # a lifted quotient made 12 and 9 tower products, and squaring
    # mixed-characteristic powers and powering the quotient again 8 and 6
    assert _count_calls(monkeypatch, TElem, "__mul__", build) <= bound


@pytest.mark.parametrize("depth,bound", [(3, 500), (6, 6000)])
def test_kummer_resf_digit_products_count(monkeypatch, depth, bound):
    # each p-th power is formed once, term by term by the multinomial
    # theorem, and carried through the division by the witness's divisor;
    # square-and-multiply, taken again on the quotient, made 1,803 and
    # 37,546 digit-ring products
    build = lambda: build_kummer_resf(7, depth)
    assert _count_calls(monkeypatch, vbase.PadicElem, "__mul__", build) <= bound


def test_kummer_resf_p11_digit_products_count(monkeypatch):
    # the chase and the value walk keep only the terms of the witness's
    # p-th power below 1 + p*vlb(w) = 0, where no mixed term lands: forming
    # all 4,363 terms made 11,946 digit-ring products
    build = lambda: build_kummer_resf(11, 5)
    assert _count_calls(monkeypatch, vbase.PadicElem, "__mul__", build) <= 400


def test_kummer_resf_forms_no_mixed_term(monkeypatch):
    # at p = 7, depth 3 the witness w has v(w) = -1/7, so every mixed term
    # of w^7 has value >= 1 + 7 * (-1/7) = 0 and cannot change the chase's
    # v(w^7 + floor) >= 0 or the value walk; all 116 were formed before,
    # each with a multinomial coefficient, and no plain product is taken
    calls = []
    monkeypatch.setattr(tower, "power", lambda *a: calls.append(a))
    build_kummer_resf(7, 3)
    assert not calls


def test_kummer_resf_carry_walks_count(monkeypatch):
    # only the printed text walks the carries, once per element printed (4
    # here): the lead is read off the folded integers.  Walking the carries
    # for each val, cap and division step made 1,073 walks, and reading each
    # element's lead by a walk, once, 61
    build = lambda: build_kummer_resf(7, 3)
    walks = _count_calls(monkeypatch, vbase.PadicElem, "_norm_iter", build)
    assert walks == _count_calls(monkeypatch, vbase.PadicElem, "to_text", build)


def test_monomial_at_zero_skips_membership(monkeypatch):
    # 0 lies in every value group, so these three made 3 membership tests;
    # any other exponent is still checked
    base = vbase.EqBase(3, ResField(3), ogroup([Fraction(1, 9)], prime=3))
    assert _count_calls(monkeypatch, vbase, "group_contains",
                        lambda: (base.one(), base.from_int(2),
                                 base.monomial(0, 2))) == 0
    assert _count_calls(monkeypatch, vbase, "group_contains",
                        lambda: base.monomial(Fraction(1, 9))) == 1
    with pytest.raises(ValidationError, match="outside the value group"):
        base.monomial(Fraction(1, 27))


def test_series_names_the_first_exponent_outside_the_group(monkeypatch):
    # one test on gcd/den decides a whole sum; only a refused sum tests
    # its exponents one by one, to name the first outside the group
    base = vbase.EqBase(3, ResField(3), ogroup([Fraction(1, 9)], prime=3))
    good = [(Fraction(-2, 9), 1), (Fraction(1, 3), 2), (Fraction(4), 1)]
    assert _count_calls(monkeypatch, vbase, "group_contains",
                        lambda: base.series(good)) == 1
    bad = good[:1] + [(Fraction(0), 1), (Fraction(5, 27), 2),
                      (Fraction(1, 81), 1)] + good[1:]
    with pytest.raises(ValidationError) as err:
        base.series(bad)
    assert str(err.value) == "exponent 5/27 outside the value group"


@pytest.mark.parametrize("family", ["as-resf", "two-ext", "kummer-resf"])
def test_witness_residue_is_the_steps(family):
    r = BUILDERS[family](3)
    done = r.towers[-1]
    assert r.extras["witness_residue"] is done.steps[-1].new_residue


def test_kummer_valgp_products_count(monkeypatch):
    # the witness's p-th power is taken once for vlb, val and
    # resolve_pending, by the multinomial theorem; taking it for each made
    # 10 tower products, and by square-and-multiply 5
    build = lambda: build_kummer_valgp(11, 2, padic_cap=44)
    assert _count_calls(monkeypatch, TElem, "__mul__", build) <= 3


def test_as_valgp_fraction_hash_count(monkeypatch):
    # a series keeps its exponents as integers over one denominator, and
    # each level builds its witness sum as one series: keying every term
    # by a Fraction, whose hash inverts its denominator mod a prime, made
    # 6,931 Fraction hashes here; keying a cache of canonical forms by the
    # value group, 522 more
    build = lambda: build_as_valgp(7, 20)
    assert _count_calls(monkeypatch, Fraction, "__hash__", build) == 0


def test_as_valgp_membership_count(monkeypatch):
    # a witness sum's exponents g/den generate Z gcd/den, so one test on
    # that value stands for all of them: testing each exponent made 13,362
    # membership tests here
    build = lambda: build_as_valgp(3, 160)
    assert _count_calls(monkeypatch, vbase, "group_contains", build) == 642


def test_rank_one_towers_skip_the_elimination(monkeypatch):
    # every tower group has rank 1, whose membership, inclusion and index
    # are one-row triangular solves against its form, built once per group:
    # the coordinate matrices and their int_rref determinants made 192 and
    # 384 calls here, and the library no longer has an int_rref; as-valgp
    # reads each absorption flag off the grown tower group, whose form the
    # step's index has built, and a fresh next-level group made 515 here
    build = lambda: (build_as_valgp(3, 160), build_as_resf(7, 30))
    assert not hasattr(ogroup_module, "int_rref")
    assert _count_calls(monkeypatch, ogroup_module, "_build_canon",
                        build) == 354


def test_as_valgp_negations_count(monkeypatch):
    # tower, series and residue subtraction each merge in one pass with
    # s - c, or -c where only the subtrahend has the key; x + (-y) negated
    # every term of y first: 162 tower, 242 series and 2,582 residue
    # negations here
    build = lambda: build_as_valgp(3, depth=40)
    assert _count_calls(monkeypatch, TElem, "__neg__", build) == 0
    assert _count_calls(monkeypatch, vbase.SeriesElem, "__neg__", build) <= 42
    assert _count_calls(monkeypatch, RElem, "__neg__", build) <= 900


def test_as_valgp_witness_subtractions_count(monkeypatch):
    # each level subtracts its witness sum once; subtracting t^(-1/p^k)
    # one k at a time, each time copying the sum so far, made 272 tower
    # subtractions here
    build = lambda: build_as_valgp(7, 20)
    assert _count_calls(monkeypatch, TElem, "__sub__", build) <= 82


@pytest.mark.parametrize("family", ["as-valgp", "as-resf"])
def test_witness_sum_missing_its_last_term_fails_the_self_check(
        monkeypatch, family):
    # each builder checks its witness's relation w^p - w = rhs before it
    # resolves the step; a sum that drops its finest term t^(-1/p^n)
    # misses the relation by t^(-1/p^(n-1)) - t^(-1/p^n)
    series = vbase.EqBase.series

    def short(self, terms):
        terms = list(terms)
        return series(self, terms[:-1] if len(terms) > 1 else terms)

    monkeypatch.setattr(vbase.EqBase, "series", short)
    with pytest.raises(ValidationError, match="construction self-check "
                       "failed: witness relation at (level|depth) 2"):
        BUILDERS[family](3, 2)


@pytest.mark.parametrize("family", ["as-resf", "kummer-valgp", "kummer-resf"])
def test_witness_keeps_its_pth_power(family):
    # its pure terms, which in equal characteristic are w**3 itself
    w = BUILDERS[family](3, 2).extras["witness"]
    kept = tower.pth_power(w)
    assert tower.pth_power(w) is kept
    if w.tower.base.eq_char:
        assert w ** 3 is kept[0]


@pytest.mark.parametrize("build", [
    lambda: build_kummer_valgp(5, 4), lambda: build_kummer_resf(7, 6),
    lambda: build_as_resf(3, 4)], ids=["kummer-valgp", "kummer-resf", "as-resf"])
def test_tower_group_keeps_a_canonical_presentation(build):
    # each step joins its values to the group's canonical basis; joining
    # them to every earlier generator grew the top groups to 11, 8 and 6
    # generators, four of them zero in as-resf
    group = build().towers[-1].group
    assert group.rank == 1 and len(group.gens) <= 3
    assert all(any(v) for v in group.gens)


def test_lemma33_frozen():
    for p in (2, 3):
        r = build_lemma_3_3(p)
        rows = rows_of(r)
        assert len(rows) == 1
        assert rows[0]["kind"] == "residue"
        assert (rows[0]["e"], rows[0]["f"], rows[0]["m"]) == (1, p, 0)
        assert rows[0]["new_residue"] == "u^(1/%d)" % p
        assert r.towers[0].res_level() == 1


def test_as_resf_depth2_p3_frozen():
    r = build_as_resf(3, 2)
    rows = rows_of(r)
    assert len(rows) == 3
    assert [row["kind"] for row in rows] == ["residue"] * 3
    assert all((row["e"], row["f"], row["m"]) == (1, 3, 0) for row in rows)
    assert rows[0]["new_residue"] == "u^(1/3)"
    assert rows[1]["new_residue"] == "u^(1/9)"
    assert rows[2]["new_residue"] == "u^(1/27)"
    assert r.extras["witness_residue"].to_text() == "u^(1/27)"
    assert val(r.extras["witness"]) == Fraction(-1, 27)
    assert r.towers[0].res_level() == 3


def test_as_resf_depth0_and_p2():
    r0 = build_as_resf(3, 0)
    assert len(rows_of(r0)) == 1
    assert rows_of(r0)[0]["new_residue"] == "u^(1/3)"
    r2 = build_as_resf(2, 2)
    assert rows_of(r2)[2]["new_residue"] == "u^(1/8)"
    assert val(r2.extras["witness"]) == Fraction(-1, 8)


# -- mixed characteristic ------------------------------------------------------


def test_kummer_valgp_p3_depth2_frozen():
    r = build_kummer_valgp(3, 2)
    data = r.certificate.to_json()
    rows = data["rows"]
    assert len(rows) == 3
    assert all(row["kind"] == "ramified" for row in rows)
    assert all((row["degree"], row["e"], row["f"], row["m"]) == (3, 3, 1, 0)
               for row in rows)
    assert rows[0]["new_value"] == "-1/6"
    assert rows[1]["new_value"] == "-1/18"
    assert rows[2]["new_value"] == "-1/54"
    assert rows[2]["witness"].startswith("b2")
    assert data["absorption"] == [True, True, True]
    assert data["precision"]["required"] == 3
    assert r.extras["a0"].val() == Fraction(-1, 2)
    assert r.extras["witness_value"] == Fraction(-1, 54)


def test_kummer_valgp_p2():
    r = build_kummer_valgp(2, 2)
    rows = rows_of(r)
    assert [row["new_value"] for row in rows] == ["-1/2", "-1/4", "-1/8"]
    assert all((row["e"], row["f"]) == (2, 1) for row in rows)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_default_cap_is_the_least_that_builds(p):
    # the need is lambda's own, at every depth: no guard stands in for it
    for depth in range(1, 5):
        prec = build_kummer_valgp(p, depth).certificate.to_json()["precision"]
        assert prec["padic_positions"] == prec["required"] == p
        with pytest.raises(PrecisionError):
            build_kummer_valgp(p, depth, padic_cap=p - 1)


@pytest.mark.parametrize("p", [61, 101, 211])
def test_kummer_valgp_builds_at_larger_primes(p):
    # lambda's digit-ring lift took 0.02 / 0.06 / 0.38 s here; Dwork's
    # series needs about p + 2 terms mod p at the default cap
    cert = build_kummer_valgp(p, 1).certificate.to_json()
    assert cert["precision"]["required"] == \
        cert["precision"]["padic_positions"] == p
    assert len(cert["rows"]) == 2
    assert all((r["kind"], r["degree"], r["e"], r["f"], r["m"]) ==
               ("ramified", p, p, 1, 0) for r in cert["rows"])


@pytest.mark.parametrize("family,kind", [
    ("lemma33", "residue"), ("as-valgp", "ramified"), ("as-resf", "residue"),
    ("two-ext", "residue"), ("kummer-resf", "residue")])
def test_builds_at_a_prime_past_any_list_length(family, kind):
    # each root value is read off its relation: a list of p + 1 coefficient
    # values at p = 2^61 - 1 would need 2^64 bytes
    p = 2 ** 61 - 1
    rows = rows_of(BUILDERS[family](p))
    shape = (p, 1, 0) if kind == "ramified" else (1, p, 0)
    assert rows and all((r["kind"], r["degree"], r["e"], r["f"], r["m"]) ==
                        (kind, p) + shape for r in rows)


def test_lemma33_at_a_large_prime_allocates_nothing_of_size_p():
    tracemalloc.start()
    try:
        build_lemma_3_3(10000019)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_as_valgp_depth_12_builds_within_budget(p, monkeypatch):
    # the R4 budget used to be len(gens) + 4, so depth 6 ran out although
    # the build is exact.  Work bound: level n takes 2n + 1 p-th powers
    # (its witness needs n R4 steps), (depth + 1)^2 in all.
    calls = []
    pow_ = TElem.__pow__
    monkeypatch.setattr(TElem, "__pow__",
                        lambda x, n: calls.append(n) or pow_(x, n))
    r = build_as_valgp(p, 12)
    assert len(calls) <= 13 ** 2
    rows = rows_of(r)
    assert len(rows) == 13
    assert rows[-1]["new_value"] == str(Fraction(-1, p ** 13))
    assert r.certificate.to_json()["absorption"] == [True] * 13


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_as_valgp_slope_values_match_the_walk(p):
    # each witness is valued by its relation's slope; the R4 walk stays
    # the reference
    r = build_as_valgp(p, 10)
    witnesses = r.extras["witnesses"]
    assert len(witnesses) == 11
    for w, row in zip(witnesses, rows_of(r)):
        assert str(val(w)) == row["new_value"]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_as_resf_slope_residues_match_the_walk(p):
    # the residue of w/d is read as the p-th root of that of a/d^p; the
    # R4 walk on w/d stays the reference
    for depth in range(7):
        r = build_as_resf(p, depth)
        w = r.extras["witness"]
        d = w.tower.base.monomial(Fraction(-1, p ** (depth + 1)))
        walked = tower.residue(w / w.tower.from_base(d))
        assert walked.to_text() == rows_of(r)[-1]["new_residue"]
        assert walked == r.extras["witness_residue"]


def test_kummer_valgp_cap_guard():
    with pytest.raises(PrecisionError, match="at least 3"):
        build_kummer_valgp(3, 9, padic_cap=2)
    with pytest.raises(ValidationError):
        build_kummer_valgp(3, 0)


KUMMER_NO_CAP = """
import math
from vallab.constructions import build_kummer_valgp
from vallab.errors import ValidationError
try:
    build_kummer_valgp(3, 1, padic_cap=math.inf)
except ValidationError as exc:
    print(exc)
"""


def test_kummer_valgp_refuses_a_cap_that_is_not_an_int():
    # an infinite cap hung the lambda lift at odd p, and at p = 2 it built
    # and printed "padic_positions": Infinity, which is not JSON
    res = run_in_child(KUMMER_NO_CAP)
    assert res.returncode == 0 and "must be an int" in res.stdout, res.stderr
    # a bool is an int to isinstance: True ran lambda at cap 1 and exited 2
    for cap in (math.inf, 6.0, True, False):
        with pytest.raises(ValidationError, match="must be an int"):
            build_kummer_valgp(2, 1, padic_cap=cap)


@pytest.mark.parametrize("family, least", [
    ("as-valgp", 0), ("as-resf", 0), ("kummer-valgp", 1), ("kummer-resf", 1)])
def test_depth_families_share_one_depth_check(family, least):
    build = BUILDERS[family]
    for depth in (True, 2.0, "2", None):
        with pytest.raises(ValidationError, match="depth must be an int"):
            build(3, depth)
    want = "nonnegative" if least == 0 else "at least 1"
    with pytest.raises(ValidationError, match="depth must be " + want):
        build(3, least - 1)
    # the last row prints p^(depth+1), so a depth past the text limit is
    # refused before the build starts
    with pytest.raises(ValidationError, match="get_int_max_str_digits"):
        build(97, 10 ** 19)


def test_2ext_p3_frozen():
    r = build_2ext(3)
    rows = rows_of(r)
    assert len(rows) == 3
    assert all(row["kind"] == "residue" for row in rows)
    assert all((row["degree"], row["e"], row["f"], row["m"]) == (3, 1, 3, 0)
               for row in rows)
    assert rows[0]["new_residue"] == "u^(1/3)"
    assert rows[1]["new_residue"] == "u^(1/3)"
    assert rows[2]["new_residue"] == "u^(1/9)"
    assert [x.to_text() for x in r.extras["unit_residues"]] == \
        ["u^(1/3)", "u^(1/3)"]
    assert r.extras["witness_residue"].to_text() == "u^(1/9)"


def test_elements_of_different_towers_do_not_mix():
    tK, tA, done = build_2ext(3).towers
    x, y = tK.gen_elem(0), tA.gen_elem(0)
    with pytest.raises(ValidationError):
        x + y
    with pytest.raises(ValidationError):
        x == y
    with pytest.raises(ValidationError):
        x + done.gen_elem(1)
    assert done.gen_elem(0) == done.lift(x)


def test_2ext_p2():
    r = build_2ext(2)
    rows = rows_of(r)
    assert rows[0]["new_residue"] == "u^(1/2)"
    assert rows[2]["new_residue"] == "u^(1/4)"


def test_kummer_resf_p3_depth2_frozen():
    r = build_kummer_resf(3, 2)
    rows = rows_of(r)
    assert len(rows) == 3
    assert all(row["kind"] == "residue" for row in rows)
    assert all((row["e"], row["f"], row["m"]) == (1, 3, 0) for row in rows)
    levels = [x.least_level() for x in r.extras["unit_residues"]]
    assert levels == [1, 2]
    assert r.extras["witness_residue"].least_level() == 3
    assert r.extras["b0"].val() == Fraction(-1)
    assert val(r.extras["witness"]) == Fraction(-1, 27)
    assert r.towers[0].res_level() == 3


def test_kummer_resf_p2():
    r = build_kummer_resf(2, 2)
    rows = rows_of(r)
    assert len(rows) == 3
    assert all((row["e"], row["f"], row["m"]) == (1, 2, 0) for row in rows)
    assert r.extras["witness_residue"].least_level() == 3


def test_builders_registry():
    assert set(BUILDERS) == {"as-valgp", "lemma33", "as-resf", "kummer-valgp",
                             "two-ext", "kummer-resf"}
