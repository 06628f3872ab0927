"""Acceptance gate: nine end-to-end checks with stated runtime budgets.

Each test rebuilds its artifact from scratch and recomputes the
advertised identities through the public arithmetic API instead of
trusting the certificate rows alone.  Runtime bounds are asserted with
time.monotonic around the whole check.
"""

import time
from fractions import Fraction

from vallab.classify import audit_implications, check
from vallab.constructions import (build_2ext, build_as_resf, build_as_valgp,
                                  build_kummer_resf, build_kummer_valgp,
                                  build_lemma_3_3)
from vallab.corpus import corpus_member, shipped_corpus
from vallab.ogroup import contains, ogroup, same_group
from vallab.resfield import ResField
from vallab.suites import run_suite
from vallab.tower import val, vlb


def test_01_valgp_tower_all_levels_ramified():
    """Depth-3 equal-char towers, p in {2, 3, 5}: every level (p, p, 1, 0),
    witness value exactly -1/p^(n+1), relation vanishes, absorption holds.
    Budget: 5 s per prime."""
    for p in (2, 3, 5):
        t0 = time.monotonic()
        res = build_as_valgp(p, depth=3)
        cert = res.certificate.to_json()
        assert len(cert["rows"]) == 4
        for row in cert["rows"]:
            assert (row["degree"], row["e"], row["f"], row["m"]) == (p, p, 1, 0)
        for n, w in enumerate(res.extras["witnesses"]):
            tw = res.towers[n]
            assert val(w) == Fraction(-1, p ** (n + 1))
            rhs = tw.from_base(tw.base.monomial(Fraction(-1, p ** n)))
            assert (w ** p - w - rhs).is_zero()
            one_up = ogroup([Fraction(1, p ** (n + 1))], prime=p)
            assert contains(one_up, (val(w),))
        assert cert["absorption"] == [True] * 4
        assert time.monotonic() - t0 < 5.0


def test_02_twisted_relation_single_residue_jump():
    """p in {2, 3}: one residue step with f = p, root exactly u^(1/p),
    value group unchanged.  Budget: 1 s."""
    t0 = time.monotonic()
    for p in (2, 3):
        res = build_lemma_3_3(p)
        cert = res.certificate.to_json()
        assert len(cert["rows"]) == 1
        row = cert["rows"][0]
        assert (row["degree"], row["e"], row["f"], row["m"]) == (p, 1, p, 0)
        assert row["kind"] == "residue"
        tw = res.towers[0]
        assert same_group(tw.group, tw.base.group)  # index 1
        fresh = ResField(p, "ratfun").gen().pth_root_extend()
        assert res.extras["residue_root"] == fresh
    assert time.monotonic() - t0 < 1.0


def test_03_resf_tower_residue_grows_by_p():
    """Depth-2 residue towers, p in {2, 3}: index 1 at every level, f = p
    per level, witness residue exactly u^(1/p^3).  Budget: 5 s."""
    t0 = time.monotonic()
    for p in (2, 3):
        res = build_as_resf(p, depth=2)
        cert = res.certificate.to_json()
        assert len(cert["rows"]) == 3
        for row in cert["rows"]:
            assert (row["degree"], row["e"], row["f"], row["m"]) == (p, 1, p, 0)
        done = res.towers[0]
        assert same_group(done.group, done.base.group)
        assert val(res.extras["witness"]) == Fraction(-1, p ** 3)
        pure = done.base.res.gen()
        for _ in range(3):
            pure = pure.pth_root_extend()
        assert res.extras["witness_residue"] == pure
    assert time.monotonic() - t0 < 5.0


def test_04_pth_power_congruence_suite():
    """200 random trials per p in {2, 3, 5} with val(c_i) >= -vp/p:
    val((sum c_i)^p - sum c_i^p) >= 0 in all of them.  Budget: 10 s."""
    t0 = time.monotonic()
    out = run_suite("congruence", 0)
    assert out.failed == 0
    assert out.passed == 600
    assert time.monotonic() - t0 < 10.0


def test_05_kummer_valgp_witness_values():
    """p = 3, depth 2: va_i = -1/(2*3^i), vb_k = -1/(2*3^(k+1)),
    v(b_k^p + a_k) >= 0 at every k, every finite step m = 0.
    Budget: 10 s."""
    t0 = time.monotonic()
    res = build_kummer_valgp(3, depth=2)
    cert = res.certificate.to_json()
    assert res.extras["a0"].val() == Fraction(-1, 2)
    assert [r["new_value"] for r in cert["rows"]] == ["-1/6", "-1/18", "-1/54"]
    assert all(r["m"] == 0 for r in cert["rows"])
    done = res.towers[0]
    a = done.gen_elem(2)
    for k in (1, 2):
        w = a
        for i in range(k):
            w = w - done.gen_elem(i)
        assert val(w) == Fraction(-1, 2 * 3 ** (k + 1))
        assert vlb(w ** 3 + done.gen_elem(k - 1)) >= 0
    assert cert["absorption"] == [True] * 3
    assert time.monotonic() - t0 < 10.0


def test_06_two_jumps_force_a_third():
    """p = 3: both sides report (3, 1, 3, 0) with residue u^(1/3); the
    compositum step has degree 3 and residue u^(1/9).  Budget: 20 s."""
    t0 = time.monotonic()
    res = build_2ext(3)
    cert = res.certificate.to_json()
    shapes = [(r["degree"], r["e"], r["f"], r["m"]) for r in cert["rows"]]
    assert shapes == [(3, 1, 3, 0)] * 3
    fresh = res.towers[0].base.residue_field.gen().pth_root_extend()
    rK, rA = res.extras["unit_residues"]
    assert rK == fresh and rA == fresh
    assert res.extras["witness_residue"] == fresh.pth_root_extend()
    assert cert["rows"][2]["degree"] == 3  # disjointness witness
    assert time.monotonic() - t0 < 20.0


def test_07_kummer_resf_floor_residues():
    """Depth 2, p in {2, 3}: residue(b_i) generates the level-i root
    field, vb_i = v(b_0)/p^i, v(c_k^p + b_k) >= 0 at every k, top step
    has m = 0 and is absorbed one level up.  Budget: 30 s."""
    t0 = time.monotonic()
    for p in (2, 3):
        res = build_kummer_resf(p, depth=2)
        cert = res.certificate.to_json()
        assert all((r["e"], r["f"], r["m"]) == (1, p, 0)
                   for r in cert["rows"])
        assert res.extras["b0"].val() == Fraction(-1)
        done = res.towers[0]
        for i in (1, 2):
            assert val(done.gen_elem(i - 1)) == Fraction(-1, p ** i)
            assert res.extras["unit_residues"][i - 1].least_level() == i
        x = done.gen_elem(2)
        for k in (1, 2):
            c = x
            for i in range(k):
                c = c - done.gen_elem(i)
            assert vlb(c ** p + done.gen_elem(k - 1)) >= 0
        assert res.extras["witness_residue"].least_level() == 3
        assert cert["rows"][-1]["kind"] in ("ramified", "residue")
        assert cert["absorption"] == [True] * 3
    assert time.monotonic() - t0 < 30.0


def test_08_descriptor_corpus_and_counterexample():
    """The shipped 12-member corpus audits with zero violations; the
    composed counterexample splits tame from roughly tame; every
    equal-characteristic member has roughly_tame == tame.  Budget: 1 s."""
    t0 = time.monotonic()
    corpus = shipped_corpus()
    assert len(corpus) == 12
    audit = audit_implications(corpus)
    assert audit["checked"] == 12
    assert audit["violations"] == []
    rep = check(corpus_member("composed-counterexample"))
    assert rep.verdicts["tame"] == "false"
    assert rep.verdicts["roughly_tame"] == "true"
    assert rep.verdicts["semitame"] == "false"
    eq_char = [d for d in corpus if d.char == d.res_char and d.char > 0]
    assert len(eq_char) >= 4
    for d in eq_char:
        r = check(d)
        assert r.verdicts["roughly_tame"] == r.verdicts["tame"]
    assert time.monotonic() - t0 < 1.0


def test_09_group_and_polygon_oracles():
    """ogroup contains/index vs brute-force enumeration on 100 random
    rank <= 2 groups; adjoin_root's outcome and root value agree with the
    lower hull of the relation's polygon on 100 random Kummer and
    Artin-Schreier relations.  Budget: 10 s."""
    t0 = time.monotonic()
    groups = run_suite("ogroup", 0)
    assert groups.failed == 0
    assert groups.passed >= 100
    polys = run_suite("newton", 0)
    assert polys.failed == 0
    assert polys.passed == 100
    assert time.monotonic() - t0 < 10.0
