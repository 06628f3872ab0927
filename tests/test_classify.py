"""Descriptor classification: verdicts and audits.

The corpus verdicts are pinned against hand-derived truth tables; the
rdr_2 cases were worked out by hand from the group presentations
before the checker existed.
"""

import hashlib
import json
import pathlib
from fractions import Fraction

import pytest

import vallab.corpus
from vallab.classify import (AbstractResidue, FieldDescriptor,
                             audit_implications,
                             build_counterexample_descriptor, check,
                             compose_xadic, descriptor_from_json, tv, and3)
from vallab.corpus import (_load, corpus_member, corpus_names,
                           shipped_corpus, tame_core)
from vallab.errors import ValidationError
from vallab.ogroup import cyclic, lex_compose, ogroup, same_group
from vallab.resfield import ResField


def flags(**kw):
    base = {"henselian": True, "defectless": True,
            "frobenius_surjective_on_completion_mod_p": True,
            "independent_defect": True, "tame": None}
    base.update(kw)
    return base


# -- three-valued plumbing ---------------------------------------------------


def test_three_valued_ops():
    assert tv(True) == "true" and tv(False) == "false" and tv(None) == "unknown"
    with pytest.raises(ValidationError):
        tv("yes")
    assert and3("true", "true") == "true"
    assert and3("true", "unknown") == "unknown"
    assert and3("unknown", "false") == "false"


# -- descriptor validation ---------------------------------------------------


def test_descriptor_rejects_vp_outside_group():
    with pytest.raises(ValidationError, match="lie in the value group"):
        FieldDescriptor("bad", 0, 3, cyclic(1), vp=Fraction(1, 2),
                        residue_field=ResField(3))


def test_descriptor_rejects_negative_vp():
    with pytest.raises(ValidationError, match="positive"):
        FieldDescriptor("bad", 0, 3, cyclic(1), vp=-1,
                        residue_field=ResField(3))


def test_descriptor_rejects_missing_vp_in_mixed_char():
    with pytest.raises(ValidationError, match="needs vp"):
        FieldDescriptor("bad", 0, 3, cyclic(1), residue_field=ResField(3))


def test_descriptor_rejects_vp_in_equal_char():
    with pytest.raises(ValidationError, match="vp only applies"):
        FieldDescriptor("bad", 3, 3, cyclic(1), vp=1,
                        residue_field=ResField(3))


def test_descriptor_rejects_unknown_flag():
    with pytest.raises(ValidationError, match="unknown oracle flag"):
        FieldDescriptor("bad", 3, 3, cyclic(1), residue_field=ResField(3),
                        oracle_flags={"complete": True})


def test_descriptor_rejects_mismatched_residue_char():
    with pytest.raises(ValidationError, match="does not match res_char"):
        FieldDescriptor("bad", 0, 3, cyclic(1), vp=1,
                        residue_field=ResField(2))


def test_composition_group_must_be_lex_product():
    core = tame_core(3)
    outer = FieldDescriptor("head", 0, 0, cyclic(1),
                            residue_field=AbstractResidue(True))
    with pytest.raises(ValidationError, match="lexicographic composition"):
        FieldDescriptor("bad", 0, 3, lex_compose(cyclic(2), core.value_group),
                        vp=(0, 1), residue_field=core.residue_field,
                        composition=(outer, core))


def test_composition_vp_must_restrict_to_core():
    core = tame_core(3)
    outer = FieldDescriptor("head", 0, 0, cyclic(1),
                            residue_field=AbstractResidue(True))
    group = lex_compose(outer.value_group, core.value_group)
    with pytest.raises(ValidationError, match="vanish on the outer"):
        FieldDescriptor("bad", 0, 3, group, vp=(1, 1),
                        residue_field=core.residue_field,
                        composition=(outer, core))


# -- corpus verdict pins -----------------------------------------------------

# (tame, roughly_tame, semitame, rdr), worked out by hand per descriptor
CORPUS_TABLE = {
    "laurent-f3": ("false", "false", "false", "false"),
    "laurent-f2u": ("false", "false", "false", "false"),
    "hahn-f3-perfected": ("true", "true", "true", "true"),
    "hahn-f3u": ("false", "false", "false", "false"),
    "ratfun-f2-t": ("false", "false", "false", "false"),
    "laurent-q": ("true", "true", "true", "true"),
    "q2": ("false", "false", "false", "false"),
    "q3-zeta3": ("false", "false", "false", "false"),
    "q3-deep": ("false", "false", "true", "true"),
    "tame-core-abstract": ("true", "true", "true", "true"),
    "composed-counterexample": ("false", "true", "false", "true"),
    "composed-discrete-core": ("false", "false", "false", "false"),
}


def test_corpus_has_twelve_members():
    assert len(shipped_corpus()) == 12
    assert corpus_names() == list(CORPUS_TABLE)


def test_corpus_member_carries_its_key_as_name():
    for name in corpus_names():
        assert corpus_member(name).name == name
    with pytest.raises(KeyError):
        corpus_member("no-such-field")


def test_corpus_verdicts_match_hand_table():
    for d in shipped_corpus():
        v = check(d).verdicts
        got = (v["tame"], v["roughly_tame"], v["semitame"], v["rdr"])
        assert got == CORPUS_TABLE[d.name], d.name


def test_counterexample_splits_tame_from_roughly_tame():
    v = check(corpus_member("composed-counterexample")).verdicts
    assert v["TF1"] == "false"
    assert v["RTF1"] == "true"
    assert v["tame"] == "false"
    assert v["roughly_tame"] == "true"
    assert v["semitame"] == "false"
    assert v["rdr"] == "true"


def test_rdr2_rank_one_discrete_vs_finer():
    assert check(corpus_member("q2")).verdicts["rdr_2"] == "false"
    assert check(corpus_member("q3-zeta3")).verdicts["rdr_2"] == "true"
    assert check(corpus_member("q3-deep")).verdicts["rdr_2"] == "true"


def test_rdr2_rank_two_discrete_core_is_false():
    v = check(corpus_member("composed-discrete-core")).verdicts
    assert v["rdr_2"] == "false"
    assert v["rdr"] == "false"


def test_rdr2_detects_element_below_leading_block():
    # vp sits in the leading coordinate, the whole lower block is below it
    d = FieldDescriptor("deep-vp", 0, 3, lex_compose(cyclic(1), cyclic(1)),
                        vp=(1, 0), residue_field=ResField(3),
                        oracle_flags=flags())
    assert check(d).verdicts["rdr_2"] == "true"


def test_semitame_corner_q3_deep():
    v = check(corpus_member("q3-deep")).verdicts
    assert v["TF1"] == "true"
    assert v["TF3"] == "false"
    assert v["semitame"] == "true"
    assert v["roughly_tame"] == "false"


def test_equal_char_roughly_iff_tame_across_corpus():
    for d in shipped_corpus():
        if d.char > 0 and d.char == d.res_char:
            v = check(d).verdicts
            assert v["roughly_tame"] == v["tame"], d.name


def test_res_char_zero_is_semitame_and_rdr():
    d = FieldDescriptor("q-t", 0, 0, cyclic(1),
                        residue_field=AbstractResidue(True),
                        oracle_flags={"henselian": None})
    v = check(d).verdicts
    assert v["semitame"] == "true" and v["rdr"] == "true"
    assert v["tame"] == "unknown"


def test_henselian_gate():
    d = corpus_member("ratfun-f2-t")
    rep = check(d)
    assert rep.verdicts["tame"] == "false"
    assert rep.verdicts["roughly_tame"] == "false"
    assert rep.evidence["tame"].startswith("not applicable")
    unknown = FieldDescriptor(
        "mystery", 3, 3, cyclic(1), residue_field=ResField(3),
        oracle_flags={"defectless": True})
    v = check(unknown).verdicts
    assert v["tame"] == "unknown" and v["roughly_tame"] == "unknown"


def test_unknown_flags_give_unknown_not_guesses():
    d = FieldDescriptor("bare", 0, 3, cyclic(1), vp=1,
                        residue_field=ResField(3))
    v = check(d).verdicts
    assert v["TF3"] == "unknown"
    assert v["rdr_1"] == "unknown"
    assert v["semitame"] == "false"      # TF1 is computed false regardless
    assert v["rdr"] == "false"           # rdr_2 computed false regardless
    assert v["tame"] == "unknown"


def test_check_monotone_in_oracle_flags():
    for d in shipped_corpus():
        before = check(d).verdicts
        for name, val in d.oracle_flags.items():
            if val is not None:
                continue
            bumped = dict(d.oracle_flags)
            bumped[name] = True
            after = check(FieldDescriptor(
                d.name, d.char, d.res_char, d.value_group, d.vp,
                d.residue_field, bumped, d.composition, d.note)).verdicts
            for key, verdict in before.items():
                if verdict != "unknown":
                    assert after[key] == verdict, (d.name, name, key)


def test_evidence_provenance_prefixes():
    for d in shipped_corpus():
        rep = check(d)
        for key, text in rep.evidence.items():
            assert text.split(":")[0] in ("computed", "oracle", "derived",
                                          "not applicable"), (d.name, key)
        for key, verdict in rep.verdicts.items():
            if rep.evidence[key].startswith("computed"):
                assert verdict in ("true", "false"), (d.name, key)


def test_report_json_shape():
    rep = check(corpus_member("q2"))
    data = rep.to_json()
    assert data["schema"] == 1
    assert set(data["verdicts"]) == set(data["evidence"])
    assert len(data["verdicts"]) == 12


# -- audits -------------------------------------------------------------


def test_audit_zero_violations_on_corpus():
    report = audit_implications(shipped_corpus())
    assert report["checked"] == 12
    assert report["violations"] == []
    assert report["notices"] == []


def test_audit_vacuous_on_res_char_zero():
    report = audit_implications([corpus_member("laurent-q")])
    assert report["violations"] == []


def test_audit_skips_unknown_members_with_notice():
    d = FieldDescriptor("mystery", 3, 3, cyclic(1),
                        residue_field=ResField(3))
    report = audit_implications([d])
    assert report["violations"] == []
    assert len(report["notices"]) == 1
    assert "mystery" in report["notices"][0]


def test_audit_flags_a_planted_violation():
    # flags describing an impossible field: everything tame-shaped but the
    # power map mod p not onto; tame comes out true while semitame and rdr
    # come out false, so two implications must trip
    liar = FieldDescriptor(
        "liar", 0, 3, ogroup([1], closed=(0,), prime=3), vp=1,
        residue_field=AbstractResidue(True),
        oracle_flags=flags(frobenius_surjective_on_completion_mod_p=False))
    report = audit_implications([liar, tame_core(2)])
    broken = {v["implication"] for v in report["violations"]}
    assert "tame implies semitame" in broken
    assert "roughly_tame implies rdr" in broken
    assert all(v["descriptor"] == "liar" for v in report["violations"])


# -- the counterexample builder ----------------------------------------


def test_counterexample_requires_tame_flag():
    with pytest.raises(ValidationError, match="flagged tame"):
        build_counterexample_descriptor(corpus_member("q2"))


def test_counterexample_rejects_positive_characteristic_core():
    core = corpus_member("hahn-f3-perfected")
    with pytest.raises(ValidationError, match="characteristic 0"):
        build_counterexample_descriptor(core)


def test_counterexample_group_and_flags():
    core = tame_core(5)
    d = build_counterexample_descriptor(core)
    assert same_group(d.value_group,
                      lex_compose(cyclic(1), core.value_group))
    assert d.vp == (0, 1)
    assert d.oracle_flags["henselian"] is True
    assert d.oracle_flags["defectless"] is True
    assert d.oracle_flags["tame"] is False
    v = check(d).verdicts
    assert v["TF1"] == "false" and v["RTF1"] == "true"


def test_counterexample_discrete_core_kills_rtf1():
    core = FieldDescriptor("z-core", 0, 3, cyclic(1), vp=1,
                           residue_field=ResField(3),
                           oracle_flags=flags(tame=True))
    d = build_counterexample_descriptor(core)
    v = check(d).verdicts
    assert v["RTF1"] == "false"
    assert v["roughly_tame"] == "false"


def test_counterexample_trivially_valued_core():
    core = FieldDescriptor("triv", 0, 0, ogroup([], rank=1),
                           residue_field=AbstractResidue(True),
                           oracle_flags=flags(tame=True))
    d = build_counterexample_descriptor(core)
    assert d.res_char == 0 and d.vp is None
    v = check(d).verdicts
    assert v["RTF1"] == "true"
    assert v["tame"] == "true"


def test_counterexample_propagates_unknown_frobenius():
    core = FieldDescriptor("hazy", 0, 3, ogroup([1], closed=(0,), prime=3),
                           vp=1, residue_field=AbstractResidue(True),
                           oracle_flags=flags(
                               frobenius_surjective_on_completion_mod_p=None,
                               tame=True))
    d = build_counterexample_descriptor(core)
    v = check(d).verdicts
    assert v["rdr_1"] == "unknown"
    assert v["rdr"] == "unknown"
    assert v["semitame"] == "false"     # TF1 false decides regardless


# -- serialization ------------------------------------------------------


def test_composition_over_a_residue_characteristic_zero_core_is_tame():
    # the x-adic head and a core of residue characteristic 0 are both tame
    d = compose_xadic(corpus_member("laurent-q"), "laurent-q-xadic", "", "")
    assert d.res_char == 0 and d.oracle_flags["tame"] is True
    # the counterexample builder is tame exactly in residue characteristic
    # 0: its oracle flag and the checker's verdict agree on both sides
    for core, tame, verdict in (("laurent-q", True, "true"),
                                ("tame-core-abstract", False, "false")):
        d = build_counterexample_descriptor(corpus_member(core))
        assert (d.res_char == 0) is tame, core
        assert d.oracle_flags["tame"] is tame, core
        assert check(d).verdicts["tame"] == verdict, core


def test_descriptor_json_roundtrip_all_corpus():
    for d in shipped_corpus():
        data = d.to_json()
        back = descriptor_from_json(data)
        assert back.to_json() == data, d.name
        assert check(back).verdicts == check(d).verdicts, d.name


CORPUS_FILE = pathlib.Path(vallab.corpus.__file__).with_name("corpus.json")


def test_corpus_file_holds_the_static_members_in_to_json_form():
    entries = json.loads(CORPUS_FILE.read_text())
    for entry in entries:
        assert descriptor_from_json(entry).to_json() == entry, entry["name"]
    names = [entry["name"] for entry in entries]
    assert corpus_names() == names + ["tame-core-abstract",
                                      "composed-counterexample",
                                      "composed-discrete-core"]
    # each lookup builds a fresh descriptor from the parsed file
    d = corpus_member("q2")
    d.oracle_flags["tame"] = None
    assert corpus_member("q2").oracle_flags["tame"] is False


def test_corpus_file_is_read_by_the_strict_reader(tmp_path):
    copy = tmp_path / "corpus.json"
    copy.write_text(CORPUS_FILE.read_text().replace('"oracle_flags"',
                                                    '"oracle_flag"'))
    builders = _load(copy)
    with pytest.raises(ValidationError, match="'oracle_flag'"):
        for mk in builders.values():
            mk()


# sha256 of each descriptor's to_json() (keys sorted), recorded before the
# composed and tame corpus members were derived from the builders that
# compose-desc uses; the classify digests see verdicts only, these see
# every name, note, flag and composition
DESCRIPTOR_DIGESTS = {
    "laurent-f3":
        "b0d13b137672654a4538e9eef2f857c59f0ce2a178401f2b2a5ea3810ec323b8",
    "laurent-f2u":
        "aa6173e123fd0b46f4da4d3fc0c6f144c72feead1132c15e24cda11004994a77",
    "hahn-f3-perfected":
        "da4f59013abc9ec30db1920568ae45f65fc69466ee1e714f780567d97d1b2d18",
    "hahn-f3u":
        "5d1cb2b3a77a2107b98409e9080959ae856cd8a91907074b3a9f7c24a15c9d31",
    "ratfun-f2-t":
        "228074e60a53d47894f59248c0d8e07ae91f071a69097a85f286d0194201babf",
    "laurent-q":
        "2fdf58256e737efefbee9448bce4acb3458a61dae9341f0e943f6a193b3b70bc",
    "q2":
        "8585d40cf4c88ff0ad63f1404022046f87b39e69a35511d64d91eeec710d8ec9",
    "q3-zeta3":
        "73d507cd93187b6a7303c0c5ce98b43d7fe43bcb7436a6bac2fd148229007b39",
    "q3-deep":
        "aae1094b0221ec46befa18279762a7a2df2abe6ff9e7325c3bbe125d098be028",
    "tame-core-abstract":
        "00a480b9dad82dc2b8de4499ceb895969dc941944dee7a6d1effab4353ec3034",
    "composed-counterexample":
        "4d3b6f9cc1c67130342f79722b739b10b6ae96dd3bad297792aec23e106c1393",
    "composed-discrete-core":
        "e1c497547044dc8984188996495b5b64704dbd5d80b5e07a19d904178b566b28",
}

# the same for build_counterexample_descriptor(tame_core(p))
COUNTEREXAMPLE_DIGESTS = {
    2: "ae524cce97e3ce39ead7749e50392fc8d90a447cd8b0a12756a8527d4cb7b73d",
    3: "489e0a8230ecc9d53350d5b69b760ea8d46a29bccd05edf99b44a5c5b0a3e552",
    5: "bc9ccc5a896ea97f849acb1305e6ac2f50ddba814730c199926e5693e2fd7eb8",
    7: "fc00f1451a81dbb02dd10140ad138e3f3325e26bcc26858e277b770bf22478b4",
}


def _descriptor_digest(d):
    text = json.dumps(d.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_descriptor_json_is_pinned():
    assert list(DESCRIPTOR_DIGESTS) == corpus_names()
    for name, digest in DESCRIPTOR_DIGESTS.items():
        assert _descriptor_digest(corpus_member(name)) == digest, name
    for p, digest in COUNTEREXAMPLE_DIGESTS.items():
        d = build_counterexample_descriptor(tame_core(p))
        assert _descriptor_digest(d) == digest, p
