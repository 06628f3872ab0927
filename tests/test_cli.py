"""End-to-end runs of the command line, pinned by exit code and output."""

import hashlib
import json
import re
import subprocess
import sys
import time

from fractions import Fraction

import pytest

from vallab.classify import FieldDescriptor
from vallab.cli import _load_descriptor, build_parser, main
from vallab.constructions import BUILDERS
from vallab.corpus import corpus_member, corpus_names
from vallab.ogroup import ogroup

from helpers import index_by_elimination, seeded_mixed_descriptor

BASE = [sys.executable, "-m", "vallab.cli"]


def run(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


def test_construct_as_valgp_exit_zero_and_rows():
    res = run("construct", "--example", "as-valgp", "--p", "3",
              "--depth", "3")
    assert res.returncode == 0
    cert = json.loads(res.stdout)
    assert cert["schema"] == 1
    assert cert["construction"] == "as-valgp"
    assert len(cert["rows"]) == 4
    for row in cert["rows"]:
        assert (row["degree"], row["e"], row["f"], row["m"]) == (3, 3, 1, 0)


def test_construct_underfunded_precision_exits_two():
    res = run("construct", "--example", "kummer-valgp", "--p", "3",
              "--depth", "9", "--padic-cap", "2")
    assert res.returncode == 2
    assert "precision exhausted" in res.stderr
    assert "at least 3" in res.stderr  # names the needed digit positions


def test_construct_lambda_cap_below_E_exits_two():
    # a cap of 6 is not above E = 6 for p = 7
    res = run("construct", "--example", "kummer-valgp", "--p", "7",
              "--depth", "1", "--padic-cap", "6")
    assert res.returncode == 2
    assert "precision exhausted: lambda = zeta_7 - 1" in res.stderr
    assert "at least 7" in res.stderr


def test_construct_lambda_cap_at_E_exits_two_for_p2():
    # lambda = -2 sits at position E = 1; a cap of 1 used to turn it into
    # an indeterminate and fail later as a division by zero
    res = run("construct", "--example", "kummer-valgp", "--p", "2",
              "--padic-cap", "1")
    assert res.returncode == 2
    assert "precision exhausted: lambda = zeta_2 - 1" in res.stderr
    assert "at least 2" in res.stderr


def test_construct_deterministic_output():
    a = run("construct", "--example", "kummer-resf", "--p", "2",
            "--depth", "1")
    b = run("construct", "--example", "kummer-resf", "--p", "2",
            "--depth", "1")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_construct_tsv_projection():
    res = run("construct", "--example", "lemma33", "--p", "2",
              "--format", "tsv")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0].split("\t")[:4] == ["n", "name", "kind", "degree"]
    assert len(lines) == 2
    assert "u^(1/2)" in lines[1]


def test_construct_out_file(tmp_path):
    target = tmp_path / "cert.json"
    res = run("construct", "--example", "lemma33", "--p", "3",
              "--out", str(target))
    assert res.returncode == 0
    assert res.stdout == ""
    cert = json.loads(target.read_text())
    assert cert["rows"][0]["new_residue"] == "u^(1/3)"


def test_failed_construct_leaves_no_out_file(tmp_path):
    # the writability check used to leave an empty file behind
    target = tmp_path / "e.json"
    res = run("construct", "--example", "kummer-valgp", "--p", "2",
              "--padic-cap", "1", "--out", str(target))
    assert res.returncode == 2
    assert not target.exists()


def test_build_parser_builds_no_descriptor(monkeypatch):
    # the help text lists the corpus names; reading each off a built
    # descriptor used to build all 12 (17 with their parts)
    calls = []
    post_init = FieldDescriptor.__post_init__
    monkeypatch.setattr(FieldDescriptor, "__post_init__",
                        lambda d: calls.append(d.name) or post_init(d))
    build_parser()
    assert calls == []
    _load_descriptor("q2")
    assert calls == ["q2"]


def test_construct_rejects_composite_p():
    res = run("construct", "--example", "as-valgp", "--p", "4")
    assert res.returncode == 1
    assert "prime" in res.stderr


def test_unknown_flag_is_a_usage_error_not_precision():
    res = run("construct", "--example", "as-valgp", "--frobnicate")
    assert res.returncode == 1


def test_compose_desc_emits_descriptor():
    res = run("construct", "--example", "compose-desc", "--p", "3")
    assert res.returncode == 0
    desc = json.loads(res.stdout)
    assert desc["res_char"] == 3
    assert desc["value_group"]["rank"] == 2
    assert desc["composition"]["core"]["name"] == "tame-core-p3"


def test_compose_desc_has_no_tsv():
    res = run("construct", "--example", "compose-desc", "--format", "tsv")
    assert res.returncode == 1


def test_classify_corpus_member():
    res = run("classify", "--descriptor", "composed-counterexample")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["verdicts"]["tame"] == "false"
    assert report["verdicts"]["roughly_tame"] == "true"
    assert report["verdicts"]["semitame"] == "false"
    assert report["evidence"]["RTF1"].startswith("computed")


def test_classify_descriptor_file_roundtrip(tmp_path):
    desc = run("construct", "--example", "compose-desc", "--p", "2")
    path = tmp_path / "d.json"
    path.write_text(desc.stdout)
    res = run("classify", "--descriptor", str(path))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["verdicts"]["tame"] == "false"
    assert report["verdicts"]["roughly_tame"] == "true"


def test_classify_audit_corpus_clean():
    res = run("classify", "--audit")
    assert res.returncode == 0
    audit = json.loads(res.stdout)
    assert audit["checked"] == 12
    assert audit["violations"] == []


def test_classify_audit_with_descriptor_combines():
    res = run("classify", "--descriptor", "q2", "--audit")
    assert res.returncode == 0
    both = json.loads(res.stdout)
    assert both["classification"]["verdicts"]["rdr_2"] == "false"
    assert both["audit"]["violations"] == []


def test_classify_audit_checks_a_file_named_like_a_member(tmp_path, capsys):
    # the file takes the shipped member's place in the audit; it used to be
    # dropped, and the audit checked the shipped q2 without a word
    d = corpus_member("q2").to_json()
    d["oracle_flags"]["defectless"] = False
    path = tmp_path / "q2.json"
    path.write_text(json.dumps(d))
    assert main(["classify", "--descriptor", str(path), "--audit"]) == 0
    both = json.loads(capsys.readouterr().out)
    assert both["classification"]["verdicts"]["TF3"] == "false"
    assert both["audit"]["checked"] == 12
    assert both["audit"]["verdicts"]["q2"] == both["classification"]["verdicts"]


def test_classify_needs_input():
    res = run("classify")
    assert res.returncode == 1


def test_classify_missing_file():
    res = run("classify", "--descriptor", "/nonexistent/d.json")
    assert res.returncode == 1
    assert "cannot read" in res.stderr


def _classify_edited(tmp_path, name, **edits):
    """main's exit code on corpus member `name` with keys replaced."""
    data = corpus_member(name).to_json()
    data.update(edits)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return main(["classify", "--descriptor", str(path)])


@pytest.mark.parametrize("flag", [0, 1, 1.0])
def test_classify_refuses_a_flag_that_is_not_a_bool(tmp_path, capsys, flag):
    # 0 == False let these through, and henselian is read by identity,
    # so hahn-f3-perfected with henselian 0 classified as tame
    flags = dict(corpus_member("hahn-f3-perfected").oracle_flags,
                 henselian=flag)
    assert _classify_edited(tmp_path, "hahn-f3-perfected",
                            oracle_flags=flags) == 1
    assert capsys.readouterr().err == (
        "error: oracle flag 'henselian' must be True, False or None\n")


def test_classify_refuses_an_unknown_schema(tmp_path, capsys):
    assert _classify_edited(tmp_path, "q2", schema=99) == 1
    assert capsys.readouterr().err == (
        "error: descriptor schema 99 is not supported; this reader knows "
        "schema 1\n")
    data = corpus_member("q2").to_json()
    del data["schema"]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main(["classify", "--descriptor", str(path)]) == 0


def test_classify_refuses_an_empty_composition(tmp_path, capsys):
    assert _classify_edited(tmp_path, "q2", composition={}) == 1
    assert capsys.readouterr().err == (
        "error: composition lacks the key 'outer'\n")


@pytest.mark.parametrize("name,edit,key", [
    # a misspelt "oracle_flags" read as no flags, and q2 classified with
    # TF3 unknown, exit 0
    ("q2", lambda d: d.update(oracle_flag=d.pop("oracle_flags")),
     "descriptor has the unknown key 'oracle_flag'"),
    ("composed-discrete-core", lambda d: d["composition"].update(middle={}),
     "composition has the unknown key 'middle'"),
    ("laurent-q", lambda d: d["residue_field"].update(perfekt=False),
     "residue field has the unknown key 'perfekt'"),
    ("laurent-f2u", lambda d: d["residue_field"].update(levle=2),
     "residue field has the unknown key 'levle'"),
    # each kind of residue field takes only its own keys
    ("laurent-f3", lambda d: d["residue_field"].update(level=1),
     "residue field has the unknown key 'level'"),
], ids=["descriptor", "composition", "abstract-residue", "residue-field",
        "residue-field-other-kind"])
def test_classify_refuses_an_unknown_key(tmp_path, capsys, name, edit, key):
    data = corpus_member(name).to_json()
    edit(data)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main(["classify", "--descriptor", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: %s; it takes " % key)


def test_hull_refuses_an_unknown_key(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"rank": 1, "gens": [[1, 1]], "p_closed": [],
                                "prime": 1, "extra": 5}))
    assert main(["hull", "--group", str(path), "--kind", "p_div",
                 "--p", "3"]) == 1
    assert "value group has the unknown key 'extra'; it takes rank, gens, " \
        "p_closed, prime" in capsys.readouterr().err


@pytest.mark.parametrize("argv,what", [
    (["classify", "--descriptor"], "descriptor"),
    (["hull", "--kind", "p_div", "--p", "3", "--group"], "group file"),
], ids=["classify", "hull"])
def test_deeply_nested_json_exits_one_without_traceback(tmp_path, capsys,
                                                        argv, what):
    # the json decoder raises RecursionError, not ValueError, past the
    # recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(argv + [str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: %s %r is malformed: maximum recursion depth exceeded"
        % (what, str(path)))


def test_verify_single_suite():
    res = run("verify", "--suite", "implications")
    assert res.returncode == 0
    assert "implications: 12 passed, 0 failed" in res.stdout


def test_verify_seeded_deterministic():
    a = run("verify", "--suite", "newton", "--seed", "7")
    b = run("verify", "--suite", "newton", "--seed", "7")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_hull_exact_and_truncated(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"rank": 1, "gens": [[1, 1]], "p_closed": [], "prime": 1}))
    exact = run("hull", "--group", str(path), "--kind", "p_div",
                "--level", "exact", "--p", "3")
    assert exact.returncode == 0
    out = json.loads(exact.stdout)
    assert out["p_closed"] == [0] and out["prime"] == 3
    trunc = run("hull", "--group", str(path), "--kind", "p_prime_div",
                "--level", "4", "--p", "3")
    assert trunc.returncode == 0
    assert json.loads(trunc.stdout)["gens"] == [[1, 4]]


def test_hull_malformed_group(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("{\"rank\": 1}")
    res = run("hull", "--group", str(path), "--kind", "p_div",
              "--level", "exact", "--p", "3")
    assert res.returncode == 1
    assert "value group lacks the key 'gens'" in res.stderr


def test_hull_missing_group_file(capsys):
    assert main(["hull", "--group", "/nonexistent/g.json", "--kind", "p_div",
                 "--p", "3"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: cannot read group file '/nonexistent/g.json': ")


# a patch value that writes a JSON null, since None drops the key
_NULL = object()


@pytest.mark.parametrize("args,patch,needle", [
    (("hull", "--kind", "p_div", "--p", "3", "--level", "-1"), {}, ""),
    (("hull", "--kind", "p_prime_div", "--p", "3", "--level", "exact"), {}, ""),
    (("hull", "--kind", "p_div", "--p", "1", "--level", "exact"), {}, ""),
    (("hull", "--kind", "p_div", "--p", "4"), {}, ""),
    (("construct", "--example", "compose-desc", "--p", "1"), {}, ""),
    # int() used to truncate 1.5 to 1 and print the group generated by 1
    (("hull", "--kind", "p_prime_div", "--p", "3", "--level", "1"),
     {"gens": [[1.5, 1]]}, "must be an integer, got 1.5"),
    (("classify",), {"char": None}, "lacks the key 'char'"),
    (("classify",), {"residue_field": None}, "lacks the key 'residue_field'"),
    (("classify",), {"residue_field": {"kind": "weird"}},
     "unknown residue field kind 'weird'"),
    (("classify",), {"vp": [1, 1.0]}, "vp must be an integer, got 1.0"),
    # a name that is not a string used to reach the audit's sort or a hash
    (("classify", "--audit"), {"name": 7}, "key 'name' must be a str, got 7"),
    (("classify", "--audit"), {"name": [1]}, "key 'name' must be a str"),
    (("classify", "--audit"), {"name": {"a": 1}}, "key 'name' must be a str"),
    (("classify", "--audit"), {"name": _NULL},
     "key 'name' must be a str, got None"),
    (("classify",), {"note": 5}, "key 'note' must be a str, got 5"),
    # a finite residue field F_q with q not a power of its prime
    # characteristic used to be classified as the perfect field F_q
    (("classify",), {"residue_field": {"char": 3, "kind": "finite", "q": 10}},
     "q must be p^d with d >= 1 for its characteristic p = 3, got q = 10"),
    (("classify",), {"residue_field": {"char": 3, "kind": "finite", "q": -3}},
     "got q = -3"),
    (("classify",), {"residue_field": {"char": 3, "kind": "finite", "q": 1}},
     "got q = 1"),
    (("classify",), {"residue_field": {"char": 4, "kind": "ratfun"}},
     "residue field characteristic must be a prime, got 4"),
    # a p_closed index past the generators used to be dropped silently
    (("hull", "--kind", "p_div", "--level", "1", "--p", "3"),
     {"p_closed": [5], "prime": 3}, "p_closed index 5 is out of range"),
    # a group's prime used to be checked only against 1
    (("hull", "--kind", "p_div", "--level", "1", "--p", "3"),
     {"p_closed": [0], "prime": 0}, "prime 0 is neither 1 nor a prime"),
    (("hull", "--kind", "p_div", "--level", "1", "--p", "3"),
     {"p_closed": [0], "prime": -3}, "prime -3 is neither 1 nor a prime"),
    (("hull", "--kind", "p_div", "--level", "1", "--p", "3"),
     {"p_closed": [0], "prime": 4}, "prime 4 is neither 1 nor a prime"),
    # construct used to drop an option its example does not take
    (("construct", "--example", "lemma33", "--p", "3", "--depth", "7",
      "--padic-cap", "9"), {}, "--depth does not apply to --example lemma33"),
    (("construct", "--example", "two-ext", "--p", "3", "--depth", "2"), {},
     "--depth does not apply to --example two-ext"),
    (("construct", "--example", "compose-desc", "--p", "3", "--depth", "2"),
     {}, "--depth does not apply to --example compose-desc"),
    (("construct", "--example", "as-valgp", "--p", "3", "--padic-cap", "9"),
     {}, "--padic-cap does not apply to --example as-valgp"),
    (("construct", "--example", "compose-desc", "--p", "3", "--padic-cap",
      "9"), {}, "--padic-cap does not apply to --example compose-desc"),
    # a cap below 1 used to exit 2 as if a cap had run out
    (("construct", "--example", "kummer-valgp", "--p", "3", "--padic-cap",
      "0"), {}, "--padic-cap must be at least 1, got 0"),
    (("construct", "--example", "kummer-valgp", "--p", "3", "--padic-cap",
      "-5"), {}, "--padic-cap must be at least 1, got -5"),
    # an --out that cannot be opened used to raise from the writability check
    (("construct", "--example", "lemma33", "--p", "3", "--out",
      "/nonexistent/x.json"), {}, "cannot write --out '/nonexistent/x.json'"),
    (("construct", "--example", "lemma33", "--p", "3", "--out", "/tmp"), {},
     "cannot write --out '/tmp'"),
    (("classify", "--audit", "--out", "/nonexistent/x.json"), {},
     "cannot write --out '/nonexistent/x.json'"),
], ids=["hull-negative-level", "hull-exact-prime-to-p", "hull-p1",
        "hull-composite-p", "compose-desc-p1", "hull-float-rational",
        "descriptor-no-char", "descriptor-no-residue-field",
        "descriptor-unknown-residue-kind", "descriptor-float-rational",
        "descriptor-int-name", "descriptor-list-name", "descriptor-dict-name",
        "descriptor-null-name", "descriptor-int-note",
        "descriptor-residue-q-10", "descriptor-residue-q-negative",
        "descriptor-residue-q-1", "descriptor-residue-char-composite",
        "hull-p-closed-out-of-range", "hull-group-prime-0",
        "hull-group-prime-negative", "hull-group-prime-composite",
        "construct-depth-on-lemma33", "construct-depth-on-two-ext",
        "construct-depth-on-compose-desc", "construct-cap-on-as-valgp",
        "construct-cap-on-compose-desc", "construct-cap-zero",
        "construct-cap-negative", "construct-out-missing-dir",
        "construct-out-directory", "classify-out-missing-dir"])
def test_bad_input_exits_one_without_traceback(tmp_path, args, patch, needle):
    # hull reads a rank-1 group file and classify reads laurent-f3, each
    # with the keys in `patch` dropped (None) or replaced (_NULL by null)
    inputs = {"hull": ("--group", {"rank": 1, "gens": [[1, 1]],
                                   "p_closed": [], "prime": 1}),
              "classify": ("--descriptor",
                           corpus_member("laurent-f3").to_json())}
    if args[0] in inputs:
        flag, data = inputs[args[0]]
        for key, value in patch.items():
            if value is None:
                del data[key]
            else:
                data[key] = None if value is _NULL else value
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        args += (flag, str(path))
    res = run(*args)
    assert res.returncode == 1
    assert res.stderr.startswith("error: ")
    assert needle in res.stderr
    assert "Traceback" not in res.stderr


# sha256 of the JSON printed by `vallab classify`, recorded before the
# value-group layer was consolidated; evidence strings must not move
CLASSIFY_DIGESTS = {
    "laurent-f3": "14d79c3696fbc5050bdb487dd010b2c3da06295f0180e2f6826e2f12c1d15a04",
    "laurent-f2u": "43ef1808b8743c3a92c3b28cbbe870ab35917addec55e9524f563d7ac8f608b8",
    "hahn-f3-perfected": "e15232f966cfeb65f44b6765ea4e76dc25166123c4f3eaeac5c23f1e2dfa057e",
    "hahn-f3u": "6db635163e64813b0c7e9dca8f8b2f6bed28a1359157386472a8a815dba00308",
    "ratfun-f2-t": "e64ff7ea19fb37994ea2c3e27f3e97fd8e39cf450cc32050463fa69f908051a7",
    "laurent-q": "560b10c0d98810148a985324e46a8bd340eccf24b4e290704a54cdddc7582d1e",
    "q2": "1f6a1a3c69b8ead6b0b781a7fe711af1fc036836eeb1e78ee66ba691e97d451c",
    "q3-zeta3": "0367af6702234eeea57b1ca256b3102b4d38c65cecb239e389179dec0bbe3d87",
    "q3-deep": "117ca7d58a8a1886dc6cba2bb98f9630ce79d8b96f88f6815f3ed93c11ea19b5",
    "tame-core-abstract": "bd74db6803400e369c0b3d53d4d7bedd4451059ae0ba1218048119220c3df901",
    "composed-counterexample": "8bdca487423e68222fcd36403e1371e5f77cd0ac880e4b783b8b365149ecbbb3",
    "composed-discrete-core": "15f4adf1eef4d2b482dd3c47a03e83e4860ffb6d01621af513648f347dd4bab2",
    "--audit": "5be7196c88107213459a17fa6aa9cb499e1401307c5d9bae7cf11c9df8b469d0",
}


def test_classify_output_bytes_are_pinned(capsys):
    assert sorted(CLASSIFY_DIGESTS) == sorted(corpus_names() + ["--audit"])
    for name, digest in CLASSIFY_DIGESTS.items():
        argv = ["classify", "--audit"] if name == "--audit" \
            else ["classify", "--descriptor", name]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def _oversized_input(case):
    """The input file text of each case of the test below."""
    if case == "descriptor-5000-digits":
        data = corpus_member("q2").to_json()
        data["value_group"]["gens"] = [["N", 1]]
        return json.dumps(data).replace('"N"', "7" * 5000)
    if case == "classify-computed-5001-digits":
        # every input integer has 2,501 digits, but the convex core's
        # leading-coordinate image <1/(N1*N2)> printed in the rdr_2
        # evidence has a 5,001-digit denominator
        data = corpus_member("q2").to_json()
        data["value_group"] = {"rank": 2, "p_closed": [], "prime": 1,
                               "gens": [[[1, 1], [0, 1]], [[0, 1], [1, "A"]],
                                        [[0, 1], [1, "B"]]]}
        data["vp"] = [[0, 1], [1, "A"]]
        return json.dumps(data).replace('"A"', str(10 ** 2500 + 1)) \
            .replace('"B"', str(10 ** 2500 + 3))
    if case == "hull-generator-past-limit":
        # the scale 3^1000 is short; the hull's denominator is not
        return json.dumps({"rank": 1, "gens": [[1, "D"]], "p_closed": [],
                           "prime": 1}).replace('"D"', str(10 ** 4000 + 1))
    return json.dumps({"rank": 1, "gens": [[1, 2]], "p_closed": [],
                       "prime": 1})


@pytest.mark.parametrize("case,args", [pytest.param(case, args, id=case)
                                       for case, args in [
    ("descriptor-5000-digits", ("classify", "--descriptor")),
    ("classify-computed-5001-digits", ("classify", "--descriptor")),
    ("hull-p-div-level-10000",
     ("hull", "--kind", "p_div", "--level", "10000", "--p", "3", "--group")),
    ("hull-p-prime-div-level-12000",
     ("hull", "--kind", "p_prime_div", "--level", "12000", "--p", "3",
      "--group")),
    ("hull-p-prime-div-level-1e8",
     ("hull", "--kind", "p_prime_div", "--level", "100000000", "--p", "3",
      "--group")),
    ("hull-generator-past-limit",
     ("hull", "--kind", "p_div", "--level", "1000", "--p", "3", "--group")),
]])
@pytest.mark.skipif(not sys.get_int_max_str_digits(),
                    reason="the interpreter converts integers of any length")
def test_oversized_integers_exit_one_without_traceback(tmp_path, case, args):
    # the default limit on converting an integer to or from text is 4300
    # digits: a longer numerator in a descriptor used to end in a
    # traceback from the JSON reader, a computed value past it in one from
    # the JSON writer or from str() in the evidence, and the prime-to-p
    # scale at level 10^8 was built in full
    path = tmp_path / "input.json"
    path.write_text(_oversized_input(case))
    res = subprocess.run(BASE + list(args) + [str(path)], capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith("error: ")
    assert "digits" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.skipif(not sys.get_int_max_str_digits(),
                    reason="the interpreter converts integers of any length")
def test_perfection_level_past_the_digit_limit_exits_one_at_once(tmp_path,
                                                                 capsys):
    # F_3(u^(1/3^level)) prints 3^level: at level 10^7 that power took
    # seconds to build before its text was refused; now the level is
    # refused before the power is built
    data = corpus_member("laurent-f3").to_json()
    data["residue_field"] = {"char": 3, "kind": "perflevel", "level": 10 ** 9}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["classify", "--descriptor", str(path)]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == ("error: perfection level 1000000000 needs an integer of "
                   "more than %d digits, the limit for converting one to text "
                   "(sys.get_int_max_str_digits())\n"
                   % sys.get_int_max_str_digits())


@pytest.mark.parametrize("char", [10 ** 14 + 31, 2 ** 61 - 1])
def test_classify_at_a_large_prime_characteristic_is_quick(tmp_path, char):
    # trial division to the square root took 2.6 s at 10^14 + 31 and
    # minutes near 10^18
    data = corpus_member("laurent-f2u").to_json()
    data["char"] = data["res_char"] = data["residue_field"]["char"] = char
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["classify", "--descriptor", str(path)]) == 0
    assert time.perf_counter() - start < 1


def test_classify_past_the_primality_bound_exits_one(tmp_path, capsys):
    data = corpus_member("laurent-f2u").to_json()
    data["char"] = data["res_char"] = data["residue_field"]["char"] = \
        2 ** 89 - 1
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main(["classify", "--descriptor", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: primality is decided only below 3317044064679887385961981\n")


# sha256 of the JSON printed by `vallab classify` for 30 seeded
# mixed-characteristic descriptors (helpers.seeded_mixed_descriptor),
# recorded before the value-group layer's elimination became fraction-free,
# seeds 0, 4, 8, 13 and 24 again once the divisible basis became an
# echelon form; their convex-part evidence prints the canonical basis
SEEDED_CLASSIFY_DIGESTS = [
    "9c865ded49584476779c9f73fa24401cd79b4688dc25589a0ebd0d2081851bcc",
    "d989a1c3d0cf681f16aff0c9ef1b3b18b0903781ba6bf3756f98b2209c1d0575",
    "03857ed7d6ba587931c0eab1c6932f69d41dd54c408d185c3b7d40cef4450369",
    "b0a9bdd39a1243a9b51a7d8d1aba195520bc1007a7408c7953c97cd6633cfd62",
    "c62903066cf9b78e310ffcdf225a6a2c5452579bdd7625b43e4a1a8c410af1bb",
    "8e97ce840152da12b4fcff04eda15032b8559531313e66238390c660c337e214",
    "9ecc014acb89325b0fde472b8dc1b95063b4218ac002f2bd1a943b01e415f656",
    "d2aa16057e4fdb5460fb972dce49cc82ecd242d3def77b1afdb016c56829f184",
    "a6a2a9dd4e1298d427c531284bdec8576e5517d3ed6d302fe264086368fe1a5b",
    "3259a4e0993039a3016b90c3246ed9ff08ed36a70004e819dfa2d8ea30043b1e",
    "91e52704500ed33b0ffab962dbb81d6ae86ed7ae270047b7e5019d9be72cd622",
    "9b9bce1eb075eed1d3fb462fb8c960e453b7c591de8238f66bb13bdbd8493445",
    "77e94b0ffcb15202aa44e34cea06c173fbb4110ca7a7deb4e6e881e05ed917ce",
    "514e9f7f1f907bb97940fd63eb89e819afb7a058cfe9dff383d0500e05b44d9c",
    "f2f399d72f1167991bb085ff81911638cc0975b3a27cad11c9f43ed010587bd7",
    "896cd126f020bca3dce9d08abd4083d0a4ee6c32d7d11c3b4d1658cd4300e3ce",
    "3c380957a8b8634d8647773af075cdc1a89d975a9aac940f58c2dd462030f671",
    "3d7e5638d8d71352b767b96c8c1a5ab64ec9249019ee91fb8ea99c1602bdd762",
    "0f4a0cf7bb29fdd8c5cf9f854828b1bbc611dd2b0434855bd2df2a7a144248fd",
    "2484dede3a12f04439f0cca8d945f20f4fc9d888d3436ebe7356b7d49a943dca",
    "77495cbc7fe809521c9ff5353845e9f019808afe0b943b02055adae38a49979b",
    "35024c95d4156f3965c4372f9585c7c9418458fa019da71edb92030822d12e05",
    "4c042a5681e56b3bdbff9efff95ae138123ae25e3ae21965b21981cfaf7e0249",
    "20a59abda606a00a14aa85c952555eb2b4a5c1ea44e0c9076777590f159400aa",
    "72363fb5cb9e1b6f6d28599f580a4cb0c106f125fbe5a927926abc97b7961566",
    "cf2477a3f005cb3db1e9532186b24dad7e1f3cf4f8b384c307ba607a05d58c1d",
    "83bd7e5420f9bca8c4a6f7abf954b84de9a40a7cc6c38b9886cd27852b0d167d",
    "6adf17dc2310dd5f6efece0d1ea2e5b5e4602268936ca676f03dd06155e3a59c",
    "4aa03b661f4600192f2a207aeb4fff0040df52955259e576245163d2e3879ecf",
    "8d79804e4d9aadc7864a11b03b60925ed8a6d0b0e1522542fc58b00b1df3b6fb",
]


def test_seeded_classify_output_bytes_are_pinned(tmp_path, capsys):
    path = tmp_path / "descriptor.json"
    for seed, digest in enumerate(SEEDED_CLASSIFY_DIGESTS):
        path.write_text(json.dumps(seeded_mixed_descriptor(seed)))
        assert main(["classify", "--descriptor", str(path)]) == 0
        out = capsys.readouterr().out
        assert "convex" in out, seed
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed


# the convex parts those five seeds printed before the divisible basis
# became an echelon form
EARLIER_CONVEX_PARTS = {
    0: "<(2, -1/3)/3^inf; (1/3, 0)/3^inf>",
    4: "<(19, -1/6)/2^inf; (1/2, 0)/2^inf>",
    8: "<(1, -3/2)/2^inf; (0, 4)>",
    13: "<(1/3, -2/3)/3^inf; (0, 5/3)/3^inf>",
    24: "<(7/5, 4)/5^inf; (9/5, -9)>",
}


def _group_from_text(text):
    """The group a rank >= 2 OGroup's text names."""
    gens, closed, prime = [], [], 1
    for i, m in enumerate(re.finditer(r"\(([^)]*)\)(?:/(\d+)\^inf)?", text)):
        gens.append(tuple(Fraction(c) for c in m.group(1).split(", ")))
        if m.group(2):
            closed.append(i)
            prime = int(m.group(2))
    return ogroup(gens, closed=closed, prime=prime)


def test_seeded_convex_parts_name_the_groups_printed_before(tmp_path,
                                                             capsys):
    # the echelon form prints another basis of the same group: each
    # contains the other, with index 1, by the coordinate map on the
    # diagonal basis the library used before
    path = tmp_path / "descriptor.json"
    for seed, before in EARLIER_CONVEX_PARTS.items():
        path.write_text(json.dumps(seeded_mixed_descriptor(seed)))
        assert main(["classify", "--descriptor", str(path)]) == 0
        now = re.search(r"convex part (<[^>]*>)",
                        capsys.readouterr().out).group(1)
        a, b = _group_from_text(before), _group_from_text(now)
        assert now != before and len(b.gens) == 2, seed
        assert index_by_elimination(a, b) == 1 == index_by_elimination(b, a)


# sha256 of the certificate JSON printed by `vallab construct`, recorded
# before witness residues were read off their deciding monomial: every
# family at p in {2, 3, 5, 7}, kummer-valgp at cap 4p and the largest builds
CONSTRUCT_DIGESTS = {
    "--example as-valgp --p 2":
        "38f223d0db71840a2d211f07060fa4800b4df230df1c6765edddf1ee80545884",
    "--example lemma33 --p 2":
        "8b6089b3c08edb76e0429cbc6c1fea6ba8a579606d11391c334074c1da9977cb",
    "--example as-resf --p 2":
        "d1c03b8ddd93c7b1c78b163bbd38deea042af025b829fe3f0845af1288d789b8",
    "--example kummer-valgp --p 2":
        "b3d71b7878b209d24a2c3963b2c73d5ea22582120c2ef6c6ae3a1478e0a673c9",
    "--example two-ext --p 2":
        "62afa92b525f04b9fe45e86608ad62c1ac5878393e8f426d5c7d156480914fa8",
    "--example kummer-resf --p 2":
        "60198b48fa77dae4a9be8235791316042a3350f82ac53ac37340228528f44049",
    "--example compose-desc --p 2":
        "85e4a84ef95b3ed7570d78c37f06638481577d2682191426b6f026310d7e0e6c",
    "--example as-valgp --p 3":
        "98773eb8b5fadcaadb0fe70fba4d300a8a6c413166d252fd4ebc716e239dcc6e",
    "--example lemma33 --p 3":
        "ea834fec0d480cfd2dafcf84fffdc6ea30ed18b28b9e17a473d11c43e53f39c2",
    "--example as-resf --p 3":
        "6ee305a3afd292569e65cc5fd63ef6d400c116140a533953298d86fc6eb2b507",
    "--example kummer-valgp --p 3":
        "5974fe3dd2b6b2bf6e286dd51eab8465a7fcd43f476b9cd05042c5bc8d867d56",
    "--example two-ext --p 3":
        "16f4fd98336d17fb2c032fd2b49e81314bc8c8aebc0902335ea5fe79a0ea1960",
    "--example kummer-resf --p 3":
        "769a3031f415269c9b496bd714442855efdf454ae975cdfe180535f798219d1f",
    "--example compose-desc --p 3":
        "ad82b47ec5d050b82a3474efd96b54e2eba0612fb86f413297cba3b8281a5bf4",
    "--example as-valgp --p 5":
        "8ecf95d80ca4e3946be434541541898d1146464948983c078ddc11c5d4d31fda",
    "--example lemma33 --p 5":
        "0a6949191cfd41fd4c53b787f8eeadff683ec228403214ae1c9cd279dec91f2b",
    "--example as-resf --p 5":
        "cda0edb7bbda7486b7f2d645e0a12ebbd8736f896f4cd4beb82fac14c08019ad",
    "--example kummer-valgp --p 5":
        "a914967b3248df5af9af719aa70997c771a9ab3dc365268400236726f2d47378",
    "--example two-ext --p 5":
        "c83196f3119531434f16c819864501591d2939c9d8eb4d221ed9077a166d356f",
    "--example kummer-resf --p 5":
        "a15fad0974a49c7aa5df3b01564f914af5acf7b4bb5bffcc2cf3b0eb38db2b29",
    "--example compose-desc --p 5":
        "f7f4e7c497a350cc2ab7eb608fdd939e3b1a8def1791b0266d0a21e27caae873",
    "--example as-valgp --p 7":
        "b3db0efd175576d77953baf5348d8a482245ac255e8cf6e118ec034933b3df42",
    "--example lemma33 --p 7":
        "0c81c32396afffc0a9ee65b68a078681c2ff36665c095b76197bfcf51c23e940",
    "--example as-resf --p 7":
        "0b3202d3e1d298bb6718b4c55c149cf31f2131eeb2205262bbd3f8d44fbcf14d",
    "--example kummer-valgp --p 7":
        "933c331f6bb8a2a49b92fbef8523b3b61755d9ed1c294bb7b282969677d11096",
    "--example two-ext --p 7":
        "0a9e9c614db22a289ef2276b0f9e31f952705c744bbc298831127bcbbe1537bc",
    "--example kummer-resf --p 7":
        "40e44307a43b30e4e3a5db0fc086a1a3095b4a25a59c4356a2642f6aba085eb2",
    "--example compose-desc --p 7":
        "397ee76350a3a7506597d9495d9ed02b81ae9bae37ad257598d03a8255ed8658",
    "--example kummer-valgp --p 2 --padic-cap 8":
        "b8aaa64c6f1315a2044d174ff433acd7700111a9837efef320a3c2b358ce97ec",
    "--example kummer-valgp --p 3 --padic-cap 12":
        "d5f9cd670b73b304f1c5b5648041082e0973b34580c0285942328a3bcd46afa3",
    "--example kummer-valgp --p 5 --padic-cap 20":
        "431fda6627d0ba9ef5dadb13b7635233e4a9442dd47f1a1a63d6d43febe92739",
    "--example kummer-valgp --p 7 --padic-cap 28":
        "65bc64177880726a89b9d31df6bef248d9a1617dbc68aa739c88139f5586fe53",
    "--example kummer-valgp --p 11 --depth 2 --padic-cap 88":
        "8aa4ba9838f19abb1733ae66bea7d2320fec1fd822f894b659158040ec253820",
    "--example as-valgp --p 3 --depth 12":
        "8d9d5fecf925b77683047db48ab3e61f1156c3a90097df5e4e685c139c751c5c",
    "--example kummer-resf --p 5 --depth 3":
        "41c7f4f0bff5c113ad819ebc218a101918b1ef8e806bb49a745bc207351e4766",
}


def test_construct_output_bytes_are_pinned(capsys):
    families = {argv.split()[1] for argv in CONSTRUCT_DIGESTS}
    assert families == set(BUILDERS) | {"compose-desc"}
    for argv, digest in CONSTRUCT_DIGESTS.items():
        assert main(["construct"] + argv.split() + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# sha256 of the report printed by `vallab verify --suite all`, recorded
# once the ogroup suite checked the indices of p-divisible subgroups
VERIFY_DIGESTS = {
    0: "eaafa4c8190e3ab805160f8d7d2654d3cdaceffdb62bf88578debbf0375a8958",
    1: "a52ce4f7bbb9bee7b262e098cc6504db73dbab5609dde8ddf1787c631ee9b680",
    2: "98da0cf147363d78e99660ad8873963ed98c21262d6b76ad3d5f50f832c4d135",
    3: "1910b5ea0ae59bf56664b1b7f688add931e6f1c5bb759b0c4d23846a8daad012",
}


def test_verify_output_bytes_are_pinned(capsys):
    for seed, digest in VERIFY_DIGESTS.items():
        assert main(["verify", "--suite", "all", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed
