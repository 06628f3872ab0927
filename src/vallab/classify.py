"""Field-class verdicts for symbolic valued-field descriptors.

A FieldDescriptor records what is known about a valued field: the
characteristics, the value group, the value of p, the residue field
(concrete or abstract) and oracle flags for the properties that cannot
be decided from this data alone.  check() evaluates the tame, roughly
tame, semitame and rdr conditions and returns a ClassReport whose
verdicts are "true", "false" or "unknown", each backed by an evidence
string naming the computation, oracle flag or derivation behind it.
"""

from dataclasses import dataclass, field

from .errors import ValidationError, json_get, json_keys, printable_power
from .intlinalg import is_prime
from .ogroup import (ConvexPart, OGroup, _coerce_vec, _lex_positive,
                     contains, convex_core, cyclic, is_p_divisible,
                     lex_compose, project, project_trailing, same_group)
from .ogroup import from_json as group_from_json
from .ogroup import to_json as group_to_json
from .ogroup import vec_from_json, vec_to_json
from .resfield import ResField, resfield_from_json

TRUE = "true"
FALSE = "false"
UNKNOWN = "unknown"

FLAG_NAMES = (
    "henselian",
    "defectless",
    "frobenius_surjective_on_completion_mod_p",
    "independent_defect",
    "tame",
)

VERDICT_KEYS = ("TF1", "TF2", "TF3", "tame", "RTF1", "RTF2", "RTF3",
                "roughly_tame", "semitame", "rdr_1", "rdr_2", "rdr")


def tv(flag) -> str:
    """Three-valued verdict from an oracle flag (None = unknown)."""
    if flag is True:
        return TRUE
    if flag is False:
        return FALSE
    if flag is None:
        return UNKNOWN
    raise ValidationError("oracle flag must be True, False or None, got %r"
                          % (flag,))


def and3(*vals: str) -> str:
    if FALSE in vals:
        return FALSE
    if UNKNOWN in vals:
        return UNKNOWN
    return TRUE


@dataclass(frozen=True)
class AbstractResidue:
    """A residue field known only through its perfectness flag."""

    perfect: bool

    def to_json(self) -> dict:
        return {"kind": "abstract", "perfect": self.perfect}


def _residue_from_json(d: dict):
    if json_get(d, "kind", "residue field") == "abstract":
        json_keys(d, "residue field", ("kind", "perfect"))
        return AbstractResidue(json_get(d, "perfect", "residue field", bool))
    return resfield_from_json(d)


def _residue_text(rf: ResField) -> str:
    if rf.kind == "finite":
        return "F_%d" % rf.q
    if rf.kind == "ratfun":
        return "F_%d(u)" % rf.char
    return "F_%d(u^(1/%d))" % (rf.char, printable_power(
        rf.char, rf.level, "perfection level %d" % rf.level))


@dataclass
class FieldDescriptor:
    """Symbolic description of a valued field.

    vp is the value of the rational prime p = res_char; it is None in
    equal characteristic (where v(p) = v(0) is infinite) and in residue
    characteristic 0.  composition, when present, is the pair (outer,
    core) splitting the valuation into a residue-characteristic-0 head
    and the induced valuation on its residue field.
    """

    name: str
    char: int
    res_char: int
    value_group: OGroup
    vp: object = None
    residue_field: object = None
    oracle_flags: dict = field(default_factory=dict)
    composition: object = None
    note: str = ""

    def __post_init__(self):
        if self.char != 0 and not is_prime(self.char):
            raise ValidationError("char must be 0 or a prime")
        if self.res_char != 0 and not is_prime(self.res_char):
            raise ValidationError("res_char must be 0 or a prime")
        if self.char > 0 and self.res_char != self.char:
            raise ValidationError(
                "positive characteristic forces res_char = char")
        if not isinstance(self.residue_field, (ResField, AbstractResidue)):
            raise ValidationError("residue_field must be a ResField or an "
                                  "AbstractResidue")
        if isinstance(self.residue_field, ResField):
            if self.res_char != self.residue_field.char:
                raise ValidationError("residue field characteristic %d does "
                                      "not match res_char %d"
                                      % (self.residue_field.char,
                                         self.res_char))
        flags = dict(self.oracle_flags)
        for k in flags:
            if k not in FLAG_NAMES:
                raise ValidationError("unknown oracle flag %r" % (k,))
            # by type, not ==, which would let 0, 1 and 1.0 through
            if not isinstance(flags[k], (bool, type(None))):
                raise ValidationError("oracle flag %r must be True, False or "
                                      "None" % (k,))
        for k in FLAG_NAMES:
            flags.setdefault(k, None)
        self.oracle_flags = flags
        if self.char == 0 and self.res_char > 0:
            if self.vp is None:
                raise ValidationError("mixed characteristic needs vp")
            vec = _coerce_vec(self.vp, self.value_group.rank)
            self.vp = vec
            if not contains(self.value_group, vec):
                raise ValidationError("vp must lie in the value group")
            if not _lex_positive(vec):
                raise ValidationError("vp must be positive")
        elif self.vp is not None:
            raise ValidationError("vp only applies when char = 0 and "
                                  "res_char = p > 0")
        if self.composition is not None:
            self._check_composition()

    def _check_composition(self):
        try:
            outer, core = self.composition
        except (TypeError, ValueError):
            raise ValidationError("composition must be a pair (outer, core)")
        if not isinstance(outer, FieldDescriptor) or \
                not isinstance(core, FieldDescriptor):
            raise ValidationError("composition parts must be descriptors")
        self.composition = (outer, core)
        if outer.res_char != 0:
            raise ValidationError("the outer part of a composition must have "
                                  "residue characteristic 0")
        if self.char != 0 or outer.char != 0 or core.char != 0:
            raise ValidationError("composed descriptors live in "
                                  "characteristic 0")
        if self.res_char != core.res_char:
            raise ValidationError("res_char must match the core's")
        if self.residue_field != core.residue_field:
            raise ValidationError("a composed descriptor has the core's "
                                  "residue field")
        expected = lex_compose(outer.value_group, core.value_group)
        if expected.rank != self.value_group.rank or \
                not same_group(self.value_group, expected):
            raise ValidationError("value group is not the lexicographic "
                                  "composition of the parts")
        if core.res_char > 0:
            head = self.vp[:outer.value_group.rank]
            tail = self.vp[outer.value_group.rank:]
            if any(c != 0 for c in head):
                raise ValidationError("vp must vanish on the outer "
                                      "coordinates")
            if tail != _coerce_vec(core.vp, core.value_group.rank):
                raise ValidationError("vp must restrict to the core's vp")

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "schema": 1,
            "name": self.name,
            "char": self.char,
            "res_char": self.res_char,
            "value_group": group_to_json(self.value_group),
            "vp": None if self.vp is None else vec_to_json(self.vp),
            "residue_field": self.residue_field.to_json(),
            "oracle_flags": dict(self.oracle_flags),
            "note": self.note,
        }
        if self.composition is not None:
            outer, core = self.composition
            out["composition"] = {"outer": outer.to_json(),
                                  "core": core.to_json()}
        return out


def descriptor_from_json(d: dict) -> FieldDescriptor:
    """A descriptor from to_json's form; a schema violation is a ValidationError."""
    what = "descriptor"
    json_keys(d, what, ("schema", "name", "char", "res_char", "value_group",
                        "vp", "residue_field", "oracle_flags", "composition",
                        "note"))
    schema = json_get(d, "schema", what, int, 1)
    if schema != 1:
        raise ValidationError("descriptor schema %d is not supported; this "
                              "reader knows schema 1" % schema)
    group = group_from_json(json_get(d, "value_group", what))
    vp = json_get(d, "vp", what, default=None)
    if vp is not None:
        vp = vec_from_json(vp, "descriptor vp")
    comp = json_get(d, "composition", what, dict, None)
    if comp is not None:
        json_keys(comp, "composition", ("outer", "core"))
        comp = tuple(descriptor_from_json(json_get(comp, k, "composition"))
                     for k in ("outer", "core"))
    return FieldDescriptor(
        name=json_get(d, "name", what, str, "descriptor"),
        char=json_get(d, "char", what, int),
        res_char=json_get(d, "res_char", what, int),
        value_group=group,
        vp=vp,
        residue_field=_residue_from_json(json_get(d, "residue_field", what)),
        oracle_flags=dict(json_get(d, "oracle_flags", what, dict, {})),
        composition=comp,
        note=json_get(d, "note", what, str, ""),
    )


@dataclass
class ClassReport:
    name: str
    verdicts: dict
    evidence: dict

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "descriptor": self.name,
            "verdicts": {k: self.verdicts[k] for k in VERDICT_KEYS},
            "evidence": {k: self.evidence[k] for k in VERDICT_KEYS},
        }


# ---------------------------------------------------------------------------
# the class checks


def _vp_not_smallest(part: ConvexPart, vec):
    """Decide whether some group element lies strictly between 0 and vp.

    Everything below vp lives in the convex core of vp (part), so project
    that core onto its own coordinates; a nonzero part below the leading
    coordinate settles it, otherwise compare the leading-coordinate
    image with the cyclic group on vp's leading entry.
    """
    ell = part.cut_index
    tail = project(part.group, ell, part.group.rank)
    if tail.rank >= 2:
        deeper = project_trailing(tail, 1)
        if not deeper.is_trivial():
            return True, ("a positive element below the leading coordinate "
                          "of v(p): convex part %s" % deeper)
    q = vec[ell]
    head = project(tail, 0, 1)
    if same_group(head, cyclic(q)):
        return False, ("the convex core of v(p) maps onto <%s> with v(p) "
                       "minimal positive" % q)
    return True, ("the leading-coordinate image %s of the convex core is "
                  "strictly finer than <%s>" % (head, q))


def check(d: FieldDescriptor) -> ClassReport:
    """Evaluate TF1-TF3, RTF1-RTF3, tame, roughly tame, semitame, rdr."""
    v, ev = {}, {}
    p = d.res_char
    flags = d.oracle_flags

    # residue perfectness (TF2 = RTF2)
    if isinstance(d.residue_field, ResField):
        perfect = d.residue_field.is_perfect()
        v["TF2"] = tv(perfect)
        ev["TF2"] = "computed: residue field %s is %s" % (
            _residue_text(d.residue_field),
            "perfect" if perfect else "imperfect")
    else:
        v["TF2"] = tv(d.residue_field.perfect)
        ev["TF2"] = "oracle: abstract residue field declared %s" % (
            "perfect" if d.residue_field.perfect else "imperfect")

    v["TF3"] = tv(flags["defectless"])
    ev["TF3"] = "oracle: defectless flag = %s" % flags["defectless"]

    frob = flags["frobenius_surjective_on_completion_mod_p"]
    v["rdr_1"] = tv(frob)
    ev["rdr_1"] = "oracle: frobenius flag = %s" % frob

    if p == 0:
        v["TF1"] = TRUE
        ev["TF1"] = ("derived: residue characteristic 0, there is no prime "
                     "to divide by")
        v["RTF1"] = TRUE
        ev["RTF1"] = ev["TF1"]
        v["rdr_2"] = TRUE
        ev["rdr_2"] = ("derived: vacuous in residue characteristic 0")
        v["semitame"] = TRUE
        v["rdr"] = TRUE
        ev["semitame"] = ev["rdr"] = (
            "derived: every nontrivially valued field of residue "
            "characteristic 0 is semitame and rdr")
    else:
        r = is_p_divisible(d.value_group, p)
        v["TF1"] = tv(r)
        ev["TF1"] = "computed: %s %s %d-divisible" % (
            d.value_group, "is" if r else "is not", p)
        if d.char == p:
            v["RTF1"] = v["TF1"]
            ev["RTF1"] = ("computed: equal characteristic, the convex core "
                          "is the whole group; %s %s %d-divisible" % (
                              d.value_group,
                              "is" if r else "is not", p))
        else:
            part = convex_core(d.value_group, d.vp)
            rr = is_p_divisible(part.group, p)
            v["RTF1"] = tv(rr)
            ev["RTF1"] = ("computed: convex core of v(p) (cut %d) %s "
                          "%d-divisible" % (part.cut_index,
                                            "is" if rr else "is not", p))
        if d.char == p:
            v["rdr_2"] = TRUE
            ev["rdr_2"] = ("derived: v(p) is infinite in equal "
                           "characteristic, so it is not the smallest "
                           "positive element")
        else:
            hit, why = _vp_not_smallest(part, d.vp)
            v["rdr_2"] = tv(hit)
            ev["rdr_2"] = "computed: " + why
        v["semitame"] = and3(v["rdr_1"], v["TF1"])
        ev["semitame"] = "derived: rdr_1=%s and TF1=%s" % (v["rdr_1"],
                                                           v["TF1"])
        v["rdr"] = and3(v["rdr_1"], v["rdr_2"])
        ev["rdr"] = "derived: rdr_1=%s and rdr_2=%s" % (v["rdr_1"],
                                                        v["rdr_2"])

    v["RTF2"] = v["TF2"]
    ev["RTF2"] = ev["TF2"]
    v["RTF3"] = v["TF3"]
    ev["RTF3"] = ev["TF3"]

    hen = flags["henselian"]
    for key, parts in (("tame", ("TF1", "TF2", "TF3")),
                       ("roughly_tame", ("RTF1", "RTF2", "RTF3"))):
        if hen is False:
            v[key] = FALSE
            ev[key] = ("not applicable: %s is defined for henselian fields "
                       "and the henselian flag is false" % key)
        elif hen is None:
            v[key] = UNKNOWN
            ev[key] = "oracle: henselian flag unknown"
        else:
            v[key] = and3(*(v[k] for k in parts))
            ev[key] = "derived: %s under the henselian oracle" % \
                " and ".join("%s=%s" % (k, v[k]) for k in parts)

    return ClassReport(name=d.name, verdicts=v, evidence=ev)


IMPLICATIONS = (
    ("tame implies semitame", ("tame",), "semitame"),
    ("semitame and roughly_tame imply tame", ("semitame", "roughly_tame"),
     "tame"),
    ("roughly_tame implies rdr", ("roughly_tame",), "rdr"),
    ("tame implies roughly_tame", ("tame",), "roughly_tame"),
)


def audit_implications(corpus) -> dict:
    """Check the class implications over a corpus of descriptors.

    Members with an unknown verdict among the audited keys are skipped
    with a notice; the returned report lists violations (expected none)
    and, for equal characteristic, enforces roughly_tame = tame.
    """
    violations, notices, reports = [], [], []
    for d in corpus:
        rep = check(d)
        reports.append(rep)
        v = rep.verdicts
        audited = ("tame", "roughly_tame", "semitame", "rdr")
        if any(v[k] == UNKNOWN for k in audited):
            hazy = [k for k in audited if v[k] == UNKNOWN]
            notices.append("%s: skipped (unknown: %s)"
                           % (d.name, ", ".join(hazy)))
            continue
        for label, premises, conclusion in IMPLICATIONS:
            if all(v[k] == TRUE for k in premises) and \
                    v[conclusion] != TRUE:
                violations.append({"descriptor": d.name,
                                   "implication": label})
        if d.char > 0 and d.char == d.res_char and \
                v["roughly_tame"] != v["tame"]:
            violations.append({"descriptor": d.name,
                               "implication":
                               "equal characteristic: roughly_tame iff tame"})
    return {
        "schema": 1,
        "checked": len(corpus),
        "violations": violations,
        "notices": notices,
        "verdicts": {r.name: dict(r.verdicts) for r in reports},
    }


# ---------------------------------------------------------------------------
# the composed counterexample


def compose_xadic(core: FieldDescriptor, name: str, note: str,
                  head_note: str) -> FieldDescriptor:
    """Compose an x-adic rank-1 head over core.

    Describes the henselization of core(x) under the x-adic valuation
    composed with the core valuation: the value group picks up a
    lexicographic Z in front, the residue field stays the core's.  The
    head is henselian of residue characteristic 0, so henselian and
    defectless transfer from the core, and the power map mod p only sees
    the core's coefficients; the leading Z factor destroys p-divisibility
    of the whole group without touching the convex core of v(p).
    """
    head = FieldDescriptor(
        name=core.name + "-xadic-head", char=0, res_char=0,
        value_group=cyclic(1), residue_field=AbstractResidue(perfect=True),
        oracle_flags=dict.fromkeys(FLAG_NAMES, True), note=head_note)
    frob = "frobenius_surjective_on_completion_mod_p"
    flags = dict(head.oracle_flags, tame=core.res_char == 0)
    flags[frob] = core.oracle_flags[frob]
    return FieldDescriptor(
        name=name, char=0, res_char=core.res_char,
        value_group=lex_compose(head.value_group, core.value_group),
        vp=None if core.vp is None else (0,) + core.vp,
        residue_field=core.residue_field, oracle_flags=flags,
        composition=(head, core), note=note)


def build_counterexample_descriptor(core: FieldDescriptor) -> FieldDescriptor:
    """compose_xadic over a core flagged tame, henselian and defectless
    (not False), of characteristic 0: roughly tame, and tame only in
    residue characteristic 0."""
    if core.oracle_flags["tame"] is not True:
        raise ValidationError("core must be flagged tame")
    if core.char != 0:
        raise ValidationError("a positive-characteristic core makes the "
                              "residue-characteristic-0 coarsening trivial; "
                              "the core must have characteristic 0")
    for k in ("henselian", "defectless"):
        if core.oracle_flags[k] is False:
            raise ValidationError("a tame core must be %s" % k)
    return compose_xadic(
        core, "xadic-over-" + core.name,
        "composition of the x-adic head with the tame core %r: "
        "henselian and defectless pass through the composition, the "
        "p-th power map mod p only sees the core's coefficients" % core.name,
        "x-adic head over the core: henselized rational function "
        "field, residue field is the core field itself")
