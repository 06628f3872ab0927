"""Shipped corpus of valued-field descriptors with sourced oracle flags.

Twelve descriptors spanning the truth-table corners the class checks can
reach: equal and mixed characteristic, perfect and imperfect residue
fields, discrete, p-divisible and roughly-p-divisible value groups,
henselian and non-henselian, defectless and defect-witnessing.  Every
oracle flag is justified in the descriptor's note; nothing here is
derived from the check itself.
"""

from dataclasses import replace
from fractions import Fraction

from .classify import (AbstractResidue, FieldDescriptor,
                       build_counterexample_descriptor, compose_xadic)
from .ogroup import cyclic, ogroup
from .resfield import ResField


def _zp(p: int):
    """Z[1/p] presented as the p-divisible closure of <1>."""
    return ogroup([1], closed=(0,), prime=p)


def laurent_f3() -> FieldDescriptor:
    return FieldDescriptor(
        name="laurent-f3",
        char=3, res_char=3,
        value_group=cyclic(1),
        residue_field=ResField(3),
        oracle_flags={
            "henselian": True,
            "defectless": True,
            "frobenius_surjective_on_completion_mod_p": False,
            "independent_defect": True,
            "tame": False,
        },
        note="F_3((t)): complete discretely valued, hence henselian; "
             "maximal for value group Z, hence defectless (and trivially an "
             "independent defect field); cubing on F_3[[t]] misses t, so "
             "the p-th power map on the completion mod p is not surjective; "
             "not tame since Z is not 3-divisible",
    )


def laurent_f2u() -> FieldDescriptor:
    return FieldDescriptor(
        name="laurent-f2u",
        char=2, res_char=2,
        value_group=cyclic(1),
        residue_field=ResField(2, "ratfun"),
        oracle_flags={
            "henselian": True,
            "defectless": True,
            "frobenius_surjective_on_completion_mod_p": False,
            "independent_defect": True,
            "tame": False,
        },
        note="F_2(u)((t)): complete discretely valued, hence henselian and "
             "(being maximal) defectless; squaring misses both t and u; "
             "not tame: group Z, residue field imperfect",
    )


def hahn_f3_perfected() -> FieldDescriptor:
    return FieldDescriptor(
        name="hahn-f3-perfected",
        char=3, res_char=3,
        value_group=_zp(3),
        residue_field=ResField(3),
        oracle_flags={
            "henselian": True,
            "defectless": True,
            "frobenius_surjective_on_completion_mod_p": True,
            "independent_defect": True,
            "tame": True,
        },
        note="F_3 Hahn series over Z[1/3]: maximal, hence henselian and "
             "defectless; the field is perfect (coefficientwise cube roots "
             "over a 3-divisible support), so cubing is onto; tame: "
             "3-divisible group, perfect residue field, defectless",
    )


def hahn_f3u() -> FieldDescriptor:
    return FieldDescriptor(
        name="hahn-f3u",
        char=3, res_char=3,
        value_group=_zp(3),
        residue_field=ResField(3, "ratfun"),
        oracle_flags={
            "henselian": True,
            "defectless": True,
            "frobenius_surjective_on_completion_mod_p": False,
            "independent_defect": True,
            "tame": False,
        },
        note="F_3(u) Hahn series over Z[1/3]: maximal, hence henselian and "
             "defectless; cubing misses u (the coefficient field is "
             "imperfect); not tame: imperfect residue field",
    )


def ratfun_f2_t() -> FieldDescriptor:
    return FieldDescriptor(
        name="ratfun-f2-t",
        char=2, res_char=2,
        value_group=cyclic(1),
        residue_field=ResField(2),
        oracle_flags={
            "henselian": False,
            "defectless": None,
            "frobenius_surjective_on_completion_mod_p": False,
            "independent_defect": None,
            "tame": False,
        },
        note="F_2(t) with the t-adic valuation: not henselian (X^2 + X + t "
             "splits in the henselization, not in F_2(t)); completion is "
             "F_2((t)) where squaring misses t; defectless left open here",
    )


def laurent_q() -> FieldDescriptor:
    return FieldDescriptor(
        name="laurent-q",
        char=0, res_char=0,
        value_group=cyclic(1),
        residue_field=AbstractResidue(perfect=True),
        oracle_flags={
            "henselian": True,
            "defectless": True,
            "frobenius_surjective_on_completion_mod_p": True,
            "independent_defect": True,
            "tame": True,
        },
        note="Q((t)): complete discretely valued, hence henselian; residue "
             "characteristic 0 makes it defectless and tame; the ring mod p "
             "is the zero ring for every prime, so the power map is onto",
    )


def q2() -> FieldDescriptor:
    return FieldDescriptor(
        name="q2",
        char=0, res_char=2,
        value_group=cyclic(1),
        vp=1,
        residue_field=ResField(2),
        oracle_flags={
            "henselian": True,
            "defectless": True,
            "frobenius_surjective_on_completion_mod_p": True,
            "independent_defect": True,
            "tame": False,
        },
        note="Q_2: complete discretely valued, hence henselian and "
             "defectless; O/2O = F_2 where squaring is the identity; not "
             "tame since Z is not 2-divisible",
    )


def q3_zeta3() -> FieldDescriptor:
    return FieldDescriptor(
        name="q3-zeta3",
        char=0, res_char=3,
        value_group=cyclic(Fraction(1, 2)),
        vp=1,
        residue_field=ResField(3),
        oracle_flags={
            "henselian": True,
            "defectless": True,
            "frobenius_surjective_on_completion_mod_p": False,
            "independent_defect": True,
            "tame": False,
        },
        note="Q_3(zeta_3): complete discretely valued (v(zeta_3 - 1) = 1/2), "
             "henselian, defectless; O/3O = F_3[L]/(L^2) with L the image "
             "of zeta_3 - 1, and cubing lands in F_3, missing L; not tame: "
             "(1/2)Z is not 3-divisible",
    )


def q3_deep() -> FieldDescriptor:
    return FieldDescriptor(
        name="q3-deep",
        char=0, res_char=3,
        value_group=ogroup([Fraction(1, 2)], closed=(0,), prime=3),
        vp=1,
        residue_field=ResField(3),
        oracle_flags={
            "henselian": True,
            "defectless": False,
            "frobenius_surjective_on_completion_mod_p": True,
            "independent_defect": True,
            "tame": False,
        },
        note="henselization of Q_3(zeta_3, 3^(1/3), 3^(1/9), ...): value "
             "group (1/2)Z[1/3], residue field F_3; not defectless, "
             "witnessed by the kummer-valgp certificate (the limit field "
             "admits a degree-3 defect extension); the completion is "
             "deeply ramified, so cubing mod 3 is onto",
    )


def tame_core_abstract() -> FieldDescriptor:
    return replace(
        tame_core(3), name="tame-core-abstract",
        note="an abstract tame field of mixed characteristic (0, 3): "
             "3-divisible value group Z[1/3], perfect residue field, "
             "defectless; tame fields are henselian and their completions "
             "have onto power maps mod p")


def composed_counterexample() -> FieldDescriptor:
    d = build_counterexample_descriptor(tame_core_abstract())
    return replace(d, name="composed-counterexample")


def composed_discrete_core() -> FieldDescriptor:
    return compose_xadic(
        q2(), "composed-discrete-core",
        "x-adic head composed over Q_2: henselian and defectless pass "
        "through the composition; the power map mod 2 only sees the "
        "core's coefficients, so it stays onto; not tame, and the "
        "convex core of v(2) is the discrete Z where v(2) is minimal",
        "x-adic head over Q_2: henselized rational function field, "
        "residue field is Q_2 itself")


_CORPUS = {
    "laurent-f3": laurent_f3,
    "laurent-f2u": laurent_f2u,
    "hahn-f3-perfected": hahn_f3_perfected,
    "hahn-f3u": hahn_f3u,
    "ratfun-f2-t": ratfun_f2_t,
    "laurent-q": laurent_q,
    "q2": q2,
    "q3-zeta3": q3_zeta3,
    "q3-deep": q3_deep,
    "tame-core-abstract": tame_core_abstract,
    "composed-counterexample": composed_counterexample,
    "composed-discrete-core": composed_discrete_core,
}


def shipped_corpus():
    """The 12 descriptors, in a fixed order."""
    return [mk() for mk in _CORPUS.values()]


def corpus_member(name: str) -> FieldDescriptor:
    return _CORPUS[name]()


def corpus_names():
    return list(_CORPUS)


def tame_core(p: int) -> FieldDescriptor:
    """An abstract tame mixed-characteristic core at the prime p."""
    return FieldDescriptor(
        name="tame-core-p%d" % p,
        char=0, res_char=p,
        value_group=_zp(p),
        vp=1,
        residue_field=AbstractResidue(perfect=True),
        oracle_flags={
            "henselian": True,
            "defectless": True,
            "frobenius_surjective_on_completion_mod_p": True,
            "independent_defect": True,
            "tame": True,
        },
        note="abstract tame field of mixed characteristic (0, %d)" % p,
    )
