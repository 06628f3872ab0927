"""Shipped corpus of valued-field descriptors with sourced oracle flags.

Twelve descriptors spanning the truth-table corners the class checks can
reach: equal and mixed characteristic, perfect and imperfect residue
fields, discrete, p-divisible and roughly-p-divisible value groups,
henselian and non-henselian, defectless and defect-witnessing.  Every
oracle flag is justified in the descriptor's note; nothing here is
derived from the check itself.

Nine members are data: corpus.json, beside this module, holds their
to_json() form, parsed once at import, and each lookup builds a fresh
descriptor with descriptor_from_json, the reader of every descriptor
file.  The three members computed from other descriptors are built here.
"""

import os
from dataclasses import replace
from functools import partial

from .classify import (AbstractResidue, FieldDescriptor,
                       build_counterexample_descriptor, compose_xadic,
                       descriptor_from_json)
from .errors import json_get, read_json
from .ogroup import ogroup


def _load(path):
    """A zero-argument builder for each descriptor in the JSON list at
    path, keyed by its name, in file order."""
    return {json_get(d, "name", "corpus entry", str):
            partial(descriptor_from_json, d)
            for d in read_json(path, "corpus file")}


def tame_core(p: int) -> FieldDescriptor:
    """An abstract tame mixed-characteristic core at the prime p."""
    return FieldDescriptor(
        name="tame-core-p%d" % p,
        char=0, res_char=p,
        value_group=ogroup([1], closed=(0,), prime=p),
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
        corpus_member("q2"), "composed-discrete-core",
        "x-adic head composed over Q_2: henselian and defectless pass "
        "through the composition; the power map mod 2 only sees the "
        "core's coefficients, so it stays onto; not tame, and the "
        "convex core of v(2) is the discrete Z where v(2) is minimal",
        "x-adic head over Q_2: henselized rational function field, "
        "residue field is Q_2 itself")


_CORPUS = {
    **_load(os.path.join(os.path.dirname(__file__), "corpus.json")),
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
