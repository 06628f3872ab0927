"""Exact tools for valued fields: value groups, towers, defect certificates."""

from .classify import (AbstractResidue, ClassReport, FieldDescriptor,
                       audit_implications, build_counterexample_descriptor,
                       check, descriptor_from_json)
from .constructions import (BUILDERS, build_2ext, build_as_resf,
                            build_as_valgp, build_kummer_resf,
                            build_kummer_valgp, build_lemma_3_3)
from .corpus import corpus_member, corpus_names, shipped_corpus
from .errors import PrecisionError, ValidationError
from .ogroup import (OGroup, contains, convex_core, hull, index,
                     is_p_divisible, lex_compose, ogroup)
from .resfield import ResField
from .suites import SUITES, run_suite
from .tower import (DefectCertificate, Tower, adjoin_root, residue,
                    resolve_pending, val)

__version__ = "0.1.0"

__all__ = [
    "AbstractResidue", "BUILDERS", "ClassReport", "DefectCertificate",
    "FieldDescriptor", "OGroup", "PrecisionError", "ResField", "SUITES",
    "Tower", "ValidationError", "adjoin_root", "audit_implications",
    "build_2ext", "build_as_resf", "build_as_valgp",
    "build_counterexample_descriptor", "build_kummer_resf",
    "build_kummer_valgp", "build_lemma_3_3", "check", "contains",
    "convex_core", "corpus_member", "corpus_names",
    "descriptor_from_json", "hull", "index", "is_p_divisible",
    "lex_compose", "ogroup", "residue",
    "resolve_pending", "run_suite", "shipped_corpus", "val",
]
