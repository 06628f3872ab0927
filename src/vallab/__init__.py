"""Exact tools for valued fields: value groups, towers, defect certificates.

The names from classify, constructions, corpus, suites and tower are
exported lazily (PEP 562): the first access to one imports its module,
so `import vallab` and each CLI verb load only what they use.  errors,
ogroup and resfield stay eager.  ogroup must: importing a submodule
binds its name on the package, so once `vallab.ogroup` the module was
loaded, a lazy `ogroup` function would be shadowed by it.  errors and
resfield are small, and every verb loads them anyway (the CLI imports
vbase, which imports both).
"""

from .errors import PrecisionError, ValidationError
from .ogroup import (OGroup, contains, convex_core, hull, index,
                     is_p_divisible, lex_compose, ogroup)
from .resfield import ResField

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

# lazily exported name -> its home module
_LAZY = {name: home for home, names in (
    ("classify", ("AbstractResidue", "ClassReport", "FieldDescriptor",
                  "audit_implications", "build_counterexample_descriptor",
                  "check", "descriptor_from_json")),
    ("constructions", ("BUILDERS", "build_2ext", "build_as_resf",
                       "build_as_valgp", "build_kummer_resf",
                       "build_kummer_valgp", "build_lemma_3_3")),
    ("corpus", ("corpus_member", "corpus_names", "shipped_corpus")),
    ("suites", ("SUITES", "run_suite")),
    ("tower", ("DefectCertificate", "Tower", "adjoin_root", "residue",
               "resolve_pending", "val")),
) for name in names}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    from importlib import import_module
    value = getattr(import_module("." + home, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
