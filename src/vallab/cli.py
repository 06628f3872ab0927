"""Command-line front end.

Verbs: construct (run a named tower build and emit its certificate),
classify (verdicts for a descriptor file or shipped corpus member),
verify (seeded property suites) and hull (divisible hulls of a group).

VERBS maps each verb to its help text, the function that adds its
arguments and its handler.  build_parser registers every verb, so the
top-level help and usage never change, but adds arguments only to the
verb it is given (to all four when given none); main passes the first
word of the command line.  Each of those functions imports only its own
modules (construct: constructions; classify: classify and corpus;
verify: suites; hull: ogroup), so a verb starts without loading the
others.

Exit codes: 0 success, 1 validation or precondition failure (the
diagnostic names the violated inequality), 2 precision exhaustion, which
only a p-adic cap can cause: every equal-characteristic series is exact.
JSON output is deterministic for fixed flags; TSV is a projection of
certificate rows.  --padic-cap sets kummer-valgp's p-adic digit cap
(default p, the least that lambda = zeta_p - 1 needs).  --depth or
--padic-cap on an example that does not take it is a validation error.
"""

import argparse
import inspect
import json
import os
import sys

from .errors import PrecisionError, ValidationError, read_json
# at module level, not in the handlers: perfbench's cold_caches reads
# sys.modules["vallab.vbase"] without a guard
from .vbase import require_prime

_TSV_COLUMNS = ("n", "name", "kind", "degree", "e", "f", "m",
                "new_value", "new_residue", "witness")


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for precision
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _emit(text: str, out_path, mode: str = "w"):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError("cannot write --out %r: %s"
                              % (out_path, exc.strerror))


def _check_writable(out_path):
    """Fail on an unwritable --out before the work starts; a file the check
    creates is removed again, so a command that fails leaves none behind."""
    if out_path:
        existed = os.path.exists(out_path)
        _emit("", out_path, "a")
        if not existed:
            os.remove(out_path)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _tsv_text(cert_json: dict) -> str:
    lines = ["\t".join(_TSV_COLUMNS)]
    for row in cert_json["rows"]:
        lines.append("\t".join(str(row.get(c, "")) for c in _TSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _construct_args(parser):
    from .constructions import BUILDERS
    parser.add_argument("--example", required=True,
                        choices=sorted(BUILDERS) + ["compose-desc"])
    parser.add_argument("--p", type=int, default=3,
                        help="the prime (default 3)")
    parser.add_argument("--depth", type=int, default=None,
                        help="tower depth (default per example)")
    parser.add_argument("--padic-cap", type=int, default=None,
                        help="p-adic digit positions for kummer-valgp "
                             "(default p)")
    parser.add_argument("--out", default=None, help="output file (stdout)")
    parser.add_argument("--format", choices=("json", "tsv"), default="json")


def _construct_options(args) -> dict:
    """The given --depth/--padic-cap as builder keywords; an option the
    example does not take is an error, not a silent no-op."""
    from .constructions import BUILDERS
    takes = () if args.example == "compose-desc" else \
        inspect.signature(BUILDERS[args.example]).parameters
    kwargs = {name: value for name, value in (("depth", args.depth),
                                              ("padic_cap", args.padic_cap))
              if value is not None}
    for name in kwargs:
        if name not in takes:
            raise ValidationError("--%s does not apply to --example %s"
                                  % (name.replace("_", "-"), args.example))
    if kwargs.get("padic_cap", 1) < 1:
        raise ValidationError("--padic-cap must be at least 1, got %d"
                              % args.padic_cap)
    return kwargs


def _cmd_construct(args) -> int:
    from .constructions import BUILDERS
    kwargs = _construct_options(args)
    _check_writable(args.out)
    if args.example == "compose-desc":
        from .classify import build_counterexample_descriptor
        from .corpus import tame_core
        if args.format == "tsv":
            raise ValidationError("tsv output projects certificate rows; "
                                  "compose-desc emits a descriptor")
        require_prime(args.p)
        desc = build_counterexample_descriptor(tame_core(args.p))
        _emit(_json_text(desc.to_json()), args.out)
        return 0
    built = BUILDERS[args.example](args.p, **kwargs)
    cert = built.certificate.to_json()
    if args.format == "tsv":
        _emit(_tsv_text(cert), args.out)
    else:
        _emit(_json_text(cert), args.out)
    return 0


def _classify_args(parser):
    from .corpus import corpus_names
    parser.add_argument("--descriptor", default=None,
                        help="descriptor JSON file or corpus name (%s)"
                             % ", ".join(corpus_names()))
    parser.add_argument("--audit", action="store_true",
                        help="audit the implication theorems over the "
                             "corpus")
    parser.add_argument("--out", default=None)


def _load_descriptor(token: str):
    from .classify import descriptor_from_json
    from .corpus import corpus_member, corpus_names
    if token in corpus_names():
        return corpus_member(token)
    return descriptor_from_json(read_json(token, "descriptor"))


def _cmd_classify(args) -> int:
    from .classify import audit_implications, check
    from .corpus import shipped_corpus
    if args.descriptor is None and not args.audit:
        raise ValidationError("need --descriptor FILE or --audit")
    _check_writable(args.out)
    out = {}
    desc = None
    if args.descriptor is not None:
        desc = _load_descriptor(args.descriptor)
        out = check(desc).to_json()
    if args.audit:
        corpus = {d.name: d for d in shipped_corpus()}
        if desc is not None:
            # a file named like a shipped member is audited in its place
            corpus[desc.name] = desc
        audit = audit_implications(list(corpus.values()))
        if desc is not None:
            out = {"schema": 1, "classification": out, "audit": audit}
        else:
            out = audit
        _emit(_json_text(out), args.out)
        if audit["violations"]:
            sys.stderr.write("error: %d implication violation(s)\n"
                             % len(audit["violations"]))
            return 1
        return 0
    _emit(_json_text(out), args.out)
    return 0


def _verify_args(parser):
    from .suites import SUITES
    parser.add_argument("--suite", required=True,
                        choices=sorted(SUITES) + ["all"])
    parser.add_argument("--seed", type=int, default=0)


def _cmd_verify(args) -> int:
    from .suites import SUITES, run_suite
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        res = run_suite(name, seed=args.seed)
        print("%s: %d passed, %d failed" % (res.name, res.passed,
                                            res.failed))
        for line in res.lines:
            print("  " + line)
        all_ok = all_ok and res.ok()
    return 0 if all_ok else 1


def _hull_args(parser):
    parser.add_argument("--group", required=True, help="group JSON file")
    parser.add_argument("--kind", required=True,
                        choices=("p_div", "p_prime_div"))
    parser.add_argument("--level", default="exact",
                        help="truncation level, or 'exact' for the p-hull")
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--out", default=None)


def _cmd_hull(args) -> int:
    from .ogroup import from_json, hull, to_json
    require_prime(args.p)
    _check_writable(args.out)
    g = from_json(read_json(args.group, "group file"))
    level = args.level
    if level != "exact":
        try:
            level = int(level)
        except ValueError:
            raise ValidationError("--level takes an integer or 'exact'")
    out = hull(g, args.kind, level, args.p)
    _emit(_json_text(to_json(out)), args.out)
    return 0


# verb: (help text, function adding its arguments, handler)
VERBS = {
    "construct": ("run a named tower construction", _construct_args,
                  _cmd_construct),
    "classify": ("class verdicts for a descriptor", _classify_args,
                 _cmd_classify),
    "verify": ("run a seeded property suite", _verify_args, _cmd_verify),
    "hull": ("divisible hulls of a group", _hull_args, _cmd_hull),
}


def build_parser(verb=None) -> _Parser:
    """Every verb's subparser; only `verb`'s (every one's when None) gets
    its arguments and handler."""
    parser = _Parser(prog="vallab",
                     description="exact valuation-theoretic computations "
                                 "with verifiable defect certificates")
    sub = parser.add_subparsers(dest="verb", required=True)
    parser.verbs = sub.choices          # verb name -> its subparser
    for name, (help_text, add_arguments, handler) in VERBS.items():
        verb_parser = sub.add_parser(name, help=help_text)
        if verb in (None, name):
            add_arguments(verb_parser)
            verb_parser.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a first word that names no verb leaves parsing to the full parser
    verb = argv[0] if argv and argv[0] in VERBS else None
    parser = build_parser(verb)
    args, extra = parser.parse_known_args(argv)
    if extra:  # argparse hands a verb's leftover words back up
        parser.verbs.get(verb, parser).error(
            "unrecognized arguments: " + " ".join(extra))
    try:
        return args.fn(args)
    except ValidationError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except PrecisionError as exc:
        sys.stderr.write("precision exhausted: %s\n" % exc)
        return 2
    except ValueError as exc:
        if "integer string conversion" not in str(exc):  # str() of an int
            raise
        sys.stderr.write("error: a result is too long to print: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
