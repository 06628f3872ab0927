"""Command-line front end.

Verbs: construct (run a named tower build and emit its certificate),
classify (verdicts for a descriptor file or shipped corpus member),
verify (seeded property suites) and hull (divisible hulls of a group).

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

from .classify import (build_counterexample_descriptor, check,
                       audit_implications, descriptor_from_json)
from .constructions import BUILDERS
from .corpus import corpus_member, corpus_names, shipped_corpus, tame_core
from .errors import PrecisionError, ValidationError, read_json
from .ogroup import from_json as group_from_json
from .ogroup import hull
from .ogroup import to_json as group_to_json
from .suites import SUITES, run_suite
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


def _construct_options(args) -> dict:
    """The given --depth/--padic-cap as builder keywords; an option the
    example does not take is an error, not a silent no-op."""
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
    kwargs = _construct_options(args)
    _check_writable(args.out)
    if args.example == "compose-desc":
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


def _load_descriptor(token: str):
    if token in corpus_names():
        return corpus_member(token)
    return descriptor_from_json(read_json(token, "descriptor"))


def _cmd_classify(args) -> int:
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


def _cmd_verify(args) -> int:
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


def _cmd_hull(args) -> int:
    require_prime(args.p)
    _check_writable(args.out)
    g = group_from_json(read_json(args.group, "group file"))
    level = args.level
    if level != "exact":
        try:
            level = int(level)
        except ValueError:
            raise ValidationError("--level takes an integer or 'exact'")
    out = hull(g, args.kind, level, args.p)
    _emit(_json_text(group_to_json(out)), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="vallab",
                     description="exact valuation-theoretic computations "
                                 "with verifiable defect certificates")
    sub = parser.add_subparsers(dest="verb", required=True)

    con = sub.add_parser("construct", help="run a named tower construction")
    con.add_argument("--example", required=True,
                     choices=sorted(BUILDERS) + ["compose-desc"])
    con.add_argument("--p", type=int, default=3, help="the prime (default 3)")
    con.add_argument("--depth", type=int, default=None,
                     help="tower depth (default per example)")
    con.add_argument("--padic-cap", type=int, default=None,
                     help="p-adic digit positions for kummer-valgp "
                          "(default p)")
    con.add_argument("--out", default=None, help="output file (stdout)")
    con.add_argument("--format", choices=("json", "tsv"), default="json")
    con.set_defaults(fn=_cmd_construct)

    cla = sub.add_parser("classify", help="class verdicts for a descriptor")
    cla.add_argument("--descriptor", default=None,
                     help="descriptor JSON file or corpus name (%s)"
                          % ", ".join(corpus_names()))
    cla.add_argument("--audit", action="store_true",
                     help="audit the implication theorems over the corpus")
    cla.add_argument("--out", default=None)
    cla.set_defaults(fn=_cmd_classify)

    ver = sub.add_parser("verify", help="run a seeded property suite")
    ver.add_argument("--suite", required=True,
                     choices=sorted(SUITES) + ["all"])
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(fn=_cmd_verify)

    hul = sub.add_parser("hull", help="divisible hulls of a group")
    hul.add_argument("--group", required=True, help="group JSON file")
    hul.add_argument("--kind", required=True,
                     choices=("p_div", "p_prime_div"))
    hul.add_argument("--level", default="exact",
                     help="truncation level, or 'exact' for the p-hull")
    hul.add_argument("--p", type=int, required=True)
    hul.add_argument("--out", default=None)
    hul.set_defaults(fn=_cmd_hull)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
