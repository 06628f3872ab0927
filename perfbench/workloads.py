"""The three workloads: operation lists generated from a seed.

An operation is one call of a vallab public entry point whose output is
text: a certificate serialized as the CLI prints it, or the CLI's own
stdout.  Entry points are looked up when the operation runs, not when it
is built, so the tracer's wrappers are the ones called in a traced pass.

The seed orders the operations and, in ``cli-mix``, draws the suite
seeds and the hull groups.  The program only ever sees the generated
inputs.
"""

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass

import check

WORKLOADS = ("eqchar-towers", "padic-towers", "cli-mix")

PRIMES = (2, 3, 5, 7)


class CliExit(Exception):
    """The CLI returned a nonzero exit code; the class name is exitN."""

    def __init__(self, code, stderr):
        super().__init__(stderr.strip().splitlines()[-1] if stderr.strip()
                         else "no diagnostic")
        self.kind = "exit%d" % code


def cold_caches():
    """Forget vallab's in-process caches; run untimed before every operation.

    Every `vallab` call is a fresh process, so users always start with cold
    cyclotomic roots (`vbase._lambda_cache`) and cold `lru_cache`s, such as
    the canonical forms in `ogroup`.
    """
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("vallab."):
            continue
        for value in list(vars(mod).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    getattr(sys.modules["vallab.vbase"], "_lambda_cache", {}).clear()


@dataclass
class Op:
    key: str                        # unique label, also the digest key
    run: object                     # () -> output text; raises on failure
    verify: object                  # (text) -> list of violations
    cert: bool = False              # output is a certificate (digested)
    grow: tuple = None              # (p, depth) on the depth-growth grid
    expect_error: str = None        # known defect: the error class it raises


def error_class(exc):
    return getattr(exc, "kind", None) or type(exc).__name__


# ---------------------------------------------------------------------------
# tower builds called through the library API


def _cert_text(cert_json):
    return json.dumps(cert_json, indent=2, sort_keys=True) + "\n"


def build_op(family, p, grow=False, expect_error=None, **params):
    import vallab

    def run():
        built = vallab.BUILDERS[family](p=p, **params)
        return _cert_text(built.certificate.to_json())

    label = " ".join("%s=%s" % kv for kv in [("p", p)] + sorted(params.items()))
    cap = params.get("padic_cap")
    return Op(
        key="%s %s" % (family, label), run=run,
        verify=lambda text: check.check_certificate(family, p, params, text, cap),
        cert=True, grow=(p, params["depth"]) if grow else None,
        expect_error=expect_error)


def eqchar_ops():
    ops = [build_op("as-valgp", p, grow=True, depth=d)
           for p in PRIMES for d in range(5)]
    ops.append(build_op("as-valgp", 7, grow=True, depth=5))
    ops += [build_op("as-resf", p, depth=d) for p in PRIMES for d in range(4)]
    ops += [build_op("lemma33", p) for p in PRIMES]
    # R4 budget len(gens) + 4 runs out although the build is exact
    ops.append(build_op("as-valgp", 2, depth=6, expect_error="PrecisionError"))
    return ops


# default cap depth + 3 is <= E = p - 1 here, so lambda comes out as 0
_DEFAULT_CAP_DEFECTS = {(5, 1), (7, 1), (7, 2), (7, 3)}


def padic_ops():
    ops = [build_op("kummer-valgp", p, depth=2, padic_cap=k * p)
           for p in (3, 5, 7, 11) for k in (2, 4)]
    ops += [build_op("kummer-valgp", p, depth=d,
                     expect_error="PrecisionError"
                     if (p, d) in _DEFAULT_CAP_DEFECTS else None)
            for p in PRIMES for d in (1, 2, 3)]
    ops += [build_op("kummer-resf", p, grow=True, depth=d)
            for p in PRIMES for d in (1, 2, 3)]
    ops += [build_op("two-ext", p) for p in PRIMES]
    return ops


# ---------------------------------------------------------------------------
# the command line, called in process


def cli_op(argv, verify, **kw):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["vallab.cli"].main(list(argv))
        if code != 0:
            raise CliExit(code, err.getvalue())
        return out.getvalue()

    return Op(key="vallab " + " ".join(argv), run=run, verify=verify, **kw)


def _construct_op(example, p, fmt, grow=False, **params):
    argv = ["construct", "--example", example, "--p", str(p), "--format", fmt]
    for k, v in sorted(params.items()):
        argv += ["--" + k.replace("_", "-"), str(v)]
    if fmt == "tsv":
        verify = lambda text: check.check_tsv(example, p, params, text)
    else:
        cap = params.get("padic_cap")
        verify = lambda text: check.check_certificate(example, p, params, text, cap)
    return cli_op(argv, verify, cert=True,
                  grow=(p, params["depth"]) if grow else None)


def _random_group(rng, rank, p):
    def q():
        return [rng.choice((-1, 1)) * rng.randint(1, 40),
                rng.choice((1, 2, 3, 4, 5, 6, 8, 9, 12))]

    gens = []
    while len(gens) < rng.randint(1, 3):
        v = q() if rank == 1 else [q(), q()]
        gens.append(v)
    closed = [0] if rng.random() < 0.5 else []
    return {"rank": rank, "gens": gens, "p_closed": closed,
            "prime": p if closed else 1}


def cli_ops(rng, workdir):
    import vallab
    descs = [d.to_json() for d in vallab.shipped_corpus()]
    ops = [cli_op(["classify", "--descriptor", d["name"]],
                  lambda text, d=d: check.check_classify(d, text))
           for d in descs]
    ops.append(cli_op(["classify", "--audit"],
                      lambda text: check.check_audit(descs, text)))
    ops += [cli_op(["construct", "--example", "compose-desc", "--p", str(p)],
                   lambda text, p=p: check.check_descriptor(p, text), cert=True)
            for p in PRIMES]
    for i in range(8):
        p = rng.choice(PRIMES)
        group = _random_group(rng, 1 if i < 4 else 2, p)
        path = "%s/group%d.json" % (workdir, i)
        with open(path, "w") as fh:
            json.dump(group, fh)
        for kind, level in (("p_div", "exact"), ("p_div", rng.randint(0, 3)),
                            ("p_prime_div", rng.randint(1, 8))):
            ops.append(cli_op(
                ["hull", "--group", path, "--kind", kind, "--level", str(level),
                 "--p", str(p)],
                lambda text, g=group, k=kind, lv=level, p=p:
                    check.check_hull(g, k, lv, p, text)))
    for s in rng.sample(range(10 ** 6), 3):
        ops.append(cli_op(["verify", "--suite", "all", "--seed", str(s)],
                          check.check_verify))
    ops += [_construct_op("as-valgp", p, "json", grow=True, depth=d)
            for p in PRIMES for d in (1, 2)]
    ops += [
        _construct_op("as-resf", 2, "json", depth=1),
        _construct_op("kummer-valgp", 3, "json", depth=1, padic_cap=6),
        _construct_op("kummer-resf", 3, "json", depth=1),
        _construct_op("two-ext", 2, "json"),
        _construct_op("lemma33", 3, "json"),
        _construct_op("as-valgp", 3, "tsv", depth=2),
        _construct_op("as-resf", 3, "tsv", depth=1),
        _construct_op("kummer-valgp", 2, "tsv", depth=2),
        _construct_op("kummer-resf", 2, "tsv", depth=1),
        _construct_op("two-ext", 3, "tsv"),
        _construct_op("lemma33", 5, "tsv"),
    ]
    return ops


def prepare(workload, seed, workdir):
    """Import vallab and build the seeded operation list."""
    import vallab  # noqa: F401  (the import is part of set-up)
    import vallab.cli  # noqa: F401
    rng = random.Random(seed)
    if workload == "eqchar-towers":
        ops = eqchar_ops()
    elif workload == "padic-towers":
        ops = padic_ops()
    elif workload == "cli-mix":
        ops = cli_ops(rng, workdir)
    else:
        raise KeyError(workload)
    rng.shuffle(ops)
    return ops
