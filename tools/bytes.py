"""Hash the bytes vallab's CLI prints over one fixed list of commands.

Each command runs in process through vallab.cli.main; its exit code,
stdout and stderr are hashed.  The tool prints one sha256 per command
group and one over every command, so two checkouts whose outputs agree
print the same hashes.  Standard library only; pytest is not needed.

    python3 tools/bytes.py                    # the checkout holding this file
    python3 tools/bytes.py --tree OTHER       # another checkout's src/
    python3 tools/bytes.py --python python3.12
    python3 tools/bytes.py --each             # and one sha256 per command

--tree and --python run the list in a child process.  The list is
versioned: any change to it bumps VERSION, and only hashes printed under
the same version compare.  The group and descriptor files that hull and
classify read are written to a temporary directory, the working
directory while the commands run, so no path in the output depends on
where it is.  The exit status
is 0 when every command ran, whatever its own exit code, and 1 when one
raised an uncaught exception, which is listed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

VERSION = 1
HERE = os.path.dirname(os.path.abspath(__file__))
PRIMES = (2, 3, 5, 7)
DEPTH_FAMILIES = ("as-valgp", "as-resf", "kummer-valgp", "kummer-resf")
DESCRIPTORS = 30


def _construct(example, p, fmt="json", **params):
    argv = ["construct", "--example", example, "--p", str(p),
            "--format", fmt]
    for k, v in sorted(params.items()):
        argv += ["--" + k.replace("_", "-"), str(v)]
    return argv


def _seeded_groups():
    """[(p, group file contents)]: five rank-1 then five rank-2 groups, of
    one to three generators, the first p-closed half the time."""
    rng = random.Random(VERSION)
    out = []
    for i in range(10):
        p = rng.choice(PRIMES)

        def q():
            return [rng.choice((-1, 1)) * rng.randint(1, 40),
                    rng.choice((1, 2, 3, 4, 5, 6, 8, 9, 12, p, p * p))]

        gens = [q() if i < 5 else [q(), q()]
                for _ in range(rng.randint(1, 3))]
        closed = [0] if rng.random() < 0.5 else []
        out.append((p, {"rank": 1 if i < 5 else 2, "gens": gens,
                        "p_closed": closed, "prime": p if closed else 1}))
    return out


def _seeded_descriptor(seed):
    """A mixed-characteristic descriptor over a rank-2 or rank-3 group
    with p-closed generators, vp a positive group element: its convex
    parts go through convex_core."""
    rng = random.Random(seed)
    p, rank = rng.choice((2, 3, 5)), rng.randint(2, 3)
    gens = []
    while len(gens) < rank + rng.randint(0, 2) or not any(map(any, gens)):
        gens.append([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, p)))
                     for _ in range(rank)])
    closed = sorted(rng.sample(range(len(gens)),
                               rng.randint(1, len(gens) - 1)))
    vp = [0]
    while not any(vp):
        coeffs = [rng.randint(-2, 2) for _ in gens]
        vp = [sum((a * g[k] for a, g in zip(coeffs, gens)), Fraction(0))
              for k in range(rank)]
    sign = 1 if next(c for c in vp if c) > 0 else -1
    pair = lambda q: [q.numerator, q.denominator]
    flags = {k: rng.choice((True, False, None)) for k in (
        "henselian", "defectless", "tame",
        "frobenius_surjective_on_completion_mod_p")}
    residue = rng.choice(({"kind": "finite", "char": p, "q": p},
                          {"kind": "abstract", "perfect": True}))
    return {"name": "seeded-%d" % seed, "char": 0, "res_char": p,
            "value_group": {"rank": rank, "gens": [[pair(c) for c in g]
                                                   for g in gens],
                            "p_closed": closed, "prime": p},
            "vp": [pair(sign * c) for c in vp], "residue_field": residue,
            "oracle_flags": flags}


def input_files():
    """{file name: contents}: seeded groups for hull and descriptors for
    classify, then files each of them refuses."""
    files = {"group%d.json" % i: body
             for i, (_, body) in enumerate(_seeded_groups())}
    files.update(("desc%d.json" % s, _seeded_descriptor(s))
                 for s in range(DESCRIPTORS))
    desc = _seeded_descriptor(0)
    files.update({
        "desc-unknown-key.json": dict(desc, oracle_flag={}),
        "desc-no-vp.json": {k: v for k, v in desc.items() if k != "vp"},
        "desc-vp-outside.json": dict(desc, vp=[[1, 7]] * len(desc["vp"])),
        "desc-negative-vp.json": dict(
            desc, vp=[[-n, d] for n, d in desc["vp"]]),
    })
    files.update({
        "unknown-key.json": {"rank": 1, "gens": [[1, 2]], "primes": 3},
        "closed-prime-1.json": {"rank": 1, "gens": [[1, 2]], "p_closed": [0]},
        "bad-index.json": {"rank": 1, "gens": [[1, 2]], "p_closed": [4],
                           "prime": 3},
        "rank-mismatch.json": {"rank": 2, "gens": [[1, 2]]},
        "zero-den.json": {"rank": 1, "gens": [[1, 0]]},
        "not-json.json": "{",
    })
    return files


def commands():
    """[(group, argv)]: the fixed, versioned command list."""
    cmds = []
    for example in DEPTH_FAMILIES:
        for p in PRIMES:
            for depth in range(4):
                for fmt in ("json", "tsv"):
                    cmds.append(("depth-families",
                                 _construct(example, p, fmt, depth=depth)))
    cmds += [("deep", _construct("as-valgp", 7, depth=80)),
             ("deep", _construct("as-valgp", 3, depth=160))]
    for p in (2, 3, 5, 7, 11):
        for example in ("lemma33", "two-ext"):
            cmds += [("small", _construct(example, p, fmt))
                     for fmt in ("json", "tsv")]
        cmds.append(("small", _construct("compose-desc", p)))
    import vallab.corpus
    cmds += [("classify", ["classify", "--descriptor", name])
             for name in vallab.corpus.corpus_names()]
    cmds.append(("classify", ["classify", "--audit"]))
    cmds += [("classify", ["classify", "--descriptor", "desc%d.json" % s])
             for s in range(DESCRIPTORS)]
    cmds += [("classify", ["classify", "--descriptor", "desc0.json",
                           "--audit"]),
             ("classify", ["classify"])]
    cmds += [("classify", ["classify", "--descriptor", name]) for name in (
        "desc-unknown-key.json", "desc-no-vp.json", "desc-vp-outside.json",
        "desc-negative-vp.json", "not-json.json", "missing.json")]
    for i, (p, _) in enumerate(_seeded_groups()):
        path = "group%d.json" % i
        for kind, level in (("p_div", "exact"), ("p_div", i % 4),
                            ("p_prime_div", 1 + i % 8)):
            cmds.append(("hull", ["hull", "--group", path, "--kind", kind,
                                  "--level", str(level), "--p", str(p)]))
    refused = [
        ("group0.json", "p_prime_div", "exact", 3),
        ("group0.json", "p_div", "-1", 3),
        ("group0.json", "p_div", "x", 3),
        ("group0.json", "p_div", "exact", 4),
        ("group0.json", "p_prime_div", "0", 3),
        ("group1.json", "p_div", "100000", 2),
        ("missing.json", "p_div", "exact", 3),
    ] + [(name, "p_div", "exact", 3) for name in (
        "unknown-key.json", "closed-prime-1.json", "bad-index.json",
        "rank-mismatch.json", "zero-den.json", "not-json.json")]
    cmds += [("hull", ["hull", "--group", path, "--kind", kind,
                       "--level", level, "--p", str(p)])
             for path, kind, level, p in refused]
    cmds += [("verify", ["verify", "--suite", "all", "--seed", str(s)])
             for s in range(6)]
    return cmds


def run_one(main, argv):
    """(exit code, stdout, stderr) of main(argv); an uncaught exception is
    its type and text in place of the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback the CLI should never print
            code = "%s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue(), err.getvalue()


def run_all(src, each=False):
    """Run the list against the vallab under src; print the hashes and
    return the exit status."""
    sys.path.insert(0, src)
    import vallab.cli
    cmds = commands()
    groups, raised = {}, []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, body in input_files().items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(body if isinstance(body, str) else json.dumps(body))
        os.chdir(tmp)
        try:
            for group, argv in cmds:
                code, out, err = run_one(vallab.cli.main, argv)
                if isinstance(code, str):
                    raised.append("%s -> %s" % (" ".join(argv), code))
                record = (json.dumps([argv, code, out, err]) + "\n").encode()
                groups.setdefault(group, []).append(record)
                if each:
                    print("%s  %s" % (hashlib.sha256(record).hexdigest(),
                                      " ".join(argv)))
        finally:
            os.chdir(cwd)
    print("bytes v%d: %d commands, vallab from %s" % (VERSION, len(cmds), src))
    for group, records in groups.items():
        print("%-16s %4d  %s" % (group, len(records),
                                  hashlib.sha256(b"".join(records)).hexdigest()))
    every = [r for records in groups.values() for r in records]
    print("%-16s %4d  %s" % ("overall", len(every),
                              hashlib.sha256(b"".join(every)).hexdigest()))
    for line in raised:
        print("raised: " + line)
    return 1 if raised else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=os.path.dirname(HERE),
                        help="checkout whose src/ to run (default: this one)")
    parser.add_argument("--python", default=None,
                        help="interpreter to run the list under")
    parser.add_argument("--each", action="store_true",
                        help="also print one sha256 per command, so a diff "
                             "of two runs names the commands that changed")
    parser.add_argument("--in-process", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    if not os.path.isdir(os.path.join(tree, "src", "vallab")):
        parser.error("no src/vallab under %s" % args.tree)
    if args.in_process or (args.python is None
                           and tree == os.path.dirname(HERE)):
        return run_all(os.path.join(tree, "src"), args.each)
    child = [args.python or sys.executable, os.path.abspath(__file__),
             "--tree", tree, "--in-process"] + ["--each"] * args.each
    return subprocess.run(child).returncode


if __name__ == "__main__":
    sys.exit(main())
