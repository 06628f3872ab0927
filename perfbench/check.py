"""Output checks that do not trust the builders' own self-checks.

Every function takes the bytes an operation produced (parsed where
needed) plus what the benchmark itself knows about the input, and
returns a list of violations; an empty list means the output is right.
Expected values are derived here from the family's closed form, never
read back from vallab.
"""

import json
import re
from fractions import Fraction
from math import gcd

TSV_COLUMNS = ("n", "name", "kind", "degree", "e", "f", "m",
               "new_value", "new_residue", "witness")

VERDICT_KEYS = ("TF1", "TF2", "TF3", "tame", "RTF1", "RTF2", "RTF3",
                "roughly_tame", "semitame", "rdr_1", "rdr_2", "rdr")

# premises -> conclusion, as stated by the source paper
IMPLICATIONS = (
    (("tame",), "semitame"),
    (("semitame", "roughly_tame"), "tame"),
    (("roughly_tame",), "rdr"),
    (("tame",), "roughly_tame"),
)

SUITE_NAMES = ("congruence", "implications", "newton", "ogroup", "ostrowski")

_RESIDUE_RE = re.compile(r"^(?:(\d+)\*)?u\^\(1/(\d+)\)$")


# ---------------------------------------------------------------------------
# certificates


def _expected_rows(family, p, params):
    """[(kind, value or residue level)] per row, n of the first row."""
    depth = params.get("depth")
    if family == "as-valgp":
        return 0, [("ramified", Fraction(-1, p ** (n + 1)))
                   for n in range(depth + 1)]
    if family == "as-resf":
        return 1, [("residue", n) for n in range(1, depth + 2)]
    if family == "lemma33":
        return 1, [("residue", 1)]
    if family == "kummer-valgp":
        return 1, [("ramified", Fraction(-1, (p - 1) * p ** n))
                   for n in range(1, depth + 2)]
    if family == "kummer-resf":
        return 1, [("residue", n) for n in range(1, depth + 2)]
    if family == "two-ext":
        return 1, [("residue", 1), ("residue", 1), ("residue", 2)]
    raise KeyError(family)


def check_rows(family, p, params, rows):
    errs = []
    first, expected = _expected_rows(family, p, params)
    if len(rows) != len(expected):
        return ["%d rows, expected %d" % (len(rows), len(expected))]
    for i, (row, (kind, want)) in enumerate(zip(rows, expected)):
        where = "row %d" % i
        try:
            n, deg, e, f, m = (int(row[k]) for k in ("n", "degree", "e", "f", "m"))
        except (KeyError, TypeError, ValueError) as exc:
            errs.append("%s: unreadable degree data (%s)" % (where, exc))
            continue
        if n != first + i:
            errs.append("%s: n = %d, expected %d" % (where, n, first + i))
        if deg != p ** m * e * f:
            errs.append("%s: degree %d != p^m*e*f = %d" % (where, deg, p ** m * e * f))
        if deg != p:
            errs.append("%s: degree %d, expected p = %d" % (where, deg, p))
        if row.get("kind") != kind:
            errs.append("%s: kind %r, expected %r" % (where, row.get("kind"), kind))
        if kind == "ramified":
            if (e, f, m) != (p, 1, 0):
                errs.append("%s: (e,f,m) = (%d,%d,%d), expected (p,1,0)"
                            % (where, e, f, m))
            try:
                got = Fraction(row.get("new_value") or "nan")
            except ValueError:
                got = None
            if got != want:
                errs.append("%s: new_value %r, expected %s"
                            % (where, row.get("new_value"), want))
        else:
            if (e, f, m) != (1, p, 0):
                errs.append("%s: (e,f,m) = (%d,%d,%d), expected (1,p,0)"
                            % (where, e, f, m))
            mt = _RESIDUE_RE.match(row.get("new_residue") or "")
            coeff = int(mt.group(1) or 1) if mt else 0
            if not mt or int(mt.group(2)) != p ** want or not 0 < coeff < p:
                errs.append("%s: new_residue %r, expected c*u^(1/%d) with "
                            "0 < c < p" % (where, row.get("new_residue"), p ** want))
    return errs


def check_certificate(family, p, params, text, padic_cap=None):
    """Check a JSON certificate against the family's closed form."""
    try:
        cert = json.loads(text)
    except ValueError as exc:
        return ["certificate is not JSON: %s" % exc]
    errs = []
    if cert.get("construction") != family or cert.get("p") != p:
        errs.append("header names %r p=%r" % (cert.get("construction"), cert.get("p")))
    want_params = {"vd": -1} if family == "lemma33" else \
        {} if family == "two-ext" else {"depth": params["depth"]}
    if cert.get("params") != want_params:
        errs.append("params %r, expected %r" % (cert.get("params"), want_params))
    rows = cert.get("rows") or []
    errs += check_rows(family, p, params, rows)
    absorption = cert.get("absorption")
    if absorption != [True] * len(rows) or not rows:
        errs.append("absorption %r is not all true" % (absorption,))
    if not isinstance(cert.get("limit_claim"), str) or not cert["limit_claim"]:
        errs.append("missing limit claim")
    prec = cert.get("precision") or {}
    if family in ("as-valgp", "as-resf", "lemma33"):
        if prec != {"mode": "exact"}:
            errs.append("precision %r, expected exact" % (prec,))
    elif prec.get("mode") != "p-adic":
        errs.append("precision %r, expected p-adic" % (prec,))
    elif family == "kummer-valgp":
        used = prec.get("padic_positions")
        if padic_cap is not None and used != padic_cap:
            errs.append("padic_positions %r, expected the cap %d" % (used, padic_cap))
        if not isinstance(used, int) or used < (prec.get("required") or 0):
            errs.append("padic_positions %r below required %r"
                        % (used, prec.get("required")))
    return errs


def check_tsv(family, p, params, text):
    """Check the TSV projection: header, then one checked row per level."""
    lines = text.rstrip("\n").split("\n")
    if tuple(lines[0].split("\t")) != TSV_COLUMNS:
        return ["TSV header %r" % lines[0]]
    rows = [dict(zip(TSV_COLUMNS, ln.split("\t"))) for ln in lines[1:]]
    if any(len(ln.split("\t")) != len(TSV_COLUMNS) for ln in lines[1:]):
        return ["TSV row with the wrong number of columns"]
    return check_rows(family, p, params, rows)


def check_descriptor(p, text):
    """compose-desc: the x-adic head composed over the tame core at p."""
    try:
        d = json.loads(text)
    except ValueError as exc:
        return ["descriptor is not JSON: %s" % exc]
    errs = []
    flags = d.get("oracle_flags") or {}
    group = d.get("value_group") or {}
    comp = d.get("composition") or {}
    want = {
        "name": "xadic-over-tame-core-p%d" % p, "char": 0, "res_char": p,
        "vp": [[0, 1], [1, 1]],
    }
    for k, v in want.items():
        if d.get(k) != v:
            errs.append("%s = %r, expected %r" % (k, d.get(k), v))
    if (group.get("rank"), group.get("prime"), group.get("p_closed")) != (2, p, [1]):
        errs.append("value group %r is not Z x Z[1/p] lexicographic" % (group,))
    if (flags.get("henselian"), flags.get("defectless"), flags.get("tame")) != \
            (True, True, False):
        errs.append("flags %r: expected henselian, defectless, not tame" % (flags,))
    if (comp.get("core") or {}).get("name") != "tame-core-p%d" % p or \
            (comp.get("outer") or {}).get("res_char") != 0:
        errs.append("composition parts are not the tame core and an x-adic head")
    return errs


# ---------------------------------------------------------------------------
# classification


def check_verdicts(name, verdicts, oracle_tame, char, res_char):
    errs = []
    if set(verdicts) != set(VERDICT_KEYS):
        return ["%s: verdict keys %s" % (name, sorted(verdicts))]
    bad = {k: v for k, v in verdicts.items() if v not in ("true", "false", "unknown")}
    if bad:
        return ["%s: verdicts outside true/false/unknown: %r" % (name, bad)]
    if all(verdicts[k] != "unknown" for k in ("tame", "roughly_tame", "semitame", "rdr")):
        for premises, conclusion in IMPLICATIONS:
            if all(verdicts[k] == "true" for k in premises) and \
                    verdicts[conclusion] != "true":
                errs.append("%s: %s do not give %s" % (name, " and ".join(premises),
                                                      conclusion))
        if char > 0 and char == res_char and verdicts["roughly_tame"] != verdicts["tame"]:
            errs.append("%s: equal characteristic but roughly_tame != tame" % name)
    if oracle_tame is not None and verdicts["tame"] != "unknown" and \
            verdicts["tame"] != ("true" if oracle_tame else "false"):
        errs.append("%s: tame verdict %s disagrees with the oracle flag %s"
                    % (name, verdicts["tame"], oracle_tame))
    return errs


def check_classify(desc, text):
    """desc: the corpus member's own JSON (name, char, res_char, oracle flags)."""
    try:
        out = json.loads(text)
    except ValueError as exc:
        return ["classification is not JSON: %s" % exc]
    if out.get("descriptor") != desc["name"]:
        return ["report names %r, expected %r" % (out.get("descriptor"), desc["name"])]
    evidence = out.get("evidence") or {}
    errs = check_verdicts(desc["name"], out.get("verdicts") or {},
                          desc["oracle_flags"].get("tame"), desc["char"], desc["res_char"])
    if set(evidence) != set(VERDICT_KEYS) or not all(
            isinstance(v, str) and v.split(":")[0] in
            ("computed", "oracle", "derived", "not applicable")
            for v in evidence.values()):
        errs.append("%s: evidence without a provenance prefix" % desc["name"])
    return errs


def check_audit(descs, text):
    try:
        out = json.loads(text)
    except ValueError as exc:
        return ["audit is not JSON: %s" % exc]
    errs = []
    if out.get("checked") != len(descs) or out.get("violations") != []:
        errs.append("audit checked %r with violations %r"
                    % (out.get("checked"), out.get("violations")))
    verdicts = out.get("verdicts") or {}
    for d in descs:
        if d["name"] not in verdicts:
            errs.append("audit lacks %s" % d["name"])
            continue
        errs += check_verdicts(d["name"], verdicts[d["name"]],
                               d["oracle_flags"].get("tame"), d["char"], d["res_char"])
    return errs


# ---------------------------------------------------------------------------
# verify and hull


def check_verify(text):
    seen = {}
    for line in text.splitlines():
        mt = re.match(r"^(\w+): (\d+) passed, (\d+) failed$", line)
        if mt:
            seen[mt.group(1)] = (int(mt.group(2)), int(mt.group(3)))
    errs = []
    if tuple(sorted(seen)) != SUITE_NAMES:
        errs.append("suites reported: %s" % sorted(seen))
    for name, (passed, failed) in sorted(seen.items()):
        if failed or not passed:
            errs.append("%s: %d passed, %d failed" % (name, passed, failed))
    return errs


def _frac(pair):
    return Fraction(int(pair[0]), int(pair[1]))


def _strip(q, p):
    """q with every factor p removed from numerator and denominator."""
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    return Fraction(num, den)


def rank1_invariant(group):
    """(prime or 1, positive generator) naming a rank-1 group.

    Z-span of the gens is Z*g with g their rational gcd; once one gen
    is closed under p, the group is the Z[1/p]-module Z[1/p]*g, named
    by g with its p-factors stripped.
    """
    gens = [_frac(x) for x in group["gens"]]
    den = 1
    for q in gens:
        den = den * q.denominator // gcd(den, q.denominator)
    g = Fraction(0)
    for q in gens:
        g = Fraction(gcd(int(g * den), int(q * den)), den)
    if group.get("p_closed"):
        return group["prime"], _strip(g, group["prime"]) if g else g
    return 1, g


def hull_scale(kind, level, p):
    if kind == "p_div":
        return Fraction(1, p ** level)
    lcm = 1
    for m in range(1, level + 1):
        if m % p:
            lcm = lcm * m // gcd(lcm, m)
    return Fraction(1, lcm)


def check_hull(group, kind, level, p, text):
    """group: the input group JSON the benchmark wrote."""
    try:
        out = json.loads(text)
    except ValueError as exc:
        return ["hull output is not JSON: %s" % exc]
    errs = []
    rank = group["rank"]
    if out.get("rank") != rank:
        return ["hull rank %r, expected %d" % (out.get("rank"), rank)]
    if rank == 1:
        prime, g = rank1_invariant(group)
        if level == "exact":
            want = (p, _strip(g, p))
        else:
            scaled = g * hull_scale(kind, level, p)
            want = (prime, _strip(scaled, prime) if prime > 1 else scaled)
        got = rank1_invariant(out)
        if got != want:
            errs.append("rank-1 hull %s level %s of %r is %r, expected %r"
                        % (kind, level, group, got, want))
        return errs
    gens = [[_frac(c) for c in v] for v in group["gens"]]
    if level == "exact":
        want_gens, want_closed, want_prime = gens, list(range(len(gens))), p
    else:
        s = hull_scale(kind, level, p)
        want_gens = [[c * s for c in v] for v in gens]
        want_closed, want_prime = group["p_closed"], group["prime"]
    got_gens = [[_frac(c) for c in v] for v in out.get("gens") or []]
    if (got_gens, out.get("p_closed"), out.get("prime")) != \
            (want_gens, want_closed, want_prime):
        errs.append("rank-2 hull %s level %s of %r is %r" % (kind, level, group, out))
    return errs
