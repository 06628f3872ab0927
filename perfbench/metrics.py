"""Metric declarations, the per-layer metric map, and their computation.

END_TO_END are measured with tracing off; PER_LAYER come from the traced
run.  Each per-layer entry names the end-to-end metric and workload it
should move; the traced run prints that map next to the values.
"""

import statistics
from fnmatch import fnmatch
from pathlib import Path

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("ok_ratio", "ratio", "higher", 0.001),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

MODULES = ("__init__", "classify", "cli", "constructions", "corpus", "errors",
           "intlinalg", "newton", "ogroup", "resfield", "suites", "tower",
           "values", "vbase")

TOWERS = ("wall_s, op_tail_ms on eqchar-towers; peak_rss_mb there for "
          "caches")
PADIC = "wall_s, op_tail_ms on padic-towers"
CLI = "wall_s, op_p50_ms on cli-mix; small shares on the tower workloads"
INFO = "informational, not gated"

# span-name patterns per metric group; names are module.qualname
GROUPS = {
    "tower.pow": ("tower.TElem.__pow__",),
    "tower.mul": ("tower.TElem.__mul__",),
    "tower.val": ("tower.val",),
    "tower.residue": ("tower.residue",),
    "tower.adjoin": ("tower.adjoin_root",),
    "tower.resolve": ("tower.resolve_pending",),
    "vbase.series_mul": ("vbase.SeriesElem.__mul__",),
    "resfield.arith": ("resfield.RElem.*",),
    "vbase.zeta_lambda": ("vbase.zeta_lambda",),
    "vbase.padic_mul": ("vbase.PadicElem.__mul__",),
    "vbase.padic_div": ("vbase.PadicElem.__truediv__",),
    "ogroup.contains": ("ogroup.contains",),
    "ogroup.index": ("ogroup.index",),
    "ogroup.join": ("ogroup.join",),
    "ogroup.hull": ("ogroup.hull",),
    "ogroup.convex": ("ogroup.convex_core", "ogroup.is_roughly_p_divisible",
                      "ogroup.quotient_by_convex", "ogroup.project_trailing"),
    "classify.check": ("classify.check",),
    "classify.audit": ("classify.audit_implications",),
    "cli.main": ("cli.main",),
    "constructions.build": ("constructions.build_*",),
    "vbase.lambda_cache": ("vbase.cached_zeta_lambda",),
}
# whole-module self time
for _m in ("tower", "vbase", "resfield", "ogroup", "intlinalg", "newton",
           "values", "corpus", "classify", "suites"):
    GROUPS[_m] = (_m + ".*",)

# entry points that always get their own span, even when called from
# inside their own module (x**p inside val, mul inside pow, ...)
ALWAYS = tuple(pat for group, pats in GROUPS.items() if "." in group
               and group != "resfield.arith" for pat in pats)


def always_span(name):
    return any(fnmatch(name, pat) for pat in ALWAYS)


def _calls(group, moves, unit="count"):
    return (group + ".calls", unit, "lower", moves)


def _self(group, moves):
    return (group + ".self_s", "s", "lower", moves)


PER_LAYER = (
    _calls("tower.pow", TOWERS), _self("tower.pow", TOWERS),
    ("tower.pow.repeat_ratio", "ratio", "lower", TOWERS),
    _calls("tower.mul", TOWERS), _self("tower.mul", TOWERS),
    ("tower.mul.out_terms", "terms", "lower", TOWERS),
    _calls("tower.val", TOWERS), _self("tower.val", TOWERS),
    ("tower.val.r4_ratio", "ratio", "lower", TOWERS),
    _self("tower.residue", TOWERS), _self("tower.adjoin", TOWERS),
    _self("tower.resolve", TOWERS),
    _calls("vbase.series_mul", TOWERS), _self("vbase.series_mul", TOWERS),
    _calls("resfield.arith", TOWERS), _self("resfield.arith", TOWERS),
    _self("tower", TOWERS), _self("vbase", TOWERS), _self("resfield", TOWERS),
    _self("vbase.zeta_lambda", PADIC),
    ("vbase.zeta_lambda.total_s", "s", "lower", PADIC),
    _calls("vbase.padic_mul", PADIC), _self("vbase.padic_mul", PADIC),
    _calls("vbase.padic_div", PADIC), _self("vbase.padic_div", PADIC),
    ("vbase.lambda_cache.hit_ratio", "ratio", "higher",
     "0 under cold-cache traffic: repeat lookups within one build; " + INFO),
    _calls("ogroup.contains", CLI), _self("ogroup.contains", CLI),
    _calls("ogroup.index", CLI), _self("ogroup.index", CLI),
    _self("ogroup.join", CLI), _self("ogroup.hull", CLI),
    _self("ogroup.convex", CLI), _self("ogroup", CLI),
    _self("intlinalg", CLI), _self("newton", CLI), _self("values", CLI),
    _self("corpus", CLI), _self("classify", CLI),
    _self("classify.check", CLI), _self("classify.audit", CLI),
    _self("suites", CLI), _self("cli.main", CLI),
    ("tower.precision_errors", "count", "lower",
     "ok_ratio once a known defect is fixed"),
    ("errors.known_defects", "count", "lower",
     "ok_ratio; falls as the known defects are fixed"),
    _self("constructions.build", "wall_s on the tower workloads"),
    ("constructions.cert_changed", "count", "lower",
     "byte-identity gate for perf changes; " + INFO),
) + tuple(
    ("constructions.depth_growth.p%d" % p, "ratio", "lower",
     "wall_s, op_tail_ms on eqchar-towers (p^depth scaling)")
    for p in (2, 3, 5, 7)
) + (
    ("trace.overhead_ratio", "ratio", "lower", INFO),
    ("trace.unattributed_ratio", "ratio", "lower", INFO),
) + tuple(
    ("%s.src_lines" % ("package" if m == "__init__" else m), "lines", "lower",
     INFO) for m in MODULES
) + (("src.src_lines", "lines", "lower", INFO),)


def src_lines(root):
    """Line count per src/vallab module (0 for a module that is gone)."""
    out = {}
    total = 0
    for m in MODULES:
        path = Path(root) / "src" / "vallab" / (m + ".py")
        n = len(path.read_text().splitlines()) if path.is_file() else 0
        out["%s.src_lines" % ("package" if m == "__init__" else m)] = n
    for path in (Path(root) / "src" / "vallab").glob("*.py"):
        total += len(path.read_text().splitlines())
    out["src.src_lines"] = total
    return out


def low_quantile(values):
    """25th percentile, or the smallest value when there are fewer than 4."""
    xs = list(values)
    return statistics.quantiles(xs, n=4)[0] if len(xs) >= 4 else min(xs)


def tail(values):
    """(value, percentile, samples) of the order statistic with 10 samples
    beyond it (the smallest sample when there are 10 or fewer)."""
    xs = sorted(values)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * i / max(len(xs) - 1, 1), len(xs)


def depth_growth(ops, latency):
    """Per p: latency of the deepest grid point over the next-deepest."""
    out = {}
    for p in (2, 3, 5, 7):
        points = sorted((op.grow[1], latency[op.key]) for op in ops
                        if op.grow and op.grow[0] == p and op.key in latency)
        out["constructions.depth_growth.p%d" % p] = \
            points[-1][1] / points[-2][1] if len(points) >= 2 else 0.0
    return out


def layer_metrics(tracer):
    """Per-layer numbers from the spans of one traced pass."""
    names = tracer.names
    member = [[g for g, pats in GROUPS.items()
               if any(fnmatch(nm, pat) for pat in pats)] for nm in names]
    self_s = dict.fromkeys(GROUPS, 0.0)
    calls = dict.fromkeys(GROUPS, 0)
    nid = {nm: i for i, nm in enumerate(names)}
    val_id = nid.get("tower.val", -2)
    zeta_id = nid.get("vbase.zeta_lambda", -2)
    root_id = nid.get("op", -2)
    val_top = val_nested = 0
    zeta_total = root_self = root_total = 0.0
    cache_misses = set()
    name_col, parent_col = tracer.name, tracer.parent
    for i in range(len(tracer)):
        k = name_col[i]
        own = tracer.self_time(i)
        for g in member[k]:
            self_s[g] += own
            calls[g] += 1
        if k == root_id:
            root_self += own
            root_total += tracer.duration(i)
        elif k == val_id:
            if name_col[parent_col[i]] == val_id:
                val_nested += 1
            else:
                val_top += 1
        elif k == zeta_id:
            zeta_total += tracer.duration(i)
            cache_misses.add(parent_col[i])
    lookups = calls["vbase.lambda_cache"]
    misses = sum(1 for i in cache_misses
                 if i >= 0 and names[name_col[i]] == "vbase.cached_zeta_lambda")
    out = {}
    for name, unit, _, _ in PER_LAYER:
        group, _, what = name.rpartition(".")
        if what == "self_s" and group in GROUPS:
            out[name] = self_s[group]
        elif what == "calls" and group in GROUPS:
            out[name] = calls[group]
    out.update({
        "tower.pow.repeat_ratio": _ratio(tracer.pow_p_repeats, tracer.pow_p_calls),
        "tower.mul.out_terms": _ratio(tracer.mul_out_terms, tracer.mul_calls),
        "tower.val.r4_ratio": _ratio(val_nested, val_top),
        "vbase.zeta_lambda.total_s": zeta_total,
        "vbase.lambda_cache.hit_ratio": _ratio(lookups - misses, lookups),
        "tower.precision_errors": sum(
            1 for span, exc in tracer.errors
            if span.startswith("tower.") and type(exc).__name__ == "PrecisionError"),
        "trace.unattributed_ratio": _ratio(root_self, root_total),
    })
    return out


def _ratio(a, b):
    return a / b if b else 0.0
