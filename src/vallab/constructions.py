"""Named tower families with verified defect certificates.

Each builder assembles a concrete valued base, runs the degree-p
adjunctions through the classifier, resolves pending steps from explicit
witness elements, and re-checks the key identities before handing back a
certificate.  Anything that fails to verify raises ValidationError: a
certificate is only produced when the arithmetic actually worked out.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError
from .ogroup import contains, ogroup
from .resfield import ResField
from .tower import (DefectCertificate, Tower, adjoin_root, pth_power,
                    residue, resolve_pending, step_row, val, vlb)
from .values import INFINITE, fr
from .vbase import EqBase, PadicBase, PadicElem, require_prime, zeta_lambda


@dataclass
class BuildResult:
    certificate: DefectCertificate
    towers: list
    extras: dict = field(default_factory=dict)


def _check(cond: bool, msg: str):
    if not cond:
        raise ValidationError("construction self-check failed: " + msg)


def _adjoin(tower: Tower, relation: str, a, name: str, outcome: str):
    """adjoin_root, checked for the outcome the construction predicts."""
    adj = adjoin_root(tower, relation, a, name)
    _check(adj.outcome == outcome, "adjoining %s should give %s, got %s"
           % (name, outcome, adj.outcome))
    return adj


def _row(rows: list, n: int, tower: Tower, kind: str):
    """Check the tower's last step as a `kind` step and append its row n.

    The shape follows from the kind: a ramified step is (e, f, m) =
    (p, 1, 0), a residue jump (1, p, 0); the degree is p either way.  A
    residue jump's residue sits one perfection level up, at the level the
    step gave the tower.
    """
    step, p = tower.steps[-1], tower.p
    shape = (p, 1, 0) if kind == "ramified" else (1, p, 0)
    _check(step.kind == kind and
           (step.degree, step.e, step.f, step.m) == (p,) + shape,
           "step %d (%s) should be %s with (e, f, m) = %s"
           % (n, step.name, kind, shape))
    _check(kind == "ramified" or
           step.new_residue.least_level() == tower.res_level(),
           "the residue of step %d should sit one perfection level up" % n)
    rows.append(step_row(n, step))
    return step


def _chase(tower: Tower, depth: int):
    """The witness top - sum of the floors over a tower of `depth` floors
    and a top generator, checked for v(w^p + last floor) >= 0: the pure
    terms of w^p plus the floor have R1 bound >= 0, and so does the rest,
    the least bound of a mixed term."""
    w = tower.gen_elem(depth)
    for i in range(depth):
        w = w - tower.gen_elem(i)
    kept, rest = pth_power(w)
    bound = min(vlb(kept + tower.gen_elem(depth - 1)), rest)
    _check(bound >= 0, "v(w^p + last floor) >= 0 fails: bound %s" % (bound,))
    return w


# ---------------------------------------------------------------------------
# equal characteristic, growing value group
# ---------------------------------------------------------------------------


def build_as_valgp(p: int, depth: int = 3) -> BuildResult:
    """x^p = x + t^(-1) over F_p((t^(1/p^n Z))) for n = 0..depth.

    Every level meets the same relation; the root's value -1/p^(n+1)
    always escapes the level-n exponents, so each step is ramified with
    e = p, f = 1.  In the union the value group is p-divisible and the
    relation degenerates to an immediate extension: defect p.
    """
    require_prime(p)
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    rows, absorb, towers, witnesses = [], [], [], []
    for n in range(depth + 1):
        base = EqBase(p, ResField(p), ogroup([Fraction(1, p ** n)], prime=p))
        t0 = Tower(base)
        a = t0.from_base(base.monomial(-1))
        if n == 0:
            done = _adjoin(t0, "as", a, "x", "ramified").tower
            w = done.gen_elem(0)
        else:
            tw = _adjoin(t0, "as", a, "x", "no_step_detected").tower
            tail = base.series((Fraction(-1, p ** k), 1) for k in range(1, n + 1))
            w = tw.gen_elem(0) - tw.from_base(tail)
        rhs = base.monomial(Fraction(-1, p ** n))
        _check((w ** p - w - w.tower.from_base(rhs)).is_zero(),
               "witness relation at level %d" % n)
        if n:
            text = "b%d = x - sum_(k=1..%d) t^(-1/p^k)" % (n, n)
            done = resolve_pending(tw, w, text)
        val_n = Fraction(-1, p ** (n + 1))
        _check(_row(rows, n, done, "ramified").new_value == val_n,
               "witness value at level %d" % n)
        absorb.append(contains(done.group, (val_n,)))
        towers.append(done)
        witnesses.append(w)
    cert = DefectCertificate(
        "as-valgp", p, {"depth": depth}, rows, absorb,
        "every finite level repeats the ramified step e = p, f = 1 and its "
        "root value is absorbed one level up; over the union (exponents "
        "Z[1/p]) the same relation becomes immediate with defect p",
        {"mode": "exact"})
    return BuildResult(cert, towers, {"witnesses": witnesses})


def build_lemma_3_3(p: int) -> BuildResult:
    """x^p = x + t^(-p) u over F_p(u)((t)): one residue jump.

    The twist d = t^(-1) moves the relation to value -p while the residue
    equation stays y^p = u, which has no root in F_p(u); hence e = 1,
    f = p and no defect.
    """
    require_prime(p)
    base = EqBase(p, ResField(p, "ratfun"), ogroup([fr(1)], prime=p))
    t0 = Tower(base)
    a = t0.from_base(base.monomial(-p, base.res.gen()))
    adj = _adjoin(t0, "as", a, "x", "residue")
    rows = []
    _row(rows, 1, adj.tower, "residue")
    _check(adj.residue_root == base.res.gen().pth_root_extend(),
           "residue root should be u^(1/p)")
    cert = DefectCertificate(
        "lemma33", p, {"vd": -1}, rows, [True],
        "a single inseparable residue jump: e = 1, f = p, m = 0; the root "
        "u^(1/p) lies in the perfect hull of the residue field",
        {"mode": "exact"})
    return BuildResult(cert, [adj.tower], {"residue_root": adj.residue_root})


def build_as_resf(p: int, depth: int = 2) -> BuildResult:
    """x^p = x + u t^(-1) over F_p(u)((t^Z[1/p])) after `depth` floors.

    The floors adjoin u^(1/p^i) through Kummer relations (each a residue
    jump, f = p).  On top of them the main relation no longer forces a
    step on its own; the witness b = x - sum u^(1/p^k) t^(-1/p^k) reads
    off one more residue jump.  In the union the residue field is the
    perfect hull and the relation becomes immediate: defect p.
    """
    require_prime(p)
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    res = ResField(p, "ratfun")
    base = EqBase(p, res, ogroup([fr(1)], closed={0}, prime=p))
    tw = Tower(base)
    rows, roots = [], []
    for i in range(1, depth + 1):
        rhs = tw.from_base(base.monomial(0, res.gen())) if i == 1 \
            else tw.gen_elem(i - 2)
        adj = _adjoin(tw, "kummer", rhs, "c%d" % i, "residue")
        tw = adj.tower
        _row(rows, i, tw, "residue")
        roots.append(adj.residue_root)
    a = tw.from_base(base.monomial(-1, res.gen()))
    if depth == 0:
        done = _adjoin(tw, "as", a, "x", "residue").tower
        w = done.gen_elem(0)
    else:
        tw = _adjoin(tw, "as", a, "x", "no_step_detected").tower
        tail, coeff = [], res.gen()
        for k in range(1, depth + 1):
            coeff = coeff.pth_root_extend()
            tail.append((Fraction(-1, p ** k), coeff))
        w = tw.gen_elem(depth) - tw.from_base(base.series(tail))
        mtop = base.monomial(Fraction(-1, p ** depth), coeff)
        _check((w ** p - w - tw.from_base(mtop)).is_zero(),
               "witness relation at depth %d" % depth)
        divisor = tw.from_base(base.monomial(Fraction(-1, p ** (depth + 1))))
        text = "b%d = x - sum_(k=1..%d) u^(1/p^k) t^(-1/p^k)" % (depth, depth)
        done = resolve_pending(tw, w, text, divisor)
    wres = _row(rows, depth + 1, done, "residue").new_residue
    _check(val(w) == Fraction(-1, p ** (depth + 1)), "witness value")
    cert = DefectCertificate(
        "as-resf", p, {"depth": depth}, rows, [True] * (depth + 1),
        "each level adds one inseparable residue jump e = 1, f = p and the "
        "witness residue u^(1/p^(depth+1)) is absorbed one level up; over "
        "the perfect hull the relation becomes immediate with defect p",
        {"mode": "exact"})
    return BuildResult(cert, [done],
                       {"witness": w, "witness_residue": wres,
                        "floor_roots": roots})


# ---------------------------------------------------------------------------
# mixed characteristic
# ---------------------------------------------------------------------------


def _cyclo_base(p: int, extra_p_power: int = 0, gauss: bool = False) -> PadicBase:
    """Totally ramified base containing zeta_p, coarsened by p^extra:
    E = (p-1)*p^extra with w^E = -p, as zeta_lambda needs at odd p (at
    p = 2, zeta_2 = -1 lies in every ring, and w^E = +2)."""
    return PadicBase(p, (p - 1) * p ** extra_p_power, 1 if p == 2 else -1, gauss)


def build_kummer_valgp(p: int, depth: int = 2, padic_cap: int = None) -> BuildResult:
    """x^p = lambda^(-1) over Q_p(zeta_p) plus Artin-Schreier floors.

    lambda = zeta_p - 1 has value 1/(p-1); the floors a_1, a_2, ... chase
    the value of lambda^(-1/p^i) without ever reaching the base group, so
    all steps are ramified with e = p, f = 1.  The witness
    b_k = a - sum a_i ties the top Kummer relation to the floors.
    """
    require_prime(p)
    if depth < 1:
        raise ValidationError("depth must be at least 1")
    # p is the least cap that builds: lambda needs one above E = p - 1
    # (for p = 2, lambda = -2 sits at E = 1) and nothing else needs more
    # (checked for p <= 13 at depth 1-4, and p <= 7 to depth 6)
    if padic_cap is None:
        padic_cap = p
    if not isinstance(padic_cap, int) or isinstance(padic_cap, bool):
        raise ValidationError("padic_cap must be an int, got %r" % (padic_cap,))
    base = _cyclo_base(p)
    lam = zeta_lambda(base, padic_cap)
    if lam.prec == INFINITE:
        # exact lambda (p = 2): the cap keeps a0's text, + O(w^(cap - 2))
        lam = PadicElem(base, dict(lam.digits), padic_cap)
    a0 = base.one() / lam
    alpha = Fraction(-1, p - 1)
    _check(a0.val() == alpha, "v(1/lambda) should be -1/(p-1)")

    tw = Tower(base)
    rows = []
    for i in range(1, depth + 1):
        rhs = tw.from_base(a0) if i == 1 else -tw.gen_elem(i - 2)
        tw = _adjoin(tw, "as", rhs, "a%d" % i, "ramified").tower
        _check(_row(rows, i, tw, "ramified").new_value == alpha / p ** i,
               "floor %d value" % i)
    tw = _adjoin(tw, "kummer", tw.from_base(a0), "a", "unsupported_step").tower
    w = _chase(tw, depth)
    done = resolve_pending(tw, w, "b%d = a - sum_(i=1..%d) a_i" % (depth, depth))
    top_val = alpha / p ** (depth + 1)
    _check(_row(rows, depth + 1, done, "ramified").new_value == top_val,
           "top witness value")
    absorb = [contains(done.group, (alpha / p ** i,))
              for i in range(1, depth + 2)]
    cert = DefectCertificate(
        "kummer-valgp", p, {"depth": depth}, rows, absorb,
        "all steps are ramified with e = p, f = 1 and the witness value "
        "-1/((p-1) p^(depth+1)) is reached by the next floor; in the union "
        "the exponent group is p-divisible and the Kummer relation becomes "
        "immediate with defect p",
        {"mode": "p-adic", "padic_positions": padic_cap, "required": p})
    return BuildResult(cert, [done], {"witness": w, "witness_value": top_val,
                                      "a0": a0, "lam": lam})


def build_2ext(p: int) -> BuildResult:
    """Two independent residue jumps whose compositum forces a third.

    Over a Gauss-extended cyclotomic base with v(w) = 1/((p-1)p^2), the
    relations x^p = a/w^(p^2) (Kummer) and y^p = y + a/w^(p^2)
    (Artin-Schreier) each adjoin u^(1/p).  Over the first one the second
    relation forces nothing by itself; the witness e = y - x has value
    -v(w) and e/w^(-1) has residue u^(1/p^2): a third jump.
    """
    require_prime(p)
    base = _cyclo_base(p, 2, gauss=True)
    E = base.E
    d = base.monomial(Fraction(-1, E))
    rhs0 = base.u_elem() * d ** (p * p)

    rows = []
    t0 = Tower(base)
    tK = _adjoin(t0, "kummer", t0.from_base(rhs0), "x", "residue")
    _row(rows, 1, tK.tower, "residue")
    t1 = Tower(base)
    tA = _adjoin(t1, "as", t1.from_base(rhs0), "y", "residue")
    _row(rows, 2, tA.tower, "residue")
    u_p = base.residue_field.gen().pth_root_extend()
    _check(tK.residue_root == u_p and tA.residue_root == u_p,
           "both residue roots should be u^(1/p)")

    tw = _adjoin(tK.tower, "as", tK.tower.from_base(rhs0), "y",
                 "no_step_detected").tower
    e_el = tw.gen_elem(1) - tw.gen_elem(0)
    _check(val(e_el) == Fraction(-1, E), "witness value should be -v(w)")
    done = resolve_pending(tw, e_el, "e = y - x", tw.from_base(d))
    wres = _row(rows, 3, done, "residue").new_residue
    _check(wres == u_p.pth_root_extend(), "composite residue should be u^(1/p^2)")

    xK = tK.tower.gen_elem(0)
    rK = residue(xK / tK.tower.from_base(d ** p))
    yA = tA.tower.gen_elem(0)
    rA = residue(yA / tA.tower.from_base(d ** p))
    _check(rK == u_p and rA == u_p, "unit residues x/d^p and y/d^p")

    cert = DefectCertificate(
        "two-ext", p, {}, rows, [True, True, True],
        "each side adjoins u^(1/p) with e = 1, f = p; over either side the "
        "other relation is trivial on its own, yet the compositum still "
        "jumps: the witness e = y - x has residue u^(1/p^2) after dividing "
        "by w^(-1)",
        {"mode": "p-adic", "padic_positions": None, "required": 0})
    return BuildResult(cert, [tK.tower, tA.tower, done],
                       {"witness": e_el, "unit_residues": [rK, rA],
                        "witness_residue": wres})


def build_kummer_resf(p: int, depth: int = 2) -> BuildResult:
    """x^p = u/p over a Gauss ring plus Artin-Schreier floors.

    With rho^(p^m) = p available in the base (m = depth + 1), the scaled
    witnesses b_i / rho^(-p^(m-i)) have residues generating the perfect
    hull of F_p(u) step by step; every level is a residue jump with f = p
    and the top relation's witness c_k = x - sum b_i reads off one more.
    """
    require_prime(p)
    if depth < 1:
        raise ValidationError("depth must be at least 1")
    m = depth + 1
    base = _cyclo_base(p, m, gauss=True)
    rho = base.from_digits({p - 1: -1}) if p > 2 else base.from_digits({1: 1})
    _check((rho ** (p ** m) - base.from_int(p)).is_zero(),
           "rho^(p^m) should equal p exactly")
    dd = [base.one() / rho ** (p ** (m - i)) for i in range(m + 1)]
    b0 = base.u_elem() * dd[0]
    _check(b0.val() == fr(-1), "v(u/p) should be -1")

    tw = Tower(base)
    rows, unit_res = [], []
    for i in range(1, depth + 1):
        rhs = tw.from_base(b0) if i == 1 else -tw.gen_elem(i - 2)
        tw = _adjoin(tw, "as", rhs, "b%d" % i, "residue").tower
        _row(rows, i, tw, "residue")
        bi = tw.gen_elem(i - 1)
        _check(val(bi) == Fraction(-1, p ** i), "floor %d value" % i)
        ri = residue(bi / tw.from_base(dd[i]))
        _check(ri.least_level() == i,
               "residue of b%d/d%d should sit at perfection level %d" % (i, i, i))
        unit_res.append(ri)
    tw = _adjoin(tw, "kummer", tw.from_base(b0), "b", "no_step_detected").tower
    w = _chase(tw, depth)
    _check(val(w) == Fraction(-1, p ** (depth + 1)), "witness value")
    done = resolve_pending(
        tw, w, "c%d = x - sum_(i=1..%d) b_i" % (depth, depth),
        tw.from_base(dd[depth + 1]))
    wres = _row(rows, depth + 1, done, "residue").new_residue
    cert = DefectCertificate(
        "kummer-resf", p, {"depth": depth}, rows, [True] * (depth + 1),
        "every level is an inseparable residue jump e = 1, f = p and the "
        "witness residue at the top sits one perfection level up, absorbed "
        "by the next stage; over the perfect hull the relation becomes "
        "immediate with defect p",
        {"mode": "p-adic", "padic_positions": None, "required": 0})
    return BuildResult(cert, [done],
                       {"witness": w, "witness_residue": wres,
                        "unit_residues": unit_res, "b0": b0})


BUILDERS = {
    "as-valgp": build_as_valgp,
    "lemma33": build_lemma_3_3,
    "as-resf": build_as_resf,
    "kummer-valgp": build_kummer_valgp,
    "two-ext": build_2ext,
    "kummer-resf": build_kummer_resf,
}
