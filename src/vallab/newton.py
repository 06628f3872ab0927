"""Lower Newton polygons over an ordered value group.

Ordinates are rank-1 values: Fractions, with INFINITE for a vanishing
coefficient; the polygon arithmetic on them stays exact.
"""

from __future__ import annotations

from .errors import PrecisionError, ValidationError
from .values import INFINITE, Indeterminate


def polygon_points(vals):
    """[(i, v(c_i))] for nonzero coefficients; indeterminate values refuse."""
    pts = []
    for i, v in enumerate(vals):
        if isinstance(v, Indeterminate):
            raise PrecisionError(
                "coefficient %d has indeterminate value (>= %s); raise the cap"
                % (i, v.bound))
        if v == INFINITE:
            continue
        pts.append((i, v))
    return pts


def _cross(a, b, c):
    # sign of the turn a -> b -> c; > 0 means b lies strictly below chord ac
    lhs = (b[1] - a[1]) * (c[0] - a[0])
    rhs = (c[1] - a[1]) * (b[0] - a[0])
    if lhs < rhs:
        return 1
    if lhs > rhs:
        return -1
    return 0


def lower_hull(pts):
    """Vertices of the lower convex hull, left to right."""
    if not pts:
        raise ValidationError("polygon of the zero polynomial")
    hull = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull


def segments(vals):
    """[(slope, horizontal length)] of the lower hull, slopes increasing."""
    hull = lower_hull(polygon_points(vals))
    out = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        out.append(((y1 - y0) / (x1 - x0), x1 - x0))
    return out


def root_values(vals):
    """Root values with multiplicities, largest value first.

    vals[i] is the value of the coefficient of X^i; the leading one must be
    determinate and finite.  A vanishing constant block contributes roots of
    value INFINITE.
    """
    pts = polygon_points(vals)
    if not pts:
        raise ValidationError("polygon of the zero polynomial")
    if pts[-1][0] != len(vals) - 1:
        raise ValidationError("leading coefficient must be nonzero")
    out = []
    if pts[0][0] > 0:
        out.append((INFINITE, pts[0][0]))
    for slope, length in segments(vals):
        out.append((-slope, length))
    return out
