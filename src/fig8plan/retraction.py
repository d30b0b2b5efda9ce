"""Deformation retraction of the configuration space onto its spine.

Every off-spine point flows along a straight chart ray to the spine, scaling
its offset vector from a reference corner of its square.  In a mixed square
the reference corner is the nearest corner; the ray pushes the larger offset
coordinate out to the 1/2 cross line.  In a same-circle square the reference
corner is the puncture the diagonal does not touch, (0, 1) above the diagonal
and (1, 0) below it; scaling from that corner moves a point onto the
sub-diagonal |b - a| = 1/2 without ever crossing the diagonal, and the family
stays continuous across all square gluings.

The scale factor lambda multiplying the offset vector equals 1 exactly on the
spine.  It grows near the removed corner states but stays finite for every
valid configuration, so every one of them is mapped.  In a same-circle square
sigma = |b - a| > 0 (the diagonal is removed) and 1 - sigma >= 2 SNAP_EPS
(a CirclePoint is the center or at least SNAP_EPS away from it); in a mixed
square the offset m from the nearest corner is at least SNAP_EPS
(the double-center state is removed).  So lambda <= 1 / (2 SNAP_EPS) = 5e11,
and the image is a bounded rescaling inside the square.

The ray's branch names the spine line it meets (the sub-diagonal, the cross
line b = 1/2 when the image's b is exactly 1/2, else a = 1/2), so the image
angle goes straight to chain_point, whose vertex snap is the only one.
"""

from __future__ import annotations

from collections import namedtuple

from .geometry import SAME_CIRCLE_SQUARES, ChartLeg, Configuration, chart
from .spine import A_HALF, B_HALF, LINE_CIRCLE, SUB_DIAGONAL, chain_point


def region_corner(square: str, a: float, b: float) -> tuple[int, int]:
    """Reference corner a chart point retracts away from."""
    if square in SAME_CIRCLE_SQUARES:
        return (0, 1) if b > a else (1, 0)
    return (0 if a <= 0.5 else 1, 0 if b <= 0.5 else 1)


def retract_flat(square: str, a: float, b: float) -> tuple[float, float, float]:
    """Project a chart point onto the spine along its corner ray.

    Returns the image's chart values (a, b) in the input's own square, which
    may read 0 or 1 at the center, and the ray scale lambda; lambda == 1
    exactly when the input already lies on the spine, and then it is its own
    image.  A same-circle input is returned as it is, since rebuilding it
    from the corner would move it by rounding; in a mixed square the corner
    is 0 or 1, and the rebuilt image is exact.  A same-circle input must not
    read 0 or 1 (a robot at the center), where the formula leaves the square;
    chart() puts such a configuration in a mixed square.
    """
    ca, cb = region_corner(square, a, b)
    ua, ub = a - ca, b - cb
    if square in SAME_CIRCLE_SQUARES:
        sigma = abs(b - a)
        scale = 1.0 / (2.0 * (1.0 - sigma))
        if scale == 1.0:
            return a, b, scale
        a_out = ca + scale * ua
        b_out = a_out + 0.5 if (ca, cb) == (0, 1) else a_out - 0.5
    else:
        m = max(abs(ua), abs(ub))
        scale = 0.5 / m
        if abs(ua) >= abs(ub):
            a_out = 0.5
            b_out = cb + scale * ub
            if abs(ub) == m:
                b_out = 0.5
        else:
            a_out = ca + scale * ua
            b_out = 0.5
    return a_out, b_out, scale


class RetractResult(namedtuple("RetractResult", "point scale leg")):
    """Where a configuration lands on the spine (ChainPoint, ray scale
    lambda) and the ChartLeg that gets it there."""

    __slots__ = ()


def retract(c: Configuration) -> RetractResult:
    """Retract a configuration onto the spine along its straight chart leg.

    The leg runs from the input to the chart values of the returned spine
    point inside the input's own square, read once from chart(c); it is
    collision free because the corner ray never meets the diagonal.  An
    image within EPS of a vertex snaps onto it (chain_point), and the leg
    then ends on the vertex itself, so the spine walk starts exactly where
    the leg stops.
    """
    square, a0, b0 = chart(c)
    a, b, scale = retract_flat(square, a0, b0)
    if square in SAME_CIRCLE_SQUARES:
        point = chain_point(LINE_CIRCLE[square, SUB_DIAGONAL], a)
    elif b == 0.5:
        point = chain_point(LINE_CIRCLE[square, B_HALF], a)
    else:
        point = chain_point(LINE_CIRCLE[square, A_HALF], b)
    if point.is_vertex:
        a, b = round(2.0 * a) / 2.0, round(2.0 * b) / 2.0
    leg = ChartLeg(square[0], a0, a, square[1], b0, b)
    return RetractResult(point, scale, leg)
