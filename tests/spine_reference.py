"""Reference identification of spine points from square-chart values.

The retraction names the spine line an image lies on from the branch of its
corner ray (fig8plan.retraction.retract).  These helpers find the line again
the independent way, with EPS tests on the chart values (square, a, b) that
geometry.chart returns, and serve as the reference the tests compare against.
"""

from fig8plan.errors import DomainError
from fig8plan.geometry import EPS
from fig8plan.spine import ChainPoint, chain_point


def spine_circle(square: str, a: float, b: float) -> str | None:
    """The spine circle whose line holds a chart point, None off the spine.

    A mixed-square point on both cross lines is the C vertex, read on its H
    circle at theta = 1/2.
    """
    if square in ("AB", "BA"):
        first = square == "AB"
        if abs(b - 0.5) <= EPS:
            return "H1" if first else "H2"
        if abs(a - 0.5) <= EPS:
            return "V1" if first else "V2"
        return None
    if abs(abs(b - a) - 0.5) <= EPS:
        return "R" if square == "AA" else "Bc"
    return None


def spine_image(square: str, a: float, b: float) -> ChainPoint:
    """Identify a chart point lying on the spine; DomainError otherwise."""
    circle = spine_circle(square, a, b)
    if circle is None:
        raise DomainError(f"({square}, {a!r}, {b!r}) is not on the spine")
    return chain_point(circle, b if circle in ("V1", "V2") else a)


def on_spine(square: str, a: float, b: float) -> bool:
    return spine_circle(square, a, b) is not None
