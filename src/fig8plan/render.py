"""Layered SVG rendering of the flat four-square configuration picture.

The canvas shows the four coordinate squares: AA top-left, AB top-right,
BA bottom-left, BB bottom-right, each with robot 1 along x and robot 2 along
y (y flipped so coordinates grow upward).  Removed collision diagonals are
dashed, identified square edges carry matching tick marks, and the squares,
diagonals, spine, retraction traces, planned path and vertices each get a
layer of their own.  The output is a self-contained SVG 1.1 document with
inline styles only.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError
from .geometry import SAME_CIRCLE_SQUARES, ChartLeg, chart, configuration
from .planner import Plan
from .spine import CHAIN_VERTICES, HALF_ARCS, VERTEX_CONFIG, arc_leg

_SQUARE_CELL = {"AA": (0, 0), "AB": (1, 0), "BA": (0, 1), "BB": (1, 1)}
# Glued-edge ticks per circle; the horizontal edges add two (see _square).
_TICK_COUNT = {"A": 1, "B": 2}
# The removed collision diagonals, and the spine as its twelve half arcs.
_DIAGONALS = [ChartLeg(c1, 0.0, 1.0, c2, 0.0, 1.0) for c1, c2 in SAME_CIRCLE_SQUARES]
_SPINE = [arc_leg(circle, t0, t1) for circle, t0, _, t1, _ in HALF_ARCS]

# Canvas border and the space between squares, in px.
_MARGIN = 40.0
_GAP = 56.0

_STYLE = """
  .square-outline { fill: #fdfdfb; stroke: #555; stroke-width: 1.5; }
  .square-label { font: 13px sans-serif; fill: #777; }
  .removed { stroke: #c0392b; stroke-width: 1.2; stroke-dasharray: 6 5; fill: none; }
  .tick { stroke: #999; stroke-width: 1.2; }
  .spine-arc { stroke: #2c7fb8; stroke-width: 2.2; fill: none; }
  .vertex { fill: #253494; stroke: #fff; stroke-width: 1.2; }
  .vertex-label { font: 11px sans-serif; fill: #253494; }
  .trace { stroke: #41ab5d; stroke-width: 1.6; fill: none; opacity: 0.85; }
  .plan-path { stroke: #e6550d; stroke-width: 2.6; fill: none; stroke-linecap: round; }
  .start-marker { fill: #e6550d; stroke: #7a2d06; stroke-width: 1; }
  .end-marker { fill: #fff; stroke: #7a2d06; stroke-width: 2; }
"""


class RenderSpec(namedtuple("RenderSpec", "size")):
    """Canvas geometry: the side of the square canvas in px."""

    __slots__ = ()

    def __new__(cls, size: float = 720.0):
        if not math.isfinite(size) or size - 2.0 * _MARGIN - _GAP < 40.0:
            raise DomainError(
                f"canvas size {size!r} px is not finite or too small for the four-square layout"
            )
        return tuple.__new__(cls, (size,))

    @property
    def side(self) -> float:
        return (self.size - 2.0 * _MARGIN - _GAP) / 2.0

    def origin(self, square: str) -> tuple[float, float]:
        col, row = _SQUARE_CELL[square]
        step = self.side + _GAP
        return _MARGIN + col * step, _MARGIN + row * step

    def to_xy(self, square: str, a: float, b: float) -> tuple[float, float]:
        ox, oy = self.origin(square)
        return ox + a * self.side, oy + (1.0 - b) * self.side


def _f(v: float) -> str:
    return f"{v:.2f}"


def _lines(spec: RenderSpec, legs, cls: str) -> list[str]:
    """Draw chart legs or path segments: both carry circle1, a0, a1, circle2, b0, b1."""
    out = []
    for leg in legs:
        square = leg.circle1 + leg.circle2
        x1, y1 = spec.to_xy(square, leg.a0, leg.b0)
        x2, y2 = spec.to_xy(square, leg.a1, leg.b1)
        out.append(f'<line class="{cls}" x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}"/>')
    return out


def _group(name: str, items) -> list[str]:
    """One layer of the picture: its items wrapped in a <g> element."""
    return [f'<g id="{name}">', *items, "</g>"]


def _square(spec: RenderSpec, square: str) -> list[str]:
    """A square's outline, label and glued-edge ticks.

    Glued edges carry the same number of ticks: the vertical edges a = 0, 1
    of every square with robot 2 on one circle are glued at the track center
    (one tick for circle A, two for B), likewise the horizontal edges b = 1, 0
    by robot 1's circle (three or four ticks).
    """
    ox, oy = spec.origin(square)
    parts = [
        f'<rect class="square-outline" x="{_f(ox)}" y="{_f(oy)}"'
        f' width="{_f(spec.side)}" height="{_f(spec.side)}"/>',
        f'<text class="square-label" x="{_f(ox + 6)}" y="{_f(oy + 16)}">{square}</text>',
    ]
    for a, b in ((0.0, 0.5), (1.0, 0.5), (0.5, 1.0), (0.5, 0.0)):
        # ticks spread along their edge, each crossing it over 7 px either side
        along_x = a == 0.5
        n = _TICK_COUNT[square[0]] + 2 if along_x else _TICK_COUNT[square[1]]
        mid_x, mid_y = spec.to_xy(square, a, b)
        dx, dy = (0.0, 7.0) if along_x else (7.0, 0.0)
        for i in range(n):
            off = (-(n - 1) / 2.0 + i) * 10.0
            x, y = (mid_x + off, mid_y) if along_x else (mid_x, mid_y + off)
            parts.append(
                f'<line class="tick" x1="{_f(x - dx)}" y1="{_f(y - dy)}"'
                f' x2="{_f(x + dx)}" y2="{_f(y + dy)}"/>'
            )
    return parts


def _vertex(spec: RenderSpec, name: str) -> list[str]:
    x, y = spec.to_xy(*chart(VERTEX_CONFIG[name]))
    return [
        f'<circle class="vertex" cx="{_f(x)}" cy="{_f(y)}" r="4.5"/>',
        f'<text class="vertex-label" x="{_f(x + 7)}" y="{_f(y - 6)}">{name}</text>',
    ]


def _marker_pair(spec: RenderSpec, plan: Plan) -> list[str]:
    sx, sy = spec.to_xy(*chart(configuration(*plan.path.chart_at(0.0))))
    ex, ey = spec.to_xy(*chart(configuration(*plan.path.chart_at(1.0))))
    r = 6.0
    triangle = (
        f'<path class="start-marker" d="M {_f(sx)} {_f(sy - r)}'
        f' L {_f(sx - r)} {_f(sy + r)} L {_f(sx + r)} {_f(sy + r)} Z"/>'
    )
    square = (
        f'<rect class="end-marker" x="{_f(ex - r + 1)}" y="{_f(ey - r + 1)}"'
        f' width="{_f(2 * r - 2)}" height="{_f(2 * r - 2)}"/>'
    )
    return [triangle, square]


def render_svg(plan: Plan | None = None, spec: RenderSpec | None = None) -> str:
    """Render the four-square picture, optionally with a plan, as SVG text."""
    if spec is None:
        spec = RenderSpec()
    s = _f(spec.size)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{s}"'
        f' height="{s}" viewBox="0 0 {s} {s}">',
        f"<style>{_STYLE}</style>",
        f'<rect x="0" y="0" width="{s}" height="{s}" fill="#ffffff"/>',
    ]
    parts += _group("squares", [item for square in _SQUARE_CELL for item in _square(spec, square)])
    parts += _group("diagonal", _lines(spec, _DIAGONALS, "removed"))
    parts += _group("spine", _lines(spec, _SPINE, "spine-arc"))
    if plan is not None:
        parts += _group("traces", _lines(spec, plan.trace_in + plan.trace_out, "trace"))
        moves = [seg for seg in plan.path.segments if seg.a0 != seg.a1 or seg.b0 != seg.b1]
        parts += _group("path", _lines(spec, moves, "plan-path") + _marker_pair(spec, plan))
    parts += _group("vertices", [item for name in CHAIN_VERTICES for item in _vertex(spec, name)])
    parts.append("</svg>")
    return "\n".join(parts)
