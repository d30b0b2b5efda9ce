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
from .geometry import PhysPath, chart, configuration
from .planner import Plan
from .spine import CHAIN_CIRCLES, CHAIN_VERTICES, VERTEX_CONFIG, arc_leg

_SQUARE_CELL = {"AA": (0, 0), "AB": (1, 0), "BA": (0, 1), "BB": (1, 1)}

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


def _line(spec: RenderSpec, square: str, p0, p1, cls: str) -> str:
    x1, y1 = spec.to_xy(square, *p0)
    x2, y2 = spec.to_xy(square, *p1)
    return f'<line class="{cls}" x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}"/>'


def _leg_line(spec: RenderSpec, leg, cls: str) -> str:
    """Draw a chart leg or path segment: both carry circle1, a0, a1, circle2, b0, b1."""
    return _line(spec, leg.circle1 + leg.circle2, (leg.a0, leg.b0), (leg.a1, leg.b1), cls)


def _squares_layer(spec: RenderSpec) -> list[str]:
    parts = ['<g id="squares">']
    for square in _SQUARE_CELL:
        ox, oy = spec.origin(square)
        parts.append(
            f'<rect class="square-outline" x="{_f(ox)}" y="{_f(oy)}"'
            f' width="{_f(spec.side)}" height="{_f(spec.side)}"/>'
        )
        parts.append(
            f'<text class="square-label" x="{_f(ox + 6)}" y="{_f(oy + 16)}">{square}</text>'
        )
        parts.extend(_edge_ticks(spec, square))
    parts.append("</g>")
    return parts


def _edge_ticks(spec: RenderSpec, square: str) -> list[str]:
    # Edge identification classes: all four vertical edges whose off-axis
    # robot shares a circle are glued at the track center, likewise the
    # horizontal ones.  The tick count (1..4) names the class.
    counts = {"A": 1, "B": 2}
    a_class = counts[square[1]]
    b_class = counts[square[0]] + 2
    ox, oy = spec.origin(square)
    side = spec.side
    ticks = []
    span = 7.0
    pitch = 10.0

    def run(n, mid_x, mid_y, along_x):
        out = []
        start = -(n - 1) / 2.0
        for i in range(n):
            off = (start + i) * pitch
            if along_x:
                x, y = mid_x + off, mid_y
                out.append(
                    f'<line class="tick" x1="{_f(x)}" y1="{_f(y - span)}"'
                    f' x2="{_f(x)}" y2="{_f(y + span)}"/>'
                )
            else:
                x, y = mid_x, mid_y + off
                out.append(
                    f'<line class="tick" x1="{_f(x - span)}" y1="{_f(y)}"'
                    f' x2="{_f(x + span)}" y2="{_f(y)}"/>'
                )
        return out

    ticks += run(a_class, ox, oy + side / 2.0, along_x=False)
    ticks += run(a_class, ox + side, oy + side / 2.0, along_x=False)
    ticks += run(b_class, ox + side / 2.0, oy, along_x=True)
    ticks += run(b_class, ox + side / 2.0, oy + side, along_x=True)
    return ticks


def _diagonal_layer(spec: RenderSpec) -> list[str]:
    parts = ['<g id="diagonal">']
    for square in ("AA", "BB"):
        parts.append(_line(spec, square, (0.0, 0.0), (1.0, 1.0), "removed"))
    parts.append("</g>")
    return parts


def _spine_layer(spec: RenderSpec) -> list[str]:
    parts = ['<g id="spine">']
    parts.extend(
        _leg_line(spec, arc_leg(c, t, t + 0.5), "spine-arc") for c in CHAIN_CIRCLES for t in (0.0, 0.5)
    )
    parts.append("</g>")
    return parts


def _vertices_layer(spec: RenderSpec) -> list[str]:
    parts = ['<g id="vertices">']
    for name in CHAIN_VERTICES:
        x, y = spec.to_xy(*chart(VERTEX_CONFIG[name]))
        parts.append(f'<circle class="vertex" cx="{_f(x)}" cy="{_f(y)}" r="4.5"/>')
        parts.append(
            f'<text class="vertex-label" x="{_f(x + 7)}" y="{_f(y - 6)}">{name}</text>'
        )
    parts.append("</g>")
    return parts


def _path_lines(spec: RenderSpec, path: PhysPath, cls: str) -> list[str]:
    lines = []
    for seg in path.segments:
        if seg.a0 == seg.a1 and seg.b0 == seg.b1:
            continue
        lines.append(_leg_line(spec, seg, cls))
    return lines


def _traces_layer(spec: RenderSpec, plan: Plan) -> list[str]:
    parts = ['<g id="traces">']
    parts.extend(_leg_line(spec, leg, "trace") for leg in plan.trace_in + plan.trace_out)
    parts.append("</g>")
    return parts


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


def _path_layer(spec: RenderSpec, plan: Plan) -> list[str]:
    parts = ['<g id="path">']
    parts.extend(_path_lines(spec, plan.path, "plan-path"))
    parts.extend(_marker_pair(spec, plan))
    parts.append("</g>")
    return parts


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
    parts.extend(_squares_layer(spec))
    parts.extend(_diagonal_layer(spec))
    parts.extend(_spine_layer(spec))
    if plan is not None:
        parts.extend(_traces_layer(spec, plan))
        parts.extend(_path_layer(spec, plan))
    parts.extend(_vertices_layer(spec))
    parts.append("</svg>")
    return "\n".join(parts)
