"""SVG output: layer structure, element counts, and path-on-spine geometry."""

import hashlib
import math
import re

import pytest

from fig8plan.geometry import configuration
from fig8plan.planner import plan
from fig8plan.render import RenderSpec, render_svg
from fig8plan.spine import VERTEX_CONFIG

LINE_RE = r'<line class="{cls}" x1="([\d.+-]+)" y1="([\d.+-]+)" x2="([\d.+-]+)" y2="([\d.+-]+)"/>'


def lines_of(svg, cls):
    pat = re.compile(LINE_RE.format(cls=cls))
    return [tuple(float(g) for g in m.groups()) for m in pat.finditer(svg)]


def point_on_segment(px, py, seg, tol=0.05):
    x1, y1, x2, y2 = seg
    length = math.hypot(x2 - x1, y2 - y1)
    if length == 0.0:
        return math.hypot(px - x1, py - y1) <= tol
    cross = abs((x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)) / length
    if cross > tol:
        return False
    dot = ((px - x1) * (x2 - x1) + (py - y1) * (y2 - y1)) / length**2
    return -1e-6 <= dot <= 1.0 + 1e-6


def test_spine_only_render_counts():
    svg = render_svg()
    assert svg.count('class="spine-arc"') == 12
    assert svg.count('class="vertex"') == 6
    assert svg.count('class="removed"') == 2
    for layer in ("squares", "diagonal", "spine", "vertices"):
        assert f'<g id="{layer}">' in svg
    # no plan, so no path or trace layers
    assert '<g id="path">' not in svg
    assert '<g id="traces">' not in svg


# sha256 of render_svg() per canvas size: the default, the smallest legal
# canvas (size - 2 * 40 - 56 = 40 px for the two squares), a size whose
# coordinates do not round evenly, and a large one.
SPINE_RENDERS = {
    720.0: "ad282500df05a18e96212257bc8c228961a22a479144ff2ceafdc4ca134884b0",
    176.0: "060beee7e82d0930d028404a882242a125ed2799388ab9a379fb5b32a787f0cf",
    333.3: "2d9a9b75604f8ae88c9eb666cda34cf53921351fad224e1841f0e225a8bbfd71",
    1500.0: "922541be6022bd3b38da4e65b3c1abe09f99ebdaa17364220a7b1417bbb5cb85",
}


@pytest.mark.parametrize("size", SPINE_RENDERS)
def test_spine_only_render_is_frozen(size):
    # The spine layer draws the twelve half arcs, one arc_leg each; the
    # digest pins the picture byte for byte.
    digest = hashlib.sha256(render_svg(spec=RenderSpec(size)).encode()).hexdigest()
    assert digest == SPINE_RENDERS[size]


# sha256 of render_svg(plan(start, goal)): the README pair (also the
# mixed_circles demo), the other two demo scenarios, and a pair with a robot
# at the center at each end, which puts the markers in mixed squares.
PLAN_RENDERS = {
    "readme": (
        configuration("A", 0.3, "B", 0.7),
        configuration("B", 0.25, "A", 0.6),
        "ccc04233d4f6916f43e9efd6e91e720345e107120a485c9000ffeb7b41e99086",
    ),
    "same_circle": (
        configuration("A", 0.12, "A", 0.62),
        configuration("A", 0.8, "A", 0.3),
        "6611d4f23a0f70616c9002af2eae765e2a733d6a82fb6894f75af8b6c3542ddf",
    ),
    "vertex_to_vertex": (
        VERTEX_CONFIG["C1"],
        VERTEX_CONFIG["C2"],
        "41f857a76ab9b2254adfd11da63135d11242a2e3bf6ef6735e02cb274c3b573d",
    ),
    "center": (
        configuration("A", 0.0, "B", 0.3),
        configuration("A", 0.7, "B", 0.0),
        "b09314c7aa28405683a520409cb3888e1f690d4b3f5a414f550d405182de9595",
    ),
}


@pytest.mark.parametrize("name", PLAN_RENDERS)
def test_plan_render_is_frozen(name):
    start, goal, expected = PLAN_RENDERS[name]
    assert hashlib.sha256(render_svg(plan(start, goal)).encode()).hexdigest() == expected


def test_svg_is_self_contained():
    svg = render_svg()
    assert svg.startswith("<svg")
    assert 'xmlns="http://www.w3.org/2000/svg"' in svg
    assert "href" not in svg
    assert svg.count("http") == 1  # the xmlns only


def test_identified_edges_carry_matching_ticks():
    svg = render_svg()
    # vertical-edge classes pair AA with BA (robot 2 on circle A) and AB with
    # BB; horizontal-edge classes pair AA with AB and BA with BB.  Tick counts
    # per square: AA 1+1+3+3, AB 2+2+3+3, BA 1+1+4+4, BB 2+2+4+4.
    assert svg.count('class="tick"') == 40


def test_plan_render_has_path_and_markers():
    p = plan(configuration("A", 0.1, "A", 0.3), configuration("B", 0.2, "B", 0.6))
    svg = render_svg(p)
    assert len(lines_of(svg, "plan-path")) > 0
    assert len(lines_of(svg, "trace")) > 0
    assert svg.count('<path class="start-marker"') == 1
    assert svg.count('<rect class="end-marker"') == 1


def test_vertex_plan_path_lies_on_spine_arcs():
    p = plan(VERTEX_CONFIG["C1"], VERTEX_CONFIG["C2"])
    svg = render_svg(p)
    arcs = lines_of(svg, "spine-arc")
    assert len(arcs) == 12
    path_lines = lines_of(svg, "plan-path")
    assert path_lines
    for x1, y1, x2, y2 in path_lines:
        assert any(
            point_on_segment(x1, y1, arc) and point_on_segment(x2, y2, arc)
            for arc in arcs
        ), f"path line ({x1},{y1})-({x2},{y2}) leaves the spine"


def test_empty_plan_renders_marker_pair_only():
    c = VERTEX_CONFIG["HA"]
    p = plan(c, c)
    svg = render_svg(p)
    assert lines_of(svg, "plan-path") == []
    assert lines_of(svg, "trace") == []
    assert svg.count('<path class="start-marker"') == 1
    assert svg.count('<rect class="end-marker"') == 1


@pytest.mark.parametrize("size", [100.0, 175.99])
def test_canvas_too_small_rejected(size):
    with pytest.raises(ValueError):
        RenderSpec(size=size)
