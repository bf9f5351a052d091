"""Tests for the SVG rendering of plans."""

import numpy as np

from ramify.plan_model import (
    Path,
    PathPlan,
    build_fan_branches,
    build_star_plan,
    half_circle_targets,
)
from ramify.svg import render_svg, save_svg


def test_render_contains_segments_and_atoms():
    targets = half_circle_targets(4)
    plan = build_star_plan(targets, segments_per_path=3)
    text = render_svg(plan, alpha=0.5, targets=targets)
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<line") == 4 * 3
    # one circle per atom plus the root marker
    assert text.count("<circle") == 5


def test_render_is_deterministic():
    plan = build_fan_branches(5, segments=4)
    assert render_svg(plan) == render_svg(plan)


def test_render_flips_y_axis():
    # a segment rising from the origin must appear above it on screen,
    # which in SVG coordinates means a smaller y value
    plan = PathPlan(paths=(Path(vertices=np.array([[0.0, 0.0], [0.0, 1.0]]), mass=1.0),))
    text = render_svg(plan)
    lines = [l for l in text.split(">") if l.strip().startswith("<line")]
    first = lines[0]
    y1 = float(first.split('y1="')[1].split('"')[0])
    y2 = float(first.split('y2="')[1].split('"')[0])
    assert y2 < y1


def test_width_scales_with_flux():
    import re

    heavy = build_star_plan(half_circle_targets(1, total_mass=4.0), segments_per_path=1)
    light = build_star_plan(half_circle_targets(1, total_mass=0.25), segments_per_path=1)
    w_heavy = float(re.search(r'stroke-width="([0-9.]+)"', render_svg(heavy, alpha=0.5)).group(1))
    w_light = float(re.search(r'stroke-width="([0-9.]+)"', render_svg(light, alpha=0.5)).group(1))
    assert w_heavy > w_light


def test_no_negative_zero_coordinates():
    plan = build_star_plan(half_circle_targets(3), segments_per_path=2)
    assert "-0.000000" not in render_svg(plan)


def test_save_svg_writes_file(tmp_path):
    plan = build_fan_branches(2, segments=2)
    out = tmp_path / "plan.svg"
    save_svg(plan, str(out))
    assert out.read_text().startswith("<svg")


def test_a_one_path_document_with_a_negative_zero_coordinate():
    from ramify.plan_model import TargetMeasure

    # x = -1e-9 prints as -0.000000, which the document writes as 0.000000.
    plan = PathPlan(paths=(Path(vertices=np.array([[0.0, 0.0], [-1e-9, 1.0], [1.0, 1.0]]),
                                mass=1.0),))
    targets = TargetMeasure(positions=np.array([[1.0, 1.0]]), masses=np.array([1.0]))
    line = ('<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="#1f4e79" stroke-width="0.016820" '
            'stroke-linecap="round"/>')
    assert render_svg(plan, alpha=0.5, targets=targets) == "\n".join([
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        'viewBox="-0.080000 -0.080000 1.160000 1.160000">',
        '<rect x="-0.080000" y="-0.080000" width="1.160000" height="1.160000" fill="#ffffff"/>',
        line.format("0.000000", "1.000000", "0.000000", "0.000000"),
        line.format("0.000000", "0.000000", "1.000000", "0.000000"),
        '<circle cx="1.000000" cy="0.000000" r="0.009280" fill="#b22222"/>',
        '<circle cx="0.000000" cy="1.000000" r="0.012760" fill="#111111"/>',
        "</svg>",
        ""])
