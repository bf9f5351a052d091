"""Deterministic SVG rendering of irrigation and branch plans.

Line widths scale with transported flux raised to the cost exponent, so
trunks carrying bundled mass read thicker than single fibers. Output is
plain text with fixed six-decimal formatting and no timestamps; the same
plan renders to the identical byte sequence on every run.
"""

from __future__ import annotations

import numpy as np

from .plan_model import segment_table

LINE_COLOR = "#1f4e79"
ATOM_COLOR = "#b22222"
ROOT_COLOR = "#111111"
BACKGROUND = "#ffffff"
WIDTH_MIN_FRACTION = 0.0025
WIDTH_SCALE_FRACTION = 0.012
ATOM_RADIUS_FRACTION = 0.008
ROOT_RADIUS_FRACTION = 0.011
PIXEL_WIDTH = 640


def _fmt(value: float) -> str:
    out = format(float(value), ".6f")
    return "0.000000" if out == "-0.000000" else out


def _bounds(plan, targets):
    points = [plan.all_vertices(), np.zeros((1, 2))]
    if targets is not None:
        points.append(np.asarray(targets.positions, dtype=float))
    stacked = np.vstack(points)
    lo = stacked.min(axis=0)
    hi = stacked.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.08 * float(span.max())
    return lo - pad, hi + pad


def _stroke_width(flux: float, alpha: float, scale: float) -> float:
    return scale * (WIDTH_MIN_FRACTION + WIDTH_SCALE_FRACTION * flux ** alpha)


def _rows(template: str, columns: np.ndarray) -> str:
    """``template`` filled from each row of the float array ``columns``, one
    line a row; a quoted -0.000000 reads 0.000000, as :func:`_fmt` writes it."""
    text = "\n".join([template] * len(columns)) % tuple(columns.ravel().tolist())
    return text.replace('"-0.000000"', '"0.000000"')


def render_svg(plan, alpha: float = 0.5, targets=None) -> str:
    """Render a plan to an SVG document string.

    ``targets`` optionally draws the atoms of a target measure. ``alpha``
    sets the flux exponent used for stroke widths.
    """
    table = segment_table(plan)
    lo, hi = _bounds(plan, targets)
    span = hi - lo
    scale = float(max(span[0], span[1]))
    pixel_height = max(1, round(PIXEL_WIDTH * span[1] / span[0]))

    def flip(y):  # so that larger y renders upward
        return hi[1] - y + lo[1]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PIXEL_WIDTH}" '
        f'height="{pixel_height}" viewBox="{_fmt(lo[0])} {_fmt(lo[1])} '
        f'{_fmt(span[0])} {_fmt(span[1])}">',
        f'<rect x="{_fmt(lo[0])}" y="{_fmt(lo[1])}" width="{_fmt(span[0])}" '
        f'height="{_fmt(span[1])}" fill="{BACKGROUND}"/>',
    ]
    if table.size:
        # Python-float powers, one a segment: numpy's vector power may round differently.
        widths = [_stroke_width(flux, alpha, scale) for flux in table.flux.tolist()]
        lines.append(_rows(
            f'<line x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f" stroke="{LINE_COLOR}" '
            'stroke-width="%.6f" stroke-linecap="round"/>',
            np.column_stack([table.a[:, 0], flip(table.a[:, 1]),
                             table.b[:, 0], flip(table.b[:, 1]), widths])))
    if targets is not None:
        positions = np.asarray(targets.positions, dtype=float)
        lines.append(_rows(
            f'<circle cx="%.6f" cy="%.6f" r="{_fmt(ATOM_RADIUS_FRACTION * scale)}" '
            f'fill="{ATOM_COLOR}"/>', np.column_stack([positions[:, 0], flip(positions[:, 1])])))
    lines.append(f'<circle cx="{_fmt(0.0)}" cy="{_fmt(flip(0.0))}" '
                 f'r="{_fmt(ROOT_RADIUS_FRACTION * scale)}" fill="{ROOT_COLOR}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def save_svg(plan, path, alpha: float = 0.5, targets=None):
    """Write :func:`render_svg` output to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_svg(plan, alpha=alpha, targets=targets))
