"""Deterministic SVG rendering of floorplans and vertical links.

One document per layer: cells as labeled rectangles, routers as filled
squares at cell centers (color-coded by kind), KOZs as hatched patches, and
vertical-link tethers drawn from the router to its partner's planar position.
Component ids are escaped (&, <, >), so any id gives well-formed XML except
one holding a control character, which XML 1.0 cannot hold at all.
"""

from __future__ import annotations

from typing import Sequence
from xml.sax.saxutils import escape

from .model import (
    ROUTER_2D,
    MeshFloorplan,
    VerticalLink,
    router_connects_down,
)

_SCALE = 24.0     # px per mm
_MARGIN = 20.0
_ROUTER_FILL = {"2d": "#4477aa", "3d-up": "#228833", "3d-down": "#aa3377",
                "3d-both": "#ee6677"}


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_layer_svg(fp: MeshFloorplan, vlinks: Sequence[VerticalLink] = (),
                     koz_area: float = 0.0) -> str:
    """SVG text for one layer; deterministic for identical inputs."""
    w = fp.width * _SCALE + 2 * _MARGIN
    h = fp.height * _SCALE + 2 * _MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w)}" '
        f'height="{_fmt(h)}" viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        "<defs><pattern id=\"koz\" width=\"6\" height=\"6\" "
        "patternUnits=\"userSpaceOnUse\" patternTransform=\"rotate(45)\">"
        "<rect width=\"6\" height=\"6\" fill=\"#ffeecc\"/>"
        "<line x1=\"0\" y1=\"0\" x2=\"0\" y2=\"6\" stroke=\"#cc8844\" "
        "stroke-width=\"2\"/></pattern></defs>",
        f'<text x="{_fmt(_MARGIN)}" y="14" font-family="monospace" '
        f'font-size="12">layer {fp.layer}  {_fmt(fp.width)} x {_fmt(fp.height)} mm</text>',
    ]

    def px(x: float) -> float:
        return _MARGIN + x * _SCALE

    x_edges = [0.0]
    for wdt in fp.col_widths:
        x_edges.append(x_edges[-1] + wdt)
    y_edges = [0.0]
    for hgt in fp.row_heights:
        y_edges.append(y_edges[-1] + hgt)

    for r in range(fp.rows):
        for c in range(fp.cols):
            comp = fp.cell_of[r][c]
            fill = "#f5f5f5" if comp is None else "#dde7f0"
            parts.append(
                f'<rect x="{_fmt(px(x_edges[c]))}" y="{_fmt(px(y_edges[r]))}" '
                f'width="{_fmt(fp.col_widths[c] * _SCALE)}" '
                f'height="{_fmt(fp.row_heights[r] * _SCALE)}" '
                f'fill="{fill}" stroke="#888" stroke-width="1"/>')
            if fp.koz_of[r][c] > 0 and koz_area > 0:
                side = (koz_area * fp.koz_of[r][c]) ** 0.5 * _SCALE
                parts.append(
                    f'<rect x="{_fmt(px(x_edges[c]) + 2)}" '
                    f'y="{_fmt(px(y_edges[r]) + 2)}" width="{_fmt(side)}" '
                    f'height="{_fmt(side)}" fill="url(#koz)" stroke="#cc8844"/>')
            if comp is not None:
                cx, cy = fp.cell_center(r, c)
                kind = fp.router_kind[r][c] or ROUTER_2D
                parts.append(
                    f'<rect x="{_fmt(px(cx) - 5)}" y="{_fmt(px(cy) - 5)}" '
                    f'width="10" height="10" '
                    f'fill="{_ROUTER_FILL.get(kind, "#4477aa")}"/>')
                parts.append(
                    f'<text x="{_fmt(px(x_edges[c]) + 4)}" '
                    f'y="{_fmt(px(y_edges[r]) + 14)}" font-family="monospace" '
                    f'font-size="11">{escape(comp)}</text>')

    for v in sorted(vlinks, key=lambda v: (v.lower, v.upper)):
        own = v.upper if v.upper[0] == fp.layer else v.lower if v.lower[0] == fp.layer else None
        if own is None:
            continue
        other = v.lower if own == v.upper else v.upper
        ox, oy = fp.cell_center(own[1], own[2])
        # the partner's planar position is only meaningful on a shared canvas;
        # draw the tether from this router toward the RD direction
        parts.append(
            f'<circle cx="{_fmt(px(ox))}" cy="{_fmt(px(oy))}" r="7" fill="none" '
            f'stroke="{"#aa3377" if router_connects_down(fp.router_kind[own[1]][own[2]]) else "#228833"}" '
            f'stroke-width="2" stroke-dasharray="3,2"/>')
        parts.append(
            f'<text x="{_fmt(px(ox) + 8)}" y="{_fmt(px(oy) - 8)}" '
            f'font-family="monospace" font-size="9">'
            f'rd={_fmt(v.rd_length)} to L{other[0]}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_svg(floorplans: Sequence[MeshFloorplan],
               vlinks: Sequence[VerticalLink] = (),
               koz_area: float = 0.0) -> dict[int, str]:
    """One SVG document per layer, keyed by layer index."""
    return {fp.layer: render_layer_svg(fp, vlinks, koz_area) for fp in floorplans
            if fp.rows > 0}
