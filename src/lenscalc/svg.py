"""Deterministic SVG rendering of almost toric base diagrams: polygon
outline, crosses at nodes, dashed cuts, and lens-space readout labels.
The exact JSON form of the diagram is embedded as a metadata comment."""

from __future__ import annotations

import math

from .atf import AtfDiagram, node_boundary_lens
from .errors import PreconditionError

_SCALE = 80
_MARGIN = 40


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def render_svg(d: AtfDiagram) -> str:
    den, verts, positions, ends, _ = d.frame
    xs = [p[0] for p in verts + positions + ends]
    ys = [p[1] for p in verts + positions + ends]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    # int / int rounds correctly, so each coordinate is float() of its exact
    # value; the extent bounds every projected coordinate
    try:
        width = (maxx - minx) / den * _SCALE + 2 * _MARGIN
        height = (maxy - miny) / den * _SCALE + 2 * _MARGIN
    except OverflowError:
        width = height = math.inf
    if not math.isfinite(width + height):
        raise PreconditionError("diagram extent exceeds the float range of the SVG projection")

    def project(p: tuple[int, int]) -> tuple[float, float]:
        # flip y so the mathematical orientation is upright on screen
        return (
            (p[0] - minx) / den * _SCALE + _MARGIN,
            height - ((p[1] - miny) / den * _SCALE + _MARGIN),
        )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f"<!-- lenscalc:diagram {d.json_text} -->",
    ]
    points = " ".join(
        f"{_fmt(px)},{_fmt(py)}" for px, py in (project(v) for v in verts)
    )
    lines.append(
        f'<polygon points="{points}" fill="none" stroke="black" stroke-width="1.5"/>'
    )
    for i, (position, end) in enumerate(zip(positions, ends)):
        nx, ny = project(position)
        cx, cy = project(end)
        lines.append(
            f'<line x1="{_fmt(nx)}" y1="{_fmt(ny)}" x2="{_fmt(cx)}" y2="{_fmt(cy)}" '
            'stroke="black" stroke-width="1" stroke-dasharray="4 3"/>'
        )
        r = 4.0
        lines.append(
            f'<line x1="{_fmt(nx - r)}" y1="{_fmt(ny - r)}" x2="{_fmt(nx + r)}" y2="{_fmt(ny + r)}" '
            'stroke="black" stroke-width="1.5"/>'
        )
        lines.append(
            f'<line x1="{_fmt(nx - r)}" y1="{_fmt(ny + r)}" x2="{_fmt(nx + r)}" y2="{_fmt(ny - r)}" '
            'stroke="black" stroke-width="1.5"/>'
        )
        try:
            label = str(node_boundary_lens(d, i))
        except PreconditionError:
            continue
        lines.append(
            f'<text x="{_fmt(cx + 6)}" y="{_fmt(cy - 6)}" font-size="12" '
            f'font-family="monospace">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
