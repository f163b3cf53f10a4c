"""Deterministic SVG rendering of 2D upper sets: each set is clipped to the
viewport box and drawn as a filled polygon from its vertex/ray data."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Tuple

from .kernel import LatticeError, UpperSet

_PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377")


class DimensionUnsupported(LatticeError):
    pass


def _clip_polygon(upper: UpperSet, lo: Fraction, hi: Fraction):
    """Vertices (CCW) of the set intersected with the [lo, hi]^2 box."""
    box = [
        (1, 0, hi.numerator, hi.denominator),
        (-1, 0, -lo.numerator, lo.denominator),
        (0, 1, hi.numerator, hi.denominator),
        (0, -1, -lo.numerator, lo.denominator),
    ]
    facets = list(upper.facets) + box
    canon, pts, _ = upper.workspace.geom.vrep_from_hrep(facets)
    if canon is None:
        return []
    cart = [(Fraction(p[0], p[2]), Fraction(p[1], p[2])) for p in pts]
    if len(cart) <= 2:
        return cart
    cx = sum(p[0] for p in cart) / len(cart)
    cy = sum(p[1] for p in cart) / len(cart)

    def angle_key(p):
        import math

        return math.atan2(float(p[1] - cy), float(p[0] - cx))

    return sorted(cart, key=angle_key)


def render_svg(named_sets: Sequence[Tuple[str, UpperSet]]) -> str:
    """SVG document showing the named sets clipped to [-5, 5]^2."""
    for _, s in named_sets:
        if s.workspace.dim != 2:
            raise DimensionUnsupported("plotting needs a two-dimensional workspace")
    lo, hi, size = Fraction(-5), Fraction(5), 480  # [lo, hi]^2 on size x size pixels
    span = hi - lo

    def sx(v: Fraction) -> str:
        return f"{float((v - lo) / span * size):.2f}"

    def sy(v: Fraction) -> str:
        return f"{float((hi - v) / span * size):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white" stroke="black"/>',
    ]
    zero_x, zero_y = sx(Fraction(0)), sy(Fraction(0))
    parts.append(
        f'<line x1="{zero_x}" y1="0" x2="{zero_x}" y2="{size}" stroke="#cccccc"/>'
    )
    parts.append(
        f'<line x1="0" y1="{zero_y}" x2="{size}" y2="{zero_y}" stroke="#cccccc"/>'
    )
    legend = []
    for idx, (name, s) in enumerate(named_sets):
        color = _PALETTE[idx % len(_PALETTE)]
        if s.is_empty:
            legend.append((name + " (empty)", color))
            continue
        poly = _clip_polygon(s, lo, hi)
        legend.append((name, color))
        if not poly:
            continue
        if len(poly) == 1:
            p = poly[0]
            parts.append(
                f'<circle cx="{sx(p[0])}" cy="{sy(p[1])}" r="3" fill="{color}"/>'
            )
        elif len(poly) == 2:
            a, b = poly
            parts.append(
                f'<line x1="{sx(a[0])}" y1="{sy(a[1])}" x2="{sx(b[0])}" '
                f'y2="{sy(b[1])}" stroke="{color}" stroke-width="2"/>'
            )
        else:
            coords = " ".join(f"{sx(p[0])},{sy(p[1])}" for p in poly)
            parts.append(
                f'<polygon points="{coords}" fill="{color}" fill-opacity="0.35" '
                f'stroke="{color}"/>'
            )
    for idx, (label, color) in enumerate(legend):
        y = 18 + 16 * idx
        parts.append(f'<rect x="8" y="{y - 10}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="24" y="{y}" font-size="12" font-family="monospace">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
