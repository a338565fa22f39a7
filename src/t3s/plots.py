"""Minimal static SVG emission for sweep results.

Hand-written SVG keeps the files small, dependency-free, and byte-stable
across runs, which matters because CI diffs them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

WIDTH, HEIGHT = 640, 480
MARGIN = 70

# blue -> yellow ramp, linearly interpolated
_STOPS = ((40, 60, 130), (60, 150, 160), (250, 220, 80))


def _color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    scaled = t * (len(_STOPS) - 1)
    i = min(int(scaled), len(_STOPS) - 2)
    f = scaled - i
    rgb = [
        round(_STOPS[i][c] + (_STOPS[i + 1][c] - _STOPS[i][c]) * f) for c in range(3)
    ]
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _svg(body: list[str], title: str) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _axis_labels(x_label: str, y_label: str) -> list[str]:
    """The x-axis title under the plot and the y-axis title rotated along its
    left edge."""
    return [
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 16}" text-anchor="middle">{x_label}</text>',
        f'<text x="20" y="{HEIGHT // 2}" text-anchor="middle" '
        f'transform="rotate(-90 20 {HEIGHT // 2})">{y_label}</text>',
    ]


def render_heatmap(
    path,
    x_values: Sequence,
    y_values: Sequence,
    grid: Sequence[Sequence[Optional[float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """grid[i][j] is the cell for (y_values[i], x_values[j]); None renders gray."""
    flat = [v for row in grid for v in row if v is not None]
    lo = min(flat) if flat else 0.0
    hi = max(flat) if flat else 1.0
    span = (hi - lo) or 1.0
    cw = (WIDTH - 2 * MARGIN) / len(x_values)
    ch = (HEIGHT - 2 * MARGIN) / len(y_values)
    body = []
    for i, yv in enumerate(y_values):
        for j, xv in enumerate(x_values):
            v = grid[i][j]
            x = MARGIN + j * cw
            y = MARGIN + i * ch
            fill = "rgb(200,200,200)" if v is None else _color((v - lo) / span)
            body.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{cw:.1f}" height="{ch:.1f}" '
                f'fill="{fill}" stroke="white"/>'
            )
            label = "-" if v is None else f"{v:.3g}"
            body.append(
                f'<text x="{x + cw / 2:.1f}" y="{y + ch / 2 + 4:.1f}" '
                f'text-anchor="middle" font-size="10">{label}</text>'
            )
    for j, xv in enumerate(x_values):
        body.append(
            f'<text x="{MARGIN + (j + 0.5) * cw:.1f}" y="{HEIGHT - MARGIN + 18}" '
            f'text-anchor="middle">{xv}</text>'
        )
    for i, yv in enumerate(y_values):
        body.append(
            f'<text x="{MARGIN - 8}" y="{MARGIN + (i + 0.5) * ch + 4:.1f}" '
            f'text-anchor="end">{yv}</text>'
        )
    body += _axis_labels(x_label, y_label)
    Path(path).write_text(_svg(body, title))


def render_line_chart(
    path,
    x_values: Sequence[float],
    y_values: Sequence[float],
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """One series of points (x_values[i], y_values[i]), joined by a line and
    named by `y_label` in the legend."""
    lo, hi = min(y_values), max(y_values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    x_lo, x_hi = min(x_values), max(x_values)
    x_span = (x_hi - x_lo) or 1.0

    def sx(x):
        return MARGIN + (x - x_lo) / x_span * (WIDTH - 2 * MARGIN)

    def sy(y):
        return HEIGHT - MARGIN - (y - lo) / (hi - lo) * (HEIGHT - 2 * MARGIN)

    color = "rgb(40,60,130)"
    body = [
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
    ]
    for x in x_values:
        body.append(
            f'<text x="{sx(x):.1f}" y="{HEIGHT - MARGIN + 18}" '
            f'text-anchor="middle">{x:g}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        yv = lo + frac * (hi - lo)
        body.append(
            f'<text x="{MARGIN - 8}" y="{sy(yv) + 4:.1f}" text-anchor="end">{yv:.3g}</text>'
        )
    pts = [(sx(x), sy(y)) for x, y in zip(x_values, y_values)]
    if len(pts) > 1:
        path_d = " ".join(f"{px:.1f},{py:.1f}" for px, py in pts)
        body.append(
            f'<polyline points="{path_d}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
    for px, py in pts:
        body.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="{color}"/>')
    body.append(
        f'<text x="{WIDTH - MARGIN}" y="{MARGIN}" text-anchor="end" '
        f'fill="{color}">{y_label}</text>'
    )
    body += _axis_labels(x_label, y_label)
    Path(path).write_text(_svg(body, title))
