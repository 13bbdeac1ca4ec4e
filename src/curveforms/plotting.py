"""Real-locus rendering of f = 0 by marching squares, emitted as SVG.

Float-based and explicitly non-certified; it never feeds back into exact
computations.  Deterministic for fixed inputs.
"""

from __future__ import annotations

from math import isfinite

from .errors import DegenerateWindow
from .poly import Polynomial

MAX_GRID = 2000  # cells per axis: at most 2001^2 float evaluations


def marching_squares(f: Polynomial, window: float, grid: int,
                     embedding=None):
    """Zero-contour segments of f on [-window, window]^2, traced on an
    (grid x grid)-cell lattice with linear interpolation along edges.

    Returns a list of ((x1, y1), (x2, y2)) segments in world coordinates.
    A grid outside 2..MAX_GRID, or a window or cell width 2*window/grid that
    is not positive and finite, raises DegenerateWindow before any sample;
    so does a window on which f overflows a float, once sampled.
    """
    if not 2 <= grid <= MAX_GRID:
        raise DegenerateWindow(f"need 2 to {MAX_GRID} cells per axis")
    n = grid
    step = 2.0 * window / n
    if not (window > 0 and isfinite(step)):
        raise DegenerateWindow("window and cell width must be positive and finite")
    coords = [-window + step * k for k in range(n + 1)]
    try:
        values = [[f.evaluate_float(coords[i], coords[j], embedding)
                   for j in range(n + 1)] for i in range(n + 1)]
        finite = all(isfinite(v) for row in values for v in row)
    except OverflowError:
        finite = False
    if not finite:
        raise DegenerateWindow("f overflows a float on this window")

    def cut(x1, y1, v1, x2, y2, v2):
        t = v1 / (v1 - v2)
        return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))

    segments = []
    for i in range(n):
        for j in range(n):
            x0, x1 = coords[i], coords[i + 1]
            y0, y1 = coords[j], coords[j + 1]
            v = (values[i][j], values[i + 1][j],
                 values[i + 1][j + 1], values[i][j + 1])
            signs = tuple(val < 0 for val in v)
            if all(signs) or not any(signs):
                continue
            crossings = []
            edges = (((x0, y0, v[0]), (x1, y0, v[1])),
                     ((x1, y0, v[1]), (x1, y1, v[2])),
                     ((x1, y1, v[2]), (x0, y1, v[3])),
                     ((x0, y1, v[3]), (x0, y0, v[0])))
            for (ax, ay, av), (bx, by, bv) in edges:
                if (av < 0) != (bv < 0):
                    crossings.append(cut(ax, ay, av, bx, by, bv))
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
            elif len(crossings) == 4:
                # saddle cell: resolve the pairing with the center sample
                center = f.evaluate_float((x0 + x1) / 2, (y0 + y1) / 2,
                                          embedding)
                if (center < 0) == signs[0]:
                    segments.append((crossings[0], crossings[3]))
                    segments.append((crossings[1], crossings[2]))
                else:
                    segments.append((crossings[0], crossings[1]))
                    segments.append((crossings[2], crossings[3]))
    return segments


def render_svg(segments, window: float, size: int = 640) -> str:
    """Wrap world-coordinate segments into a standalone SVG document."""
    scale = size / (2.0 * window)

    def sx(x):
        return (x + window) * scale

    def sy(y):
        return (window - y) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    if segments:
        parts = []
        for (x1, y1), (x2, y2) in segments:
            parts.append(f"M{sx(x1):.3f} {sy(y1):.3f}L{sx(x2):.3f} {sy(y2):.3f}")
        lines.append('<path d="' + "".join(parts)
                     + '" stroke="black" stroke-width="1" fill="none"/>')
    lines.append("</svg>")
    return "\n".join(lines)


def plot_svg(f: Polynomial, window: float = 1.5, grid: int = 200,
             embedding=None, size: int = 640) -> str:
    return render_svg(marching_squares(f, window, grid, embedding),
                      window, size)
