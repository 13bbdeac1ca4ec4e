"""Marching-squares contours and SVG output."""

import pytest

from curveforms import DegenerateWindow, MissingEmbedding, parse_polynomial
from curveforms.plotting import MAX_GRID, marching_squares, plot_svg, render_svg
from curveforms.poly import field_from_minpoly


def test_circle_contour_points_are_close_to_zero():
    f = parse_polynomial("x^2+y^2-1")
    window, grid = 2.0, 200
    segments = marching_squares(f, window, grid)
    assert segments
    # Lipschitz bound on a cell: |grad f| <= 2*sqrt(2)*R on the window
    cell = 2 * window / grid
    bound = 2 * (2 ** 0.5) * window * cell
    for seg in segments:
        for (px, py) in seg:
            assert abs(f.evaluate_float(px, py)) < bound


def test_empty_locus_has_no_paths():
    svg = plot_svg(parse_polynomial("1"), window=1.0, grid=50)
    assert "<path" not in svg
    assert svg.startswith("<svg")


def test_acampo_plot_is_nonempty_and_deterministic():
    f = parse_polynomial("x^5+y^5-x^2*y^2")
    first = plot_svg(f, window=1.5, grid=120)
    second = plot_svg(f, window=1.5, grid=120)
    assert first == second
    assert "<path" in first


def test_degenerate_window_rejected():
    f = parse_polynomial("x")
    with pytest.raises(DegenerateWindow):
        marching_squares(f, 0.0, 10)
    with pytest.raises(DegenerateWindow):
        marching_squares(f, 1.0, 1)


@pytest.mark.parametrize("window", [float("inf"), float("nan"), 1e308, 1e200])
def test_non_finite_window_cell_or_value_rejected(window):
    # at 1e308 the window is finite but the cell width 2*window/grid is not,
    # and at 1e200 the cell is finite but x^2 overflows a float
    with pytest.raises(DegenerateWindow):
        marching_squares(parse_polynomial("x^2+y^2-1"), window, 4)


class _Unsampled:
    def evaluate_float(self, *args):
        raise AssertionError("sampled a grid that should have been rejected")


def test_grid_cap_rejected_before_sampling():
    with pytest.raises(DegenerateWindow):
        marching_squares(_Unsampled(), 1.0, MAX_GRID + 1)
    with pytest.raises(AssertionError):  # the cap itself is accepted
        marching_squares(_Unsampled(), 1.0, MAX_GRID)


def test_extension_field_needs_embedding():
    field = field_from_minpoly("z^2-z-1")
    f = parse_polynomial("x^2+y^2-z", field)
    with pytest.raises(MissingEmbedding):
        marching_squares(f, 2.0, 20)
    segments = marching_squares(f, 2.0, 40, embedding=1.618033988749895)
    assert segments  # circle of radius sqrt(phi)


def test_render_svg_structure():
    svg = render_svg([((0.0, 0.0), (1.0, 1.0))], window=2.0, size=100)
    assert svg.count("<path") == 1
    assert 'width="100"' in svg
