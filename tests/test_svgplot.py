"""Vectorized scatter plots against the per-point loop they replaced."""

import numpy as np
import pytest

from ensdiag import svgplot
from ensdiag.svgplot import _VIRIDIS, Panel, _fmt


def value_color(value, lo, hi):
    """One point's color, as the per-point loop computed it."""
    t = 0.5 if hi <= lo else min(max((value - lo) / (hi - lo), 0.0), 1.0)
    pos = t * (len(_VIRIDIS) - 1)
    i = min(int(pos), len(_VIRIDIS) - 2)
    frac = pos - i
    rgb = _VIRIDIS[i] * (1 - frac) + _VIRIDIS[i + 1] * frac
    return "#{:02x}{:02x}{:02x}".format(*(int(round(v)) for v in rgb))


def loop_elements(panel, xs, ys, values, fill, r, opacity):
    """The per-point loop: skip non-finite and outside points, then one circle each,
    coloured fill(value)."""
    out = []
    for x, y, v in zip(xs, ys, values):
        if not (np.isfinite(x) and np.isfinite(y)):
            continue
        if not (panel.xlim[0] <= x <= panel.xlim[1] and panel.ylim[0] <= y <= panel.ylim[1]):
            continue
        out.append(f'<circle cx="{_fmt(panel.px(x))}" cy="{_fmt(panel.py(y))}" r="{r:g}" '
                   f'fill="{fill(v)}" fill-opacity="{opacity:g}"/>')
    return out


def awkward_points(rng, n):
    """Points around the panel limits, with NaN and infinities among them."""
    xs, ys = rng.uniform(-1.5, 1.5, n), rng.uniform(-0.5, 2.5, n)
    for v in (xs, ys):
        v[rng.choice(n, n // 10, replace=False)] = rng.choice([np.nan, np.inf, -np.inf], n // 10)
    xs[:3], ys[:3] = [-1.0, 1.0, 0.0], [0.0, 2.0, 2.0]  # exactly on the limits
    return xs, ys


def panel():
    return Panel(60, 40, 420, 300, (-1.0, 1.0), (0.0, 2.0))


# (lo, hi): equal, ordinary, reversed, and None for the finite range of the values.
LIMITS = [(0.3, 0.3), (-1.0, 1.5), (1.0, -1.0), None]


@pytest.mark.parametrize("trial", range(20))
def test_colored_scatter_matches_the_loop(trial):
    rng = np.random.default_rng(trial)
    n = int(rng.integers(3, 400))
    xs, ys = awkward_points(rng, n)
    values = rng.normal(size=n)
    values[rng.choice(n, n // 20, replace=False)] = rng.choice([np.inf, -np.inf], n // 20)
    lo, hi = LIMITS[trial % 4] or (float(values[np.isfinite(values)].min()), float(values[np.isfinite(values)].max()))
    values[np.isnan(xs)] = np.nan  # a skipped point's value is never read
    p = panel()
    p.colored_scatter(xs, ys, values, lo, hi, r=2.0)
    expected = loop_elements(panel(), xs.tolist(), ys.tolist(), values.tolist(),
                             lambda v: value_color(v, lo, hi), 2.0, 0.7)
    assert p.elements == expected


@pytest.mark.parametrize("trial", range(20))
def test_scatter_matches_the_loop(trial):
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(3, 400))
    xs, ys = awkward_points(rng, n)
    p = panel()
    # A list of floats, as the trends figure passes, and an array, as the others do.
    p.scatter(xs.tolist() if trial % 2 else xs, ys.tolist() if trial % 2 else ys, svgplot.IND_COLOR, r=3.5, opacity=0.8)
    expected = loop_elements(panel(), xs.tolist(), ys.tolist(), xs.tolist(), lambda v: svgplot.IND_COLOR, 3.5, 0.8)
    assert p.elements == expected


def test_gradient_ends_and_middle():
    p = panel()
    p.colored_scatter([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [-5.0, 0.5, 5.0], 0.0, 1.0)
    fills = [e.split('fill="')[1][:7] for e in p.elements]
    assert fills == ["#440154", value_color(0.5, 0.0, 1.0), "#fde725"]
    assert fills[1] == "#21918c"


def test_no_points():
    p = panel()
    p.scatter([], [], svgplot.IND_COLOR)
    p.colored_scatter(np.array([]), np.array([]), np.array([]), 0.0, 1.0)
    assert p.elements == []
