"""Minimal hand-rolled SVG figures.

Plots are emitted as plain SVG text with fixed-precision coordinates and
no generation timestamp, so a rerun with the same inputs reproduces the
file byte for byte. Every <text> element comes from one template, `_text`,
and every axis tick mark from `_tick`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

IND_COLOR = "#1f77b4"
OOD_COLOR = "#d95f02"
SINGLE_COLOR = "#2ca02c"
ENSEMBLE_COLOR = "#9467bd"
LINE_COLOR = "#333333"
FONT = "font-family=\"Helvetica, Arial, sans-serif\""

_VIRIDIS = np.array(
    [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)],
    dtype=np.float64,
)


def _value_colors(values: np.ndarray, lo: float, hi: float) -> list[str]:
    """Hex colors of values along a dark-to-bright gradient from lo to hi;
    every value takes the middle color when hi <= lo."""
    t = np.full(values.shape, 0.5) if hi <= lo else np.clip((values - lo) / (hi - lo), 0.0, 1.0)
    pos = t * (len(_VIRIDIS) - 1)
    i = np.minimum(pos.astype(np.int64), len(_VIRIDIS) - 2)
    frac = (pos - i)[:, None]
    rgb = np.round(_VIRIDIS[i] * (1 - frac) + _VIRIDIS[i + 1] * frac).astype(np.int64)
    return [f"#{c:06x}" for c in (rgb[:, 0] << 16 | rgb[:, 1] << 8 | rgb[:, 2]).tolist()]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.3g}"


def _text(x: float, y: float, text: str, size: int, color: str, anchor: str, *, bold: bool, rotate: bool) -> str:
    """One <text> element anchored at (x, y); a rotated one turns -90 degrees about that point."""
    weight = ' font-weight="bold"' if bold else ""
    turn = f' transform="rotate(-90 {_fmt(x)} {_fmt(y)})"' if rotate else ""
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" {FONT} font-size="{size}"{weight} fill="{color}" '
            f'text-anchor="{anchor}"{turn}>{text}</text>')


def _tick(x1: float, y1: float, x2: float, y2: float) -> str:
    """One axis tick mark from (x1, y1) to (x2, y2)."""
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{LINE_COLOR}" stroke-width="1"/>')


class Panel:
    """One axes rectangle with data-coordinate drawing helpers."""

    def __init__(
        self,
        x0: float,
        y0: float,
        width: float,
        height: float,
        xlim: tuple[float, float],
        ylim: tuple[float, float],
        title: str = "",
        xlabel: str = "",
        ylabel: str = "",
    ) -> None:
        if not (xlim[1] > xlim[0] and ylim[1] > ylim[0]):
            xlim = (xlim[0], xlim[0] + 1.0) if xlim[1] <= xlim[0] else xlim
            ylim = (ylim[0], ylim[0] + 1.0) if ylim[1] <= ylim[0] else ylim
        self.x0, self.y0, self.width, self.height = x0, y0, width, height
        self.xlim, self.ylim = xlim, ylim
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel
        self.elements: list[str] = []

    def px(self, x: float) -> float:
        t = (x - self.xlim[0]) / (self.xlim[1] - self.xlim[0])
        return self.x0 + t * self.width

    def py(self, y: float) -> float:
        t = (y - self.ylim[0]) / (self.ylim[1] - self.ylim[0])
        return self.y0 + self.height - t * self.height

    def _kept(self, xs, ys) -> tuple[np.ndarray, list[str], list[str]]:
        """Mask of the finite points inside the limits, and their pixel positions as text."""
        xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
        keep = (np.isfinite(xs) & np.isfinite(ys) & (self.xlim[0] <= xs) & (xs <= self.xlim[1])
                & (self.ylim[0] <= ys) & (ys <= self.ylim[1]))
        return keep, [_fmt(v) for v in self.px(xs[keep]).tolist()], [_fmt(v) for v in self.py(ys[keep]).tolist()]

    def scatter(self, xs: Sequence[float], ys: Sequence[float], color: str, r: float = 2.0, opacity: float = 0.6) -> None:
        _, cx, cy = self._kept(xs, ys)
        self.elements += [f'<circle cx="{x}" cy="{y}" r="{r:g}" fill="{color}" fill-opacity="{opacity:g}"/>'
                          for x, y in zip(cx, cy)]

    def colored_scatter(self, xs, ys, values, lo: float, hi: float, r: float = 2.0) -> None:
        keep, cx, cy = self._kept(xs, ys)
        fills = _value_colors(np.asarray(values, dtype=np.float64)[keep], lo, hi)
        self.elements += [f'<circle cx="{x}" cy="{y}" r="{r:g}" fill="{fill}" fill-opacity="0.7"/>'
                          for x, y, fill in zip(cx, cy, fills)]

    def line(self, xs: Sequence[float], ys: Sequence[float], color: str, width: float = 1.8, dash: str | None = None) -> None:
        pts = [
            f"{_fmt(self.px(x))},{_fmt(self.py(y))}"
            for x, y in zip(xs, ys)
            if np.isfinite(x) and np.isfinite(y)
        ]
        if len(pts) < 2:
            return
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
            f'stroke-width="{width:g}"{dash_attr}/>'
        )

    def band(self, xs, lower, upper, color: str, opacity: float = 0.2) -> None:
        fwd = [f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in zip(xs, upper)]
        back = [f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in zip(reversed(list(xs)), reversed(list(lower)))]
        self.elements.append(
            f'<polygon points="{" ".join(fwd + back)}" fill="{color}" fill-opacity="{opacity:g}" stroke="none"/>'
        )

    def label(self, text: str, x: float, y: float, color: str = LINE_COLOR, size: int = 11) -> None:
        self.elements.append(_text(x, y, text, size, color, "start", bold=False, rotate=False))

    def render(self) -> list[str]:
        out = [
            f'<rect x="{_fmt(self.x0)}" y="{_fmt(self.y0)}" width="{_fmt(self.width)}" '
            f'height="{_fmt(self.height)}" fill="white" stroke="{LINE_COLOR}" stroke-width="1"/>'
        ]
        bottom, middle = self.y0 + self.height, self.x0 + self.width / 2
        for tx in np.linspace(self.xlim[0], self.xlim[1], 5):
            px = self.px(tx)
            out += [_tick(px, bottom, px, bottom + 4),
                    _text(px, bottom + 16, _tick_label(tx), 10, LINE_COLOR, "middle", bold=False, rotate=False)]
        for ty in np.linspace(self.ylim[0], self.ylim[1], 5):
            py = self.py(ty)
            out += [_tick(self.x0 - 4, py, self.x0, py),
                    _text(self.x0 - 7, py + 3, _tick_label(ty), 10, LINE_COLOR, "end", bold=False, rotate=False)]
        if self.title:
            out.append(_text(middle, self.y0 - 8, self.title, 12, LINE_COLOR, "middle", bold=True, rotate=False))
        if self.xlabel:
            out.append(_text(middle, bottom + 32, self.xlabel, 11, LINE_COLOR, "middle", bold=False, rotate=False))
        if self.ylabel:
            out.append(_text(self.x0 - 38, self.y0 + self.height / 2, self.ylabel, 11, LINE_COLOR, "middle",
                             bold=False, rotate=True))
        out.extend(self.elements)
        return out


def document(width: float, height: float, panels: Sequence[Panel]) -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    for panel in panels:
        parts.extend(panel.render())
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def padded_limits(values: np.ndarray) -> tuple[float, float]:
    """Finite range of the values widened by 5% of its span on each side."""
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    if values.size == 0:
        return (0.0, 1.0)
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return (lo - 0.5, hi + 0.5)
    pad = (hi - lo) * 0.05
    return (lo - pad, hi + pad)
