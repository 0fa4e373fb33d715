"""Deterministic SVG emission: radar profiles and PCA scatter plots.

SVGs are assembled as plain strings (no plotting library) so that a rerun
with identical inputs produces byte-identical files; titles and axis names
are XML-escaped.
"""

from __future__ import annotations

from html import escape

import numpy as np

PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
    "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd",
    "#a1c9f4", "#ffb482", "#8de5a1", "#ff9f9b", "#d0bbff",
    "#debb9b", "#fab0e4", "#cfcfcf", "#fffea3", "#b9f2f0",
)
RADAR_SIZE = 360
SCATTER_SIZE = 520


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def radar_svg(title: str, axes: list[tuple[str, float]]) -> str:
    """Polygon over named axes with values in [0, 100]."""
    size = RADAR_SIZE
    cx = cy = size / 2.0
    radius = size * 0.36
    n = len(axes)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="{_fmt(cx)}" y="18" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{escape(title, quote=False)}</text>',
    ]
    for frac in (0.25, 0.5, 0.75, 1.0):
        pts = []
        for i in range(n):
            ang = -np.pi / 2 + 2 * np.pi * i / n
            pts.append(f"{_fmt(cx + frac * radius * np.cos(ang))},{_fmt(cy + frac * radius * np.sin(ang))}")
        parts.append(f'<polygon points="{" ".join(pts)}" fill="none" stroke="#dddddd"/>')
    value_pts = []
    for i, (name, value) in enumerate(axes):
        ang = -np.pi / 2 + 2 * np.pi * i / n
        ax_x, ax_y = cx + radius * np.cos(ang), cy + radius * np.sin(ang)
        parts.append(
            f'<line x1="{_fmt(cx)}" y1="{_fmt(cy)}" x2="{_fmt(ax_x)}" y2="{_fmt(ax_y)}" stroke="#bbbbbb"/>'
        )
        lx, ly = cx + 1.16 * radius * np.cos(ang), cy + 1.16 * radius * np.sin(ang)
        parts.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{escape(name, quote=False)}</text>'
        )
        r = radius * max(0.0, min(value, 100.0)) / 100.0
        value_pts.append(f"{_fmt(cx + r * np.cos(ang))},{_fmt(cy + r * np.sin(ang))}")
    parts.append(
        f'<polygon points="{" ".join(value_pts)}" fill="#4c72b0" fill-opacity="0.35" '
        f'stroke="#4c72b0" stroke-width="2"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def pca_project(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top-2 principal components via covariance eigendecomposition.

    Component signs are fixed (largest-magnitude loading positive) so the
    projection is deterministic. Returns (points_2d, explained_variances).
    """
    x = np.asarray(data, dtype=np.float64)
    if x.shape[1] < 2:
        raise ValueError("PCA scatter needs at least 2 feature dimensions")
    centered = x - x.mean(axis=0)
    cov = np.cov(centered, rowvar=False)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:2]
    comps = eigvecs[:, order]
    for j in range(2):
        lead = np.argmax(np.abs(comps[:, j]))
        if comps[lead, j] < 0:
            comps[:, j] = -comps[:, j]
    return centered @ comps, eigvals[order]


def scatter_svg(points: np.ndarray, labels: np.ndarray, title: str) -> str:
    """2-D scatter colored by cluster, with a "cluster <label>" legend."""
    size = SCATTER_SIZE
    pts = np.asarray(points, dtype=np.float64)
    labs = np.asarray(labels)
    classes = np.unique(labs)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    margin, plot = 40.0, size - 190.0

    def sx(v):
        return margin + plot * (v - lo[0]) / span[0]

    def sy(v):
        return margin + plot * (1.0 - (v - lo[1]) / span[1])

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size - 140}" '
        f'viewBox="0 0 {size} {size - 140}">',
        f'<rect width="{size}" height="{size - 140}" fill="white"/>',
        f'<text x="{_fmt(margin)}" y="22" font-size="13" font-family="sans-serif">{escape(title, quote=False)}</text>',
    ]
    for ci, c in enumerate(classes):
        color = PALETTE[ci % len(PALETTE)]
        for x, y in pts[labs == c]:
            parts.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="{color}" fill-opacity="0.8"/>'
            )
    lx = margin + plot + 16
    for ci, c in enumerate(classes):
        color = PALETTE[ci % len(PALETTE)]
        ly = margin + 16 * ci
        parts.append(f'<rect x="{_fmt(lx)}" y="{_fmt(ly)}" width="10" height="10" fill="{color}"/>')
        parts.append(
            f'<text x="{_fmt(lx + 14)}" y="{_fmt(ly + 9)}" font-size="11" '
            f'font-family="sans-serif">cluster {c}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
