"""Dependency-free SVG fitness plots for gym trajectories.

The container deliberately carries no plotting stack, so the CI smoke
job's artifact is hand-assembled SVG: one polyline per trajectory of
best-so-far reward against evaluation index, with the baseline reward
as a dashed reference line.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .search import SearchResult

__all__ = ["fitness_svg", "write_fitness_svg"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_W, _H = 640, 360
_ML, _MR, _MT, _MB = 70, 20, 30, 45


def fitness_svg(results: Sequence[SearchResult], *,
                title: str = "gym best-so-far reward") -> str:
    """Render search results as one standalone SVG document."""
    curves: Dict[str, List[float]] = {
        f"{r.searcher} (seed {r.seed})": r.trajectory.best_curve()
        for r in results
    }
    ys = [v for curve in curves.values() for v in curve]
    ys += [r.baseline_reward for r in results]
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_hi = max((len(c) for c in curves.values()), default=1) - 1 or 1

    def sx(x: float) -> float:
        return _ML + x / x_hi * (_W - _ML - _MR)

    def sy(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
        f'height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="18" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
        # axes
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
        f'y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{_W / 2}" y="{_H - 10}" text-anchor="middle" '
        'font-family="monospace" font-size="11">evaluation</text>',
        f'<text x="14" y="{_H / 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="11" '
        f'transform="rotate(-90 14 {_H / 2})">best reward</text>',
        f'<text x="{_ML - 6}" y="{sy(y_hi) + 4}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{y_hi:.3g}</text>',
        f'<text x="{_ML - 6}" y="{sy(y_lo) + 4}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{y_lo:.3g}</text>',
    ]
    if results:
        by = sy(results[0].baseline_reward)
        parts.append(
            f'<line x1="{_ML}" y1="{by:.1f}" x2="{_W - _MR}" '
            f'y2="{by:.1f}" stroke="#888" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{_W - _MR}" y="{by - 5:.1f}" text-anchor="end" '
            'font-family="monospace" font-size="10" '
            'fill="#666">baseline</text>'
        )
    for i, (label, curve) in enumerate(curves.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(
            f"{sx(x):.1f},{sy(y):.1f}" for x, y in enumerate(curve)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 6}" y="{_MT + 14 + 14 * i}" '
            f'text-anchor="end" font-family="monospace" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_fitness_svg(results: Sequence[SearchResult], path: str, *,
                      title: str = "gym best-so-far reward") -> str:
    """Write the SVG to ``path`` and return the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fitness_svg(results, title=title))
    return path
