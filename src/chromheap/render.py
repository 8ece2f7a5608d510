"""Deterministic SVG diagrams of heaps.

Blocks are unit squares drawn over the interval model: the interval for
column a starts at horizontal position (a - 1) / 2, and a block of rank
r sits r - 1 units above the baseline.
"""

from __future__ import annotations

from .heaps import Heap

UNIT = 40  # pixels per unit length


def heap_svg(heap: Heap) -> str:
    n = heap.order.n
    top = heap.rank
    width = (n - 1) * 0.5 + 1
    w_px = int(width * UNIT) + 20
    h_px = top * UNIT + 30
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" '
        f'height="{h_px}" viewBox="0 0 {w_px} {h_px}">'
    ]
    for b in range(heap.size):  # ids run in (column, level) order
        a = heap.cols[b]
        lv = heap.levels[b]
        x = 10 + (a - 1) * 0.5 * UNIT
        y = 10 + (top - lv) * UNIT
        lines.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{UNIT}" height="{UNIT}" '
            f'fill="white" stroke="black"/>'
        )
        lines.append(
            f'<text x="{x + UNIT / 2:.1f}" y="{y + UNIT / 2 + 5:.1f}" '
            f'text-anchor="middle" font-size="16">{a}</text>'
        )
    base_y = 10 + top * UNIT
    lines.append(
        f'<line x1="5" y1="{base_y}" x2="{w_px - 5}" y2="{base_y}" '
        f'stroke="black" stroke-width="2"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
