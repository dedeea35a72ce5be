"""The one text-table renderer every experiment and sweep prints through."""

from __future__ import annotations

from typing import Sequence


def render_table(rows: Sequence[Sequence[str]]) -> str:
    """Render ``rows`` (the header first) as aligned text.

    Each column is as wide as its widest cell; the first column is
    left-justified, the others right-justified, two spaces apart.  The
    rendering is a function of the cells alone, so two runs that measured
    the same values print the same bytes.
    """
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(
        "  ".join([row[0].ljust(widths[0])]
                  + [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]).rstrip()
        for row in rows)
