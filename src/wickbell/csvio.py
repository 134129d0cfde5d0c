"""Small CSV helpers.

Every float goes through the .17g conversion of format_float so that reruns
of one configuration are byte-identical: 17 significant digits round-trip any
float64 exactly, and the formatting never depends on locale or line endings.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows of str/float cells. Floats are formatted, strings passed through."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [c if isinstance(c, str) else format_float(c) for c in row]
            fh.write(",".join(cells) + "\n")


def _write_grid(path: str | os.PathLike, header: Sequence[str], axis_a, axis_b, values) -> None:
    """write_csv of the rows (axis_a[j], axis_b[k], values[j, k]), j-major. Axes are formatted
    once; row j joins the axis_b cells' %.17g templates on axis_a[j] and fills in values[j]."""
    if values.shape != (len(axis_a), len(axis_b)):
        raise ValueError(f"grid values {values.shape} do not match axes {len(axis_a), len(axis_b)}")
    cells_b = [""] + ["," + format_float(b) + ",%.17g\n" for b in axis_b]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for a, row in zip(axis_a, values):
            fh.write(format_float(a).join(cells_b) % tuple(row.tolist()))
