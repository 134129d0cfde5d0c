"""Small CSV helpers.

Every float goes through the .17g conversion of format_float so that reruns
of one configuration are byte-identical: 17 significant digits round-trip any
float64 exactly, and the formatting never depends on locale or line endings.

A grid file (`_write_grid`) of at least 2^15 cells and 2 rows is written by
two processes when the machine can fork and gives this process two CPUs:
one fork per file, whose child formats the second half of the rows into an
unnamed temporary file beside the output while this process writes the
header and the first half; the kernel then appends the child's bytes
(os.sendfile). Both run the same row loop, so the bytes are those of one
process writing every row. Formatting holds the interpreter lock, so
threads would not overlap it.
"""

from __future__ import annotations

import errno
import os
import tempfile
from typing import Iterable, Sequence

# cells from which a grid file is split across two processes: a fork costs
# about 5 ms, which formatting 2^15 cells on one core about pays back
_SPLIT_CELLS = 2**15


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows of str/float cells. Floats are formatted, strings passed through."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [c if isinstance(c, str) else format_float(c) for c in row]
            fh.write(",".join(cells) + "\n")


def _write_rows(fh, cells_b: list[str], axis_a, values) -> None:
    """The grid rows of axis_a[j], j-major: row j joins the axis_b cells'
    %.17g templates on axis_a[j] and fills in values[j]."""
    for a, row in zip(axis_a, values):
        fh.write(format_float(a).join(cells_b) % tuple(row.tolist()))


def _two_cpus() -> bool:
    """Whether this process may run on 2 CPUs or more (its affinity mask);
    False where the platform cannot tell."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _child_start(values) -> int:
    """The first row a forked child writes: half the rows of a grid of at
    least _SPLIT_CELLS cells and 2 rows when this process can fork and may
    run on 2 CPUs; otherwise all of them, len(values), and no child."""
    n = len(values)
    if values.size < _SPLIT_CELLS or n < 2 or not hasattr(os, "fork") or not _two_cpus():
        return n
    return n // 2


def _write_grid(path: str | os.PathLike, header: Sequence[str], axis_a, axis_b, values) -> None:
    """write_csv of the rows (axis_a[j], axis_b[k], values[j, k]), j-major. Axes are formatted
    once; each row is one %-fill of a template (_write_rows). A large grid's rows from
    _child_start on are formatted by a forked child (_write_halves); if the child fails,
    the file is removed and OSError names its path."""
    if values.shape != (len(axis_a), len(axis_b)):
        raise ValueError(f"grid values {values.shape} do not match axes {len(axis_a), len(axis_b)}")
    cells_b = [""] + ["," + format_float(b) + ",%.17g\n" for b in axis_b]
    h = _child_start(values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if h == len(values):
            _write_rows(fh, cells_b, axis_a, values)
            return
        code = _write_halves(fh, h, cells_b, axis_a, values)
    if code != 0:
        os.remove(path)
        reason = f"the forked writer of rows {h}..{len(values) - 1} exited with code {code}"
        raise OSError(errno.EIO, reason, os.fspath(path))


def _write_halves(fh, h: int, cells_b: list[str], axis_a, values) -> int:
    """Rows [0, h) into fh while a forked child writes rows [h, n) into an
    unnamed file in fh's directory; the child's bytes are then appended to fh.
    Returns the child's exit code, and appends nothing unless it is 0."""
    directory = os.path.dirname(os.path.abspath(fh.name))
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n", dir=directory) as tail:
        pid = os.fork()
        if pid == 0:
            # the child never returns or raises into the caller, and never
            # flushes the stdio buffers or runs the exit handlers it inherited
            code = 1
            try:
                _write_rows(tail, cells_b, axis_a[h:], values[h:])
                tail.flush()
                code = 0
            finally:
                os._exit(code)
        try:
            _write_rows(fh, cells_b, axis_a[:h], values[:h])
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code == 0:
            # fh is not O_APPEND (sendfile would refuse it) and, once
            # flushed, its offset is its end
            fh.flush()
            size, sent = os.fstat(tail.fileno()).st_size, 0
            while sent < size:
                sent += os.sendfile(fh.fileno(), tail.fileno(), sent, size - sent)
    return code
