"""Grid CSV files: the same bytes as the cell-by-cell writer, written in rows."""

import errno
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_cell_grid_csv
from wickbell import Grid1D, PhysParams, csvio
from wickbell.epr import (
    CorrelationWidth,
    epr_initial_pair,
    joint_momentum_distribution,
    momentum_distribution_to_csv,
)
from wickbell.grids import cat_state, dual_grid
from wickbell.phase_space import WignerGrid, wigner_to_csv, wigner_transform

PHYS = PhysParams()
WIGNER_HEADER = ("x", "p", "w")
MOMENTUM_HEADER = ("p_x", "p_y", "probability")

# signed zero, the smallest subnormal, extremes, a value needing all 17
# digits, and integers held as floats
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-17, 0.1, 1.0, -3.0, 2.0**53, 12345.0]


def _special_values(n_a: int, n_b: int) -> np.ndarray:
    return np.resize(np.array(SPECIAL), n_a * n_b).reshape(n_a, n_b)


@pytest.mark.parametrize("n", [16, 65, 256])
def test_wigner_file_matches_per_cell_writer(tmp_path, n):
    grid = Grid1D(-10.0, 10.0, n)
    w = wigner_transform(cat_state(grid, PHYS, 2.5, 1.1, "odd"))
    path = tmp_path / "w.csv"
    wigner_to_csv(w, path)
    expected = per_cell_grid_csv(WIGNER_HEADER, w.x_axis.x, w.p_axis.x, w.values)
    assert path.read_bytes() == expected


@pytest.mark.parametrize("n", [16, 65, 256])
def test_momentum_file_matches_per_cell_writer(tmp_path, n):
    pair = epr_initial_pair(Grid1D(-8.0, 8.0, n), CorrelationWidth(0.5), 1.2, PHYS)
    pgrid, prob = joint_momentum_distribution(pair)
    path = tmp_path / "p.csv"
    momentum_distribution_to_csv(pgrid, prob, path)
    assert path.read_bytes() == per_cell_grid_csv(MOMENTUM_HEADER, pgrid.x, pgrid.x, prob)


def test_special_values_match_per_cell_writer(tmp_path):
    x_axis = Grid1D(-4.0, 4.0, 8)
    p_axis = dual_grid(Grid1D(-4.0, 4.0, 9), PHYS)
    w = WignerGrid(x_axis, p_axis, _special_values(8, 9), PHYS)
    path = tmp_path / "w.csv"
    wigner_to_csv(w, path)
    assert path.read_bytes() == per_cell_grid_csv(WIGNER_HEADER, x_axis.x, p_axis.x, w.values)

    pgrid = Grid1D(-1.0, 1.0, 10)
    prob = _special_values(10, 10)[:, ::-1].copy()
    prob[0, 0], prob[1, 1], prob[2, 2] = np.inf, -np.inf, np.nan
    path = tmp_path / "p.csv"
    momentum_distribution_to_csv(pgrid, prob, path)
    text = path.read_bytes()
    assert text == per_cell_grid_csv(MOMENTUM_HEADER, pgrid.x, pgrid.x, prob)
    assert text.startswith(b"p_x,p_y,probability\n-1,-1,")
    cells = (b",-0\n", b",4.9406564584124654e-324\n", b",-1.0000000000000001e+300\n", b",nan\n")
    assert all(cell in text for cell in cells)


@pytest.mark.parametrize("shape", [(8, 7), (7, 8), (9, 8)])
def test_values_must_match_axes(tmp_path, shape):
    pgrid = Grid1D(-1.0, 1.0, 8)
    with pytest.raises(ValueError, match=r"do not match axes \(8, 8\)"):
        momentum_distribution_to_csv(pgrid, np.zeros(shape), tmp_path / "p.csv")


def test_failed_write_removes_the_file(tmp_path):
    # an OSError that names no file is given the path of the one written;
    # a path the writer could not open is left as it was
    def rows():
        yield (1.0, 2.0)
        raise OSError(errno.ENOSPC, "No space left on device")

    path = tmp_path / "rows.csv"
    with pytest.raises(OSError) as failed:
        csvio.write_csv(path, ("a", "b"), rows())
    assert failed.value.filename == str(path)
    assert str(failed.value) == f"[Errno {errno.ENOSPC}] No space left on device: '{path}'"
    (tmp_path / "g.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        csvio._write_grid(tmp_path / "g.csv", WIGNER_HEADER, [0.0], [0.0], np.zeros((1, 1)))
    assert [p.name for p in tmp_path.iterdir()] == ["g.csv"]
    assert (tmp_path / "g.csv").is_dir()


def _wigner_file(path):
    x_axis = Grid1D(-4.0, 4.0, 64)
    wigner_to_csv(WignerGrid(x_axis, dual_grid(x_axis, PHYS), _special_values(64, 64), PHYS), path)


def _momentum_file(path):
    momentum_distribution_to_csv(Grid1D(-1.0, 1.0, 64), _special_values(64, 64), path)


@pytest.mark.parametrize("write", [_wigner_file, _momentum_file], ids=["wigner", "momentum"])
@pytest.mark.parametrize("named", [True, False], ids=["oserror", "runtimeerror"])
def test_failed_grid_write_removes_the_file(tmp_path, monkeypatch, write, named):
    # the first row is written, then the rows fail: the part-written file
    # goes, an OSError is given its path, any other error passes unchanged
    write_rows = csvio._write_rows
    error = OSError(errno.ENOSPC, "No space left on device") if named else RuntimeError("rows fail")

    def fails_after_a_row(fh, cells_b, axis_a, values):
        write_rows(fh, cells_b, axis_a[:1], values[:1])
        fh.flush()
        assert path.read_bytes().count(b"\n") == 1 + 64
        raise error

    monkeypatch.setattr(csvio, "_write_rows", fails_after_a_row)
    path = tmp_path / "g.csv"
    with pytest.raises(type(error)) as failed:
        write(path)
    assert failed.value is error
    if named:
        assert str(failed.value) == f"[Errno {errno.ENOSPC}] No space left on device: '{path}'"
    else:
        assert str(failed.value) == "rows fail"
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_a_named_error(tmp_path):
    # an OSError that already names a file is raised as it came
    def rows():
        yield (1.0, "a")
        raise PermissionError(errno.EACCES, "Permission denied", "elsewhere.csv")

    path = tmp_path / "rows.csv"
    with pytest.raises(PermissionError) as failed:
        csvio.write_csv(path, ("x", "label"), rows())
    assert failed.value.filename == "elsewhere.csv"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [(2, 2**19), (1024, 1024)])
def test_large_grid_is_written_in_process(tmp_path, monkeypatch, shape):
    # 2^20 cells on two CPUs: the file is written by this process alone,
    # with no child and no other file beside it
    def no_fork():
        raise AssertionError("the grid writer forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    n_a, n_b = shape
    path = tmp_path / "g.csv"
    axis_a, axis_b = np.arange(n_a, dtype=float), np.arange(n_b, dtype=float)
    csvio._write_grid(path, WIGNER_HEADER, axis_a, axis_b, np.zeros(shape))
    expected = b"".join(b"%d,%d,0\n" % (a, b) for a in range(n_a) for b in range(n_b))
    assert path.read_bytes() == b"x,p,w\n" + expected
    assert os.listdir(tmp_path) == ["g.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_writer_memory_stays_at_a_row(tmp_path):
    # a 512 x 512 file is about 16 MiB of text and 262k floats: holding
    # either at once would dwarf the one row of strings the writer keeps
    n = 512
    x_axis = Grid1D(-16.0, 16.0, n)
    w = WignerGrid(x_axis, dual_grid(x_axis, PHYS), _special_values(n, n), PHYS)
    tracemalloc.start()
    try:
        wigner_to_csv(w, tmp_path / "w.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert (tmp_path / "w.csv").stat().st_size > 8 * 2**20


def _write_grid_file(path, shape) -> bytes:
    """Write a grid of `shape` to path; return the per-cell writer's bytes for it."""
    n_a, n_b = shape
    axis_a, axis_b = np.linspace(-4.0, 4.0, n_a), np.linspace(-7.0, 7.0, n_b)
    values = np.random.default_rng(n_a * n_b).standard_normal(shape)
    values[0, : len(SPECIAL)] = values[-1, -len(SPECIAL) :] = SPECIAL
    csvio._write_grid(path, WIGNER_HEADER, axis_a, axis_b, values)
    return per_cell_grid_csv(WIGNER_HEADER, axis_a, axis_b, values)


@pytest.mark.parametrize("shape", [(1, 40000), (2, 20000), (3, 20000), (257, 256), (512, 512)])
def test_wide_grid_matches_per_cell_writer(tmp_path, shape):
    # rows wider than csvio._BLOCK, and blocks that end inside a row
    path = tmp_path / "g.csv"
    expected = _write_grid_file(path, shape)
    assert path.read_bytes() == expected


def _kernel_lines(values) -> tuple[bytes, np.ndarray]:
    """The lines _format_values writes for values with every floating-point
    error raised, NULs dropped, and the indices it left to format()."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((len(values), csvio._VALUE_WORDS), np.uint32)
    with np.errstate(all="raise"):
        exact = csvio._format_values(values, out)
    return out.tobytes().replace(b"\0", b""), exact


def _format_lines(values) -> bytes:
    return "".join(format(float(v), ".17g") + "\n" for v in values).encode()


POWERS_OF_TEN = np.array([10.0**k for k in range(-323, 309)])
EDGES = np.concatenate(
    [
        [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
        POWERS_OF_TEN,
        np.nextafter(POWERS_OF_TEN, 0.0),
        -POWERS_OF_TEN,
        # exact decimal ties at the 17th digit (18 digits ending in 5), and
        # the neighbours of one
        [586020827481094.875, -586020827481094.875, 100000000000000.125],
        [1000000000000000.25, 2251799813685247.75],
        np.nextafter(586020827481094.875, [0.0, np.inf]),
        # integers held as floats, with and without zeros at the end
        [1.0, -3.0, 10.0, 1000.0, 1200.0, 12345.0, 2.0**53, 2.0**53 + 2, 1e16, 1e17],
        [12345678901234567.0, 123456789012345678.0, 99999999999999999.0],
        # the ends of fixed notation, 1e-4 <= |x| < 1e17
        [1e-4, 9.9999999999999e-5, 0.00012345, 1.5, 10.5, 123.456, 9.87654321e15],
        [np.inf, -np.inf, np.nan, -np.nan],
    ]
)


def test_kernel_matches_format_on_edges():
    text, _ = _kernel_lines(EDGES)
    assert text == _format_lines(EDGES)


def test_kernel_leaves_ties_and_non_finite_values_to_format():
    # a tie's 17th digit rounds to even, and 10^17 sits on a decade's edge:
    # both need an exact method. Zeros and plain values stay in the kernel
    values = [586020827481094.875, 1.5, np.inf, 0.0, -np.nan, 0.3, -0.0, 1e17]
    text, exact = _kernel_lines(values)
    assert text == _format_lines(values)
    assert exact.tolist() == [0, 2, 4, 7]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_kernel_matches_format_on_any_floats(values):
    assert _kernel_lines(values)[0] == _format_lines(values)


def test_kernel_matches_format_on_random_bit_patterns():
    # every float64 bit pattern is equally likely: subnormals, both signs,
    # the extremes, inf and nan among them
    bits = np.random.default_rng(27).integers(0, 2**64, size=2**20, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    for start in range(0, len(values), 2**16):
        chunk = values[start : start + 2**16]
        assert _kernel_lines(chunk)[0] == _format_lines(chunk), start
