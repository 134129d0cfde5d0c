"""Grid CSV files: the same bytes as the cell-by-cell writer, written in rows."""

import os
import re
import tracemalloc

import numpy as np
import pytest

from oracles import per_cell_grid_csv, traced_peak
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


@pytest.fixture
def two_cpus(monkeypatch):
    """The split path wherever os.fork exists, whatever CPUs the host gives."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _write_grid_file(path, shape) -> bytes:
    """Write a grid of `shape` to path; return the per-cell writer's bytes for it."""
    n_a, n_b = shape
    axis_a, axis_b = np.linspace(-4.0, 4.0, n_a), np.linspace(-7.0, 7.0, n_b)
    values = np.random.default_rng(n_a * n_b).standard_normal(shape)
    values[0, : len(SPECIAL)] = values[-1, -len(SPECIAL) :] = SPECIAL
    csvio._write_grid(path, WIGNER_HEADER, axis_a, axis_b, values)
    return per_cell_grid_csv(WIGNER_HEADER, axis_a, axis_b, values)


@pytest.mark.parametrize(
    "shape, child_start",
    [((1, 40000), 1), ((2, 20000), 1), ((3, 20000), 1), ((257, 256), 128), ((512, 512), 256)],
)
def test_split_file_matches_per_cell_writer(tmp_path, two_cpus, shape, child_start):
    # every grid here has 2^15 cells or more: all but the one-row grid split
    assert csvio._child_start(np.empty(shape)) == child_start
    path = tmp_path / "g.csv"
    expected = _write_grid_file(path, shape)
    assert path.read_bytes() == expected
    assert os.listdir(tmp_path) == ["g.csv"]  # the child's unnamed file is gone
    with pytest.raises(ChildProcessError):  # and so is the child
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "shape, cpus, child_start",
    [
        ((2, 2**14), {0, 1}, 1),
        ((2, 2**14 - 1), {0, 1}, 2),  # below 2^15 cells
        ((128, 128), {0, 1}, 128),
        ((1, 2**16), {0, 1}, 1),  # one row
        ((512, 512), {0}, 512),  # one CPU
    ],
)
def test_child_start(monkeypatch, shape, cpus, child_start):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert csvio._child_start(np.empty(shape)) == child_start


def test_failed_child_leaves_no_file(tmp_path, two_cpus, monkeypatch):
    parent = os.getpid()
    write_rows = csvio._write_rows

    def fails_in_child(fh, cells_b, axis_a, values):
        if os.getpid() != parent:
            raise RuntimeError("the child's rows fail")
        write_rows(fh, cells_b, axis_a, values)

    monkeypatch.setattr(csvio, "_write_rows", fails_in_child)
    path = tmp_path / "out" / "g.csv"
    path.parent.mkdir()
    try:
        with pytest.raises(OSError, match=re.escape(str(path))):
            _write_grid_file(path, (64, 1024))
    finally:
        # a child that came back from the writer, by return or by raise,
        # passes here too, and goes no further into the test session
        with open(tmp_path / "continued", "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if os.getpid() != parent:
            os._exit(0)
    assert (tmp_path / "continued").read_text() == f"{parent}\n"
    assert os.listdir(path.parent) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_row_loop_memory_stays_at_a_row(tmp_path, monkeypatch):
    # the split leaves half the rows to a child, out of this process's trace:
    # on one CPU all 512 rows run through the same loop here, in the same bound
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    n = 512
    x_axis = Grid1D(-16.0, 16.0, n)
    w = WignerGrid(x_axis, dual_grid(x_axis, PHYS), _special_values(n, n), PHYS)
    assert csvio._child_start(w.values) == n
    peak = traced_peak(lambda: wigner_to_csv(w, tmp_path / "w.csv"))[1]
    assert peak < 2 * 2**20
    assert (tmp_path / "w.csv").stat().st_size > 8 * 2**20
