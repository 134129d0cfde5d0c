"""Grid CSV files: the same bytes as the cell-by-cell writer, written in rows."""

import tracemalloc

import numpy as np
import pytest

from oracles import per_cell_grid_csv
from wickbell import Grid1D, PhysParams
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
