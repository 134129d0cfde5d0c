"""Tests of the benchmark's own logic: span self times and output checks.

    python3 -m pytest -p no:cacheprovider perfbench

Each check must accept a good output and reject the same output with one
value corrupted, and a run that exits with a non-zero code makes the
result incorrect. Cheap experiments are run for real through `cli.entry`;
the two expensive ones (epr, euclidean negativity-decay) get good outputs
written from their closed forms.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_of_synthetic_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.x", 1.5, 2.0, 1],
        ["a.y", 3.0, 3.5, 1],
        ["b", 5.0, 9.0, 0],
        ["b.x", 5.0, 9.0, 4],  # covers its parent entirely
        ["c", 9.5, 10.0, 0],
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 2.0, 0.5, 0.5, 0.0, 4.0, 0.5])


def test_summary_reports_every_traced_function_per_round():
    tree = [
        ["cli.run", 0.0, 4.0, -1],
        ["epr.joint_momentum_distribution", 1.0, 3.0, 0],
        ["grids.dft_matrix", 1.0, 2.0, 1],
        ["cli.run", 4.0, 6.0, -1],
    ]
    out = spans.summarize(tree, n_rounds=2)
    assert len(out) == 2 * len(spans.TRACED)
    assert out["cli.run.calls"] == 1.0
    assert out["cli.run.self_s"] == pytest.approx((2.0 + 2.0) / 2)
    assert out["epr.joint_momentum_distribution.self_s"] == pytest.approx(0.5)
    assert out["bell.chsh_maximize.calls"] == 0


# ----------------------------------------------------------------- outputs


def run_cli(tmp_path: Path, experiment: str, overrides: dict) -> Path:
    from wickbell.cli import entry

    argv = ["run", experiment]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    outdir = tmp_path / experiment
    with contextlib.redirect_stdout(io.StringIO()):
        assert entry(argv + ["--out", str(outdir)]) == 0
    return outdir


def corrupt(path: Path, row: int, column: int, value) -> None:
    """Replace one cell; row 0 is the first data row."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = value if isinstance(value, str) else repr(float(value))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def write_manifest(outdir: Path, experiment: str, params: dict) -> None:
    lines = [f"experiment={experiment}"]
    lines += [f"param.{key}={value}" for key, value in sorted(params.items())]
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"{experiment}_manifest.txt").write_text("\n".join(lines) + "\n")


def write_csv(path: Path, header, rows) -> None:
    text = ",".join(header) + "\n"
    text += "".join(",".join(c if isinstance(c, str) else repr(float(c)) for c in r) + "\n" for r in rows)
    path.write_text(text)


def closed_form_epr(tmp_path: Path) -> Path:
    outdir = tmp_path / "epr"
    params = {
        "n_points": 1536, "x_min": -11.5, "x_max": 11.5, "s": 0.05, "envelope": 1.0,
        "time": 0.06, "condition_momentum": 2.0, "p_window": 20.0,
    }
    write_manifest(outdir, "epr", params)
    s, env = params["s"], params["envelope"]
    dx = 23.0 / 1535
    dp = 2.0 * math.pi / (1536 * dx)
    pg = (np.arange(1536) - 768) * dp
    peak = pg[np.argmin(np.abs(pg + 2.0))]
    pearson = (s**2 - 4.0 * env**2) / (s**2 + 4.0 * env**2)
    write_csv(
        outdir / "epr_metrics.csv",
        ("quantity", "value"),
        [
            ("pearson_initial", pearson), ("pearson_minkowski", pearson),
            ("ratio_max_abs_error", 1e-14), ("conditional_peak", peak),
            ("conditional_peak_offset", abs(peak + 2.0)),
        ],
    )
    window = pg[np.abs(pg) <= 20.0]
    rows = [
        (a, b, (2.0 * s * env / math.pi) * math.exp(-0.5 * s**2 * (a - b) ** 2 - 2.0 * env**2 * (a + b) ** 2))
        for a in window for b in window
    ]
    write_csv(outdir / "epr_momentum.csv", ("p_x", "p_y", "probability"), rows)
    return outdir


def closed_form_damping(tmp_path: Path) -> Path:
    outdir = tmp_path / "negativity-decay"
    params = {"regime": "euclidean", "tau_max": 6.0, "n_samples": 32, "omega": 1.0}
    write_manifest(outdir, "negativity-decay", params)
    taus = np.linspace(0.0, 6.0, 32)
    f = 1.0 + 0.7 * np.exp(-2.0 * taus) ** 2
    write_csv(
        outdir / "negativity_decay.csv",
        ("tau", "f", "purity", "trace_raw"),
        [(t, v, 1.0, math.exp(-t) * (1.0 + math.exp(-4.0 * t))) for t, v in zip(taus, f)],
    )
    return outdir


SHEAR = {
    "regime": "minkowski-shear", "x_min": "-12", "x_max": "11.90625",
    "n_points": "256", "n_samples": "6", "state": "cat-odd",
}

# experiment, overrides, maker (None: run the CLI), file, row, column, bad value
CORRUPTIONS = [
    ("wigner", {"state": "cat-odd"}, None, "wigner.csv", 128 * 256 + 128, 2, 0.5),
    ("wigner", {"state": "gaussian", "center": "0.5"}, None, "wigner_metrics.csv", 1, 1, 1e-3),
    ("negativity-decay", SHEAR, None, "negativity_decay.csv", 3, 1, 1.01),
    ("negativity-decay", {}, closed_form_damping, "negativity_decay.csv", 10, 1, 1.9),
    ("negativity-decay", {}, closed_form_damping, "negativity_decay.csv", 31, 3, 1e-3),
    ("epr", {}, closed_form_epr, "epr_metrics.csv", 1, 1, 0.0),
    ("epr", {}, closed_form_epr, "epr_metrics.csv", 3, 1, 2.0),
    ("epr", {}, closed_form_epr, "epr_momentum.csv", 73 * 147 + 73, 2, 0.0),
    ("kernel-check", {}, None, "kernel_check.csv", 2, 1, 1e-6),
    ("commutator", {}, None, "commutator.csv", 0, 3, -1.0),
    ("spin-phase", {}, None, "spin_phases.csv", 0, 2, math.pi / 2),
    ("spin-phase", {}, None, "spin_phases.csv", 2, 2, math.pi * (1 - math.cos(math.pi / 3)) / 2),
    ("chsh", {}, None, "chsh.csv", 0, 1, 2.0),
    ("chsh-decay", {}, None, "chsh_decay.csv", 16, 1, 2.0),
    ("chsh-decay", {}, None, "chsh_control.csv", 5, 1, 2.0),
]


@pytest.mark.parametrize(
    "experiment, overrides, maker, name, row, column, bad",
    CORRUPTIONS,
    ids=[f"{c[0]}-{c[3]}-{c[4]}" for c in CORRUPTIONS],
)
def test_check_rejects_corrupted_output(tmp_path, experiment, overrides, maker, name, row, column, bad):
    outdir = maker(tmp_path) if maker else run_cli(tmp_path, experiment, overrides)
    checks.check_run(experiment, overrides, outdir)
    corrupt(outdir / name, row, column, bad)
    with pytest.raises(checks.CheckFailed):
        checks.check_run(experiment, overrides, outdir)


def test_manifest_must_echo_the_overrides(tmp_path):
    outdir = run_cli(tmp_path, "chsh", {"seed": "3"})
    checks.check_run("chsh", {"seed": "3"}, outdir)
    with pytest.raises(checks.CheckFailed):
        checks.check_run("chsh", {"seed": "4"}, outdir)


def test_a_run_that_exits_nonzero_makes_the_result_incorrect(tmp_path):
    plan = [{"experiment": "chsh", "overrides": {"seed": "3"}}] * 2
    good = run_cli(tmp_path, "chsh", {"seed": "3"})
    tally = run.Tally()
    run.check_round(plan, {"runs": [{"code": 0, "out": str(good)}] * 2}, tally)
    assert run.report(tally, {})["correct"] is True
    assert tally.csv_rows == 2 * 2  # two rows of chsh.csv, counted per run
    run.check_round(plan, {"runs": [{"code": 0, "out": str(good)}, {"code": 3, "out": str(good)}]}, tally)
    result = run.report(tally, {})
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 1)
