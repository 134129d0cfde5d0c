"""Output checks: every CSV the CLI wrote against a closed form or a property
the method must have.

The files are read with this module's own parser, never with the package's
`*_from_csv` readers, and nothing here imports wickbell. Parameters come
from the run's manifest, after checking that it echoes every override the
benchmark passed. Units are hbar = mass = 1, the CLI's fixed values.
Tolerances follow tests/test_acceptance.py where it states one.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)


class CheckFailed(Exception):
    pass


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _parse_value(text: str):
    parts = text.split(",")
    try:
        numbers = [float(part) for part in parts]
    except ValueError:
        return text
    return numbers[0] if len(parts) == 1 else tuple(numbers)


def read_manifest(outdir: Path, experiment: str) -> dict:
    params = {}
    for line in (outdir / f"{experiment}_manifest.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        if key.startswith("param."):
            params[key[len("param."):]] = _parse_value(value)
    return params


def read_rows(path: Path, header: tuple) -> list[list[str]]:
    """Small CSV: checks the header and the cell count, returns raw cells."""
    lines = path.read_text().splitlines()
    _require(lines and lines[0] == ",".join(header), f"{path.name}: header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == len(header) for r in rows), f"{path.name}: ragged rows")
    return rows


def read_numeric(path: Path, header: tuple) -> np.ndarray:
    """All-numeric CSV as a (rows, columns) float array."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        _require(first == ",".join(header), f"{path.name}: header {first!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(data.shape[1] == len(header), f"{path.name}: {data.shape[1]} columns")
    return data


def read_quantities(path: Path) -> dict[str, float]:
    return {q: float(v) for q, v in read_rows(path, ("quantity", "value"))}


def _within(name: str, deviation: float, tol: float) -> None:
    _require(deviation <= tol, f"{name}: deviation {deviation:.3g} exceeds {tol:g}")


def _close(name: str, got: float, want: float, tol: float) -> None:
    _within(f"{name} = {got!r} against {want!r}", abs(got - want), tol)


def _axis(x_min: float, x_max: float, n: int) -> tuple[np.ndarray, float]:
    dx = (x_max - x_min) / (n - 1)
    return x_min + np.arange(n) * dx, dx


def _dual_axis(n: int, dx: float) -> tuple[np.ndarray, float]:
    dp = 2.0 * math.pi / (n * dx)
    return (np.arange(n) - n // 2) * dp, dp


def _gaussian_wigner(x, p, width, center=0.0, momentum=0.0):
    return np.exp(-((x - center) ** 2) / width**2 - width**2 * (p - momentum) ** 2) / math.pi


def _cat_wigner(x, p, separation, width, parity):
    sign = 1.0 if parity == "even" else -1.0
    norm2 = 1.0 / (2.0 * (1.0 + sign * math.exp(-(separation**2) / width**2)))
    fringe = 2.0 * sign * _gaussian_wigner(x, p, width) * np.cos(2.0 * separation * p)
    return norm2 * (
        _gaussian_wigner(x, p, width, separation) + _gaussian_wigner(x, p, width, -separation) + fringe
    )


# ------------------------------------------------------------------ per run


def check_wigner(outdir: Path, p: dict) -> None:
    n = int(p["n_points"])
    data = read_numeric(outdir / "wigner.csv", ("x", "p", "w"))
    _require(data.shape == (n * n, 3), f"wigner.csv has {data.shape[0]} rows, expected {n * n}")
    x, dx = _axis(p["x_min"], p["x_max"], n)
    pg, dp = _dual_axis(n, dx)
    _require(np.allclose(data[::n, 0], x, rtol=0, atol=1e-12), "wigner.csv x axis")
    _require(np.allclose(data[:n, 1], pg, rtol=0, atol=1e-9), "wigner.csv p axis")
    w = data[:, 2].reshape(n, n)
    _close("Wigner integral", float(w.sum()) * dx * dp, 1.0, 1e-8)
    xm, pm = x[:, None], pg[None, :]
    if p["state"] == "gaussian":
        ref = _gaussian_wigner(xm, pm, p["width"], p["center"], p["momentum"])
    else:
        ref = _cat_wigner(xm, pm, p["separation"], p["width"], p["state"][len("cat-"):])
    _within("Wigner function against its closed form", float(np.max(np.abs(w - ref))), 1e-8)
    metrics = read_quantities(outdir / "wigner_metrics.csv")
    f = float(np.abs(w).sum() / w.sum())
    _close("negativity_ratio", metrics["negativity_ratio"], f, 1e-9 * f)
    _close("w_min", metrics["w_min"], float(w.min()), 1e-15)
    _close("w_max", metrics["w_max"], float(w.max()), 1e-15)
    if p["state"] != "gaussian":
        _require(metrics["w_min"] < 0.0, f"cat state w_min = {metrics['w_min']!r} is not negative")


def _trajectory(outdir: Path, n_samples: int) -> dict[str, np.ndarray]:
    data = read_numeric(outdir / "negativity_decay.csv", ("tau", "f", "purity", "trace_raw"))
    _require(data.shape[0] == n_samples, f"{data.shape[0]} trajectory rows, expected {n_samples}")
    return dict(zip(("tau", "f", "purity", "trace_raw"), data.T))


def check_negativity_decay(outdir: Path, p: dict) -> None:
    n_samples = int(p["n_samples"])
    t = _trajectory(outdir, n_samples)
    f = t["f"]
    if p["regime"] == "euclidean":
        taus = np.linspace(0.0, p["tau_max"], n_samples)
        _require(np.allclose(t["tau"], taus, rtol=1e-15, atol=0), "tau column")
        steps = np.diff(f)
        _within("rise of f in one step", max(float(steps.max()), 0.0), 1e-6)
        _require(f[0] > 1.5, f"initial f = {f[0]!r} is not above 1.5")
        _close("final f", float(f[-1]), 1.0, 1e-4)
        _within("purity", float(np.max(np.abs(t["purity"] - 1.0))), 1e-9)
        # late-time decay of the raw trace is exp(-2 E0 tau / hbar) = exp(-omega tau)
        log_tr = np.log(t["trace_raw"])
        rate = -(log_tr[-1] - log_tr[-2]) / (taus[-1] - taus[-2])
        _close("late decay rate of trace_raw", float(rate), p["omega"], 1e-6 * p["omega"])
        return
    n = int(p["n_points"])
    _, dx = _axis(p["x_min"], p["x_max"], n)
    t_cell = n * dx**2 / (2.0 * math.pi)
    _require(np.allclose(t["tau"], t_cell * np.arange(n_samples), rtol=1e-12, atol=0), "shear times")
    _within("spread of the shear f", float(f.max() - f.min()), 1e-4)
    _require(f[0] > 1.0, f"cat state f = {f[0]!r} shows no negativity")
    # rows that slide past the narrow grid's edge carry away a little weight
    _within("shear trace", float(np.max(np.abs(t["trace_raw"] - 1.0))), 1e-6)


def check_epr(outdir: Path, p: dict) -> None:
    s, env = p["s"], p["envelope"]
    n = int(p["n_points"])
    metrics = read_quantities(outdir / "epr_metrics.csv")
    pearson = (s**2 - 4.0 * env**2) / (s**2 + 4.0 * env**2)
    _close("pearson_initial", metrics["pearson_initial"], pearson, 1e-6)
    _close("pearson_minkowski", metrics["pearson_minkowski"], pearson, 1e-6)
    # the weight ratio lies in (0, 1]; rounding at the 1e-12 support cut-off
    # leaves ~1e-9, a wrong damping factor leaves ~1e-2
    _within("ratio_max_abs_error", abs(metrics["ratio_max_abs_error"]), 1e-7)
    _, dx = _axis(p["x_min"], p["x_max"], n)
    pg, dp = _dual_axis(n, dx)
    peak, centre = metrics["conditional_peak"], p["condition_momentum"]
    _require(np.any(np.abs(pg - peak) < 1e-9 * dp), "conditional peak is not a grid momentum")
    _close("conditional peak", peak, -centre, dp)
    _close("conditional_peak_offset", metrics["conditional_peak_offset"], abs(peak + centre), 1e-12)
    # |phi(p_x, p_y)|^2 normalized: (2 s E / pi) exp(-s^2 (px-py)^2 / 2 - 2 E^2 (px+py)^2)
    data = read_numeric(outdir / "epr_momentum.csv", ("p_x", "p_y", "probability"))
    window = pg[np.abs(pg) <= p["p_window"]]
    m = window.size
    _require(data.shape[0] == m * m, f"epr_momentum.csv has {data.shape[0]} rows, expected {m * m}")
    px, py = data[:, 0], data[:, 1]
    _require(np.allclose(px, np.repeat(window, m), rtol=0, atol=1e-9), "p_x column")
    _require(np.allclose(py, np.tile(window, m), rtol=0, atol=1e-9), "p_y column")
    ref = (2.0 * s * env / math.pi) * np.exp(
        -0.5 * s**2 * (px - py) ** 2 - 2.0 * env**2 * (px + py) ** 2
    )
    err = float(np.max(np.abs(data[:, 2] - ref)))
    _within("momentum density against its closed form", err, 1e-8 * float(ref.max()))


def check_kernel_check(outdir: Path, p: dict) -> None:
    rows = read_numeric(outdir / "kernel_check.csv", ("n_slices", "max_abs_deviation"))
    _require(list(rows[:, 0]) == list(p["slice_counts"]), "slice counts")
    _within("sliced kernel against the closed form", float(rows[:, 1].max()), 1e-10)


def check_commutator(outdir: Path, p: dict) -> None:
    rows = read_rows(outdir / "commutator.csv", ("regime", "j", "re", "im"))
    indices = p["slice_indices"]
    indices = [indices] if isinstance(indices, float) else list(indices)
    _require(len(rows) == 2 * len(indices), f"{len(rows)} commutator rows")
    expected = {"minkowski": (0.0, 1.0), "euclidean": (1.0, 0.0)}  # i hbar and +hbar
    for regime, j, re, im in rows:
        _require(regime in expected and float(j) in indices, f"row {regime},{j}")
        _close(f"{regime} j={j} re", float(re), expected[regime][0], 1e-6)
        _close(f"{regime} j={j} im", float(im), expected[regime][1], 1e-6)


def polygon_cap_phase(theta: float, n_segments: int) -> float:
    """Half the area of the geodesic polygon through n equally spaced points
    on the latitude theta: n isosceles triangles fanned from the pole, each
    with two sides theta and apex angle 2 pi / n."""
    c = 2.0 * math.pi / n_segments
    t = math.tan(theta / 2.0) ** 2
    excess = 2.0 * math.atan2(t * math.sin(c), 1.0 + t * math.cos(c))
    return 0.5 * n_segments * excess


def check_spin_phase(outdir: Path, p: dict) -> None:
    table = read_rows(outdir / "spin_phases.csv", ("loop_id", "solid_angle", "wz_phase"))
    rows = {loop: (float(solid), float(phase)) for loop, solid, phase in table}
    _require(sorted(rows) == ["equator", "latitude", "octant"], f"loops {sorted(rows)}")
    theta = p["latitude_theta"]
    expected = {
        "equator": (math.pi, 1e-6),
        "octant": (math.pi / 4.0, 1e-12),
        "latitude": (polygon_cap_phase(theta, int(p["latitude_segments"])), 1e-10),
    }
    for loop, (want, tol) in expected.items():
        solid, phase = rows[loop]
        _close(f"{loop} phase", phase, want, tol)
        _close(f"{loop} solid angle", solid, 2.0 * phase, 1e-12)
    # the polygon converges to the cap, pi (1 - cos theta), as segments double
    cap = math.pi * (1.0 - math.cos(theta))
    bound = 2.0 * math.pi * (math.pi / p["latitude_segments"]) ** 2
    _within("latitude against the cap", abs(rows["latitude"][1] - cap), bound)


def check_chsh(outdir: Path, p: dict) -> None:
    metrics = read_quantities(outdir / "chsh.csv")
    _close("singlet_chsh_max", metrics["singlet_chsh_max"], TSIRELSON, 1e-6)
    _close("cnot_bell_chsh_max", metrics["cnot_bell_chsh_max"], TSIRELSON, 1e-6)


def check_chsh_decay(outdir: Path, p: dict) -> None:
    n_samples = int(p["n_samples"])
    taus = np.linspace(0.0, p["tau_max"], n_samples)
    energies = p["energies"]
    gap = abs(energies[2] - energies[1])  # the singlet's up-down and down-up levels
    header = ("tau", "chsh_max", "fidelity_to_initial")
    decay = read_numeric(outdir / "chsh_decay.csv", header)
    control = read_numeric(outdir / "chsh_control.csv", header)
    for name, data in (("chsh_decay", decay), ("chsh_control", control)):
        _require(data.shape[0] == n_samples, f"{name}: {data.shape[0]} rows")
        _require(np.allclose(data[:, 0], taus, rtol=1e-15, atol=0), f"{name}: tau column")
    s_ref = 2.0 * np.sqrt(1.0 + 1.0 / np.cosh(gap * taus) ** 2)
    _within("damped CHSH against 2 sqrt(1 + sech^2)", float(np.max(np.abs(decay[:, 1] - s_ref))), 1e-7)
    fid_ref = 0.5 * (1.0 + 1.0 / np.cosh(gap * taus))
    _within("damped fidelity against (1 + sech)/2", float(np.max(np.abs(decay[:, 2] - fid_ref))), 1e-9)
    _within("unitary control against 2 sqrt(2)", float(np.max(np.abs(control[:, 1] - TSIRELSON))), 1e-9)
    fid_ref = np.cos(0.5 * gap * taus) ** 2
    _within("control fidelity against cos^2", float(np.max(np.abs(control[:, 2] - fid_ref))), 1e-9)


CHECKS = {
    "wigner": check_wigner,
    "negativity-decay": check_negativity_decay,
    "epr": check_epr,
    "kernel-check": check_kernel_check,
    "commutator": check_commutator,
    "spin-phase": check_spin_phase,
    "chsh": check_chsh,
    "chsh-decay": check_chsh_decay,
}


def check_run(experiment: str, overrides: dict, outdir: Path) -> None:
    """Raise CheckFailed unless the run's outputs hold."""
    params = read_manifest(outdir, experiment)
    for key, value in overrides.items():
        _require(
            key in params and params[key] == _parse_value(value),
            f"manifest records {key}={params.get(key)!r}, passed {value!r}",
        )
    CHECKS[experiment](outdir, params)
