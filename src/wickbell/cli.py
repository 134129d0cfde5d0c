"""Experiment runner: `wickbell run <experiment>` and `wickbell list-experiments`.

Configuration is plain key=value text (file via --config, overrides via
--set), validated against a per-experiment schema before anything runs;
unknown keys are rejected. Every experiment writes deterministic CSV plus a
manifest echoing the inputs and the package version, so reruns with the same
configuration are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical guard tripped
(the guard class is named on stderr) or any other ValueError raised while
the experiment runs (the experiment is named).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalGuardError
from .csvio import format_float, write_csv
from .grids import EUCLIDEAN, MINKOWSKI, Grid1D, PhysParams, cat_state, dual_grid, gaussian_wavepacket
from .kernels import (
    SlicingPlan,
    commutator_expectation,
    free_kernel_euclidean,
    free_kernel_row,
    free_potential,
    harmonic_potential,
    sliced_kernel,
)
from .phase_space import negativity_ratio, wigner_to_csv, wigner_transform
from .evolution import (
    hamiltonian,
    negativity_trajectory,
    shear_negativity_trajectory,
    trajectory_to_csv,
)
from .epr import (
    CorrelationWidth,
    _conditional,
    _pearson,
    epr_initial_pair,
    evolve_pair,
    joint_momentum_distribution,
    momentum_anticorrelation,
    momentum_distribution_to_csv,
)
from .spin_geometry import (
    equator_loop,
    latitude_loop,
    octant_loop,
    phases_to_csv,
    wz_phase_closed_path,
)
from .bell import (
    cnot,
    chsh_maximize,
    decay_to_csv,
    euclidean_chsh_decay,
    minkowski_chsh_control,
    singlet,
    TwoQubitState,
)

OUTDIR_ENV = "WICKBELL_OUTDIR"
DEFAULT_OUTDIR = "wickbell-out"
# array bytes an experiment may plan to hold at its peak; a grid schema
# checks its estimate before anything is allocated
MEMORY_BUDGET_BYTES = 2**30


@dataclass(frozen=True)
class ParamSpec:
    kind: str  # int | float | str | ints | floats
    default: object
    help: str
    check: Callable[[object], str | None] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    parameters: dict


def _positive(name: str):
    def check(v):
        if not (0 < v < np.inf):
            return f"{name} must be positive and finite, got {v}"
        return None

    return check


def _finite(name: str):
    def check(v):
        if not np.isfinite(v):
            return f"{name} must be finite, got {v}"
        return None

    return check


def _at_least(name: str, bound: int):
    def check(v):
        if v < bound:
            return f"{name} must be >= {bound}, got {v}"
        return None

    return check


def _choice(name: str, options: tuple):
    def check(v):
        if v not in options:
            return f"{name} must be one of {', '.join(options)}; got {v!r}"
        return None

    return check


def _budgeted(name: str, bound: int, unit: str, peak_bytes: Callable[[int], int] | None):
    """Count check: at least `bound`; given peak_bytes(count), the count is
    also held to the memory budget."""
    at_least = _at_least(name, bound)
    budget = f"the {MEMORY_BUDGET_BYTES >> 20} MiB budget"

    def check(count):
        if peak_bytes is None or count < bound:
            return at_least(count)
        # every estimate is at least a byte per count: a larger count is over
        # the budget without computing, or printing, its huge estimate
        if count > MEMORY_BUDGET_BYTES:
            return f"more than {MEMORY_BUDGET_BYTES} {unit} are over {budget}"
        if peak_bytes(count) > MEMORY_BUDGET_BYTES:
            return f"{count} {unit} would hold {peak_bytes(count) >> 20} MiB of arrays, over {budget}"
        return None

    return check


def _grid_params(
    n_points: int = 256,
    x_min: float = -16.0,
    x_max: float = 16.0,
    peak_bytes: Callable[[int], int] | None = None,
) -> dict:
    """Grid schema; given peak_bytes(n_points), n_points is also held to the
    memory budget."""
    return {
        "n_points": ParamSpec(
            "int", n_points, "grid sample count", _budgeted("n_points", 8, "points", peak_bytes)
        ),
        "x_min": ParamSpec("float", x_min, "left grid edge", _finite("x_min")),
        "x_max": ParamSpec("float", x_max, "right grid edge", _finite("x_max")),
    }


def _state_params(state: str = "cat-odd", state_help: str = "initial state kind") -> dict:
    return {
        "state": ParamSpec(
            "str", state, state_help, _choice("state", ("gaussian", "cat-odd", "cat-even"))
        ),
        "width": ParamSpec("float", 1.0, "Gaussian width", _positive("width")),
        "center": ParamSpec("float", 0.0, "packet center (gaussian only)", _finite("center")),
        "momentum": ParamSpec("float", 0.0, "packet momentum (gaussian only)", _finite("momentum")),
        "separation": ParamSpec("float", 3.0, "cat branch offset", _positive("separation")),
    }


def _make_grid(p: dict) -> Grid1D:
    try:
        return Grid1D(p["x_min"], p["x_max"], p["n_points"])
    except ValueError as exc:  # edges out of order, or a span past the float range
        raise ConfigError(f"grid: {exc}") from None


def _guarded(label: str, p: dict, keys: tuple, grid: Grid1D, build: Callable):
    """build() with numpy overflow, division by zero and invalid values raised;
    an arithmetic or value error is a ConfigError naming the parameters in
    `keys`. Underflow stays silent: Gaussian tails underflow on every valid
    grid."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return build()
    except (ValueError, ArithmeticError) as exc:
        given = ", ".join(f"{key}={_canonical(p[key])}" for key in keys)
        raise ConfigError(f"{label} ({given}) on {grid}: {exc}") from None


def _make_state(grid: Grid1D, phys: PhysParams, p: dict):
    kind = p["state"]
    keys = ("center", "width", "momentum") if kind == "gaussian" else ("separation", "width")
    args = [p[key] for key in keys]

    def build():
        if kind == "gaussian":
            return gaussian_wavepacket(grid, phys, *args)
        return cat_state(grid, phys, *args, kind.removeprefix("cat-"))

    return _guarded(f"state {kind}", p, keys, grid, build)


def _manifest(outdir: str, experiment: str, p: dict) -> str:
    lines = [f"experiment={experiment}"]
    for key in sorted(p):
        lines.append(f"param.{key}={_canonical(p[key])}")
    lines.append(f"version={__version__}")
    path = os.path.join(outdir, f"{experiment}_manifest.txt")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _canonical(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_canonical(v) for v in value)
    return str(value)


# ---------------------------------------------------------------- experiments


def _run_wigner(p: dict, outdir: str) -> list:
    grid = _make_grid(p)
    phys = PhysParams()
    psi = _make_state(grid, phys, p)
    wig = wigner_transform(psi)
    out_main = os.path.join(outdir, "wigner.csv")
    wigner_to_csv(wig, out_main)
    out_metrics = os.path.join(outdir, "wigner_metrics.csv")
    write_csv(
        out_metrics,
        ("quantity", "value"),
        [
            ("negativity_ratio", negativity_ratio(wig)),
            ("w_min", float(wig.values.min())),
            ("w_max", float(wig.values.max())),
        ],
    )
    return [out_main, out_metrics]


def _run_kernel_check(p: dict, outdir: str) -> list:
    grid = _make_grid(p)
    phys = PhysParams()
    t = p["total_time"]
    margin = p["margin"] * np.sqrt(phys.hbar * t / phys.mass)
    inside = (grid.x >= grid.x_min + margin) & (grid.x <= grid.x_max - margin)
    if not np.any(inside):
        raise ConfigError(f"margin {p['margin']} leaves no interior grid points")
    box = np.ix_(inside, inside)

    def deviation(n_slices: int) -> float:
        # nothing n^2 outlives the call, so each sliced_kernel build runs
        # alone; the O(n^2) closed form is rebuilt beside the O(n^3) power
        plan = SlicingPlan(n_slices, t, EUCLIDEAN)
        approx = sliced_kernel(grid, free_potential(), plan, phys).entries.real[box]
        exact = free_kernel_euclidean(grid, t, phys).entries.real[box]
        return float(np.max(np.abs(approx - exact)))

    rows = [(n_slices, deviation(n_slices)) for n_slices in p["slice_counts"]]
    out = os.path.join(outdir, "kernel_check.csv")
    write_csv(out, ("n_slices", "max_abs_deviation"), rows)
    return [out]


def _run_commutator(p: dict, outdir: str) -> list:
    grid = _make_grid(p)
    phys = PhysParams()
    rows = []
    for regime in (MINKOWSKI, EUCLIDEAN):
        plan = SlicingPlan(p["n_slices"], p["total_time"], regime)
        for j in p["slice_indices"]:
            if not (1 <= j <= p["n_slices"] - 1):
                raise ConfigError(
                    f"slice index {j} outside interior range 1..{p['n_slices'] - 1}"
                )
            try:
                val = commutator_expectation(plan, grid, phys, j, p["boundary_width"])
            except np.linalg.LinAlgError:
                raise  # a numerical failure of the solve, not a bad value
            except ValueError as exc:  # j is checked above; the rest name their parameter
                raise ConfigError(str(exc)) from None
            rows.append((regime, j, val.real, val.imag))
    out = os.path.join(outdir, "commutator.csv")
    write_csv(out, ("regime", "j", "re", "im"), rows)
    return [out]


def _weight_ratio_error(pgrid: Grid1D, prob_m, prob_e, t: float, phys: PhysParams) -> float:
    """Largest deviation of the raw-weight ratio prob_e / prob_m from the
    analytic damping factor, where prob_m holds more than 1e-12 of its peak."""
    px = pgrid.x[:, None]
    py = pgrid.x[None, :]
    predicted = np.exp(-(px**2 + py**2) * t / (phys.hbar * phys.mass))
    keep = prob_m > 1e-12 * prob_m.max()
    return float(np.max(np.abs(prob_e[keep] / prob_m[keep] - predicted[keep])))


# Array bytes each grid experiment holds at its peak on n points; the schema
# checks them against MEMORY_BUDGET_BYTES before anything is allocated.
# - epr: the initial pair, the minkowski-evolved pair and the momentum
#   transform's full-spectrum intermediate (n^2 complex each) plus its
#   density (n^2 float); the FFT blocks of its second pass add about 800
#   bytes per grid point. The real euclidean arm holds less.
# - wigner: wigner_transform's folded lag correlation (n x (n//2 + 1)
#   complex) with a product temporary of its size, or with the real W and
#   its shifted copy: about 25 bytes per cell. The CSV rows and the first
#   call's numpy.fft import stay under 720 bytes per point from n = 256 on.
# - negativity-decay: the real trap Hamiltonian and its eigenvectors (n^2
#   float each) besides one wigner_transform; the shear regime holds less.
# - kernel-check: one sliced_kernel build, about 33 bytes per cell; no
#   kernel outlives its slice count. numpy's index buffers and the CSV stay
#   under 128 KiB.
# - commutator: the grid coordinates and their arange temporary; the CSV
#   stays under 128 KiB. The path solve is held to the budget through
#   n_slices, apart from the grid (_path_solve_bytes).
_PEAK_BYTES = {
    "epr": lambda n: 56 * n * n + 1024 * n,
    "wigner": lambda n: 25 * n * n + 720 * n,
    "negativity-decay": lambda n: 41 * n * n + 1024 * n,
    "kernel-check": lambda n: 33 * n * n + 2**17,
    "commutator": lambda n: 16 * n + 2**17,
}


# counts that only lengthen a list, in bytes per loop vertex or schedule
# sample: the traced peak's slope from 1e4 to 1e5 segments or from 200 to
# 2000 samples, rounded up
_SEGMENT_BYTES = 272
_CHSH_SAMPLE_BYTES = 360  # both curves
_DAMPING_SAMPLE_BYTES = 224


def _path_solve_bytes(n_slices: int) -> int:
    """commutator_expectation's peak: the (n + 1)^2 complex quadratic form
    beside the identity its three right-hand sides are cut from."""
    return 32 * (n_slices + 1) ** 2 + 2**17


def _run_epr(p: dict, outdir: str) -> list:
    grid = _make_grid(p)
    phys = PhysParams()
    # both momentum windows are checked on the dual grid before the pair exists
    pgrid = dual_grid(grid, phys)
    center, half = p["condition_momentum"], 2.0 * pgrid.dx
    lo, hi = center - half, center + half
    if not np.any((pgrid.x >= lo) & (pgrid.x <= hi)):
        raise ConfigError(f"condition_momentum {center} has no momentum sample within {half:.3g}")
    window = np.abs(pgrid.x) <= p["p_window"]
    if window.sum() < 8:
        raise ConfigError(
            f"p_window {p['p_window']} keeps {window.sum()} momentum samples; the CSV grid needs 8"
        )
    # a vanishing time overflows the kernel rows' prefactor
    t = p["time"]
    for regime in (MINKOWSKI, EUCLIDEAN):
        _guarded(f"{regime} kernel", p, ("time",), grid, partial(free_kernel_row, grid, t, phys, regime))
    pair = _guarded(
        "pair",
        p,
        ("s", "envelope"),
        grid,
        lambda: epr_initial_pair(grid, CorrelationWidth(p["s"]), p["envelope"], phys),
    )
    pearson_initial = momentum_anticorrelation(pair)
    # each evolved pair is dropped as soon as its momentum density exists
    prob_m = joint_momentum_distribution(evolve_pair(pair, t, MINKOWSKI))[1]
    ratio_err = _weight_ratio_error(
        pgrid, prob_m, joint_momentum_distribution(evolve_pair(pair, t, EUCLIDEAN))[1], t, phys
    )

    # both metrics renormalize, so the raw-weight prob_m serves as it is
    cond_grid, cond = _conditional(pgrid, prob_m, lo, hi)
    peak = float(cond_grid.x[int(np.argmax(cond))])

    out_main = os.path.join(outdir, "epr_momentum.csv")
    sub = Grid1D(float(pgrid.x[window][0]), float(pgrid.x[window][-1]), int(window.sum()))
    normalized = prob_m / np.sum(prob_m) / pgrid.dx**2
    momentum_distribution_to_csv(sub, normalized[np.ix_(window, window)], out_main)
    out_metrics = os.path.join(outdir, "epr_metrics.csv")
    write_csv(
        out_metrics,
        ("quantity", "value"),
        [
            ("pearson_initial", pearson_initial),
            ("pearson_minkowski", _pearson(pgrid, prob_m)),
            ("ratio_max_abs_error", ratio_err),
            ("conditional_peak", peak),
            ("conditional_peak_offset", abs(peak + center)),
        ],
    )
    return [out_main, out_metrics]


def _run_negativity_decay(p: dict, outdir: str) -> list:
    grid = _make_grid(p)
    phys = PhysParams()
    psi = _make_state(grid, phys, p)
    out = os.path.join(outdir, "negativity_decay.csv")
    if p["regime"] == "euclidean":
        h = _guarded(
            "trap",
            p,
            ("omega",),
            grid,
            lambda: hamiltonian(grid, phys, harmonic_potential(p["omega"], phys)),
        )
        taus = np.linspace(0.0, p["tau_max"], p["n_samples"])
        points = negativity_trajectory(psi, h, taus, EUCLIDEAN)
    else:  # minkowski-shear
        wig = wigner_transform(psi)
        # commensurate times: each step shifts every row by a whole cell count
        t_star = phys.mass * grid.n_points * grid.dx**2 / (2.0 * np.pi * phys.hbar)
        times = t_star * np.arange(p["n_samples"])
        points = shear_negativity_trajectory(wig, times, phys)
    trajectory_to_csv(points, out)
    return [out]


def _run_spin_phase(p: dict, outdir: str) -> list:
    loops = [
        ("equator", equator_loop(p["equator_segments"])),
        ("octant", octant_loop()),
        ("latitude", latitude_loop(p["latitude_theta"], p["latitude_segments"])),
    ]
    rows = []
    for loop_id, loop in loops:
        phase = wz_phase_closed_path(loop)
        rows.append((loop_id, 2.0 * phase, phase))
    out = os.path.join(outdir, "spin_phases.csv")
    phases_to_csv(rows, out)
    return [out]


def _angles_line(label: str, settings) -> str:
    parts = []
    for name, setting in zip(("a", "a'", "b", "b'"), settings):
        theta, phi = setting.angles
        parts.append(f"{name}=(theta={theta:.6f}, phi={phi:.6f})")
    return f"{label}: " + "  ".join(parts)


def _run_chsh(p: dict, outdir: str) -> list:
    seed, restarts = p["seed"], p["restarts"]
    settings_s, s_singlet = chsh_maximize(singlet(), restarts=restarts, seed=seed)
    plus_down = TwoQubitState.of(0.0, 1.0, 0.0, 1.0)  # (up+down) x down
    bell = cnot(plus_down)
    settings_c, s_bell = chsh_maximize(bell, restarts=restarts, seed=seed)
    print(_angles_line("singlet", settings_s))
    print(_angles_line("cnot-bell", settings_c))
    out = os.path.join(outdir, "chsh.csv")
    write_csv(
        out,
        ("quantity", "value"),
        [
            ("singlet_chsh_max", s_singlet),
            ("cnot_bell_chsh_max", s_bell),
        ],
    )
    return [out]


def _run_chsh_decay(p: dict, outdir: str) -> list:
    taus = np.linspace(0.0, p["tau_max"], p["n_samples"])
    energies = p["energies"]
    if len(energies) != 4:
        raise ConfigError(f"energies needs exactly 4 values, got {len(energies)}")
    # bounds the decay's exponents (E - floor) tau and the control's phases
    # E tau; Python floats round an overflow to inf without a warning
    exponent = 2.0 * float(np.max(np.abs(energies))) * p["tau_max"]
    if not np.isfinite(exponent):
        raise ConfigError(
            f"energies ({_canonical(energies)}) and tau_max ({_canonical(p['tau_max'])}) "
            f"leave a non-finite kernel exponent: 2 max|E| tau_max = {exponent}"
        )
    state0 = singlet()
    decay = euclidean_chsh_decay(
        state0, energies, taus, restarts=p["restarts"], seed=p["seed"]
    )
    control = minkowski_chsh_control(
        state0, energies, taus, restarts=p["restarts"], seed=p["seed"]
    )
    out_decay = os.path.join(outdir, "chsh_decay.csv")
    decay_to_csv(decay, out_decay)
    out_control = os.path.join(outdir, "chsh_control.csv")
    decay_to_csv(control, out_control)
    return [out_decay, out_control]


@dataclass(frozen=True)
class Experiment:
    summary: str
    schema: dict
    runner: Callable[[dict, str], list]


EXPERIMENTS = {
    "wigner": Experiment(
        "Wigner function of a chosen 1-D state with negativity metrics",
        {**_grid_params(peak_bytes=_PEAK_BYTES["wigner"]), **_state_params()},
        _run_wigner,
    ),
    "kernel-check": Experiment(
        "sliced imaginary-time kernel against the closed form as slices double",
        {
            **_grid_params(512, -16.0, 16.0, _PEAK_BYTES["kernel-check"]),
            "total_time": ParamSpec("float", 1.0, "total propagation time", _positive("total_time")),
            "slice_counts": ParamSpec(
                "ints",
                (16, 32, 64, 128),
                "slice counts to compare",
                lambda counts: _at_least("slice_counts", 2)(min(counts)),
            ),
            "margin": ParamSpec(
                "float", 5.0, "interior margin in units of sqrt(hbar T / m)", _positive("margin")
            ),
        },
        _run_kernel_check,
    ),
    "commutator": Experiment(
        "position-momentum twist expectation on sliced free paths in both regimes",
        {
            **_grid_params(512, -16.0, 16.0, _PEAK_BYTES["commutator"]),
            "n_slices": ParamSpec(
                "int", 8, "number of time slices", _budgeted("n_slices", 2, "slices", _path_solve_bytes)
            ),
            "total_time": ParamSpec("float", 1.0, "total time", _positive("total_time")),
            "slice_indices": ParamSpec("ints", (2, 5), "interior slice indices to probe"),
            "boundary_width": ParamSpec(
                "float", 1.0, "endpoint wavepacket width", _positive("boundary_width")
            ),
        },
        _run_commutator,
    ),
    "epr": Experiment(
        "correlated-pair momentum anti-correlation and regime weight ratio",
        {
            # needs artifacts below ~1e-13 of peak for a clean weight ratio:
            # envelope tail exp(-x_max^2/4E^2) ~ 1e-15 at the border, and the
            # chirp alias shift 2 pi hbar T/(m dx) = 25 clears the whole box
            **_grid_params(1536, -11.5, 11.5, _PEAK_BYTES["epr"]),
            "s": ParamSpec("float", 0.05, "relative-coordinate width", _positive("s")),
            "envelope": ParamSpec("float", 1.0, "center-of-mass envelope width", _positive("envelope")),
            "time": ParamSpec("float", 0.06, "propagation time", _positive("time")),
            "condition_momentum": ParamSpec(
                "float", 2.0, "momentum window center for the conditioning check"
            ),
            "p_window": ParamSpec(
                "float", 20.0, "half-width of the momentum box written to CSV", _positive("p_window")
            ),
        },
        _run_epr,
    ),
    "negativity-decay": Experiment(
        "negativity-ratio trajectory under damping or under the free shear",
        {
            # wide box: dp = 2 pi hbar / span must resolve the |cos(2 a p)|
            # fringe integral, or the f column picks up aliasing wiggles
            **_grid_params(512, -48.0, 48.0, _PEAK_BYTES["negativity-decay"]),
            **_state_params(
                "cat-even", "initial state kind (even parity decays to the nodeless ground state)"
            ),
            "regime": ParamSpec(
                "str",
                "euclidean",
                "euclidean damping, or minkowski-shear on a narrow fine grid",
                _choice("regime", ("euclidean", "minkowski-shear")),
            ),
            "omega": ParamSpec("float", 1.0, "harmonic trap frequency (euclidean)", _positive("omega")),
            "tau_max": ParamSpec("float", 6.0, "final imaginary time (euclidean)", _positive("tau_max")),
            "n_samples": ParamSpec(
                "int", 32, "number of schedule samples",
                _budgeted("n_samples", 2, "samples", lambda n: _DAMPING_SAMPLE_BYTES * n),
            ),
        },
        _run_negativity_decay,
    ),
    "spin-phase": Experiment(
        "geometric phases of closed sphere loops: equator, octant, latitude",
        {
            "equator_segments": ParamSpec(
                "int", 256, "equator discretization",
                _budgeted("equator_segments", 3, "segments", lambda n: _SEGMENT_BYTES * n),
            ),
            "latitude_segments": ParamSpec(
                "int", 256, "latitude discretization",
                _budgeted("latitude_segments", 3, "segments", lambda n: _SEGMENT_BYTES * n),
            ),
            "latitude_theta": ParamSpec(
                "float",
                1.0471975511965976,
                "polar angle of the latitude loop",
                lambda v: None if 0.0 < v < np.pi else f"latitude_theta must be in (0, pi), got {v}",
            ),
        },
        _run_spin_phase,
    ),
    "chsh": Experiment(
        "optimized CHSH for the singlet and the CNOT-generated Bell state",
        {
            "seed": ParamSpec("int", 0, "optimizer seed", _at_least("seed", 0)),
            "restarts": ParamSpec("int", 16, "optimizer restarts", _at_least("restarts", 1)),
        },
        _run_chsh,
    ),
    "chsh-decay": Experiment(
        "CHSH under a positive diagonal kernel, with the unitary control run",
        {
            "seed": ParamSpec("int", 0, "optimizer seed", _at_least("seed", 0)),
            "restarts": ParamSpec("int", 16, "optimizer restarts", _at_least("restarts", 1)),
            "tau_max": ParamSpec("float", 8.0, "final (imaginary) time", _positive("tau_max")),
            "n_samples": ParamSpec(
                "int", 33, "number of schedule samples",
                _budgeted("n_samples", 2, "samples", lambda n: _CHSH_SAMPLE_BYTES * n),
            ),
            "energies": ParamSpec("floats", (0.0, 1.0, 2.0, 3.0), "diagonal level energies"),
        },
        _run_chsh_decay,
    ),
}


# ------------------------------------------------------------- configuration


def _parse_scalar(kind: str, key: str, text: str):
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "ints":
            return tuple(int(part) for part in text.split(","))
        if kind == "floats":
            return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"parameter {key}: cannot parse {text!r} as {kind}") from None
    return text


def load_config_file(path: str) -> dict:
    """key=value per line; blank lines and lines starting with # are skipped."""
    values: dict = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty parameter name")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate parameter {key!r}")
        values[key] = value
    return values


def build_config(experiment: str, raw_values: dict) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choices: {', '.join(EXPERIMENTS)}"
        )
    schema = EXPERIMENTS[experiment].schema
    unknown = sorted(set(raw_values) - set(schema))
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) {', '.join(unknown)} for {experiment}; "
            f"valid keys: {', '.join(sorted(schema))}"
        )
    parameters = {}
    for key, spec in schema.items():
        if key in raw_values:
            value = _parse_scalar(spec.kind, key, raw_values[key])
        else:
            value = spec.default
        if spec.check is not None:
            message = spec.check(value)
            if message:
                raise ConfigError(f"parameter {key}: {message}")
        parameters[key] = value
    return ExperimentConfig(experiment, parameters)


def run(config: ExperimentConfig, outdir: str) -> list:
    """Execute one experiment; returns the list of files written."""
    exp = EXPERIMENTS[config.experiment]
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir!r}: {exc}") from None
    written = exp.runner(config.parameters, outdir)
    written.append(_manifest(outdir, config.experiment, config.parameters))
    return written


def list_experiments(as_csv: bool = False) -> str:
    if as_csv:
        lines = ["experiment,summary"]
        lines += [f"{name},{exp.summary}" for name, exp in EXPERIMENTS.items()]
    else:
        lines = [f"{name} - {exp.summary}" for name, exp in EXPERIMENTS.items()]
    return "\n".join(lines)


# ----------------------------------------------------------------- interface


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wickbell",
        description="deterministic experiments on kernels, phase space and Bell tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment")
    runp.add_argument("experiment", help="experiment name (see list-experiments)")
    runp.add_argument("--config", help="key=value configuration file")
    runp.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override one parameter (repeatable)",
    )
    runp.add_argument(
        "--out",
        help=f"output directory (default: ${OUTDIR_ENV}, else ./{DEFAULT_OUTDIR})",
    )

    listp = sub.add_parser("list-experiments", help="show the experiment catalog")
    listp.add_argument("--csv", action="store_true", help="emit the catalog as CSV")
    return parser


def entry(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-experiments":
            print(list_experiments(as_csv=args.csv))
            return 0
        raw: dict = {}
        if args.config:
            raw.update(load_config_file(args.config))
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise ConfigError(f"--set needs a parameter name, got {item!r}")
            raw[key] = value
        config = build_config(args.experiment, raw)
        outdir = args.out or os.environ.get(OUTDIR_ENV) or DEFAULT_OUTDIR
        written = run(config, outdir)
        for path in written:
            print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # configuration is checked by the schema and at its source, which
        # raise ConfigError; any other ValueError comes from inside run()
        print(f"run error in {args.experiment}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(entry())


if __name__ == "__main__":
    main()
