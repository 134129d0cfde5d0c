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
    condition_on_momentum_window,
    epr_initial_pair,
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
    default: object  # an int, float or str, or a tuple of ints or of floats
    help: str
    check: Callable[[str, object], str | None] | None = None

    @property
    def kind(self) -> str:
        """int, float or str; ints or floats for a tuple."""
        if isinstance(self.default, tuple):
            return type(self.default[0]).__name__ + "s"
        return type(self.default).__name__


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    parameters: dict


def _positive(key: str, v) -> str | None:
    if not (0 < v < np.inf):
        return f"{key} must be positive and finite, got {v}"
    return None


def _finite(key: str, v) -> str | None:
    if not np.isfinite(v):
        return f"{key} must be finite, got {v}"
    return None


def _at_least(bound: int):
    def check(key, v):
        if v < bound:
            return f"{key} must be >= {bound}, got {v}"
        return None

    return check


def _choice(*options: str):
    def check(key, v):
        if v not in options:
            return f"{key} must be one of {', '.join(options)}; got {v!r}"
        return None

    return check


def _over_budget(count: int, unit: str, peak_bytes: Callable[[int], int]) -> str | None:
    """The message for a count whose peak_bytes(count) is over the memory
    budget, else None."""
    budget = f"the {MEMORY_BUDGET_BYTES >> 20} MiB budget"
    # every estimate is at least a byte per count: a larger count is over
    # the budget without computing, or printing, its huge estimate
    if count > MEMORY_BUDGET_BYTES:
        return f"more than {MEMORY_BUDGET_BYTES} {unit} are over {budget}"
    if peak_bytes(count) > MEMORY_BUDGET_BYTES:
        return f"{count} {unit} would hold {peak_bytes(count) >> 20} MiB of arrays, over {budget}"
    return None


def _grid_params(n_points: int = 256, x_min: float = -16.0, x_max: float = 16.0) -> dict:
    return {
        "n_points": ParamSpec(n_points, "grid sample count", _at_least(8)),
        "x_min": ParamSpec(x_min, "left grid edge", _finite),
        "x_max": ParamSpec(x_max, "right grid edge", _finite),
    }


def _state_params(state: str = "cat-odd", state_help: str = "initial state kind") -> dict:
    return {
        "state": ParamSpec(state, state_help, _choice("gaussian", "cat-odd", "cat-even")),
        "width": ParamSpec(1.0, "Gaussian width", _positive),
        "center": ParamSpec(0.0, "packet center (gaussian only)", _finite),
        "momentum": ParamSpec(0.0, "packet momentum (gaussian only)", _finite),
        "separation": ParamSpec(3.0, "cat branch offset", _positive),
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
        approx = sliced_kernel(grid, free_potential(), plan, phys).entries[box]
        exact = free_kernel_euclidean(grid, t, phys).entries[box]
        return float(np.max(np.abs(approx - exact)))

    rows = [(n_slices, deviation(n_slices)) for n_slices in p["slice_counts"]]
    out = os.path.join(outdir, "kernel_check.csv")
    write_csv(out, ("n_slices", "max_abs_deviation"), rows)
    return [out]


def _run_commutator(p: dict, outdir: str) -> list:
    phys = PhysParams()
    rows = []
    for regime in (MINKOWSKI, EUCLIDEAN):
        plan = SlicingPlan(p["n_slices"], p["total_time"], regime)
        for j in p["slice_indices"]:
            try:
                val = commutator_expectation(plan, phys, j, p["boundary_width"])
            except ValueError as exc:  # the schema has checked boundary_width
                raise ConfigError(f"parameter slice_indices: {exc}") from None
            rows.append((regime, j, val.real, val.imag))
    out = os.path.join(outdir, "commutator.csv")
    write_csv(out, ("regime", "j", "re", "im"), rows)
    return [out]


def _weight_ratio_error(pgrid: Grid1D, prob_m, prob_e, t: float, phys: PhysParams) -> float:
    """Largest deviation of the raw-weight ratio prob_e / prob_m from the
    analytic damping factor, evaluated only where prob_m holds more than
    1e-12 of its peak."""
    kx, ky = np.nonzero(prob_m > 1e-12 * prob_m.max())
    predicted = np.exp(-(pgrid.x[kx] ** 2 + pgrid.x[ky] ** 2) * t / (phys.hbar * phys.mass))
    return float(np.max(np.abs(prob_e[kx, ky] / prob_m[kx, ky] - predicted)))


# Array bytes an experiment holds at its peak, as a function of one int
# parameter: (experiment, parameter) -> (unit, estimate). build_config checks
# each estimate against MEMORY_BUDGET_BYTES once the parameter passes its own
# check, before anything is allocated.
# Grid experiments, on n points:
# - epr: the float64 initial pair beside one evolved density's arrays, about
#   32 bytes per cell: the minkowski arm's complex intermediate and density,
#   or the euclidean arm's float64 first pass and half-spectrum rows beside
#   the minkowski density. Convolution blocks and a first call's numpy.fft
#   import stay under 2432 B per point. That is the general path, which any
#   box with x_min != -x_max takes; a centrosymmetric pair's intermediates
#   have half the rows, about 29 bytes per cell, within the same estimate.
# - wigner: wigner_transform's folded lag correlation (n x (n//2 + 1)
#   complex) with a product temporary of its size, or with the real W and
#   its shifted copy: about 25 bytes per cell. The CSV rows and the first
#   call's numpy.fft import stay under 720 bytes per point from n = 256 on.
# - negativity-decay: the real trap Hamiltonian and its eigenvectors (n^2
#   float each) besides one wigner_transform; the shear regime holds less.
# - kernel-check: one sliced_kernel build, about 32 bytes per cell; no
#   kernel outlives its slice count. numpy's index buffers and the CSV stay
#   under 128 KiB.
# Counts that only lengthen an array or a list, in bytes per time slice,
# loop vertex or schedule sample: the traced peak's slope of the run from
# 1e5 to 1e6 slices, from 2000 to 10000 segments or from 200 to 2000
# samples, taken with the interpreter's free lists emptied, rounded up to 16 bytes.
_PEAK_BYTES = {
    ("epr", "n_points"): ("points", lambda n: 32 * n * n + 2432 * n),
    ("wigner", "n_points"): ("points", lambda n: 25 * n * n + 720 * n),
    ("negativity-decay", "n_points"): ("points", lambda n: 41 * n * n + 1024 * n),
    ("kernel-check", "n_points"): ("points", lambda n: 32 * n * n + 2**17),
    # the path solve's right-hand side and its running sum
    ("commutator", "n_slices"): ("slices", lambda n: 16 * n),
    # 12 floats a segment: the path, its roll, the triple product, the three
    # pair dots and two row temporaries
    ("spin-phase", "equator_segments"): ("segments", lambda n: 96 * n),
    ("spin-phase", "latitude_segments"): ("segments", lambda n: 96 * n),
    ("chsh-decay", "n_samples"): ("samples", lambda n: 432 * n),  # both curves
    ("negativity-decay", "n_samples"): ("samples", lambda n: 224 * n),
}

_SEED_PARAM = {
    "seed": ParamSpec(
        0,
        "ignored: the CHSH maximum is closed-form; accepted until the benchmark "
        "plans stop passing it",
        _at_least(0),
    ),
}


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
    pearson_initial = momentum_anticorrelation(*joint_momentum_distribution(pair))
    # each evolved pair exists only block by block, inside its momentum density
    prob_m = joint_momentum_distribution(pair, t, MINKOWSKI)[1]
    ratio_err = _weight_ratio_error(
        pgrid, prob_m, joint_momentum_distribution(pair, t, EUCLIDEAN)[1], t, phys
    )

    # both statistics take a density of any weight: the raw prob_m serves as it is
    cond_grid, cond = condition_on_momentum_window(pgrid, prob_m, lo, hi)
    peak = float(cond_grid.x[int(np.argmax(cond))])

    out_main = os.path.join(outdir, "epr_momentum.csv")
    sub = Grid1D(float(pgrid.x[window][0]), float(pgrid.x[window][-1]), int(window.sum()))
    normalized = prob_m[np.ix_(window, window)] / np.sum(prob_m) / pgrid.dx**2
    momentum_distribution_to_csv(sub, normalized, out_main)
    out_metrics = os.path.join(outdir, "epr_metrics.csv")
    write_csv(
        out_metrics,
        ("quantity", "value"),
        [
            ("pearson_initial", pearson_initial),
            ("pearson_minkowski", momentum_anticorrelation(pgrid, prob_m)),
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
        points = shear_negativity_trajectory(wig, times)
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
        try:
            phase = wz_phase_closed_path(loop)
        except ValueError as exc:  # of the three, only a latitude loop can reach -z
            theta = _canonical(p["latitude_theta"])
            raise ConfigError(f"latitude_theta={theta} puts the loop too near -z: {exc}") from None
        rows.append((loop_id, 2.0 * phase, phase))
    out = os.path.join(outdir, "spin_phases.csv")
    phases_to_csv(rows, out)
    return [out]


def _angles_line(label: str, settings) -> str:
    """The analyzer directions (a, a', b, b') as polar angles theta and phi."""
    parts = []
    for name, d in zip(("a", "a'", "b", "b'"), settings):
        theta, phi = np.arccos(np.clip(d.n_z, -1.0, 1.0)), np.arctan2(d.n_y, d.n_x)
        parts.append(f"{name}=(theta={theta:.6f}, phi={phi:.6f})")
    return f"{label}: " + "  ".join(parts)


def _run_chsh(p: dict, outdir: str) -> list:
    settings_s, s_singlet = chsh_maximize(singlet())
    plus_down = TwoQubitState.of(0.0, 1.0, 0.0, 1.0)  # (up+down) x down
    settings_c, s_bell = chsh_maximize(cnot(plus_down))
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
    # bounds the decay's exponents (E - floor) tau and the control's phases
    # E tau; Python floats round an overflow to inf without a warning
    exponent = 2.0 * float(np.max(np.abs(energies))) * p["tau_max"]
    if not np.isfinite(exponent):
        raise ConfigError(
            f"energies ({_canonical(energies)}) and tau_max ({_canonical(p['tau_max'])}) "
            f"leave a non-finite kernel exponent: 2 max|E| tau_max = {exponent}"
        )
    state0 = singlet()
    decay = euclidean_chsh_decay(state0, energies, taus)
    control = minkowski_chsh_control(state0, energies, taus)
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
        {**_grid_params(), **_state_params()},
        _run_wigner,
    ),
    "kernel-check": Experiment(
        "sliced imaginary-time kernel against the closed form as slices double",
        {
            **_grid_params(512, -16.0, 16.0),
            "total_time": ParamSpec(1.0, "total propagation time", _positive),
            "slice_counts": ParamSpec(
                (16, 32, 64, 128),
                "slice counts to compare",
                lambda key, counts: _at_least(2)(key, min(counts)),
            ),
            "margin": ParamSpec(5.0, "interior margin in units of sqrt(hbar T / m)", _positive),
        },
        _run_kernel_check,
    ),
    "commutator": Experiment(
        "position-momentum twist expectation on sliced free paths in both regimes",
        {
            "n_slices": ParamSpec(8, "number of time slices", _at_least(2)),
            "total_time": ParamSpec(1.0, "total time", _positive),
            "slice_indices": ParamSpec((2, 5), "interior slice indices to probe"),
            "boundary_width": ParamSpec(1.0, "endpoint wavepacket width", _positive),
        },
        _run_commutator,
    ),
    "epr": Experiment(
        "correlated-pair momentum anti-correlation and regime weight ratio",
        {
            # needs artifacts below ~1e-13 of peak for a clean weight ratio:
            # envelope tail exp(-x_max^2/4E^2) ~ 1e-15 at the border, and the
            # chirp alias shift 2 pi hbar T/(m dx) = 25 clears the whole box
            **_grid_params(1536, -11.5, 11.5),
            "s": ParamSpec(0.05, "relative-coordinate width", _positive),
            "envelope": ParamSpec(1.0, "center-of-mass envelope width", _positive),
            "time": ParamSpec(0.06, "propagation time", _positive),
            "condition_momentum": ParamSpec(2.0, "momentum window center for the conditioning check"),
            "p_window": ParamSpec(20.0, "half-width of the momentum box written to CSV", _positive),
        },
        _run_epr,
    ),
    "negativity-decay": Experiment(
        "negativity-ratio trajectory under damping or under the free shear",
        {
            # wide box: dp = 2 pi hbar / span must resolve the |cos(2 a p)|
            # fringe integral, or the f column picks up aliasing wiggles
            **_grid_params(512, -48.0, 48.0),
            **_state_params(
                "cat-even", "initial state kind (even parity decays to the nodeless ground state)"
            ),
            "regime": ParamSpec(
                "euclidean",
                "euclidean damping, or minkowski-shear on a narrow fine grid",
                _choice("euclidean", "minkowski-shear"),
            ),
            "omega": ParamSpec(1.0, "harmonic trap frequency (euclidean)", _positive),
            "tau_max": ParamSpec(6.0, "final imaginary time (euclidean)", _positive),
            "n_samples": ParamSpec(32, "number of schedule samples", _at_least(2)),
        },
        _run_negativity_decay,
    ),
    "spin-phase": Experiment(
        "geometric phases of closed sphere loops: equator, octant, latitude",
        {
            "equator_segments": ParamSpec(256, "equator discretization", _at_least(3)),
            "latitude_segments": ParamSpec(256, "latitude discretization", _at_least(3)),
            "latitude_theta": ParamSpec(
                1.0471975511965976,
                "polar angle of the latitude loop",
                lambda key, v: None if 0.0 < v < np.pi else f"{key} must be in (0, pi), got {v}",
            ),
        },
        _run_spin_phase,
    ),
    "chsh": Experiment(
        "optimized CHSH for the singlet and the CNOT-generated Bell state",
        _SEED_PARAM,
        _run_chsh,
    ),
    "chsh-decay": Experiment(
        "CHSH under a positive diagonal kernel, with the unitary control run",
        {
            **_SEED_PARAM,
            "tau_max": ParamSpec(8.0, "final (imaginary) time", _positive),
            "n_samples": ParamSpec(33, "number of schedule samples", _at_least(2)),
            "energies": ParamSpec(
                (0.0, 1.0, 2.0, 3.0),
                "diagonal level energies",
                lambda key, e: None if len(e) == 4 else f"{key} needs exactly 4 values, got {len(e)}",
            ),
        },
        _run_chsh_decay,
    ),
}


# ------------------------------------------------------------- configuration


def _parse_scalar(spec: ParamSpec, key: str, text: str):
    """text as the type of spec's default, item by item for a tuple."""
    default = spec.default
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(part) for part in text.split(","))
        return type(default)(text)
    except ValueError:
        raise ConfigError(f"parameter {key}: cannot parse {text!r} as {spec.kind}") from None


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
            value = _parse_scalar(spec, key, raw_values[key])
        else:
            value = spec.default
        message = spec.check(key, value) if spec.check else None
        if message is None and (experiment, key) in _PEAK_BYTES:
            message = _over_budget(value, *_PEAK_BYTES[experiment, key])
        if message:
            raise ConfigError(f"parameter {key}: {message}")
        parameters[key] = value
    return ExperimentConfig(experiment, parameters)


def run(config: ExperimentConfig, outdir: str) -> list:
    """Execute one experiment; returns the list of files written. A
    ConfigError from the runner's own checks, or an OSError writing its
    outputs (raised as a ConfigError naming the file), removes the
    directories this call created for `outdir` again, as far as they are
    still empty."""
    exp = EXPERIMENTS[config.experiment]
    created = []  # outdir and its missing parents, deepest first
    path = os.path.abspath(outdir)
    while not os.path.exists(path):
        created.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir!r}: {exc}") from None
    try:
        written = exp.runner(config.parameters, outdir)
        written.append(_manifest(outdir, config.experiment, config.parameters))
    except (ConfigError, OSError) as exc:
        for path in created:
            if os.listdir(path):
                break
            os.rmdir(path)
        if isinstance(exc, OSError):
            target = exc.filename if exc.filename is not None else outdir
            raise ConfigError(f"cannot write output {target}: {exc.strerror or exc}") from None
        raise
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
