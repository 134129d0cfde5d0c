"""In-memory spans around the package's public functions, and their self times.

A span is (name, start, end, parent): `parent` is the index of the span that
was open when this one started, or -1. Wrappers are installed from outside
the package, at every module attribute that holds the original function, so
calls made through `from .x import f` references are seen as well. Nothing
under `src/` is changed.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# Public functions timed by the traced run, as "<module>.<function>" under
# the wickbell package.
TRACED = (
    "cli.build_config",
    "cli.run",
    "grids.dft_matrix",
    "grids.cat_state",
    "grids.gaussian_wavepacket",
    "kernels.free_kernel_minkowski",
    "kernels.free_kernel_euclidean",
    "kernels.sliced_kernel",
    "kernels.commutator_expectation",
    "phase_space.wigner_transform",
    "phase_space.wigner_of_density",
    "phase_space.negativity_ratio",
    "phase_space.wigner_to_csv",
    "evolution.hamiltonian",
    "evolution.density_from_wavefunction",
    "evolution.negativity_trajectory",
    "evolution.shear_negativity_trajectory",
    "evolution.free_wigner_shear",
    "evolution.trajectory_to_csv",
    "epr.epr_initial_pair",
    "epr.evolve_pair",
    "epr.joint_momentum_distribution",
    "epr.momentum_anticorrelation",
    "epr.condition_on_momentum_window",
    "epr.momentum_distribution_to_csv",
    "spin_geometry.wz_phase_closed_path",
    "spin_geometry.phases_to_csv",
    "bell.chsh_maximize",
    "bell.euclidean_chsh_decay",
    "bell.minkowski_chsh_control",
    "bell.decay_to_csv",
    "csvio.write_csv",
)


class Recorder:
    """Collects spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced


def install(recorder: Recorder) -> None:
    """Replace every reference the loaded wickbell modules hold to a TRACED
    function with its wrapper."""
    modules = [
        m for name, m in sys.modules.items()
        if m is not None and (name == "wickbell" or name.startswith("wickbell."))
    ]
    for qualname in TRACED:
        module_name, func_name = qualname.split(".")
        original = getattr(sys.modules[f"wickbell.{module_name}"], func_name)
        wrapped = recorder.wrap(qualname, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def wrapper_cost() -> float:
    """Seconds one wrapper adds to a call: best of five loops of 20,000 calls
    to a wrapped no-op, minus the same for the bare no-op, per call."""
    n_calls, repeats = 20_000, 5

    def noop():
        return None

    def best_loop(make_fn) -> float:
        best = math.inf
        for _ in range(repeats):
            fn = make_fn()
            started = time.perf_counter()
            for _ in range(n_calls):
                fn()
            best = min(best, time.perf_counter() - started)
        return best

    wrapped = best_loop(lambda: Recorder().wrap("noop", noop))
    bare = best_loop(lambda: noop)
    return max(wrapped - bare, 0.0) / n_calls


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the durations of its direct
    child spans. Spans come from one call stack, so children are disjoint
    and lie inside their parent."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans, n_rounds: int) -> dict[str, float]:
    """Per-round calls and self seconds for every TRACED name (0 when the
    workload never calls it)."""
    calls = dict.fromkeys(TRACED, 0)
    seconds = dict.fromkeys(TRACED, 0.0)
    for (name, *_), own in zip(spans, self_times(spans)):
        calls[name] += 1
        seconds[name] += own
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = calls[name] / n_rounds
        out[f"{name}.self_s"] = seconds[name] / n_rounds
    return out

