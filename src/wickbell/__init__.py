"""Numerical experiments contrasting oscillatory and positive path weights.

The package builds free-particle kernels in both the unitary (Minkowski)
and heat-like (Euclidean) regimes on finite position grids, transforms
states to phase space, and tracks what each regime does to interference,
momentum correlations, spin geometric phases and Bell-test scores.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GridEscapeError,
    NumericalGuardError,
    TraceCollapseError,
)
from .grids import (
    EUCLIDEAN,
    MINKOWSKI,
    Grid1D,
    Kernel,
    PhysParams,
    WaveFunction,
    apply_kernel,
    cat_state,
    dual_grid,
    gaussian_wavepacket,
    momentum_representation,
)
from .kernels import (
    Potential,
    SlicingPlan,
    commutator_expectation,
    free_kernel_euclidean,
    free_kernel_minkowski,
    free_potential,
    harmonic_potential,
    sliced_kernel,
)
from .phase_space import (
    WignerGrid,
    negativity_ratio,
    wigner_of_density,
    wigner_transform,
)
from .evolution import (
    Hamiltonian,
    density_from_wavefunction,
    free_wigner_shear,
    hamiltonian,
    negativity_trajectory,
)
from .epr import (
    CorrelationWidth,
    PairWaveFunction,
    condition_on_momentum_window,
    epr_initial_pair,
    evolve_pair,
    joint_momentum_distribution,
    momentum_anticorrelation,
)
from .spin_geometry import (
    SphericalPath,
    SpinorState,
    UnitVector,
    coherent_overlap,
    coherent_state,
    free_spin_kernel_pair,
    spherical_triangle_area,
    wz_phase_closed_path,
)
from .bell import (
    TwoQubitState,
    chsh_maximize,
    cnot,
    euclidean_chsh_decay,
    minkowski_chsh_control,
    singlet,
)

__all__ = [
    "__version__",
    "ConfigError",
    "GridEscapeError",
    "NumericalGuardError",
    "TraceCollapseError",
    "EUCLIDEAN",
    "MINKOWSKI",
    "Grid1D",
    "Kernel",
    "PhysParams",
    "WaveFunction",
    "apply_kernel",
    "cat_state",
    "dual_grid",
    "gaussian_wavepacket",
    "momentum_representation",
    "Potential",
    "SlicingPlan",
    "commutator_expectation",
    "free_kernel_euclidean",
    "free_kernel_minkowski",
    "free_potential",
    "harmonic_potential",
    "sliced_kernel",
    "WignerGrid",
    "negativity_ratio",
    "wigner_of_density",
    "wigner_transform",
    "Hamiltonian",
    "density_from_wavefunction",
    "free_wigner_shear",
    "hamiltonian",
    "negativity_trajectory",
    "CorrelationWidth",
    "PairWaveFunction",
    "condition_on_momentum_window",
    "epr_initial_pair",
    "evolve_pair",
    "joint_momentum_distribution",
    "momentum_anticorrelation",
    "SphericalPath",
    "SpinorState",
    "UnitVector",
    "coherent_overlap",
    "coherent_state",
    "free_spin_kernel_pair",
    "spherical_triangle_area",
    "wz_phase_closed_path",
    "TwoQubitState",
    "chsh_maximize",
    "cnot",
    "euclidean_chsh_decay",
    "minkowski_chsh_control",
    "singlet",
]
