"""End-to-end acceptance gate.

One test per acceptance criterion, numbered; running this module under
``pytest -v`` prints one pass/fail line per criterion. Tolerances are stated
inline next to each assertion.
"""

import numpy as np
import pytest

from oracles import (
    chsh_horodecki,
    damped_singlet_chsh,
    gaussian_wigner_point,
    mehler_euclidean_harmonic,
    twist_expectation_oracle,
)
from wickbell import EUCLIDEAN, MINKOWSKI, Grid1D, PhysParams
from wickbell.bell import (
    TwoQubitState,
    chsh_maximize,
    cnot,
    correlation_matrix,
    euclidean_chsh_decay,
    minkowski_chsh_control,
    singlet,
)
from wickbell.cli import entry
from wickbell.epr import (
    CorrelationWidth,
    epr_initial_pair,
    evolve_pair,
    joint_momentum_distribution,
    momentum_anticorrelation,
)
from wickbell.evolution import (
    free_wigner_shear,
    hamiltonian,
    negativity_trajectory,
    shear_negativity_trajectory,
)
from wickbell.grids import (
    apply_kernel,
    cat_state,
    gaussian_wavepacket,
    momentum_representation,
)
from wickbell.kernels import (
    SlicingPlan,
    commutator_expectation,
    free_kernel_euclidean,
    free_kernel_minkowski,
    free_potential,
    harmonic_potential,
    sliced_kernel,
)
from wickbell.phase_space import negativity_ratio, wigner_transform
from wickbell.spin_geometry import (
    PLUS_X,
    PLUS_Y,
    PLUS_Z,
    UnitVector,
    coherent_overlap,
    coherent_state,
    equator_loop,
    free_spin_kernel_pair,
    latitude_loop,
    path_loop_product,
    wz_phase_closed_path,
)

PHYS = PhysParams()
TSIRELSON = 2.0 * np.sqrt(2.0)


def offset_grid(half_span: float, n: int) -> Grid1D:
    dx = 2.0 * half_span / n
    return Grid1D(-half_span, half_span - dx, n)


def test_acceptance_01_sliced_euclidean_kernel_converges_to_closed_form():
    """Sliced imaginary-time kernels reproduce the exact closed forms.

    Free case: interior deviation < 1e-4 at every slice count and
    non-increasing (above a 5e-13 roundoff floor) as slices double.
    Harmonic case: deviation shrinks by at least 0.75 per doubling,
    demonstrating genuine first-order convergence where a slicing error
    actually exists.
    """
    grid = Grid1D(-16.0, 16.0, 512)
    t = 1.0
    exact = free_kernel_euclidean(grid, t, PHYS)
    margin = 5.0 * np.sqrt(PHYS.hbar * t / PHYS.mass)
    mask = (grid.x >= grid.x_min + margin) & (grid.x <= grid.x_max - margin)
    sub = np.ix_(mask, mask)
    devs = []
    for n in (16, 32, 64, 128):
        k = sliced_kernel(grid, free_potential(), SlicingPlan(n, t, EUCLIDEAN), PHYS)
        devs.append(float(np.max(np.abs(k.entries - exact.entries)[sub])))
    assert all(d < 1e-4 for d in devs)
    floored = [max(d, 5e-13) for d in devs]
    assert all(b <= a for a, b in zip(floored, floored[1:]))

    hgrid = Grid1D(-10.0, 10.0, 512)
    pot = harmonic_potential(1.0, PHYS)
    href = mehler_euclidean_harmonic(hgrid.x[:, None], hgrid.x[None, :], 1.0, 1.0)
    hmask = np.abs(hgrid.x) <= 5.0
    hsub = np.ix_(hmask, hmask)
    errs = []
    for n in (16, 32, 64, 128):
        k = sliced_kernel(hgrid, pot, SlicingPlan(n, 1.0, EUCLIDEAN), PHYS)
        errs.append(float(np.max(np.abs(k.entries - href)[hsub])))
    assert all(b < 0.75 * a for a, b in zip(errs, errs[1:]))


def test_acceptance_02_commutator_sign_flips_between_regimes():
    """Sliced-path position-momentum twist: i*hbar in real time, +hbar in
    imaginary time, within 1e-6 of the independent continuant-recursion
    oracle; interior-slice independence within 1e-6.
    """
    for n, j in ((2, 1), (3, 1), (3, 2), (4, 2)):
        plan_m = SlicingPlan(n, 1.0, MINKOWSKI)
        plan_e = SlicingPlan(n, 1.0, EUCLIDEAN)
        got_m = commutator_expectation(plan_m, PHYS, j)
        got_e = commutator_expectation(plan_e, PHYS, j)
        assert got_m == pytest.approx(1j * PHYS.hbar, abs=1e-6)
        assert got_e == pytest.approx(PHYS.hbar, abs=1e-6)
        assert got_m == pytest.approx(
            twist_expectation_oracle(n, j, plan_m.epsilon, "minkowski"), abs=1e-6
        )
        assert got_e == pytest.approx(
            twist_expectation_oracle(n, j, plan_e.epsilon, "euclidean"), abs=1e-6
        )
    plan = SlicingPlan(8, 1.0, MINKOWSKI)
    vals = [commutator_expectation(plan, PHYS, j) for j in range(2, 7)]
    assert max(abs(v - vals[0]) for v in vals) < 1e-6


def test_acceptance_03_wigner_transform_matches_closed_forms():
    """Gaussian Wigner function within 1e-8 of the closed form, both
    marginals within 1e-8, and the odd two-packet superposition shows a
    negative origin value and integral ratio > 1.
    """
    g = offset_grid(12.0, 256)
    psi = gaussian_wavepacket(g, PHYS, center=0.4, width=1.2, momentum=0.6)
    w = wigner_transform(psi)
    ref = gaussian_wigner_point(w.x_axis.x[:, None], w.p_axis.x[None, :], 1.2, 0.4, 0.6)
    assert np.max(np.abs(w.values - ref)) < 1e-8

    gc = offset_grid(48.0, 512)
    cat = cat_state(gc, PHYS, separation=3.0, width=1.0, parity="odd")
    wc = wigner_transform(cat)
    p_marginal = np.sum(wc.values, axis=1) * wc.p_axis.dx
    assert np.max(np.abs(p_marginal - np.abs(cat.amplitudes) ** 2)) < 1e-8
    phi = momentum_representation(cat)
    x_marginal = np.sum(wc.values, axis=0) * wc.x_axis.dx
    assert np.max(np.abs(x_marginal - np.abs(phi.amplitudes) ** 2)) < 1e-8
    assert wc.values[256, 256] < 0.0
    assert negativity_ratio(wc) > 1.0


def test_acceptance_04_negativity_survives_unitary_dies_under_damping():
    """Imaginary-time damping drives the negativity ratio monotonically
    (within +1e-6 per step) to 1 within 1e-4; the free real-time shear keeps
    it constant to 1e-4 at exact-cell times.
    """
    g = offset_grid(48.0, 512)
    h = hamiltonian(g, PHYS, harmonic_potential(1.0, PHYS))
    psi0 = cat_state(g, PHYS, 3.0, 1.0, "even")
    taus = np.linspace(0.0, 6.0, 32)
    pts = negativity_trajectory(psi0, h, taus, EUCLIDEAN)
    f = np.array([p.negativity for p in pts])
    assert np.all(np.diff(f) <= 1e-6)
    assert f[0] > 1.5
    assert f[-1] < 1.0 + 1e-4

    gs = offset_grid(12.0, 256)
    w0 = wigner_transform(cat_state(gs, PHYS, 3.0, 1.0, "odd"))
    t_cell = PHYS.mass * gs.n_points * gs.dx**2 / (2.0 * np.pi * PHYS.hbar)
    shear_pts = shear_negativity_trajectory(w0, t_cell * np.arange(1, 6))
    sf = [p.negativity for p in shear_pts] + [negativity_ratio(w0)]
    assert max(sf) - min(sf) < 1e-4


def test_acceptance_05_shear_agrees_with_kernel_evolution():
    """Free real-time dynamics through two independent routes (phase-space
    shear versus kernel-evolved state re-transformed) agree to L1 < 1e-4.
    """
    g = offset_grid(12.0, 256)
    cat = cat_state(g, PHYS, 3.0, 1.0, "odd")
    t_cell = PHYS.mass * g.n_points * g.dx**2 / (2.0 * np.pi * PHYS.hbar)
    t = 2.0 * t_cell
    sheared = shear_negativity_trajectory(wigner_transform(cat), [t])
    direct_state = apply_kernel(free_kernel_minkowski(g, t, PHYS), cat).normalized()
    direct = wigner_transform(direct_state)
    shear_w = free_wigner_shear(wigner_transform(cat), t)
    l1 = float(np.sum(np.abs(shear_w.values - direct.values)) * direct.cell_area)
    assert l1 < 1e-4
    assert sheared[0].negativity == pytest.approx(negativity_ratio(shear_w), abs=1e-12)


def test_acceptance_06_epr_anticorrelation_and_euclidean_reweighting():
    """Tightly squeezed pair: momentum Pearson correlation below -0.99 and
    equal before/after unitary evolution within 1e-6; the real non-negative
    kernel multiplies the joint momentum density by the predicted Gaussian
    factor to relative 1e-6 on the reweighted support.
    """
    grid = Grid1D(-11.5, 11.5, 1536)
    pair = epr_initial_pair(grid, CorrelationWidth(0.05), 1.0, PHYS)
    t = 0.06
    r0 = momentum_anticorrelation(*joint_momentum_distribution(pair))
    assert r0 < -0.99
    assert r0 == pytest.approx(-0.99875078076202373, abs=1e-6)
    evolved_m = evolve_pair(pair, t, MINKOWSKI)
    assert momentum_anticorrelation(*joint_momentum_distribution(evolved_m)) == pytest.approx(
        r0, abs=1e-6
    )

    pgrid, p_mink = joint_momentum_distribution(evolved_m)
    _, p_eucl = joint_momentum_distribution(evolve_pair(pair, t, EUCLIDEAN))
    px, py = np.meshgrid(pgrid.x, pgrid.x, indexing="ij")
    ref = np.exp(-(px**2 + py**2) * t / (PHYS.hbar * PHYS.mass))
    mask = p_eucl > 1e-12 * p_eucl.max()
    rel = np.abs(p_eucl[mask] / p_mink[mask] - ref[mask]) / ref[mask]
    assert float(np.max(rel)) < 1e-6


def test_acceptance_07_spin_kernel_is_regime_independent():
    """Spin-coherent transition amplitudes: equal to the spinor inner
    product within 1e-10 over 1000 seeded direction pairs, the quarter-turn
    phase e^{i pi/4}/sqrt(2) on the octant transition within 1e-10, and
    literally identical amplitudes in the two time regimes.
    """
    rng = np.random.default_rng(41)
    for _ in range(1000):
        raw = rng.normal(size=(2, 3))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        n_i, n_f = (UnitVector.of(*row) for row in raw)
        got = coherent_overlap(n_i, n_f)
        ref = coherent_state(n_f).overlap_with(coherent_state(n_i))
        assert got == pytest.approx(ref, abs=1e-10)
        k_real, k_imag = free_spin_kernel_pair(n_i, n_f)
        assert k_real == k_imag
    octant = coherent_overlap(PLUS_Y, PLUS_X, PLUS_Z)
    assert octant == pytest.approx(np.exp(0.25j * np.pi) / np.sqrt(2.0), abs=1e-10)


def test_acceptance_08_geometric_phase_tracks_enclosed_area():
    """Closed-loop phases: equator -> pi within 1e-6, latitude-cap error
    falls by more than 3x per segment doubling, and loop products are
    independent of the gauge reference within 1e-10.
    """
    assert wz_phase_closed_path(equator_loop(256)) == pytest.approx(np.pi, abs=1e-6)
    theta = np.pi / 3.0
    target = 2.0 * np.pi * (1.0 - np.cos(theta))
    errs = [
        abs(2.0 * wz_phase_closed_path(latitude_loop(theta, n)) - target)
        for n in (16, 32, 64)
    ]
    assert errs[1] < errs[0] / 3.0 and errs[2] < errs[1] / 3.0
    rng = np.random.default_rng(53)
    loop = latitude_loop(0.8, 20)
    base = path_loop_product(loop, PLUS_Z)
    for _ in range(10):
        n0 = UnitVector.of(*rng.normal(size=3))
        assert path_loop_product(loop, n0) == pytest.approx(base, abs=1e-10)


def test_acceptance_09_chsh_reaches_tsirelson_only_with_entanglement():
    """Optimized CHSH: singlet and the CNOT-generated pair reach 2 sqrt(2)
    within 1e-6; 10^4 random product states stay below 2 + 1e-9 (closed-form
    maximum over all settings).
    """
    _, s_singlet = chsh_maximize(singlet())
    assert abs(s_singlet) == pytest.approx(TSIRELSON, abs=1e-6)
    bell = cnot(TwoQubitState.of(0.0, 1.0, 0.0, 1.0))
    _, s_bell = chsh_maximize(bell)
    assert abs(s_bell) == pytest.approx(TSIRELSON, abs=1e-6)
    assert abs(s_bell) == pytest.approx(chsh_horodecki(bell.amplitudes), abs=1e-9)

    rng = np.random.default_rng(67)
    worst = 0.0
    for _ in range(10_000):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = TwoQubitState(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
        t = correlation_matrix(state)
        lam = np.sort(np.linalg.eigvalsh(t.T @ t))
        worst = max(worst, 2.0 * np.sqrt(lam[-1] + lam[-2]))
    assert worst <= 2.0 + 1e-9


def test_acceptance_10_bell_violation_decays_only_in_imaginary_time():
    """Positive diagonal damping pulls the singlet's optimized CHSH from
    2 sqrt(2) (within 1e-6 at tau=0, matching 2 sqrt(1+sech^2 tau) within
    1e-7) monotonically to within 1e-4 of the classical bound 2, while the
    unitary control stays at 2 sqrt(2) within 1e-9 for all times.
    """
    taus = np.linspace(0.0, 8.0, 33)
    levels = [0.0, 1.0, 2.0, 3.0]
    decay = euclidean_chsh_decay(singlet(), levels, taus)
    vals = np.array([p.chsh_max for p in decay])
    assert vals[0] == pytest.approx(TSIRELSON, abs=1e-6)
    for p in decay:
        assert p.chsh_max == pytest.approx(damped_singlet_chsh(p.tau), abs=1e-7)
    assert np.all(np.diff(vals) <= 1e-6)
    assert abs(vals[-1] - 2.0) < 1e-4
    control = minkowski_chsh_control(singlet(), levels, taus)
    for p in control:
        assert p.chsh_max == pytest.approx(TSIRELSON, abs=1e-9)


def test_acceptance_11_cli_experiments_are_deterministic(tmp_path, capsys):
    """Every catalog experiment runs to success twice with default
    parameters and produces byte-identical files.
    """
    experiments = (
        "wigner",
        "kernel-check",
        "commutator",
        "epr",
        "negativity-decay",
        "spin-phase",
        "chsh",
        "chsh-decay",
    )
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for exp in experiments:
        for d in (dir_a, dir_b):
            assert entry(["run", exp, "--out", str(d / exp)]) == 0
    capsys.readouterr()
    for exp in experiments:
        files_a = sorted((dir_a / exp).iterdir())
        files_b = sorted((dir_b / exp).iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        assert len(files_a) >= 2  # at least one CSV plus the manifest
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes(), fa.name
