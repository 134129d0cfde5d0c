"""Independent reference implementations used to pin expected test values.

Every function here recomputes a quantity through a different route than the
package uses: adaptive quadrature instead of grid matrix products, continuant
recursions instead of dense solves, closed forms instead of optimizers, the
l'Huilier excess instead of the vertex arctan formula. Tests compare package
output against these, and a handful of scalars computed here are frozen as
literals next to their uses.

Run as a script to print the frozen constants:

    python3 tests/oracles.py
"""

from __future__ import annotations

import numpy as np
from scipy import integrate
from scipy.linalg import expm


# ---------------------------------------------------------------------------
# free-particle evolution of a Gaussian packet, via the momentum route
# ---------------------------------------------------------------------------

def gaussian_momentum_amplitude(
    p, center: float, width: float, momentum: float, hbar: float = 1.0
):
    """phi(p) of psi(x) = (pi w^2)^(-1/4) exp(-(x-c)^2/2w^2 + i p0 (x-c)/hbar).

    phi(p) = (w^2/(pi hbar^2))^(1/4) exp(-w^2 (p-p0)^2/(2 hbar^2) - i p c/hbar).
    """
    pref = (width**2 / (np.pi * hbar**2)) ** 0.25
    return pref * np.exp(
        -(width**2) * (p - momentum) ** 2 / (2.0 * hbar**2) - 1j * p * center / hbar
    )


def evolved_gaussian_point(
    x: float,
    t: float,
    regime: str,
    center: float = 0.0,
    width: float = 1.0,
    momentum: float = 0.0,
    hbar: float = 1.0,
    mass: float = 1.0,
) -> complex:
    """Amplitude at x after free evolution for time t, by adaptive quadrature.

    Minkowski multiplies phi(p) by the phase exp(-i p^2 t / 2 m hbar);
    Euclidean by the damping exp(-p^2 t / 2 m hbar) and returns the raw
    (unrenormalized) amplitude, matching what a heat kernel application gives.
    """

    def integrand(p: np.ndarray) -> np.ndarray:
        phi = gaussian_momentum_amplitude(p, center, width, momentum, hbar)
        if regime == "minkowski":
            branch = np.exp(-0.5j * p**2 * t / (mass * hbar))
        elif regime == "euclidean":
            branch = np.exp(-0.5 * p**2 * t / (mass * hbar))
        else:
            raise ValueError(regime)
        return phi * branch * np.exp(1j * p * x / hbar) / np.sqrt(2.0 * np.pi * hbar)

    re, _ = integrate.quad(
        lambda p: integrand(p).real, -np.inf, np.inf, limit=400, epsabs=1e-12, epsrel=1e-12
    )
    im, _ = integrate.quad(
        lambda p: integrand(p).imag, -np.inf, np.inf, limit=400, epsabs=1e-12, epsrel=1e-12
    )
    return complex(re, im)


def spread_width_minkowski(width: float, t: float, hbar: float = 1.0, mass: float = 1.0) -> float:
    """Amplitude width after real-time free flight: w sqrt(1 + (hbar t/m w^2)^2)."""
    return width * np.sqrt(1.0 + (hbar * t / (mass * width**2)) ** 2)


def spread_width_euclidean(width: float, t: float, hbar: float = 1.0, mass: float = 1.0) -> float:
    """Amplitude width after heat flow: sqrt(w^2 + hbar t/m)."""
    return np.sqrt(width**2 + hbar * t / mass)


# ---------------------------------------------------------------------------
# closed-form kernels
# ---------------------------------------------------------------------------

def point_kernel_minkowski(xf, xi, t, hbar=1.0, mass=1.0):
    pref = np.sqrt(mass / (2.0 * np.pi * hbar * t)) * np.exp(-0.25j * np.pi)
    return pref * np.exp(0.5j * mass * (xf - xi) ** 2 / (hbar * t))


def point_kernel_euclidean(xf, xi, t, hbar=1.0, mass=1.0):
    pref = np.sqrt(mass / (2.0 * np.pi * hbar * t))
    return pref * np.exp(-0.5 * mass * (xf - xi) ** 2 / (hbar * t))


def mehler_euclidean_harmonic(xf, xi, tau, omega, hbar=1.0, mass=1.0):
    """Exact imaginary-time oscillator kernel (Mehler).

    K = sqrt(m w / 2 pi hbar sinh(w tau)) *
        exp(-m w [(xf^2 + xi^2) cosh(w tau) - 2 xf xi] / (2 hbar sinh(w tau))).
    """
    sh = np.sinh(omega * tau)
    ch = np.cosh(omega * tau)
    pref = np.sqrt(mass * omega / (2.0 * np.pi * hbar * sh))
    expo = -mass * omega * ((xf**2 + xi**2) * ch - 2.0 * xf * xi) / (2.0 * hbar * sh)
    return pref * np.exp(expo)


# ---------------------------------------------------------------------------
# sliced-path twist moments by continuant recursion (no dense solves)
# ---------------------------------------------------------------------------

def _tridiag_inverse_entry(diag: np.ndarray, off: complex, a: int, b: int) -> complex:
    """(A^-1)[a, b] for tridiagonal A with constant off-diagonal, via the
    left/right continuant recursions L_k = d_k L_{k-1} - off^2 L_{k-2}."""
    n = len(diag)
    left = np.empty(n + 1, dtype=np.complex128)
    left[0] = 1.0  # L_{-1}
    left[1] = diag[0]
    for k in range(1, n):
        left[k + 1] = diag[k] * left[k] - off**2 * left[k - 1]
    right = np.empty(n + 1, dtype=np.complex128)
    right[n] = 1.0  # R_{n}
    right[n - 1] = diag[n - 1]
    for k in range(n - 2, -1, -1):
        right[k] = diag[k] * right[k + 1] - off**2 * right[k + 2]
    det = left[n]
    lo, hi = min(a, b), max(a, b)
    return (-off) ** (hi - lo) * left[lo] * right[hi + 1] / det


def twist_expectation_oracle(
    n_slices: int,
    j: int,
    eps: float,
    regime: str,
    boundary_width: float = 1.0,
    boundary_center: float = 0.0,
    hbar: float = 1.0,
    mass: float = 1.0,
) -> complex:
    """<(m/eps) x_j (2 x_j - x_{j-1} - x_{j+1})> over sliced free paths with
    Gaussian endpoint packets, from the tridiagonal action form.

    The path weight is exp(-x^T A x / 2 + b.x): A has the kinetic coupling
    k = m/(hbar eps) as -2ik on the diagonal and +ik off it (real time), or
    +2k and -k (imaginary time); both end diagonals add the packet term
    1/w^2 and halve the kinetic part; b is nonzero only at the ends.
    Moments come from continuants, not a matrix solve.
    """
    if not 1 <= j <= n_slices - 1:
        raise ValueError("interior slice index required")
    k = mass / (hbar * eps)
    if regime == "minkowski":
        diag_mid, off = -2.0j * k, 1.0j * k
    elif regime == "euclidean":
        diag_mid, off = 2.0 * k, -1.0 * k
    else:
        raise ValueError(regime)
    size = n_slices + 1
    diag = np.full(size, diag_mid, dtype=np.complex128)
    end = 1.0 / boundary_width**2 + 0.5 * diag_mid
    diag[0] = end
    diag[-1] = end

    def inv(a: int, b: int) -> complex:
        return _tridiag_inverse_entry(diag, off, a, b)

    second = 2.0 * inv(j, j) - inv(j, j - 1) - inv(j, j + 1)
    if boundary_center != 0.0:
        b0 = boundary_center / boundary_width**2
        mu = {
            a: b0 * (inv(a, 0) + inv(a, size - 1)) for a in (j - 1, j, j + 1)
        }
        second += mu[j] * (2.0 * mu[j] - mu[j - 1] - mu[j + 1])
    return complex(mass / eps * second)


def twist_expectation_nquad_euclidean(
    eps: float, boundary_width: float = 1.0, hbar: float = 1.0, mass: float = 1.0
) -> float:
    """Brute-force 3-D integral of the N = 2 imaginary-time twist (j = 1).

    Slow but assumption-free: numerator and denominator integrals of the raw
    damped path weight times the inserted observable, over (x0, x1, x2).
    """
    k = mass / (hbar * eps)
    w2 = boundary_width**2

    def weight(x0, x1, x2):
        kinetic = 0.5 * k * ((x1 - x0) ** 2 + (x2 - x1) ** 2)
        ends = 0.5 * (x0**2 + x2**2) / w2
        return np.exp(-kinetic - ends)

    def numer(x0, x1, x2):
        return weight(x0, x1, x2) * (mass / eps) * x1 * (2.0 * x1 - x0 - x2)

    lim = [[-8.0 * boundary_width, 8.0 * boundary_width]] * 3
    opts = {"epsabs": 1e-12, "epsrel": 1e-12}
    num, _ = integrate.nquad(numer, lim, opts=[opts] * 3)
    den, _ = integrate.nquad(weight, lim, opts=[opts] * 3)
    return num / den


# ---------------------------------------------------------------------------
# phase space
# ---------------------------------------------------------------------------

def gaussian_wigner_point(x, p, width=1.0, center=0.0, momentum=0.0, hbar=1.0):
    """W(x, p) = (pi hbar)^-1 exp(-(x-c)^2/w^2 - w^2 (p-p0)^2/hbar^2)."""
    return (
        np.exp(-((x - center) ** 2) / width**2 - width**2 * (p - momentum) ** 2 / hbar**2)
        / (np.pi * hbar)
    )


def cat_wigner_point(x, p, separation, width=1.0, parity="odd", hbar=1.0):
    """Exact Wigner function of the two-Gaussian superposition.

    W = N^2 [G(x-a, p) + G(x+a, p) +- 2 G(x, p) cos(2 a p/hbar)] with
    G the unit Gaussian blob and N^2 = 1/(2 (1 +- exp(-a^2/w^2))).
    """
    sign = 1.0 if parity == "even" else -1.0
    norm2 = 1.0 / (2.0 * (1.0 + sign * np.exp(-(separation**2) / width**2)))

    def blob(xx):
        return gaussian_wigner_point(xx, p, width, 0.0, 0.0, hbar)

    fringe = 2.0 * sign * blob(x) * np.cos(2.0 * separation * p / hbar)
    return norm2 * (blob(x - separation) + blob(x + separation) + fringe)


def cat_negativity_exact(separation, width=1.0, parity="odd", hbar=1.0) -> float:
    """f = int|W| / int W for the cat state, by dense quadrature of the
    closed-form W on a private fine grid (independent of any FFT transform)."""
    xs = np.linspace(-(separation + 12.0 * width), separation + 12.0 * width, 4001)
    ps = np.linspace(-12.0 * hbar / width, 12.0 * hbar / width, 4003)
    w = cat_wigner_point(xs[:, None], ps[None, :], separation, width, parity, hbar)
    num = np.trapezoid(np.trapezoid(np.abs(w), ps, axis=1), xs)
    den = np.trapezoid(np.trapezoid(w, ps, axis=1), xs)
    return float(num / den)


def excited_state_negativity(hbar=1.0) -> float:
    """f for the first excited oscillator state (m = omega = 1), from the
    closed form W_1 = -(1/pi hbar) (1 - 4H/hbar) exp(-2H/hbar), H = (p^2+x^2)/2."""
    xs = np.linspace(-10.0, 10.0, 4001)
    ps = np.linspace(-10.0, 10.0, 4003)
    h = 0.5 * (xs[:, None] ** 2 + ps[None, :] ** 2)
    w = -(1.0 - 4.0 * h / hbar) * np.exp(-2.0 * h / hbar) / (np.pi * hbar)
    num = np.trapezoid(np.trapezoid(np.abs(w), ps, axis=1), xs)
    den = np.trapezoid(np.trapezoid(w, ps, axis=1), xs)
    return float(num / den)


def dense_wigner_of_density(rho, dx, hbar=1.0) -> np.ndarray:
    """W[j, k] of density samples rho[a, b] by the dense lag sum.

    Half-grid samples come from a dense trigonometric interpolation matrix
    (the Nyquist term, present for even n only, as the cosine it splits
    into), the lag sum over y_l = l dx, l = -(n-1) .. n-1, is the
    (n x 2n-1)(2n-1 x n) product with the dual-grid phases
    exp(i p_k y_l / hbar) = exp(2 pi i l (k - n//2) / n). No FFT and no
    folding of the lag axis. Returns the complex W.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    n = rho.shape[0]
    offset = np.arange(2 * n)[:, None] / 2.0 - np.arange(n)[None, :]
    freqs = np.arange(-((n - 1) // 2), (n - 1) // 2 + 1)
    interp = np.sum(np.exp(2j * np.pi * offset[..., None] * freqs / n), axis=-1) / n
    if n % 2 == 0:
        interp += np.cos(np.pi * offset) / n
    half = interp @ rho @ interp.T
    j = np.arange(n)[:, None]
    lags = np.arange(-(n - 1), n)
    minus, plus = 2 * j - lags, 2 * j + lags
    inside = (np.minimum(minus, plus) >= 0) & (np.maximum(minus, plus) < 2 * n)
    corr = np.where(inside, half[np.clip(minus, 0, 2 * n - 1), np.clip(plus, 0, 2 * n - 1)], 0.0)
    phases = np.exp(2j * np.pi * np.outer(lags, np.arange(n) - n // 2) / n)
    return (dx / (2.0 * np.pi * hbar)) * (corr @ phases)


# ---------------------------------------------------------------------------
# EPR pair moments (pure Gaussian algebra)
# ---------------------------------------------------------------------------

def epr_moments(s: float, envelope: float, hbar: float = 1.0) -> dict:
    """Moments of psi ~ exp(-(x-y)^2/4s^2 - (x+y)^2/16 E^2).

    In u = x - y, v = x + y the amplitude factorizes into Gaussians of width
    sigma_u = sqrt(2) s and sigma_v = 2 sqrt(2) E, so Var(u) = s^2 under
    |psi|^2 and the conjugate momenta (p_x -+ p_y)/2 carry hbar^2/(2 sigma^2):
    Var(p_x - p_y) = hbar^2/s^2, Var(p_x + p_y) = hbar^2/(4 E^2). The Pearson
    correlation of (p_x, p_y) follows from the sum/difference variances.
    """
    var_diff = hbar**2 / s**2
    var_sum = hbar**2 / (4.0 * envelope**2)
    var_each = 0.25 * (var_sum + var_diff)
    cov = 0.25 * (var_sum - var_diff)
    return {
        "var_x_minus_y": s**2,
        "var_p_sum": var_sum,
        "var_p_diff": var_diff,
        "var_p_each": var_each,
        "pearson": cov / var_each,
    }


def euclidean_weight_ratio(px, py, t, hbar=1.0, mass=1.0):
    """Pointwise raw-weight ratio of heat-evolved to phase-evolved momentum
    distributions: exp(-(p_x^2 + p_y^2) t / hbar m)."""
    return np.exp(-(px**2 + py**2) * t / (hbar * mass))


# ---------------------------------------------------------------------------
# sphere geometry
# ---------------------------------------------------------------------------

def lhuilier_area(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> float:
    """Signed spherical excess by l'Huilier's half-side formula, orientation
    from the scalar triple product."""
    a = np.arccos(np.clip(v2 @ v3, -1.0, 1.0))
    b = np.arccos(np.clip(v1 @ v3, -1.0, 1.0))
    c = np.arccos(np.clip(v1 @ v2, -1.0, 1.0))
    s = 0.5 * (a + b + c)
    inner = (
        np.tan(0.5 * s)
        * np.tan(0.5 * (s - a))
        * np.tan(0.5 * (s - b))
        * np.tan(0.5 * (s - c))
    )
    excess = 4.0 * np.arctan(np.sqrt(max(inner, 0.0)))
    triple = float(v1 @ np.cross(v2, v3))
    return float(np.copysign(excess, triple)) if triple != 0.0 else 0.0


_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def spinor_by_expm(n: np.ndarray, n0: np.ndarray = np.array([0.0, 0.0, 1.0])) -> np.ndarray:
    """Rotate the canonical spinor at n0 onto n with scipy's matrix exponential."""
    theta0 = np.arccos(np.clip(n0[2], -1.0, 1.0))
    phi0 = np.arctan2(n0[1], n0[0])
    base = np.array([np.cos(theta0 / 2.0), np.exp(1j * phi0) * np.sin(theta0 / 2.0)])
    cross = np.cross(n0, n)
    sin_t = np.linalg.norm(cross)
    cos_t = float(n0 @ n)
    if sin_t < 1e-15:
        if cos_t > 0.0:
            return base
        raise ValueError("antipodal pair has no unique rotation")
    axis = cross / sin_t
    theta = np.arctan2(sin_t, cos_t)
    gen = axis[0] * _SX + axis[1] * _SY + axis[2] * _SZ
    return expm(-0.5j * theta * gen) @ base


def latitude_solid_angle(theta: float) -> float:
    """Cap solid angle enclosed by the circle at polar angle theta."""
    return 2.0 * np.pi * (1.0 - np.cos(theta))


# ---------------------------------------------------------------------------
# two-qubit correlations
# ---------------------------------------------------------------------------

def correlation_tensor(amplitudes: np.ndarray) -> np.ndarray:
    """T[i, j] = <sigma_i x sigma_j> from amplitudes reshaped to psi[a, b]."""
    psi = np.asarray(amplitudes, dtype=np.complex128).reshape(2, 2)
    paulis = (_SX, _SY, _SZ)
    t = np.empty((3, 3))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            t[i, j] = np.real(np.einsum("ab,ac,bd,cd->", psi.conj(), si, sj, psi))
    return t


def chsh_horodecki(amplitudes: np.ndarray) -> float:
    """Maximum CHSH value 2 sqrt(m1 + m2) from the two largest eigenvalues of
    T^T T; closed form, no optimizer."""
    t = correlation_tensor(amplitudes)
    lam = np.sort(np.linalg.eigvalsh(t.T @ t))
    return 2.0 * np.sqrt(lam[-1] + lam[-2])


def singlet_chsh_coplanar(ta, ta_alt, tb, tb_alt) -> float:
    """S for the singlet with all four analyzers in one plane at the given
    angles; E(a, b) = -cos(angle difference)."""

    def e(u, v):
        return -np.cos(u - v)

    return e(ta, tb) - e(ta, tb_alt) + e(ta_alt, tb) + e(ta_alt, tb_alt)


def damped_singlet_chsh(tau: float) -> float:
    """Closed-form trajectory for the singlet damped by diag(0, 1, 2, 3):
    amplitudes ~ (e^-tau, -e^-2tau) on the antiparallel pair, concurrence
    2ab = sech(tau), maximum CHSH 2 sqrt(1 + sech^2 tau)."""
    return 2.0 * np.sqrt(1.0 + 1.0 / np.cosh(tau) ** 2)


if __name__ == "__main__":
    print("frozen constants (paste into tests):")
    print(f"  overlap(+-a, a=1.5, w=1):   {np.exp(-1.5**2):.17g}")
    print(f"  f_even(a=3, w=1):           {cat_negativity_exact(3.0, 1.0, 'even'):.17g}")
    print(f"  f_odd(a=3, w=1):            {cat_negativity_exact(3.0, 1.0, 'odd'):.17g}")
    print(f"  f(first excited):           {excited_state_negativity():.17g}")
    print(f"  pearson(s=0.05, E=1):       {epr_moments(0.05, 1.0)['pearson']:.17g}")
    print(f"  octant area:                {lhuilier_area(np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]):.17g}")
    print(f"  damped singlet S(tau=0.25): {damped_singlet_chsh(0.25):.17g}")
    print(f"  twist nquad (eps=0.2):      {twist_expectation_nquad_euclidean(0.2):.17g}")
    ev = evolved_gaussian_point(0.7, 0.9, "minkowski", center=-0.3, width=1.1, momentum=0.8)
    print(f"  evolved M psi(0.7):         {ev.real:.17g} {ev.imag:+.17g}j")
    ev = evolved_gaussian_point(0.7, 0.9, "euclidean", center=-0.3, width=1.1, momentum=0.8)
    print(f"  evolved E psi(0.7):         {ev.real:.17g} {ev.imag:+.17g}j")
