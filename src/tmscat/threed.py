"""Three-dimensional formulation: disc grids, point defect, stacked layers.

Channels now carry a transverse momentum vector pvec inside the disc
|pvec| <= k, with omega(pvec) = sqrt(k^2 - |pvec|^2).  The radial direction
is parametrized by omega itself: integrals over the disc satisfy

    int_disc d2p f / omega = int_0^{2pi} dphi int_0^k f domega,

so Gauss-Legendre nodes in omega integrate the ubiquitous 1/omega factor
with its plain weights (exactly, for constants, at any node count), while
the uniform azimuthal rule is exact for trigonometric polynomials.  The
incident coherent beam is 4 pi^2 delta(p_x) delta(p_y).  Operators on a
DiscGrid are the same TransferOperator as in 2D, and compose,
solve_outgoing and SpectralAmplitude serve them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, UnsupportedEvaluationError
from .closedforms import point_operator
from .evolution import EvolutionConfig, evolve_transfer
from .grid import SpectralAmplitude, barycentric_interpolate
from .operators import (COS_EXCLUSION, TransferOperator, _checked_grid, compose,
                        solve_outgoing)
from .potentials import is_y_independent

# 3D evolution is bounded to desk scale; the physics of interest (point
# defect, stacked layers) never needs more channels
MAX_CHANNELS_3D = 128


@dataclass(frozen=True)
class DiscGrid:
    """Polar quadrature grid strictly inside the momentum disc of radius k.

    omega_radial are Gauss-Legendre nodes in the omega variable on (0, k),
    whose weights are folded into measure; phis are uniform azimuth angles.  The
    flattened per-point arrays (px, py, omegas, measure) run radial-major;
    measure is the plain disc measure d2p / 4 pi^2, and bary holds the
    barycentric weights of omega_radial, the radial interpolation nodes.
    """

    k: float
    omega_radial: np.ndarray
    phis: np.ndarray
    px: np.ndarray
    py: np.ndarray
    omegas: np.ndarray
    measure: np.ndarray
    bary: np.ndarray

    @property
    def size(self) -> int:
        return self.px.size

    @property
    def n_radial(self) -> int:
        return self.omega_radial.size

    @property
    def n_azimuthal(self) -> int:
        return self.phis.size


def build_disc_grid(k: float, n_radial: int, n_azimuthal: int) -> DiscGrid:
    if not np.isfinite(k) or k <= 0:
        raise ValueError(f"wavenumber must be positive and finite, got {k}")
    if (int(n_radial) != n_radial or int(n_azimuthal) != n_azimuthal
            or n_radial < 2 or n_azimuthal < 2):
        raise ValueError("need integer sizes of at least 2 radial and 2 azimuthal points, "
                         f"got {n_radial} and {n_azimuthal}")
    n_radial, n_azimuthal = int(n_radial), int(n_azimuthal)
    x, w = np.polynomial.legendre.leggauss(n_radial)
    omega_r = 0.5 * k * (x + 1.0)
    w_r = 0.5 * k * w
    rho = np.sqrt((k - omega_r) * (k + omega_r))
    phis = 2.0 * np.pi * np.arange(n_azimuthal) / n_azimuthal
    w_phi = 2.0 * np.pi / n_azimuthal
    px = (rho[:, None] * np.cos(phis)[None, :]).ravel()
    py = (rho[:, None] * np.sin(phis)[None, :]).ravel()
    omegas = np.repeat(omega_r, n_azimuthal)
    # rho drho = omega domega, so the plain measure folds omega into w_r
    measure = np.repeat(w_r * omega_r * w_phi, n_azimuthal) / (4 * np.pi ** 2)
    diff = omega_r[:, None] - omega_r[None, :]
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / np.prod(diff, axis=1)
    bary /= np.max(np.abs(bary))
    for a in (omega_r, phis, px, py, omegas, measure, bary):
        a.setflags(write=False)
    return DiscGrid(k=float(k), omega_radial=omega_r, phis=phis, px=px, py=py,
                    omegas=omegas, measure=measure, bary=bary)


delta3d_operator = point_operator


def delta3d_amplitude(strength: complex, k: float) -> complex:
    """Exact isotropic amplitude of the 3D point potential: -z / (4 pi + i k z)."""
    strength = complex(strength)
    return -strength / (4 * np.pi + 1j * k * strength)


def scattering_length(strength: complex) -> complex:
    """Low-energy limit -f(k -> 0) of the 3D point potential: z / 4 pi."""
    return complex(strength) / (4 * np.pi)


# names of the former separate 3D operator API
compose_3d = compose
solve_outgoing_3d = solve_outgoing


# ---------------------------------------------------------------------------
# interpolation and the angular amplitude
# ---------------------------------------------------------------------------

def _trig_interpolate(values: np.ndarray, phi: float) -> complex:
    """Trigonometric interpolation of samples on a uniform circle grid; the
    Nyquist mode of an even count is a cosine, to keep the interpolant balanced."""
    m = values.size
    basis = np.exp(1j * np.fft.fftfreq(m, d=1.0 / m) * phi)
    basis[np.arange(m) == m / 2] = np.cos(m / 2 * phi)
    return complex(np.fft.fft(values) / m @ basis)


def amplitude3d(t_plus: SpectralAmplitude, t_minus: SpectralAmplitude,
                k: float, theta: float, phi: float) -> complex:
    """Angular amplitude f(theta, phi) = -(i / 2 pi) [omega T](k sin th cos ph, k sin th sin ph).

    T_plus is used for cos theta > 0, T_minus for cos theta < 0; theta =
    pi/2 (omega = 0) is excluded.  As in 2D, the omega-premultiplied samples
    are interpolated: barycentric in the radial omega variable, ring by
    ring, then trigonometric in azimuth.  ValueError if the amplitudes live
    on different grids or k is not the grid's wavenumber.
    """
    grid = _checked_grid(t_plus, t_minus, k)
    cos_t = float(np.cos(theta))
    if abs(cos_t) < COS_EXCLUSION:
        raise ValueError("f(theta, phi) is undefined at cos(theta) = 0")
    amp = t_plus if cos_t > 0 else t_minus
    u = (grid.omegas * amp.smooth).reshape(grid.n_radial, grid.n_azimuthal)
    ring = barycentric_interpolate(grid.omega_radial, grid.bary, u, k * abs(cos_t))[0]
    return complex(-1j / (2 * np.pi) * _trig_interpolate(ring, float(phi)))


# ---------------------------------------------------------------------------
# numeric evolution along z (xy-independent potentials)
# ---------------------------------------------------------------------------

def evolve_transfer_3d(pot, grid: DiscGrid, z_min: float, z_max: float,
                       steps: int) -> TransferOperator:
    """Numeric transfer operator of a layered potential over [z_min, z_max].

    The generator is diagonal per channel, so the operator is purely
    multiplicative: the 2D per-channel evolution at the disc's frequencies.
    """
    if not is_y_independent(pot):
        raise UnsupportedEvaluationError(
            "3D numeric evolution supports transverse-uniform layered potentials only")
    if grid.size > MAX_CHANNELS_3D:
        raise ResourceLimitError(
            f"grid has {grid.size} channels; 3D evolution is capped at {MAX_CHANNELS_3D}")
    return evolve_transfer(pot, grid, EvolutionConfig(z_min, z_max, steps))
