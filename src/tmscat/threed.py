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
from .closedforms import CHANNEL_FACTOR, point_kernel
from .evolution import EvolutionConfig, evolve_transfer
from .grid import SpectralAmplitude
from .operators import (TransferOperator, _checked_grid, compose, identity_operator,
                        solve_outgoing, unit_mult)
from .potentials import Slab, SumPotential, has_uniform_part, is_x_singular

# 3D evolution is bounded to desk scale; the physics of interest (point
# defect, stacked layers) never needs more channels
MAX_CHANNELS_3D = 128


@dataclass(frozen=True)
class DiscGrid:
    """Polar quadrature grid strictly inside the momentum disc of radius k.

    omega_radial / radial_weights are Gauss-Legendre nodes and weights in
    the omega variable on (0, k); phis are uniform azimuth angles.  The
    flattened per-point arrays (px, py, omegas, point_weights) run radial-
    major; point_weights approximate the plain disc measure d2p.
    """

    k: float
    omega_radial: np.ndarray
    radial_weights: np.ndarray
    phis: np.ndarray
    px: np.ndarray
    py: np.ndarray
    omegas: np.ndarray
    point_weights: np.ndarray

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
    if n_radial < 2 or n_azimuthal < 2:
        raise ValueError("need at least 2 radial and 2 azimuthal points")
    x, w = np.polynomial.legendre.leggauss(int(n_radial))
    omega_r = 0.5 * k * (x + 1.0)
    w_r = 0.5 * k * w
    rho = np.sqrt((k - omega_r) * (k + omega_r))
    phis = 2.0 * np.pi * np.arange(int(n_azimuthal)) / int(n_azimuthal)
    w_phi = 2.0 * np.pi / int(n_azimuthal)
    px = (rho[:, None] * np.cos(phis)[None, :]).ravel()
    py = (rho[:, None] * np.sin(phis)[None, :]).ravel()
    omegas = np.repeat(omega_r, int(n_azimuthal))
    # rho drho = omega domega, so the plain measure folds omega into w_r
    point_weights = np.repeat(w_r * omega_r * w_phi, int(n_azimuthal))
    for a in (omega_r, w_r, phis, px, py, omegas, point_weights):
        a.setflags(write=False)
    return DiscGrid(k=float(k), omega_radial=omega_r, radial_weights=w_r,
                    phis=phis, px=px, py=py, omegas=omegas,
                    point_weights=point_weights)


def disc_quadrature(grid: DiscGrid, samples: np.ndarray) -> complex:
    """(1 / 4 pi^2) int_disc d2p f(pvec) from point samples."""
    samples = np.asarray(samples)
    if samples.shape != (grid.size,):
        raise ValueError(f"expected {grid.size} samples, got shape {samples.shape}")
    return complex(np.sum(grid.point_weights * samples) / (4 * np.pi ** 2))


def delta3d_operator(strength: complex, grid: DiscGrid) -> TransferOperator:
    """Transfer operator of the 3D point potential strength * delta3(r).

    Identity plus the rank-one disc average, stored as its factors
    (point_kernel): block (a, b) entries
    -(i z / 2 omega_j) * C[a, b] * W_l / (4 pi^2).
    """
    strength = complex(strength)
    if strength == 0:
        return identity_operator(grid)
    col = -(0.5j * strength) / grid.omegas
    row = grid.point_weights / (4 * np.pi ** 2)
    k0 = np.einsum("ab,j->abj", CHANNEL_FACTOR, col)
    return TransferOperator(grid=grid, mult=unit_mult(grid), kernel=point_kernel(col, row),
                            kernel_at_zero=k0)


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

def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    return w / np.max(np.abs(w))


def _trig_interpolate(values: np.ndarray, phi: float) -> complex:
    """Trigonometric interpolation of samples on a uniform circle grid."""
    m = values.size
    coeff = np.fft.fft(values) / m
    modes = np.fft.fftfreq(m, d=1.0 / m)
    if m % 2 == 0:
        # split the Nyquist mode symmetrically to keep the interpolant balanced
        ny = m // 2
        total = coeff[ny]
        val = coeff @ np.exp(1j * modes * phi) - total * np.exp(-1j * ny * phi)
        val += total * np.cos(ny * phi)
        return complex(val)
    return complex(coeff @ np.exp(1j * modes * phi))


def amplitude3d(t_plus: SpectralAmplitude, t_minus: SpectralAmplitude,
                k: float, theta: float, phi: float) -> complex:
    """Angular amplitude f(theta, phi) = -(i / 2 pi) [omega T](k sin th cos ph, k sin th sin ph).

    T_plus is used for cos theta > 0, T_minus for cos theta < 0; theta =
    pi/2 (omega = 0) is excluded.  As in 2D, the omega-premultiplied samples
    are interpolated: polynomial in the radial omega variable, trigonometric
    in azimuth.  ValueError if the amplitudes live on different grids or k
    is not the grid's wavenumber.
    """
    grid = _checked_grid(t_plus, t_minus, k)
    cos_t = float(np.cos(theta))
    if abs(cos_t) < 1e-12:
        raise ValueError("f(theta, phi) is undefined at cos(theta) = 0")
    amp = t_plus if cos_t > 0 else t_minus
    omega_eval = k * abs(cos_t)

    nr, na = grid.n_radial, grid.n_azimuthal
    u = (grid.omegas * amp.smooth).reshape(nr, na)
    bary = _barycentric_weights(grid.omega_radial)
    diff = omega_eval - grid.omega_radial
    hit = np.nonzero(diff == 0.0)[0]
    if hit.size:
        ring = u[hit[0]]
    else:
        kernel = bary / diff
        ring = (kernel @ u) / kernel.sum()
    return complex(-1j / (2 * np.pi) * _trig_interpolate(ring, float(phi)))


# ---------------------------------------------------------------------------
# numeric evolution along z (xy-independent potentials)
# ---------------------------------------------------------------------------

def _require_uniform(pot) -> None:
    if is_x_singular(pot):
        raise UnsupportedEvaluationError(
            f"{type(pot).__name__} is singular along the axis; use its closed form")
    if not isinstance(pot, (Slab, SumPotential)) or not has_uniform_part(pot):
        raise UnsupportedEvaluationError(
            "3D numeric evolution supports transverse-uniform layered potentials only")
    if isinstance(pot, SumPotential) and any(not isinstance(m, Slab) for m in pot.members):
        raise UnsupportedEvaluationError(
            "3D numeric evolution supports transverse-uniform layered potentials only")


def evolve_transfer_3d(pot, grid: DiscGrid, z_min: float, z_max: float,
                       steps: int) -> TransferOperator:
    """Numeric transfer operator of a layered potential over [z_min, z_max].

    The generator is diagonal per channel, so the operator is purely
    multiplicative: the 2D per-channel evolution at the disc's frequencies.
    """
    _require_uniform(pot)
    if grid.size > MAX_CHANNELS_3D:
        raise ResourceLimitError(
            f"grid has {grid.size} channels; 3D evolution is capped at {MAX_CHANNELS_3D}")
    if not z_min < z_max:
        raise ValueError("z_min must be below z_max")
    return evolve_transfer(pot, grid, EvolutionConfig(z_min, z_max, steps))
