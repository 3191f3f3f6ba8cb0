"""Momentum-space channel grids and singular quadrature on (-k, k).

Propagating channels of a wave with wavenumber k carry a transverse momentum
p in (-k, k) and a longitudinal frequency omega(p) = sqrt(k^2 - p^2).
Integrals over the channel interval generically carry a 1/omega factor, so
the nodes are those of the Chebyshev-Gauss rule

    sum_j w_j g(p_j)  ~  int_{-k}^{k} g(p) / sqrt(k^2 - p^2) dp,

with p_j = k cos((2j-1) pi / 2N) and w_j = pi / N, exact for g a polynomial
of degree < 2N.  Endpoints +-k (omega = 0, grazing channels) are excluded;
channels with |p| > k (evanescent) are not represented at all.  In 3D the
DiscGrid fills the disc |pvec| < k: since int_disc d2p f / omega =
int_0^{2pi} dphi int_0^k f domega, Gauss-Legendre nodes in omega integrate
the 1/omega factor with plain weights, and a uniform azimuthal rule is exact
for trigonometric polynomials.  A grid, either kind, stores its measure (the
plain measure over (2 pi)^d), the barycentric weights bary of its
interpolation nodes, and its channel frequencies, found once per grid:
channel_omegas, the S grid frequencies and then k (the coherent beam at
p = 0), their sorted distinct values distinct_omegas, and distinct_index,
with distinct_omegas[distinct_index] == channel_omegas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import integer, positive


@dataclass(frozen=True)
class MomentumGrid:
    """Quadrature nodes, weights and channel frequencies on (-k, k).

    nodes are in decreasing order and symmetric about 0; omegas[j] =
    sqrt(k^2 - nodes[j]^2) > 0 for all j; measure[j] = w_j omega_j / 2 pi.
    Instances are immutable and safe to share between concurrent computations.
    """

    k: float
    nodes: np.ndarray
    weights: np.ndarray
    omegas: np.ndarray
    measure: np.ndarray
    bary: np.ndarray
    channel_omegas: np.ndarray
    distinct_omegas: np.ndarray
    distinct_index: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def reflection(self) -> np.ndarray:
        """The node index in reverse order, p -> -p: nodes[reflection] is
        -nodes, and measure and omegas are even under it, to roundoff."""
        return np.arange(self.size - 1, -1, -1)


def build_grid(k: float, n: int) -> MomentumGrid:
    """Build the N-point Chebyshev-Gauss channel grid for wavenumber k.

    Raises ValueError unless k is positive and n an integer >= 2.
    """
    positive("k", k)
    n = integer("n", n, 2)
    j = np.arange(1, n + 1)
    theta = (2 * j - 1) * np.pi / (2 * n)
    nodes = k * np.cos(theta)
    weights = np.full(n, np.pi / n)
    omegas = k * np.sin(theta)
    measure = weights * omegas / (2 * np.pi)
    bary = (-1.0) ** (j - 1) * np.sin(theta)    # up to a constant
    for a in (nodes, weights, omegas, measure, bary):
        a.setflags(write=False)
    return MomentumGrid(k=float(k), nodes=nodes, weights=weights, omegas=omegas,
                        measure=measure, bary=bary, **_channel_frequencies(omegas, k))


@dataclass(frozen=True)
class DiscGrid:
    """Polar quadrature grid strictly inside the momentum disc of radius k.

    omega_radial are Gauss-Legendre nodes in the omega variable on (0, k),
    whose weights are folded into measure; phis are uniform azimuth angles.  The
    flattened per-point arrays (px, py, omegas, measure) run radial-major;
    measure is the plain disc measure d2p / 4 pi^2, and bary holds the
    barycentric weights of omega_radial, the radial interpolation nodes.
    The channel frequencies are those of the module docstring; the points of
    a ring share its frequency, so distinct_omegas has n_radial + 1 values.
    """

    k: float
    omega_radial: np.ndarray
    phis: np.ndarray
    px: np.ndarray
    py: np.ndarray
    omegas: np.ndarray
    measure: np.ndarray
    bary: np.ndarray
    channel_omegas: np.ndarray
    distinct_omegas: np.ndarray
    distinct_index: np.ndarray

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
    positive("k", k)
    n_radial = integer("n_radial", n_radial, 2)
    n_azimuthal = integer("n_azimuthal", n_azimuthal, 2)
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
                    omegas=omegas, measure=measure, bary=bary,
                    **_channel_frequencies(omegas, k))


def _channel_frequencies(omegas: np.ndarray, k: float) -> dict:
    """The read-only channel_omegas, distinct_omegas and distinct_index fields
    of a grid with the given frequencies.  The distinct values are sorted in
    Python, not by np.unique, whose first call in a process adds ~0.4 MB to
    its resident memory."""
    channel = np.append(omegas, float(k))
    values = sorted(set(channel.tolist()))
    position = {w: i for i, w in enumerate(values)}
    fields = {"channel_omegas": channel, "distinct_omegas": np.array(values),
              "distinct_index": np.array([position[w] for w in channel.tolist()])}
    for a in fields.values():
        a.setflags(write=False)
    return fields


def quadrature(grid: MomentumGrid | DiscGrid, samples: np.ndarray) -> complex:
    """Channel average sum_j measure_j f_j of sampled data.

    It approximates the plain average (2 pi)^-d int f(p) dp over the channel
    interval (d = 1) or disc (d = 2).  An integrand with an explicit 1/omega
    factor is passed as f / omega; on a MomentumGrid that is the Gauss rule,
    exact for polynomial f of degree < 2N.
    """
    samples = np.asarray(samples)
    if samples.shape != (grid.size,):
        raise ValueError(f"expected {grid.size} samples, got shape {samples.shape}")
    return complex(np.sum(grid.measure * samples))


@dataclass(frozen=True)
class SpectralAmplitude:
    """A half-line wave in momentum representation.

    delta_coeff is the coefficient multiplying 2 pi delta(p) (the coherent
    plane-wave beam; 4 pi^2 delta2(pvec) on a 3D DiscGrid); smooth holds
    samples of the diffuse part on the grid nodes.  The delta factor itself
    is never sampled numerically.  Non-finite samples are accepted, as
    solve_outgoing builds them on a singular flag; amplitude and amplitude3d
    refuse the samples they read unless finite.
    """

    grid: MomentumGrid | DiscGrid
    delta_coeff: complex
    smooth: np.ndarray

    def __post_init__(self):
        if np.asarray(self.smooth).shape != (self.grid.size,):
            raise ValueError("smooth sample count does not match the grid")


def barycentric_interpolate(nodes: np.ndarray, bary_weights: np.ndarray,
                            values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the barycentric interpolant of (nodes, values) at points x.

    values holds a sample, or a row of samples, per node.  Exact node hits
    return the stored value; otherwise the second barycentric formula is used.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    diff = x[:, None] - nodes[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = bary_weights / diff
        total = kernel.sum(axis=1).reshape((-1,) + (1,) * (values.ndim - 1))
        out = (kernel @ values / total).astype(complex, copy=False)
    hit_rows, hit_cols = np.nonzero(diff == 0.0)
    out[hit_rows] = values[hit_cols]
    return out
