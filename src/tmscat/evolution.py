"""Numeric transfer operators by position-ordered evolution in x.

The coefficient pair of a wave obeys a two-level evolution equation in x
whose generator couples the channels through the potential's transverse
transform:

    H_ab(x; p_j, p_l) = s_a * e^{-i s_a omega_j x} V(x)_{jl} e^{i s_b omega_l x}
                        / (2 omega_j),        s_1 = +1, s_2 = -1,

with V the Nystrom matrix of the transverse transform (plain-measure
quadrature weights folded into the columns).  Integrating dU/dx = -i H U
across the potential's support with U = identity on the left yields the
transfer operator; the evolution is exactly the identity wherever the
potential vanishes, since H is exactly zero there.

The coherent beam at p = 0 is evolved alongside the grid: the two extra
columns carry the response of the smooth channels to a unit beam in either
component, and the y-independent part of the potential (which maps beams to
beams) drives a separate per-channel 2x2 evolution that becomes the
operator's multiplication part, tabulated on the grid channels and at p = 0.
A potential with no y-dependent member has a generator that is diagonal
per channel, so only that 2x2 evolution runs and the operator carries no
kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, DivergenceError, UnsupportedEvaluationError
from .grid import MomentumGrid
from .operators import TransferOperator, channel_omegas, unit_mult
from .potentials import (discontinuities, fourier_y, has_uniform_part,
                         is_x_singular, smooth_members, uniform_part, x_support)


@dataclass(frozen=True)
class EvolutionConfig:
    """Integration window and step count for the fixed-step RK4 scheme.

    check_tolerance, when set, re-runs the evolution at half the steps and
    emits an AccuracyWarning if any operator entry moves by more than it.
    """

    x_min: float
    x_max: float
    steps: int
    scheme: str = "rk4"
    check_tolerance: float | None = None

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.scheme != "rk4":
            raise ValueError(f"unsupported scheme {self.scheme!r} (only 'rk4')")


def auto_config(pot, steps: int, check_tolerance: float | None = None) -> EvolutionConfig:
    """Config whose window covers the potential's numeric x-support."""
    a, b = x_support(pot)
    if not a < b:
        raise UnsupportedEvaluationError("potential has no extended x-support to integrate")
    return EvolutionConfig(x_min=a, x_max=b, steps=steps, check_tolerance=check_tolerance)


def potential_kernel(pot, x: float, grid: MomentumGrid) -> np.ndarray:
    """Nystrom matrix of the transverse-transform operator at position x.

    Entry (j, l) is (1/2pi) w_l omega_l vt(x, p_j - p_l); y-independent
    potentials contribute their value times the identity.  Point potentials
    (delta in x) are not representable here and raise; their operators have
    closed forms.
    """
    if is_x_singular(pot):
        raise UnsupportedEvaluationError(
            f"{type(pot).__name__} is singular in x; use its closed-form operator")
    n = grid.size
    out = np.zeros((n, n), dtype=complex)
    u = uniform_part(pot, x, grid.k)
    if u != 0:
        out[np.diag_indices(n)] = u
    for member in smooth_members(pot):
        q = grid.nodes[:, None] - grid.nodes[None, :]
        vt = fourier_y(member, x, q)
        out = out + vt * (grid.weights * grid.omegas / (2 * np.pi))[None, :]
    return out


@dataclass(frozen=True)
class HamiltonianBlock:
    """Discretized evolution generator at one position: (2, 2, N, N) blocks."""

    x: float
    blocks: np.ndarray


def _assemble_blocks(v: np.ndarray, x: float, omegas: np.ndarray) -> np.ndarray:
    dp = np.exp(1j * omegas * x)
    dm = dp.conj()
    pref = 0.5 / omegas
    blocks = np.empty((2, 2, omegas.size, omegas.size), dtype=complex)
    blocks[0, 0] = (pref * dm)[:, None] * v * dp[None, :]
    blocks[0, 1] = (pref * dm)[:, None] * v * dm[None, :]
    blocks[1, 0] = -(pref * dp)[:, None] * v * dp[None, :]
    blocks[1, 1] = -(pref * dp)[:, None] * v * dm[None, :]
    return blocks


def effective_hamiltonian(pot, x: float, grid: MomentumGrid) -> HamiltonianBlock:
    """Evolution generator on the grid at position x.

    Vanishes identically wherever the potential does.
    """
    v = potential_kernel(pot, x, grid)
    return HamiltonianBlock(x=float(x), blocks=_assemble_blocks(v, x, grid.omegas))


def _augmented_hamiltonian(pot, x: float, grid: MomentumGrid) -> np.ndarray:
    """(2N+2) x (2N+2) generator: grid blocks, beam-source columns, beam 2x2.

    Nothing maps smooth channels back into the beam, so the matrix is block
    upper triangular.
    """
    n = grid.size
    k = grid.k
    h = np.zeros((2 * n + 2, 2 * n + 2), dtype=complex)
    v = potential_kernel(pot, x, grid)
    blocks = _assemble_blocks(v, x, grid.omegas)
    h[:n, :n] = blocks[0, 0]
    h[:n, n:2 * n] = blocks[0, 1]
    h[n:2 * n, :n] = blocks[1, 0]
    h[n:2 * n, n:2 * n] = blocks[1, 1]

    members = smooth_members(pot)
    if members:
        v0 = np.zeros(n, dtype=complex)
        for member in members:
            v0 = v0 + fourier_y(member, x, grid.nodes)
        dp = np.exp(1j * grid.omegas * x)
        dm = dp.conj()
        pref = 0.5 / grid.omegas
        ek = np.exp(1j * k * x)
        h[:n, 2 * n] = pref * dm * v0 * ek
        h[:n, 2 * n + 1] = pref * dm * v0 * ek.conjugate()
        h[n:2 * n, 2 * n] = -pref * dp * v0 * ek
        h[n:2 * n, 2 * n + 1] = -pref * dp * v0 * ek.conjugate()

    h[2 * n:, 2 * n:] = _channel_generator(uniform_part(pot, x, k), np.array([k]), x)[0]
    return h


def _channel_generator(u: complex, omegas: np.ndarray, x: float) -> np.ndarray:
    """(m, 2, 2) generator of a y-independent potential value u at frequencies omegas."""
    h = np.zeros((omegas.size, 2, 2), dtype=complex)
    if u != 0:
        e2 = np.exp(2j * omegas * x)
        pref = u / (2 * omegas)
        h[:, 0, 0] = pref
        h[:, 0, 1] = pref / e2
        h[:, 1, 0] = -pref * e2
        h[:, 1, 1] = -pref
    return h


def _rk4(hfun, u0: np.ndarray, x_min: float, x_max: float, steps: int,
         breaks=()) -> np.ndarray:
    """Classical fixed-step RK4 for dU/dx = -i H(x) U on stacked matrices.

    The window is split at the interior breakpoints (known discontinuities of
    H); stage evaluations are clamped a hair inside each piece, so pointwise
    sampling never straddles a jump and the scheme keeps its fourth order for
    piecewise-smooth generators.
    """
    edges = [x_min] + sorted(b for b in set(breaks) if x_min < b < x_max) + [x_max]
    # overflow is tolerated here: callers check finiteness and raise
    with np.errstate(over="ignore", invalid="ignore"):
        return _rk4_pieces(hfun, u0, edges, steps, x_max - x_min)


def _rk4_pieces(hfun, u, edges, steps, total):
    for p0, p1 in zip(edges, edges[1:]):
        n = max(1, round(steps * (p1 - p0) / total))
        h = (p1 - p0) / n
        nudge = (p1 - p0) * 1e-9
        lo, hi = p0 + nudge, p1 - nudge

        def at(x):
            return hfun(min(max(x, lo), hi))

        h_left = at(p0)
        for i in range(n):
            x = p0 + i * h
            h_mid = at(x + h / 2)
            h_right = at(x + h)
            k1 = -1j * (h_left @ u)
            k2 = -1j * (h_mid @ (u + (h / 2) * k1))
            k3 = -1j * (h_mid @ (u + (h / 2) * k2))
            k4 = -1j * (h_right @ (u + h * k3))
            u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            h_left = h_right
    return u


def _evolve_uniform_channels(pot, grid, cfg: EvolutionConfig) -> np.ndarray:
    """Per-channel 2x2 evolution of the y-independent part: the (2, 2, S + 1) mult."""
    omegas = channel_omegas(grid)
    eye = np.broadcast_to(np.eye(2, dtype=complex), (omegas.size, 2, 2)).copy()
    channels = _rk4(lambda x: _channel_generator(uniform_part(pot, x, grid.k), omegas, x),
                    eye, cfg.x_min, cfg.x_max, cfg.steps, breaks=discontinuities(pot))
    return np.moveaxis(channels, 0, -1)


def _evolve_raw(pot, grid: MomentumGrid, cfg: EvolutionConfig) -> np.ndarray:
    u0 = np.eye(2 * grid.size + 2, dtype=complex)
    return _rk4(lambda x: _augmented_hamiltonian(pot, x, grid), u0,
                cfg.x_min, cfg.x_max, cfg.steps, breaks=discontinuities(pot))


def _checked(evolve, cfg: EvolutionConfig) -> np.ndarray:
    """evolve(cfg), refused when non-finite and, with check_tolerance set,
    compared with evolve at half the steps."""
    u = evolve(cfg)
    if not np.all(np.isfinite(u)):
        raise DivergenceError("evolution produced non-finite values")
    if cfg.check_tolerance is not None and cfg.steps >= 2:
        half = EvolutionConfig(cfg.x_min, cfg.x_max, cfg.steps // 2, cfg.scheme)
        delta = float(np.max(np.abs(u - evolve(half))))
        if delta > cfg.check_tolerance:
            warnings.warn(AccuracyWarning(op="evolve_transfer", steps=cfg.steps,
                                          delta=delta), stacklevel=3)
    return u


def evolve_transfer(pot, grid: MomentumGrid, cfg: EvolutionConfig) -> TransferOperator:
    """Transfer operator of the potential truncated to the config window.

    The full transfer operator requires the window to cover the potential's
    numeric x-support (see auto_config); a partial window yields the
    operator of the restriction, suitable for composition.

    Zero potential gives exactly the identity, and a y-independent one a
    purely multiplicative operator (kernel None), which is also how
    evolve_transfer_3d evolves layers on a DiscGrid.  Non-finite values
    raise DivergenceError; with check_tolerance set, a step-halving
    comparison emits AccuracyWarning when the result is not converged.
    """
    if is_x_singular(pot):
        raise UnsupportedEvaluationError(
            f"{type(pot).__name__} is singular in x; use its closed-form operator")
    if not smooth_members(pot):
        mult = _checked(lambda c: _evolve_uniform_channels(pot, grid, c), cfg)
        return TransferOperator(grid=grid, mult=mult, kernel=None, kernel_at_zero=None)

    n = grid.size
    u = _checked(lambda c: _evolve_raw(pot, grid, c), cfg)
    mult = _evolve_uniform_channels(pot, grid, cfg) if has_uniform_part(pot) else unit_mult(grid)

    kernel = np.empty((2, 2, n, n), dtype=complex)
    kernel[0, 0] = u[:n, :n]
    kernel[0, 1] = u[:n, n:2 * n]
    kernel[1, 0] = u[n:2 * n, :n]
    kernel[1, 1] = u[n:2 * n, n:2 * n]
    idx = np.arange(n)
    kernel[:, :, idx, idx] -= mult[:, :, :n]

    k0 = np.empty((2, 2, n), dtype=complex)
    k0[0, 0] = u[:n, 2 * n]
    k0[0, 1] = u[:n, 2 * n + 1]
    k0[1, 0] = u[n:2 * n, 2 * n]
    k0[1, 1] = u[n:2 * n, 2 * n + 1]

    if not kernel.any():
        kernel = None
    if not k0.any():
        k0 = None
    return TransferOperator(grid=grid, mult=mult, kernel=kernel, kernel_at_zero=k0)
