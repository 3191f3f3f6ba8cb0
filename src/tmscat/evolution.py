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
component, which becomes the kernel's last column, and the y-independent
part of the potential (which maps beams to beams) drives a separate
per-channel 2x2 evolution that becomes the operator's multiplication part,
tabulated on the grid channels and at p = 0.
A potential with no y-dependent member has a generator that is diagonal
per channel, so only that 2x2 evolution runs and the operator carries no
kernel.

The RK4 never forms H.  Every smooth member is separable, vt(x, q) =
profile(x) transform_y(q), so its transverse matrices (the Nystrom matrix
and the beam-source column) are built once per evolution; at each stage
they are combined with the members' profiles, and H U is applied in
factored form, one N x (N+1) product per application in place of a dense
(2N+2) x (2N+2) one.  effective_hamiltonian and potential_kernel assemble
the dense generator as the reference the factored form is tested against.
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
    emits an AccuracyWarning if any operator entry moves by more than it; a
    non-finite tolerance raises ValueError.
    """

    x_min: float
    x_max: float
    steps: int
    check_tolerance: float | None = None

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if not float(self.steps).is_integer() or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))
        if self.check_tolerance is not None and not np.isfinite(self.check_tolerance):
            raise ValueError(f"check_tolerance must be finite, got {self.check_tolerance}")


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


def effective_hamiltonian(pot, x: float, grid: MomentumGrid) -> np.ndarray:
    """Evolution generator on the grid at position x, as (2, 2, N, N) blocks.

    Vanishes identically wherever the potential does.
    """
    return _assemble_blocks(potential_kernel(pot, x, grid), x, grid.omegas)


class _StageGenerator:
    """H(x) at one x of the (2N+2)-row state, applied as `H @ U` in factored form.

    With d+- = e^{+-i omega x} and e+- = e^{+-ikx}, the grid rows of H U are
    (1/2 omega) d- W and -(1/2 omega) d+ W, where W = [V | v0] Z and
    Z = [d+ U1 + d- U2; e+ U_beam+ + e- U_beam-].  Pulling d- and e- out of
    Z, the stage holds t = (1/2 omega) d- [V | v0] diag(d-, e-), so the
    first rows are t @ [d+^2 U1 + U2; e+^2 U_beam+ + U_beam-] and the second
    rows are -d+^2 times the first: one N x (N+1) product per application.
    The beam rows are the beam 2x2 block times U_beam (None when it is
    zero); nothing maps smooth channels back into the beam.
    """

    __slots__ = ("n", "t", "phase2", "flip", "beam")

    def __init__(self, t: np.ndarray, phase2: np.ndarray, beam: np.ndarray | None):
        self.n = t.shape[0]
        self.t = t
        self.phase2 = phase2[:, None]           # d+^2, then e+^2
        self.flip = -self.phase2[:-1]
        self.beam = beam

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        n = self.n
        z = np.empty((n + 1, u.shape[1]), dtype=complex)
        np.multiply(self.phase2[:n], u[:n], out=z[:n])
        z[:n] += u[n:2 * n]
        np.multiply(self.phase2[n], u[2 * n], out=z[n])
        z[n] += u[2 * n + 1]
        out = np.empty_like(u)
        np.matmul(self.t, z, out=out[:n])
        np.multiply(self.flip, out[:n], out=out[n:2 * n])
        if self.beam is None:
            out[2 * n:] = 0
        else:
            np.matmul(self.beam, u[2 * n:], out=out[2 * n:])
        return out


def _factored_generator(pot, grid: MomentumGrid):
    """x -> H(x) of the (2N+2)-row state as a _StageGenerator.

    Every smooth member is separable, so its block of [V | v0] is profile(x)
    times an x-independent [S | s0], built here once per evolution: S is the
    member's transverse transform at p_j - p_l with the quadrature weights
    w_l omega_l / 2 pi folded into its columns, s0 the transform at p_j (the
    beam-source column).  The y-independent part u(x) adds u(x) to the
    diagonal of V.
    """
    n, k = grid.size, grid.k
    members = smooth_members(pot)
    q = grid.nodes[:, None] - grid.nodes[None, :]
    cols = grid.weights * grid.omegas / (2 * np.pi)
    sources = np.empty((len(members), n, n + 1), dtype=complex)
    for source, member in zip(sources, members):
        source[:, :n] = member.transform_y(q) * cols[None, :]
        source[:, n] = member.transform_y(grid.nodes)
    sources = sources.reshape(len(members), -1)
    frequencies = channel_omegas(grid)
    half_inv = 0.5 / grid.omegas
    diag = np.arange(n)

    def at(x: float) -> _StageGenerator:
        u = uniform_part(pot, x, k)
        t = np.dot([m.profile(x) for m in members], sources).reshape(n, n + 1)
        if u != 0:
            t[diag, diag] += u
        phase = np.exp((1j * x) * frequencies)      # d+, then e+
        minus = phase.conj()
        t *= (half_inv * minus[:n])[:, None]
        t *= minus
        beam = _channel_generator(u, frequencies[n:], x)[0] if u != 0 else None
        return _StageGenerator(t, phase * phase, beam)

    return at


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


def _evolve_raw(pot, generator, size: int, cfg: EvolutionConfig) -> np.ndarray:
    """RK4 of the (size x size) state from the identity under generator (x -> H(x))."""
    u0 = np.eye(size, dtype=complex)
    return _rk4(generator, u0, cfg.x_min, cfg.x_max, cfg.steps, breaks=discontinuities(pot))


def _checked(evolve, cfg: EvolutionConfig) -> np.ndarray:
    """evolve(cfg), refused when non-finite and, with check_tolerance set,
    compared with evolve at half the steps."""
    u = evolve(cfg)
    if not np.all(np.isfinite(u)):
        raise DivergenceError("evolution produced non-finite values")
    if cfg.check_tolerance is not None and cfg.steps >= 2:
        half = EvolutionConfig(cfg.x_min, cfg.x_max, cfg.steps // 2)
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
        return TransferOperator(grid=grid, mult=mult, kernel=None)

    n = grid.size
    generator = _factored_generator(pot, grid)
    u = _checked(lambda c: _evolve_raw(pot, generator, 2 * n + 2, c), cfg)
    mult = _evolve_uniform_channels(pot, grid, cfg) if has_uniform_part(pot) else unit_mult(grid)

    # state columns (grid+, grid-, beam+, beam-) to kernel columns (a, b, j, l);
    # take keeps rows contiguous, so the solve's products round as on a row-major kernel
    cols = np.r_[0:n, 2 * n, n:2 * n, 2 * n + 1]
    kernel = u[:2 * n].take(cols, axis=1).reshape(2, n, 2, n + 1).transpose(0, 2, 1, 3)
    idx = np.arange(n)
    kernel[:, :, idx, idx] -= mult[:, :, :n]
    return TransferOperator(grid=grid, mult=mult, kernel=kernel if kernel.any() else None)
