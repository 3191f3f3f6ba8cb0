"""Exact solutions: point scatterers, slabs, surface line defects, thresholds.

All formulas act on the longitudinal frequency omega = sqrt(k^2 - p^2) of a
channel.  For a slab of relative permittivity epsilon and thickness L probed
at wavenumber k the relevant quantities are

    zt      = k^2 (1 - epsilon)                 (potential height)
    n(w)    = sqrt(1 - zt / w^2)                (channel refraction index)
    n+-(w)  = (n +- 1/n) / 2

and the channel transfer matrix is

    m11(w) = [cos(nLw) + i n+ sin(nLw)] e^{-iwL},   m22(w) = m11(-w),
    m12(w) = i n- sin(nLw) e^{-iwL},                m21(w) = m12(-w).

The entries depend only on n^2 and (nLw)^2, so they are insensitive to the
branch of the square root; the implementation uses that even form, which is
also regular at n -> 0.

One Z = e^{-2inLw} - ((n-1)/(n+1))^2 and its roundoff floor serve both
singularity searches: in w at fixed k, n = n(w), and in k at normal
incidence, n = sqrt(epsilon).  One channel frequency w(p) = sqrt(k^2 - p^2)
serves the 2D slab operator and the defect amplitudes alike; a disc grid's
nodes are frequencies already, and its slab operator takes them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConsistencyError, NearResonanceError, NoRootError,
                     SpectralSingularityError, finite, integer, positive)
from .grid import DiscGrid, MomentumGrid
from .operators import LowRank, TransferOperator, identity_operator, unit_mult
from .potentials import _Record


def point_operator(strength: complex, grid) -> TransferOperator:
    """Identity plus the rank-one kernel -(i z / 2 omega_j) C[a, b] row_l of a point potential.

    The row is the channel average, grid.measure, so one function serves the
    2D point on a MomentumGrid and the 3D point on a DiscGrid.  The channel
    factor C = [[1, 1], [-1, -1]] = (1, -1)^T (1, 1) squares to zero, so the
    evolution series stops at first order and two points at one x compose to
    one of the summed strength.  The factors are left (col, -col) with col_j
    = -i z / 2 omega_j, and right the row for either column channel b, with
    1 appended: a unit coherent beam enters the channel average with weight
    one.
    """
    strength = complex(finite("strength", strength))
    if strength == 0:
        return identity_operator(grid)
    col = -(0.5j * strength) / grid.omegas
    row = np.append(grid.measure, 1.0)
    return TransferOperator(grid=grid, mult=unit_mult(grid), kernel=LowRank(
        left=np.stack([col, -col])[:, :, None], right=np.stack([row, row])[None]))


# relative half-width of the singular band around strength = 4i (see
# delta2d_amplitude); wide enough that wire-mode round trips in floating
# point still land inside it
_SINGULAR_BAND = 1e-12


# ---------------------------------------------------------------------------
# point scatterers: the 2D thin wire and the 3D point
# ---------------------------------------------------------------------------

def delta2d_amplitude(strength: complex) -> complex:
    """Scattering amplitude of the 2D point potential, f = -sqrt(2/pi) z/(4+iz).

    Independent of the angle. Raises SpectralSingularityError on the
    zero-width resonance at strength = 4i (within a relative band of 1e-12,
    so results computed from wire parameters in floating point still raise).
    """
    strength = complex(finite("strength", strength))
    denom = 4.0 + 1j * strength
    if abs(denom) <= _SINGULAR_BAND * (4.0 + abs(strength)):
        raise SpectralSingularityError(
            f"spectral singularity: f diverges at strength {strength}")
    return -np.sqrt(2.0 / np.pi) * strength / denom


def born2d_amplitude(strength: complex) -> complex:
    """First-order (weak-coupling) limit of delta2d_amplitude: -z / (2 sqrt(2 pi))."""
    return -complex(finite("strength", strength)) / (2.0 * np.sqrt(2.0 * np.pi))


# read only by the benchmark's scripts; every other caller names point_operator
delta2d_operator = point_operator


def delta3d_amplitude(strength: complex, k: float) -> complex:
    """Exact isotropic amplitude of the 3D point potential: -z / (4 pi + i k z)."""
    strength = complex(finite("strength", strength))
    return -strength / (4 * np.pi + 1j * positive("k", k) * strength)


def scattering_length(strength: complex) -> complex:
    """Low-energy limit -f(k -> 0) of the 3D point potential: z / 4 pi."""
    return complex(finite("strength", strength)) / (4 * np.pi)


def wire_modes(zeta: float, mode: str) -> float:
    """Threshold wavenumber of a thin wire with permittivity 1 + i zeta delta(x) delta(y).

    mode="lasing" requires zeta < 0 (gain) and returns k = 2 / sqrt(-zeta);
    mode="CPA" requires zeta > 0 (loss) and returns k = 2 / sqrt(zeta).  At
    the lasing wavenumber the coupling -i zeta k^2 equals 4i and
    delta2d_amplitude raises; the CPA point is its time reverse (the
    conjugate coupling hits the same singularity).  A non-finite zeta raises
    ValueError.
    """
    zeta = float(finite("zeta", zeta))
    if mode == "lasing":
        if not zeta < 0:
            raise ValueError("lasing requires zeta < 0 (gain material)")
        return 2.0 / np.sqrt(-zeta)
    if mode == "CPA":
        if not zeta > 0:
            raise ValueError("CPA requires zeta > 0 (lossy material)")
        return 2.0 / np.sqrt(zeta)
    raise ValueError(f"mode must be 'lasing' or 'CPA', got {mode!r}")


def wire_strength(zeta: float, k: float) -> complex:
    """Point coupling -i zeta k^2 of a thin wire with permittivity 1 + i zeta delta(x) delta(y)."""
    zeta, k = finite("zeta", zeta), positive("k", k)
    return -1j * zeta * k * k


# ---------------------------------------------------------------------------
# slab
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlabParams(_Record):
    """Slab of permittivity epsilon and thickness L probed at wavenumber k."""

    epsilon: complex
    thickness: float
    k: float

    @property
    def z_tilde(self) -> complex:
        return self.k * self.k * (1 - self.epsilon)

    @property
    def sqrt_epsilon(self) -> complex:
        return complex(np.sqrt(complex(self.epsilon)))

    def refraction(self, omega) -> np.ndarray:
        """Channel index n(omega) = sqrt(1 - zt / omega^2), principal branch."""
        omega = np.asarray(omega, dtype=complex)
        return np.sqrt(1 - self.z_tilde / (omega * omega))


def _sinc(z: np.ndarray) -> np.ndarray:
    """sin(z)/z for complex z, series near zero."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    zs = np.where(small, 0.0, z)
    with np.errstate(all="ignore"):
        out = np.where(small, 1.0 - z * z / 6.0 + z**4 / 120.0,
                       np.sin(zs) / np.where(small, 1.0, zs))
    return out


def slab_entries(sp: SlabParams, omega) -> np.ndarray:
    """Channel transfer-matrix entries of the slab at frequencies omega.

    Returns a (2, 2, m) array.  Uses the branch-even form: with
    beta^2 = L^2 (omega^2 - zt),

        m11 = [cos(beta) + (i/2)(n^2 + 1) L omega sinc(beta)] e^{-i omega L}.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=complex))
    zt = sp.z_tilde
    length = sp.thickness
    beta = length * np.sqrt(omega * omega - zt)
    c = np.cos(beta)
    s_over = length * omega * _sinc(beta)       # sin(n L omega) / n
    n2 = 1 - zt / (omega * omega)
    diag = 0.5j * (n2 + 1) * s_over
    off = 0.5j * (n2 - 1) * s_over
    phase = np.exp(-1j * omega * length)
    out = np.empty((2, 2) + omega.shape, dtype=complex)
    out[0, 0] = (c + diag) * phase
    out[0, 1] = off * phase
    out[1, 0] = -off / phase
    out[1, 1] = (c - diag) / phase
    return out


def _channel_omega(k: float, p) -> np.ndarray:
    """Channel frequency omega(p) = sqrt((k - p)(k + p)), as a complex array."""
    return np.sqrt((k - p) * (k + p)).astype(complex)


def slab_operator(sp: SlabParams, grid: MomentumGrid | DiscGrid,
                  x0: float = 0.0) -> TransferOperator:
    """Purely multiplicative transfer operator of a slab on [x0, x0 + L].

    The canonical formula places the slab on [0, L]; a translation by x0
    conjugates the off-diagonal entries with e^{-+ 2 i omega x0}.  On a
    DiscGrid (z the layer axis) the channels are the grid's frequencies, as
    in its evolution; on a MomentumGrid they are omega(p) at the nodes.  A
    non-finite x0 raises ValueError.
    """
    finite("x0", x0)
    if not np.isclose(grid.k, sp.k, rtol=1e-12, atol=0.0):
        raise ValueError("slab parameters and grid carry different wavenumbers")
    if isinstance(grid, DiscGrid):
        omega = grid.channel_omegas
    else:
        omega = _channel_omega(sp.k, np.append(grid.nodes, 0.0))
    mult = slab_entries(sp, omega)
    if x0 != 0.0:
        shift = np.exp(2j * omega * x0)
        mult[0, 1] = mult[0, 1] / shift
        mult[1, 0] = mult[1, 0] * shift
    return TransferOperator(grid=grid, mult=mult, kernel=None)


class SlabXZ(NamedTuple):
    x: complex
    z: complex


def slab_xyz(sp: SlabParams, omega: complex) -> SlabXZ:
    """Surface factors X(w) = 1 - m21(w)/m22(w) and Z(w) = e^{-2inLw} - ((n-1)/(n+1))^2.

    Zeros of Z coincide with zeros of m22 (spectral singularities); both the
    quotient definition of X and its closed form

        X = 2 (e^{-2inLw} + (n-1)/(n+1)) / ((n+1) Z)

    are evaluated and cross-checked to 1e-10.
    """
    omega = complex(finite("omega", omega))
    m = slab_entries(sp, omega)[:, :, 0]
    z = complex(_z_of(*_at_omega(sp, omega))[0])
    if abs(m[1, 1]) <= 1e-13 or abs(z) <= 1e-13:
        raise SpectralSingularityError(
            f"m22 or Z vanishes at omega = {omega}: spectral singularity")
    x = _x_of(m)
    n = complex(sp.refraction(omega))
    x_closed = 2 * (np.exp(-2j * n * sp.thickness * omega) + (n - 1) / (n + 1)) / ((n + 1) * z)
    if abs(x - x_closed) > 1e-10 * max(1.0, abs(x)):
        raise ConsistencyError(
            f"X factor mismatch {abs(x - x_closed):.3e} at omega = {omega}")
    return SlabXZ(x=complex(x), z=complex(z))


def _at_omega(sp: SlabParams, omega):
    """Arguments (n, L, omega) of _z_of in the channel frequency at fixed potential."""
    omega = np.asarray(omega, dtype=complex)
    return sp.refraction(omega), sp.thickness, omega


def _z_of(n, length: float, omega):
    """Z at channel index n and its roundoff floor, from the two competing terms
    of Z, the round-trip phase and the reflection factor: where |Z| is at or
    below the floor, Z is zero to machine precision."""
    r = (n - 1) / (n + 1)
    e, r2 = np.exp(-2j * n * length * omega), r * r
    return e - r2, 1e-14 * (np.abs(e) + np.abs(r2))


def _x_of(m: np.ndarray) -> np.ndarray:
    """X = 1 - m21 / m22 from an array of slab_entries."""
    return 1 - m[1, 0] / m[1, 1]


def _gauss_legendre_quarter(npts: int):
    """Gauss-Legendre nodes/weights on [0, pi/2]."""
    u, w = np.polynomial.legendre.leggauss(int(npts))
    return 0.25 * np.pi * (u + 1.0), 0.25 * np.pi * w


def slab_y(sp: SlabParams, strength: complex, quad_points: int = 200) -> complex:
    """Self-consistency denominator Y = 2 + (i z / pi) int_0^k X(w) dw / sqrt(k^2 - w^2).

    The substitution w = k sin u removes the endpoint singularity exactly,
    leaving (i z / pi) int_0^{pi/2} X(k sin u) du, integrated by
    Gauss-Legendre.  A scan of Z over (0, k), sharpened by a local secant
    polish, guards against a pole of X inside the interval, also one between
    two scan samples.  quad_points must be an integer >= 2.
    """
    finite("strength", strength)
    quad_points = integer("quad_points", quad_points, 2)
    _check_no_interior_pole(sp)
    u, w = _gauss_legendre_quarter(quad_points)
    x_vals = _x_of(slab_entries(sp, sp.k * np.sin(u)))
    return complex(2.0 + (1j * strength / np.pi) * np.sum(w * x_vals))


def _check_no_interior_pole(sp: SlabParams) -> None:
    omega = sp.k * np.sin(np.linspace(1e-3, np.pi / 2 - 1e-3, 1024))
    z = _z_of(*_at_omega(sp, omega))[0]
    zvals = np.abs(z)
    i = int(np.argmin(zvals))
    # polish from a suspicious dip and from every segment whose linear
    # interpolant passes within its step |dZ| of zero (a root between two
    # samples); raise only if a genuine real root is found
    guesses = [] if zvals[i] > 1e-3 * np.max(zvals) else [omega[i]]
    dz = np.diff(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(-np.real(dz.conj() * z[:-1]) / np.abs(dz) ** 2, 0.0, 1.0)
    near = np.abs(z[:-1] + t * dz) <= np.abs(dz)
    for guess in guesses + list((omega[:-1] + t * np.diff(omega))[near]):
        try:
            root = _secant(lambda w: _z_of(*_at_omega(sp, w)), complex(guess), max_iter=50)[0]
        except NoRootError:
            continue
        if abs(root.imag) < 1e-6 * sp.k and 0 < root.real < sp.k:
            raise NearResonanceError(
                f"Z has a root at omega = {root:.6g} inside (0, k)", pole_estimate=root)


class DefectAmplitudes(NamedTuple):
    delta_minus: complex
    smooth_minus: np.ndarray
    delta_plus: complex
    smooth_plus: np.ndarray


def defect_identity_residual(sp: SlabParams, strength: complex, x_k: complex,
                             y_k: complex, quad_points: int = 200) -> float:
    """|B- average + 1 - 2 X(k) / Y(k)| for the slab with a line defect.

    The average of B- = T- + delta over the channels, with x_k = X(k) and
    y_k = Y(k), is recomputed independently of slab_y: the cosine
    substitution and a doubled quadrature (2 quad_points nodes).
    """
    u, w = _gauss_legendre_quarter(2 * quad_points)
    x_int = np.sum(w * _x_of(slab_entries(sp, sp.k * np.cos(u))))
    b_avg = (x_k - 1.0) - (1j * strength * x_k / (np.pi * y_k)) * x_int
    return float(abs(b_avg + 1.0 - 2.0 * x_k / y_k))


def slab_defect_amplitudes(sp: SlabParams, strength: complex, p,
                           quad_points: int = 200) -> DefectAmplitudes:
    """Outgoing amplitudes of a slab with a surface line defect at x = y = 0.

    With X, Y, Z and m22 as above and omega = omega(p):

        T- = [X(k) - 1] * 2 pi delta(p)-coeff  - i z X(k) X(w) / (Y(k) w)
        T+ = [1/m22(k) - 1] * delta-coeff      - i z X(k) / (Y(k) m22(w) w)

    The delta coefficients are stored as coefficients of 2 pi delta(p) (the
    2 pi k [X(k)-1] delta(p) term divided by omega = k on the delta support).
    The identity of defect_identity_residual must hold to 1e-10 (relative
    to 2 X(k) / Y(k) where that exceeds 1), or ConsistencyError is raised.
    """
    p = np.atleast_1d(np.asarray(finite("p", p), dtype=float))
    if np.any(np.abs(p) >= sp.k):
        raise ValueError("channel momenta must satisfy |p| < k")
    omega = _channel_omega(sp.k, p)

    # slab_xyz raises where m22(k) vanishes: a slab spectral singularity
    x_k, _ = slab_xyz(sp, sp.k)
    y_k = slab_y(sp, strength, quad_points)
    if abs(y_k) <= 1e-12 * (2.0 + abs(strength)):
        raise SpectralSingularityError("Y(k) vanishes: defect-induced spectral singularity")
    m_k = slab_entries(sp, np.array([sp.k], dtype=complex))[:, :, 0]
    m_w = slab_entries(sp, omega)
    if np.any(np.abs(m_w[1, 1]) <= 1e-13):
        raise SpectralSingularityError("m22(omega) vanishes at a requested channel")

    smooth_minus = -1j * strength * x_k * _x_of(m_w) / (y_k * omega)
    smooth_plus = -1j * strength * x_k / (y_k * m_w[1, 1] * omega)
    delta_minus = x_k - 1.0
    delta_plus = 1.0 / m_k[1, 1] - 1.0

    residual = defect_identity_residual(sp, strength, x_k, y_k, quad_points)
    if residual > 1e-10 * max(1.0, abs(2.0 * x_k / y_k)):
        raise ConsistencyError(f"self-consistency identity violated by {residual:.3e}")
    return DefectAmplitudes(delta_minus=complex(delta_minus), smooth_minus=smooth_minus,
                            delta_plus=complex(delta_plus), smooth_plus=smooth_plus)


# ---------------------------------------------------------------------------
# threshold gain and spectral singularities
# ---------------------------------------------------------------------------

def threshold_gain_curve(eta: float, thickness: float, theta_deg) -> np.ndarray:
    """Gain coefficient at which the slab-with-defect starts lasing toward theta_deg.

    g(theta) = (4 sqrt(eta^2 - sin^2 theta) / (eta L))
               * ln[(sqrt(eta^2 - sin^2 theta) + |cos theta|) / sqrt(eta^2 - 1)]

    Valid for a refractive index eta + i kappa with eta > 1 and |kappa| <<
    eta - 1; theta, in degrees, is the direction of the scattered wave.
    Maximal at 0 and 180 degrees, exactly zero at 90 + 180 m degrees, where
    cos is taken as exactly 0.  A non-finite eta, theta_deg or thickness, a
    thickness not above 0 or eta not above 1 raises ValueError naming it.
    """
    theta_deg = np.asarray(finite("theta_deg", theta_deg), dtype=float)
    if not finite("eta", eta) > 1:
        raise ValueError(f"threshold gain requires eta > 1, got {eta!r}")
    positive("thickness", thickness)
    rad = np.radians(theta_deg)
    sin_t = np.sin(rad)
    cos_t = np.where(np.mod(theta_deg, 180.0) == 90.0, 0.0, np.cos(rad))
    root = np.sqrt(eta * eta - sin_t * sin_t)
    return (4.0 * root / (eta * thickness)) * np.log((root + np.abs(cos_t))
                                                     / np.sqrt(eta * eta - 1.0))


@dataclass(frozen=True)
class SingularitySearch:
    """Converged root of the singularity condition Z = 0 with residuals."""

    root: complex
    z_abs: float
    m22_abs: float
    iterations: int


# secant convergence: a residual below _SECANT_F_TOL, and a step below
# _SECANT_STEP_RTOL of the iterate or the residual at its roundoff floor
_SECANT_F_TOL = 1e-10
_SECANT_STEP_RTOL = 1e-9


def _secant(f, guess: complex, max_iter: int = 200):
    """Derivative-free complex root search of f, which maps an iterate to its
    value and the roundoff floor of that value.

    Convergence needs a small residual together with a stalled step, so a
    function like e^{-2iLw} whose modulus merely decays (no finite root)
    exhausts the iteration budget instead of fake-converging; a residual at or
    below its floor is accepted outright.
    """
    def at(x):
        with np.errstate(all="ignore"):
            value, floor = f(x)
            return complex(value), float(floor)

    x0 = complex(guess)
    f0, floor = at(x0)
    if f0 == 0 or abs(f0) <= floor:
        return x0, abs(f0), 0
    x1 = x0 * (1 + 1e-6) + 1e-9
    f1, _ = at(x1)
    residual = abs(f1)
    for it in range(1, max_iter + 1):
        if f1 == f0 or not (np.isfinite(f0) and np.isfinite(f1)):
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        f2, floor = at(x2)
        if np.isfinite(f2):
            residual = abs(f2)
        step_ok = abs(x2 - x1) <= _SECANT_STEP_RTOL * max(1.0, abs(x2))
        if f2 == 0 or (abs(f2) < _SECANT_F_TOL and (step_ok or abs(f2) <= floor)):
            return x2, abs(f2), it
        x0, f0, x1, f1 = x1, f1, x2, f2
    raise NoRootError(f"secant did not converge (last residual {residual:.3e})",
                      residual=float(residual))


def spectral_singularity(sp: SlabParams, unknown: str, guess: complex) -> SingularitySearch:
    """Complex root of the singularity condition Z(.) = 0 by secant iteration.

    unknown="omega": root in the channel frequency with the slab potential
    fixed by sp (defect-assisted singularity at oblique channels).
    unknown="k": root in the wavenumber evaluated at normal incidence, where
    the channel index reduces to sqrt(epsilon) and the condition is
    e^{-2 i sqrt(eps) L k} = ((sqrt(eps)-1)/(sqrt(eps)+1))^2.

    Converges when |Z| < 1e-10 with a stalled step; reports |Z| and |m22| at
    the root.  Raises NoRootError after 200 iterations (Z of a passive slab,
    e.g. epsilon = 1, has no finite root).
    """
    if unknown not in ("omega", "k"):
        raise ValueError(f"unknown must be 'omega' or 'k', got {unknown!r}")
    finite("guess", guess)
    # at normal incidence the channel index is sqrt(epsilon) for any k
    args = ((lambda w: _at_omega(sp, w)) if unknown == "omega"
            else (lambda kk: (sp.sqrt_epsilon, sp.thickness, kk)))
    root, res, it = _secant(lambda x: _z_of(*args(x)), guess)
    if unknown == "omega":
        m22 = abs(complex(slab_entries(sp, np.array([root]))[1, 1, 0]))
    else:
        n = sp.sqrt_epsilon
        beta = n * sp.thickness * root
        m22 = abs((np.cos(beta) - 0.5j * (n + 1 / n) * np.sin(beta))
                  * np.exp(1j * root * sp.thickness))
    return SingularitySearch(root=complex(root), z_abs=float(res),
                             m22_abs=float(m22), iterations=it)
