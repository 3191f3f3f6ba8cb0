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
serves the slab operator and the defect amplitudes alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConsistencyError, NearResonanceError, NoRootError,
                     SpectralSingularityError)
from .grid import MomentumGrid
from .operators import LowRank, TransferOperator, identity_operator, unit_mult

# The single off-diagonal channel factor of every effective Hamiltonian:
# rank one and nilpotent, which is what terminates the evolution series for
# point scatterers after the first order.
CHANNEL_FACTOR = np.array([[1.0, 1.0], [-1.0, -1.0]], dtype=complex)


def point_operator(strength: complex, grid) -> TransferOperator:
    """Identity plus the rank-one kernel -(i z / 2 omega_j) C[a, b] row_l of a point potential.

    The row is the channel average, grid.measure, on either grid, so this is
    delta2d_operator and threed.delta3d_operator.  C = CHANNEL_FACTOR =
    (1, -1)^T (1, 1), so the factors are left (col, -col) with col_j =
    -i z / 2 omega_j, and right the row for either column channel b, with 1
    appended: a unit coherent beam enters the channel average with weight one.
    """
    strength = complex(strength)
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
# 2D point scatterer (thin wire)
# ---------------------------------------------------------------------------

def delta2d_amplitude(strength: complex) -> complex:
    """Scattering amplitude of the 2D point potential, f = -sqrt(2/pi) z/(4+iz).

    Independent of the angle. Raises SpectralSingularityError on the
    zero-width resonance at strength = 4i (within a relative band of 1e-12,
    so results computed from wire parameters in floating point still raise).
    """
    strength = complex(strength)
    denom = 4.0 + 1j * strength
    if abs(denom) <= _SINGULAR_BAND * (4.0 + abs(strength)):
        raise SpectralSingularityError(
            f"spectral singularity: f diverges at strength {strength}")
    return -np.sqrt(2.0 / np.pi) * strength / denom


def born2d_amplitude(strength: complex) -> complex:
    """First-order (weak-coupling) limit of delta2d_amplitude: -z / (2 sqrt(2 pi))."""
    return -complex(strength) / (2.0 * np.sqrt(2.0 * np.pi))


delta2d_operator = point_operator


def wire_modes(zeta: float, mode: str) -> float:
    """Threshold wavenumber of a thin wire with permittivity 1 + i zeta delta(x) delta(y).

    mode="lasing" requires zeta < 0 (gain) and returns k = 2 / sqrt(-zeta);
    mode="CPA" requires zeta > 0 (loss) and returns k = 2 / sqrt(zeta).  At
    the lasing wavenumber the coupling -i zeta k^2 equals 4i and
    delta2d_amplitude raises; the CPA point is its time reverse (the
    conjugate coupling hits the same singularity).
    """
    zeta = float(zeta)
    if mode == "lasing":
        if not zeta < 0:
            raise ValueError("lasing requires zeta < 0 (gain material)")
        return 2.0 / np.sqrt(-zeta)
    if mode == "CPA":
        if not zeta > 0:
            raise ValueError("CPA requires zeta > 0 (lossy material)")
        return 2.0 / np.sqrt(zeta)
    raise ValueError(f"mode must be 'lasing' or 'CPA', got {mode!r}")


@dataclass(frozen=True)
class DefectParams:
    """Line-defect coupling, optionally derived from a wire permittivity parameter."""

    strength: complex

    @classmethod
    def from_wire(cls, zeta: float, k: float) -> "DefectParams":
        return cls(strength=-1j * zeta * k * k)


# ---------------------------------------------------------------------------
# slab
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlabParams:
    """Slab of permittivity epsilon and thickness L probed at wavenumber k."""

    epsilon: complex
    thickness: float
    k: float

    def __post_init__(self):
        if not np.isfinite(complex(self.epsilon)):
            raise ValueError("slab permittivity must be finite")
        if not (np.isfinite(self.thickness) and self.thickness > 0):
            raise ValueError("slab thickness must be positive and finite")
        if not (np.isfinite(self.k) and self.k > 0):
            raise ValueError("wavenumber must be positive and finite")

    @property
    def z_tilde(self) -> complex:
        return self.k * self.k * (1 - self.epsilon)

    @property
    def sqrt_epsilon(self) -> complex:
        return complex(np.sqrt(complex(self.epsilon)))

    @property
    def kappa(self) -> float:
        """Imaginary part of the refractive index."""
        return self.sqrt_epsilon.imag

    @property
    def gain(self) -> float:
        """Gain coefficient g = -2 k kappa (positive for gain material)."""
        return -2.0 * self.k * self.kappa

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


def slab_operator(sp: SlabParams, grid: MomentumGrid, x0: float = 0.0) -> TransferOperator:
    """Purely multiplicative transfer operator of a slab on [x0, x0 + L].

    The canonical formula places the slab on [0, L]; a translation by x0
    conjugates the off-diagonal entries with e^{-+ 2 i omega x0}.
    """
    if not np.isclose(grid.k, sp.k, rtol=1e-12, atol=0.0):
        raise ValueError("slab parameters and grid carry different wavenumbers")
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
    omega = complex(omega)
    m = slab_entries(sp, omega)[:, :, 0]
    z = _z_of(*_at_omega(sp, omega))
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


def _z_parts(n, length: float, omega):
    """The two competing terms of Z at channel index n: round-trip phase and reflection factor."""
    r = (n - 1) / (n + 1)
    return np.exp(-2j * n * length * omega), r * r


def _at_omega(sp: SlabParams, omega):
    """Arguments (n, L, omega) of the Z helpers in the channel frequency at fixed potential."""
    omega = np.asarray(omega, dtype=complex)
    return sp.refraction(omega), sp.thickness, omega


def _z_of(n, length: float, omega) -> np.ndarray | complex:
    e, r2 = _z_parts(n, length, omega)
    val = e - r2
    return complex(val) if np.ndim(val) == 0 else val


def _z_floor(n, length: float, omega) -> float:
    """Roundoff floor of |Z(omega)|: below this, Z is zero to machine precision."""
    e, r2 = _z_parts(n, length, omega)
    return 1e-14 * float(np.abs(e) + np.abs(r2))


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
    Gauss-Legendre.  A magnitude scan of Z over (0, k), sharpened by a local
    secant polish, guards against a pole of X inside the interval.
    """
    if quad_points < 2:
        raise ValueError("quad_points must be at least 2")
    _check_no_interior_pole(sp)
    u, w = _gauss_legendre_quarter(quad_points)
    x_vals = _x_of(slab_entries(sp, sp.k * np.sin(u)))
    return complex(2.0 + (1j * strength / np.pi) * np.sum(w * x_vals))


def _check_no_interior_pole(sp: SlabParams) -> None:
    omega = sp.k * np.sin(np.linspace(1e-3, np.pi / 2 - 1e-3, 1024))
    zvals = np.abs(_z_of(*_at_omega(sp, omega)))
    i = int(np.argmin(zvals))
    if zvals[i] > 1e-3 * np.max(zvals):
        return
    # suspicious dip: polish and raise only if a genuine real root is found
    try:
        res = _secant(lambda w: _z_of(*_at_omega(sp, w)), complex(omega[i]), max_iter=50,
                      floor=lambda w: _z_floor(*_at_omega(sp, w)))
    except NoRootError:
        return
    root = res[0]
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
    p = np.atleast_1d(np.asarray(p, dtype=float))
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

def _threshold_gain(eta: float, thickness: float, sin_t, cos_t) -> np.ndarray:
    """The threshold-gain formula of threshold_gain, from sin and cos of theta."""
    if not eta > 1:
        raise ValueError("threshold gain requires eta > 1")
    if not thickness > 0:
        raise ValueError("thickness must be positive")
    root = np.sqrt(eta * eta - sin_t * sin_t)
    return (4.0 * root / (eta * thickness)) * np.log((root + np.abs(cos_t))
                                                     / np.sqrt(eta * eta - 1.0))


def threshold_gain(eta: float, theta, thickness: float) -> np.ndarray | float:
    """Gain coefficient at which the slab-with-defect starts lasing toward theta.

    g(theta) = (4 sqrt(eta^2 - sin^2 theta) / (eta L))
               * ln[(sqrt(eta^2 - sin^2 theta) + |cos theta|) / sqrt(eta^2 - 1)]

    Valid for eta > 1 and |kappa| << eta - 1; theta in radians is the
    direction of the scattered wave.  Maximal at theta = 0 and pi, zero at
    theta = +-pi/2.
    """
    theta = np.asarray(theta, dtype=float)
    g = _threshold_gain(eta, thickness, np.sin(theta), np.cos(theta))
    return g if g.ndim else float(g)


def threshold_gain_curve(eta: float, thickness: float, theta_deg) -> np.ndarray:
    """threshold_gain sampled at angles in degrees, exact at the quadrants.

    cos is exactly 0 at 90 + 180 m degrees, so the gain there is exactly zero.
    """
    theta_deg = np.asarray(theta_deg, dtype=float)
    rad = np.radians(theta_deg)
    cos_t = np.where(np.mod(theta_deg, 180.0) == 90.0, 0.0, np.cos(rad))
    return _threshold_gain(eta, thickness, np.sin(rad), cos_t)


@dataclass(frozen=True)
class SingularitySearch:
    """Converged root of the singularity condition Z = 0 with residuals."""

    root: complex
    z_abs: float
    m22_abs: float
    iterations: int


def _secant(f, guess: complex, max_iter: int = 200,
            f_tol: float = 1e-10, step_rtol: float = 1e-9, floor=None):
    """Derivative-free complex root search.

    Convergence needs a small residual together with a stalled step, so a
    function like e^{-2iLw} whose modulus merely decays (no finite root)
    exhausts the iteration budget instead of fake-converging.  `floor`, when
    given, maps an iterate to the roundoff level of f there; residuals at or
    below it are accepted outright.
    """
    floor_at = floor if floor is not None else (lambda _x: 0.0)
    x0 = complex(guess)
    with np.errstate(all="ignore"):
        f0 = complex(f(x0))
    if f0 == 0 or abs(f0) <= floor_at(x0):
        return x0, abs(f0), 0
    x1 = x0 * (1 + 1e-6) + 1e-9
    with np.errstate(all="ignore"):
        f1 = complex(f(x1))
    residual = abs(f1)
    for it in range(1, max_iter + 1):
        if f1 == f0 or not (np.isfinite(f0) and np.isfinite(f1)):
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        with np.errstate(all="ignore"):
            f2 = complex(f(x2))
        if np.isfinite(f2):
            residual = abs(f2)
        step_ok = abs(x2 - x1) <= step_rtol * max(1.0, abs(x2))
        if f2 == 0 or (abs(f2) < f_tol and (step_ok or abs(f2) <= floor_at(x2))):
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
    # at normal incidence the channel index is sqrt(epsilon) for any k
    args = ((lambda w: _at_omega(sp, w)) if unknown == "omega"
            else (lambda kk: (sp.sqrt_epsilon, sp.thickness, kk)))
    root, res, it = _secant(lambda x: _z_of(*args(x)), guess,
                            floor=lambda x: _z_floor(*args(x)))
    if unknown == "omega":
        m22 = abs(complex(slab_entries(sp, np.array([root]))[1, 1, 0]))
    else:
        n = sp.sqrt_epsilon
        beta = n * sp.thickness * root
        m22 = abs((np.cos(beta) - 0.5j * (n + 1 / n) * np.sin(beta))
                  * np.exp(1j * root * sp.thickness))
    return SingularitySearch(root=complex(root), z_abs=float(res),
                             m22_abs=float(m22), iterations=it)
