"""Transfer operators on the channel grid: composition and wave extraction.

A transfer operator maps the left-asymptotic coefficient pair (A-, B-) of a
wave to the right-asymptotic pair (A+, B+).  These coefficients are
functions of the transverse momentum (p in 2D, the vector pvec in 3D), and
the operator splits into

    M = mult(p) + K,

a 2x2 multiplication part plus a smoothing integral part K represented by
Nystrom matrices on the grid (quadrature weights folded in).  K is stored
either dense, as a (2, 2, S, S) array, or factored, as a LowRank pair of
(2, S, r) and (r, 2, S) factors: point defects are rank one, and a
composition of factored kernels stays factored with the ranks added.  The
multiplication part is tabulated once, when the operator is built, on the
S grid channels and on the coherent channel p = 0, stored last.  An
incident coherent beam c * 2 pi delta(p) survives only through the
multiplication part, while K turns it into a smooth function; the columns
of K against the delta channel are stored separately in kernel_at_zero, so
the delta function itself is never sampled.

Extraction solves one S x S system, diag(mult_22) + K_22.  For a factored
kernel that is a capacitance (Sherman-Morrison-Woodbury) solve in
O(S r^2), with the condition number computed exactly from the factors.
Every case the formula does not cover (a dense kernel, mult_22 vanishing
on a channel, a singular capacitance matrix, or a formula that may cancel)
goes through one fallback: the kernel is densified and the system is
solved by LU, with a gecon estimate of the condition number.

One operator type, composition and extraction serve both the 2D
MomentumGrid and the 3D DiscGrid; only the grid differs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import DivergenceError
from .grid import (MomentumGrid, SpectralAmplitude, barycentric_interpolate,
                   chebyshev_barycentric_weights)

if TYPE_CHECKING:
    from .threed import DiscGrid

# rcond thresholds for the smooth-channel solve diagnostics
RCOND_SINGULAR = 1e-14
RCOND_NEAR_SINGULAR = 1e-9
# |mult_22(0)| below this (relative to the mult scale) flags the delta channel
MULT_ZERO_TOL = 1e-13
# capacitance solve: the rounding amplification (in units of eps) above which
# its formula may cancel and the dense LU runs instead, and the columns per
# block of the exact 1-norms
SMW_CANCEL_ABOVE = 1e3
NORM_BLOCK = 256


@dataclass(frozen=True)
class SingularityFlag:
    """Diagnostic attached to an extraction: none, near-singular or singular.

    condition is the 1-norm condition number of the smooth-channel system
    (None when it could not be computed): exact where the capacitance
    formula solves it, the LAPACK gecon estimate (never above the exact
    value) where the dense LU does.
    """

    kind: str
    condition: float | None = None

    @property
    def is_singular(self) -> bool:
        return self.kind == "singular"

    @classmethod
    def none(cls) -> "SingularityFlag":
        return cls(kind="none")


def channel_omegas(grid: MomentumGrid | DiscGrid) -> np.ndarray:
    """Frequencies at which mult is tabulated: the grid's omegas, then k (p = 0)."""
    return np.append(grid.omegas, grid.k)


def unit_mult(grid: MomentumGrid | DiscGrid) -> np.ndarray:
    """The identity multiplication part, a (2, 2, S + 1) view."""
    return np.broadcast_to(np.eye(2, dtype=complex)[:, :, None], (2, 2, grid.size + 1))


@dataclass(frozen=True)
class LowRank:
    """Factored smoothing kernel K[a, b, j, l] = sum_r left[a, j, r] right[r, b, l].

    left is a (2, S, r) array and right an (r, 2, S) array.  shape is the
    dense (2, 2, S, S) shape, nbytes the storage of the factors, and
    np.asarray densifies the kernel.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left = np.asarray(self.left, dtype=complex)
        right = np.asarray(self.right, dtype=complex)
        if left.ndim != 3 or left.shape[0] != 2 or right.shape != (left.shape[2], 2, left.shape[1]):
            raise ValueError(f"factor shapes {left.shape} and {right.shape} do not match")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        s = self.left.shape[1]
        return (2, 2, s, s)

    @property
    def nbytes(self) -> int:
        return self.left.nbytes + self.right.nbytes

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a factored kernel cannot be densified without a copy")
        dense = np.einsum("ajr,rbl->abjl", self.left, self.right)
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """K applied to a (2, m, S) stack of columns v: sum_{c,l} K[a, c, j, l] v[c, b, l]."""
        return np.einsum("ajr,rb->abj", self.left,
                         np.einsum("rcl,cbl->rb", self.right, vectors))


@dataclass(frozen=True)
class TransferOperator:
    """mult + kernel split of a transfer operator on a MomentumGrid or DiscGrid.

    mult is a read-only (2, 2, S + 1) array: the multiplication part on the
    S grid channels, then on the coherent channel p = 0.  kernel is a
    dense (2, 2, S, S) array or its LowRank factors (None means zero);
    kernel_at_zero is a (2, 2, S) array of responses to a unit coherent
    beam in either channel (None means zero).  Instances are immutable.  A
    non-finite mult or LowRank factor raises DivergenceError; dense kernels
    are not scanned, since they are large.
    """

    grid: MomentumGrid | DiscGrid
    mult: np.ndarray
    kernel: np.ndarray | LowRank | None
    kernel_at_zero: np.ndarray | None

    def __post_init__(self):
        n = self.grid.size
        mult = np.array(self.mult, dtype=complex)
        if mult.shape != (2, 2, n + 1):
            raise ValueError(f"mult shape {mult.shape} does not match the grid")
        if not np.all(np.isfinite(mult)):
            raise DivergenceError("multiplication part has non-finite entries")
        mult.setflags(write=False)
        object.__setattr__(self, "mult", mult)
        if self.kernel is not None and self.kernel.shape != (2, 2, n, n):
            raise ValueError(f"kernel shape {self.kernel.shape} does not match the grid")
        if isinstance(self.kernel, LowRank) and not (np.all(np.isfinite(self.kernel.left))
                                                     and np.all(np.isfinite(self.kernel.right))):
            raise DivergenceError("kernel factors have non-finite entries")
        if self.kernel_at_zero is not None and self.kernel_at_zero.shape != (2, 2, n):
            raise ValueError(
                f"kernel_at_zero shape {self.kernel_at_zero.shape} does not match the grid")

    def mult_on_grid(self) -> np.ndarray:
        return self.mult[:, :, :-1]

    def mult_at_zero(self) -> np.ndarray:
        return self.mult[:, :, -1]

    def entries_on_grid(self) -> np.ndarray:
        """Full (2, 2, S, S) matrix of the operator restricted to the grid."""
        n = self.grid.size
        out = np.zeros((2, 2, n, n), dtype=complex)
        idx = np.arange(n)
        out[:, :, idx, idx] = self.mult_on_grid()
        if self.kernel is not None:
            out = out + np.asarray(self.kernel)
        return out


def identity_operator(grid: MomentumGrid | DiscGrid) -> TransferOperator:
    return TransferOperator(grid=grid, mult=unit_mult(grid), kernel=None, kernel_at_zero=None)


def _same_grid(a, b) -> bool:
    return a is b or (type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)))


def _compose_factored(k2: LowRank | None, k1: LowRank | None,
                      m2g: np.ndarray, m1g: np.ndarray) -> LowRank | None:
    """Factors of M2 K1 + K2 M1 + K2 K1: left [M2 L1 + L2 (R2 L1), L2], right [R1; R2 M1]."""
    lefts, rights = [], []
    if k1 is not None:
        left = np.einsum("acj,cjr->ajr", m2g, k1.left)
        if k2 is not None:
            left = left + np.einsum("ajs,sr->ajr", k2.left,
                                    np.einsum("scl,clr->sr", k2.right, k1.left))
        lefts.append(left)
        rights.append(k1.right)
    if k2 is not None:
        lefts.append(k2.left)
        rights.append(np.einsum("rcl,cbl->rbl", k2.right, m1g))
    if not lefts:
        return None
    return LowRank(np.concatenate(lefts, axis=2), np.concatenate(rights, axis=0))


def _compose_dense(k2: np.ndarray | None, k1: np.ndarray | None,
                   m2g: np.ndarray, m1g: np.ndarray) -> np.ndarray | None:
    """M2 K1 + K2 M1 + K2 K1 on dense kernels."""
    kernel = None
    if k1 is not None:
        # mult2 acting after K1: row-scale by m2 sampled at the output node
        kernel = np.einsum("acj,cbjl->abjl", m2g, k1)
    if k2 is not None:
        term = np.einsum("acjl,cbl->abjl", k2, m1g)
        kernel = term if kernel is None else kernel + term
        if k1 is not None:
            kernel = kernel + np.einsum("acjs,cbsl->abjl", k2, k1)
    return kernel


def compose(second: TransferOperator, first: TransferOperator) -> TransferOperator:
    """Operator product second * first (first acts first).

    Two kernels that are each factored or None compose to a factored kernel
    of the summed rank; if either is dense, the other is densified.  The
    caller asserts that the x-support of first's potential lies to the left
    of second's, overlapping at most at a point; only grid identity is
    checked here.
    """
    if not _same_grid(second.grid, first.grid):
        raise ValueError("operands live on different grids")
    mult = np.einsum("acm,cbm->abm", second.mult, first.mult)
    m2g, m1g = second.mult_on_grid(), first.mult_on_grid()
    k2, k1 = second.kernel, first.kernel
    if all(k is None or isinstance(k, LowRank) for k in (k1, k2)):
        kernel = _compose_factored(k2, k1, m2g, m1g)
    else:
        k2, k1 = (None if k is None else np.asarray(k) for k in (k2, k1))
        kernel = _compose_dense(k2, k1, m2g, m1g)

    k01, k02 = first.kernel_at_zero, second.kernel_at_zero
    k0 = None
    if k01 is not None:
        k0 = np.einsum("acj,cbj->abj", m2g, k01)
        if isinstance(k2, LowRank):
            k0 = k0 + k2.apply(k01)
        elif k2 is not None:
            k0 = k0 + np.einsum("acjl,cbl->abj", k2, k01)
    if k02 is not None:
        term = np.einsum("acj,cb->abj", k02, first.mult_at_zero())
        k0 = term if k0 is None else k0 + term

    return TransferOperator(grid=first.grid, mult=mult, kernel=kernel, kernel_at_zero=k0)


def _norm1(columns, n: int) -> float:
    """Exact 1-norm of the n x n matrix whose columns `columns(cols)` returns,
    taken in blocks of at most NORM_BLOCK columns."""
    norm = 0.0
    for start in range(0, n, NORM_BLOCK):
        block = columns(np.arange(start, min(start + NORM_BLOCK, n)))
        norm = max(norm, float(np.max(np.sum(np.abs(block), axis=0))))
    return norm


def _diag_plus_outer(diag: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Column blocks of diag(diag) + left @ right."""
    def columns(cols):
        a = left @ right[:, cols]
        a[cols, np.arange(cols.size)] += diag[cols]
        return a
    return columns


def _capacitance_solve(d: np.ndarray, u: np.ndarray, vt: np.ndarray, rhs: np.ndarray,
                       tol: float):
    """Solve (diag(d) + u @ vt) phi = rhs by its r x r capacitance matrix.

    Sherman-Morrison-Woodbury: with D = diag(d) and C = I + Vt D^-1 U,

        (D + U Vt)^-1 = D^-1 - (D^-1 U)(C^-1 Vt D^-1),

    so nothing of size S x S is ever formed.  Returns (phi, rcond, condition)
    with the exact 1-norm condition number, or None where the formula does
    not hold or may cancel (some |d_j| <= tol, C singular, or a rounding
    amplification above SMW_CANCEL_ABOVE); the caller then runs the dense LU.
    """
    if not np.all(np.abs(d) > tol):
        return None
    with np.errstate(all="ignore"):
        p = u / d[:, None]
        cap = np.eye(u.shape[1]) + vt @ p
        try:
            q = np.linalg.solve(cap, vt / d)
        except np.linalg.LinAlgError:
            return None
        inverse_norm = _norm1(_diag_plus_outer(1.0 / d, -p, q), d.size)
        # column j of the inverse is e_j / d_j minus the rank-r part: their
        # magnitudes against the inverse's norm bound the cancellation, and
        # the condition of C the error of the small solve
        terms = np.abs(1.0 / d) + np.sum(np.abs(p), axis=0) @ np.abs(q)
        amplification = float(np.linalg.cond(cap, 1)) * float(np.max(terms)) / inverse_norm
        if not amplification <= SMW_CANCEL_ABOVE:
            return None
        b = rhs[:, None]
        phi = (b / d[:, None] - p @ (q @ b))[:, 0]
        condition = _norm1(_diag_plus_outer(d, u, vt), d.size) * inverse_norm
    if not (np.isfinite(condition) and condition > 0):
        return phi, 0.0, None
    return phi, 1.0 / condition, float(condition)


def _lu_solve(a22: np.ndarray, rhs: np.ndarray):
    """Solve a22 phi = rhs by LU; returns (phi, rcond, condition) with gecon's rcond."""
    # imported here: scipy.linalg costs more than the rest of `import tmscat`
    import scipy.linalg

    condition = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        anorm = np.linalg.norm(a22, 1)
        lu, piv = scipy.linalg.lu_factor(a22, check_finite=False)
        gecon = scipy.linalg.get_lapack_funcs("gecon", (a22,))
        rcond, info = gecon(lu, anorm)
        if info != 0:
            rcond = 0.0
        if rcond > 0:
            condition = float(1.0 / rcond)
        with np.errstate(all="ignore"):
            phi = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    return phi, rcond, condition


def solve_outgoing(op: TransferOperator, incident: complex = 1.0):
    """Outgoing amplitudes for an incident coherent beam incident * 2 pi delta(p).

    (In 3D the beam is incident * 4 pi^2 delta2(pvec); the algebra is the
    same.)  Returns (T_plus, T_minus, flag): T_minus is the reflected
    amplitude B-, T_plus = A+ - A- the transmitted modification; both split
    into a delta coefficient and smooth node samples.  When the
    reflected-channel system is (near-)singular the flag reports it and
    values may be non-finite; such a point is a spectral singularity of the
    potential.  A factored kernel is solved by its capacitance matrix where
    _capacitance_solve accepts it; every other case goes through a dense LU.
    """
    m0, mult_grid = op.mult_at_zero(), op.mult_on_grid()
    kernel, k0 = op.kernel, op.kernel_at_zero
    s = op.grid.size
    tol = MULT_ZERO_TOL * max(1.0, float(np.max(np.abs(m0))))
    flag_kind = "none"
    if abs(m0[1, 1]) <= tol:
        flag_kind = "singular"
        b0 = np.inf + 0j if m0[1, 0] != 0 else 0.0j
    else:
        b0 = -m0[1, 0] / m0[1, 1] * incident

    zeros = np.zeros(s, dtype=complex)
    k011, k012 = (k0[0, 0], k0[0, 1]) if k0 is not None else (zeros, zeros)
    k021, k022 = (k0[1, 0], k0[1, 1]) if k0 is not None else (zeros, zeros)

    # b0 = inf against a zero kernel column gives NaN: the flag is singular
    with np.errstate(invalid="ignore"):
        rhs = -(k021 * incident + b0 * k022)
    m22 = mult_grid[1, 1]
    factored = isinstance(kernel, LowRank)
    solved = (_capacitance_solve(m22, kernel.left[1], kernel.right[:, 1], rhs, tol)
              if factored else None)
    if solved is None:
        a22 = np.diag(m22)
        if factored:
            a22 = a22 + kernel.left[1] @ kernel.right[:, 1]
        elif kernel is not None:
            a22 = a22 + kernel[1, 1]
        solved = _lu_solve(a22, rhs)
    phi, rcond, condition = solved

    if rcond <= RCOND_SINGULAR or not np.all(np.isfinite(phi)):
        flag_kind = "singular"
    elif rcond <= RCOND_NEAR_SINGULAR and flag_kind == "none":
        flag_kind = "near-singular"

    if flag_kind != "singular":
        tp_delta = m0[0, 0] * incident + m0[0, 1] * b0 - incident
    else:
        tp_delta = complex(np.nan)

    with np.errstate(invalid="ignore"):
        tp_smooth = k011 * incident + b0 * k012 + mult_grid[0, 1] * phi
        if factored:
            tp_smooth = tp_smooth + kernel.left[0] @ (kernel.right[:, 1] @ phi)
        elif kernel is not None:
            tp_smooth = tp_smooth + kernel[0, 1] @ phi
    grid = op.grid
    t_minus = SpectralAmplitude(grid=grid, delta_coeff=complex(b0), smooth=phi)
    t_plus = SpectralAmplitude(grid=grid, delta_coeff=complex(tp_delta), smooth=tp_smooth)
    return t_plus, t_minus, SingularityFlag(flag_kind, condition)


COS_EXCLUSION = 1e-12


def _checked_grid(t_plus: SpectralAmplitude, t_minus: SpectralAmplitude, k: float):
    """The grid both amplitudes live on; ValueError if they differ or k is not its wavenumber."""
    grid = t_plus.grid
    if not _same_grid(grid, t_minus.grid):
        raise ValueError("amplitudes live on different grids")
    if not np.isclose(k, grid.k, rtol=1e-12, atol=0.0):
        raise ValueError(f"wavenumber {k} does not match the grid ({grid.k})")
    return grid


def amplitude(t_plus: SpectralAmplitude, t_minus: SpectralAmplitude,
              k: float, thetas) -> list[tuple[float, complex]]:
    """Angular scattering amplitude f(theta) from the outgoing momenta.

    f(theta) = -(i / sqrt(2 pi)) * [omega T](k sin theta) with T = T_plus for
    cos theta > 0 and T_minus for cos theta < 0.  The product omega(p) T(p)
    is interpolated (barycentric, spectrally accurate on these nodes) rather
    than T itself, since T generically carries a 1/omega factor.  theta =
    pi/2 and 3 pi/2 (omega = 0) are excluded; delta coefficients are not
    folded in (they modify the coherent beam, not the diffuse wave).
    """
    grid = _checked_grid(t_plus, t_minus, k)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float)) % (2 * np.pi)
    cos_t = np.cos(thetas)
    if np.any(np.abs(cos_t) < COS_EXCLUSION):
        raise ValueError("f(theta) is undefined at cos(theta) = 0")

    bary = chebyshev_barycentric_weights(grid.size)
    u_plus = grid.omegas * t_plus.smooth
    u_minus = grid.omegas * t_minus.smooth
    p_eval = k * np.sin(thetas)
    f = np.empty(thetas.size, dtype=complex)
    fwd = cos_t > 0
    if np.any(fwd):
        f[fwd] = barycentric_interpolate(grid.nodes, bary, u_plus, p_eval[fwd])
    if np.any(~fwd):
        f[~fwd] = barycentric_interpolate(grid.nodes, bary, u_minus, p_eval[~fwd])
    f *= -1j / np.sqrt(2 * np.pi)
    return [(float(t), complex(v)) for t, v in zip(thetas, f)]


@dataclass(frozen=True)
class ScatteringResult:
    """Outgoing amplitudes plus sampled f(theta) and the extraction diagnostic."""

    t_plus: SpectralAmplitude
    t_minus: SpectralAmplitude
    f_samples: list[tuple[float, complex]]
    singularity_flag: SingularityFlag

    def csv_rows(self) -> list[tuple[float, float, float, float]]:
        """Rows (theta_deg, re_f, im_f, abs_f_sq) for the amplitude table."""
        return [(np.degrees(t), f.real, f.imag, abs(f) ** 2)
                for t, f in self.f_samples]

    def metadata(self) -> dict:
        """JSON-style record: wavenumber, grid size, beam coefficients, flag."""
        grid = self.t_plus.grid
        return {
            "k": grid.k,
            "n": grid.size,
            "t_plus_delta": {"re": self.t_plus.delta_coeff.real,
                             "im": self.t_plus.delta_coeff.imag},
            "t_minus_delta": {"re": self.t_minus.delta_coeff.real,
                              "im": self.t_minus.delta_coeff.imag},
            "singularity_flag": self.singularity_flag.kind,
        }


def scattering_result(op: TransferOperator, thetas) -> ScatteringResult:
    """Run the full extraction pipeline on an operator."""
    t_plus, t_minus, flag = solve_outgoing(op)
    if flag.is_singular:
        f_samples = []
    else:
        f_samples = amplitude(t_plus, t_minus, op.grid.k, thetas)
    return ScatteringResult(t_plus=t_plus, t_minus=t_minus,
                            f_samples=f_samples, singularity_flag=flag)
