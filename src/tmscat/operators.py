"""Transfer operators on the channel grid: composition and wave extraction.

A transfer operator maps the left-asymptotic coefficient pair (A-, B-) of a
wave to the right-asymptotic pair (A+, B+).  These coefficients are
functions of the transverse momentum (p in 2D, the vector pvec in 3D), and
the operator splits into

    M = mult(p) + K,

a 2x2 multiplication part plus a smoothing integral part K represented by
Nystrom matrices on the grid (quadrature weights folded in).  Both act on
the S grid channels and, stored last, the coherent channel p = 0: the
operator is the block matrix diag(mult) + [K; 0].  An incident coherent
beam c * 2 pi delta(p) survives only through mult, while K turns it into a
smooth function: K has S rows and S + 1 columns, the last one its response
to a unit beam, so the delta function itself is never sampled.  K is stored
dense, as a (2, 2, S, S + 1) array, or factored, as a LowRank pair of
(2, S, r) and (r, 2, S + 1) factors: point defects are rank one, and a
composition of factored kernels stays factored with the ranks added.  An
operator, and a LowRank, keeps the arrays it is given (mult is tabulated
once, and a complex array is not copied), makes them read-only in place
and refuses any that is not finite with DivergenceError.

Extraction solves one S x S system, diag(mult_22) + K_22.  With no kernel
the system is diagonal and is solved in O(S), with its exact condition
number.  For a factored kernel it is a capacitance (Sherman-Morrison-
Woodbury) solve in O(S r^2), with the condition number estimated from the
factors in O(S r) by the Hager-Higham algorithm, never above the exact
value.  Every case the formula does not cover (a dense kernel, mult_22
vanishing on a channel, a singular capacitance matrix, or a formula that
may cancel) goes through one fallback: the kernel is densified and the
system is solved by LU, with the exact 1-norm condition number from its
inverse.

One operator type, composition and extraction serve both the 2D
MomentumGrid and the 3D DiscGrid; only the grid differs.  amplitude3d
reads f(theta, phi) on a DiscGrid as amplitude reads f(theta) on a
MomentumGrid, and each refuses the other grid's amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DivergenceError, finite
from .grid import DiscGrid, MomentumGrid, SpectralAmplitude, barycentric_interpolate

# rcond thresholds for the smooth-channel solve diagnostics
RCOND_SINGULAR = 1e-14
RCOND_NEAR_SINGULAR = 1e-9
# |mult_22(0)| below this (relative to the mult scale) flags the delta channel
MULT_ZERO_TOL = 1e-13
# capacitance solve: the rounding amplification (in units of eps) above which
# its formula may cancel and the dense LU runs instead
SMW_CANCEL_ABOVE = 1e3


@dataclass(frozen=True)
class SingularityFlag:
    """Diagnostic attached to an extraction: none, near-singular or singular.

    condition is the 1-norm condition number of the smooth-channel system
    (None when it could not be computed): exact where the system is
    diagonal or the dense LU solves it, and a Hager-Higham estimate from the
    factors, never above the exact value, where the capacitance formula
    does.
    """

    kind: str
    condition: float | None = None

    @property
    def is_singular(self) -> bool:
        return self.kind == "singular"


def _times(lhs, rhs, out=None):
    """lhs rhs per channel, for 2x2 maps laid out (row, column, channel): one
    broadcast product and one sum, the product of compose's mult and of the
    layered evolution's step maps (einsum measured 3-4x slower)."""
    p = lhs[:, :, None] * rhs
    return np.add(p[:, 0], p[:, 1], out=out)


def unit_mult(grid: MomentumGrid | DiscGrid) -> np.ndarray:
    """The identity multiplication part, a (2, 2, S + 1) view."""
    return np.broadcast_to(np.eye(2, dtype=complex)[:, :, None], (2, 2, grid.size + 1))


@dataclass(frozen=True)
class LowRank:
    """Factored smoothing kernel K[a, b, j, l] = sum_r left[a, j, r] right[r, b, l].

    left is a (2, S, r) array and right an (r, 2, S + 1) array, its last
    column the beam channel, both kept, made read-only in place and refused
    with DivergenceError if not finite.  shape is the dense (2, 2, S, S + 1)
    shape, nbytes the storage of the factors, and np.asarray densifies the
    kernel.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left = np.asarray(self.left, dtype=complex)
        right = np.asarray(self.right, dtype=complex)
        if (left.ndim != 3 or left.shape[0] != 2
                or right.shape != (left.shape[2], 2, left.shape[1] + 1)):
            raise ValueError(f"factor shapes {left.shape} and {right.shape} do not match")
        if not (np.isfinite(left).all() and np.isfinite(right).all()):
            raise DivergenceError("kernel factors have non-finite entries")
        for name, factor in (("left", left), ("right", right)):
            factor.setflags(write=False)
            object.__setattr__(self, name, factor)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        s = self.left.shape[1]
        return (2, 2, s, s + 1)

    @property
    def nbytes(self) -> int:
        return self.left.nbytes + self.right.nbytes

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a factored kernel cannot be densified without a copy")
        dense = np.einsum("ajr,rbl->abjl", self.left, self.right)
        return dense if dtype is None else dense.astype(dtype, copy=False)


@dataclass(frozen=True)
class TransferOperator:
    """mult + kernel split of a transfer operator on a MomentumGrid or DiscGrid.

    mult is a (2, 2, S + 1) array: the multiplication part on the S grid
    channels, then on the coherent channel p = 0.  kernel is a dense
    (2, 2, S, S + 1) array or its LowRank factors (None means zero), with
    the same S + 1 columns.  Instances are immutable, and this is the only
    way one is built: the operator keeps the arrays it is given (a complex
    mult is not copied), makes them read-only in place, and refuses with
    DivergenceError any that is not finite.
    """

    grid: MomentumGrid | DiscGrid
    mult: np.ndarray
    kernel: np.ndarray | LowRank | None

    def __post_init__(self):
        n = self.grid.size
        mult, kernel = np.asarray(self.mult, dtype=complex), self.kernel
        if mult.shape != (2, 2, n + 1):
            raise ValueError(f"mult shape {mult.shape} does not match the grid")
        if kernel is not None and kernel.shape != (2, 2, n, n + 1):
            raise ValueError(f"kernel shape {kernel.shape} does not match the grid")
        arrays = (mult, kernel) if isinstance(kernel, np.ndarray) else (mult,)
        if not all(np.isfinite(a).all() for a in arrays):
            raise DivergenceError("operator has non-finite entries")
        for a in arrays:
            a.setflags(write=False)
        object.__setattr__(self, "mult", mult)

    @property
    def kernel_at_zero(self) -> np.ndarray | None:
        """The kernel's beam column, (2, 2, S): responses to a unit coherent beam."""
        if isinstance(self.kernel, LowRank):
            return np.einsum("ajr,rb->abj", self.kernel.left, self.kernel.right[:, :, -1])
        return None if self.kernel is None else self.kernel[..., -1]

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
            out = out + np.asarray(self.kernel)[..., :-1]
        return out


def identity_operator(grid: MomentumGrid | DiscGrid) -> TransferOperator:
    return TransferOperator(grid=grid, mult=unit_mult(grid), kernel=None)


def _same_grid(a, b) -> bool:
    return a is b or (type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)))


def _compose_factored(k2: LowRank | None, k1: LowRank | None,
                      m2g: np.ndarray, m1: np.ndarray) -> LowRank | None:
    """Factors of M2 K1 + K2 M1 + K2 K1: left [M2 L1 + L2 (R2 L1), L2], right [R1; R2 M1]."""
    lefts, rights = [], []
    if k1 is not None:
        left = np.einsum("acj,cjr->ajr", m2g, k1.left)
        if k2 is not None:
            left = left + np.einsum("ajs,sr->ajr", k2.left,
                                    np.einsum("scl,clr->sr", k2.right[:, :, :-1], k1.left))
        lefts.append(left)
        rights.append(k1.right)
    if k2 is not None:
        lefts.append(k2.left)
        rights.append(np.einsum("rcl,cbl->rbl", k2.right, m1))
    if not lefts:
        return None
    return LowRank(np.concatenate(lefts, axis=2), np.concatenate(rights, axis=0))


def _compose_dense(k2: np.ndarray | None, k1: np.ndarray | None,
                   m2g: np.ndarray, m1: np.ndarray) -> np.ndarray | None:
    """M2 K1 + K2 M1 + K2 K1 on dense kernels."""
    kernel = None
    if k1 is not None:
        # mult2 acting after K1: row-scale by m2 sampled at the output node
        kernel = np.einsum("acj,cbjl->abjl", m2g, k1)
    if k2 is not None:
        term = np.einsum("acjl,cbl->abjl", k2, m1)
        kernel = term if kernel is None else kernel + term
        if k1 is not None:
            kernel = kernel + np.einsum("acjs,cbsl->abjl", k2[..., :-1], k1)
    return kernel


def compose(second: TransferOperator, first: TransferOperator) -> TransferOperator:
    """Operator product second * first (first acts first).

    The kernel is K = M2 K1 + K2 M1 + K2 K1, with M1 the whole mult of
    first, beam channel included, and K2 K1 summed over the grid channels
    only (K1 has no beam rows).  Two kernels that are each factored or None
    compose to a factored kernel of the summed rank; if either is dense, the
    other is densified.  The caller asserts that the x-support of first's
    potential lies to the left of second's, overlapping at most at a point;
    only grid identity is checked here.
    """
    if not _same_grid(second.grid, first.grid):
        raise ValueError("operands live on different grids")
    mult = _times(second.mult, first.mult)
    m2g, m1 = second.mult_on_grid(), first.mult
    k2, k1 = second.kernel, first.kernel
    if all(k is None or isinstance(k, LowRank) for k in (k1, k2)):
        kernel = _compose_factored(k2, k1, m2g, m1)
    else:
        k2, k1 = (None if k is None else np.asarray(k) for k in (k2, k1))
        kernel = _compose_dense(k2, k1, m2g, m1)
    return TransferOperator(grid=first.grid, mult=mult, kernel=kernel)


def _unit_phases(x: np.ndarray) -> np.ndarray:
    """x / |x| entrywise, 1 where |x| underflows (xLACN2's sign vector)."""
    mag = np.abs(x)
    nonzero = mag > np.finfo(float).tiny
    return np.where(nonzero, x / np.where(nonzero, mag, 1.0), 1.0)


def _norm1_estimate(apply, adjoint, n: int, column: np.ndarray) -> float:
    """Hager-Higham estimate of the 1-norm of an n x n matrix A, never above
    the exact value: the algorithm of LAPACK xLACN2 (the one gecon runs on
    the LU factors), driven by apply(x) = A x and adjoint(x) = A^H x, and at
    least the 1-norm of the given column of A, the one with the largest
    triangle-inequality bound: where A x cancels against the start vector,
    the sign vector carries nothing and only that column finds the norm."""
    x = apply(np.full(n, 1.0 / n))
    est = float(np.sum(np.abs(x)))
    j = int(np.argmax(np.abs(adjoint(_unit_phases(x)))))
    for _ in range(4):
        x = apply(np.eye(1, n, j)[0])
        previous, est = est, float(np.sum(np.abs(x)))
        if est <= previous:
            break
        y = np.abs(adjoint(_unit_phases(x)))
        last, j = j, int(np.argmax(y))
        if y[last] == y[j]:
            break
    # the alternating vector 1, -(1 + 1/(n-1)), ..., of 1-norm 3n/2
    alternating = (1.0 + np.arange(n) / (n - 1)) * (-1.0) ** np.arange(n)
    return max(est, 2.0 * float(np.sum(np.abs(apply(alternating)))) / (3 * n),
               float(np.sum(np.abs(column))))


def _solved(phi: np.ndarray, condition: float):
    """(phi, condition), with condition None where the condition number is
    not a finite positive number."""
    if not (np.isfinite(condition) and condition > 0):
        return phi, None
    return phi, float(condition)


def _capacitance_solve(d: np.ndarray, u: np.ndarray, vt: np.ndarray, rhs: np.ndarray,
                       tol: float):
    """Solve (diag(d) + u @ vt) phi = rhs by its r x r capacitance matrix.

    Sherman-Morrison-Woodbury: with D = diag(d) and C = I + Vt D^-1 U,

        (D + U Vt)^-1 = D^-1 - (D^-1 U)(C^-1 Vt D^-1),

    so nothing of size S x S is ever formed.  Returns (phi, condition)
    with the 1-norm condition number estimated from the factors in O(S r),
    or None where the formula does not hold or may cancel (some
    |d_j| <= tol, C singular, or a rounding amplification above
    SMW_CANCEL_ABOVE, bounded a priori over every right-hand side and a
    posteriori for this one); the caller then runs the dense LU.
    """
    ad = np.abs(d)
    if not np.all(ad > tol):
        return None
    with np.errstate(all="ignore"):
        p = u / d[:, None]
        cap = np.eye(u.shape[1]) + vt @ p
        try:
            q = np.linalg.solve(cap, vt / d)
        except np.linalg.LinAlgError:
            return None
        # column j of the inverse is e_j / d_j minus the rank-r part: their
        # magnitudes against the inverse's norm bound the cancellation, and
        # the condition of C the error of the small solve
        ap, aq = np.abs(p), np.abs(q)
        terms = 1.0 / ad + np.sum(ap, axis=0) @ aq
        j = int(np.argmax(terms))
        column = -np.dot(p, q[:, j])
        column[j] += 1.0 / d[j]
        dh, ph, qh = d.conj(), p.conj().T, q.conj().T
        inverse_norm = _norm1_estimate(lambda x: x / d - p @ (q @ x),
                                       lambda x: x / dh - qh @ (ph @ x), d.size, column)
        cap_condition = float(np.linalg.cond(cap, 1))
        if not cap_condition * float(np.max(terms)) / inverse_norm <= SMW_CANCEL_ABOVE:
            return None
        b = rhs[:, None]
        phi = (b / d[:, None] - p @ (q @ b))[:, 0]
        # the same bound on this rhs's terms against phi itself; a zero rhs
        # gives phi = 0 exactly, a non-finite one a singular flag
        if np.all(np.isfinite(rhs)) and np.any(rhs):
            rhs_terms = np.abs(rhs) / ad + ap @ (aq @ np.abs(rhs))
            if not cap_condition * np.max(rhs_terms) / np.max(np.abs(phi)) <= SMW_CANCEL_ABOVE:
                return None
        # and the column of A with the largest triangle-inequality bound,
        # |d_j| + sum_i |u_i| |vt_j| with |u_i| = |d_i| |p_i|
        j = int(np.argmax(ad + np.dot(np.dot(ad, ap), np.abs(vt))))
        column = np.dot(u, vt[:, j])
        column[j] += d[j]
        uh, vh = u.conj().T, vt.conj().T
        condition = _norm1_estimate(lambda x: d * x + u @ (vt @ x),
                                    lambda x: dh * x + vh @ (uh @ x), d.size,
                                    column) * inverse_norm
    return _solved(phi, condition)


def _diagonal_solve(d: np.ndarray, rhs: np.ndarray):
    """Solve diag(d) phi = rhs in O(S), the capacitance formula at rank 0,
    with the exact 1-norm condition number max|d| max|1/d|."""
    with np.errstate(all="ignore"):
        ad = np.abs(d)
        return _solved(rhs / d, np.max(ad) / np.min(ad))


def _lu_solve(a22: np.ndarray, rhs: np.ndarray):
    """Solve a22 phi = rhs by LU (LAPACK gesv); returns (phi, condition)
    with the exact 1-norm condition number from one inverse.  An exactly
    singular a22 gives a NaN phi and no condition."""
    with np.errstate(all="ignore"):
        try:
            phi = np.linalg.solve(a22, rhs)
            condition = np.linalg.norm(a22, 1) * np.linalg.norm(np.linalg.inv(a22), 1)
        except np.linalg.LinAlgError:
            return np.full_like(rhs, np.nan), None
    return _solved(phi, condition)


def solve_outgoing(op: TransferOperator, incident: complex = 1.0):
    """Outgoing amplitudes for an incident coherent beam incident * 2 pi delta(p).

    (In 3D the beam is incident * 4 pi^2 delta2(pvec); the algebra is the
    same.)  Returns (T_plus, T_minus, flag): T_minus is the reflected
    amplitude B-, T_plus = A+ - A- the transmitted modification; both split
    into a delta coefficient and smooth node samples.  When the
    reflected-channel system is (near-)singular the flag reports it and
    values may be non-finite; such a point is a spectral singularity of the
    potential.  An amplitude that overflows is flagged singular too.  With
    no kernel the system is diagonal; a factored kernel is
    solved by its capacitance matrix where _capacitance_solve accepts it;
    every other case goes through a dense LU.  A non-finite incident raises
    ValueError.
    """
    finite("incident", incident)
    m0, mult_grid = op.mult_at_zero(), op.mult_on_grid()
    kernel, k0 = op.kernel, op.kernel_at_zero
    if k0 is None:
        k0 = np.zeros((2, 2, op.grid.size), dtype=complex)
    tol = MULT_ZERO_TOL * max(1.0, float(np.max(np.abs(m0))))
    flag_kind = "none"
    if abs(m0[1, 1]) <= tol:
        flag_kind = "singular"
        b0 = np.inf + 0j if m0[1, 0] != 0 else 0.0j
    else:
        b0 = -m0[1, 0] / m0[1, 1] * incident

    # b0 = inf against a zero kernel column gives NaN, and a finite incident
    # against a finite column may overflow: either way the flag is singular
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = -(k0[1, 0] * incident + b0 * k0[1, 1])
    m22 = mult_grid[1, 1]
    factored = isinstance(kernel, LowRank)
    if kernel is None:
        solved = _diagonal_solve(m22, rhs)
    elif factored:
        solved = _capacitance_solve(m22, kernel.left[1], kernel.right[:, 1, :-1], rhs, tol)
    else:
        solved = None
    if solved is None:
        k22 = kernel.left[1] @ kernel.right[:, 1, :-1] if factored else kernel[1, 1, :, :-1]
        solved = _lu_solve(np.diag(m22) + k22, rhs)
    phi, condition = solved
    rcond = 0.0 if condition is None else 1.0 / condition
    if rcond <= RCOND_SINGULAR or not np.all(np.isfinite(phi)):
        flag_kind = "singular"
    elif rcond <= RCOND_NEAR_SINGULAR and flag_kind == "none":
        flag_kind = "near-singular"

    # the transmitted amplitude may overflow too: a non-finite one is singular
    with np.errstate(over="ignore", invalid="ignore"):
        tp_delta = m0[0, 0] * incident + m0[0, 1] * b0 - incident
        tp_smooth = k0[0, 0] * incident + b0 * k0[0, 1] + mult_grid[0, 1] * phi
        if factored:
            tp_smooth = tp_smooth + kernel.left[0] @ (kernel.right[:, 1, :-1] @ phi)
        elif kernel is not None:
            tp_smooth = tp_smooth + kernel[0, 1, :, :-1] @ phi
    if not (np.isfinite(tp_delta) and np.all(np.isfinite(tp_smooth))):
        flag_kind = "singular"
    if flag_kind == "singular":
        tp_delta = complex(np.nan)
    grid = op.grid
    t_minus = SpectralAmplitude(grid=grid, delta_coeff=complex(b0), smooth=phi)
    t_plus = SpectralAmplitude(grid=grid, delta_coeff=complex(tp_delta), smooth=tp_smooth)
    return t_plus, t_minus, SingularityFlag(flag_kind, condition)


COS_EXCLUSION = 1e-12


def _checked_grid(t_plus: SpectralAmplitude, t_minus: SpectralAmplitude, k: float, kind):
    """The one grid of both amplitudes, a kind of wavenumber k; ValueError otherwise."""
    grid = t_plus.grid
    if not isinstance(grid, kind):
        raise ValueError(f"amplitudes live on a {type(grid).__name__}, not a {kind.__name__}")
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
    folded in (they modify the coherent beam, not the diffuse wave).  A
    non-finite angle or smooth sample raises ValueError.
    """
    grid = _checked_grid(t_plus, t_minus, k, MomentumGrid)
    thetas = np.atleast_1d(np.asarray(finite("theta", thetas), dtype=float))
    thetas = thetas % (2 * np.pi)
    cos_t = np.cos(thetas)
    if np.any(np.abs(cos_t) < COS_EXCLUSION):
        raise ValueError("f(theta) is undefined at cos(theta) = 0")

    u_plus = grid.omegas * finite("t_plus smooth", t_plus.smooth)
    u_minus = grid.omegas * finite("t_minus smooth", t_minus.smooth)
    p_eval = k * np.sin(thetas)
    f = np.empty(thetas.size, dtype=complex)
    fwd = cos_t > 0
    if np.any(fwd):
        f[fwd] = barycentric_interpolate(grid.nodes, grid.bary, u_plus, p_eval[fwd])
    if np.any(~fwd):
        f[~fwd] = barycentric_interpolate(grid.nodes, grid.bary, u_minus, p_eval[~fwd])
    f *= -1j / np.sqrt(2 * np.pi)
    return [(float(t), complex(v)) for t, v in zip(thetas, f)]


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
    ring, then trigonometric in azimuth.  ValueError if the amplitudes do
    not live on one DiscGrid, k is not the grid's wavenumber, or an angle
    or a smooth sample of the amplitude read is not finite.
    """
    grid = _checked_grid(t_plus, t_minus, k, DiscGrid)
    theta, phi = finite("theta", theta), finite("phi", phi)
    cos_t = float(np.cos(theta))
    if abs(cos_t) < COS_EXCLUSION:
        raise ValueError("f(theta, phi) is undefined at cos(theta) = 0")
    name, amp = ("t_plus", t_plus) if cos_t > 0 else ("t_minus", t_minus)
    samples = finite(f"{name} smooth", amp.smooth)
    u = (grid.omegas * samples).reshape(grid.n_radial, grid.n_azimuthal)
    ring = barycentric_interpolate(grid.omega_radial, grid.bary, u, k * abs(cos_t))[0]
    return complex(-1j / (2 * np.pi) * _trig_interpolate(ring, float(phi)))


@dataclass(frozen=True)
class ScatteringResult:
    """Outgoing amplitudes plus sampled f(theta) and the extraction diagnostic."""

    t_plus: SpectralAmplitude
    t_minus: SpectralAmplitude
    f_samples: list[tuple[float, complex]]
    singularity_flag: SingularityFlag

    def metadata(self) -> dict:
        """JSON-style record: wavenumber, grid size, beam coefficients, flag
        kind and condition number (None when the flag carries none)."""
        grid = self.t_plus.grid
        return {
            "k": grid.k,
            "n": grid.size,
            "t_plus_delta": {"re": self.t_plus.delta_coeff.real,
                             "im": self.t_plus.delta_coeff.imag},
            "t_minus_delta": {"re": self.t_minus.delta_coeff.real,
                              "im": self.t_minus.delta_coeff.imag},
            "singularity_flag": self.singularity_flag.kind,
            "condition": self.singularity_flag.condition,
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
