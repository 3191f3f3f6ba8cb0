"""An active slab with a surface line defect: exact amplitudes and thresholds.

The slab's transfer operator is purely multiplicative (channels decouple);
the defect contributes the rank-one point operator.  Their composition is
exactly solvable, and the closed form exposes how the defect lets the slab
lase at arbitrarily small gain: the threshold gain drops to zero as the
emission direction approaches the slab plane.

Writes gain_curve.csv next to this script.
"""

import os

import numpy as np

import tmscat as tm

eps, length, k, strength = 2.0 + 0.01j, 1.0, 2.0, 1.0
sp = tm.SlabParams(epsilon=eps, thickness=length, k=k)
grid = tm.build_grid(k, 64)

# route 1: closed form
exact = tm.slab_defect_amplitudes(sp, strength, grid.nodes)

# route 2: compose the slab operator with the point operator and solve
pipeline = tm.compose(tm.slab_operator(sp, grid), tm.point_operator(strength, grid))
t_plus, t_minus, _ = tm.solve_outgoing(pipeline)

print(f"slab eps = {eps}, L = {length}, k = {k}, defect coupling = {strength}")
print(f"pipeline vs closed form, reflected:   "
      f"{np.max(np.abs(t_minus.smooth - exact.smooth_minus)):.2e}")
print(f"pipeline vs closed form, transmitted: "
      f"{np.max(np.abs(t_plus.smooth - exact.smooth_plus)):.2e}")
print(f"coherent-beam coefficients: reflection {exact.delta_minus:.6f}, "
      f"transmission change {exact.delta_plus:.6f}")

# the surface factors behind the closed form
x_k, z_k = tm.slab_xyz(sp, k)
y_k = tm.slab_y(sp, strength)
print(f"\nX(k) = {x_k:.6f}, Z(k) = {z_k:.6f}, Y(k) = {y_k:.6f}")

# composition sanity: two half slabs equal the full slab
half = tm.SlabParams(epsilon=eps, thickness=length / 2, k=k)
glued = tm.compose(tm.slab_operator(half, grid, x0=length / 2),
                   tm.slab_operator(half, grid))
err = np.max(np.abs(glued.mult_on_grid() - tm.slab_operator(sp, grid).mult_on_grid()))
print(f"half-slab composition error: {err:.2e}")

# threshold gain versus emission angle (the content of the closed form g(theta))
theta = np.arange(0.0, 180.5, 1.0)
for eta in (1.2, 1.5, 3.0):
    g = tm.threshold_gain_curve(eta, length, theta)
    print(f"eta = {eta}: g(0) L = {g[0] * length:.4f}, g(60) L = "
          f"{g[60] * length:.4f}, g(90) L = {g[90] * length}")

out = os.path.join(os.path.dirname(__file__), "gain_curve.csv")
g = tm.threshold_gain_curve(1.5, length, theta)
with open(out, "w", newline="") as fh:
    fh.write("theta_deg,g_times_L\n")
    for t, gv in zip(theta, g):
        fh.write(f"{t:.17g},{gv * length:.17g}\n")
print(f"\nwrote {out}")
