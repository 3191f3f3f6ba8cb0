"""A point defect in 3D: finite amplitude, scattering length, stacked layers.

The 3D point potential z * delta3(r) has the exact, isotropic amplitude
f = -z / (4 pi + i k z), again with no renormalization.  Its low-energy
limit defines the scattering length z / 4 pi, and the cross section falls
off as 1 / (k^2 + mu^2) with mu = 4 pi / |z|, the familiar signature of
point-defect resistivity.
"""

import numpy as np

import tmscat as tm

strength, k = 1.7, 1.3
disc = tm.build_disc_grid(k, 16, 8)
print(f"disc grid: {disc.n_radial} radial x {disc.n_azimuthal} azimuthal channels")
print(f"integral of 1/omega over the disc: "
      f"{tm.quadrature(disc, 1 / disc.omegas) * 4 * np.pi**2:.12f} "
      f"(exact: {2 * np.pi * k:.12f})")

op = tm.point_operator(strength, disc)
t_plus, t_minus, _ = tm.solve_outgoing(op)
f_exact = tm.delta3d_amplitude(strength, k)
print(f"\nclosed-form f = {f_exact:.10f}")
for theta, phi in [(0.3, 0.0), (1.2, 2.1), (2.6, 4.0)]:
    f = tm.amplitude3d(t_plus, t_minus, k, theta, phi)
    print(f"  pipeline f(theta={theta}, phi={phi}) error: {abs(f - f_exact):.2e}")

xi = tm.scattering_length(strength)
mu = 4 * np.pi / abs(strength)
print(f"\nscattering length xi = {xi:.8f}, mu = 4 pi / |z| = {mu:.6f}")
print("cross-section scale |f|^2 (k^2 + mu^2):")
for kk in (0.3, 1.0, 3.0):
    val = abs(tm.delta3d_amplitude(strength, kk)) ** 2 * (kk ** 2 + mu ** 2)
    print(f"  k = {kk}: {val:.12f}")

# layered media along z evolve per channel; stacked layers compose
pot = tm.Slab(epsilon=2 + 0.01j, thickness=1.0)
full = tm.evolve_transfer(pot, disc, tm.EvolutionConfig(0.0, 1.0, 600))
stacked = tm.compose(tm.evolve_transfer(pot, disc, tm.EvolutionConfig(0.5, 1.0, 300)),
                     tm.evolve_transfer(pot, disc, tm.EvolutionConfig(0.0, 0.5, 300)))
err = np.max(np.abs(stacked.mult_on_grid() - full.mult_on_grid()))
print(f"\nstacked-layer composition error: {err:.2e}")

sp = tm.SlabParams(epsilon=2 + 0.01j, thickness=1.0, k=k)
want = tm.slab_entries(sp, disc.omegas.astype(complex))
print(f"layer evolution vs channel closed form: "
      f"{np.max(np.abs(full.mult_on_grid() - want)):.2e}")
