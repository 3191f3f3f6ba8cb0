"""A thin wire in 2D: exact scattering amplitude, Born limit, laser threshold.

The point potential z * delta(x) delta(y) models a thin wire along z.  Its
transfer operator is identity plus a rank-one channel average, and the
scattering amplitude comes out in closed form, with no renormalization:

    f(theta) = -sqrt(2/pi) z / (4 + i z)
"""

import numpy as np

import tmscat as tm

strength = 1.0 - 0.5j
k = 2.0

# closed form vs the full operator pipeline
grid = tm.build_grid(k, 32)
op = tm.point_operator(strength, grid)
t_plus, t_minus, flag = tm.solve_outgoing(op)
thetas = np.linspace(0.1, 2 * np.pi - 0.1, 24)
thetas = thetas[np.abs(np.cos(thetas)) > 0.05]
f_pipeline = [f for _, f in tm.amplitude(t_plus, t_minus, k, thetas)]
f_exact = tm.delta2d_amplitude(strength)

print(f"coupling z = {strength}, k = {k}")
print(f"closed-form f = {f_exact:.12f} (independent of angle)")
print(f"pipeline spread over {len(thetas)} angles: "
      f"{max(abs(f - f_exact) for f in f_pipeline):.2e}")

# weak coupling: the amplitude is linear in z with a second-order remainder
print("\nweak-coupling check:")
for z in (1e-1, 1e-2, 1e-3):
    exact = tm.delta2d_amplitude(z)
    born = tm.born2d_amplitude(z)
    print(f"  z = {z:7.0e}: |f - f_born| / |z|^2 = {abs(exact - born) / z**2:.6f}")

# a gain wire starts lasing at k = 2/sqrt(-zeta): the coupling hits 4i and
# the amplitude diverges (zero-width resonance / spectral singularity)
zeta = -1.0
k_lase = tm.wire_modes(zeta, "lasing")
coupling = tm.wire_strength(zeta, k_lase)
print(f"\nwire with permittivity 1 + i({zeta}) delta2: lasing at k = {k_lase}")
print(f"coupling at threshold: {coupling} (singular denominator 4 + iz = "
      f"{4 + 1j * coupling})")
try:
    tm.delta2d_amplitude(coupling)
except tm.SpectralSingularityError as exc:
    print(f"amplitude raises as expected: {exc}")

# the lossy counterpart absorbs perfectly at k = 2/sqrt(zeta)
print(f"CPA wavenumber for zeta = 4: k = {tm.wire_modes(4.0, 'CPA')}")
