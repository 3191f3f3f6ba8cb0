"""Hunting spectral singularities: the laser threshold condition as a root.

A slab lases when the reflected-channel entry of its transfer matrix
vanishes, equivalently when Z(w) = e^{-2inLw} - ((n-1)/(n+1))^2 has a root.
The secant solver polishes a guess to |Z| < 1e-10; the closed-form threshold
gain supplies an excellent seed.
"""

import numpy as np

import tmscat as tm

# seed from the threshold-gain formula at normal emission
eta, length, mode_index = 1.5, 10.0, 10
gain = float(tm.threshold_gain_curve(eta, length, [0.0])[0])
k_seed = np.pi * mode_index / (eta * length)
kappa = -gain / (2 * k_seed)
print(f"eta = {eta}, L = {length}: threshold gain g = {gain:.6f}")
print(f"phase-matched seed k = {k_seed:.6f}, kappa = {kappa:.6f}")

sp = tm.SlabParams(epsilon=(eta + 1j * kappa) ** 2, thickness=length, k=k_seed)
res = tm.spectral_singularity(sp, "k", guess=complex(k_seed))
print(f"converged root k* = {res.root:.10f} in {res.iterations} iterations")
print(f"|Z(k*)| = {res.z_abs:.2e}, |m22(k*)| = {res.m22_abs:.2e}")
print(f"seed quality: |k* - seed| / seed = {abs(res.root - k_seed) / k_seed:.2e}")

# root positions move smoothly with the permittivity
sp2 = tm.SlabParams(epsilon=sp.epsilon * (1 + 1e-6), thickness=length, k=k_seed)
res2 = tm.spectral_singularity(sp2, "k", guess=res.root)
print(f"sensitivity to a 1e-6 permittivity change: "
      f"{abs(res2.root - res.root) / abs(res.root):.2e}")

# a passive slab has no singularity: Z = e^{-2iLw} never vanishes
try:
    tm.spectral_singularity(tm.SlabParams(1.0, 1.0, 2.0), "omega", guess=1.0 + 0j)
except tm.NoRootError as exc:
    print(f"\npassive slab: {exc}")

# with the defect, a root of Z at a channel frequency inside (0, k) makes the
# self-consistency integral blow up; the guard in slab_y reports the pole
kappa_t, omega = -0.05, 1.0
for _ in range(100):
    n0 = eta + 1j * kappa_t
    r2 = ((n0 - 1) / (n0 + 1)) ** 2
    omega = (2 * np.pi * 5 - np.angle(r2)) / (2 * eta * length)
    kappa_t = np.log(abs(r2)) / (2 * length * omega)
k_big = 1.6 * omega
eps_tuned = 1 - (1 - n0 ** 2) * omega ** 2 / k_big ** 2
sp3 = tm.SlabParams(epsilon=eps_tuned, thickness=length, k=k_big)
try:
    tm.slab_y(sp3, 1.0)
except tm.NearResonanceError as exc:
    print(f"defect self-consistency guard: {exc} "
          f"(pole estimate {exc.pole_estimate:.6f})")
