"""Transfer-operator scattering in two and three dimensions.

Numeric transfer operators for arbitrary smooth 2D potentials by
momentum-space evolution, exact closed forms for point potentials and for a
slab with a surface line defect, angular scattering amplitudes, and
spectral-singularity (laser / coherent-perfect-absorber threshold) analysis.

The environment variable TMSCAT_THREADS caps BLAS parallelism.  It is
applied here, before any submodule imports numpy, because BLAS reads its
thread variables once, when it is loaded.
"""

import os as _os


def _apply_thread_cap() -> None:
    """Set the BLAS thread variables from TMSCAT_THREADS; ValueError if malformed."""
    cap = _os.environ.get("TMSCAT_THREADS")
    if not cap:
        return
    try:
        n = max(1, int(cap))
    except ValueError:
        raise ValueError(f"TMSCAT_THREADS must be an integer, got {cap!r}") from None
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ[var] = str(n)


try:
    _apply_thread_cap()
except ValueError:
    pass    # the CLI calls it again and exits 2 with the diagnostic

from .errors import (AccuracyWarning, ConsistencyError, DivergenceError,
                     NearResonanceError, NoRootError, ResourceLimitError,
                     SpectralSingularityError, TmscatError,
                     UnsupportedEvaluationError)
from .grid import (MomentumGrid, SpectralAmplitude, barycentric_interpolate,
                   build_grid, chebyshev_barycentric_weights, quadrature)
from .potentials import (Delta2D, Delta3D, GaussianBump, Slab, SlabWithDefect,
                         SumPotential, fourier_y, is_x_singular,
                         is_y_independent, potential_from_document,
                         potential_from_json, potential_to_document,
                         potential_to_json, uniform_part, x_support)
from .operators import (LowRank, ScatteringResult, SingularityFlag, TransferOperator,
                        amplitude, compose, identity_operator, scattering_result,
                        solve_outgoing)
from .evolution import (EvolutionConfig, HamiltonianBlock, auto_config,
                        effective_hamiltonian, evolve_transfer, potential_kernel)
from .closedforms import (DefectAmplitudes, DefectParams, SingularitySearch,
                          SlabParams, born2d_amplitude, delta2d_amplitude,
                          delta2d_operator, slab_defect_amplitudes, slab_entries,
                          slab_operator, slab_xyz, slab_y, spectral_singularity,
                          threshold_gain, threshold_gain_curve, wire_modes)
from .threed import (DiscGrid, amplitude3d, build_disc_grid, compose_3d,
                     delta3d_amplitude, delta3d_operator, disc_quadrature,
                     evolve_transfer_3d, scattering_length, solve_outgoing_3d)
from .oracle import (ConvergenceReport, Transfer1D, born1_transfer,
                     convergence_report, transfer_1d)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
