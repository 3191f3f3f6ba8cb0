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
from types import ModuleType as _ModuleType


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
                     NearResonanceError, NoRootError, SpectralSingularityError, TmscatError,
                     UnsupportedEvaluationError)
from .grid import (DiscGrid, MomentumGrid, SpectralAmplitude, build_disc_grid, build_grid,
                   quadrature)
from .potentials import (Delta2D, Delta3D, GaussianBump, Slab, SlabWithDefect,
                         SumPotential, potential_from_document, potential_to_document)
from .operators import (LowRank, ScatteringResult, SingularityFlag, TransferOperator,
                        amplitude, amplitude3d, compose, scattering_result, solve_outgoing)
from .evolution import EvolutionConfig, auto_config, effective_hamiltonian, evolve_transfer
from .closedforms import (DefectAmplitudes, SingularitySearch, SlabParams,
                          born2d_amplitude, delta2d_amplitude,
                          delta3d_amplitude, point_operator, scattering_length,
                          slab_defect_amplitudes, slab_entries,
                          slab_operator, slab_xyz, slab_y, spectral_singularity,
                          threshold_gain_curve, wire_modes, wire_strength)
from .oracle import (ConvergenceReport, Transfer1D, born1_transfer,
                     convergence_report, transfer_1d)

__version__ = "0.1.0"

# what a run is built from, each under one name: potentials and their documents,
# grids, the operator pipeline, closed forms, the oracle, result types and errors;
# engine helpers and the submodules are reached as module attributes
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
