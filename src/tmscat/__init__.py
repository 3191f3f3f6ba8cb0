"""Transfer-operator scattering in two and three dimensions.

Numeric transfer operators for arbitrary smooth 2D potentials by
momentum-space evolution, exact closed forms for point potentials and for a
slab with a surface line defect, angular scattering amplitudes, and
spectral-singularity (laser / coherent-perfect-absorber threshold) analysis.

Importing it leaves the process environment unchanged: BLAS threads follow
the standard variables (OMP_NUM_THREADS and the like) set before numpy loads.
"""

from types import ModuleType as _ModuleType

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
