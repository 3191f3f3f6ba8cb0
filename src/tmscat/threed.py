"""The 3D names the benchmark's scripts read, re-exported from the modules of
their layers, where each sits next to its 2D counterpart.  A DiscGrid carries
the same TransferOperator as a MomentumGrid, so compose_3d and
solve_outgoing_3d are compose and solve_outgoing."""

from .evolution import evolve_transfer_3d
from .grid import build_disc_grid
from .operators import amplitude3d, compose as compose_3d, solve_outgoing as solve_outgoing_3d
