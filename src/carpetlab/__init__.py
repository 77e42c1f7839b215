"""Numerical laboratory for generalized Sierpinski-carpet graphs.

Builds the graphs on surviving unit cells, solves their Dirichlet problems,
iterates the lazy-walk heat kernel, couples mirrored walks through cube
isometries, and measures effective resistances — the pieces needed to probe
Harnack constants, spectral/walk dimensions, and capacity scaling on these
fractals, reproducibly.
"""

__version__ = "0.1.0"

from .geometry import (
    CapacityError,
    CarpetGraph,
    CarpetParams,
    VertexGraph,
    box_vertices,
    build_graph,
    count_cells,
    hausdorff_dimension,
    read_graph,
    validate_params,
    write_graph,
)

__all__ = [
    "__version__",
    "CapacityError",
    "CarpetGraph",
    "CarpetParams",
    "VertexGraph",
    "box_vertices",
    "build_graph",
    "count_cells",
    "hausdorff_dimension",
    "read_graph",
    "validate_params",
    "write_graph",
]
