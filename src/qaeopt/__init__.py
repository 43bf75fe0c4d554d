"""Lossy compression of bipartite quantum states via tableau-search encoders.

The reduced state of one subsystem after a unitary encoding carries all but
the mutual information between the two halves of the encoded state; this
package searches regular Young tableaux for the permutation part of an
encoder minimizing that loss, exactly for small grids and with a two-phase
randomized search beyond.
"""

__version__ = "0.1.0"

from .exceptions import StateFileError, ValidationError
from .qstate import (
    BipartiteDims,
    DensityMatrix,
    apply_unitary,
    mutual_information,
    nats_to_bits,
    partial_trace,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .tableau import YoungTableau, count_regular, random_regular
from .search import (
    DEFAULT_EXHAUSTIVE_THRESHOLD,
    OptimizationResult,
    SearchConfig,
    optimize,
)
from .pipeline import (
    CompressionReport,
    build_encoder,
    compress_reconstruct,
    generate_instance,
    haar_unitary,
    verify_theorem1,
)
from .statefile import StateFile, load_statefile, save_statefile

__all__ = [
    "__version__",
    "BipartiteDims",
    "CompressionReport",
    "DEFAULT_EXHAUSTIVE_THRESHOLD",
    "DensityMatrix",
    "OptimizationResult",
    "SearchConfig",
    "StateFile",
    "StateFileError",
    "ValidationError",
    "YoungTableau",
    "apply_unitary",
    "build_encoder",
    "compress_reconstruct",
    "count_regular",
    "generate_instance",
    "haar_unitary",
    "load_statefile",
    "mutual_information",
    "nats_to_bits",
    "optimize",
    "partial_trace",
    "random_regular",
    "relative_entropy",
    "save_statefile",
    "shannon_entropy",
    "verify_theorem1",
    "von_neumann_entropy",
]
