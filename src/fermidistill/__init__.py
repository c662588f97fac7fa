"""Entanglement distillation from bipartite fermionic quasifree states.

Core objects: covariance matrices (states), real projections and
partial isometries (protocols), and the Pfaffian formulas connecting
them.  `fock` holds an exact dense oracle for small systems, `lattice`
the scalable pipeline for the hopping chain.
"""

from .linalg import pfaffian, svd
from .protocol import (
    DistillationReport,
    ProtocolChoice,
    hashing_rate,
    optimal_choice,
    optimal_pf_bound,
    run_protocol,
    sample_suboptimal,
    scan_m,
)
from .states import (
    BipartiteSplit,
    BlockDecomposition,
    CovarianceMatrix,
    RealProjectionPair,
    ValidationError,
    blocks,
    fock_fidelity,
    load_covariance,
    maximally_entangled_projection,
    parity_expectation,
    parity_probability,
    partner_projection,
    protocol_quantities,
    restrict,
    save_covariance,
    validate,
)

__all__ = [
    "BipartiteSplit",
    "BlockDecomposition",
    "CovarianceMatrix",
    "DistillationReport",
    "ProtocolChoice",
    "RealProjectionPair",
    "ValidationError",
    "blocks",
    "fock_fidelity",
    "hashing_rate",
    "load_covariance",
    "maximally_entangled_projection",
    "optimal_choice",
    "optimal_pf_bound",
    "parity_expectation",
    "parity_probability",
    "partner_projection",
    "pfaffian",
    "protocol_quantities",
    "restrict",
    "run_protocol",
    "sample_suboptimal",
    "save_covariance",
    "scan_m",
    "svd",
    "validate",
]

__version__ = "0.1.0"
