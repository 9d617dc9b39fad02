"""Magic spectra, bounds, and optimization for Clifford + diagonal circuits.

The package computes the Pauli spectrum of states produced by alternating
Clifford layers and diagonal gates from the Clifford hierarchy, evaluates
magic monotones on it, and searches for angle settings that maximize them.
Every closed-form path has an independent dense-statevector witness in
:mod:`magicforge.oracle`.
"""

__version__ = "0.1.0"

from .errors import CapacityError, MagicforgeError, SearchError, ValidationError
from .pauli_core import (
    PauliLabel,
    commutes,
    pauli_from_text,
    pauli_mul,
    pauli_to_text,
    symplectic_form,
    to_index,
)
from .diagonal_gates import (
    PhasePolynomial,
    RotationVector,
    hierarchy_level,
    make_gate,
    random_polynomial,
)
from .stabilizer import (
    StabilizerTableau,
    apply_clifford,
    canonical_frame,
    canonicalize,
    is_graph_type,
    plus_tableau,
    product_tableau,
    random_stabilizer,
    tableau_expectation,
    zeros_tableau,
)
from .spectrum import (
    PauliSpectrum,
    f_alpha,
    flat_bound,
    nullity,
    shallow_spectrum,
    sre,
    stabilizer_max,
    support_size,
)
from .transfer import (
    CliffordOp,
    LayerBlock,
    apply_block,
    circuit_from_json,
    initial_spectrum,
    random_clifford,
)
from .optimizer import (
    LayerResult,
    OptimizerConfig,
    objective,
    objective_grad,
    optimize_layer,
    precondition_clifford,
    run_pipeline,
)
from .theorems import (
    NoGoWitness,
    NoOrderingWitness,
    ZeroMagicCertificate,
    conjugate_diagonal_by_frame,
    construct_zero_magic,
    no_ordering_witness,
    nogo_witness,
    support_ceiling,
    zero_magic_state_for_gate,
)
from .oracle import (
    DenseState,
    apply_diagonal,
    apply_gates,
    apply_rotation,
    expectation,
    oracle_spectrum,
    statevector,
)

__all__ = [
    "__version__",
    "MagicforgeError",
    "ValidationError",
    "CapacityError",
    "SearchError",
    "PauliLabel",
    "pauli_mul",
    "commutes",
    "symplectic_form",
    "to_index",
    "pauli_to_text",
    "pauli_from_text",
    "PhasePolynomial",
    "RotationVector",
    "hierarchy_level",
    "make_gate",
    "random_polynomial",
    "StabilizerTableau",
    "canonicalize",
    "canonical_frame",
    "apply_clifford",
    "zeros_tableau",
    "plus_tableau",
    "product_tableau",
    "is_graph_type",
    "tableau_expectation",
    "random_stabilizer",
    "PauliSpectrum",
    "shallow_spectrum",
    "f_alpha",
    "sre",
    "nullity",
    "support_size",
    "flat_bound",
    "stabilizer_max",
    "CliffordOp",
    "LayerBlock",
    "random_clifford",
    "initial_spectrum",
    "apply_block",
    "circuit_from_json",
    "OptimizerConfig",
    "LayerResult",
    "objective",
    "objective_grad",
    "precondition_clifford",
    "optimize_layer",
    "run_pipeline",
    "ZeroMagicCertificate",
    "NoGoWitness",
    "NoOrderingWitness",
    "construct_zero_magic",
    "zero_magic_state_for_gate",
    "conjugate_diagonal_by_frame",
    "nogo_witness",
    "no_ordering_witness",
    "support_ceiling",
    "DenseState",
    "statevector",
    "apply_diagonal",
    "apply_rotation",
    "apply_gates",
    "expectation",
    "oracle_spectrum",
]
