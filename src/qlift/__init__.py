"""qlift: classical bits lifted into quantum state spaces.

Encodings map bit values to orthonormal subspaces of an ambient space (qubit,
qutrit, two-dimensional ququart subspaces, matrix-unit and Pauli spans); gate
synthesis turns truth tables into unitaries under any of them; the analysis
side provides Schmidt decomposition, separability classification, principal
gate square roots, and a brute-force census of permutation-matrix gates.
"""

from .encodings import (
    BUILTIN_ENCODINGS,
    Encoding,
    QuantumState,
    StateClassification,
    StateKind,
    builtin_encoding,
    classify_state,
    encode_bits,
    logical_subspace,
)
from .entanglement import (
    SchmidtResult,
    Separability,
    classify_bipartite,
    coefficient_matrix,
    schmidt,
)
from .linalg import (
    ConvergenceError,
    equal_up_to_phase,
    is_unitary,
    kron,
    matrix_to_tensor,
    principal_unitary_sqrt,
    res,
    svd,
    tensor_apply,
    tensor_to_matrix,
    unres,
)
from .simulator import (
    Circuit,
    CircuitStep,
    apply_gate,
    basis_probabilities,
    run_circuit,
)
from .synthesis import (
    ClassicalFunction,
    QuantizationReport,
    SynthesizedGate,
    cnot,
    controlled,
    enumerate_permutation_quantizations,
    hadamard,
    is_quantization_of,
    named_gate,
    phase_gate,
    quantization_report,
    quantize_irreversible,
    quantize_reversible,
    reversible_closure,
    sqrt_gate,
    swap,
)

__all__ = [
    "BUILTIN_ENCODINGS",
    "Circuit",
    "CircuitStep",
    "ClassicalFunction",
    "ConvergenceError",
    "Encoding",
    "QuantizationReport",
    "QuantumState",
    "SchmidtResult",
    "Separability",
    "StateClassification",
    "StateKind",
    "SynthesizedGate",
    "apply_gate",
    "basis_probabilities",
    "builtin_encoding",
    "classify_bipartite",
    "classify_state",
    "cnot",
    "coefficient_matrix",
    "controlled",
    "encode_bits",
    "enumerate_permutation_quantizations",
    "equal_up_to_phase",
    "hadamard",
    "is_quantization_of",
    "is_unitary",
    "kron",
    "logical_subspace",
    "matrix_to_tensor",
    "named_gate",
    "phase_gate",
    "principal_unitary_sqrt",
    "quantization_report",
    "quantize_irreversible",
    "quantize_reversible",
    "res",
    "reversible_closure",
    "run_circuit",
    "schmidt",
    "sqrt_gate",
    "svd",
    "swap",
    "tensor_apply",
    "tensor_to_matrix",
    "unres",
]

__version__ = "0.1.0"
