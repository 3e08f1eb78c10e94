"""qlift: classical bits lifted into quantum state spaces.

Encodings map bit values to orthonormal subspaces of an ambient space (qubit,
qutrit, two-dimensional ququart subspaces, matrix-unit and Pauli spans); gate
synthesis turns truth tables into unitaries under any of them; the analysis
side provides Schmidt decomposition, separability classification, principal
gate square roots, and a census of permutation-matrix gates by pruned search.
"""

from . import encodings, entanglement, linalg, simulator, synthesis
from .encodings import *  # noqa: F403
from .entanglement import *  # noqa: F403
from .linalg import *  # noqa: F403
from .simulator import *  # noqa: F403
from .synthesis import *  # noqa: F403

__all__ = [
    *encodings.__all__,
    *entanglement.__all__,
    *linalg.__all__,
    *simulator.__all__,
    *synthesis.__all__,
]

__version__ = "0.1.0"
