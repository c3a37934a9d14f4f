"""Numerical toolkit for non-Hermitian band degeneracies.

Verifies that every non-defective twofold degeneracy of a complex matrix is
protected by a pair of anti-unitary operators with nonunity square, and
reproduces the degeneracy, symmetry, phase-boundary and open-boundary
phenomenology of a 2D nonreciprocal tight-binding model.
"""

__version__ = "0.1.0"

from . import linalg, model, ribbon, scanner, serialize, symmetry, theorem
from .linalg import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .ribbon import *  # noqa: F401,F403
from .scanner import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403
from .symmetry import *  # noqa: F401,F403
from .theorem import *  # noqa: F401,F403

# the public names are each module's __all__, listed once there
__all__ = [name for module in (linalg, model, ribbon, scanner, serialize, symmetry, theorem)
           for name in module.__all__]
