"""Octonion / split-Clifford computational algebra with a verification CLI."""

from . import octonion, matrices, clifford, minkowski, resolve, lorentz, string_modes, quantum_rep
from .octonion import *  # noqa: F401,F403
from .matrices import *  # noqa: F401,F403
from .clifford import *  # noqa: F401,F403
from .minkowski import *  # noqa: F401,F403
from .resolve import *  # noqa: F401,F403
from .lorentz import *  # noqa: F401,F403
from .string_modes import *  # noqa: F401,F403
from .quantum_rep import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names; the package
# re-exports them all, in the order of the imports above.
__all__ = [
    name
    for module in (octonion, matrices, clifford, minkowski, resolve, lorentz, string_modes, quantum_rep)
    for name in module.__all__
] + ["__version__"]
