"""Bell and steering inequality analysis for two-copy beam-splitter
measurements of number-conserving bosonic states.

Each module's ``__all__`` is its public surface; the package exports their
union."""

from . import fock, inequalities, measurement, search, states
from .fock import *
from .states import *
from .measurement import *
from .inequalities import *
from .search import *

__version__ = "0.1.0"

__all__ = [name for module in (fock, states, measurement, inequalities, search)
           for name in module.__all__]
