"""hermhecke: exact Hecke operators on Hermitian lattices over Z[omega],
eigensystem decomposition, congruence detection, Arthur-parameter eigenvalue
reconstruction, and degree-1 Hermitian theta series."""

__version__ = "0.1.0"

from .eisenstein import (EisensteinInt, EisIdeal, classify_prime, eis,
                         ideal_above)
from .lattice import HermitianLattice
from .quadfield import QuadExtElem
