"""Local-field-corrected van der Waals potentials in magnetoelectric media.

Dispersion interactions of ground-state atoms embedded in an absorbing
host are screened by the host and by the microscopic cavity each atom
carves out around itself.  This package evaluates those local-field
corrected potentials in the real-cavity model: single-atom energies in
bulk and near finite bodies, two-atom potentials with their retarded and
non-retarded limits, N-atom ring contributions, forces, and the cavity
trapping stiffness.  All quantities are computed on the imaginary
frequency axis where every integrand is real and smooth.

Internally everything runs in reduced units (hbar = c = 1, frequencies
in units of a reference frequency, lengths in units of the reference
wavelength); the config layer converts from and to SI at the boundary.
"""

__version__ = "0.1.0"

from . import cavity, config, errors, green, oracle, potentials, quadrature, response
from .cavity import *
from .config import *
from .errors import *
from .green import *
from .oracle import *
from .potentials import *
from .quadrature import *
from .response import *

__all__ = ["__version__"]
__all__ += cavity.__all__
__all__ += config.__all__
__all__ += errors.__all__
__all__ += green.__all__
__all__ += oracle.__all__
__all__ += potentials.__all__
__all__ += quadrature.__all__
__all__ += response.__all__
