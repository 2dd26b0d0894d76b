"""Net magnetisation moment recovery from planar disk field maps.

Synthesize the normal field of a dipole ensemble on a measurement disk,
estimate the net moment components with polynomial weights of increasing
asymptotic order, predict the leading error terms, recover far-field
expansion coefficients from data, and study robustness under additive
measurement noise.
"""

__version__ = "0.1.0"

from . import estimate, field, noise, quad, scene, specfun
from .scene import *
from .field import *
from .quad import *
from .noise import *
from .estimate import *

# each layer declares its public names once, in its own __all__
__all__ = [*scene.__all__, *field.__all__, *quad.__all__, *noise.__all__,
           *estimate.__all__, "specfun"]
