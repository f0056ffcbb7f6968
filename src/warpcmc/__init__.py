"""Curvature conditions, geometric identities, and constant-mean-curvature
experiments in rotationally symmetric warped product ambients.

The package exports the ``__all__`` of each of its modules.
"""

__version__ = "0.1.0"

from . import cmc, errors, flow, identities, models, spectral, surface, warping
from .errors import *
from .warping import *
from .models import *
from .spectral import *
from .surface import *
from .identities import *
from .flow import *
from .cmc import *

__all__ = ["__version__"] + [
    name
    for module in (errors, warping, models, spectral, surface, identities, flow, cmc)
    for name in module.__all__
]
