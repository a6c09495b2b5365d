"""Planar random flights: simulation, exact analytics, rate estimation.

A mover travels at constant speed and redraws its heading uniformly at the
events of a Poisson process. This package simulates such flights, evaluates
the exact position/radial densities, moments and Fisher information, and
estimates the event rate from equidistant position observations.

The package exports the union of its modules' ``__all__``.
"""

from . import analytics, errors, estimators, montecarlo, seeding, simulate
from .analytics import *
from .errors import *
from .estimators import *
from .montecarlo import *
from .seeding import *
from .simulate import *

__version__ = "0.1.0"

__all__ = sorted({name for module in (analytics, errors, estimators, montecarlo, seeding, simulate)
                  for name in module.__all__})
