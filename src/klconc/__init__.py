"""Concentration of the KL loss of add-constant estimators.

Estimators and divergences for discrete distributions, seeded trial
streams and an exact binomial/Poisson coupling, closed-form
deviation and variance bounds, and a Monte Carlo harness that verifies the
distributional claims.
"""

from .bounds import *
from .distributions import *
from .harness import *

__version__ = "0.1.0"
