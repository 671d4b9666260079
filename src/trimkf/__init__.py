"""Sequential data assimilation with plain, trimmed, and particle updates.

The library is organized around a column-wise :class:`~trimkf.Ensemble`
(states), propagated by the integrators, corrected by one of three update
rules (EnKF, trimmed EnKF, bootstrap particle filter), and validated
against quadrature oracles for one-dimensional problems.  The package
exports each module's ``__all__``.
"""

from .ensemble import *
from .filters import *
from .integrators import *
from .metrics import *
from .models import *
from .oracle import *

__all__ = (
    ensemble.__all__
    + filters.__all__
    + integrators.__all__
    + metrics.__all__
    + models.__all__
    + oracle.__all__
)
__version__ = "0.1.0"
