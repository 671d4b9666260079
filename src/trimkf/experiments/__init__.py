"""Configuration-driven experiment runner and its command-line front end.

The package exports the ``__all__`` of ``config`` and ``scenarios``.
"""

from .config import *
from .scenarios import *

__all__ = config.__all__ + scenarios.__all__
