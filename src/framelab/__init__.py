"""Frames over finite atomic measure spaces.

Tools for building weighted frames, certifying phase and norm retrieval
exactly, by lifted-map, identity and d-subset tests and then a walk over
the index splits, constructing retrieval-breaking perturbations of
arbitrarily small energy, and forming tensor products.

Each module lists its public names in its own ``__all__``; the package
re-exports them, with the shared tolerances, ``inner`` and the errors.
"""

from __future__ import annotations

from . import fileio, frames, measure, perturb, retrieval, tensor
from ._linalg import DEFAULT_ENUM_CAP, DEFAULT_MATCH_TOL, DEFAULT_ORTHO_TOL, DEFAULT_RANK_TOL, inner
from .errors import EnumerationCapExceeded, FramelabError
from .fileio import *  # noqa: F403
from .frames import *  # noqa: F403
from .measure import *  # noqa: F403
from .perturb import *  # noqa: F403
from .retrieval import *  # noqa: F403
from .tensor import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *measure.__all__,
    *frames.__all__,
    *retrieval.__all__,
    *perturb.__all__,
    *tensor.__all__,
    "inner",
    "DEFAULT_RANK_TOL",
    "DEFAULT_ORTHO_TOL",
    "DEFAULT_MATCH_TOL",
    "DEFAULT_ENUM_CAP",
    "FramelabError",
    "EnumerationCapExceeded",
    *fileio.__all__,
    "__version__",
]
