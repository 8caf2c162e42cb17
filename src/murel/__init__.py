"""Finite-dimensional simulator for measurement error, disturbance, and
uncertainty relation checking in indirect quantum measurement models.

The package exports the public names of its core modules, as each module's
``__all__`` lists them.
"""

from __future__ import annotations

import os
import sys

# The matrices here are of size 64 or less, where extra BLAS threads cost
# more than they save.  Default to one thread unless the user chose a count
# or numpy, and so its BLAS, is already loaded.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    del _var

__version__ = "0.1.0"

from . import linalg, metrics, model, relations, scenario, search  # noqa: E402
from .linalg import *  # noqa: E402,F403
from .metrics import *  # noqa: E402,F403
from .model import *  # noqa: E402,F403
from .relations import *  # noqa: E402,F403
from .scenario import *  # noqa: E402,F403
from .search import *  # noqa: E402,F403

__all__ = [
    *linalg.__all__,
    *metrics.__all__,
    *model.__all__,
    *relations.__all__,
    *scenario.__all__,
    *search.__all__,
    "__version__",
]
