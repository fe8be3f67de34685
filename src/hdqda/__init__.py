"""High-dimensional quadratic discriminant analysis under class imbalance.

The package fits a two-shrinkage quadratic rule whose majority-class shrinkage
and additive bias are designed from random-matrix limits, predicts its error
rates without a holdout set, and ships the synthetic scenarios plus CSV
protocol used to benchmark it.
"""

from . import discriminant, errors, estimation, gestim, ingestion, model, pipeline, rmt
from .discriminant import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimation import *  # noqa: F403
from .gestim import *  # noqa: F403
from .ingestion import *  # noqa: F403
from .model import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .rmt import *  # noqa: F403

# Each module's __all__ is the one list of what it exports.
__all__ = [
    name
    for module in (discriminant, errors, estimation, gestim, ingestion, model, pipeline, rmt)
    for name in module.__all__
]
