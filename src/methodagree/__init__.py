"""Agreement analysis for measurement methods of unequal precision.

Classic difference-vs-mean plots assume both methods have the same
within-subject variance; when they don't, the plot shows a linear trend
that is an artifact of the precision mismatch. This package provides the
classic analysis, the generalization that plots differences against an
inverse-variance weighted average (which removes the artifact), the
closed-form covariance predictor behind it, a deterministic synthetic
data engine, and CSV/JSON/SVG tooling.
"""

from . import agreement, numerics, synthesis
from .agreement import *
from .numerics import *
from .synthesis import *

__version__ = "0.1.0"

__all__ = [*agreement.__all__, *numerics.__all__, *synthesis.__all__]
