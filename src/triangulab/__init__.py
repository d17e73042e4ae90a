"""triangulab: numerical laboratory for triangular operator spectra.

Dense desk-scale discretizations of multiplication plus Volterra operators,
fractional and log-singular convolution semigroups, and difference-kernel
integro-differential operators, together with the spectral, resolvent-growth,
and symbol-limit diagnostics that probe their structure.
"""

from .exceptions import (
    ConstructionError,
    FrequencyRangeError,
    InsufficientDataError,
    NearSingularError,
    NumericalError,
    QuadratureError,
    TriangulabError,
)
from .grid import (
    Grid,
    check_frequency,
    make_grid,
    max_frequency,
)
from .specfun import (
    EbetaSpec,
    e_beta,
    e_beta_cumulative,
    m_moment,
)

__all__ = [
    "ConstructionError",
    "EbetaSpec",
    "FrequencyRangeError",
    "Grid",
    "InsufficientDataError",
    "NearSingularError",
    "NumericalError",
    "QuadratureError",
    "TriangulabError",
    "check_frequency",
    "e_beta",
    "e_beta_cumulative",
    "m_moment",
    "make_grid",
    "max_frequency",
]
