"""Exact and Monte Carlo joint moments of principal minors of Wishart matrices.

The closed form: for X ~ Wishart(alpha, sigma) with alpha > p - 1 and a
contiguous block partition p_1 + ... + p_d = p,

    E[ prod_i det(X[1:P_i, 1:P_i])^nu_i ]
        = prod_i det(2 sigma[1:P_i, 1:P_i])^nu_i
          * Gamma_{p_i}(alpha/2 - P_{i-1}/2 + V_i) / Gamma_{p_i}(alpha/2 - P_{i-1}/2),

with P_i the partition prefix sums and V_i = nu_i + ... + nu_d.  The
package evaluates this in log space, checks it against independent
samplers, handles the block-diagonal disjoint-minor case exactly, and
searches for violations of the product inequality
E[prod det(X_ii)^nu_i] >= prod E[det(X_ii)^nu_i].
"""

__version__ = "0.1.0"

import scipy  # noqa: F401 - bench/child.py reads scipy.__version__

# Each module's __all__ is the one declaration of its public names.
from . import errors, gpi, linalg, moments, montecarlo, specfun, wishart
from .errors import *  # noqa: F403
from .linalg import *  # noqa: F403
from .specfun import *  # noqa: F403
from .wishart import *  # noqa: F403
from .moments import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .gpi import *  # noqa: F403

__all__ = [
    "__version__",
    *errors.__all__,
    *linalg.__all__,
    *specfun.__all__,
    *wishart.__all__,
    *moments.__all__,
    *montecarlo.__all__,
    *gpi.__all__,
]
