"""Asymmetric causality testing for integrated time series.

Decomposes each variable into positive and negative partial cumulative sums,
estimates the resulting block SURE system by iterated feasible GLS or by
CCC-GARCH(1,1)-t maximum likelihood, and runs Wald tests of the ten-hypothesis
causality/asymmetry catalog.

The package exports the names of README's Library example; everything else
is imported from its module (``asymcause.errors``, ``asymcause.mgarch``, ...).
"""

__version__ = "0.1.0"

from .decomposition import Series, decompose
from .sure import build_design, fgls_fit
from .wald import catalog, run_catalog

__all__ = [
    "__version__",
    "Series",
    "decompose",
    "build_design",
    "fgls_fit",
    "catalog",
    "run_catalog",
]
