"""Asymmetric causality testing for integrated time series.

Decomposes each variable into positive and negative partial cumulative sums,
estimates the resulting block SURE system by iterated feasible GLS or by
CCC-GARCH(1,1)-t maximum likelihood, and runs Wald tests of the ten-hypothesis
causality/asymmetry catalog.
"""

__version__ = "0.1.0"

from .decomposition import (
    DeterministicSpec,
    Series,
    SignedComponents,
    decompose,
    fit_deterministic,
    recompose,
)
from .errors import (
    AsymCauseError,
    DataError,
    InsufficientDataError,
    LikelihoodError,
    NotPositiveDefiniteError,
    SingularityError,
)
from .mgarch import (
    ArchLmResult,
    GarchFit,
    GarchSpec,
    arch_lm_diag,
    fit_sure_garch_t,
    garch_t_loglik,
    simulate_ccc_garch_t,
)
from .montecarlo import DgpConfig, empirical_size, simulate_dgp
from .sure import (
    CoefficientEstimate,
    LayoutEntry,
    SureSystem,
    build_design,
    fgls_fit,
    gls_solve,
    lag_order_table,
    ols_fit,
)
from .wald import (
    HYPOTHESIS_IDS,
    HypothesisSpec,
    WaldResult,
    catalog,
    chisq_sf,
    restriction_for,
    run_catalog,
    wald_test,
)

__all__ = [
    "__version__",
    "AsymCauseError",
    "DataError",
    "InsufficientDataError",
    "LikelihoodError",
    "NotPositiveDefiniteError",
    "SingularityError",
    "DeterministicSpec",
    "Series",
    "SignedComponents",
    "decompose",
    "fit_deterministic",
    "recompose",
    "CoefficientEstimate",
    "LayoutEntry",
    "SureSystem",
    "build_design",
    "fgls_fit",
    "gls_solve",
    "lag_order_table",
    "ols_fit",
    "HYPOTHESIS_IDS",
    "HypothesisSpec",
    "WaldResult",
    "catalog",
    "chisq_sf",
    "restriction_for",
    "run_catalog",
    "wald_test",
    "ArchLmResult",
    "GarchFit",
    "GarchSpec",
    "arch_lm_diag",
    "fit_sure_garch_t",
    "garch_t_loglik",
    "simulate_ccc_garch_t",
    "DgpConfig",
    "empirical_size",
    "simulate_dgp",
]
