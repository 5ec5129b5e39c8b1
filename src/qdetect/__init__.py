"""Quickest change-point detection: modified Shiryaev-Roberts procedure with
randomized head start, Monte Carlo delay estimation, and small-p Bayes-limit
diagnostics."""

from .errors import (
    ConfigurationError,
    DomainError,
    QDetectError,
    UndefinedConditionalError,
)
from .headstart import (
    HeadStartLaw,
    LawKind,
    functionals_oracle,
    mu0_exact,
    mu0_quadrature,
    p0_erratum,
    p0_exact,
    p0_quadrature,
    size_biased_mean,
    yakir_density,
    yakir_mean,
    yakir_mean_square,
)
from .montecarlo import (
    DelayProfile,
    McEstimate,
    delay_profile,
    estimate_arl_false,
    estimate_conditional_delay,
    estimate_cross_term,
    estimate_e1_and_cross,
    estimate_e1_delay,
    sr_replications,
)
from .formulas import (
    c_limit_eq3,
    c_limit_eq4,
    c_lower_bound_eq11,
    mei_e1,
    yakir_e1,
)
from .bayes import (
    BayesConfig,
    BayesRiskEstimate,
    ConditionalHeadStartReport,
    LimitDiagnostic,
    LimitPredictions,
    LimitVerdict,
    compare_limit,
    conditional_headstart_diagnostic,
    couple_pi0,
    estimate_bayes_risk,
    implied_headstart,
    limit_diagnostic,
    limit_predictions,
)

__version__ = "0.1.0"
