"""Quickest change-point detection: modified Shiryaev-Roberts procedure with
randomized head start, Monte Carlo delay estimation, and small-p Bayes-limit
diagnostics."""

from .errors import (
    ConfigurationError,
    QDetectError,
    UndefinedConditionalError,
)
from .headstart import (
    HeadStartLaw,
    LawKind,
    functionals_oracle,
    mu0_exact,
    mu0_quadrature,
    oracle_comparison,
    p0_erratum,
    p0_exact,
    p0_quadrature,
    size_biased_mean,
    sr_exact,
    yakir_density,
    yakir_mean,
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
    limit_difference_identity,
    mei_e1,
    yakir_e1,
)
from .bayes import (
    BayesConfig,
    BayesRiskEstimate,
    ConditionalHeadStartReport,
    LimitDiagnostic,
    LimitVerdict,
    compare_limit,
    conditional_headstart_diagnostic,
    couple_pi0,
    coupling_round_trip,
    estimate_bayes_risk,
    implied_headstart,
    limit_diagnostic,
    limit_predictions,
    risk_identity_exact,
)

__version__ = "0.1.0"
