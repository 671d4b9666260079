"""Sequential data assimilation with plain, trimmed, and particle updates.

The library is organized around a column-wise :class:`~trimkf.Ensemble`
(states), propagated by the integrators, corrected by one of three update
rules (EnKF, trimmed EnKF, bootstrap particle filter), and validated
against quadrature oracles for one-dimensional problems.
"""

from .ensemble import (
    Ensemble,
    EnsembleError,
    GainError,
    JointEnsemble,
    cross_covariance,
    effective_size,
    kalman_gain,
    normalize_weights,
    resample_indices,
)
from .filters import (
    AssimilationError,
    AssimilationProblem,
    AssimilationRun,
    AugmentConfig,
    FilterError,
    FilterMethod,
    FilterState,
    TrimConfig,
    TruthRun,
    adapt_lambda,
    assimilate,
    augment_forecast,
    enkf_update,
    forecast,
    pf_update,
    run_assimilation,
    simulate_truth,
    tenkf_update,
    trim_distance,
    trim_weights,
)
from .integrators import IntegratorConfig, IntegrationError, integrate
from .metrics import (
    ensemble_mean_rmse,
    ensemble_rmse,
    ks_distance,
    replicate_quantiles,
    time_avg_rmse,
)
from .models import (
    DynModel,
    Lorenz63Params,
    Lorenz96Params,
    MeasModel,
    ModelError,
    l63_drift,
    l96_drift,
    linear_gaussian_model,
    log_likelihood,
    lorenz63_model,
    lorenz96_model,
    observe,
    select_observer,
)
from .oracle import (
    BimodalToy,
    DensityGrid,
    JointGrid,
    OracleError,
    bayes_posterior,
    bimodal_toy,
    kalman_filter_sequence,
    limit_pdfs,
)

__version__ = "0.1.0"
