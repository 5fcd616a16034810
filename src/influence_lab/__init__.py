"""Debiased estimation with influence functions.

The package is organized around three ideas: an estimand catalog where each
target functional carries its influence function analytically, a numerical
derivative oracle that verifies every influence function against mixture
paths on explicit finite-support laws, and cross-fitted one-step,
estimating-equation, and targeted estimators built from the same influence
functions.
"""
from .distributions import (
    Column,
    Dataset,
    DiscreteDistribution,
    MixturePath,
    Observation,
    Schema,
    empirical,
    load_csv,
    mixture_at,
    point_mass,
)
from .errors import (
    ConfigError,
    CsvParseError,
    DerivativeUnstableError,
    ExtrapolationError,
    InfluenceLabError,
    IntegrationError,
    NotPathwiseDifferentiableError,
    NuisanceError,
    NumericalError,
    PositivityError,
    RunFailedError,
    SchemaError,
    SeparationError,
    SingularityError,
    SolverError,
    ValidationError,
    VerificationError,
)
from .estimands import (
    CATALOG,
    Ate,
    AverageDensity,
    AverageDerivativeEffect,
    ColumnSet,
    ConditionalCdf,
    ConditionalMeanAt,
    Covariance,
    DensityAtPoint,
    Estimand,
    ExpectedConditionalCovariance,
    IncrementalPropensity,
    InterventionalDirectEffect,
    NuisanceSet,
    PartiallyLinearCoefficient,
    PopulationMean,
    PotentialOutcomeMean,
    Quantile,
    TailConditionalExpectation,
    exact_nuisances,
    from_config,
)
from .learners import (
    DensityFit,
    FeatureMap,
    KernelRegressionFit,
    LinearFit,
    LogisticFit,
    StackedFits,
    fit_kde,
    fit_kernel_regression,
    fit_logistic,
    fit_ols,
    silverman_bandwidth,
)
from ._smooth import GaussianRegressionFamily, NormalMixture
from .gateaux import (
    DEFAULT_TOLERANCE,
    SMOOTH_TOLERANCE,
    GateauxReport,
    RemainderReport,
    SweepResult,
    check_t1_identity,
    eif_mean_under,
    numerical_gateaux,
    oracle_sweep,
    remainder_decay_check,
    richardson_derivative,
    smooth_path_check,
    smooth_sweep,
    verify_eif,
    von_mises_remainder,
)
from .estimation import (
    DEFAULT_ALPHA,
    DEFAULT_FOLDS,
    DEFAULT_TRIM,
    ESTIMATORS,
    CrossFittedNuisances,
    EstimateReport,
    FoldPlan,
    LearnerSettings,
    estimate,
    estimating_equation,
    fit_cross_fitted_nuisances,
    make_folds,
    one_step,
    plugin,
    tmle,
    wald_interval,
)
from .simulation import (
    DGPS,
    AteLinearDgp,
    AteNonlinearDgp,
    DensityMixtureDgp,
    MediationDgp,
    MetricsReport,
    NormalMeanDgp,
    PartiallyLinearDgp,
    cross_fitting_contrast,
    dgp_by_name,
    double_robustness_experiment,
    hash64,
    median_efficiency_experiment,
    run_replications,
    sqrt_n_rate_experiment,
)
from .config import RunConfig, parse_config, parse_config_file

__version__ = "0.1.0"
