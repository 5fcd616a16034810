"""Synthetic data-generating processes with known truth, and the replication
engine that measures bias, coverage, and efficiency of the estimators.

Every generator is deterministic given (n, seed).  Truths are analytic where
the functional has a closed form; otherwise they come from an explicit Monte
Carlo oracle whose error is reported alongside the value, never from the
package's own estimators.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from ._normal import normal_cdf, normal_pdf, normal_ppf
from ._smooth import NormalMixture
from .distributions import Column, Dataset, Schema, seeded_rng
from .errors import (
    ConfigError,
    InfluenceLabError,
    RunFailedError,
    ValidationError,
)
from .estimands import (
    Ate,
    AverageDensity,
    Estimand,
    InterventionalDirectEffect,
    PartiallyLinearCoefficient,
    PopulationMean,
    PotentialOutcomeMean,
    Quantile,
    TailConditionalExpectation,
)
from .estimation import (
    DEFAULT_ALPHA,
    DEFAULT_FOLDS,
    ESTIMATORS,
    LearnerSettings,
    fit_cross_fitted_nuisances,
    make_folds,
    one_step,
)

ORACLE_DRAWS = 10_000_000
MAX_EXCLUSION_FRACTION = 0.01


def hash64(*parts) -> int:
    """64-bit seed derived from mixed parts; replication r of master seed s
    uses hash64(s, r), so any single replication can be re-run in isolation."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _expit(eta):
    return 1.0 / (1.0 + np.exp(-np.asarray(eta, dtype=float)))


# ---------------------------------------------------------------------------
# data-generating processes
# ---------------------------------------------------------------------------


def _params(dgp) -> dict:
    """A process's dataclass fields by name, tuples as lists (JSON arrays)."""
    values = {f.name: getattr(dgp, f.name) for f in fields(dgp)}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def _outcome_only_schema():
    return Schema((Column("y", "outcome", "continuous"),))


@dataclass(frozen=True)
class NormalMeanDgp:
    """Y ~ N(mu, sigma^2)."""

    mu: float = 0.0
    sigma: float = 1.0
    name = "normal-mean"

    @property
    def schema(self) -> Schema:
        return _outcome_only_schema()

    params = _params

    def generate(self, n: int, seed: int) -> Dataset:
        rng = seeded_rng(seed)
        y = rng.normal(self.mu, self.sigma, n)
        return Dataset(self.schema, y[:, None])

    def truth(self, spec: Estimand):
        if isinstance(spec, PopulationMean):
            return self.mu, 0.0
        if isinstance(spec, Quantile):
            return self.mu + self.sigma * float(normal_ppf(spec.tau)), 0.0
        if isinstance(spec, AverageDensity):
            return 1.0 / (2.0 * self.sigma * math.sqrt(math.pi)), 0.0
        if isinstance(spec, TailConditionalExpectation):
            alpha = (spec.threshold - self.mu) / self.sigma
            mass = float(normal_cdf(alpha))
            return self.mu - self.sigma * float(normal_pdf(alpha)) / mass, 0.0
        raise ValidationError(f"no recorded truth for {spec.name!r} under {self.name}")


@dataclass(frozen=True)
class AteLinearDgp:
    """Uniform covariates, logistic-linear exposure, linear outcome.

    The treatment effect is the constant beta_x, so the truth is exact and
    degree-1 learners are correctly specified.
    """

    beta0: float = 0.5
    beta_x: float = 1.0
    beta: tuple = (0.7, -0.3)
    gamma: tuple = (0.8, -0.5)
    sigma: float = 1.0
    name = "ate-linear"

    @property
    def schema(self) -> Schema:
        covs = tuple(
            Column(f"z{j + 1}", "covariate", "continuous") for j in range(len(self.beta))
        )
        return Schema(
            covs + (Column("x", "exposure", "binary"), Column("y", "outcome", "continuous"))
        )

    params = _params

    def generate(self, n: int, seed: int) -> Dataset:
        rng = seeded_rng(seed)
        d = len(self.beta)
        Z = rng.uniform(0.0, 1.0, (n, d))
        pi = _expit(Z @ np.asarray(self.gamma))
        x = (rng.uniform(size=n) < pi).astype(float)
        y = (
            self.beta0
            + self.beta_x * x
            + Z @ np.asarray(self.beta)
            + rng.normal(0.0, self.sigma, n)
        )
        return Dataset(self.schema, np.column_stack([Z, x, y]))

    def truth(self, spec: Estimand):
        if isinstance(spec, Ate):
            return self.beta_x, 0.0
        if isinstance(spec, PotentialOutcomeMean):
            base = self.beta0 + 0.5 * float(np.sum(self.beta))
            return base + self.beta_x * spec.x, 0.0
        raise ValidationError(f"no recorded truth for {spec.name!r} under {self.name}")


@dataclass(frozen=True)
class AteNonlinearDgp:
    """One covariate with curvature and exposure interaction in the outcome,
    and a curved propensity.

    m(x, z) = b0 + bx*x + b1*z + b2*z^2 + b3*x*z + b4*x*z^2 over uniform z,
    logit propensity g0 + g1*z + g2*z^2.  Degree-2 polynomial learners are
    exactly specified; degree-1 fits are the documented misspecification.
    The truth has the closed form bx + b4 * w^2 / 3, but the recorded value
    comes from a Monte Carlo oracle with its error reported, so the stated
    truth never leans on an algebra step the oracle could contradict.

    Default coefficients put most nonlinearity in the exposure-interaction
    slope, which kernel smoothers blur near the support edges but degree-1
    arms represent exactly, and keep the curvature terms small so the
    second-order error of a single misspecified nuisance stays inside Monte
    Carlo noise at n around 2000.
    """

    beta0: float = 0.5
    beta_x: float = 1.0
    beta_z: float = 0.8
    beta_z2: float = 0.35
    beta_xz: float = 2.0
    beta_xz2: float = 0.35
    gamma: tuple = (0.2, 0.5, -0.3)
    z_half_width: float = 1.5
    sigma: float = 1.0
    name = "ate-nonlinear"

    @property
    def schema(self) -> Schema:
        return Schema(
            (
                Column("z", "covariate", "continuous"),
                Column("x", "exposure", "binary"),
                Column("y", "outcome", "continuous"),
            )
        )

    params = _params

    def regression(self, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        return (
            self.beta0
            + self.beta_x * x
            + self.beta_z * z
            + self.beta_z2 * z**2
            + self.beta_xz * x * z
            + self.beta_xz2 * x * z**2
        )

    def propensity(self, z):
        g0, g1, g2 = self.gamma
        z = np.asarray(z, dtype=float)
        return _expit(g0 + g1 * z + g2 * z**2)

    def generate(self, n: int, seed: int) -> Dataset:
        rng = seeded_rng(seed)
        z = rng.uniform(-self.z_half_width, self.z_half_width, n)
        x = (rng.uniform(size=n) < self.propensity(z)).astype(float)
        y = self.regression(x, z) + rng.normal(0.0, self.sigma, n)
        return Dataset(self.schema, np.column_stack([z, x, y]))

    @lru_cache(maxsize=None)
    def _oracle(self):
        rng = np.random.default_rng(hash64(self.name, "oracle", *sorted(self.params().items())))
        z = rng.uniform(-self.z_half_width, self.z_half_width, ORACLE_DRAWS)
        effect = self.regression(1.0, z) - self.regression(0.0, z)
        return float(np.mean(effect)), float(np.std(effect, ddof=1) / math.sqrt(z.size))

    def truth(self, spec: Estimand):
        if isinstance(spec, Ate):
            return self._oracle()
        raise ValidationError(f"no recorded truth for {spec.name!r} under {self.name}")


@dataclass(frozen=True)
class PartiallyLinearDgp:
    """Y = theta*X + g(Z) + noise with a continuous exposure X = h(Z) + noise.

    g and h are quadratic, so degree-2 conditional-mean learners are exact
    and the partially linear coefficient equals theta.
    """

    theta: float = 0.8
    sigma_x: float = 0.8
    sigma_y: float = 1.0
    name = "partially-linear"

    @property
    def schema(self) -> Schema:
        return Schema(
            (
                Column("z1", "covariate", "continuous"),
                Column("z2", "covariate", "continuous"),
                Column("x", "exposure", "continuous"),
                Column("y", "outcome", "continuous"),
            )
        )

    params = _params

    def generate(self, n: int, seed: int) -> Dataset:
        rng = seeded_rng(seed)
        Z = rng.uniform(-1.0, 1.0, (n, 2))
        h = 0.5 * Z[:, 0] - 0.7 * Z[:, 1] + 0.3 * Z[:, 0] ** 2
        x = h + rng.normal(0.0, self.sigma_x, n)
        g = 1.2 * Z[:, 0] - 0.5 * Z[:, 1] + 0.6 * Z[:, 1] ** 2
        y = self.theta * x + g + rng.normal(0.0, self.sigma_y, n)
        return Dataset(self.schema, np.column_stack([Z, x, y]))

    def truth(self, spec: Estimand):
        if isinstance(spec, PartiallyLinearCoefficient):
            return self.theta, 0.0
        raise ValidationError(f"no recorded truth for {spec.name!r} under {self.name}")


@dataclass(frozen=True)
class MediationDgp:
    """Binary confounder, exposure, and mediator with a linear outcome.

    Everything is enumerable, so the interventional direct effect has an
    exact closed form and degree-1 logistic/linear learners are correctly
    specified.
    """

    gamma: tuple = (0.2, 0.6)  # logit P(X=1 | Z) = g0 + g1 z
    alpha: tuple = (-0.3, 0.8, 0.5)  # logit P(M=1 | X, Z) = a0 + a1 x + a2 z
    beta: tuple = (0.4, 1.1, 0.9, 0.5)  # E[Y | M, X, Z] = b0 + b1 m + b2 x + b3 z
    sigma: float = 1.0
    name = "mediation-binary-m"

    @property
    def schema(self) -> Schema:
        return Schema(
            (
                Column("z", "covariate", "binary"),
                Column("x", "exposure", "binary"),
                Column("m", "mediator", "binary"),
                Column("y", "outcome", "continuous"),
            )
        )

    params = _params

    def generate(self, n: int, seed: int) -> Dataset:
        rng = seeded_rng(seed)
        z = (rng.uniform(size=n) < 0.5).astype(float)
        g0, g1 = self.gamma
        x = (rng.uniform(size=n) < _expit(g0 + g1 * z)).astype(float)
        a0, a1, a2 = self.alpha
        m = (rng.uniform(size=n) < _expit(a0 + a1 * x + a2 * z)).astype(float)
        b0, b1, b2, b3 = self.beta
        y = b0 + b1 * m + b2 * x + b3 * z + rng.normal(0.0, self.sigma, n)
        return Dataset(self.schema, np.column_stack([z, x, m, y]))

    def truth(self, spec: Estimand):
        if isinstance(spec, InterventionalDirectEffect):
            a0, a1, a2 = self.alpha
            b0, b1, b2, b3 = self.beta
            total = 0.0
            for z in (0.0, 1.0):
                p_m1 = float(_expit(a0 + a1 * spec.x0 + a2 * z))
                mean_b = b0 + b2 * spec.x1 + b3 * z + b1 * p_m1
                total += 0.5 * mean_b
            return total, 0.0
        raise ValidationError(f"no recorded truth for {spec.name!r} under {self.name}")


@dataclass(frozen=True)
class DensityMixtureDgp:
    """Two-component normal mixture outcome for density and quantile targets."""

    weight: float = 0.3
    means: tuple = (-1.2, 0.8)
    sds: tuple = (0.5, 1.0)
    name = "density-mixture"

    @property
    def schema(self) -> Schema:
        return _outcome_only_schema()

    params = _params

    def _mixture(self) -> NormalMixture:
        return NormalMixture(
            weights=(self.weight, 1.0 - self.weight), means=self.means, sds=self.sds
        )

    def generate(self, n: int, seed: int) -> Dataset:
        rng = seeded_rng(seed)
        component = rng.uniform(size=n) >= self.weight
        mu = np.where(component, self.means[1], self.means[0])
        sd = np.where(component, self.sds[1], self.sds[0])
        y = rng.normal(mu, sd)
        return Dataset(self.schema, y[:, None])

    def truth(self, spec: Estimand):
        w = np.array([self.weight, 1.0 - self.weight])
        mu = np.asarray(self.means, dtype=float)
        sd = np.asarray(self.sds, dtype=float)
        if isinstance(spec, AverageDensity):
            # int f^2 = sum_ij w_i w_j N(mu_i - mu_j; 0, sd_i^2 + sd_j^2)
            total = 0.0
            for i in range(2):
                for j in range(2):
                    scale = math.sqrt(sd[i] ** 2 + sd[j] ** 2)
                    total += w[i] * w[j] * float(normal_pdf(mu[i] - mu[j], scale=scale))
            return total, 0.0
        if isinstance(spec, Quantile):
            return self._mixture().quantile(spec.tau), 0.0
        if isinstance(spec, PopulationMean):
            return float(np.dot(w, mu)), 0.0
        raise ValidationError(f"no recorded truth for {spec.name!r} under {self.name}")


DGPS = {
    "normal-mean": NormalMeanDgp,
    "ate-linear": AteLinearDgp,
    "ate-nonlinear": AteNonlinearDgp,
    "partially-linear": PartiallyLinearDgp,
    "mediation-binary-m": MediationDgp,
    "density-mixture": DensityMixtureDgp,
}


def dgp_by_name(name: str, **overrides):
    if name not in DGPS:
        raise ConfigError(
            f"unknown data-generating process {name!r}; choose from {sorted(DGPS)}"
        )
    return DGPS[name](**overrides)


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    """Aggregated performance of one (dgp, estimand, method, arm) cell."""

    dgp: str
    estimand: dict
    method: str
    arm: str
    n: int
    replications: int
    completed: int
    truth: float
    truth_mc_se: float
    bias: float
    empirical_sd: float
    mean_se: float
    coverage: float
    coverage_mc_se: float
    rmse: float
    psi_hats: tuple
    ses: tuple
    excluded: tuple
    extras: dict = field(default_factory=dict)

    def to_json(self, include_draws: bool = False) -> dict:
        out = {
            "dgp": self.dgp,
            "estimand": self.estimand,
            "method": self.method,
            "arm": self.arm,
            "n": self.n,
            "replications": self.replications,
            "completed": self.completed,
            "truth": self.truth,
            "truth_mc_se": self.truth_mc_se,
            "bias": self.bias,
            "empirical_sd": self.empirical_sd,
            "mean_se": self.mean_se,
            "coverage": self.coverage,
            "coverage_mc_se": self.coverage_mc_se,
            "rmse": self.rmse,
            "excluded": [list(item) for item in self.excluded],
            "extras": self.extras,
        }
        if include_draws:
            out["psi_hats"] = list(self.psi_hats)
            out["ses"] = list(self.ses)
        return out


def _replicate_once(dgp, spec, method, settings, n, folds, alpha, master_seed, r) -> dict:
    """Run replication r of master seed ``master_seed``; returns its payload."""
    dataset = dgp.generate(n, hash64(master_seed, r))
    plan = make_folds(n, folds, hash64(master_seed, r, "folds"))
    nuis = fit_cross_fitted_nuisances(dataset, spec, settings, plan=plan)
    report = ESTIMATORS[method](spec, dataset, nuis, alpha)
    payload = {
        "psi": report.psi_hat,
        "se": report.se,
        "lo": report.ci[0],
        "hi": report.ci[1],
    }
    if method == "tmle":
        companion = one_step(spec, dataset, nuis, alpha)
        payload["tmle_score"] = max(abs(s) for s in report.diagnostics["tmle_score"])
        payload["tmle_aipw_gap"] = abs(report.psi_hat - companion.psi_hat)
    return payload


def run_replications(
    dgp,
    spec: Estimand,
    method: str = "one_step",
    settings: LearnerSettings = LearnerSettings(),
    n: int = 1000,
    R: int = 100,
    seed: int = 0,
    folds: int = DEFAULT_FOLDS,
    alpha: float = DEFAULT_ALPHA,
    arm: str = "both_correct",
    truth: Optional[tuple] = None,
) -> MetricsReport:
    """R independent datasets through one estimator, aggregated against truth.

    Replications run in order in the calling process; replication r uses
    seed hash64(seed, r), so any one of them can be re-run alone.  One that
    raises an ``InfluenceLabError`` is excluded with its reason; more than
    ``MAX_EXCLUSION_FRACTION`` of them fails the whole run.
    """
    if method not in ESTIMATORS:
        raise ValidationError(
            f"unknown method {method!r}; choose from {sorted(ESTIMATORS)}"
        )
    if R < 1:
        raise ValidationError("at least one replication is required")
    if n < 2:
        raise ValidationError(f"every interval needs at least two rows, got n = {n}")
    if not 1 <= folds <= n:
        raise ValidationError(f"fold count must be between 1 and n = {n}, got {folds}")
    truth_value, truth_mc_se = truth if truth is not None else dgp.truth(spec)
    results, excluded = [], []
    for r in range(R):
        try:
            results.append(_replicate_once(dgp, spec, method, settings, n, folds, alpha, seed, r))
        except InfluenceLabError as exc:
            excluded.append((r, f"{type(exc).__name__}: {exc}"))
    if len(excluded) > MAX_EXCLUSION_FRACTION * R:
        preview = "; ".join(f"rep {r}: {msg}" for r, msg in excluded[:3])
        raise RunFailedError(
            f"{len(excluded)} of {R} replications failed (limit "
            f"{MAX_EXCLUSION_FRACTION:.0%}): {preview}"
        )
    psi = np.array([item["psi"] for item in results])
    ses = np.array([item["se"] for item in results])
    los = np.array([item["lo"] for item in results])
    his = np.array([item["hi"] for item in results])
    covered = (los <= truth_value) & (truth_value <= his)
    coverage = float(np.mean(covered))
    completed = len(results)
    extras: dict = {}
    if method == "tmle" and results:
        extras["max_tmle_score"] = max(item["tmle_score"] for item in results)
        extras["max_tmle_aipw_gap"] = max(item["tmle_aipw_gap"] for item in results)
    return MetricsReport(
        dgp=dgp.name,
        estimand=spec.describe(),
        method=method,
        arm=arm,
        n=n,
        replications=R,
        completed=completed,
        truth=float(truth_value),
        truth_mc_se=float(truth_mc_se),
        bias=float(np.mean(psi) - truth_value),
        empirical_sd=float(np.std(psi, ddof=1)) if completed > 1 else 0.0,
        mean_se=float(np.mean(ses)),
        coverage=coverage,
        coverage_mc_se=float(math.sqrt(max(coverage * (1.0 - coverage), 0.0) / completed)),
        rmse=float(np.sqrt(np.mean((psi - truth_value) ** 2))),
        psi_hats=tuple(float(v) for v in psi),
        ses=tuple(float(v) for v in ses),
        excluded=tuple(excluded),
        extras=extras,
    )


# ---------------------------------------------------------------------------
# named experiments
# ---------------------------------------------------------------------------

ARM_SETTINGS = {
    "both_correct": LearnerSettings(outcome_degree=2, propensity_degree=2),
    "outcome_wrong": LearnerSettings(outcome_degree=1, propensity_degree=2),
    "propensity_wrong": LearnerSettings(outcome_degree=2, propensity_degree=1),
    "both_wrong": LearnerSettings(outcome_degree=1, propensity_degree=1),
}


def double_robustness_experiment(
    n: int = 2000,
    R: int = 500,
    seed: int = 0,
    arms: Sequence[str] = tuple(ARM_SETTINGS),
    method: str = "one_step",
    folds: int = DEFAULT_FOLDS,
) -> dict:
    """Four-arm misspecification experiment on the curved-outcome process.

    The truth needs degree-2 terms in both nuisances; the "wrong" fit is a
    degree-1 model of the same family.  The debiased estimator should stay
    nearly unbiased while either single nuisance is wrong, and show clear
    bias when both are.
    """
    dgp = AteNonlinearDgp()
    spec = Ate()
    unknown = [arm for arm in arms if arm not in ARM_SETTINGS]
    if unknown:
        raise ConfigError(
            f"unknown arms {unknown!r}; choose from {sorted(ARM_SETTINGS)}"
        )
    return {
        arm: run_replications(
            dgp,
            spec,
            method=method,
            settings=ARM_SETTINGS[arm],
            n=n,
            R=R,
            seed=seed,
            folds=folds,
            arm=arm,
        )
        for arm in arms
    }


def median_efficiency_experiment(n: int = 400, R: int = 2000, seed: int = 0) -> dict:
    """Sampling spread of the median versus the mean on normal data.

    Returns the empirical sd of the estimating-equation median divided by
    sigma/sqrt(n) (the large-sample value is sqrt(pi/2) ~ 1.2533), the same
    ratio for the sample mean, and the mean estimated se over empirical sd
    for the median, whose se formula divides by a fitted density.
    """
    dgp = NormalMeanDgp()
    scale = dgp.sigma / math.sqrt(n)
    median_report = run_replications(
        dgp, Quantile(tau=0.5), method="estimating_equation", n=n, R=R, seed=seed
    )
    mean_report = run_replications(
        dgp, PopulationMean(), method="one_step", n=n, R=R, seed=seed
    )
    return {
        "median_report": median_report,
        "mean_report": mean_report,
        "median_sd_ratio": median_report.empirical_sd / scale,
        "mean_sd_ratio": mean_report.empirical_sd / scale,
        "median_se_calibration": median_report.mean_se / median_report.empirical_sd,
    }


def sqrt_n_rate_experiment(
    n: int = 1000, R: int = 500, seed: int = 0, method: str = "one_step"
) -> dict:
    """Empirical sd at n versus 4n; a root-n estimator halves its spread."""
    dgp = AteLinearDgp()
    small = run_replications(dgp, Ate(), method=method, n=n, R=R, seed=seed)
    large = run_replications(dgp, Ate(), method=method, n=4 * n, R=R, seed=hash64(seed, "4n"))
    return {
        "small_report": small,
        "large_report": large,
        "sd_ratio": small.empirical_sd / large.empirical_sd,
    }


def cross_fitting_contrast(
    n: int = 400, R: int = 200, seed: int = 0, bandwidth: float = 0.04
) -> dict:
    """Coverage of an overfit kernel pipeline without versus with sample
    splitting; reusing rows for fitting and evaluation shrinks residuals and
    the estimated se, so nominal coverage degrades."""
    dgp = AteNonlinearDgp()
    settings = LearnerSettings(
        outcome_model="kernel", propensity_model="kernel", bandwidth=bandwidth
    )
    no_split = run_replications(
        dgp, Ate(), settings=settings, n=n, R=R, seed=seed, folds=1
    )
    split = run_replications(
        dgp, Ate(), settings=settings, n=n, R=R, seed=seed, folds=DEFAULT_FOLDS
    )
    return {
        "no_split_report": no_split,
        "split_report": split,
        "no_split_coverage": no_split.coverage,
        "split_coverage": split.coverage,
    }
