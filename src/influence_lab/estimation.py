"""Cross-fitted estimation of catalog functionals.

Folds, per-fold nuisance fitting, and the debiasing constructions: plug-in,
one-step correction, estimating-equation solve, and the targeted
(fluctuation-based) estimator for arm means and their contrast.  Standard
errors come from the sample variance of the influence function values.

Each nuisance is evaluated once per row: after the fits on each fold's
complement, the estimand's ``nuisance_values`` runs once per fold, on that
fold's held-out rows, and fills one table of n-row arrays.  The estimators
compute the influence-function terms (u, s) once from it; plug-in,
one-step, estimating-equation and targeted values are arithmetic on those
arrays.  Values that are not per row (a density at the estimated quantile,
a cdf at a threshold) go through ``probe``, the average over fold fits.
"""
from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ._normal import normal_ppf
from .distributions import Dataset
from .errors import (
    InfluenceLabError,
    NuisanceError,
    NumericalError,
    PositivityError,
    SolverError,
    ValidationError,
)
from .estimands import (
    Ate,
    ColumnSet,
    Estimand,
    NuisanceSet,
    PotentialOutcomeMean,
    Quantile,
)
from .learners import (
    FeatureMap,
    fit_kde,
    fit_kernel_regression,
    fit_logistic,
    fit_ols,
)

DEFAULT_FOLDS = 5
DEFAULT_TRIM = 0.01
DEFAULT_ALPHA = 0.05
EIF_MAGNITUDE_BOUND = 1e8
QUANTILE_SOLVER_TOL = 1e-10
QUANTILE_SOLVER_MAX_ITER = 200
TMLE_SCORE_TOL = 1e-10
# numpy and Python numerical failures inside a fold become NumericalError
_FOREIGN_NUMERICAL = (np.linalg.LinAlgError, FloatingPointError, ZeroDivisionError, OverflowError)


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldPlan:
    """Partition of row indices into folds of near-equal size."""

    n: int
    K: int
    seed: int
    assignment: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.assignment)
        if a.shape != (self.n,):
            raise ValidationError("fold assignment must have one entry per row")
        sizes = np.bincount(a, minlength=self.K)
        if sizes.size != self.K or sizes.max() - sizes.min() > 1:
            raise ValidationError("fold sizes must differ by at most one")

    def fold_rows(self, k: int) -> np.ndarray:
        return np.nonzero(self.assignment == k)[0]

    def training_rows(self, k: int) -> np.ndarray:
        """Complement of fold k; with K = 1 the whole sample (no held-out data)."""
        if self.K == 1:
            return np.arange(self.n)
        return np.nonzero(self.assignment != k)[0]


def make_folds(n: int, K: int, seed: int) -> FoldPlan:
    """Random near-equal partition, reproducible from (n, K, seed).

    K = 1 is the explicit no-cross-fitting mode: a single fold whose
    training set is the full sample, so nuisances are fit and evaluated on
    the same rows.  Useful only to demonstrate why cross-fitting matters.
    """
    if not isinstance(K, (int, np.integer)) or isinstance(K, bool):
        raise ValidationError(f"fold count must be an integer, got {K!r}")
    if K < 1:
        raise ValidationError(f"fold count must be at least 1, got {K}")
    if K > n:
        raise ValidationError(f"cannot split {n} rows into {K} folds")
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=int)
    assignment[rng.permutation(n)] = np.arange(n) % K
    return FoldPlan(n=n, K=K, seed=seed, assignment=assignment)


# ---------------------------------------------------------------------------
# learner configuration
# ---------------------------------------------------------------------------

_OUTCOME_MODELS = ("ols", "kernel")
_PROPENSITY_MODELS = ("logistic", "kernel")


@dataclass(frozen=True)
class LearnerSettings:
    """How each nuisance family is fit.

    ``outcome_*`` governs regressions of the outcome and the conditional
    means; ``propensity_*`` governs the exposure and mediator probability
    models.  Polynomial settings feed a ``FeatureMap``; ``bandwidth`` feeds
    the kernel learners; propensity-type predictions are clipped to
    [trim, 1 - trim] and clipped rows are counted.
    """

    outcome_model: str = "ols"
    outcome_degree: int = 1
    outcome_interactions: bool = False
    propensity_model: str = "logistic"
    propensity_degree: int = 1
    propensity_interactions: bool = False
    ridge_lambda: float = 0.0
    bandwidth: Union[str, float] = "auto"
    trim: float = DEFAULT_TRIM

    def __post_init__(self) -> None:
        if self.outcome_model not in _OUTCOME_MODELS:
            raise ValidationError(
                f"outcome_model must be one of {_OUTCOME_MODELS}, got {self.outcome_model!r}"
            )
        if self.propensity_model not in _PROPENSITY_MODELS:
            raise ValidationError(
                f"propensity_model must be one of {_PROPENSITY_MODELS}, "
                f"got {self.propensity_model!r}"
            )
        if not 0.0 <= self.trim < 0.5:
            raise ValidationError(f"trim must be in [0, 0.5), got {self.trim}")
        if self.ridge_lambda < 0.0:
            raise ValidationError("ridge_lambda must be nonnegative")

    def outcome_features(self) -> FeatureMap:
        return FeatureMap(degree=self.outcome_degree, interactions=self.outcome_interactions)

    def propensity_features(self) -> FeatureMap:
        return FeatureMap(
            degree=self.propensity_degree, interactions=self.propensity_interactions
        )

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# per-fold nuisance fitting
# ---------------------------------------------------------------------------


def _design(*parts) -> np.ndarray:
    columns = []
    for part in parts:
        if part is None:
            continue
        arr = np.asarray(part, dtype=float)
        columns.append(arr[:, None] if arr.ndim == 1 else arr)
    if not columns:
        raise NuisanceError("no columns available to build a regression design")
    return np.hstack(columns)


def _as_flat(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    return arr.ravel() if arr.ndim > 1 else arr


class _ArmRegression:
    """One regression per exposure level; evaluation selects by level."""

    def __init__(self, fits: dict, feature_fn: Callable):
        self.fits = fits
        self.feature_fn = feature_fn

    def __call__(self, x: np.ndarray, Z: np.ndarray) -> np.ndarray:
        x = _as_flat(x)
        out = np.empty(x.size, dtype=float)
        seen = np.zeros(x.size, dtype=bool)
        for level, fit in self.fits.items():
            mask = x == level
            if mask.all():  # one level, as for m(1, Z) and m(0, Z): no masked copy
                return fit.predict(self.feature_fn(Z))
            if mask.any():
                out[mask] = fit.predict(self.feature_fn(Z[mask]))
                seen |= mask
        if not seen.all():
            bad = float(x[~seen][0])
            raise PositivityError(
                f"no training rows had exposure level {bad!r}; cannot predict there"
            )
        return out


def _fit_outcome_mean(y, x, Z, settings: LearnerSettings, binary_exposure: bool):
    """Regression of y on (x, Z); per-level fits when the exposure is discrete."""
    if binary_exposure:
        if settings.outcome_model == "ols":
            fmap = settings.outcome_features()
            feature_fn = fmap.transform
            fitter = lambda F, t: fit_ols(feature_fn(F), t, settings.ridge_lambda)
        else:
            feature_fn = lambda Zq: Zq  # kernel fits consume raw coordinates
            fitter = lambda F, t: fit_kernel_regression(F, t, settings.bandwidth)
        fits = {}
        for level in np.unique(x):
            mask = x == level
            if mask.sum() < 2:
                raise PositivityError(
                    f"fewer than two training rows with exposure level {level!r}"
                )
            fits[level] = fitter(Z[mask], y[mask])
        return _ArmRegression(fits, feature_fn), None
    # continuous exposure: one fit on the joint (x, Z) coordinates
    V = _design(x, Z)
    if settings.outcome_model == "ols":
        fmap = settings.outcome_features()
        fit = fit_ols(fmap.transform(V), y, settings.ridge_lambda)

        def mean_fn(xq, Zq):
            return fit.predict(fmap.transform(_design(xq, Zq)))

        def grad_fn(xq, Zq):
            raw = _design(xq, Zq)
            return fit.predict_grad(fmap.grad_transform(raw, axis=0))

        return mean_fn, grad_fn
    fit = fit_kernel_regression(V, y, settings.bandwidth)

    def mean_fn(xq, Zq):
        return fit.predict(_design(xq, Zq))

    def grad_fn(xq, Zq):
        return fit.predict_grad(_design(xq, Zq), axis=0)

    return mean_fn, grad_fn


def _fit_conditional_mean(target, Z, settings: LearnerSettings) -> Callable:
    if settings.outcome_model == "ols":
        fmap = settings.outcome_features()
        fit = fit_ols(fmap.transform(Z), target, settings.ridge_lambda)
        return lambda Zq: fit.predict(fmap.transform(Zq))
    fit = fit_kernel_regression(Z, target, settings.bandwidth)
    return lambda Zq: fit.predict(Zq)


def _fit_probability(target, V, settings: LearnerSettings) -> Callable:
    """Raw (unclipped) conditional probability of a binary target given V."""
    if settings.propensity_model == "logistic":
        fmap = settings.propensity_features()
        fit = fit_logistic(fmap.transform(V), target, settings.ridge_lambda)
        if not fit.converged:
            raise SolverError(
                f"logistic fit did not converge in {fit.iterations} IRLS iterations"
            )
        return lambda Vq: fit.predict(fmap.transform(Vq))
    fit = fit_kernel_regression(V, target, settings.bandwidth)
    return lambda Vq: fit.predict(Vq)


def _empirical_cdf(sample: np.ndarray) -> Callable:
    ordered = np.sort(sample)

    def cdf(points):
        pts = _as_flat(points)
        return np.searchsorted(ordered, pts, side="right") / ordered.size

    return cdf


def _frequency_table(sample: np.ndarray) -> Callable:
    values, counts = np.unique(sample, return_counts=True)
    freq = dict(zip(values.tolist(), (counts / sample.size).tolist()))

    def prob(points):
        pts = _as_flat(points)
        return np.array([freq.get(float(v), 0.0) for v in pts])

    return prob


def _check_binary(values: np.ndarray, what: str) -> None:
    if not ((values == 0.0) | (values == 1.0)).all():
        raise ValidationError(f"{what} must be binary (0/1) for the shipped learners")


def _fit_fold_slots(
    cols: ColumnSet,
    train: np.ndarray,
    reqs: frozenset,
    settings: LearnerSettings,
    binary_exposure: bool,
) -> dict:
    """Fit every required slot on the training rows of one fold."""
    slots: dict = {}
    y = cols.y[train] if cols.y is not None else None
    x = cols.x[train] if cols.x is not None else None
    Z = cols.Z[train] if cols.Z is not None else None
    M = cols.M[train] if cols.M is not None else None

    if "outcome_mean" in reqs or "outcome_mean_grad" in reqs:
        mean_fn, grad_fn = _fit_outcome_mean(y, x, Z, settings, binary_exposure)
        slots["outcome_mean"] = mean_fn
        if "outcome_mean_grad" in reqs:
            if grad_fn is None:
                raise NuisanceError(
                    "outcome mean gradient needs a continuous exposure model"
                )
            slots["outcome_mean_grad"] = grad_fn
    if "propensity" in reqs:
        _check_binary(x, "the exposure")
        slots["propensity"] = _fit_probability(x, Z, settings)
    if "conditional_mean_y" in reqs:
        slots["conditional_mean_y"] = _fit_conditional_mean(y, Z, settings)
    if "conditional_mean_x" in reqs or "exposure_residual_var" in reqs:
        cond_x = _fit_conditional_mean(x, Z, settings)
        if "conditional_mean_x" in reqs:
            slots["conditional_mean_x"] = cond_x
        if "exposure_residual_var" in reqs:
            resid = x - np.asarray(cond_x(Z), dtype=float)
            slots["exposure_residual_var"] = float(np.mean(resid**2))
    if "marginal_density" in reqs or "density_at_quantile" in reqs:
        density = fit_kde(y, settings.bandwidth)
        if "marginal_density" in reqs:
            slots["marginal_density"] = density
        if "density_at_quantile" in reqs:
            slots["density_at_quantile"] = density
    if "outcome_cdf" in reqs:
        slots["outcome_cdf"] = _empirical_cdf(y)
    if "exposure_prob" in reqs:
        slots["exposure_prob"] = _frequency_table(x)
    if "joint_density" in reqs or "joint_density_grad" in reqs:
        joint = fit_kde(_design(x, Z), settings.bandwidth)
        # The average-derivative identity needs w*f -> 0 at the edge of the
        # exposure range; surface visibly non-vanishing mass there.
        dens = joint.density_at(_design(x, Z))
        edge = float(max(dens[np.argmin(x)], dens[np.argmax(x)]))
        if edge > 1e-3 * float(np.max(dens)):
            warnings.warn(
                "fitted density at the exposure range endpoints is "
                f"{edge:.2e} against a peak of {float(np.max(dens)):.2e}; "
                "boundary terms of the average derivative may not vanish",
                RuntimeWarning,
                stacklevel=2,
            )
        if "joint_density" in reqs:
            slots["joint_density"] = lambda xq, Zq: joint.density_at(_design(xq, Zq))
        if "joint_density_grad" in reqs:
            slots["joint_density_grad"] = lambda xq, Zq: joint.density_grad_at(
                _design(xq, Zq), axis=0
            )
    if "mediator_law" in reqs or "mediated_outcome" in reqs or "mediator_support" in reqs:
        m_flat = _as_flat(M)
        _check_binary(m_flat, "the mediator")
        if "mediator_law" in reqs:
            p_one = _fit_probability(m_flat, _design(x, Z), settings)
            slots["mediator_law"] = p_one  # wrapped into f(M | x, Z) later
        if "mediated_outcome" in reqs:
            b = _fit_conditional_mean(y, _design(m_flat, x, Z), settings)
            slots["mediated_outcome"] = lambda Mq, xq, Zq: b(_design(_as_flat(Mq), xq, Zq))
        if "mediator_support" in reqs:
            slots["mediator_support"] = tuple(sorted(set(m_flat.tolist())))
    if "mean_y" in reqs:
        slots["mean_y"] = float(np.mean(y))
    if "mean_x" in reqs:
        slots["mean_x"] = float(np.mean(x))
    return slots


_POOLED_SLOTS = ("mean_y", "mean_x", "exposure_residual_var", "mediator_support")


def _pooled(name: str, per_fold: list):
    """A scalar slot pooled over folds; the mediator support is the union."""
    if name == "mediator_support":
        return tuple(sorted(set().union(*[set(s) for s in per_fold])))
    return float(np.mean(per_fold))


def _clipped(raw: Callable, trim: float) -> Callable:
    return lambda *args: np.clip(np.asarray(raw(*args), dtype=float), trim, 1.0 - trim)


def _mediator_law_from_p(p_one: Callable, trim: float) -> Callable:
    def law(Mq, xq, Zq):
        p1 = np.clip(np.asarray(p_one(_design(xq, Zq)), dtype=float), trim, 1.0 - trim)
        m = _as_flat(Mq)
        return np.where(m == 1.0, p1, 1.0 - p1)

    return law


def _in_fold(k: int, step: Callable, *args):
    """Run one fold's step.  A package error keeps its type and names the
    fold; a numpy or Python numerical failure becomes ``NumericalError``."""
    try:
        return step(*args)
    except InfluenceLabError as exc:
        raise type(exc)(f"fold {k}: {exc}") from exc
    except _FOREIGN_NUMERICAL as exc:
        raise NumericalError(f"fold {k}: {type(exc).__name__}: {exc}") from exc


@dataclass(eq=False)
class CrossFittedNuisances:
    """Per-fold nuisance fits and the table of their values at the sample.

    ``values`` holds, for each entry of the estimand's ``nuisance_values``,
    one array over the n sample rows; row i comes from the fits trained
    without row i's fold.  ``table`` hands it only to the estimand that was
    fit, on the rows it was fit on.  ``probe`` evaluates a function-valued
    slot at any other points as the equal-weight average over fold fits.
    ``folds`` are the per-fold nuisance sets with pooled scalar slots; their
    propensity is raw, and the table and ``probe`` clip it to
    [trim, 1 - trim].
    """

    plan: FoldPlan
    spec: Estimand
    cols: ColumnSet
    folds: list
    values: dict
    trim: float
    trim_count: int

    def require(self, *slot_names: str) -> None:
        self.folds[0].require(*slot_names)

    def table(self, spec: Estimand, cols: ColumnSet) -> dict:
        fitted = (self.cols.y, self.cols.x, self.cols.Z, self.cols.M)
        same = all(np.array_equal(a, b) for a, b in zip((cols.y, cols.x, cols.Z, cols.M), fitted))
        if spec != self.spec or not same:
            raise ValidationError(
                f"these nuisances were cross-fitted for {self.spec.name} on one "
                f"dataset of {self.plan.n} rows and serve only that pair"
            )
        return self.values

    def probe(self, name: str, *args) -> np.ndarray:
        self.require(name)
        return self._combined(name)(*args)

    def fold_average(self, fn: Callable[[NuisanceSet], float]) -> float:
        """``fn`` of each fold's nuisances, weighted by the fold's share of
        the rows (each row's table values come from its own fold)."""
        total = 0.0
        for k, fold in enumerate(self.folds):
            total += self.plan.fold_rows(k).size / self.plan.n * fn(fold)
        return total

    def _combined(self, name: str) -> Callable:
        """Equal-weight average over folds of one function-valued slot."""
        per_fold = [getattr(fold, name) for fold in self.folds]
        if name == "propensity":
            per_fold = [_clipped(f, self.trim) for f in per_fold]

        def averaged(*args):
            return np.stack([np.asarray(f(*args), dtype=float) for f in per_fold]).mean(axis=0)

        return averaged


def _outside(raw: np.ndarray, trim: float) -> int:
    return int(((raw < trim) | (raw > 1.0 - trim)).sum())


def fit_cross_fitted_nuisances(
    dataset: Dataset,
    spec: Estimand,
    settings: LearnerSettings = LearnerSettings(),
    plan: Optional[FoldPlan] = None,
    seed: int = 0,
) -> CrossFittedNuisances:
    """Fit every slot the estimand needs on each fold's complement, then
    evaluate the estimand's nuisance table once per fold, on its rows."""
    spec.validate_schema(dataset.schema)
    cols = ColumnSet.from_dataset(dataset)
    if plan is None:
        plan = make_folds(cols.n, min(DEFAULT_FOLDS, cols.n), seed)
    if plan.n != cols.n:
        raise ValidationError("fold plan was built for a different number of rows")
    reqs = spec.nuisance_requirements()
    exposure_idx = dataset.schema.indices_with_role("exposure")
    binary_exposure = bool(
        exposure_idx and dataset.schema.columns[exposure_idx[0]].kind != "continuous"
    )
    fold_slots = [
        _in_fold(k, _fit_fold_slots, cols, plan.training_rows(k), reqs, settings,
                 binary_exposure)
        for k in range(plan.K)
    ]
    pooled = {
        name: _pooled(name, [slots[name] for slots in fold_slots])
        for name in _POOLED_SLOTS if name in fold_slots[0]
    }
    trim = settings.trim
    folds, values, trim_count = [], {}, 0
    for k, slots in enumerate(fold_slots):
        rows = plan.fold_rows(k)
        held_out = cols.take(rows)
        functions = {name: f for name, f in slots.items() if name not in pooled}
        if "mediator_law" in functions:
            raw = functions["mediator_law"](_design(held_out.x, held_out.Z))
            trim_count += _outside(np.asarray(raw, dtype=float), trim)
            functions["mediator_law"] = _mediator_law_from_p(functions["mediator_law"], trim)
        folds.append(NuisanceSet(**functions, **pooled))
        table = _in_fold(k, spec.nuisance_values, held_out, folds[-1])
        # the raw propensity at the held-out rows gives the trim count, then
        # is clipped in place: one pass serves both
        if "propensity" in table:
            trim_count += _outside(table["propensity"], trim)
            table["propensity"] = np.clip(table["propensity"], trim, 1.0 - trim)
        for name, column in table.items():
            values.setdefault(name, np.empty(plan.n))[rows] = column
    return CrossFittedNuisances(plan, spec, cols, folds, values, trim, trim_count)


# ---------------------------------------------------------------------------
# reports and intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateReport:
    """One estimator run: point estimate, uncertainty, and diagnostics."""

    spec: Estimand
    method: str
    psi_hat: float
    se: float
    ci: tuple
    n: int
    alpha: float
    eif_values: np.ndarray
    diagnostics: dict

    def to_json(self, include_eif: bool = False) -> dict:
        out = {
            "estimand": self.spec.describe(),
            "method": self.method,
            "psi_hat": self.psi_hat,
            "se": self.se,
            "ci": list(self.ci),
            "n": self.n,
            "alpha": self.alpha,
            "diagnostics": self.diagnostics,
        }
        if include_eif:
            out["eif_values"] = [float(v) for v in self.eif_values]
        return out


def wald_interval(eif_values: np.ndarray, psi_hat: float, alpha: float = DEFAULT_ALPHA):
    """(se, lo, hi) from the influence-function sample variance."""
    phi = np.asarray(eif_values, dtype=float)
    if phi.size < 2:
        raise ValidationError("confidence intervals need at least two observations")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    sd = float(np.std(phi, ddof=1))
    if sd == 0.0:
        warnings.warn(
            "influence-function values are constant; the interval is degenerate",
            RuntimeWarning,
            stacklevel=2,
        )
    se = sd / np.sqrt(phi.size)
    z = float(normal_ppf(1.0 - alpha / 2.0))
    return se, psi_hat - z * se, psi_hat + z * se


def _assemble(spec, method, psi, eif, alpha, diagnostics) -> EstimateReport:
    eif = np.asarray(eif, dtype=float)
    se, lo, hi = wald_interval(eif, psi, alpha)
    diagnostics = dict(diagnostics)
    diagnostics["mean_eif"] = float(np.mean(eif))
    return EstimateReport(
        spec=spec,
        method=method,
        psi_hat=float(psi),
        se=float(se),
        ci=(float(lo), float(hi)),
        n=int(eif.size),
        alpha=float(alpha),
        eif_values=eif,
        diagnostics=diagnostics,
    )


def _base_diagnostics(nuis, **extra) -> dict:
    if isinstance(nuis, CrossFittedNuisances):
        return {"fold_count": nuis.plan.K, "trim_count": nuis.trim_count, **extra}
    return {"fold_count": 1, "trim_count": 0, **extra}


def _eif(spec: Estimand, cols: ColumnSet, nuis) -> Callable[[float], np.ndarray]:
    """psi -> influence values; an affine estimand's (u, s) are computed once."""
    if not spec.affine:
        return lambda psi: spec.eif_values(cols, nuis, psi)
    u, s = spec.eif_terms(cols, nuis)
    return lambda psi: u - s * psi


def _check_eif_magnitude(phi: np.ndarray) -> None:
    worst = float(np.max(np.abs(phi))) if phi.size else 0.0
    if worst > EIF_MAGNITUDE_BOUND:
        raise PositivityError(
            f"influence values reach {worst:.3e} even after trimming; "
            "a conditioning probability is effectively zero"
        )


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def plugin(spec: Estimand, dataset: Dataset, nuis, alpha: float = DEFAULT_ALPHA):
    """Plug-in estimate; no debiasing, interval from the EIF at the plug-in."""
    cols = ColumnSet.from_dataset(dataset)
    psi = spec.plugin_estimate(cols, nuis)
    phi = _eif(spec, cols, nuis)(psi)
    _check_eif_magnitude(phi)
    diag = _base_diagnostics(nuis, solver_iterations=0)
    return _assemble(spec, "plugin", psi, phi, alpha, diag)


def one_step(spec: Estimand, dataset: Dataset, nuis, alpha: float = DEFAULT_ALPHA):
    """Plug-in plus the average influence function at the plug-in."""
    cols = ColumnSet.from_dataset(dataset)
    plug = spec.plugin_estimate(cols, nuis)
    eif = _eif(spec, cols, nuis)
    phi_plug = eif(plug)
    _check_eif_magnitude(phi_plug)
    psi = plug + float(np.mean(phi_plug))
    phi = eif(psi)
    diag = _base_diagnostics(nuis, plugin_psi=float(plug), solver_iterations=0)
    return _assemble(spec, "one_step", psi, phi, alpha, diag)


def estimating_equation(
    spec: Estimand, dataset: Dataset, nuis, alpha: float = DEFAULT_ALPHA
):
    """Solve mean influence = 0 in psi.

    Estimands whose influence function is affine in psi solve in closed form,
    written as plug-in + correction so that slope-one estimands reproduce the
    one-step arithmetic operation by operation.  The quantile's estimating
    function is a step function in psi; bisection finds its sign change, and
    the density denominator (a positive constant in psi) drops out of the
    root-finding entirely.
    """
    cols = ColumnSet.from_dataset(dataset)
    diag = _base_diagnostics(nuis)
    if isinstance(spec, Quantile):
        lo = float(np.min(cols.y)) - 1.0
        hi = float(np.max(cols.y)) + 1.0
        r_lo = spec.ee_residual(cols, lo)
        r_hi = spec.ee_residual(cols, hi)
        if not (r_lo > 0.0 > r_hi):
            raise SolverError(
                f"estimating function has no sign change on [{lo}, {hi}]"
            )
        iterations = 0
        while hi - lo > QUANTILE_SOLVER_TOL and iterations < QUANTILE_SOLVER_MAX_ITER:
            mid = 0.5 * (lo + hi)
            if spec.ee_residual(cols, mid) > 0.0:
                lo = mid
            else:
                hi = mid
            iterations += 1
        psi = 0.5 * (lo + hi)
        diag["solver_iterations"] = iterations
        phi = spec.eif_values(cols, nuis, psi)
    elif spec.affine:
        psi0 = spec.plugin_estimate(cols, nuis)
        u, s = spec.eif_terms(cols, nuis)
        mean_s = float(np.mean(s))
        if abs(mean_s) < 1e-12:
            raise SolverError(
                "estimating equation is degenerate: the psi coefficient averages to zero"
            )
        psi = psi0 + float(np.mean(u - s * psi0)) / mean_s
        diag["plugin_psi"] = float(psi0)
        diag["solver_iterations"] = 0
        phi = u - s * psi
    else:
        raise ValidationError(
            f"no estimating-equation solver for estimand {spec.name!r}"
        )
    _check_eif_magnitude(phi)
    return _assemble(spec, "estimating_equation", psi, phi, alpha, diag)


def tmle(spec: Estimand, dataset: Dataset, nuis, alpha: float = DEFAULT_ALPHA):
    """Targeted update of the outcome regression for arm means and their contrast.

    Each arm's regression is fluctuated by epsilon / propensity with epsilon
    solving the arm's score equation in closed form (the equation is linear
    in epsilon), after which the plug-in of the retargeted fit satisfies
    mean-influence = 0 by construction; that residual is checked against
    ``TMLE_SCORE_TOL`` and reported.
    """
    if isinstance(spec, Ate):
        arms = (1.0, 0.0)
    elif isinstance(spec, PotentialOutcomeMean):
        arms = (float(spec.x),)
    else:
        raise ValidationError(
            "the targeted estimator is implemented for potential-outcome means "
            f"and their contrast, not {spec.name!r}"
        )
    cols = ColumnSet.from_dataset(dataset)
    nuis.require("outcome_mean", "propensity")
    values = nuis.table(spec, cols)
    pi_one = values["propensity"]
    if np.any((pi_one <= 0.0) | (pi_one >= 1.0)):
        raise PositivityError("propensity predictions must lie strictly inside (0, 1)")
    diag = _base_diagnostics(nuis, solver_iterations=0)
    arm_psi, arm_centered, epsilons, scores = {}, {}, [], []
    for arm in arms:
        indicator = (cols.x == arm).astype(float)
        if indicator.sum() == 0.0:
            raise PositivityError(f"no observations with exposure level {arm!r}")
        pi_arm = pi_one if arm == 1.0 else 1.0 - pi_one
        m_arm = values[f"m{arm:g}"]
        weight = indicator / pi_arm
        epsilon = float(np.sum(weight * (cols.y - m_arm)) / np.sum(indicator / pi_arm**2))
        m_star = m_arm + epsilon / pi_arm
        psi_arm = float(np.mean(m_star))
        u_arm = weight * (cols.y - m_star) + m_star
        score = float(np.mean(u_arm) - psi_arm)
        if abs(score) > TMLE_SCORE_TOL:
            raise SolverError(
                f"targeted update failed to zero the arm-{arm:g} score: {score:.3e}"
            )
        arm_psi[arm] = psi_arm
        arm_centered[arm] = u_arm - psi_arm
        epsilons.append(epsilon)
        scores.append(score)
    if isinstance(spec, Ate):
        psi = arm_psi[1.0] - arm_psi[0.0]
        phi = arm_centered[1.0] - arm_centered[0.0]
    else:
        psi = arm_psi[arms[0]]
        phi = arm_centered[arms[0]]
    _check_eif_magnitude(phi)
    diag["tmle_epsilon"] = epsilons
    diag["tmle_score"] = scores
    return _assemble(spec, "tmle", psi, phi, alpha, diag)


ESTIMATORS = {
    "plugin": plugin,
    "one_step": one_step,
    "estimating_equation": estimating_equation,
    "tmle": tmle,
}


def estimate(
    spec: Estimand,
    dataset: Dataset,
    method: str = "one_step",
    settings: LearnerSettings = LearnerSettings(),
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
    alpha: float = DEFAULT_ALPHA,
) -> EstimateReport:
    """Fit cross-fitted nuisances and run one estimator end to end."""
    if method not in ESTIMATORS:
        raise ValidationError(
            f"unknown method {method!r}; choose from {sorted(ESTIMATORS)}"
        )
    plan = make_folds(dataset.values.shape[0], folds, seed)
    nuis = fit_cross_fitted_nuisances(dataset, spec, settings, plan)
    return ESTIMATORS[method](spec, dataset, nuis, alpha)
