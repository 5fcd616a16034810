"""Cross-fitted estimation of catalog functionals.

Folds, per-fold nuisance fitting, and the debiasing constructions: plug-in,
one-step correction, estimating-equation solve, and the targeted
(fluctuation-based) estimator for arm means and their contrast.  Standard
errors come from the sample variance of the influence function values.  The
targeted influence values are the estimand's AIPW terms (``_pom_terms``),
taken over the arms and weights of its declared ``contrast``.

Nuisances are fit on each fold's complement.  ``_cross_fit`` runs
``_fit_fold_slots`` for one fold after another, so a failure is the first
failing fold's.  The first fold to ask for a slot has its OLS fits for all
folds (and all exposure arms) made in one stacked ``fit_ols`` call and its
logistic fits in one ``fit_logistic`` call per training size; each later
fold takes its own members.  Kernel fits stay per fold.

Each nuisance is evaluated once per row: after the fits, the estimand's
``nuisance_values`` runs once per fold, on that fold's held-out rows, and
fills one table of n-row arrays.  The estimators compute the
influence-function terms (u, s) once from it; plug-in, one-step,
estimating-equation and targeted values are arithmetic on those arrays.
Values that are not per row (a density at the estimated quantile, a cdf at
a threshold) go through ``probe``, the average over fold fits.
"""
from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._normal import normal_ppf
from .distributions import Dataset, seeded_rng
from .errors import (
    InfluenceLabError,
    NuisanceError,
    NumericalError,
    PositivityError,
    SolverError,
    ValidationError,
)
from .estimands import ColumnSet, Estimand, NuisanceSet, _arm, _pom_terms, _propensity
from .learners import (
    FeatureMap,
    LinearFit,
    LogisticFit,
    _check_ridge,
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
    rng = seeded_rng(seed)
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
        for key in ("outcome_degree", "propensity_degree"):
            degree = getattr(self, key)
            if not isinstance(degree, (int, np.integer)) or isinstance(degree, bool):
                raise ValidationError(f"{key} must be an integer, got {degree!r}")
        for key in ("outcome_interactions", "propensity_interactions"):
            flag = getattr(self, key)
            if not isinstance(flag, (bool, np.bool_)):
                raise ValidationError(f"{key} must be true or false, got {flag!r}")
        if not 0.0 <= self.trim < 0.5:
            raise ValidationError(f"trim must be in [0, 0.5), got {self.trim}")
        _check_ridge(self.ridge_lambda)
        FeatureMap(self.outcome_degree)  # refuses a degree outside [1, MAX_POLY_DEGREE]
        FeatureMap(self.propensity_degree)
        if not _auto_or_positive(self.bandwidth):
            raise ValidationError(
                f"bandwidth must be 'auto' or positive and finite, got {self.bandwidth!r}"
            )

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _auto_or_positive(bandwidth) -> bool:
    """Whether a bandwidth setting is "auto" or numbers, all positive and finite."""
    if isinstance(bandwidth, str):
        return bandwidth == "auto"
    try:
        h = np.asarray(bandwidth, dtype=float)
    except (TypeError, ValueError):
        return False
    return h.size > 0 and bool(np.all((h > 0.0) & np.isfinite(h)))


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


def _fit_learners(fits: _FoldFits, k: int, slot: str, family: str, problems: Callable):
    """Fold k's fits of the learner the settings name for ``family``
    ("outcome" or "propensity") on the raw columns V of each ``(V, target)``
    that ``problems(j)`` states for fold j: kernel ones fit here for fold k
    alone, OLS and logistic ones taken from ``fits``, which fits ``slot``
    for every fold at once.

    Returns, per problem, its prediction function of raw query columns and,
    for OLS and kernel fits, its derivative along the first column (None
    for logistic), or the exception its fit raised.  Probabilities come out
    raw; the callers clip them.  A logistic fit that did not converge gives
    ``SolverError``.
    """
    settings = fits.settings
    model = getattr(settings, f"{family}_model")
    if model == "kernel":  # kernel fits consume raw coordinates
        out = []
        for V, target in problems(k):
            try:
                out.append(_kernel_pair(fit_kernel_regression(V, target, settings.bandwidth)))
            except Exception as exc:  # raised by the caller, in the caller's order
                out.append(exc)
        return out
    fmap = FeatureMap(
        degree=getattr(settings, f"{family}_degree"),
        interactions=getattr(settings, f"{family}_interactions"),
    )
    return [_parametric_pair(fit, fmap) for fit in fits.members(k, slot, model, fmap, problems)]


def _kernel_pair(fit) -> tuple:
    return (lambda Vq: fit.predict(Vq)), (lambda Vq: fit.predict_grad(Vq, axis=0))


def _parametric_pair(fit, fmap: FeatureMap):
    if isinstance(fit, LinearFit):
        return (
            lambda Vq: fit.predict(fmap.transform(Vq)),
            lambda Vq: fit.predict_grad(fmap.grad_transform(Vq, axis=0)),
        )
    if isinstance(fit, LogisticFit):
        if not fit.converged:
            return SolverError(
                f"logistic fit did not converge in {fit.iterations} IRLS iterations"
            )
        return (lambda Vq: fit.predict(fmap.transform(Vq))), None
    return fit


def _fit_learner(fits: _FoldFits, k: int, slot: str, family: str, problem: Callable):
    """``_fit_learners`` of one problem per fold; a failed fit raises."""
    (fit,) = _fit_learners(fits, k, slot, family, lambda j: [problem(j)])
    return _fitted(fit)


def _fitted(fit):
    if isinstance(fit, Exception):
        raise fit
    return fit


class _ArmRegression:
    """One regression per exposure level; evaluation selects by level."""

    def __init__(self, fits: dict):
        self.fits = fits

    def __call__(self, x: np.ndarray, Z: np.ndarray) -> np.ndarray:
        x = _as_flat(x)
        out = np.empty(x.size, dtype=float)
        seen = np.zeros(x.size, dtype=bool)
        for level, predict in self.fits.items():
            mask = x == level
            if mask.all():  # one level, as for m(1, Z) and m(0, Z): no masked copy
                return predict(Z)
            if mask.any():
                out[mask] = predict(Z[mask])
                seen |= mask
        if not seen.all():
            bad = float(x[~seen][0])
            raise PositivityError(
                f"no training rows had exposure level {bad!r}; cannot predict there"
            )
        return out


def _fit_outcome_mean(fits: _FoldFits, k: int, binary_exposure: bool):
    """Fold k's regression of y on (x, Z); per-level fits when the exposure
    is discrete.

    The levels are fit together, then checked and taken level by level, so a
    failure is raised in the order of fitting them one after another."""
    t = fits.train
    if binary_exposure:
        arms = _fit_learners(fits, k, "outcome_mean", "outcome", lambda j: [
            (t[j].Z[mask], t[j].y[mask]) for mask in fits.levels(j).values()
        ])
        regressions = {}
        for (level, mask), fit in zip(fits.levels(k).items(), arms):
            if mask.sum() < 2:
                raise PositivityError(
                    f"fewer than two training rows with exposure level {float(level)!r}"
                )
            regressions[level] = _fitted(fit)[0]
        return _ArmRegression(regressions), None
    # continuous exposure: one fit on the joint (x, Z) coordinates
    mean, grad = _fit_learner(fits, k, "outcome_mean", "outcome",
                              lambda j: (_design(t[j].x, t[j].Z), t[j].y))
    return (lambda xq, Zq: mean(_design(xq, Zq))), (lambda xq, Zq: grad(_design(xq, Zq)))


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


def _fit_fold_slots(fits: _FoldFits, k: int, reqs: frozenset, binary_exposure: bool) -> dict:
    """Fit every required slot on the training rows of fold k.  Each OLS or
    logistic fit states its ``(V, target)`` for every fold j from the
    training columns ``t[j]`` (see ``_fit_learners``)."""
    slots: dict = {}
    settings, t = fits.settings, fits.train
    y, x, Z, M = t[k].y, t[k].x, t[k].Z, t[k].M

    if "outcome_mean" in reqs or "outcome_mean_grad" in reqs:
        mean_fn, grad_fn = _fit_outcome_mean(fits, k, binary_exposure)
        slots["outcome_mean"] = mean_fn
        if "outcome_mean_grad" in reqs:
            if grad_fn is None:
                raise NuisanceError(
                    "outcome mean gradient needs a continuous exposure model"
                )
            slots["outcome_mean_grad"] = grad_fn
    if "propensity" in reqs:
        _check_binary(x, "the exposure")
        slots["propensity"] = _fit_learner(fits, k, "propensity", "propensity",
                                           lambda j: (t[j].Z, t[j].x))[0]
    if "conditional_mean_y" in reqs:
        slots["conditional_mean_y"] = _fit_learner(fits, k, "conditional_mean_y", "outcome",
                                                   lambda j: (t[j].Z, t[j].y))[0]
    if "conditional_mean_x" in reqs or "exposure_residual_var" in reqs:
        cond_x = _fit_learner(fits, k, "conditional_mean_x", "outcome",
                              lambda j: (t[j].Z, t[j].x))[0]
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
            p_one = _fit_learner(fits, k, "mediator_law", "propensity",
                                 lambda j: (_design(t[j].x, t[j].Z), _as_flat(t[j].M)))[0]
            slots["mediator_law"] = p_one  # wrapped into f(M | x, Z) later
        if "mediated_outcome" in reqs:
            b = _fit_learner(fits, k, "mediated_outcome", "outcome",
                             lambda j: (_design(_as_flat(t[j].M), t[j].x, t[j].Z), t[j].y))[0]
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


class _FoldFits:
    """The training columns of each fold of one ``_cross_fit`` call, and
    the OLS and logistic fits of every fold, stacked once per slot.

    The first fold to ask for a slot has that slot's problems stated for
    every fold, fit in one ``fit_ols`` call per column count or one
    ``fit_logistic`` call per shape, and kept; each fold then takes its own
    members.  A member is the fit or the exception of its own call, so a
    fold takes what fitting it alone gives."""

    def __init__(self, cols: ColumnSet, plan: FoldPlan, settings: LearnerSettings):
        self.train = [cols.take(plan.training_rows(k)) for k in range(plan.K)]
        self.settings = settings
        self._levels: list = []
        self._members: dict = {}

    def levels(self, k: int) -> dict:
        """Fold k's exposure levels, each with the mask of its training rows."""
        if not self._levels:
            self._levels = [{level: c.x == level for level in np.unique(c.x)} for c in self.train]
        return self._levels[k]

    def members(self, k: int, slot: str, model: str, fmap: FeatureMap, problems: Callable):
        """Fold k's fits of ``slot``, whose problems for fold j are ``problems(j)``."""
        if slot not in self._members:
            asked = [problems(j) for j in range(len(self.train))]
            stacks: dict = {}
            with np.errstate(over="ignore"):  # the fit refuses features that overflowed
                for j, fold_problems in enumerate(asked):
                    for i, (V, target) in enumerate(fold_problems):
                        F = fmap.transform(V)
                        shape = F.shape if model == "logistic" else F.shape[1:]
                        stacks.setdefault(shape, []).append((j, i, F, target))
            fit = fit_ols if model == "ols" else fit_logistic
            fits = [[None] * len(fold_problems) for fold_problems in asked]
            for stack in stacks.values():
                stacked = fit([m[2] for m in stack], [m[3] for m in stack],
                              self.settings.ridge_lambda)
                for (j, i, _, _), member in zip(stack, stacked.members):
                    fits[j][i] = member
            self._members[slot] = fits
        return self._members[slot][k]


def _cross_fit(cols: ColumnSet, plan: FoldPlan, reqs: frozenset, settings: LearnerSettings,
               binary_exposure: bool) -> list:
    """Every fold's slots, from ``_fit_fold_slots`` run for folds 0, 1, ...,
    K - 1 in order: a failure is the first failing fold's first failure.
    The folds share one ``_FoldFits``, which stacks each slot's OLS or
    logistic fits of all folds when fold 0 asks for the slot."""
    fits = _FoldFits(cols, plan, settings)
    return [_in_fold(k, _fit_fold_slots, fits, k, reqs, binary_exposure) for k in range(plan.K)]


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


def _columns(spec: Estimand, dataset: Dataset) -> ColumnSet:
    """The role columns of ``dataset``, once ``spec`` has accepted its schema."""
    spec.validate_schema(dataset.schema)
    return ColumnSet.from_dataset(dataset)


def _outside(raw: np.ndarray, trim: float) -> int:
    return int(((raw < trim) | (raw > 1.0 - trim)).sum())


def fit_cross_fitted_nuisances(
    dataset: Dataset,
    spec: Estimand,
    settings: LearnerSettings = LearnerSettings(),
    *,
    plan: FoldPlan,
) -> CrossFittedNuisances:
    """Fit every slot the estimand needs on each fold's complement of the
    fold ``plan``, then evaluate the estimand's nuisance table once per
    fold, on its rows."""
    cols = _columns(spec, dataset)
    if plan.n != cols.n:
        raise ValidationError("fold plan was built for a different number of rows")
    reqs = spec.nuisance_requirements()
    exposure_idx = dataset.schema.indices_with_role("exposure")
    binary_exposure = bool(
        exposure_idx and dataset.schema.columns[exposure_idx[0]].kind != "continuous"
    )
    fold_slots = _cross_fit(cols, plan, reqs, settings, binary_exposure)
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
    bad = np.flatnonzero(~np.isfinite(phi))
    if bad.size:
        raise NumericalError(f"influence value at row {int(bad[0])} is {float(phi[bad[0]])}; "
                             "a nuisance or the estimate is not finite")
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
    cols = _columns(spec, dataset)
    psi = spec.plugin_estimate(cols, nuis)
    phi = _eif(spec, cols, nuis)(psi)
    _check_eif_magnitude(phi)
    diag = _base_diagnostics(nuis, solver_iterations=0)
    return _assemble(spec, "plugin", psi, phi, alpha, diag)


def one_step(spec: Estimand, dataset: Dataset, nuis, alpha: float = DEFAULT_ALPHA):
    """Plug-in plus the average influence function at the plug-in."""
    cols = _columns(spec, dataset)
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
    one-step arithmetic operation by operation.  The one non-affine estimand,
    the quantile, has a step-function estimating function in psi; bisection
    finds its sign change, and the density denominator (a positive constant
    in psi) drops out of the root-finding entirely.
    """
    cols = _columns(spec, dataset)
    diag = _base_diagnostics(nuis)
    if not spec.affine:
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
    else:
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
    _check_eif_magnitude(phi)
    return _assemble(spec, "estimating_equation", psi, phi, alpha, diag)


def tmle(spec: Estimand, dataset: Dataset, nuis, alpha: float = DEFAULT_ALPHA):
    """Targeted update of the outcome regression for each arm of the
    estimand's declared ``contrast`` (arm means and their difference).

    Each arm's regression is fluctuated by epsilon / propensity with epsilon
    solving the arm's score equation in closed form (the equation is linear
    in epsilon).  The arm's influence values are the estimand's own AIPW
    terms, ``_pom_terms``, at the retargeted regression, so the plug-in of
    the retargeted fit satisfies mean-influence = 0 by construction; that
    residual is checked against ``TMLE_SCORE_TOL`` and reported.  Estimate
    and influence values are the contrast's weighted sums over the arms.
    """
    if not spec.contrast:
        raise ValidationError(
            "the targeted estimator is implemented for potential-outcome means "
            f"and their contrast, not {spec.name!r}"
        )
    cols = _columns(spec, dataset)
    values = nuis.table(spec, cols)
    pi = _propensity(values)
    diag = _base_diagnostics(nuis, solver_iterations=0)
    psi, phi, epsilons, scores = 0.0, 0.0, [], []
    for arm, weight in spec.contrast:
        indicator, pi_arm = _arm(cols, pi, arm)
        if indicator.sum() == 0.0:
            raise PositivityError(f"no observations with exposure level {arm!r}")
        m_arm = values[f"m{arm}"]
        epsilon = float(np.sum(indicator / pi_arm * (cols.y - m_arm))
                        / np.sum(indicator / pi_arm**2))
        m_star = m_arm + epsilon / pi_arm
        psi_arm = float(np.mean(m_star))
        u_arm = _pom_terms(cols, indicator, pi_arm, m_star)
        score = float(np.mean(u_arm) - psi_arm)
        if abs(score) > TMLE_SCORE_TOL:
            raise SolverError(
                f"targeted update failed to zero the arm-{arm:g} score: {score:.3e}"
            )
        psi += weight * psi_arm
        phi += weight * (u_arm - psi_arm)
        epsilons.append(epsilon)
        scores.append(score)
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
    nuis = fit_cross_fitted_nuisances(dataset, spec, settings, plan=plan)
    return ESTIMATORS[method](spec, dataset, nuis, alpha)
