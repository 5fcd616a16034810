"""Estimand catalog: target functionals, their influence functions, and
exact nuisances on finite-support laws.

Each estimand is a small frozen dataclass.  Its fields are its parameters:
``params()`` echoes them and ``from_config`` coerces each value to its
field's type.  Class-level declarations state the rest once:

* ``roles``: the data roles it reads, the outcome by default; a schema or
  ``ColumnSet`` without one is refused, naming the estimand and the role.
* ``slots``: the nuisance slots its influence function consumes, returned
  by ``nuisance_requirements()``.
* ``conditioning_cells``: the role groupings whose cells it conditions on;
  the derivative oracle skips a law with a near-empty cell.
* ``required_params``: the parameters a run configuration must spell out
  even where the field has a default, so a run never silently targets an
  unintended quantile or threshold.
* ``contrast``: for a contrast of potential-outcome means, its
  ``(arm, weight)`` pairs; its plug-in, the targeted estimator and the von
  Mises bound read the arms from it, and each arm's influence term is
  ``_pom_terms``.

Two pure operations carry the mathematics: ``plugin_value(law)``, the
functional evaluated exactly on an explicit finite-support law, and
``eif_values(cols, nuis, psi)``, the influence function at a batch of
observations given fitted or exact nuisances and a candidate value.

Nuisances enter through a table: ``nuis.table(spec, cols)`` checks the
declared slots once, then ``nuisance_values(cols, nuis)`` calls each slot
the influence function reads once, at the rows of ``cols``; it is the only
place slots are called at sample rows.  ``eif_terms`` and
``plugin_estimate`` are arithmetic on that table, which a ``NuisanceSet``
(exact or hand-made) evaluates on the spot and cross-fitted nuisances
build once per fold.  Values that are not per row (a density at the
quantile, a cdf at a threshold) come from ``nuis.probe``.

For every estimand except the quantile the influence function is affine in
psi, phi(o; psi) = u(o) - s(o) * psi, and ``eif_terms`` returns the (u, s)
arrays; estimators build plug-in, one-step, estimating-equation, and
targeted updates from them.  Two point-evaluation functionals (density at
a point, regression function at a point of a continuous regressor) are
deliberately constructible but every operation on them raises: they admit
no finite-variance influence function, so no root-n estimator exists.

On a finite-support law (a support array plus a probability vector) the
plug-ins and the exact nuisances are cell sums: ``law.cells(*roles)``
groups the atoms once per support (``support_columns`` likewise reads
their role columns once), and each cell mass or conditional mean is a
weighted ``np.bincount`` over that grouping (``cell_sums``).  A
plug-in takes a matrix whose rows are laws on one support and returns one
value per row, each with the bits of that row alone; ``plugin_value(law)``
is the one-row case.  The plug-ins never call ``eif_terms``, so the
derivative check of the influence function is not circular.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Optional

import numpy as np

from .distributions import Dataset, DiscreteDistribution, Schema, cell_sums, find_rows
from .errors import (
    NotPathwiseDifferentiableError,
    NuisanceError,
    PositivityError,
    SchemaError,
    ValidationError,
)

# ---------------------------------------------------------------------------
# observation batches and nuisance containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnSet:
    """Role-indexed column views of a batch of observations."""

    n: int
    y: Optional[np.ndarray] = None
    x: Optional[np.ndarray] = None
    Z: Optional[np.ndarray] = None
    M: Optional[np.ndarray] = None

    @staticmethod
    def from_matrix(schema: Schema, values: np.ndarray) -> "ColumnSet":
        values = np.atleast_2d(np.asarray(values, dtype=float))
        out_idx = schema.indices_with_role("outcome")
        exp_idx = schema.indices_with_role("exposure")
        cov_idx = schema.indices_with_role("covariate")
        med_idx = schema.indices_with_role("mediator")
        return ColumnSet(
            n=values.shape[0],
            y=values[:, out_idx[0]] if out_idx else None,
            x=values[:, exp_idx[0]] if exp_idx else None,
            Z=values[:, list(cov_idx)],
            M=values[:, list(med_idx)],
        )

    @staticmethod
    def from_dataset(dataset: Dataset) -> "ColumnSet":
        return ColumnSet.from_matrix(dataset.schema, dataset.values)

    def take(self, rows: np.ndarray) -> "ColumnSet":
        """The same roles at a subset of the rows."""
        pick = lambda a: None if a is None else a[rows]
        return ColumnSet(n=len(rows), y=pick(self.y), x=pick(self.x), Z=pick(self.Z),
                         M=pick(self.M))

    def require(self, name: str, *roles: str) -> None:
        """Refuse these columns if they lack a role that estimand ``name`` reads."""
        for role in roles:
            column = {"outcome": self.y, "exposure": self.x, "mediator": self.M}[role]
            if column is None or column.ndim == 2 and column.shape[1] == 0:
                raise _missing_role(name, role)


def _missing_role(name: str, role: str) -> SchemaError:
    article = "a" if role == "mediator" else "an"
    return SchemaError(f"estimand {name!r} needs {article} {role} column")


@dataclass(frozen=True)
class NuisanceSet:
    """Named nuisance slots consumed by influence functions.

    Function-valued slots take numpy arrays and return arrays of the same
    length.  Scalar slots hold pooled quantities (sample means, a residual
    variance) that are root-n estimable without cross-fitting.
    """

    outcome_mean: Optional[Callable] = None          # (x, Z) -> E[Y | X=x, Z]
    outcome_mean_grad: Optional[Callable] = None     # (x, Z) -> d/dx E[Y | X=x, Z]
    propensity: Optional[Callable] = None            # (Z,) -> P(X=1 | Z)
    conditional_mean_y: Optional[Callable] = None    # (Z,) -> E[Y | Z]
    conditional_mean_x: Optional[Callable] = None    # (Z,) -> E[X | Z]
    marginal_density: Optional[Callable] = None      # (y,) -> f(y)
    density_at_quantile: Optional[Callable] = None   # (y,) -> f(y)
    outcome_cdf: Optional[Callable] = None           # (y,) -> F(y)
    exposure_prob: Optional[Callable] = None         # (x,) -> P(X = x)
    joint_density: Optional[Callable] = None         # (x, Z) -> f(x, Z)
    joint_density_grad: Optional[Callable] = None    # (x, Z) -> df/dx
    mediator_law: Optional[Callable] = None          # (M, x, Z) -> f(M | x, Z)
    mediated_outcome: Optional[Callable] = None      # (M, x, Z) -> E[Y | M, x, Z]
    mediator_support: Optional[tuple] = None         # tuple of mediator value tuples
    mean_y: Optional[float] = None
    mean_x: Optional[float] = None
    exposure_residual_var: Optional[float] = None    # E[(X - E[X|Z])^2]

    def require(self, *slots: str) -> None:
        missing = sorted(s for s in slots if getattr(self, s) is None)
        if missing:
            raise NuisanceError(f"missing nuisance slots: {', '.join(missing)}")

    def table(self, spec: "Estimand", cols: ColumnSet) -> dict:
        """The per-row nuisance values ``spec`` reads at the rows of ``cols``."""
        cols.require(spec.name, *spec.roles)
        self.require(*spec.nuisance_requirements())
        return spec.nuisance_values(cols, self)

    def probe(self, name: str, *args) -> np.ndarray:
        """A function-valued slot at points that are not sample rows."""
        self.require(name)
        return np.asarray(getattr(self, name)(*args), dtype=float)

    def fold_average(self, fn: Callable[["NuisanceSet"], float]) -> float:
        return fn(self)


# ---------------------------------------------------------------------------
# estimand base
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimand:
    """Base class for target functionals."""

    name: ClassVar[str] = ""
    affine: ClassVar[bool] = True
    discrete_oracle: ClassVar[bool] = True
    roles: ClassVar[tuple] = ("outcome",)
    slots: ClassVar[frozenset] = frozenset()
    conditioning_cells: ClassVar[tuple] = ()
    required_params: ClassVar[tuple] = ()
    contrast: ClassVar[tuple] = ()

    def params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def describe(self) -> dict:
        return {"name": self.name, "params": self.params()}

    def validate_schema(self, schema: Schema) -> None:
        """Refuse a schema without a role this estimand reads."""
        for role in self.roles:
            if not schema.indices_with_role(role):
                raise _missing_role(self.name, role)

    def nuisance_requirements(self) -> frozenset:
        return self.slots

    def plugin_value(self, law: DiscreteDistribution) -> float:
        """The functional on ``law``: the one-row case of ``plugin_values``."""
        return float(self.plugin_values(law, law.probs[None, :])[0])

    def plugin_values(self, law: DiscreteDistribution, probs: np.ndarray) -> np.ndarray:
        """The functional on each law that puts a row of the (rows, atoms)
        matrix ``probs`` on the support of ``law``, one value per row."""
        raise NotImplementedError

    def nuisance_values(self, cols: ColumnSet, nuis: NuisanceSet) -> dict:
        """Every per-row nuisance value the influence function reads, as
        arrays over the rows of ``cols``; pooled scalars are repeated."""
        return {}

    def eif_terms(self, cols: ColumnSet, nuis: NuisanceSet):
        raise NotImplementedError

    def eif_values(self, cols: ColumnSet, nuis: NuisanceSet, psi: float) -> np.ndarray:
        u, s = self.eif_terms(cols, nuis)
        return u - s * psi

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        """Plug-in estimate on data given fitted nuisances."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# cell sums on finite-support laws
# ---------------------------------------------------------------------------


def support_columns(law: DiscreteDistribution) -> ColumnSet:
    """Role columns of a law's atoms, read-only, made once per support."""

    def build() -> ColumnSet:
        cols = ColumnSet.from_matrix(law.schema, law.values)
        for column in (cols.y, cols.x, cols.Z, cols.M):
            if column is not None:
                column.setflags(write=False)
        return cols

    return law.derived("role columns", build)


def _columns_of(spec: Estimand, law: DiscreteDistribution) -> ColumnSet:
    """Role columns of a law's atoms, refused without a role ``spec`` reads."""
    cols = support_columns(law)
    cols.require(spec.name, *spec.roles)
    return cols


def _cell_mean(cell: np.ndarray, weights: np.ndarray, values) -> np.ndarray:
    """Weighted mean of ``values`` within each cell; NaN in a cell of zero weight."""
    mass = cell_sums(cell, weights)
    return np.divide(
        cell_sums(cell, weights * values), mass,
        out=np.full(mass.shape, np.nan), where=mass > 0.0,
    )


def _total(terms: np.ndarray) -> np.ndarray:
    """Sum along the last axis from left to right.  Plug-in values feed finite
    differences with steps near 1e-6, so their last bits decide which atom
    gives a trial's worst derivative error; a fixed order keeps recorded
    sweeps reproducible."""
    return np.cumsum(terms, axis=-1)[..., -1]


def _dots(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.dot`` of each row of ``probs`` with ``values``, one row at a time:
    a matrix product may add in another order."""
    return np.array([np.dot(p, values) for p in probs])


def _defined(values: np.ndarray, need: np.ndarray, keys: np.ndarray, what: str) -> np.ndarray:
    """Per-cell ``values`` where ``need`` holds and 0 elsewhere.  A needed
    value that is undefined (NaN: its cell has zero probability) raises."""
    bad = need & np.isnan(values)
    if bad.any():
        cell = tuple(keys[bad.nonzero()[-1][0]].tolist())
        raise PositivityError(f"{what} undefined at cell {cell!r}, which has zero probability")
    return np.where(need, values, 0.0)


def _reader(keys: np.ndarray, table: np.ndarray, what: str, default: Optional[float] = None):
    """Nuisance function reading ``table`` at the cell of each query row,
    given as column blocks in the order of the keys' columns.  A row outside
    the cells or at a NaN reads ``default``, or raises without one."""

    def read(*blocks):
        rows = np.column_stack([np.asarray(b, dtype=float) for b in blocks])
        at = find_rows(keys, rows)
        out = np.where(at >= 0, table[at], np.nan)
        if default is not None:
            return np.where(np.isnan(out), default, out)
        return _defined(out, np.ones(out.shape, dtype=bool), rows, what)

    return read


def _standardized_terms(law: DiscreteDistribution, c: ColumnSet, probs, arm: float) -> np.ndarray:
    """P(Z=z) E[Y | X=arm, Z=z] for each covariate cell, 0 in a cell of no mass."""
    zkeys, z = law.cells("covariate")
    pz = cell_sums(z, probs)
    m = _cell_mean(z, probs * (c.x == arm), c.y)
    return pz * _defined(m, pz > 0.0, zkeys, f"outcome mean at X={arm:g}")


def _residuals(law: DiscreteDistribution, c: ColumnSet, probs) -> tuple[np.ndarray, np.ndarray]:
    """Y - E[Y|Z] and X - E[X|Z] at each atom of positive probability, and 0
    at the others (an atom of zero probability may sit in a cell with no mean)."""
    _, z = law.cells("covariate")
    live = probs > 0.0
    ry = np.where(live, c.y - _cell_mean(z, probs, c.y)[..., z], 0.0)
    rx = np.where(live, c.x - _cell_mean(z, probs, c.x)[..., z], 0.0)
    return ry, rx


def _outcome_cdf(law: DiscreteDistribution, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct outcome values in increasing order and the cdf at each."""
    keys, cell = law.cells("outcome")
    order = np.argsort(keys[:, 0], kind="stable")
    return keys[order, 0], np.cumsum(cell_sums(cell, probs)[..., order], axis=-1)


# ---------------------------------------------------------------------------
# concrete estimands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopulationMean(Estimand):
    """Mean of the outcome, E[Y]."""

    name: ClassVar[str] = "population_mean"

    def plugin_values(self, law: DiscreteDistribution, probs: np.ndarray) -> np.ndarray:
        return _dots(probs, _columns_of(self, law).y)

    def eif_terms(self, cols: ColumnSet, nuis: NuisanceSet):
        cols.require(self.name, *self.roles)
        return cols.y.astype(float), np.ones(cols.n)

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        cols.require(self.name, *self.roles)
        return float(np.mean(cols.y))


@dataclass(frozen=True)
class AverageDensity(Estimand):
    """Integral of the squared marginal outcome density, E[f(Y)].

    On a finite-support law the marginal density is the probability mass
    function, so the plug-in is the sum of squared atom masses.  The
    influence function is 2 * (f(y) - psi).
    """

    name: ClassVar[str] = "average_density"
    slots: ClassVar[frozenset] = frozenset({"marginal_density"})

    def plugin_values(self, law: DiscreteDistribution, probs: np.ndarray) -> np.ndarray:
        _columns_of(self, law)
        pmf = cell_sums(law.cells("outcome")[1], probs)
        return _total(pmf * pmf)

    def nuisance_values(self, cols: ColumnSet, nuis: NuisanceSet) -> dict:
        return {"marginal_density": np.asarray(nuis.marginal_density(cols.y), dtype=float)}

    def eif_terms(self, cols: ColumnSet, nuis: NuisanceSet):
        f = nuis.table(self, cols)["marginal_density"]
        return 2.0 * f, np.full(cols.n, 2.0)

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        cols.require(self.name, *self.roles)
        nuis.require("marginal_density")
        return nuis.fold_average(
            lambda fold: integrated_squared_density(fold.marginal_density, cols.y)
        )


SQUARED_DENSITY_POINTS = 4096


def integrated_squared_density(density, sample_y: np.ndarray) -> float:
    """Trapezoid integral of a fitted density squared over the sample range
    extended by five bandwidths on each side, on ``SQUARED_DENSITY_POINTS``
    nodes."""
    h = getattr(density, "bandwidth", None)
    if h is None:
        raise NuisanceError(
            "integrated squared density needs a kernel density fit with a bandwidth"
        )
    lo = float(np.min(sample_y)) - 5.0 * h
    hi = float(np.max(sample_y)) + 5.0 * h
    grid = np.linspace(lo, hi, SQUARED_DENSITY_POINTS)
    vals = np.asarray(density(grid), dtype=float)
    return float(np.trapezoid(vals * vals, grid))


@dataclass(frozen=True)
class Covariance(Estimand):
    """Covariance between outcome and exposure, E[(Y - EY)(X - EX)]."""

    name: ClassVar[str] = "covariance"
    roles: ClassVar[tuple] = ("outcome", "exposure")
    slots: ClassVar[frozenset] = frozenset({"mean_y", "mean_x"})

    def plugin_values(self, law: DiscreteDistribution, probs: np.ndarray) -> np.ndarray:
        c = _columns_of(self, law)
        return np.array([np.dot(p, (c.y - np.dot(p, c.y)) * (c.x - np.dot(p, c.x)))
                         for p in probs])

    def nuisance_values(self, cols: ColumnSet, nuis: NuisanceSet) -> dict:
        return {"mean_y": np.full(cols.n, nuis.mean_y), "mean_x": np.full(cols.n, nuis.mean_x)}

    def eif_terms(self, cols: ColumnSet, nuis: NuisanceSet):
        v = nuis.table(self, cols)
        return (cols.y - v["mean_y"]) * (cols.x - v["mean_x"]), np.ones(cols.n)

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        u, _ = self.eif_terms(cols, nuis)
        return float(np.mean(u))


def _propensity(values: dict) -> np.ndarray:
    """The table's propensity, refused unless strictly inside (0, 1)."""
    pi = values["propensity"]
    bad = (pi <= 0.0) | (pi >= 1.0)
    if np.any(bad):
        raise PositivityError(
            f"propensity must lie strictly inside (0, 1) but does not at "
            f"{int(bad.sum())} rows; trim or bound the propensity model"
        )
    return pi


def _arm(cols: ColumnSet, pi: np.ndarray, arm: int) -> tuple[np.ndarray, np.ndarray]:
    """An exposure arm's indicator and probability, for a propensity that
    ``_propensity`` has passed."""
    return (cols.x == float(arm)).astype(float), (pi if arm == 1 else 1.0 - pi)


def _pom_terms(cols: ColumnSet, indicator: np.ndarray, arm_prob: np.ndarray,
               m_arm: np.ndarray) -> np.ndarray:
    """Uncentered augmented inverse-probability (AIPW) terms for one exposure
    arm, from its ``_arm`` pieces and regression: the only place they are
    written."""
    return indicator / arm_prob * (cols.y - m_arm) + m_arm


@dataclass(frozen=True)
class _ArmMeans(Estimand):
    """Base of the estimands read from pi(Z) and m(arm, Z) for each arm of ``arms``."""

    arms: ClassVar[tuple] = (1, 0)
    roles: ClassVar[tuple] = ("outcome", "exposure")
    slots: ClassVar[frozenset] = frozenset({"outcome_mean", "propensity"})
    conditioning_cells: ClassVar[tuple] = (("covariate", "exposure"),)

    def nuisance_values(self, cols: ColumnSet, nuis: NuisanceSet) -> dict:
        """pi(Z) and, under key ``m<arm>``, m(arm, Z) for each arm."""
        values = {"propensity": np.asarray(nuis.propensity(cols.Z), dtype=float)}
        for arm in self.arms:
            m_arm = nuis.outcome_mean(np.full(cols.n, float(arm)), cols.Z)
            values[f"m{arm}"] = np.asarray(m_arm, dtype=float)
        return values

    def plugin_values(self, law: DiscreteDistribution, probs: np.ndarray) -> np.ndarray:
        """The ``contrast``'s weighted sum of standardized arm means."""
        c = _columns_of(self, law)
        terms = [w * _standardized_terms(law, c, probs, float(arm)) for arm, w in self.contrast]
        return _total(np.stack(terms, axis=-1).reshape(len(probs), -1))


@dataclass(frozen=True)
class PotentialOutcomeMean(_ArmMeans):
    """Mean outcome with the exposure set to a fixed arm, E[E[Y | X=x, Z]]."""

    x: int = 1
    name: ClassVar[str] = "potential_outcome_mean"

    def __post_init__(self) -> None:
        if self.x not in (0, 1):
            raise ValidationError(f"potential outcome arm must be 0 or 1, got {self.x!r}")

    @property
    def contrast(self) -> tuple:
        return ((self.x, 1.0),)

    @property
    def arms(self) -> tuple:
        return (self.x,)

    def eif_terms(self, cols: ColumnSet, nuis: NuisanceSet):
        v = nuis.table(self, cols)
        u = _pom_terms(cols, *_arm(cols, _propensity(v), self.x), v[f"m{self.x}"])
        return u, np.ones(cols.n)

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        return float(np.mean(nuis.table(self, cols)[f"m{self.x}"]))


@dataclass(frozen=True)
class Ate(_ArmMeans):
    """Average treatment effect, E[E[Y|X=1,Z] - E[Y|X=0,Z]]."""

    name: ClassVar[str] = "ate"
    contrast: ClassVar[tuple] = ((1, 1.0), (0, -1.0))

    def eif_terms(self, cols: ColumnSet, nuis: NuisanceSet):
        v = nuis.table(self, cols)
        pi = _propensity(v)
        u1 = _pom_terms(cols, *_arm(cols, pi, 1), v["m1"])
        return u1 - _pom_terms(cols, *_arm(cols, pi, 0), v["m0"]), np.ones(cols.n)

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        v = nuis.table(self, cols)
        return float(np.mean(v["m1"] - v["m0"]))


@dataclass(frozen=True)
class _Residualized(Estimand):
    """Base of the estimands read from E[Y | Z] and E[X | Z]."""

    roles: ClassVar[tuple] = ("outcome", "exposure")
    slots: ClassVar[frozenset] = frozenset({"conditional_mean_y", "conditional_mean_x"})
    conditioning_cells: ClassVar[tuple] = (("covariate",),)

    def nuisance_values(self, cols: ColumnSet, nuis: NuisanceSet) -> dict:
        return {s: np.asarray(getattr(nuis, s)(cols.Z), dtype=float)
                for s in ("conditional_mean_y", "conditional_mean_x")}


@dataclass(frozen=True)
class ExpectedConditionalCovariance(_Residualized):
    """E[(Y - E[Y|Z])(X - E[X|Z])], covariance net of measured covariates."""

    name: ClassVar[str] = "expected_conditional_covariance"

    def plugin_values(self, law: DiscreteDistribution, probs: np.ndarray) -> np.ndarray:
        ry, rx = _residuals(law, _columns_of(self, law), probs)
        return _total(probs * ry * rx)

    def eif_terms(self, cols: ColumnSet, nuis: NuisanceSet):
        v = nuis.table(self, cols)
        u = (cols.y - v["conditional_mean_y"]) * (cols.x - v["conditional_mean_x"])
        return u, np.ones(cols.n)

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        u, _ = self.eif_terms(cols, nuis)
        return float(np.mean(u))


@dataclass(frozen=True)
class PartiallyLinearCoefficient(_Residualized):
    """Slope of the exposure in a partially linear outcome model.

    Defined as E[(X - E[X|Z])(Y - E[Y|Z])] / E[(X - E[X|Z])^2]; the
    influence function is
    [(x - gx)(y - gy) - (x - gx)^2 * psi] / E[(X - gx)^2].
    """

    name: ClassVar[str] = "partially_linear_coefficient"
    slots: ClassVar[frozenset] = _Residualized.slots | {"exposure_residual_var"}

    def plugin_values(self, law: DiscreteDistribution, probs: np.ndarray) -> np.ndarray:
        ry, rx = _residuals(law, _columns_of(self, law), probs)
        num = _total(probs * rx * ry)
        den = _total(probs * rx * rx)
        if np.any(den <= 0.0):
            raise PositivityError("exposure has no residual variance given covariates")
        return num / den

    def nuisance_values(self, cols: ColumnSet, nuis: NuisanceSet) -> dict:
        values = super().nuisance_values(cols, nuis)
        values["exposure_residual_var"] = np.full(cols.n, float(nuis.exposure_residual_var))
        return values

    def eif_terms(self, cols: ColumnSet, nuis: NuisanceSet):
        v = nuis.table(self, cols)
        den = v["exposure_residual_var"]
        if np.any(den <= 0.0):
            raise PositivityError("exposure has no residual variance given covariates")
        rx = cols.x - v["conditional_mean_x"]
        return rx * (cols.y - v["conditional_mean_y"]) / den, rx * rx / den

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        v = nuis.table(self, cols)
        gy, rx = v["conditional_mean_y"], cols.x - v["conditional_mean_x"]
        den = float(np.mean(rx * rx))
        if den <= 0.0:
            raise PositivityError("exposure has no residual variance given covariates")
        return float(np.mean(rx * (cols.y - gy)) / den)


@dataclass(frozen=True)
class AverageDerivativeEffect(Estimand):
    """Weighted average derivative of E[Y | X=x, Z] in a continuous exposure.

    With weight w the target is E[w(X) * d/dx E[Y | X, Z]] and the influence
    function is l(x, z)(y - m(x, z)) + w(x) m'(x, z) - psi, where
    l = -w'(x) - w(x) * (df/dx) / f and f is the joint density of (X, Z).
    The unit weight gives l = -(df/dx)/f.  Only continuous exposures are
    supported; finite-support laws are rejected.
    """

    weight_kind: str = "unit"
    weight_coefficients: tuple = ()
    name: ClassVar[str] = "average_derivative_effect"
    roles: ClassVar[tuple] = ("outcome", "exposure")
    discrete_oracle: ClassVar[bool] = False
    slots: ClassVar[frozenset] = frozenset(
        {"outcome_mean", "outcome_mean_grad", "joint_density", "joint_density_grad"}
    )

    def __post_init__(self) -> None:
        if self.weight_kind not in ("unit", "polynomial"):
            raise ValidationError(
                f"weight_kind must be 'unit' or 'polynomial', got {self.weight_kind!r}"
            )
        if (self.weight_kind == "polynomial") != bool(self.weight_coefficients):
            raise ValidationError(
                "a polynomial weight needs at least one coefficient; the unit weight takes none"
            )
        object.__setattr__(
            self, "weight_coefficients", tuple(float(c) for c in self.weight_coefficients)
        )

    def params(self) -> dict:
        out = {"weight_kind": self.weight_kind}
        if self.weight_kind == "polynomial":
            out["weight_coefficients"] = list(self.weight_coefficients)
        return out

    def validate_schema(self, schema: Schema) -> None:
        super().validate_schema(schema)
        idx = schema.sole_index("exposure")
        if schema.columns[idx].kind != "continuous":
            raise ValidationError(
                "average derivative effect needs a continuous exposure; "
                f"column {schema.columns[idx].name!r} is {schema.columns[idx].kind}"
            )

    def weight_at(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        if self.weight_kind == "unit":
            return np.ones_like(x), np.zeros_like(x)
        coef = self.weight_coefficients
        w = np.zeros_like(x)
        wprime = np.zeros_like(x)
        for k, c in enumerate(coef):
            w += c * x**k
            if k >= 1:
                wprime += k * c * x ** (k - 1)
        return w, wprime

    def plugin_values(self, law: DiscreteDistribution, probs: np.ndarray) -> np.ndarray:
        raise ValidationError(
            "average derivative effect requires a continuous exposure; "
            "a finite-support law has no derivative in x"
        )

    def nuisance_values(self, cols: ColumnSet, nuis: NuisanceSet) -> dict:
        return {s: np.asarray(getattr(nuis, s)(cols.x, cols.Z), dtype=float)
                for s in sorted(self.slots)}

    def eif_terms(self, cols: ColumnSet, nuis: NuisanceSet):
        v = nuis.table(self, cols)
        f = v["joint_density"]
        if np.any(f <= 0.0):
            raise PositivityError("joint exposure density vanished at an observation")
        w, wprime = self.weight_at(cols.x)
        score = -wprime - w * v["joint_density_grad"] / f
        return score * (cols.y - v["outcome_mean"]) + w * v["outcome_mean_grad"], np.ones(cols.n)

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        mprime = nuis.table(self, cols)["outcome_mean_grad"]
        w, _ = self.weight_at(cols.x)
        return float(np.mean(w * mprime))


@dataclass(frozen=True)
class Quantile(Estimand):
    """The tau-th quantile of the outcome distribution.

    The influence function [Theta(y - psi) + tau - 1] / f(psi) is not
    affine in psi (Theta is the right-continuous step function), so the
    estimating-equation solver uses bisection for this estimand and the
    numerical verification runs on smooth families instead of
    finite-support laws.
    """

    tau: float = 0.5
    name: ClassVar[str] = "quantile"
    affine: ClassVar[bool] = False
    discrete_oracle: ClassVar[bool] = False
    slots: ClassVar[frozenset] = frozenset({"density_at_quantile"})
    required_params: ClassVar[tuple] = ("tau",)

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ValidationError(f"quantile level must be in (0, 1), got {self.tau!r}")

    def plugin_values(self, law: DiscreteDistribution, probs: np.ndarray) -> np.ndarray:
        _columns_of(self, law)
        points, cdf = _outcome_cdf(law, probs)
        reached = cdf >= self.tau - 1e-15
        return points[np.where(reached.any(axis=-1), reached.argmax(axis=-1), -1)]

    def eif_values(self, cols: ColumnSet, nuis: NuisanceSet, psi: float) -> np.ndarray:
        cols.require(self.name, *self.roles)
        dens = float(nuis.probe("density_at_quantile", np.asarray([psi]))[0])
        if dens <= 0.0:
            raise PositivityError(f"outcome density at the quantile is {dens!r}; need > 0")
        theta = (cols.y - psi >= 0.0).astype(float)
        return (theta + self.tau - 1.0) / dens

    def ee_residual(self, cols: ColumnSet, psi: float) -> float:
        """Mean of the unscaled estimating function at psi."""
        theta = (cols.y - psi >= 0.0).astype(float)
        return float(np.mean(theta) + self.tau - 1.0)

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        cols.require(self.name, *self.roles)
        ys = np.sort(cols.y)
        k = int(np.ceil(self.tau * cols.n)) - 1
        return float(ys[min(max(k, 0), cols.n - 1)])


@dataclass(frozen=True)
class TailConditionalExpectation(Estimand):
    """E[Y | Y <= threshold], the mean of the lower tail.

    The influence function Theta(threshold - y) * (y - psi) / F(threshold)
    is exactly zero for observations above the threshold.
    """

    threshold: float = 0.0
    name: ClassVar[str] = "tail_conditional_expectation"
    slots: ClassVar[frozenset] = frozenset({"outcome_cdf"})
    required_params: ClassVar[tuple] = ("threshold",)

    def __post_init__(self) -> None:
        if not np.isfinite(self.threshold):
            raise ValidationError(f"threshold must be finite, got {self.threshold!r}")

    def plugin_values(self, law: DiscreteDistribution, probs: np.ndarray) -> np.ndarray:
        y = _columns_of(self, law).y
        inside = y <= self.threshold
        mass = _dots(probs, inside)
        if np.any(mass <= 0.0):
            raise PositivityError(
                f"no outcome mass at or below threshold {self.threshold!r}"
            )
        return _dots(probs, y * inside) / mass

    def eif_terms(self, cols: ColumnSet, nuis: NuisanceSet):
        cols.require(self.name, *self.roles)
        F = float(nuis.probe("outcome_cdf", np.asarray([self.threshold]))[0])
        if F <= 0.0:
            raise PositivityError(
                f"outcome distribution puts no mass at or below {self.threshold!r}"
            )
        inside = (cols.y <= self.threshold).astype(float)
        return inside * cols.y / F, inside / F

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        cols.require(self.name, *self.roles)
        inside = cols.y <= self.threshold
        if not np.any(inside):
            raise PositivityError(
                f"no observations at or below threshold {self.threshold!r}"
            )
        return float(np.mean(cols.y[inside]))


@dataclass(frozen=True)
class ConditionalCdf(Estimand):
    """P(Y <= y | X = x) for a discrete exposure level x.

    The influence function is 1{X = x} (Theta(y - Y) - psi) / P(X = x).
    """

    y: float = 0.0
    x: float = 0.0
    name: ClassVar[str] = "conditional_cdf"
    roles: ClassVar[tuple] = ("outcome", "exposure")
    slots: ClassVar[frozenset] = frozenset({"exposure_prob"})
    required_params: ClassVar[tuple] = ("y", "x")

    def __post_init__(self) -> None:
        if not np.isfinite(self.y) or not np.isfinite(self.x):
            raise ValidationError("conditional cdf needs finite y and x")

    def validate_schema(self, schema: Schema) -> None:
        super().validate_schema(schema)
        idx = schema.sole_index("exposure")
        if schema.columns[idx].kind == "continuous":
            raise ValidationError(
                "conditional cdf conditions on X = x, which has probability zero "
                "for a continuous exposure; declare the exposure binary or discrete"
            )

    def plugin_values(self, law: DiscreteDistribution, probs: np.ndarray) -> np.ndarray:
        self.validate_schema(law.schema)
        c = support_columns(law)
        at_level = c.x == self.x
        px = _dots(probs, at_level)
        if np.any(px <= 0.0):
            raise PositivityError(f"exposure level {self.x!r} has zero probability")
        return _dots(probs, at_level * (c.y <= self.y)) / px

    def eif_terms(self, cols: ColumnSet, nuis: NuisanceSet):
        cols.require(self.name, *self.roles)
        px = float(nuis.probe("exposure_prob", np.asarray([self.x]))[0])
        if px <= 0.0:
            raise PositivityError(f"exposure level {self.x!r} has zero probability")
        at_level = (cols.x == self.x).astype(float)
        below = (cols.y <= self.y).astype(float)
        return at_level * below / px, at_level / px

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        cols.require(self.name, *self.roles)
        at_level = cols.x == self.x
        if not np.any(at_level):
            raise PositivityError(f"no observations with exposure level {self.x!r}")
        return float(np.mean(cols.y[at_level] <= self.y))


@dataclass(frozen=True)
class InterventionalDirectEffect(Estimand):
    """Mean outcome when the exposure is set to x1 but the mediator is drawn
    from its law under x0: E_Z[ sum_m E[Y | M=m, X=x1, Z] f(m | x0, Z) ].

    Requires a mediator with finite support.
    """

    x1: int = 1
    x0: int = 0
    name: ClassVar[str] = "interventional_direct_effect"
    roles: ClassVar[tuple] = ("outcome", "exposure", "mediator")
    slots: ClassVar[frozenset] = frozenset(
        {"mediated_outcome", "mediator_law", "propensity", "mediator_support"}
    )
    conditioning_cells: ClassVar[tuple] = (("covariate", "exposure"),)

    def __post_init__(self) -> None:
        if self.x1 not in (0, 1) or self.x0 not in (0, 1):
            raise ValidationError("interventional direct effect arms must be 0 or 1")

    def validate_schema(self, schema: Schema) -> None:
        super().validate_schema(schema)
        for i in schema.indices_with_role("mediator"):
            if schema.columns[i].kind == "continuous":
                raise ValidationError(
                    "interventional direct effect sums over the mediator support; "
                    f"column {schema.columns[i].name!r} must be binary or discrete"
                )

    def plugin_values(self, law: DiscreteDistribution, probs: np.ndarray) -> np.ndarray:
        c = _columns_of(self, law)
        zkeys, z = law.cells("covariate")
        keys, cell = law.cells("covariate", "exposure", "mediator")
        _, zm = law.cells("covariate", "mediator")
        pz, pz_x0 = cell_sums(z, probs), cell_sums(z, probs * (c.x == self.x0))
        lost = (pz > 0.0) & (pz_x0 <= 0.0)
        if lost.any():
            zkey = tuple(zkeys[lost.nonzero()[-1][0]].tolist())
            raise PositivityError(f"cell X={self.x0}, Z={zkey!r} has zero probability")
        # b(m, z) = E[Y | M=m, X=x1, Z=z] for each (z, x0, m) cell with mass,
        # weighted by f(m | x0, z) = P(z, x0, m) / P(z, x0) and summed within z
        first = np.unique(cell, return_index=True)[1]  # each cell's first atom
        z_of, zm_of, x_of = z[first], zm[first], c.x[first]
        mass = cell_sums(cell, probs)
        used = (x_of == self.x0) & (mass > 0.0)
        b = _cell_mean(zm, probs * (c.x == self.x1), c.y)[..., zm_of]
        b = _defined(b, used, keys, "mediated outcome mean")
        f_m = np.divide(mass, pz_x0[..., z_of], out=np.zeros(mass.shape), where=used)
        inner = cell_sums(z_of, b * f_m)  # every covariate cell has a (z, x, m) cell
        return _total(pz * inner)

    def nuisance_values(self, cols: ColumnSet, nuis: NuisanceSet) -> dict:
        n = cols.n
        x1_vec, x0_vec = np.full(n, float(self.x1)), np.full(n, float(self.x0))
        values = {"propensity": np.asarray(nuis.propensity(cols.Z), dtype=float)}
        for key, slot, arm in (
            ("mediator_law_x1", nuis.mediator_law, x1_vec),
            ("mediator_law_x0", nuis.mediator_law, x0_vec),
            ("mediated_outcome", nuis.mediated_outcome, x1_vec),
        ):
            values[key] = np.asarray(slot(cols.M, arm, cols.Z), dtype=float)
        # a(z) = sum_m b(m, x1, z) f(m | x0, z) over the mediator support
        a = np.zeros(n)
        for m_point in nuis.mediator_support:
            M_rep = np.tile(np.asarray(m_point, dtype=float), (n, 1))
            b_m = np.asarray(nuis.mediated_outcome(M_rep, x1_vec, cols.Z), dtype=float)
            f_m = np.asarray(nuis.mediator_law(M_rep, x0_vec, cols.Z), dtype=float)
            a += b_m * f_m
        values["mediated_mean"] = a
        return values

    def eif_terms(self, cols: ColumnSet, nuis: NuisanceSet):
        v = nuis.table(self, cols)
        pi = _propensity(v)
        at_x1, p_x1 = _arm(cols, pi, self.x1)
        at_x0, p_x0 = _arm(cols, pi, self.x0)
        f_m_x1, f_m_x0 = v["mediator_law_x1"], v["mediator_law_x0"]
        if np.any(f_m_x1 <= 0.0):
            raise PositivityError("mediator law vanished under the x1 arm")
        b_obs, a = v["mediated_outcome"], v["mediated_mean"]
        u = (
            at_x1 * f_m_x0 / (f_m_x1 * p_x1) * (cols.y - b_obs)
            + at_x0 / p_x0 * (b_obs - a)
            + a
        )
        return u, np.ones(cols.n)

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        return float(np.mean(nuis.table(self, cols)["mediated_mean"]))


@dataclass(frozen=True)
class IncrementalPropensity(_ArmMeans):
    """Mean outcome after multiplying the odds of exposure by epsilon.

    The shifted propensity is g(z) = eps * pi(z) / (eps * pi(z) + 1 - pi(z))
    and the target is E[m(1, Z) g(Z) + m(0, Z)(1 - g(Z))].  At eps = 1 the
    target reduces to E[Y].
    """

    epsilon: float = 2.0
    name: ClassVar[str] = "incremental_propensity"

    def __post_init__(self) -> None:
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValidationError(f"epsilon must be positive, got {self.epsilon!r}")

    def plugin_values(self, law: DiscreteDistribution, probs: np.ndarray) -> np.ndarray:
        c = _columns_of(self, law)
        zkeys, z = law.cells("covariate")
        pz = cell_sums(z, probs)
        live = pz > 0.0
        pi = np.where(live, _cell_mean(z, probs, c.x == 1.0), 0.0)
        g1 = self.epsilon * pi / (self.epsilon * pi + 1.0 - pi)
        # an arm without mass in a cell carries no weight there
        m1 = _cell_mean(z, probs * (c.x == 1.0), c.y)
        m0 = _cell_mean(z, probs * (c.x == 0.0), c.y)
        m1 = _defined(m1, live & (g1 > 0.0), zkeys, "outcome mean, arm 1")
        m0 = _defined(m0, live & (g1 < 1.0), zkeys, "outcome mean, arm 0")
        term = np.where(g1 > 0.0, g1 * m1, 0.0) + np.where(g1 < 1.0, (1.0 - g1) * m0, 0.0)
        return _total(pz * term)

    def eif_terms(self, cols: ColumnSet, nuis: NuisanceSet):
        v = nuis.table(self, cols)
        pi, m1, m0 = _propensity(v), v["m1"], v["m0"]
        eps = self.epsilon
        denom = eps * pi + 1.0 - pi
        g1 = eps * pi / denom
        g0 = 1.0 - g1
        u = (
            g1 * _pom_terms(cols, *_arm(cols, pi, 1), m1)
            + g0 * _pom_terms(cols, *_arm(cols, pi, 0), m0)
            + g1 * g0 / (pi * (1.0 - pi)) * (cols.x - pi) * (m1 - m0)
        )
        return u, np.ones(cols.n)

    def plugin_estimate(self, cols: ColumnSet, nuis: NuisanceSet) -> float:
        v = nuis.table(self, cols)
        pi, eps = v["propensity"], self.epsilon
        g1 = eps * pi / (eps * pi + 1.0 - pi)
        return float(np.mean(g1 * v["m1"] + (1.0 - g1) * v["m0"]))


# ---------------------------------------------------------------------------
# rejected functionals
# ---------------------------------------------------------------------------


_POINT_EVAL_MESSAGE = (
    "{what} is a point-evaluation functional: under a nonparametric model its "
    "pathwise derivative is unbounded, so it admits no finite-variance influence "
    "function and no root-n estimator. Target a smoothed functional instead "
    "(for densities, the integrated squared density; for regression functions, "
    "an average over a region)."
)


@dataclass(frozen=True)
class _PointEvaluation(Estimand):
    """Base of the rejected functionals: every operation raises."""

    what: ClassVar[str] = ""
    discrete_oracle: ClassVar[bool] = False

    def _reject(self, *args):
        raise NotPathwiseDifferentiableError(_POINT_EVAL_MESSAGE.format(what=self.what))

    validate_schema = nuisance_requirements = plugin_value = plugin_values = _reject
    nuisance_values = eif_terms = eif_values = plugin_estimate = _reject


@dataclass(frozen=True)
class DensityAtPoint(_PointEvaluation):
    """Rejected: the density evaluated at a single point."""

    y: float = 0.0
    name: ClassVar[str] = "density_at_point"
    what: ClassVar[str] = "the density at a point"


@dataclass(frozen=True)
class ConditionalMeanAt(_PointEvaluation):
    """Rejected: E[Y | X = x] at a point of a continuous exposure."""

    x: float = 0.0
    name: ClassVar[str] = "conditional_mean_at"
    what: ClassVar[str] = "the regression function at a point of a continuous exposure"


# ---------------------------------------------------------------------------
# exact nuisances on a finite-support law
# ---------------------------------------------------------------------------


def require_oracle(spec: Estimand) -> None:
    """Refuse an estimand that needs a slot with no finite-support analogue."""
    if not spec.discrete_oracle:
        raise ValidationError(
            f"estimand {spec.name!r} has no finite-support oracle: finite-support laws "
            "cannot provide its nuisances; use smooth_path_check on a smooth family instead"
        )


def exact_nuisances(spec: Estimand, law: DiscreteDistribution) -> NuisanceSet:
    """Exact nuisance functions computed from an explicit finite-support law.

    Conditional means and laws are cell sums over the law's groupings;
    looking one up at a cell the law gives zero probability raises
    ``PositivityError``.  Estimands without a finite-support oracle (a
    continuous density at the quantile, a joint density in a continuous
    exposure) raise ``ValidationError``.
    """
    needs = spec.nuisance_requirements()
    require_oracle(spec)
    spec.validate_schema(law.schema)
    c = support_columns(law)
    p = law.probs
    fills: dict = {}

    if "outcome_mean" in needs:
        keys, cell = law.cells("exposure", "covariate")
        fills["outcome_mean"] = _reader(keys, _cell_mean(cell, p, c.y), "outcome mean")
    if needs & {"propensity", "conditional_mean_y", "conditional_mean_x"}:
        zkeys, z = law.cells("covariate")
        for slot, values, what in (
            ("propensity", c.x == 1.0, "propensity"),
            ("conditional_mean_y", c.y, "conditional outcome mean"),
            ("conditional_mean_x", c.x, "conditional exposure mean"),
        ):
            if slot in needs:
                fills[slot] = _reader(zkeys, _cell_mean(z, p, values), what)
    if "exposure_residual_var" in needs:
        _, rx = _residuals(law, c, p)
        fills["exposure_residual_var"] = float(_total(p * rx**2))
    if "marginal_density" in needs:
        keys, cell = law.cells("outcome")
        fills["marginal_density"] = _reader(
            keys, np.bincount(cell, weights=p), "outcome mass", default=0.0
        )
    if "outcome_cdf" in needs:
        points, cum = _outcome_cdf(law, p)

        def _cdf(yv):
            pos = np.searchsorted(points, np.atleast_1d(np.asarray(yv, dtype=float)), side="right")
            return np.where(pos > 0, cum[pos - 1], 0.0)

        fills["outcome_cdf"] = _cdf
    if "exposure_prob" in needs:
        keys, cell = law.cells("exposure")
        fills["exposure_prob"] = _reader(
            keys, np.bincount(cell, weights=p), "exposure probability", default=0.0
        )
    if "mean_y" in needs:
        fills["mean_y"] = float(np.dot(p, c.y))
    if "mean_x" in needs:
        fills["mean_x"] = float(np.dot(p, c.x))
    if needs & {"mediated_outcome", "mediator_law", "mediator_support"}:
        keys, cell = law.cells("mediator", "exposure", "covariate")
        _, given = law.cells("exposure", "covariate")
        fills["mediated_outcome"] = _reader(keys, _cell_mean(cell, p, c.y), "mediated outcome mean")
        # f(m | x, z) = P(M=m, X=x, Z=z) / P(X=x, Z=z); each cell's first atom gives its (x, z)
        first = np.unique(cell, return_index=True)[1]
        mass, given_mass = np.bincount(cell, weights=p), np.bincount(given, weights=p)[given[first]]
        f_m = np.divide(mass, given_mass, out=np.zeros_like(mass), where=given_mass > 0.0)
        fills["mediator_law"] = _reader(keys, f_m, "mediator law", default=0.0)
        fills["mediator_support"] = tuple(sorted(map(tuple, law.cells("mediator")[0].tolist())))
    return NuisanceSet(**fills)


# ---------------------------------------------------------------------------
# catalog registry
# ---------------------------------------------------------------------------


CATALOG = {
    cls.name: cls
    for cls in (
        PopulationMean,
        AverageDensity,
        Covariance,
        PotentialOutcomeMean,
        Ate,
        ExpectedConditionalCovariance,
        PartiallyLinearCoefficient,
        AverageDerivativeEffect,
        Quantile,
        TailConditionalExpectation,
        ConditionalCdf,
        InterventionalDirectEffect,
        IncrementalPropensity,
        DensityAtPoint,
        ConditionalMeanAt,
    )
}

def _integer(value) -> int:
    """An integral value: an int or integer text, read exactly at any size,
    or an integral number such as 5.0 or "5.0"."""
    if isinstance(value, (int, str)):
        with contextlib.suppress(ValueError):
            return int(value)
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(number)


def _boolean(value) -> bool:
    lowered = str(value).lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"{value!r} is not true or false")


def _numbers(value) -> tuple:
    """Numbers given as a sequence or as comma-separated text."""
    return tuple(float(v) for v in (value.split(",") if isinstance(value, str) else value))


# How a configured value is read for a field of each declared type, keyed by
# the annotation as written (this package's annotations are strings), with
# what the value must be; a field of any other type (``str``) takes the value
# as given.  Run configurations and estimand parameters both read through it.
_COERCE = {
    "int": (_integer, "an integer"),
    "float": (float, "a number"),
    "bool": (_boolean, "true or false"),
    "Union[str, float]": (lambda value: value if value == "auto" else float(value),
                          "'auto' or a number"),
    "tuple": (_numbers, "numbers separated by commas"),
}
_AS_GIVEN = (lambda value: value, "text")


def from_config(name: str, params: Optional[dict] = None) -> Estimand:
    """Build a catalog estimand from its name and keyword parameters, each
    coerced to the type its dataclass field declares."""
    if name not in CATALOG:
        raise ValidationError(
            f"unknown estimand {name!r}; available: {', '.join(sorted(CATALOG))}"
        )
    cls = CATALOG[name]
    return cls(**{key: _parameter(cls, key, value) for key, value in (params or {}).items()})


def _parameter(cls: type, key: str, value):
    """``value`` read for the parameter ``key`` of the estimand class ``cls``,
    as the type its field declares."""
    types = {f.name: f.type for f in fields(cls)}
    if key not in types:
        raise ValidationError(f"estimand {cls.name!r} does not accept parameters {[key]}")
    try:
        return _COERCE.get(types[key], _AS_GIVEN)[0](value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"estimand parameter {key}={value!r} is invalid: expected {types[key]}"
        ) from exc
