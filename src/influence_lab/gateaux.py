"""Numerical verification of influence functions.

The central identity being checked: along the mixture path
P_t = (1 - t) P + t Q, the derivative of the functional at t = 0 equals
the mean of the influence function under the contaminating law Q,

    d/dt Psi(P_t) |_{t=0} = E_Q[ phi(O, P) ],

and at the other end of the path

    d/dt Psi(P_t) |_{t=1} = - E_P[ phi(O, Q) ].

Derivatives are one-sided finite differences accelerated by Richardson
extrapolation; influence-function means use exact nuisances computed from
the finite-support laws, so any disagreement beyond tolerance indicts the
analytic influence function (or the plug-in), not the arithmetic.  Both
endpoint checks share one oracle guard and one skip rule, and a sweep's
``SweepResult`` reads its counts and worst error from its reports.

The Richardson table is written once, for paths in lockstep, and every
Gateaux ladder runs through one driver, ``_path_derivatives``: the paths
from a law p toward the rows q_r of a matrix, with one plug-in call per
window of ``LADDER_WINDOW`` halvings on the rows (1 - h) p + h q_r that
the one path builder, ``distributions.mixture_probs``, gives.  At t = 0 the
point-mass paths of a law are blocks of identity rows, so no law or path
is built per atom; at t = 1, and toward explicit contaminants, q is the
contaminant's one row on the path's union support.  The checks pass the
value at the endpoint, which they compute once for the influence function
too, so no ladder evaluates it again.  A window may evaluate steps past
convergence; if a plug-in call raises, each path runs again
alone, one step per call, so every derivative, halving count and error is
the one the step-by-step table gives.

The module also computes von Mises remainders
R(P, Q) = Psi(Q) - Psi(P) + E_P[ phi(O, Q) ] (second order in Q - P) and
runs the same derivative check on smooth location families for the
estimands that have no finite-support analogue (quantiles and average
derivatives need densities).  There too the analytic side is the
estimand's own ``eif_values``, so one influence-function implementation
per estimand serves the estimators and both oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import (
    DiscreteDistribution,
    MixturePath,
    Schema,
    Column,
    mixture_at,
    mixture_probs,
    seeded_rng,
)
from .errors import DerivativeUnstableError, InfluenceLabError, ValidationError
from .estimands import (
    AverageDensity,
    AverageDerivativeEffect,
    CATALOG,
    Estimand,
    NuisanceSet,
    Quantile,
    TailConditionalExpectation,
    exact_nuisances,
    require_oracle,
    support_columns,
)
from ._smooth import (
    GaussianRegressionFamily,
    NormalMixture,
    derivative_path_functions,
    quantile_path_functions,
    tail_path_functions,
)

FIRST_STEP = 1e-2
RICHARDSON_ORDER = 4
MAX_HALVINGS = 12
CONVERGENCE_RTOL = 1e-9
DEFAULT_TOLERANCE = 1e-6
MIN_CELL_PROB = 1e-6
REMAINDER_DECAY_STEPS = (0.2, 0.1, 0.05)
LOCKSTEP_ELEMENTS = 1 << 16  # probabilities per lockstep matrix; larger laws run in blocks
LADDER_WINDOW = RICHARDSON_ORDER + 1  # halvings per plug-in call of a derivative ladder


# ---------------------------------------------------------------------------
# Richardson-extrapolated one-sided derivative
# ---------------------------------------------------------------------------


def _richardson_rows(values: Callable, n: int, at: float, direction: float,
                     window: int = LADDER_WINDOW,
                     endpoint: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
    """``richardson_derivative`` for n functions g_r at once.  ``values(ts,
    rows)`` gives g_r(t) for each t of ``ts`` and each r of ``rows``, as a
    (len(ts), len(rows)) array.  It is asked for g(at), unless every g_r(at)
    is the known ``endpoint``, and the first ``window`` steps in one call,
    then for the next ``window`` steps at a time, and a row leaves the active
    set once it converges.  Returns the derivatives and halvings; raises what
    ``values`` raises, or ``DerivativeUnstableError`` for the first row that
    does not stabilize."""
    derivative, halvings = np.full(n, math.nan), np.zeros(n, dtype=int)
    rows, last = np.arange(n), []
    g0 = None if endpoint is None else np.full(n, float(endpoint))
    steps = [FIRST_STEP / (2.0**k) for k in range(MAX_HALVINGS + 1)]
    for k, h in enumerate(steps):
        if k % window == 0:
            ts = [at + direction * s for s in steps[k:k + window]]
            g = np.asarray(values(ts if g0 is not None else [at] + ts, rows), dtype=float)
            if g0 is None:
                g0, g = g[0], g[1:]
        row = [(g[k % window] - g0) / (direction * h)]
        for j in range(1, min(len(last) + 1, RICHARDSON_ORDER + 1)):
            factor = 2.0**j
            row.append((factor * row[j - 1] - last[j - 1]) / (factor - 1.0))
        if last:
            current, previous = row[-1], last[-1]
            scale = np.maximum(1.0, np.abs(current))
            done = np.abs(current - previous) <= CONVERGENCE_RTOL * scale
            converged = np.count_nonzero(done)
            if k == MAX_HALVINGS and converged < len(rows):
                i = np.argmin(done)
                raise DerivativeUnstableError(
                    f"one-sided derivative did not stabilize after {MAX_HALVINGS} halvings "
                    f"(last extrapolants {float(previous[i])!r}, {float(current[i])!r})"
                )
            if converged:
                derivative[rows[done]], halvings[rows[done]] = current[done], k
                if converged == len(rows):
                    return derivative, halvings
                rows, g0, g = rows[~done], g0[~done], g[:, ~done]
                row = [col[~done] for col in row]
        last = row


def richardson_derivative(
    g: Callable[[float], float],
    at: float = 0.0,
    direction: float = 1.0,
) -> tuple[float, int]:
    """One-sided derivative of g at ``at`` by successive halving.

    Forward differences D(h) = (g(at + direction * h) - g(at)) / (direction * h)
    carry an error expansion in powers of h; a Richardson table of order
    ``RICHARDSON_ORDER`` cancels the leading terms.  Returns the stabilized
    derivative and the number of step halvings used; raises
    ``DerivativeUnstableError`` when successive extrapolants fail to agree to
    ``CONVERGENCE_RTOL`` (relative) within ``MAX_HALVINGS`` halvings.  This
    is the one-row case of ``_richardson_rows``, one step per call of g.
    """
    derivative, halvings = _richardson_rows(
        lambda ts, rows: [[g(t)] for t in ts], 1, at, direction, window=1)
    return float(derivative[0]), int(halvings[0])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateauxReport:
    """Outcome of one derivative-versus-influence-function comparison."""

    spec: Estimand
    at_t: float
    numerical_derivative: float
    analytic_value: float
    halvings: int
    contaminant_label: str = ""
    skipped: bool = False
    skip_reason: str = ""

    @property
    def abs_error(self) -> float:
        return abs(self.numerical_derivative - self.analytic_value)

    @property
    def rel_error(self) -> float:
        return self.abs_error / max(1.0, abs(self.analytic_value))

    def to_json(self) -> dict:
        return {
            "estimand": self.spec.describe(),
            "at_t": self.at_t,
            "numerical_derivative": self.numerical_derivative,
            "analytic_value": self.analytic_value,
            "abs_error": self.abs_error,
            "rel_error": self.rel_error,
            "halvings": self.halvings,
            "contaminant": self.contaminant_label,
            "skipped": self.skipped,
            "skip_reason": self.skip_reason,
        }


@dataclass(frozen=True)
class RemainderReport:
    """Von Mises expansion terms for a (base, contaminant) pair.

    The expansion reads Psi(Q) = Psi(P) + drift - remainder with
    ``drift`` = -E_P[phi(O, Q)], so

        remainder R(P, Q) = -E_P[phi(O, Q)] - (Psi(Q) - Psi(P)).

    The identity Psi(Q) - Psi(P) - drift + remainder = 0 holds by
    construction; the informative fields are the remainder itself and any
    estimand-specific bound on it.
    """

    spec: Estimand
    psi_base: float
    psi_contaminant: float
    drift: float
    remainder: float
    bound: Optional[float] = None
    bound_kind: str = ""

    def to_json(self) -> dict:
        return {
            "estimand": self.spec.describe(),
            "psi_base": self.psi_base,
            "psi_contaminant": self.psi_contaminant,
            "drift": self.drift,
            "remainder": self.remainder,
            "bound": self.bound,
            "bound_kind": self.bound_kind,
        }


# ---------------------------------------------------------------------------
# expectation of the influence function under a finite-support law
# ---------------------------------------------------------------------------


def eif_mean_under(
    spec: Estimand,
    evaluation_law: DiscreteDistribution,
    nuisance_law: DiscreteDistribution,
    *,
    psi: Optional[float] = None,
) -> float:
    """E_Q[phi(O, P)] with Q the evaluation law and P the nuisance law;
    ``psi``, when given, is the known Psi(P)."""
    if psi is None:
        psi = spec.plugin_value(nuisance_law)
    return _eif_mean(spec, evaluation_law, exact_nuisances(spec, nuisance_law), psi)


def _eif_mean(spec: Estimand, law: DiscreteDistribution, nuis: NuisanceSet, psi: float) -> float:
    return float(np.dot(law.probs, spec.eif_values(support_columns(law), nuis, psi)))


def _path_derivatives(spec: Estimand, law: DiscreteDistribution, q: np.ndarray,
                      at_t: float, endpoint: Optional[float] = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Richardson derivatives of t -> Psi((1 - t) p + t q_r) at ``at_t``, for
    p the probabilities of ``law`` and each row q_r of the (rows, atoms)
    matrix ``q`` on its support, in lockstep windows of one ``plugin_values``
    call each.  ``endpoint``, when given, is Psi at ``at_t`` on every path
    and is not evaluated again.  If a call raises, perhaps at a step past
    some path's convergence, each path runs again alone, one step per call,
    and its value or first error is the result.  An unstable path raises at
    once: the rerun would raise it again."""
    direction = 1.0 if at_t == 0.0 else -1.0

    def values(ts: list, rows: np.ndarray) -> np.ndarray:
        probs = mixture_probs(law.probs, q[rows], ts)
        return spec.plugin_values(law, probs.reshape(-1, law.n_atoms)).reshape(len(ts), len(rows))

    try:
        return _richardson_rows(values, len(q), at_t, direction, endpoint=endpoint)
    except DerivativeUnstableError:
        raise
    except InfluenceLabError:
        pass
    alone = [_richardson_rows(lambda ts, rows: values(ts, rows + r), 1, at_t, direction,
                              window=1, endpoint=endpoint)
             for r in range(len(q))]
    return tuple(np.concatenate(parts) for parts in zip(*alone))


def numerical_gateaux(spec: Estimand, path: MixturePath, at_t: float = 0.0, *,
                      endpoint: Optional[float] = None) -> tuple[float, int]:
    """Richardson derivative of t -> Psi(P_t) at an endpoint of the path: the
    one-path case of ``_path_derivatives``, on the path's union support.
    ``endpoint``, when given, is the known Psi(P_at_t)."""
    if at_t not in (0.0, 1.0):
        raise ValidationError(f"derivative endpoint must be 0 or 1, got {at_t!r}")
    derivative, halvings = _path_derivatives(
        spec, path.union, path.contaminant_probs[None, :], at_t, endpoint)
    return float(derivative[0]), int(halvings[0])


def _min_conditioning_cell(spec: Estimand, law: DiscreteDistribution) -> float:
    """Smallest probability among the cells the estimand conditions on."""
    return min(
        (float(np.bincount(law.cells(*roles)[1], weights=law.probs).min())
         for roles in spec.conditioning_cells),
        default=1.0,
    )


def _skipped(spec: Estimand, law: DiscreteDistribution, at_t: float, labels, whose: str) -> list:
    """One skipped report per label when a conditioning cell of ``law`` is
    below ``MIN_CELL_PROB``, and none otherwise."""
    min_cell = _min_conditioning_cell(spec, law)
    if min_cell >= MIN_CELL_PROB:
        return []
    reason = f"a conditioning cell{whose} has probability {min_cell:.2e} < {MIN_CELL_PROB}"
    return [
        GateauxReport(
            spec=spec, at_t=at_t, numerical_derivative=math.nan, analytic_value=math.nan,
            halvings=0, contaminant_label=label, skipped=True, skip_reason=reason,
        )
        for label in labels
    ]


def verify_eif(
    spec: Estimand,
    base: DiscreteDistribution,
    contaminants: Optional[Sequence[DiscreteDistribution]] = None,
) -> list[GateauxReport]:
    """Check d/dt Psi(P_t)|_0 = E_Q[phi(O, P)] for each contaminant Q.

    By default every atom of the base support becomes a point-mass
    contaminant, and E_Q[phi] is phi at that atom: the exact nuisances of
    the base are built once and phi is evaluated at all atoms in one call,
    and the derivatives run in lockstep on blocks of identity rows, at most
    ``LOCKSTEP_ELEMENTS`` probabilities per plug-in call.  The first path
    (in order) whose derivative fails raises its error.  Paths whose base
    law has a conditioning cell below ``MIN_CELL_PROB`` are reported as
    skipped rather than silently passed.
    """
    require_oracle(spec)
    if contaminants is None:
        labels = [f"atom:{i}" for i in range(base.n_atoms)]
    else:
        labels = [f"law:{i}" for i in range(len(contaminants))]
    psi0 = spec.plugin_value(base)
    skipped = _skipped(spec, base, 0.0, labels, "")
    if skipped:
        return skipped
    nuis = exact_nuisances(spec, base)
    if contaminants is None:
        analytic = spec.eif_values(support_columns(base), nuis, psi0).tolist()
        n = base.n_atoms
        steps, size = [], max(1, LOCKSTEP_ELEMENTS // (n * (LADDER_WINDOW + 1)))
        for start in range(0, n, size):
            block = np.eye(min(size, n - start), n, start)  # point masses at these atoms
            derivative, halvings = _path_derivatives(spec, base, block, 0.0, psi0)
            steps += zip(derivative.tolist(), halvings.tolist())
    else:
        analytic = [_eif_mean(spec, q, nuis, psi0) for q in contaminants]
        steps = (numerical_gateaux(spec, MixturePath(base, q), 0.0, endpoint=psi0)
                 for q in contaminants)
    return [
        GateauxReport(
            spec=spec, at_t=0.0, numerical_derivative=value, analytic_value=phi,
            halvings=k, contaminant_label=label,
        )
        for label, phi, (value, k) in zip(labels, analytic, steps)
    ]


def check_t1_identity(
    spec: Estimand,
    base: DiscreteDistribution,
    contaminant: DiscreteDistribution,
) -> GateauxReport:
    """Check d/dt Psi(P_t)|_1 = -E_P[phi(O, Q)] on one path."""
    require_oracle(spec)
    skipped = _skipped(spec, contaminant, 1.0, ["law"], " of the contaminant")
    if skipped:
        return skipped[0]
    psi_q = spec.plugin_value(contaminant)  # Psi at t = 1, and the EIF's centre
    path = MixturePath(base, contaminant)
    derivative, halvings = numerical_gateaux(spec, path, at_t=1.0, endpoint=psi_q)
    analytic = -eif_mean_under(spec, base, contaminant, psi=psi_q)
    return GateauxReport(
        spec=spec, at_t=1.0, numerical_derivative=derivative,
        analytic_value=analytic, halvings=halvings, contaminant_label="law",
    )


# ---------------------------------------------------------------------------
# von Mises remainder
# ---------------------------------------------------------------------------


def von_mises_remainder(
    spec: Estimand,
    base: DiscreteDistribution,
    contaminant: DiscreteDistribution,
    nuisance_override: Optional[NuisanceSet] = None,
) -> RemainderReport:
    """Remainder of the first-order expansion of Psi at the contaminant.

    R(P, Q) = -E_P[phi(O, Q)] - (Psi(Q) - Psi(P)).  ``nuisance_override``
    replaces the exact nuisances of the contaminant when evaluating phi,
    which is how a correctly specified single nuisance (a known propensity,
    say) is expressed.

    Estimand-specific bounds attached to the report:

    * an estimand with a declared ``contrast`` (``Ate``,
      ``PotentialOutcomeMean``): per-arm Cauchy-Schwarz bound
      sqrt(E_P[(pi_arm/q_arm - 1)^2]) * sqrt(E_P[(m_arm - m_arm_q)^2]),
      summed over the contrast's arms.
    * ``AverageDensity``: the remainder equals sum_y (p(y) - q(y))^2
      exactly; the bound field carries that sum for comparison.
    """
    psi_p = spec.plugin_value(base)
    psi_q = spec.plugin_value(contaminant)
    if nuisance_override is None:
        nuis_q = exact_nuisances(spec, contaminant)
    else:
        nuis_q = nuisance_override
    cols = support_columns(base)
    phi_q = spec.eif_values(cols, nuis_q, psi_q)
    drift = -float(np.dot(base.probs, phi_q))
    remainder = drift - (psi_q - psi_p)
    bound = None
    bound_kind = ""
    if spec.contrast:
        bound = 0.0
        v_p = spec.nuisance_values(cols, exact_nuisances(spec, base))
        v_q = spec.nuisance_values(cols, nuis_q)
        for arm, _ in spec.contrast:
            pa_p, pa_q = v_p["propensity"], v_q["propensity"]
            if arm == 0:
                pa_p, pa_q = 1.0 - pa_p, 1.0 - pa_q
            ratio_sq = float(np.dot(base.probs, (pa_p / pa_q - 1.0) ** 2))
            diff_sq = float(np.dot(base.probs, (v_p[f"m{arm}"] - v_q[f"m{arm}"]) ** 2))
            bound += math.sqrt(ratio_sq) * math.sqrt(diff_sq)
        bound_kind = "cauchy_schwarz"
    elif isinstance(spec, AverageDensity):
        # the two endpoints of their path, on its union support
        path = MixturePath(base, contaminant)
        _, y = path.union.cells("outcome")
        gap = np.bincount(y, weights=path.union.probs) - np.bincount(
            y, weights=path.contaminant_probs)
        bound = float(np.dot(gap, gap))
        bound_kind = "exact_squared_mass"
    return RemainderReport(
        spec=spec, psi_base=psi_p, psi_contaminant=psi_q,
        drift=drift, remainder=remainder, bound=bound, bound_kind=bound_kind,
    )


def remainder_decay_check(
    spec: Estimand,
    base: DiscreteDistribution,
    contaminant: DiscreteDistribution,
    steps: Sequence[float] = REMAINDER_DECAY_STEPS,
) -> list[float]:
    """R(P, P_t) / t^2 along the path; second-order behavior means the
    ratios stabilize.  Returns the ratios for the given steps in (0, 1]."""
    outside = [t for t in steps if not 0.0 < t <= 1.0]
    if outside:
        raise ValidationError(f"remainder steps must lie in (0, 1], got {outside!r}")
    path = MixturePath(base, contaminant)
    ratios = []
    for t in steps:
        mixed = mixture_at(path, t)
        report = von_mises_remainder(spec, base, mixed)
        ratios.append(report.remainder / t**2)
    return ratios


# ---------------------------------------------------------------------------
# random law generators for verification sweeps
# ---------------------------------------------------------------------------


OUTCOME_ONLY = Schema((Column("y", "outcome", "continuous"),))
EXPOSURE_OUTCOME = Schema(
    (Column("x", "exposure", "discrete"), Column("y", "outcome", "continuous"))
)
FULL_SCHEMA = Schema(
    (
        Column("z", "covariate", "discrete"),
        Column("x", "exposure", "binary"),
        Column("y", "outcome", "continuous"),
    )
)
MEDIATION_SCHEMA = Schema(
    (
        Column("z", "covariate", "binary"),
        Column("x", "exposure", "binary"),
        Column("m", "mediator", "binary"),
        Column("y", "outcome", "continuous"),
    )
)


def _distinct_values(rng: np.random.Generator, count: int) -> list[float]:
    values: set = set()
    while len(values) < count:
        values.add(round(float(rng.normal()), 3))
    return sorted(values)


def random_law(rng: np.random.Generator, schema: Schema) -> DiscreteDistribution:
    """Random finite-support law with every conditioning cell positive.

    Cell structures follow the schema: covariate and exposure levels form a
    full product so conditional means exist everywhere, and outcome values
    within each cell are drawn fresh.  Dirichlet(1) weights over atoms.
    An outcome-only law has 3 to 12 atoms; an exposure-outcome law has 3
    outcome values per exposure level.
    """
    if schema is OUTCOME_ONLY or [c.role for c in schema.columns] == ["outcome"]:
        k = int(rng.integers(3, 13))
        support = [(v,) for v in _distinct_values(rng, k)]
    elif schema is EXPOSURE_OUTCOME:
        levels = [0.0, 1.0, 2.0][: int(rng.integers(2, 4))]
        support = []
        for lev in levels:
            for v in _distinct_values(rng, 3):
                support.append((lev, v))
    elif schema is FULL_SCHEMA:
        z_levels = [0.0, 1.0] if rng.random() < 0.7 else [0.0, 1.0, 2.0]
        per_cell = 2 if len(z_levels) == 3 else int(rng.integers(2, 4))
        support = []
        for z in z_levels:
            for x in (0.0, 1.0):
                for v in _distinct_values(rng, per_cell):
                    support.append((z, x, v))
    elif schema is MEDIATION_SCHEMA:
        support = []
        for z in (0.0, 1.0):
            for x in (0.0, 1.0):
                for m in (0.0, 1.0):
                    for v in _distinct_values(rng, 2):
                        support.append((z, x, m, v))
    else:
        raise ValidationError(f"no random-law generator for schema {schema!r}")
    probs = rng.dirichlet(np.ones(len(support)))
    # keep every cell comfortably above the skip threshold
    probs = 0.9 * probs + 0.1 / len(support)
    probs = probs / probs.sum()
    return DiscreteDistribution(schema, support, probs)


def contaminant_law(
    rng: np.random.Generator, base: DiscreteDistribution
) -> DiscreteDistribution:
    """Random full-support law on the base's support: the base's atoms in
    the base's order, sharing its support memo (groupings and role columns),
    so a ``MixturePath`` between the two groups nothing."""
    probs = rng.dirichlet(np.ones(base.n_atoms))
    probs = 0.9 * probs + 0.1 / base.n_atoms
    return base._reweighted(probs / probs.sum())


SWEEP_PLAN: tuple[tuple[str, Schema], ...] = (
    ("population_mean", OUTCOME_ONLY),
    ("average_density", OUTCOME_ONLY),
    ("tail_conditional_expectation", OUTCOME_ONLY),
    ("covariance", EXPOSURE_OUTCOME),
    ("conditional_cdf", EXPOSURE_OUTCOME),
    ("potential_outcome_mean:1", FULL_SCHEMA),
    ("potential_outcome_mean:0", FULL_SCHEMA),
    ("ate", FULL_SCHEMA),
    ("expected_conditional_covariance", FULL_SCHEMA),
    ("partially_linear_coefficient", FULL_SCHEMA),
    ("incremental_propensity", FULL_SCHEMA),
    ("interventional_direct_effect", MEDIATION_SCHEMA),
)


def _middle_outcome(law: DiscreteDistribution) -> float:
    """The median of the law's distinct outcome values (the upper one of an
    even count), read from its outcome grouping."""
    ys = np.sort(law.cells("outcome")[0][:, 0])
    return float(ys[len(ys) // 2])


# Parameters of the SWEEP_PLAN entries that take any, fitted to the trial's
# law; every entry's class is the CATALOG entry named before any ":".  Only
# incremental_propensity draws from the rng, after the law.
_SWEEP_PARAMS: dict[str, Callable[[np.random.Generator, DiscreteDistribution], dict]] = {
    "tail_conditional_expectation": lambda rng, law: {"threshold": _middle_outcome(law)},
    "conditional_cdf": lambda rng, law: {
        "y": _middle_outcome(law),
        "x": float(law.values[:, law.schema.sole_index("exposure")].min()),
    },
    "potential_outcome_mean:1": lambda rng, law: {"x": 1},
    "potential_outcome_mean:0": lambda rng, law: {"x": 0},
    "incremental_propensity": lambda rng, law: {"epsilon": float(rng.uniform(0.5, 3.0))},
    "interventional_direct_effect": lambda rng, law: {"x1": 1, "x0": 0},
}


@dataclass(frozen=True)
class SweepResult:
    """The reports of a verification sweep; ``SweepResult()`` is the empty
    sweep, and every aggregate is read from the reports."""

    reports: tuple[GateauxReport, ...] = ()

    @property
    def checked(self) -> int:
        return sum(not r.skipped for r in self.reports)

    @property
    def skipped(self) -> int:
        return len(self.reports) - self.checked

    @property
    def worst_rel_error(self) -> float:
        return max((r.rel_error for r in self.reports if not r.skipped), default=0.0)

    def failures(self, tolerance: float = DEFAULT_TOLERANCE) -> list[GateauxReport]:
        return [
            r for r in self.reports if not r.skipped and r.rel_error > tolerance
        ]


def _only(cases: tuple, only: Optional[str], name: Callable) -> tuple:
    """The cases whose estimand ``name(case)`` is ``only``; all when None."""
    if only is None:
        return cases
    kept = tuple(case for case in cases if name(case) == only)
    if not kept:
        names = sorted({name(case) for case in cases})
        raise ValidationError(
            f"no sweep entry for estimand {only!r}; available: {', '.join(names)}"
        )
    return kept


def oracle_sweep(
    trials: int = 50,
    seed: int = 20250815,
    at_t: float = 0.0,
    keep: str = "all",
    only: Optional[str] = None,
) -> SweepResult:
    """Randomized verification sweep over the finite-support catalog.

    For each estimand with a finite-support oracle, draws ``trials`` random
    laws.  At t = 0 every atom of the law becomes a point-mass contaminant
    and the derivative is compared with phi at that atom; at t = 1 the
    contaminant is a random full-support law on the same atoms (point
    masses would put zero mass on conditioning cells of the estimands that
    condition, leaving their nuisances undefined).

    ``keep="worst"`` records only the largest-error report of each
    (estimand, trial) pair; the checks run either way.  ``only`` restricts
    the plan to one estimand name.  An endpoint other than 0 or 1, or fewer
    than one trial, is refused.
    """
    if at_t not in (0.0, 1.0):
        raise ValidationError(f"sweep endpoint must be 0 or 1, got {at_t!r}")
    if keep not in ("all", "worst"):
        raise ValidationError(f"keep must be 'all' or 'worst', got {keep!r}")
    if trials < 1:
        raise ValidationError(f"a sweep needs trials >= 1, got {trials}")
    plan = _only(SWEEP_PLAN, only, lambda case: case[0].split(":")[0])
    rng = seeded_rng(seed)
    reports: list[GateauxReport] = []
    for entry, schema in plan:
        for _ in range(trials):
            law = random_law(rng, schema)
            params = _SWEEP_PARAMS.get(entry, lambda rng, law: {})(rng, law)
            spec = CATALOG[entry.split(":")[0]](**params)
            if at_t == 0.0:
                batch = verify_eif(spec, law)
            else:
                contaminant = contaminant_law(rng, law)
                batch = [check_t1_identity(spec, law, contaminant)]
            live_batch = [r for r in batch if not r.skipped]
            if keep == "worst" and live_batch:
                reports.append(max(live_batch, key=lambda r: r.rel_error))
            else:
                reports.extend(batch)
    return SweepResult(tuple(reports))


# ---------------------------------------------------------------------------
# smooth-family checks
# ---------------------------------------------------------------------------

SMOOTH_TOLERANCE = 1e-5

# (estimand class, family of its check) -> path-function builder; a tracer wraps the builders
SMOOTH_PATH_FUNCTIONS = {
    (Quantile, NormalMixture): quantile_path_functions,
    (TailConditionalExpectation, NormalMixture): tail_path_functions,
    (AverageDerivativeEffect, GaussianRegressionFamily): derivative_path_functions,
}


def smooth_path_check(spec: Estimand, base, contaminant) -> GateauxReport:
    """Derivative check on closed-form Gaussian families.

    Quantiles, tail means, and average derivatives have influence functions
    involving densities, so the finite-support oracle does not apply.  This
    check differentiates t -> psi(P_t) along the mixture of two closed-form
    families and compares with E_Q[phi]: the estimand's own ``eif_values`` at
    the base family's exact nuisances, integrated by quadrature against the
    contaminant Q.  The builder that ``SMOOTH_PATH_FUNCTIONS`` names for the
    estimand and its family computes both sides.
    """
    for (cls, expected), builder in SMOOTH_PATH_FUNCTIONS.items():
        if isinstance(spec, cls):
            break
    else:
        raise ValidationError(
            f"no smooth-family check for estimand {spec.name!r}; "
            "use verify_eif on a finite-support law"
        )
    if not isinstance(base, expected) or not isinstance(contaminant, expected):
        raise ValidationError(
            f"{spec.name} requires {expected.__name__} base and contaminant families"
        )
    psi_at, analytic = builder(spec, base, contaminant)
    value, halvings = richardson_derivative(psi_at, 0.0, 1.0)
    return GateauxReport(
        spec=spec,
        at_t=0.0,
        numerical_derivative=value,
        analytic_value=analytic,
        halvings=halvings,
        contaminant_label=f"{expected.__name__} contaminant",
    )


# Every contaminant has strictly smaller spread than its base, so the
# likelihood ratio stays bounded.  That keeps t -> psi(P_t) analytic at
# t = 0; a heavier-tailed contaminant makes higher t-derivatives diverge
# (the ratio enters the derivative formulas with increasing powers) and the
# extrapolation stalls even though the first derivative exists.
_OUTCOME_BASE = NormalMixture(
    weights=(0.6, 0.4), means=(-0.5, 1.5), sds=(0.8, 1.2)
)
_OUTCOME_CONT = NormalMixture(
    weights=(0.5, 0.5), means=(0.7, -1.8), sds=(1.0, 0.6)
)
_REGRESSION_BASE = GaussianRegressionFamily(
    mu_z=0.3,
    sd_z=1.0,
    a0=0.2,
    a1=0.5,
    sd_x=0.9,
    coef=(0.4, 1.1, -0.7, 0.35, -0.25),
)
_REGRESSION_CONT = GaussianRegressionFamily(
    mu_z=-0.2,
    sd_z=0.7,
    a0=-0.1,
    a1=0.3,
    sd_x=0.6,
    coef=(-0.2, 0.6, 0.5, -0.15, 0.4),
)
SMOOTH_CASES: tuple[tuple[Estimand, object, object], ...] = (
    (Quantile(tau=0.25), _OUTCOME_BASE, _OUTCOME_CONT),
    (Quantile(tau=0.5), _OUTCOME_BASE, _OUTCOME_CONT),
    (Quantile(tau=0.9), _OUTCOME_BASE, _OUTCOME_CONT),
    (TailConditionalExpectation(threshold=0.0), _OUTCOME_BASE, _OUTCOME_CONT),
    (TailConditionalExpectation(threshold=1.0), _OUTCOME_BASE, _OUTCOME_CONT),
    (AverageDerivativeEffect(), _REGRESSION_BASE, _REGRESSION_CONT),
    (
        AverageDerivativeEffect(
            weight_kind="polynomial", weight_coefficients=(1.0, 0.5)
        ),
        _REGRESSION_BASE,
        _REGRESSION_CONT,
    ),
)


def smooth_sweep(only: Optional[str] = None) -> SweepResult:
    """Fixed battery of smooth-family derivative checks.

    Runs ``smooth_path_check`` on every case of ``SMOOTH_CASES``: quantiles
    at several levels, tail means at several thresholds, and average
    derivatives with unit and polynomial weights, on bimodal base families
    against shifted contaminants.  ``only`` restricts the battery to one
    estimand name.
    """
    cases = _only(SMOOTH_CASES, only, lambda case: case[0].name)
    return SweepResult(tuple(smooth_path_check(*case) for case in cases))
