"""Recorded estimates: every estimable estimand through every estimator it
supports, on small fixed-seed datasets from the shipped processes.

``pinned_estimates.json`` holds psi_hat, se and the diagnostics of each
case.  A change to the estimation code that is meant to keep the numbers
must reproduce them: bit for bit for the arm-mean estimands (their
arithmetic is a fixed sequence of array operations), and to a relative
drift of at most 1e-12 elsewhere.  After a deliberate change of numbers,
re-record with ``PYTHONPATH=src python tests/test_pinned_estimates.py``; it
prints how many values changed against the file it replaces and the largest
|change| / max(1, |v|).
"""
import json
import math
import pathlib
import sys
import warnings

import pytest

from influence_lab import LearnerSettings, estimate, from_config
from influence_lab.simulation import dgp_by_name

PINNED = pathlib.Path(__file__).with_name("pinned_estimates.json")
EXACT = ("ate", "potential_outcome_mean", "incremental_propensity")
RELATIVE_DRIFT = 1e-12

SETTINGS = {
    "parametric": LearnerSettings(),
    "quadratic": LearnerSettings(outcome_degree=2, propensity_degree=2),
    "kernel": LearnerSettings(outcome_model="kernel", propensity_model="kernel"),
    "trimmed": LearnerSettings(trim=0.4),
    "trimmed-kernel": LearnerSettings(
        outcome_model="kernel", propensity_model="kernel", trim=0.35
    ),
}

# (estimand, params, process, n, learners)
CASES = (
    ("population_mean", {}, "normal-mean", 150, "parametric"),
    ("average_density", {}, "density-mixture", 150, "parametric"),
    ("quantile", {"tau": 0.3}, "density-mixture", 150, "parametric"),
    ("tail_conditional_expectation", {"threshold": 0.2}, "normal-mean", 150, "parametric"),
    ("covariance", {}, "ate-linear", 200, "parametric"),
    ("conditional_cdf", {"y": 1.0, "x": 1.0}, "ate-linear", 200, "parametric"),
    ("potential_outcome_mean", {"x": 1}, "ate-linear", 200, "parametric"),
    ("potential_outcome_mean", {"x": 0}, "ate-nonlinear", 200, "kernel"),
    ("ate", {}, "ate-linear", 200, "parametric"),
    ("ate", {}, "ate-nonlinear", 200, "kernel"),
    ("incremental_propensity", {"epsilon": 2.0}, "ate-linear", 200, "parametric"),
    ("incremental_propensity", {"epsilon": 0.5}, "ate-nonlinear", 200, "kernel"),
    ("expected_conditional_covariance", {}, "partially-linear", 200, "quadratic"),
    ("expected_conditional_covariance", {}, "partially-linear", 200, "kernel"),
    ("partially_linear_coefficient", {}, "partially-linear", 200, "quadratic"),
    ("partially_linear_coefficient", {}, "partially-linear", 200, "kernel"),
    ("average_derivative_effect", {}, "partially-linear", 150, "quadratic"),
    ("average_derivative_effect",
     {"weight_kind": "polynomial", "weight_coefficients": (1.0, 0.5)},
     "partially-linear", 150, "kernel"),
    ("interventional_direct_effect", {"x1": 1, "x0": 0}, "mediation-binary-m", 200,
     "parametric"),
    ("interventional_direct_effect", {"x1": 0, "x0": 1}, "mediation-binary-m", 200,
     "kernel"),
    ("ate", {}, "ate-nonlinear", 200, "trimmed-kernel"),
    ("interventional_direct_effect", {"x1": 1, "x0": 0}, "mediation-binary-m", 200,
     "trimmed"),
)
METHODS = ("plugin", "one_step", "estimating_equation")
TMLE = ("ate", "potential_outcome_mean")


def _runs():
    for index, (name, params, dgp, n, learners) in enumerate(CASES):
        methods = METHODS + (("tmle",) if name in TMLE else ())
        for method in methods:
            yield f"{index:02d}-{name}-{learners}-{method}", (name, params, dgp, n, learners, method)


RUNS = dict(_runs())


def _estimate(name, params, dgp, n, learners, method) -> dict:
    data = dgp_by_name(dgp).generate(n, seed=n + len(name))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = estimate(
            from_config(name, params), data, method=method,
            settings=SETTINGS[learners], folds=3, seed=11,
        )
    return {"psi_hat": report.psi_hat, "se": report.se, "diagnostics": report.diagnostics}


def _close(got, want, exact: bool, where: str) -> None:
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _close(got[key], want[key], exact, f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, exact, f"{where}[{i}]")
    elif isinstance(want, float) and not exact:
        assert math.isclose(got, want, rel_tol=RELATIVE_DRIFT, abs_tol=1e-300), (
            f"{where}: {got!r} != {want!r}"
        )
    else:
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


def test_every_run_is_pinned(pinned):
    assert sorted(pinned) == sorted(RUNS)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_estimate_matches_the_recorded_numbers(run, pinned):
    spec = RUNS[run]
    _close(_estimate(*spec), pinned[run], exact=spec[0] in EXACT, where=run)


def _leaves(record, where=""):
    """(path, value) for every leaf of a record, nested keys and indices
    joined into the path."""
    if isinstance(record, dict):
        for key in sorted(record):
            yield from _leaves(record[key], f"{where}.{key}")
    elif isinstance(record, list):
        for i, item in enumerate(record):
            yield from _leaves(item, f"{where}[{i}]")
    else:
        yield where, record


def _changes(old: dict, new: dict) -> tuple[int, int, float]:
    """How many of the new records' values differ from the old ones (a value
    without a counterpart counts as changed), out of how many, and the
    largest |new - old| / max(1, |old|) among the numbers in both."""
    before = dict(_leaves(old))
    after = dict(_leaves(new))
    changed = [path for path, value in after.items()
               if path not in before or before[path] != value]
    drift = max((abs(after[p] - before[p]) / max(1.0, abs(before[p])) for p in changed
                 if p in before and isinstance(before[p], (int, float))
                 and isinstance(after[p], (int, float))), default=0.0)
    return len(changed), len(after), drift


if __name__ == "__main__":
    records = {run: _estimate(*spec) for run, spec in RUNS.items()}
    old = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    PINNED.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    count, total, drift = _changes(old, records)
    sys.stdout.write(
        f"recorded {len(records)} runs in {PINNED}: {count} of {total} values changed, "
        f"largest |change| / max(1, |v|) = {drift:.3g}\n"
    )
