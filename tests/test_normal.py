"""The normal pdf, cdf and quantile helpers, and the import they avoid."""
import subprocess
import sys

import numpy as np
from scipy.stats import norm

from influence_lab._normal import normal_cdf, normal_pdf, normal_ppf


def test_helpers_are_bit_identical_to_scipy_stats():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(0.0, 4.0, 100_000), [-np.inf, -40.0, 0.0, 40.0, np.inf]])
    for loc, scale in ((0.0, 1.0), (-1.2, 0.5), (0.8, 1.7), (3.0, 1e-3)):
        np.testing.assert_array_equal(normal_pdf(x, loc=loc, scale=scale),
                                      norm.pdf(x, loc=loc, scale=scale))
        np.testing.assert_array_equal(normal_cdf(x, loc=loc, scale=scale),
                                      norm.cdf(x, loc=loc, scale=scale))
    q = np.concatenate([rng.uniform(size=100_000), [0.0, 1e-300, 0.025, 0.5, 0.975, 1.0]])
    np.testing.assert_array_equal(normal_ppf(q), norm.ppf(q))
    # scalar arguments, as the truths and the Wald interval pass them
    assert normal_pdf(0.3) == norm.pdf(0.3)
    assert normal_pdf(0.3, scale=2.5) == norm.pdf(0.3, scale=2.5)
    assert normal_cdf(-0.7) == norm.cdf(-0.7)
    assert normal_ppf(0.975) == norm.ppf(0.975)


def test_cli_import_leaves_scipy_stats_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, influence_lab.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, influence_lab.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_scalar_arguments_are_bit_identical_to_scipy_special():
    from scipy.special import ndtr, ndtri

    rng = np.random.default_rng(1)
    edges = [-np.inf, np.inf, np.nan, 0.0, -0.0, 1.0, 1e-300, -1e-300, 5e-324]
    x = edges + rng.normal(0.0, 6.0, 200_000).tolist()
    q = edges + [2.0, -1.0] + rng.uniform(size=100_000).tolist() + (
        10.0 ** rng.uniform(-300.0, 0.0, 100_000)).tolist()
    np.testing.assert_array_equal(_bits([normal_cdf(v) for v in x]), _bits(ndtr(x)))
    np.testing.assert_array_equal(_bits([normal_ppf(v) for v in q]), _bits(ndtri(q)))
    assert isinstance(normal_cdf(0.3), np.float64) and isinstance(normal_ppf(0.3), np.float64)
