"""The smooth-family arithmetic against the whole-grid numpy expressions.

The quadrature and path functions of ``_smooth`` run in place, a block of
rows at a time, reuse a coarser level's values or keep the weights as one
column; each test here compares them, bit for bit, with the plain
expressions they stand for.  The last tests bound the battery's grids and
memory.
"""
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from influence_lab import (
    AverageDerivativeEffect,
    ColumnSet,
    GaussianRegressionFamily,
    NormalMixture,
    NuisanceSet,
)
from influence_lab import _smooth, gateaux
from influence_lab._normal import _SQRT_2PI, normal_cdf
from influence_lab._smooth import BLOCK_ELEMENTS, QUADRATURE_MAX_LEVEL_1D, FixedGrid1D


def bits(a):
    """The IEEE bits of a float or array, so -0.0 and 0.0 differ."""
    return np.atleast_1d(np.asarray(a, dtype=float)).view(np.int64)


def numpy_trapezoid(values, x):
    return np.trapezoid(values, x, axis=-1)


@pytest.mark.parametrize("shape", [
    (2 * BLOCK_ELEMENTS + 37,),          # 1-D, more nodes than a block of steps
    (3, BLOCK_ELEMENTS + 5),             # rows longer than a block: one row per block
    (2 * (BLOCK_ELEMENTS // 65) + 3, 65),  # many rows per block, a short last block
])
def test_trapezoid_equals_numpy(shape):
    rng = np.random.default_rng(sum(shape))
    values = rng.normal(size=shape) * np.exp(rng.normal(scale=3.0, size=shape))
    x = np.cumsum(rng.uniform(1e-3, 1.0, size=shape[-1])) - 7.0
    np.testing.assert_array_equal(bits(_smooth._trapezoid(values, x)),
                                  bits(numpy_trapezoid(values, x)))


class EveryNodeGrid1D:
    """``FixedGrid1D`` as a plain loop: every level evaluates the reference
    at all of its nodes and integrates with ``np.trapezoid``."""

    def __init__(self, lo, hi, reference):
        previous = None
        for level in range(7, QUADRATURE_MAX_LEVEL_1D + 1):
            nodes = np.linspace(lo, hi, 2**level + 1)
            values = reference(nodes)
            value = float(np.trapezoid(values, nodes))
            if previous is not None and abs(value - previous) <= (
                    _smooth.QUADRATURE_RTOL * max(1.0, abs(value))):
                self.nodes, self.values, self.integral = nodes, values, value
                return
            previous = value
        raise AssertionError("the reference grid did not stabilize")

    def integrate(self, values):
        return float(np.trapezoid(values, self.nodes))


def test_fixed_grid_1d_equals_every_node_per_level():
    rng = np.random.default_rng(11)
    for _ in range(12):
        k = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(k))
        mixture = NormalMixture(tuple(weights.tolist()), tuple(rng.normal(0.0, 2.0, k).tolist()),
                                tuple(rng.uniform(0.3, 2.0, k).tolist()))
        lo, hi = mixture.support_range()
        # a split inside the support leaves a nonzero endpoint: many levels
        split = float(rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo)))
        for a, b in ((lo, hi), (lo, split), (split, hi)):
            got, want = FixedGrid1D(a, b, mixture.pdf), EveryNodeGrid1D(a, b, mixture.pdf)
            np.testing.assert_array_equal(bits(got.nodes), bits(want.nodes))
            np.testing.assert_array_equal(bits(got.values), bits(want.values))
            assert bits(got.integral) == bits(want.integral)
            integrand = (got.nodes - split) * got.values
            assert bits(got.integrate(integrand)) == bits(want.integrate(integrand))


def array_cdf(mixture, y):
    """The mixture cdf as the array expression it replaces."""
    y = np.asarray(y, dtype=float)
    total = np.zeros_like(y)
    for w, m, s in zip(mixture.weights, mixture.means, mixture.sds):
        total = total + w * normal_cdf(y, loc=m, scale=s)
    return total


def test_cdf_equals_the_array_expression():
    rng = np.random.default_rng(5)
    for _ in range(400):
        k = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(k))
        mixture = NormalMixture(tuple(weights.tolist()), tuple(rng.normal(0.0, 3.0, k).tolist()),
                                tuple(np.exp(rng.normal(0.0, 1.0, k)).tolist()))
        y = np.concatenate([rng.normal(0.0, 6.0, 40), [-np.inf, -40.0, 0.0, -0.0, 40.0, np.inf]])
        want = array_cdf(mixture, y)
        np.testing.assert_array_equal(bits(mixture.cdf(y)), bits(want))
        np.testing.assert_array_equal(bits([mixture.cdf(v) for v in y.tolist()]), bits(want))
        assert bits(mixture.cdf(np.asarray(y[0]))) == bits(want[0])


def old_normal_pdf(x, loc=0.0, scale=1.0):
    z = (np.asarray(x, dtype=float) - loc) / scale
    return np.exp(-z**2 / 2.0) / _SQRT_2PI / scale


def old_mixture_pdf(self, y):
    y = np.asarray(y, dtype=float)
    total = np.zeros_like(y)
    for w, m, s in zip(self.weights, self.means, self.sds):
        total = total + w * _smooth.normal_pdf(y, loc=m, scale=s)
    return total


def whole_grid_derivative_path_functions(spec, base, cont):
    """The average-derivative path functions as whole-grid expressions; the
    analytic value takes the same route as ``_smooth``, the estimand's own
    ``eif_values`` integrated against f_b, with every base-family nuisance
    evaluated afresh at the nodes rather than read from the path parts."""

    def path_parts(X, Z):
        fa, fb = base.xz_density(X, Z), cont.xz_density(X, Z)
        fa_dx, fb_dx = base.xz_density_grad_x(X, Z, fa), cont.xz_density_grad_x(X, Z, fb)
        ma, mb = base.regression(X, Z), cont.regression(X, Z)
        ma_dx, mb_dx = base.regression_grad(X, Z), cont.regression_grad(X, Z)
        return SimpleNamespace(
            fa=fa, fb=fb, ga=fa * ma, gb=fb * mb, fa_dx=fa_dx, fb_dx=fb_dx,
            ga_dx=fa_dx * ma + fa * ma_dx, gb_dx=fb_dx * mb + fb * mb_dx,
            w=spec.weight_at(np.asarray(X, dtype=float))[0],
        )

    def path_integrand(p, t):
        ft = (1.0 - t) * p.fa + t * p.fb
        gt = (1.0 - t) * p.ga + t * p.gb
        ft_dx = (1.0 - t) * p.fa_dx + t * p.fb_dx
        gt_dx = (1.0 - t) * p.ga_dx + t * p.gb_dx
        return p.w * (gt_dx - (gt / np.maximum(ft, 1e-300)) * ft_dx)

    parts = None

    def reference(X, Z):
        nonlocal parts
        parts = path_parts(X, Z)
        return path_integrand(parts, 0.5)

    grid = _smooth.FixedGrid2D(_smooth._merge_boxes(base.box(), cont.box()), reference)

    def psi_at(t):
        return grid.integrate(path_integrand(parts, t))

    x, z = grid.X.ravel(), grid.Z.ravel()
    nuis = NuisanceSet(
        outcome_mean=lambda xq, Zq: base.regression(xq, Zq[:, 0]),
        outcome_mean_grad=lambda xq, Zq: base.regression_grad(xq, Zq[:, 0]),
        joint_density=lambda xq, Zq: base.xz_density(xq, Zq[:, 0]),
        joint_density_grad=lambda xq, Zq: base.xz_density_grad_x(
            xq, Zq[:, 0], base.xz_density(xq, Zq[:, 0])),
    )
    cols = ColumnSet(n=x.size, y=cont.regression(x, z), x=x, Z=z[:, None])
    phi = spec.eif_values(cols, nuis, psi_at(0.0)).reshape(grid.X.shape)
    return psi_at, grid.integrate(phi * parts.fb)


def sweep_bits():
    return [(r.spec.describe(), float(r.numerical_derivative).hex(),
             float(r.analytic_value).hex(), r.halvings)
            for r in gateaux.smooth_sweep().reports]


def test_smooth_sweep_equals_the_whole_grid_reference(monkeypatch):
    got = sweep_bits()
    monkeypatch.setattr(_smooth, "normal_pdf", old_normal_pdf)
    monkeypatch.setattr(NormalMixture, "pdf", old_mixture_pdf)
    monkeypatch.setattr(NormalMixture, "cdf", array_cdf)
    monkeypatch.setattr(_smooth, "_trapezoid", numpy_trapezoid)
    monkeypatch.setattr(_smooth, "FixedGrid1D", EveryNodeGrid1D)
    monkeypatch.setitem(gateaux.SMOOTH_PATH_FUNCTIONS,
                        (AverageDerivativeEffect, GaussianRegressionFamily),
                        whole_grid_derivative_path_functions)
    assert len(got) == 7
    assert got == sweep_bits()


def test_derivative_checks_settle_on_129_nodes_per_axis(monkeypatch):
    sizes = []

    class RecordedGrid2D(_smooth.FixedGrid2D):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sizes.append((self.xs.size, self.zs.size))

    monkeypatch.setattr(_smooth, "FixedGrid2D", RecordedGrid2D)
    gateaux.smooth_sweep()
    assert sizes == [(129, 129), (129, 129)]


def test_smooth_sweep_peak_memory_stays_below_3_5_mb():
    gateaux.smooth_sweep()  # a first call may import or cache what is not the battery's
    tracemalloc.start()
    try:
        gateaux.smooth_sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20
