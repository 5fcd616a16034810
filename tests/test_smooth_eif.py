"""The package's influence functions against the smooth battery's analytic values.

``smooth_path_check`` compares each numerical derivative with an analytic
mean written out in ``_smooth``, not with the estimands' own influence code.
Here ``Quantile.eif_values``, ``TailConditionalExpectation.eif_terms`` and
``AverageDerivativeEffect.eif_terms`` are evaluated with the base family's
exact nuisances, integrated against the contaminant on the quadrature grids
the battery uses, and matched with every analytic value of ``SMOOTH_CASES``.
"""
import numpy as np
import pytest

from influence_lab import (
    AverageDerivativeEffect,
    ColumnSet,
    NuisanceSet,
    Quantile,
    TailConditionalExpectation,
)
from influence_lab import _smooth
from influence_lab.gateaux import SMOOTH_CASES, smooth_path_check

REL = 1e-12


def quantile_mean(spec, base, cont):
    """E_cont[phi(Y; psi0)]: phi takes one value on each side of psi0, so it
    is weighted by the contaminant's mass on each side."""
    psi0 = base.quantile(spec.tau)
    lo = min(base.support_range()[0], cont.support_range()[0])
    hi = max(base.support_range()[1], cont.support_range()[1])
    masses = np.array([_smooth.FixedGrid1D(lo, psi0, cont.pdf).integral,
                       _smooth.FixedGrid1D(psi0, hi, cont.pdf).integral])
    cols = ColumnSet(n=2, y=np.array([lo, hi]))
    phi = spec.eif_values(cols, NuisanceSet(density_at_quantile=base.pdf), psi0)
    return float(np.dot(phi, masses))


def tail_mean(spec, base, cont):
    """E_cont[phi(Y; psi0)] on the grid of the contaminant's lower tail."""
    psi_at, _ = _smooth.tail_path_functions(spec, base, cont)
    lo = min(base.support_range()[0], cont.support_range()[0])
    grid = _smooth.FixedGrid1D(lo, spec.threshold, cont.pdf)
    cols = ColumnSet(n=grid.nodes.size, y=grid.nodes)
    phi = spec.eif_values(cols, NuisanceSet(outcome_cdf=base.cdf), psi_at(0.0))
    return grid.integrate(phi * grid.values)


def regression_grid(spec, base, cont):
    """The battery's grid, refined on the path integrand at t = 0.5: w times
    d/dx of m_t = g_t / f_t, times f_t, with g = f * m."""

    def reference(X, Z):
        fa, fb = base.xz_density(X, Z), cont.xz_density(X, Z)
        fa_dx, fb_dx = base.xz_density_grad_x(X, Z, fa), cont.xz_density_grad_x(X, Z, fb)
        ma, mb = base.regression(X, Z), cont.regression(X, Z)
        ft, ft_dx = 0.5 * (fa + fb), 0.5 * (fa_dx + fb_dx)
        gt = 0.5 * (fa * ma + fb * mb)
        gt_dx = 0.5 * (fa_dx * ma + fa * base.regression_grad(X, Z)
                       + fb_dx * mb + fb * cont.regression_grad(X, Z))
        return spec.weight_at(X)[0] * (gt_dx - gt / np.maximum(ft, 1e-300) * ft_dx)

    return _smooth.FixedGrid2D(_smooth._merge_boxes(base.box(), cont.box()), reference)


def derivative_mean(spec, base, cont):
    """E_cont[phi(O; psi0)] at the grid nodes: phi is affine in y, so the
    outcome enters as the contaminant's regression."""
    psi_at, _ = _smooth.derivative_path_functions(spec, base, cont)
    grid = regression_grid(spec, base, cont)
    x, z = grid.X.ravel(), grid.Z.ravel()
    cols = ColumnSet(n=x.size, y=cont.regression(x, z), x=x, Z=z[:, None])
    nuis = NuisanceSet(
        outcome_mean=lambda xq, Zq: base.regression(xq, Zq[:, 0]),
        outcome_mean_grad=lambda xq, Zq: base.regression_grad(xq, Zq[:, 0]),
        joint_density=lambda xq, Zq: base.xz_density(xq, Zq[:, 0]),
        joint_density_grad=lambda xq, Zq: base.xz_density_grad_x(
            xq, Zq[:, 0], base.xz_density(xq, Zq[:, 0])),
    )
    phi = spec.eif_values(cols, nuis, psi_at(0.0)).reshape(grid.X.shape)
    return grid.integrate(phi * cont.xz_density(grid.X, grid.Z))


EIF_MEANS = {
    Quantile: quantile_mean,
    TailConditionalExpectation: tail_mean,
    AverageDerivativeEffect: derivative_mean,
}


@pytest.mark.parametrize("case", SMOOTH_CASES, ids=[repr(case[0]) for case in SMOOTH_CASES])
def test_package_eif_matches_the_smooth_analytic_value(case):
    spec, base, cont = case
    analytic = smooth_path_check(spec, base, cont).analytic_value
    assert EIF_MEANS[type(spec)](spec, base, cont) == pytest.approx(analytic, rel=REL, abs=0.0)


def test_unit_weight_path_ends_at_the_closed_form_functional():
    spec, base, cont = next(case for case in SMOOTH_CASES
                            if case[0] == AverageDerivativeEffect())
    psi_at, _ = _smooth.derivative_path_functions(spec, base, cont)
    assert psi_at(0.0) == pytest.approx(base.unit_weight_functional(), rel=REL, abs=0.0)
    assert psi_at(1.0) == pytest.approx(cont.unit_weight_functional(), rel=REL, abs=0.0)


def polynomial_weight_functional(family, b0, b1):
    """E[(b0 + b1 X) (c1 + 2 c3 X + c4 Z)] from the family's Gaussian moments."""
    _, c1, _, c3, c4 = family.coef
    mean_x, mean_z = family.mean_x(), family.mu_z
    second_x = family.sd_x**2 + (family.a1 * family.sd_z) ** 2 + mean_x**2
    cross_xz = family.a1 * family.sd_z**2 + mean_x * mean_z
    return (b0 * (c1 + 2.0 * c3 * mean_x + c4 * mean_z)
            + b1 * (c1 * mean_x + 2.0 * c3 * second_x + c4 * cross_xz))


def test_polynomial_weight_path_ends_at_the_closed_form_functional():
    spec, base, cont = next(case for case in SMOOTH_CASES if case[0] == AverageDerivativeEffect(
        weight_kind="polynomial", weight_coefficients=(1.0, 0.5)))
    psi_at, _ = _smooth.derivative_path_functions(spec, base, cont)
    assert psi_at(0.0) == pytest.approx(polynomial_weight_functional(base, 1.0, 0.5),
                                        rel=REL, abs=0.0)
    assert psi_at(1.0) == pytest.approx(polynomial_weight_functional(cont, 1.0, 0.5),
                                        rel=REL, abs=0.0)
