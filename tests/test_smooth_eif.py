"""The smooth battery's analytic values against references that share no
code with the estimands' influence functions.

``smooth_path_check`` takes each analytic value from the estimands' own
influence code: ``Quantile.eif_values``, ``TailConditionalExpectation.eif_terms``
and ``AverageDerivativeEffect.eif_terms`` at the base family's exact
nuisances, integrated against the contaminant on the battery's grids.  Here
every value of ``SMOOTH_CASES`` is matched with the mean of the influence
function written out by hand on the same grids, the quantile and tail
values with their closed forms, and a fault planted in each estimand's
influence code must fail every check of that estimand.
"""
import numpy as np
import pytest

from influence_lab import (
    AverageDerivativeEffect,
    Quantile,
    TailConditionalExpectation,
)
from influence_lab import _smooth
from influence_lab.gateaux import SMOOTH_CASES, SMOOTH_TOLERANCE, smooth_path_check, smooth_sweep

REL = 1e-12
# the quadrature's stop rule is QUADRATURE_RTOL = 1e-9 between levels; the
# worst gap to a closed form reads 2.07e-9 (the tau = 0.9 quantile)
CLOSED_FORM_REL = 5e-9


def quantile_mean(spec, base, cont):
    """E_cont[phi(Y; psi0)]: the integrand is piecewise constant times the
    contaminant density, split at psi0."""
    psi0 = base.quantile(spec.tau)
    f0 = float(base.pdf(np.asarray([psi0]))[0])
    lo = min(base.support_range()[0], cont.support_range()[0])
    hi = max(base.support_range()[1], cont.support_range()[1])
    left = _smooth.FixedGrid1D(lo, psi0, cont.pdf).integral
    right = _smooth.FixedGrid1D(psi0, hi, cont.pdf).integral
    return ((spec.tau - 1.0) * left + spec.tau * right) / f0


def tail_mean(spec, base, cont):
    """E_cont[phi(Y; psi0)] on the grid of the contaminant's lower tail."""
    psi_at, _ = _smooth.tail_path_functions(spec, base, cont)
    psi0 = psi_at(0.0)
    F0 = float(base.cdf(spec.threshold))
    lo = min(base.support_range()[0], cont.support_range()[0])
    grid = _smooth.FixedGrid1D(lo, spec.threshold, cont.pdf)
    return grid.integrate((grid.nodes - psi0) * grid.values) / F0


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
    """E_cont[phi(O; psi0)] at the grid nodes, the outcome entering as the
    contaminant's regression: l (m_b - m_a) + w m_a', times f_b, less psi0."""
    psi_at, _ = _smooth.derivative_path_functions(spec, base, cont)
    grid = regression_grid(spec, base, cont)
    X, Z = grid.X, grid.Z
    fa, fb = base.xz_density(X, Z), cont.xz_density(X, Z)
    fa_dx = base.xz_density_grad_x(X, Z, fa)
    ma, mb, ma_dx = base.regression(X, Z), cont.regression(X, Z), base.regression_grad(X, Z)
    w, wprime = spec.weight_at(X)
    analytic = ((-wprime - w * (fa_dx / np.maximum(fa, 1e-300))) * (mb - ma) + w * ma_dx) * fb
    return grid.integrate(analytic) - psi_at(0.0)


EIF_MEANS = {
    Quantile: quantile_mean,
    TailConditionalExpectation: tail_mean,
    AverageDerivativeEffect: derivative_mean,
}


@pytest.mark.parametrize("case", SMOOTH_CASES, ids=[repr(case[0]) for case in SMOOTH_CASES])
def test_package_eif_matches_the_smooth_analytic_value(case):
    spec, base, cont = case
    analytic = smooth_path_check(spec, base, cont).analytic_value
    assert analytic == pytest.approx(EIF_MEANS[type(spec)](spec, base, cont), rel=REL, abs=0.0)


def closed_form_mean(spec, base, cont):
    """E_cont[phi(Y; psi0)] from the mixtures' closed-form cdf and partial mean."""
    if isinstance(spec, Quantile):
        psi0 = base.quantile(spec.tau)
        return (spec.tau - cont.cdf(psi0)) / float(base.pdf(np.asarray([psi0]))[0])
    c = spec.threshold
    psi0 = base.partial_mean(c) / base.cdf(c)
    return (cont.partial_mean(c) - psi0 * cont.cdf(c)) / base.cdf(c)


@pytest.mark.parametrize("case", [case for case in SMOOTH_CASES
                                  if not isinstance(case[0], AverageDerivativeEffect)],
                         ids=lambda case: repr(case[0]))
def test_outcome_analytic_value_matches_its_closed_form(case):
    spec, base, cont = case
    analytic = smooth_path_check(spec, base, cont).analytic_value
    want = closed_form_mean(spec, base, cont)
    assert abs(analytic - want) <= CLOSED_FORM_REL * max(1.0, abs(want))


@pytest.mark.parametrize("cls, method", [
    (Quantile, "eif_values"),
    (TailConditionalExpectation, "eif_terms"),
    (AverageDerivativeEffect, "eif_terms"),
])
def test_a_fault_in_the_influence_code_fails_every_check(cls, method, monkeypatch):
    exact = getattr(cls, method)

    def scaled(self, *args):
        out = exact(self, *args)
        return tuple(1.001 * a for a in out) if isinstance(out, tuple) else 1.001 * out

    monkeypatch.setattr(cls, method, scaled)
    sweep = smooth_sweep(only=cls.name)
    assert sweep.checked == sum(isinstance(case[0], cls) for case in SMOOTH_CASES)
    assert len(sweep.failures(SMOOTH_TOLERANCE)) == sweep.checked


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
