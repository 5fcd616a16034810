"""Smooth families for derivative checks that need densities.

Quantiles, tail means, and average derivatives have influence functions
involving densities, so their verification runs on closed-form Gaussian
families rather than finite-support laws.  Mixture paths stay inside the
families: a t-mixture of Gaussian mixtures is again a Gaussian mixture,
and the joint regression family mixes pointwise in the (x, z) density.

Numerical policy: functional values along the path are computed either in
closed form, by bisection (quantiles), or by trapezoid quadrature refined
until the value stabilizes.  The quadrature grid is chosen adaptively once
per check and then held fixed for every t, so the derivative in t sees a
smooth function and finite differences are not polluted by grid switching.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from ._normal import normal_cdf, normal_pdf
from .errors import IntegrationError, SolverError, ValidationError
from .estimands import (
    AverageDerivativeEffect,
    Quantile,
    TailConditionalExpectation,
)

BISECTION_TOL = 1e-13
BISECTION_MAX_ITER = 200
QUADRATURE_RTOL = 1e-9
# A smooth integrand that decays to zero at both endpoints makes the
# trapezoid rule spectrally accurate, so the 2-D grids over ten-sigma boxes
# stabilize at coarse levels.  The 1-D integrals are split at a quantile or
# threshold where the density does not vanish, leaving O(h^2) convergence,
# so they need far deeper halving (still cheap: vectorized over one axis).
QUADRATURE_MAX_LEVEL_1D = 24
QUADRATURE_MAX_LEVEL_2D = 11
RANGE_SDS = 10.0


@dataclass(frozen=True)
class NormalMixture:
    """Finite mixture of normals for the outcome marginal."""

    weights: tuple
    means: tuple
    sds: tuple

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.size == 0 or abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0.0):
            raise ValidationError("mixture weights must be nonnegative and sum to one")
        if len(self.means) != w.size or len(self.sds) != w.size:
            raise ValidationError("weights, means, sds must have equal length")
        if any(s <= 0.0 for s in self.sds):
            raise ValidationError("mixture component sds must be positive")

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        total = np.zeros_like(y)
        for w, m, s in zip(self.weights, self.means, self.sds):
            total = total + w * normal_pdf(y, loc=m, scale=s)
        return total

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        total = np.zeros_like(y)
        for w, m, s in zip(self.weights, self.means, self.sds):
            total = total + w * normal_cdf(y, loc=m, scale=s)
        return total

    def partial_mean(self, c: float) -> float:
        """E[Y * 1{Y <= c}] in closed form."""
        total = 0.0
        for w, m, s in zip(self.weights, self.means, self.sds):
            alpha = (c - m) / s
            total += w * (m * normal_cdf(alpha) - s * normal_pdf(alpha))
        return float(total)

    def mean(self) -> float:
        return float(np.dot(self.weights, self.means))

    def support_range(self) -> tuple[float, float]:
        lo = min(m - RANGE_SDS * s for m, s in zip(self.means, self.sds))
        hi = max(m + RANGE_SDS * s for m, s in zip(self.means, self.sds))
        return lo, hi

    def quantile(self, tau: float) -> float:
        """Quantile by bisection on the closed-form cdf."""
        lo, hi = self.support_range()
        flo = self.cdf(lo) - tau
        fhi = self.cdf(hi) - tau
        if flo > 0.0 or fhi < 0.0:
            raise SolverError("quantile bracket does not contain the root")
        for _ in range(BISECTION_MAX_ITER):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) - tau <= 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < BISECTION_TOL:
                break
        else:
            raise SolverError("quantile bisection did not converge")
        return 0.5 * (lo + hi)


def mix_outcome_families(
    base: NormalMixture, contaminant: NormalMixture, t: float
) -> NormalMixture:
    return NormalMixture(
        weights=tuple((1.0 - t) * w for w in base.weights)
        + tuple(t * w for w in contaminant.weights),
        means=tuple(base.means) + tuple(contaminant.means),
        sds=tuple(base.sds) + tuple(contaminant.sds),
    )


@dataclass(frozen=True)
class GaussianRegressionFamily:
    """Joint law for the average-derivative check.

    Z ~ N(mu_z, sd_z^2), X | Z ~ N(a0 + a1 Z, sd_x^2), and
    E[Y | X, Z] = c0 + c1 X + c2 Z + c3 X^2 + c4 X Z.  The outcome noise
    scale never enters the functional, so it is not a parameter.
    """

    mu_z: float
    sd_z: float
    a0: float
    a1: float
    sd_x: float
    coef: tuple  # (c0, c1, c2, c3, c4)

    def __post_init__(self) -> None:
        if self.sd_z <= 0.0 or self.sd_x <= 0.0:
            raise ValidationError("scale parameters must be positive")
        if len(self.coef) != 5:
            raise ValidationError("coef must be (c0, c1, c2, c3, c4)")

    def xz_density(self, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        return normal_pdf(x, loc=self.a0 + self.a1 * z, scale=self.sd_x) * normal_pdf(
            z, loc=self.mu_z, scale=self.sd_z
        )

    def xz_density_grad_x(self, x, z, density):
        """d/dx of the joint density, given its values ``xz_density(x, z)``."""
        mu = self.a0 + self.a1 * np.asarray(z, dtype=float)
        return -(np.asarray(x, dtype=float) - mu) / self.sd_x**2 * density

    def regression(self, x, z):
        c0, c1, c2, c3, c4 = self.coef
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        return c0 + c1 * x + c2 * z + c3 * x**2 + c4 * x * z

    def regression_grad(self, x, z):
        c0, c1, c2, c3, c4 = self.coef
        return c1 + 2.0 * c3 * np.asarray(x, dtype=float) + c4 * np.asarray(z, dtype=float)

    def mean_x(self) -> float:
        return self.a0 + self.a1 * self.mu_z

    def unit_weight_functional(self) -> float:
        """E[d/dx E[Y | X, Z]] in closed form."""
        c0, c1, c2, c3, c4 = self.coef
        return c1 + 2.0 * c3 * self.mean_x() + c4 * self.mu_z

    def box(self) -> tuple[float, float, float, float]:
        """(x_lo, x_hi, z_lo, z_hi) covering essentially all mass."""
        z_lo = self.mu_z - RANGE_SDS * self.sd_z
        z_hi = self.mu_z + RANGE_SDS * self.sd_z
        x_sd = math.sqrt(self.sd_x**2 + (self.a1 * self.sd_z) ** 2)
        x_lo = self.mean_x() - RANGE_SDS * x_sd
        x_hi = self.mean_x() + RANGE_SDS * x_sd
        return x_lo, x_hi, z_lo, z_hi


def _merge_boxes(a, b):
    return (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))


class FixedGrid1D:
    """Trapezoid nodes refined once, then reused for every integrand.

    The reference integrand's values at the final nodes and its integral
    there are kept as ``values`` and ``integral``.
    """

    def __init__(self, lo: float, hi: float, reference: Callable, rtol=QUADRATURE_RTOL):
        if hi <= lo:
            raise ValidationError("integration range is empty")
        level = 7
        previous = None
        while level <= QUADRATURE_MAX_LEVEL_1D:
            nodes = np.linspace(lo, hi, 2**level + 1)
            values = reference(nodes)
            value = float(np.trapezoid(values, nodes))
            if previous is not None and abs(value - previous) <= rtol * max(1.0, abs(value)):
                self.nodes, self.values, self.integral = nodes, values, value
                return
            previous = value
            level += 1
        raise IntegrationError(
            f"trapezoid refinement did not stabilize to {rtol} on [{lo}, {hi}]"
        )

    def integrate(self, values: np.ndarray) -> float:
        """Integral of an integrand given by its values at the nodes."""
        return float(np.trapezoid(values, self.nodes))


class FixedGrid2D:
    """Tensor trapezoid grid refined once on a reference integrand."""

    def __init__(self, box, reference: Callable, rtol=QUADRATURE_RTOL):
        x_lo, x_hi, z_lo, z_hi = box
        level = 7
        previous = None
        while level <= QUADRATURE_MAX_LEVEL_2D:
            xs = np.linspace(x_lo, x_hi, 2**level + 1)
            zs = np.linspace(z_lo, z_hi, 2**level + 1)
            # broadcast views, not copies: each integrand makes its own full arrays
            X, Z = np.meshgrid(xs, zs, indexing="ij", copy=False)
            value = float(np.trapezoid(np.trapezoid(reference(X, Z), zs, axis=1), xs))
            if previous is not None and abs(value - previous) <= rtol * max(1.0, abs(value)):
                self.xs, self.zs, self.X, self.Z = xs, zs, X, Z
                return
            previous = value
            level += 1
        raise IntegrationError(
            f"tensor trapezoid refinement did not stabilize to {rtol} on {box}"
        )

    def integrate(self, values: np.ndarray) -> float:
        """Integral of an integrand given by its values at the nodes (X, Z)."""
        return float(np.trapezoid(np.trapezoid(values, self.zs, axis=1), self.xs))


# ---------------------------------------------------------------------------
# path functionals and analytic means, per estimand
# ---------------------------------------------------------------------------


def quantile_path_functions(spec: Quantile, base: NormalMixture, cont: NormalMixture):
    def psi_at(t: float) -> float:
        return mix_outcome_families(base, cont, t).quantile(spec.tau)

    psi0 = base.quantile(spec.tau)
    f0 = float(base.pdf(np.asarray([psi0]))[0])
    lo = min(base.support_range()[0], cont.support_range()[0])
    hi = max(base.support_range()[1], cont.support_range()[1])
    # integrand is piecewise constant times the contaminant density; split at psi0
    left = FixedGrid1D(lo, psi0, cont.pdf)
    right = FixedGrid1D(psi0, hi, cont.pdf)
    analytic = ((spec.tau - 1.0) * left.integral + spec.tau * right.integral) / f0
    return psi_at, analytic


def tail_path_functions(
    spec: TailConditionalExpectation, base: NormalMixture, cont: NormalMixture
):
    c = spec.threshold

    def psi_at(t: float) -> float:
        mixed = mix_outcome_families(base, cont, t)
        mass = float(mixed.cdf(np.asarray([c]))[0])
        if mass <= 0.0:
            raise SolverError("tail event has no probability along the path")
        return mixed.partial_mean(c) / mass

    psi0 = psi_at(0.0)
    F0 = float(base.cdf(np.asarray([c]))[0])
    lo = min(base.support_range()[0], cont.support_range()[0])
    grid = FixedGrid1D(lo, c, cont.pdf)
    analytic = grid.integrate((grid.nodes - psi0) * grid.values) / F0
    return psi_at, analytic


def derivative_path_functions(
    spec: AverageDerivativeEffect,
    base: GaussianRegressionFamily,
    cont: GaussianRegressionFamily,
):
    box = _merge_boxes(base.box(), cont.box())

    def path_parts(X, Z):
        """At the nodes (X, Z): the integrand whose integral, less psi(P_0),
        is the analytic derivative, and the t-free factors of the path
        integrand."""
        fa, fb = base.xz_density(X, Z), cont.xz_density(X, Z)
        fa_dx, fb_dx = base.xz_density_grad_x(X, Z, fa), cont.xz_density_grad_x(X, Z, fb)
        ma, mb = base.regression(X, Z), cont.regression(X, Z)
        ma_dx, mb_dx = base.regression_grad(X, Z), cont.regression_grad(X, Z)
        w, wprime = spec.weight_at(np.asarray(X, dtype=float))
        analytic = ((-wprime - w * (fa_dx / np.maximum(fa, 1e-300))) * (mb - ma) + w * ma_dx) * fb
        return SimpleNamespace(
            analytic=analytic, fa=fa, fb=fb, ga=fa * ma, gb=fb * mb, fa_dx=fa_dx, fb_dx=fb_dx,
            ga_dx=fa_dx * ma + fa * ma_dx, gb_dx=fb_dx * mb + fb * mb_dx, w=w,
        )

    def path_integrand(p: SimpleNamespace, t: float) -> np.ndarray:
        ft = (1.0 - t) * p.fa + t * p.fb
        gt = (1.0 - t) * p.ga + t * p.gb
        ft_dx = (1.0 - t) * p.fa_dx + t * p.fb_dx
        gt_dx = (1.0 - t) * p.ga_dx + t * p.gb_dx
        # d/dx of m_t = (g_t' f_t - g_t f_t') / f_t^2, times f_t leaves f_t once
        safe = np.maximum(ft, 1e-300, out=ft)  # in place: f_t is not read again
        return p.w * (gt_dx - (gt / safe) * ft_dx)

    parts = None

    def reference(X, Z):
        # the grid's last reference call is at its final nodes: keep those parts
        nonlocal parts
        parts = None  # free the coarser level's parts before the finer level's
        parts = path_parts(X, Z)
        return path_integrand(parts, 0.5)

    grid = FixedGrid2D(box, reference)

    def psi_at(t: float) -> float:
        return grid.integrate(path_integrand(parts, t))

    psi0 = psi_at(0.0)
    analytic = grid.integrate(parts.analytic) - psi0
    return psi_at, analytic
