"""Smooth families for derivative checks that need densities.

Quantiles, tail means, and average derivatives have influence functions
involving densities, so their verification runs on closed-form Gaussian
families rather than finite-support laws.  Mixture paths stay inside the
families: a t-mixture of Gaussian mixtures is again a Gaussian mixture,
and the joint regression family mixes pointwise in the (x, z) density.
A check's analytic value is the estimand's own ``eif_values`` at the base
family's exact nuisances, integrated against the contaminant on the
check's grid; only the plug-in paths ``psi_at`` are written out here.

Numerical policy: functional values along the path are computed either in
closed form, by bisection (quantiles), or by trapezoid quadrature refined
until the value stabilizes.  The quadrature grid is chosen adaptively once
per check and then held fixed for every t, so the derivative in t sees a
smooth function and finite differences are not polluted by grid switching.
Refinement halves the step from 2^7 + 1 nodes (1-D) or from (2^6 + 1)^2
nodes (2-D, ``QUADRATURE_FIRST_LEVEL_2D``), and the grid is the first level
whose integral of the reference agrees with its predecessor's to
``QUADRATURE_RTOL``.

The battery's 1-D grids reach 131073 nodes, so their arithmetic runs in
place, or a block at a time (``BLOCK_ELEMENTS``), with the operations of
the whole-grid numpy expressions in the same order: every value has their
bits while a check holds only a few grids at once.  A refinement of the 1-D
grid evaluates its reference only at the nodes it adds.  The battery's 2-D
grids settle at 129^2 nodes, where plain whole-grid expressions are small.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from ._normal import _elementwise, _ndtr, normal_cdf, normal_pdf
from .errors import IntegrationError, SolverError, ValidationError
from .estimands import (
    AverageDerivativeEffect,
    ColumnSet,
    NuisanceSet,
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
# The 2-D refinement compares 65^2 with 129^2 nodes first: on the battery's
# Gaussian-decaying integrands 129^2 already agrees to QUADRATURE_RTOL.
QUADRATURE_FIRST_LEVEL_2D = 6
QUADRATURE_MAX_LEVEL_2D = 11
RANGE_SDS = 10.0
BLOCK_ELEMENTS = 1 << 14  # elements per temporary of the blocked grid arithmetic


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
        total = np.zeros_like(np.asarray(y, dtype=float))
        for w, m, s in zip(self.weights, self.means, self.sds):
            component = normal_pdf(y, loc=m, scale=s)
            component *= w
            total += component
        return total[()]

    def cdf(self, y):
        """The cdf at a float, or at each point of an array, on Python
        floats: the operations of the array expression sum_k w_k *
        Phi((y - m_k) / s_k), so its bits, without the overhead of 0-d arrays
        in the quantile bisection."""
        if not isinstance(y, float):
            return _elementwise(self.cdf, y)
        total = 0.0
        for w, m, s in zip(self.weights, self.means, self.sds):
            total = total + w * _ndtr((y - m) / s)
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


def _trapezoid(values: np.ndarray, x: np.ndarray):
    """``np.trapezoid(values, x, axis=-1)`` of 1-D or 2-D ``values``: the
    same operations, with one array of terms (1-D) or a block of rows at a
    time (2-D; each row's sum is its own reduction)."""
    if values.ndim == 1:
        return _trapezoid_terms(values, x).sum()
    rows = max(1, BLOCK_ELEMENTS // values.shape[1])
    return np.concatenate([_trapezoid_terms(values[i:i + rows], x).sum(axis=1)
                           for i in range(0, len(values), rows)])


def _trapezoid_terms(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    terms = np.add(values[..., 1:], values[..., :-1])
    for i in range(0, len(x) - 1, BLOCK_ELEMENTS):
        terms[..., i:i + BLOCK_ELEMENTS] *= np.diff(x[i:i + BLOCK_ELEMENTS + 1])
    terms /= 2.0
    return terms


class FixedGrid1D:
    """Trapezoid nodes refined once, then reused for every integrand.

    The reference integrand's values at the final nodes and its integral
    there are kept as ``values`` and ``integral``.  Each level's nodes are
    the previous level's (``np.linspace`` gives them bit for bit, as the
    step halves exactly) with a node between each pair, so a level
    evaluates the reference only at its new nodes, ``BLOCK_ELEMENTS`` of
    them at a time.
    """

    def __init__(self, lo: float, hi: float, reference: Callable):
        if hi <= lo:
            raise ValidationError("integration range is empty")
        level = 7
        previous, values = math.inf, None
        while level <= QUADRATURE_MAX_LEVEL_1D:
            nodes = np.linspace(lo, hi, 2**level + 1)
            if values is None:
                values = reference(nodes)
            else:
                coarse, values = values, np.empty(nodes.size)
                values[::2] = coarse
                del coarse
                new_nodes, new_values = nodes[1::2], values[1::2]
                for i in range(0, new_nodes.size, BLOCK_ELEMENTS):
                    new_values[i:i + BLOCK_ELEMENTS] = reference(new_nodes[i:i + BLOCK_ELEMENTS])
            value = float(_trapezoid(values, nodes))
            if abs(value - previous) <= QUADRATURE_RTOL * max(1.0, abs(value)):
                self.nodes, self.values, self.integral = nodes, values, value
                return
            previous = value
            level += 1
        raise IntegrationError(
            f"trapezoid refinement did not stabilize to {QUADRATURE_RTOL} on [{lo}, {hi}]"
        )

    def integrate(self, values: np.ndarray) -> float:
        """Integral of an integrand given by its values at the nodes."""
        return float(_trapezoid(values, self.nodes))


class FixedGrid2D:
    """Tensor trapezoid grid refined once on a reference integrand."""

    def __init__(self, box, reference: Callable):
        x_lo, x_hi, z_lo, z_hi = box
        level = QUADRATURE_FIRST_LEVEL_2D
        previous = math.inf
        while level <= QUADRATURE_MAX_LEVEL_2D:
            xs = np.linspace(x_lo, x_hi, 2**level + 1)
            zs = np.linspace(z_lo, z_hi, 2**level + 1)
            # broadcast views, not copies: each integrand makes its own full arrays
            X, Z = np.meshgrid(xs, zs, indexing="ij", copy=False)
            value = float(_trapezoid(_trapezoid(reference(X, Z), zs), xs))
            if abs(value - previous) <= QUADRATURE_RTOL * max(1.0, abs(value)):
                self.xs, self.zs, self.X, self.Z = xs, zs, X, Z
                return
            previous = value
            level += 1
        raise IntegrationError(
            f"tensor trapezoid refinement did not stabilize to {QUADRATURE_RTOL} on {box}"
        )

    def integrate(self, values: np.ndarray) -> float:
        """Integral of an integrand given by its values at the nodes (X, Z)."""
        return float(_trapezoid(_trapezoid(values, self.zs), self.xs))


# ---------------------------------------------------------------------------
# per estimand: the plug-in path, and E_cont of its own influence function
# ---------------------------------------------------------------------------


def quantile_path_functions(spec: Quantile, base: NormalMixture, cont: NormalMixture):
    def psi_at(t: float) -> float:
        return mix_outcome_families(base, cont, t).quantile(spec.tau)

    psi0 = base.quantile(spec.tau)
    lo = min(base.support_range()[0], cont.support_range()[0])
    hi = max(base.support_range()[1], cont.support_range()[1])
    # phi takes one value on each side of psi0: weigh each by the contaminant's mass there
    masses = np.array([FixedGrid1D(lo, psi0, cont.pdf).integral,
                       FixedGrid1D(psi0, hi, cont.pdf).integral])
    phi = spec.eif_values(ColumnSet(n=2, y=np.array([lo, hi])),
                          NuisanceSet(density_at_quantile=base.pdf), psi0)
    return psi_at, float(np.dot(phi, masses))


def tail_path_functions(
    spec: TailConditionalExpectation, base: NormalMixture, cont: NormalMixture
):
    c = spec.threshold

    def psi_at(t: float) -> float:
        mixed = mix_outcome_families(base, cont, t)
        mass = float(mixed.cdf(c))
        if mass <= 0.0:
            raise SolverError("tail event has no probability along the path")
        return mixed.partial_mean(c) / mass

    lo = min(base.support_range()[0], cont.support_range()[0])
    grid = FixedGrid1D(lo, c, cont.pdf)
    phi = spec.eif_values(ColumnSet(n=grid.nodes.size, y=grid.nodes),
                          NuisanceSet(outcome_cdf=base.cdf), psi_at(0.0))
    return psi_at, grid.integrate(phi * grid.values)


def derivative_path_functions(
    spec: AverageDerivativeEffect,
    base: GaussianRegressionFamily,
    cont: GaussianRegressionFamily,
):
    box = _merge_boxes(base.box(), cont.box())

    def path_parts(X, Z):
        """The t-free factors of the path integrand at the nodes (X, Z).  The
        weights depend on x only and are one (k, 1) column."""
        w = spec.weight_at(X[:, :1])[0]
        fa, fb = base.xz_density(X, Z), cont.xz_density(X, Z)
        fa_dx, fb_dx = base.xz_density_grad_x(X, Z, fa), cont.xz_density_grad_x(X, Z, fb)
        ma, mb = base.regression(X, Z), cont.regression(X, Z)
        ma_dx, mb_dx = base.regression_grad(X, Z), cont.regression_grad(X, Z)
        return SimpleNamespace(
            fa=fa, fb=fb, ga=fa * ma, gb=fb * mb, fa_dx=fa_dx, fb_dx=fb_dx,
            ga_dx=fa_dx * ma + fa * ma_dx, gb_dx=fb_dx * mb + fb * mb_dx, w=w,
        )

    def path_integrand(p: SimpleNamespace, t: float) -> np.ndarray:
        """w * (g_t' - (g_t / f_t) * f_t'), with f_t = (1 - t) f_a + t f_b and
        so on: d/dx of m_t = g_t / f_t, times f_t."""
        ft = (1.0 - t) * p.fa + t * p.fb
        gt = (1.0 - t) * p.ga + t * p.gb
        ft_dx = (1.0 - t) * p.fa_dx + t * p.fb_dx
        gt_dx = (1.0 - t) * p.ga_dx + t * p.gb_dx
        return p.w * (gt_dx - (gt / np.maximum(ft, 1e-300)) * ft_dx)

    parts = None

    def reference(X, Z):
        # the grid's last reference call is at its final nodes: keep those parts
        nonlocal parts
        parts = path_parts(X, Z)
        return path_integrand(parts, 0.5)

    grid = FixedGrid2D(box, reference)

    def psi_at(t: float) -> float:
        return grid.integrate(path_integrand(parts, t))

    # phi at the nodes, whose base density is in parts; affine in y, so y is cont's regression
    x, z = grid.X.ravel(), grid.Z.ravel()
    nuis = NuisanceSet(
        outcome_mean=lambda xq, Zq: base.regression(xq, Zq[:, 0]),
        outcome_mean_grad=lambda xq, Zq: base.regression_grad(xq, Zq[:, 0]),
        joint_density=lambda xq, Zq: parts.fa.ravel(),
        joint_density_grad=lambda xq, Zq: parts.fa_dx.ravel(),
    )
    phi = spec.eif_values(ColumnSet(n=x.size, y=cont.regression(x, z), x=x, Z=z[:, None]),
                          nuis, psi_at(0.0))
    return psi_at, grid.integrate(phi.reshape(grid.X.shape) * parts.fb)
