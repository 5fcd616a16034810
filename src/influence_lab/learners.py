"""Nuisance learners: penalized least squares, logistic regression fit by
iteratively reweighted least squares, Nadaraya-Watson kernel regression, and
Gaussian kernel density estimation with analytic gradients.

All fits are plain containers of coefficients or training data plus pure
prediction functions; nothing here knows about folds, trimming, or
estimands.  Density and regression gradients are computed analytically from
the Gaussian kernel, never by finite differences.

Every kernel pass streams through blocks of query rows of about
``KERNEL_BLOCK_ELEMENTS`` weights, so no n_query x n_train matrix is held.  A
block's weights are exp(sum_j (q_j - x_j)^2 * f_j) with f_j = -1 / (2 h_j^2)
taken once per pass: no element is divided by a bandwidth.  The exponent is
built in place, one coordinate at a time, by a one-shot (n_query, n_train, d)
broadcast's operations in the same order, so the blocked weights equal that
broadcast bit for bit; the derivative slopes multiply by 1 / h^2 and the
density by (2 pi)^(-d/2) / prod(h), each taken once per pass.  A weight of
normal range stays within 2e-15 * max(1, |exponent|) relative of the
textbook exp(-0.5 * ((q - x) / h)^2), and tests/test_learners.py checks that
bound.  Bandwidths whose factors are not finite are refused when a fit is
made.  A regression block's weight totals and numerators are both gemvs,
W @ 1 and W @ y (and Wd @ 1, Wd @ y for a gradient), and a density block's
are row means; each writes into n_query-long outputs.  Blocks hold a
multiple of 8 rows, and a tail of fewer than 8 rows joins the block before
it: single-threaded OpenBLAS then reduces every row with the gemv kernel it
uses on the whole matrix, so a pass's bits do not depend on the block size,
while a short tail block (a single row above all) would be summed in another
order.  One gemm of W with the two columns [1, y] would not keep that: its
rows change with the block's row count (OpenBLAS 0.3.31, n_train >= 1600).
``KERNEL_BLOCK_ELEMENTS`` = 2^16 weights make a block and its spare buffer
1 MiB, which an L2 cache holds.  Taking the totals by gemv instead of
``np.sum(W, axis=1)`` moved 62 of the 485 values recorded in
tests/pinned_estimates.json, by at most 4.44e-16 * max(1, |v|).

A pass runs its block loop with numpy's ufunc buffer at its minimum,
``KERNEL_UFUNC_BUFSIZE`` elements.  At the default 8192 elements numpy
copies both operands of the (rows, 1) - (n_train,) broadcast that starts
an exponent through that buffer whenever n_train <= 8192 // 3 = 2730, which
makes the subtraction three to four times slower per weight; at the minimum
it makes no copy, at any n_train.  The setting cannot move a bit: a pass
runs elementwise operations, row sums and means of contiguous rows, which
are not buffered, and BLAS gemvs.  It is set inside the pass's
``np.errstate`` block, and leaving that block, also by an exception,
restores the caller's buffer size.  It stays inside the kernel passes
because a small buffer slows other broadcasts, such as IRLS's
``X.transpose(0, 2, 1) * w[:, None, :]``, two- to threefold.

The least-squares and IRLS fits take a stack of designs, so that cross-fitting
fits every fold of a slot in one call: ``fit_ols`` builds each member's normal
equations on their own, then runs one stacked svd rank guard and one stacked
solve; ``fit_logistic`` runs members of one shape as one (B, n, p) IRLS loop
whose members leave the stack as they converge.  Stacked LAPACK calls and
matmuls run each member through the kernels a one-design call uses, on
operands of the same layout, so every member's coefficients equal those of
its own call, which equal those of the masked two-branch, full-penalty form
that tests/test_learners.py keeps as the reference, bit for bit.  A stack
raises where a one-design call would; only then is it fit again member by
member, and each member keeps the fit or the exception of its own call.
Normal equations, designs and IRLS Hessians that are not finite are refused
with ``NumericalError`` before LAPACK sees them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ExtrapolationError, InfluenceLabError, NumericalError, SchemaError,
                     SeparationError, SingularityError, SolverError)

IRLS_SCORE_TOL = 1e-8
IRLS_MAX_ITER = 100
SEPARATION_COEF_BOUND = 50.0
KERNEL_WEIGHT_FLOOR = 1e-300
KERNEL_BLOCK_ELEMENTS = 1 << 16
KERNEL_UFUNC_BUFSIZE = 16  # numpy's minimum; see the module docstring
KERNEL_GRADIENT_FLOOR = math.sqrt(np.finfo(float).tiny)
MAX_POLY_DEGREE = 3
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_FLOAT_MAX = float(np.finfo(float).max)


def silverman_bandwidth(sample: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR / 1.34) * n^(-1/5).

    The sample standard deviation uses the n - 1 divisor.  If one of the
    two spread measures is zero the other is used; a sample with no spread
    at all has no usable bandwidth and raises.  An sd whose squares
    overflow (data near 1e154 and above) is infinite and yields to the IQR
    without a numpy warning.
    """
    sample = np.asarray(sample, dtype=float).ravel()
    if sample.size < 2:
        raise SchemaError("bandwidth selection needs at least two points")
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(sample, ddof=1))
    q75, q25 = _quartiles(sample)
    iqr_scale = (q75 - q25) / 1.34
    candidates = [s for s in (sd, iqr_scale) if s > 0.0]
    if not candidates:
        raise SchemaError("sample has zero spread; no bandwidth exists")
    return 0.9 * min(candidates) * sample.size ** (-0.2)


def _quartiles(sample: np.ndarray) -> tuple[float, float]:
    """``np.percentile(sample, [75, 25])`` bit for bit, at a quarter of its
    cost: one partition with the order statistics numpy's partition asks
    for (the same set, so even the sign of a zero lands alike), then its
    "linear" lerp.  A sample holding nan gives nan, as numpy does."""
    n = sample.size
    virtual = ((n - 1) * 0.75, (n - 1) * 0.25)
    below = [math.floor(v) for v in virtual]
    ordered = np.partition(sample, sorted({0, n - 1, *below, *(i + 1 for i in below)}))
    if math.isnan(ordered[-1]):
        return math.nan, math.nan
    quartiles = []
    for v, i in zip(virtual, below):
        a, b, t = float(ordered[i]), float(ordered[i + 1]), v - i
        d = b - a
        quartiles.append(b - d * (1.0 - t) if t >= 0.5 else a + d * t)
    return quartiles[0], quartiles[1]


def _resolve_bandwidths(sample: np.ndarray, bandwidth, density: bool = False) -> np.ndarray:
    """Per-axis bandwidths from 'auto', a scalar, or a sequence, refused
    unless every factor a kernel pass takes from them is finite: 1 / h^2 and
    -1 / (2 h^2) on each axis, and for a ``density`` the normaliser
    (2 pi)^(-d/2) / prod(h).  Below about 7.5e-155, 1 / h^2 overflows."""
    d = sample.shape[1]
    if isinstance(bandwidth, str):
        if bandwidth != "auto":
            raise SchemaError(f"unknown bandwidth setting {bandwidth!r}")
        arr = np.array([silverman_bandwidth(sample[:, j]) for j in range(d)])
    else:
        arr = np.atleast_1d(np.asarray(bandwidth, dtype=float))
        if arr.size == 1:
            arr = np.full(d, float(arr[0]))
        if arr.size != d or np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
            raise SchemaError(f"need {d} positive bandwidths, got {bandwidth!r}")
    with np.errstate(over="ignore", divide="ignore"):
        finite = np.isfinite(1.0 / arr**2)  # and so is -1 / (2 h^2), half of it
        norm = _INV_SQRT_2PI ** d / np.prod(arr) if density else 1.0
    if not finite.all():
        j = int(np.argmin(finite))
        raise SchemaError(
            f"bandwidth {float(arr[j])!r} of axis {j} is too small: 1/h^2 is not finite"
        )
    if not np.isfinite(norm):
        raise SchemaError(
            f"bandwidths {arr.tolist()!r} of axes 0-{d - 1} are too small: "
            "the density normaliser (2 pi)^(-d/2) / prod(h) is not finite"
        )
    return arr


# ---------------------------------------------------------------------------
# feature maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureMap:
    """Polynomial feature expansion of raw columns.

    Emits each input column raised to powers 1..degree, plus all pairwise
    products of distinct columns when ``interactions`` is set.  The
    intercept is never part of the map; learners add it themselves.
    """

    degree: int = 1
    interactions: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.degree <= MAX_POLY_DEGREE:
            raise SchemaError(
                f"polynomial degree must be in [1, {MAX_POLY_DEGREE}], got {self.degree}"
            )

    def transform(self, raw: np.ndarray) -> np.ndarray:
        raw = np.atleast_2d(np.asarray(raw, dtype=float))
        d = raw.shape[1]
        pairs = self.interactions and d > 1
        if self.degree == 1 and not pairs:
            return raw  # raw ** 1 is exact: the columns as given, not a copy
        blocks = [raw ** p for p in range(1, self.degree + 1)]
        if pairs:
            blocks.extend(
                (raw[:, [a]] * raw[:, [b]]) for a in range(d) for b in range(a + 1, d)
            )
        return np.hstack(blocks)

    def grad_transform(self, raw: np.ndarray, axis: int) -> np.ndarray:
        """Derivative of every emitted feature with respect to raw column ``axis``."""
        raw = np.atleast_2d(np.asarray(raw, dtype=float))
        n, d = raw.shape
        blocks = []
        for p in range(1, self.degree + 1):
            block = np.zeros((n, d))
            block[:, axis] = p * raw[:, axis] ** (p - 1)
            blocks.append(block)
        if self.interactions and d > 1:
            for a in range(d):
                for b in range(a + 1, d):
                    col = np.zeros((n, 1))
                    if a == axis:
                        col[:, 0] = raw[:, b]
                    elif b == axis:
                        col[:, 0] = raw[:, a]
                    blocks.append(col)
        return np.hstack(blocks)


# ---------------------------------------------------------------------------
# linear and logistic regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearFit:
    """Least-squares fit; ``coef[0]`` is the intercept."""

    coef: np.ndarray
    ridge_lambda: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        X = _with_intercept(features)
        return X @ self.coef

    def predict_grad(self, feature_grads: np.ndarray) -> np.ndarray:
        """Directional derivative given d(features)/d(coordinate)."""
        grads = np.atleast_2d(np.asarray(feature_grads, dtype=float))
        return grads @ self.coef[1:]


@dataclass(frozen=True)
class LogisticFit:
    """Logistic regression fit; predictions are probabilities in (0, 1)."""

    coef: np.ndarray
    iterations: int
    converged: bool

    def predict(self, features: np.ndarray) -> np.ndarray:
        X = _with_intercept(features)
        return _expit(X @ self.coef)


def _with_intercept(features: np.ndarray) -> np.ndarray:
    F = np.atleast_2d(np.asarray(features, dtype=float))
    X = np.empty((F.shape[0], F.shape[1] + 1))
    X[:, 0] = 1.0
    X[:, 1:] = F
    return X


def _expit(eta: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-eta)) for eta >= 0 and exp(eta) / (1 + exp(eta)) below:
    exp never sees a positive argument, so nothing overflows."""
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def _ridge_penalty(size: int, ridge_lambda: float) -> np.ndarray:
    """ridge_lambda on the diagonal, except for the unpenalized intercept."""
    penalty = np.eye(size) * ridge_lambda
    penalty[0, 0] = 0.0
    return penalty


@dataclass(frozen=True)
class StackedFits:
    """The fits of one stacked ``fit_ols`` or ``fit_logistic`` call, in the
    order of its designs.  A member whose own call would raise holds that
    exception instead of a fit."""

    members: tuple

    @property
    def iterations(self) -> int:
        """IRLS iterations summed over the fitted logistic members."""
        return sum(m.iterations for m in self.members if isinstance(m, LogisticFit))

    @property
    def converged(self) -> bool:
        """Whether every fitted logistic member converged."""
        return all(m.converged for m in self.members if isinstance(m, LogisticFit))


def _not_finite(what: str) -> NumericalError:
    return NumericalError(f"the {what} not finite: the features or targets overflow; "
                          "rescale the data or lower the polynomial degree")


def _finite(*arrays: np.ndarray) -> bool:
    """Whether every entry of the arrays is finite.  An entry that is not
    makes the sum non-finite, so the entries are looked at one by one only
    then (finite entries can overflow a sum too)."""
    total = 0.0
    for a in arrays:
        total += a.sum()
    return math.isfinite(total) or all(np.isfinite(a).all() for a in arrays)


def _stacked(kernel, designs: list, targets: list, ridge_lambda: float) -> StackedFits:
    """The fits of ``kernel`` on a stack, from one call.  Only if that call
    raises is each member fit alone, and it keeps the fit or the exception
    of its own call."""
    if not designs:
        return StackedFits(())
    try:
        return StackedFits(tuple(kernel(designs, targets, ridge_lambda)))
    except InfluenceLabError:
        pass
    members = []
    for X, t in zip(designs, targets):
        try:
            members.append(kernel([X], [t], ridge_lambda)[0])
        except InfluenceLabError as exc:
            members.append(exc)
    return StackedFits(tuple(members))


def _check_ridge(ridge_lambda: float) -> None:
    if not 0.0 <= ridge_lambda < math.inf:
        raise SchemaError(f"ridge_lambda must be finite and nonnegative, got {ridge_lambda}")


def fit_ols(features, targets, ridge_lambda: float = 0.0):
    """Solve the (optionally ridge-penalized) normal equations.

    The intercept is always included and never penalized.  Singular normal
    equations with ``ridge_lambda == 0`` raise ``SingularityError`` advising
    a positive penalty; normal equations that are not finite (an overflow)
    raise ``NumericalError`` before LAPACK sees them.

    Lists of designs and of target vectors fit a stack, whose designs share
    their column count but not their row count: each member's normal
    equations are built on their own, then one stacked svd rank guard and
    one stacked solve serve them all, and the result is a ``StackedFits``.
    One design is the stack of one, and returns its ``LinearFit`` or raises.
    """
    _check_ridge(ridge_lambda)
    if not isinstance(features, list):
        return _ols_stack([_with_intercept(features)], [targets], ridge_lambda)[0]
    designs = [_with_intercept(F) for F in features]
    if len({X.shape[1] for X in designs}) > 1:
        raise SchemaError("the designs of a stack must share their column count")
    return _stacked(_ols_stack, designs, targets, ridge_lambda)


def _ols_stack(designs: list, targets: list, ridge_lambda: float) -> list:
    """The ``LinearFit`` of each design (intercept included) and target
    vector of a stack; raises where a one-design call would."""
    lhs, rhs = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
        for X, t in zip(designs, targets):
            y = np.asarray(t, dtype=float).ravel()
            if X.shape[0] != y.size:
                raise SchemaError(f"{X.shape[0]} rows of features but {y.size} targets")
            lhs.append(X.T @ X)
            rhs.append(X.T @ y)
        lhs, rhs = np.stack(lhs), np.stack(rhs)
        if not _finite(lhs, rhs):
            raise _not_finite("normal equations are")
    if ridge_lambda == 0.0:
        # Guard against numerically singular systems before trusting solve():
        # the rank test of np.linalg.matrix_rank at its default tolerance.
        S = np.linalg.svd(lhs, compute_uv=False)
        tol = S.max(axis=1, keepdims=True) * (lhs.shape[1] * np.finfo(float).eps)
        if not (S > tol).all():
            raise SingularityError("normal equations are singular (collinear features); "
                                   "set ridge_lambda > 0 to regularize")
    else:
        lhs = lhs + _ridge_penalty(lhs.shape[1], ridge_lambda)
    try:
        coefs = np.linalg.solve(lhs, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise SingularityError(
            "normal equations are singular; set ridge_lambda > 0 to regularize") from None
    return [LinearFit(coef=c, ridge_lambda=float(ridge_lambda)) for c in coefs]


def fit_logistic(features, targets, ridge_lambda: float = 0.0):
    """Logistic regression by iteratively reweighted least squares.

    Convergence is declared when the max absolute score component drops
    below ``IRLS_SCORE_TOL`` (at most ``IRLS_MAX_ITER`` iterations).  With
    no penalty, a coefficient escaping past ``SEPARATION_COEF_BOUND``
    raises ``SeparationError``.  Feature columns that are constant would
    duplicate the built-in intercept and are rejected; a design, score or
    Hessian that is not finite (an overflow) raises ``NumericalError``
    before LAPACK sees it.

    Lists of designs of one shape and of target vectors fit a stack in one
    (B, n, p) IRLS loop, and the result is a ``StackedFits``.  One design is
    the stack of one, and returns its ``LogisticFit`` or raises.
    """
    _check_ridge(ridge_lambda)
    if not isinstance(features, list):
        return _logistic_stack([np.atleast_2d(np.asarray(features, dtype=float))],
                               [targets], ridge_lambda)[0]
    designs = [np.atleast_2d(np.asarray(F, dtype=float)) for F in features]
    if len({F.shape for F in designs}) > 1:
        raise SchemaError("the designs of a stack must share one shape")
    return _stacked(_logistic_stack, designs, targets, ridge_lambda)


def _logistic_stack(designs: list, targets: list, ridge_lambda: float) -> list:
    """The ``LogisticFit`` of each design (no intercept) and target vector of
    a stack of one shape; raises where a one-design call would."""
    B, (n, d) = len(designs), designs[0].shape
    X = np.empty((B, n, d + 1))
    X[:, :, 0] = 1.0
    Y = np.empty((B, n))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
        for i, (F, t) in enumerate(zip(designs, targets)):
            X[i, :, 1:] = F
            y = np.asarray(t, dtype=float).ravel()
            if y.size != n:
                raise SchemaError(f"{n} rows of features but {y.size} targets")
            if not np.all((y == 0.0) | (y == 1.0)):
                raise SchemaError("logistic targets must be 0/1")
            Y[i] = y
        if d:
            # per column, over rows made contiguous: an axis-1 max of X is 5x slower
            columns = X[:, :, 1:].transpose(0, 2, 1).copy()
            spreads = columns.max(axis=2) - columns.min(axis=2)  # nan at inf - inf
            if not _finite(spreads):
                raise _not_finite("design is")
            if np.any(spreads == 0.0):
                raise SchemaError(
                    f"feature column {int(np.argmin(spreads.min(axis=0)))} is constant "
                    "and duplicates the intercept; drop it"
                )
        return _irls(X, Y, ridge_lambda)


def _irls(X: np.ndarray, Y: np.ndarray, ridge_lambda: float) -> list:
    """The IRLS loop of ``fit_logistic`` over the (B, n, p) stack of designs
    ``X`` and targets ``Y``: each member's ``LogisticFit``.  It raises where
    a one-design loop would.

    A member that converges is frozen and leaves the stack, which is
    indexed anew only then.  Every element of a member meets the
    floating-point operations of a one-design loop, in the same order, so
    its bits are those of its own call.
    """
    # With no penalty its terms are exact zeros and are left out.
    penalty = None if ridge_lambda == 0.0 else _ridge_penalty(X.shape[2], ridge_lambda)
    fits: list = [None] * len(X)
    live = np.arange(len(X))
    beta = np.zeros((len(X), X.shape[2]))
    for iterations in range(1, IRLS_MAX_ITER + 1):
        p = _expit((X @ beta[:, :, None])[:, :, 0])
        score = (X.transpose(0, 2, 1) @ (Y - p)[:, :, None])[:, :, 0]
        if penalty is not None:
            score -= (penalty @ beta[:, :, None])[:, :, 0]
        converged = np.abs(score).max(axis=1) < IRLS_SCORE_TOL
        if np.count_nonzero(converged):
            for j in np.flatnonzero(converged):
                fits[live[j]] = LogisticFit(coef=beta[j], iterations=iterations, converged=True)
            if converged.all():
                return fits
            live, X, Y, beta, p, score = (a[~converged] for a in (live, X, Y, beta, p, score))
        w = np.maximum(p * (1.0 - p), 1e-10)
        hess = (X.transpose(0, 2, 1) * w[:, None, :]) @ X
        if penalty is not None:
            hess += penalty
        if not _finite(hess, score):
            raise _not_finite("IRLS Hessian or score is")
        try:
            beta = beta + np.linalg.solve(hess, score[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise SolverError("IRLS update is singular") from None
        if penalty is None and np.abs(beta).max() > SEPARATION_COEF_BOUND:
            raise SeparationError("logistic coefficients diverged (classes appear separated); "
                                  "set ridge_lambda > 0 or simplify the model")
    for j, i in enumerate(live):
        fits[i] = LogisticFit(coef=beta[j], iterations=IRLS_MAX_ITER, converged=False)
    return fits


# ---------------------------------------------------------------------------
# kernel regression
# ---------------------------------------------------------------------------


def _kernel_blocks(queries: np.ndarray, sample: np.ndarray, h: np.ndarray):
    """Gaussian weights exp(sum_j (q_j - x_j)^2 * f_j), f_j = -1 / (2 h_j^2),
    of query rows q against sample rows x, one block of query rows at a time.

    Yields ``(rows, W, spare)``: the slice of query rows, their weights, and
    a buffer of W's shape that the caller may overwrite.  Both live in
    buffers reused from block to block, so no block may be kept.  A block
    holds a multiple of 8 rows, about ``KERNEL_BLOCK_ELEMENTS`` weights, and
    a tail of fewer than 8 rows joins the block before it.

    At an accepted bandwidth below about 1e-153 an exponent can overflow, to
    a weight of exactly 0.  So a pass runs its block loop with numpy's
    overflow and invalid warnings off, and ``_require_finite`` then refuses
    a result that a real overflow left infinite or nan.
    """
    Q = np.atleast_2d(np.asarray(queries, dtype=float))
    n_query, (n_train, d) = Q.shape[0], sample.shape
    if Q.shape[1] != d:
        raise SchemaError(f"query has {Q.shape[1]} columns, the sample has {d}")
    factors = -0.5 / h**2
    rows = max(8, KERNEL_BLOCK_ELEMENTS // n_train // 8 * 8)
    starts = list(range(0, n_query, rows))
    if len(starts) > 1 and n_query - starts[-1] < 8:
        starts.pop()
    buffers = np.empty((2, min(n_query, rows + 7), n_train))
    for start, stop in zip(starts, starts[1:] + [n_query]):
        W, spare = buffers[:, : stop - start]
        if d == 0:
            W.fill(0.0)
        for j in range(d):  # the exponent summed one coordinate at a time
            z = np.subtract(Q[start:stop, j, None], sample[:, j], out=spare if j else W)
            np.square(z, out=z)
            np.multiply(z, factors[j], out=z)
            if j:
                W += z
        np.exp(W, out=W)
        yield slice(start, stop), W, spare


def _slope(sample_axis, query_axis, inv_h2: float, out: np.ndarray) -> np.ndarray:
    """(x - q) / h^2 of one axis into ``out``, held to the finite range: it
    overflows only where the weight is exactly 0, which must then add 0,
    not 0 * inf = nan, to a sum.  A finite slope keeps its bits."""
    slope = np.subtract(sample_axis, query_axis[:, None], out=out)
    np.multiply(slope, inv_h2, out=slope)
    return np.clip(slope, -_FLOAT_MAX, _FLOAT_MAX, out=slope)


def _require_finite(values: np.ndarray, what: str) -> None:
    """Raise if a kernel pass left a value non-finite: past the weights'
    exponents nothing in a pass may overflow."""
    rows = np.nonzero(~np.isfinite(values))[-1]
    if rows.size:
        raise NumericalError(f"kernel {what} overflows at query row {rows.min()}; "
                             "the bandwidth is too small or the data too large")


class KernelRegressionFit:
    """Nadaraya-Watson regression with a product Gaussian kernel.

    Stores the training sample; predictions are locally weighted means.
    If the total kernel weight at a query point underflows below
    ``KERNEL_WEIGHT_FLOOR`` the query is an extrapolation and raises.
    """

    def __init__(self, features: np.ndarray, targets: np.ndarray, bandwidth="auto"):
        F = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float).ravel()
        if F.shape[0] != y.size:
            raise SchemaError(f"{F.shape[0]} rows of features but {y.size} targets")
        if F.shape[0] < 2:
            raise SchemaError("kernel regression needs at least two training rows")
        self._F = F
        self._y = y
        self._ones = np.ones(y.size)  # weight totals are gemvs with it, as the numerators are
        self._h = _resolve_bandwidths(F, bandwidth)

    @property
    def bandwidths(self) -> np.ndarray:
        return self._h.copy()

    def _sums(self, queries: np.ndarray, axis: int | None = None) -> tuple[np.ndarray, ...]:
        """Per query row: the kernel weights' gemvs with ones (their total)
        and with the targets, plus the same two of their derivative along
        ``axis``."""
        Q = np.atleast_2d(np.asarray(queries, dtype=float))
        sums = np.empty((2 if axis is None else 4, Q.shape[0]))
        total, num = sums[0], sums[1]
        inv_h2 = None if axis is None else 1.0 / self._h[axis] ** 2
        with np.errstate(over="ignore", invalid="ignore"):  # see _kernel_blocks
            # no buffered copy of the exponent's broadcast at n_train <= 2730;
            # bit-neutral, and the errstate exit restores the caller's size
            np.setbufsize(KERNEL_UFUNC_BUFSIZE)
            for rows, W, spare in _kernel_blocks(Q, self._F, self._h):
                np.matmul(W, self._ones, out=total[rows])
                np.matmul(W, self._y, out=num[rows])
                if axis is not None:
                    # dW/dq_axis = W * (x_axis - q_axis) / h_axis^2
                    slope = _slope(self._F[:, axis], Q[rows, axis], inv_h2, spare)
                    Wd = np.multiply(W, slope, out=slope)
                    np.matmul(Wd, self._ones, out=sums[2, rows])
                    np.matmul(Wd, self._y, out=sums[3, rows])
        _require_finite(sums, "sum")
        if np.any(total < KERNEL_WEIGHT_FLOOR):
            raise ExtrapolationError(
                f"kernel weight underflow at query row {int(np.argmin(total))}; "
                "the point is too far from the training sample"
            )
        return tuple(sums)

    def predict(self, queries: np.ndarray) -> np.ndarray:
        total, num = self._sums(queries)
        return num / total

    def predict_grad(self, queries: np.ndarray, axis: int) -> np.ndarray:
        """Analytic derivative of the prediction along one query coordinate.

        The quotient divides by the total weight squared, so a total below
        ``KERNEL_GRADIENT_FLOOR`` = sqrt(smallest normal float), whose
        square leaves the normal range and may underflow to 0, raises.
        """
        total, num, total_d, num_d = self._sums(queries, axis)
        faint = np.flatnonzero(total < KERNEL_GRADIENT_FLOOR)
        if faint.size:
            raise ExtrapolationError(
                f"kernel weight too small for a gradient at query row {int(faint[0])}; "
                "the point is too far from the training sample"
            )
        return (num_d * total - num * total_d) / total**2


def fit_kernel_regression(
    features: np.ndarray, targets: np.ndarray, bandwidth="auto"
) -> KernelRegressionFit:
    return KernelRegressionFit(features, targets, bandwidth)


# ---------------------------------------------------------------------------
# kernel density estimation
# ---------------------------------------------------------------------------


class DensityFit:
    """Product-Gaussian kernel density estimate with analytic gradient."""

    def __init__(self, sample: np.ndarray, bandwidth="auto"):
        S = np.asarray(sample, dtype=float)
        if S.ndim == 1:
            S = S[:, None]
        if S.shape[0] < 2:
            raise SchemaError("density estimation needs at least two points")
        self._S = S
        self._h = _resolve_bandwidths(S, bandwidth, density=True)

    @property
    def bandwidths(self) -> np.ndarray:
        return self._h.copy()

    @property
    def bandwidth(self) -> float:
        """Scalar bandwidth; only defined for one-dimensional fits."""
        if self._h.size != 1:
            raise SchemaError("scalar bandwidth is defined only in one dimension")
        return float(self._h[0])

    @property
    def sample(self) -> np.ndarray:
        return self._S

    def _means(self, points: np.ndarray, axis: int | None = None) -> np.ndarray:
        """Per point: the mean of the scaled kernel, or with ``axis`` the mean
        of its derivative along that coordinate."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty(P.shape[0])
        norm = _INV_SQRT_2PI ** self._S.shape[1] / np.prod(self._h)
        inv_h2 = None if axis is None else 1.0 / self._h[axis] ** 2
        with np.errstate(over="ignore", invalid="ignore"):  # see _kernel_blocks
            np.setbufsize(KERNEL_UFUNC_BUFSIZE)  # as in KernelRegressionFit._sums
            for rows, K, spare in _kernel_blocks(P, self._S, self._h):
                np.multiply(K, norm, out=K)
                if axis is not None:
                    slope = _slope(self._S[:, axis], P[rows, axis], inv_h2, spare)
                    K = np.multiply(K, slope, out=slope)
                np.mean(K, axis=1, out=out[rows])
        _require_finite(out, "density" if axis is None else "density gradient")
        return out

    def density_at(self, points: np.ndarray) -> np.ndarray:
        return self._means(points)

    def density_grad_at(self, points: np.ndarray, axis: int = 0) -> np.ndarray:
        """Analytic partial derivative of the density along one coordinate."""
        return self._means(points, axis)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim <= 1 and self._S.shape[1] == 1:
            return self.density_at(np.atleast_1d(pts)[:, None])
        return self.density_at(pts)


def fit_kde(sample: np.ndarray, bandwidth="auto") -> DensityFit:
    return DensityFit(sample, bandwidth)
