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
made.  A block's row sums, means and gemvs write into n_query-long
outputs.  Blocks hold a multiple of 8 rows and a tail of fewer than 8 rows
joins the block before it: single-threaded OpenBLAS then reduces every row
with the gemv kernel it uses on the whole matrix, while a short tail block (a
single row above all) would be summed in another order.

The least-squares and IRLS fits are written for few numpy calls per fit (one
preallocated design, a branch-free logistic, no all-zero penalty terms) with
every element's floating-point operations unchanged, so their coefficients are
bit-identical to those of the masked two-branch, full-penalty form that
tests/test_learners.py keeps as the reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ExtrapolationError, NumericalError, SchemaError, SeparationError,
                     SingularityError, SolverError)

IRLS_SCORE_TOL = 1e-8
IRLS_MAX_ITER = 100
SEPARATION_COEF_BOUND = 50.0
KERNEL_WEIGHT_FLOOR = 1e-300
KERNEL_BLOCK_ELEMENTS = 1 << 15
MAX_POLY_DEGREE = 3
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_FLOAT_MAX = float(np.finfo(float).max)


def silverman_bandwidth(sample: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(sd, IQR / 1.34) * n^(-1/5).

    The sample standard deviation uses the n - 1 divisor.  If one of the
    two spread measures is zero the other is used; a sample with no spread
    at all has no usable bandwidth and raises.
    """
    sample = np.asarray(sample, dtype=float).ravel()
    if sample.size < 2:
        raise SchemaError("bandwidth selection needs at least two points")
    sd = float(np.std(sample, ddof=1))
    q75, q25 = np.percentile(sample, [75.0, 25.0])
    iqr_scale = float(q75 - q25) / 1.34
    candidates = [s for s in (sd, iqr_scale) if s > 0.0]
    if not candidates:
        raise SchemaError("sample has zero spread; no bandwidth exists")
    return 0.9 * min(candidates) * sample.size ** (-0.2)


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


def fit_ols(features: np.ndarray, targets: np.ndarray, ridge_lambda: float = 0.0) -> LinearFit:
    """Solve the (optionally ridge-penalized) normal equations.

    The intercept is always included and never penalized.  Singular normal
    equations with ``ridge_lambda == 0`` raise ``SingularityError`` advising
    a positive penalty.
    """
    if ridge_lambda < 0.0:
        raise SchemaError(f"ridge_lambda must be nonnegative, got {ridge_lambda}")
    X = _with_intercept(features)
    y = np.asarray(targets, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise SchemaError(f"{X.shape[0]} rows of features but {y.size} targets")
    lhs = X.T @ X
    rhs = X.T @ y
    if ridge_lambda == 0.0:
        # Guard against numerically singular systems before trusting solve():
        # the rank test of np.linalg.matrix_rank at its default tolerance.
        S = np.linalg.svd(lhs, compute_uv=False)
        if not (S > S.max() * (lhs.shape[0] * np.finfo(float).eps)).all():
            raise SingularityError(
                "normal equations are singular (collinear features); "
                "set ridge_lambda > 0 to regularize"
            )
    else:
        lhs = lhs + _ridge_penalty(lhs.shape[0], ridge_lambda)
    try:
        coef = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            "normal equations are singular; set ridge_lambda > 0 to regularize"
        ) from exc
    return LinearFit(coef=coef, ridge_lambda=float(ridge_lambda))


def fit_logistic(
    features: np.ndarray, targets: np.ndarray, ridge_lambda: float = 0.0
) -> LogisticFit:
    """Logistic regression by iteratively reweighted least squares.

    Convergence is declared when the max absolute score component drops
    below ``IRLS_SCORE_TOL`` (at most ``IRLS_MAX_ITER`` iterations).  With
    no penalty, a coefficient escaping past ``SEPARATION_COEF_BOUND``
    raises ``SeparationError``.  Feature columns that are constant would
    duplicate the built-in intercept and are rejected.
    """
    if ridge_lambda < 0.0:
        raise SchemaError(f"ridge_lambda must be nonnegative, got {ridge_lambda}")
    X = _with_intercept(features)
    y = np.asarray(targets, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise SchemaError(f"{X.shape[0]} rows of features but {y.size} targets")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise SchemaError("logistic targets must be 0/1")
    if X.shape[1] > 1:
        F = X[:, 1:]
        spreads = F.max(axis=0) - F.min(axis=0)
        if np.any(spreads == 0.0):
            j = int(np.argmin(spreads))
            raise SchemaError(
                f"feature column {j} is constant and duplicates the intercept; drop it"
            )
    # With no penalty its terms are exact zeros and are left out.
    penalty = None if ridge_lambda == 0.0 else _ridge_penalty(X.shape[1], ridge_lambda)
    beta = np.zeros(X.shape[1])
    converged = False
    iterations = 0
    for iterations in range(1, IRLS_MAX_ITER + 1):
        p = _expit(X @ beta)
        score = X.T @ (y - p)
        if penalty is not None:
            score -= penalty @ beta
        if np.abs(score).max() < IRLS_SCORE_TOL:
            converged = True
            break
        w = np.maximum(p * (1.0 - p), 1e-10)
        hess = (X.T * w) @ X
        if penalty is not None:
            hess += penalty
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError as exc:
            raise SolverError("IRLS update is singular") from exc
        beta = beta + step
        if penalty is None and np.abs(beta).max() > SEPARATION_COEF_BOUND:
            raise SeparationError(
                "logistic coefficients diverged (classes appear separated); "
                "set ridge_lambda > 0 or simplify the model"
            )
    return LogisticFit(coef=beta, iterations=iterations, converged=converged)


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
        self._h = _resolve_bandwidths(F, bandwidth)

    @property
    def bandwidths(self) -> np.ndarray:
        return self._h.copy()

    def _sums(self, queries: np.ndarray, axis: int | None = None) -> tuple[np.ndarray, ...]:
        """Per query row: the kernel weights' total and their gemv with the
        targets, plus the same two of their derivative along ``axis``."""
        Q = np.atleast_2d(np.asarray(queries, dtype=float))
        sums = np.empty((2 if axis is None else 4, Q.shape[0]))
        total, num = sums[0], sums[1]
        inv_h2 = None if axis is None else 1.0 / self._h[axis] ** 2
        with np.errstate(over="ignore", invalid="ignore"):  # see _kernel_blocks
            for rows, W, spare in _kernel_blocks(Q, self._F, self._h):
                np.sum(W, axis=1, out=total[rows])
                np.matmul(W, self._y, out=num[rows])
                if axis is not None:
                    # dW/dq_axis = W * (x_axis - q_axis) / h_axis^2
                    slope = _slope(self._F[:, axis], Q[rows, axis], inv_h2, spare)
                    Wd = np.multiply(W, slope, out=slope)
                    np.sum(Wd, axis=1, out=sums[2, rows])
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
        """Analytic derivative of the prediction along one query coordinate."""
        total, num, total_d, num_d = self._sums(queries, axis)
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
