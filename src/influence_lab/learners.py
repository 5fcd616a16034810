"""Nuisance learners: penalized least squares, logistic regression fit by
iteratively reweighted least squares, Nadaraya-Watson kernel regression, and
Gaussian kernel density estimation with analytic gradients.

All fits are plain containers of coefficients or training data plus pure
prediction functions; nothing here knows about folds, trimming, or
estimands.  Density and regression gradients are computed analytically from
the Gaussian kernel, never by finite differences.

Kernel weights are filled in blocks of query rows, in place in one buffer of
``KERNEL_BLOCK_ELEMENTS`` floats, by a one-shot broadcast's operations in the
same order, so they are the same bit for bit.  Row sums and gemvs still run on
the whole matrix: a gemv cut into row blocks would round differently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExtrapolationError, SchemaError, SeparationError, SingularityError, SolverError

IRLS_SCORE_TOL = 1e-8
IRLS_MAX_ITER = 100
SEPARATION_COEF_BOUND = 50.0
KERNEL_WEIGHT_FLOOR = 1e-300
KERNEL_BLOCK_ELEMENTS = 1 << 15
MAX_POLY_DEGREE = 3
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


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


def _resolve_bandwidths(sample: np.ndarray, bandwidth) -> np.ndarray:
    """Per-axis bandwidths from 'auto', a scalar, or a sequence."""
    d = sample.shape[1]
    if isinstance(bandwidth, str):
        if bandwidth != "auto":
            raise SchemaError(f"unknown bandwidth setting {bandwidth!r}")
        return np.array([silverman_bandwidth(sample[:, j]) for j in range(d)])
    arr = np.atleast_1d(np.asarray(bandwidth, dtype=float))
    if arr.size == 1:
        arr = np.full(d, float(arr[0]))
    if arr.size != d or np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise SchemaError(f"need {d} positive bandwidths, got {bandwidth!r}")
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
        blocks = [raw ** p for p in range(1, self.degree + 1)]
        if self.interactions and raw.shape[1] > 1:
            d = raw.shape[1]
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
    return np.hstack([np.ones((F.shape[0], 1)), F])


def _expit(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
    gram = X.T @ X
    penalty = np.eye(X.shape[1]) * ridge_lambda
    penalty[0, 0] = 0.0
    lhs = gram + penalty
    rhs = X.T @ y
    # Guard against numerically singular systems before trusting solve().
    if ridge_lambda == 0.0:
        rank = np.linalg.matrix_rank(gram, tol=None)
        if rank < X.shape[1]:
            raise SingularityError(
                "normal equations are singular (collinear features); "
                "set ridge_lambda > 0 to regularize"
            )
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
    spreads = np.ptp(X[:, 1:], axis=0) if X.shape[1] > 1 else np.array([])
    if np.any(spreads == 0.0):
        j = int(np.argmin(spreads))
        raise SchemaError(
            f"feature column {j} is constant and duplicates the intercept; drop it"
        )
    penalty = np.eye(X.shape[1]) * ridge_lambda
    penalty[0, 0] = 0.0
    beta = np.zeros(X.shape[1])
    converged = False
    iterations = 0
    for iterations in range(1, IRLS_MAX_ITER + 1):
        p = _expit(X @ beta)
        score = X.T @ (y - p) - penalty @ beta
        if np.max(np.abs(score)) < IRLS_SCORE_TOL:
            converged = True
            break
        w = np.clip(p * (1.0 - p), 1e-10, None)
        hess = (X.T * w) @ X + penalty
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError as exc:
            raise SolverError("IRLS update is singular") from exc
        beta = beta + step
        if ridge_lambda == 0.0 and np.max(np.abs(beta)) > SEPARATION_COEF_BOUND:
            raise SeparationError(
                "logistic coefficients diverged (classes appear separated); "
                "set ridge_lambda > 0 or simplify the model"
            )
    return LogisticFit(coef=beta, iterations=iterations, converged=converged)


# ---------------------------------------------------------------------------
# kernel regression
# ---------------------------------------------------------------------------


def _gaussian_weights(queries: np.ndarray, sample: np.ndarray, h: np.ndarray) -> np.ndarray:
    """exp(-0.5 * |(q - x) / h|^2) for query rows q (rows) and sample rows x (columns)."""
    Q = np.atleast_2d(np.asarray(queries, dtype=float))
    if Q.shape[1] != sample.shape[1]:
        raise SchemaError(f"query has {Q.shape[1]} columns, the sample has {sample.shape[1]}")
    W = np.empty((Q.shape[0], sample.shape[0]))
    rows = max(1, KERNEL_BLOCK_ELEMENTS // max(1, sample.size))
    block = np.empty((min(rows, Q.shape[0]), *sample.shape))
    for s in range(0, Q.shape[0], rows):
        w, z = W[s : s + rows], block[: min(rows, Q.shape[0] - s)]
        np.subtract(Q[s : s + rows, None, :], sample, out=z)
        np.divide(z, h, out=z)
        np.square(z, out=z)
        np.sum(z, axis=2, out=w)
        np.multiply(-0.5, w, out=w)
        np.exp(w, out=w)
    return W


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

    def _weights(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kernel weights at the queries and their row sums."""
        W = _gaussian_weights(queries, self._F, self._h)
        total = W.sum(axis=1)
        if np.any(total < KERNEL_WEIGHT_FLOOR):
            raise ExtrapolationError(
                f"kernel weight underflow at query row {int(np.argmin(total))}; "
                "the point is too far from the training sample"
            )
        return W, total

    def predict(self, queries: np.ndarray) -> np.ndarray:
        W, total = self._weights(queries)
        return (W @ self._y) / total

    def predict_grad(self, queries: np.ndarray, axis: int) -> np.ndarray:
        """Analytic derivative of the prediction along one query coordinate."""
        Q = np.atleast_2d(np.asarray(queries, dtype=float))
        W, total = self._weights(Q)
        # dW/dq_axis = W * (x_axis - q_axis) / h_axis^2
        slope = (self._F[None, :, axis] - Q[:, [axis]]) / self._h[axis] ** 2
        Wd = W * slope
        num = W @ self._y
        num_d = Wd @ self._y
        total_d = Wd.sum(axis=1)
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
        self._h = _resolve_bandwidths(S, bandwidth)

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

    def _kernel_matrix(self, points: np.ndarray) -> np.ndarray:
        K = _gaussian_weights(points, self._S, self._h)
        K *= _INV_SQRT_2PI ** self._S.shape[1]
        K /= np.prod(self._h)
        return K

    def density_at(self, points: np.ndarray) -> np.ndarray:
        return self._kernel_matrix(points).mean(axis=1)

    def density_grad_at(self, points: np.ndarray, axis: int = 0) -> np.ndarray:
        """Analytic partial derivative of the density along one coordinate."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        K = self._kernel_matrix(P)
        slope = (self._S[None, :, axis] - P[:, [axis]]) / self._h[axis] ** 2
        return (K * slope).mean(axis=1)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim <= 1 and self._S.shape[1] == 1:
            return self.density_at(np.atleast_1d(pts)[:, None])
        return self.density_at(pts)


def fit_kde(sample: np.ndarray, bandwidth="auto") -> DensityFit:
    return DensityFit(sample, bandwidth)
