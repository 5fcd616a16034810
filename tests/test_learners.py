"""Polynomial features, regression fits, kernel smoothers, and bandwidth rules."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from influence_lab import (
    ExtrapolationError,
    FeatureMap,
    SchemaError,
    SeparationError,
    SingularityError,
    fit_kde,
    fit_kernel_regression,
    fit_logistic,
    fit_ols,
    silverman_bandwidth,
)
from influence_lab import learners
from influence_lab.learners import KERNEL_BLOCK_ELEMENTS


class TestSilvermanBandwidth:
    def test_matches_rule_of_thumb(self):
        rng = np.random.default_rng(11)
        sample = rng.normal(size=200)
        sd = np.std(sample, ddof=1)
        q75, q25 = np.percentile(sample, [75, 25])
        expected = 0.9 * min(sd, (q75 - q25) / 1.34) * 200 ** (-0.2)
        assert silverman_bandwidth(sample) == pytest.approx(expected, rel=1e-12)

    def test_falls_back_when_iqr_is_zero(self):
        # Heavy central atom kills the IQR; the sd should take over.
        sample = np.array([0.0] * 20 + [5.0, -5.0])
        sd = np.std(sample, ddof=1)
        expected = 0.9 * sd * sample.size ** (-0.2)
        assert silverman_bandwidth(sample) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_samples_rejected(self):
        with pytest.raises(SchemaError, match="two points"):
            silverman_bandwidth(np.array([1.0]))
        with pytest.raises(SchemaError, match="zero spread"):
            silverman_bandwidth(np.full(10, 3.0))


class TestFeatureMap:
    def test_degree_two_with_interactions_layout(self):
        raw = np.array([[2.0, 3.0], [1.0, -1.0]])
        fm = FeatureMap(degree=2, interactions=True)
        expected = np.array(
            [[2.0, 3.0, 4.0, 9.0, 6.0], [1.0, -1.0, 1.0, 1.0, -1.0]]
        )
        np.testing.assert_allclose(fm.transform(raw), expected)

    def test_degree_one_is_identity(self):
        raw = np.array([[0.5, -2.0, 7.0]])
        np.testing.assert_array_equal(FeatureMap(degree=1).transform(raw), raw)

    @pytest.mark.parametrize("degree", [0, 4])
    def test_degree_out_of_range(self, degree):
        with pytest.raises(SchemaError, match="degree"):
            FeatureMap(degree=degree)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_grad_transform_matches_finite_differences(self, axis):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(6, 3))
        fm = FeatureMap(degree=3, interactions=True)
        h = 1e-6
        bumped = raw.copy()
        bumped[:, axis] += h
        dipped = raw.copy()
        dipped[:, axis] -= h
        numeric = (fm.transform(bumped) - fm.transform(dipped)) / (2 * h)
        np.testing.assert_allclose(fm.grad_transform(raw, axis), numeric, atol=1e-7)


class TestFitOls:
    def test_exact_recovery_on_noiseless_data(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 2))
        y = 1.5 - 2.0 * X[:, 0] + 0.25 * X[:, 1]
        fit = fit_ols(X, y)
        np.testing.assert_allclose(fit.coef, [1.5, -2.0, 0.25], atol=1e-10)
        np.testing.assert_allclose(fit.predict(X), y, atol=1e-10)

    def test_predict_grad_returns_slope(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        fit = fit_ols(X, 4.0 + 2.5 * X[:, 0])
        grads = np.ones((3, 1))
        np.testing.assert_allclose(fit.predict_grad(grads), [2.5, 2.5, 2.5], atol=1e-10)

    def test_collinear_features_raise_without_ridge(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        with pytest.raises(SingularityError, match="ridge_lambda"):
            fit_ols(X, np.arange(4.0))

    def test_ridge_resolves_collinearity_and_shrinks(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]])
        fit = fit_ols(X, np.arange(4.0), ridge_lambda=0.1)
        assert np.all(np.isfinite(fit.coef))
        # Ridge never penalizes the intercept: centered data keeps a zero one.
        Xc = X - X.mean(axis=0)
        yc = np.arange(4.0) - 1.5
        assert fit_ols(Xc, yc, ridge_lambda=5.0).coef[0] == pytest.approx(0.0, abs=1e-12)

    def test_shape_and_penalty_validation(self):
        with pytest.raises(SchemaError, match="rows"):
            fit_ols(np.ones((3, 1)), np.ones(4))
        with pytest.raises(SchemaError, match="nonnegative"):
            fit_ols(np.ones((3, 1)), np.ones(3), ridge_lambda=-1.0)


class TestFitLogistic:
    def test_recovers_coefficients(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20_000, 2))
        eta = 0.3 + 1.2 * X[:, 0] - 0.8 * X[:, 1]
        y = (rng.uniform(size=eta.size) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        fit = fit_logistic(X, y)
        assert fit.converged
        np.testing.assert_allclose(fit.coef, [0.3, 1.2, -0.8], atol=0.08)
        p = fit.predict(X)
        assert np.all((p > 0.0) & (p < 1.0))

    def test_exact_fit_on_saturated_binary_design(self):
        # One binary feature, cell frequencies 0.25 and 0.75.
        X = np.array([[0.0]] * 4 + [[1.0]] * 4)
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        fit = fit_logistic(X, y)
        np.testing.assert_allclose(
            fit.predict(np.array([[0.0], [1.0]])), [0.25, 0.75], atol=1e-8
        )

    def test_separated_classes_raise(self):
        X = np.linspace(-2, 2, 30)[:, None]
        y = (X[:, 0] > 0).astype(float)
        with pytest.raises(SeparationError, match="separated"):
            fit_logistic(X, y)

    def test_ridge_tames_separation(self):
        X = np.linspace(-2, 2, 30)[:, None]
        y = (X[:, 0] > 0).astype(float)
        fit = fit_logistic(X, y, ridge_lambda=1.0)
        assert np.all(np.abs(fit.coef) < 50.0)

    def test_constant_column_rejected(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        y = np.tile([0.0, 1.0], 5)
        with pytest.raises(SchemaError, match="constant"):
            fit_logistic(X, y)

    def test_nonbinary_targets_rejected(self):
        with pytest.raises(SchemaError, match="0/1"):
            fit_logistic(np.arange(4.0)[:, None], np.array([0.0, 1.0, 2.0, 1.0]))


# The masked two-branch logistic, the matrix_rank guard and the full-penalty
# IRLS loop that the lean fits replace: references the fits must reproduce
# bit for bit.


def _reference_expit(eta):
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_design(features):
    F = np.atleast_2d(np.asarray(features, dtype=float))
    return np.hstack([np.ones((F.shape[0], 1)), F])


def _reference_penalty(size, ridge_lambda):
    penalty = np.eye(size) * ridge_lambda
    penalty[0, 0] = 0.0
    return penalty


def _reference_ols(features, y, ridge_lambda):
    X = _reference_design(features)
    gram = X.T @ X
    if ridge_lambda == 0.0 and np.linalg.matrix_rank(gram, tol=None) < X.shape[1]:
        return None  # singular
    return np.linalg.solve(gram + _reference_penalty(X.shape[1], ridge_lambda), X.T @ y)


def _reference_logistic(features, y, ridge_lambda):
    X = _reference_design(features)
    penalty = _reference_penalty(X.shape[1], ridge_lambda)
    beta = np.zeros(X.shape[1])
    for iterations in range(1, learners.IRLS_MAX_ITER + 1):
        p = _reference_expit(X @ beta)
        score = X.T @ (y - p) - penalty @ beta
        if np.max(np.abs(score)) < learners.IRLS_SCORE_TOL:
            return beta, iterations, True
        w = np.clip(p * (1.0 - p), 1e-10, None)
        beta = beta + np.linalg.solve((X.T * w) @ X + penalty, score)
    return beta, iterations, False


def _polynomial_case(seed, d=2, n=300):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, d))
    eta = 0.2 + raw @ np.linspace(0.6, -0.4, d) + 0.1 * raw[:, 0] ** 2
    y_binary = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return raw, eta + rng.normal(size=n), y_binary


FIT_CASES = [
    (degree, interactions, ridge)
    for degree in (1, 2, 3)
    for interactions in (False, True)
    for ridge in (0.0, 0.3)
]


class TestLeanFitsMatchTheReference:
    def test_expit_on_special_and_random_values(self):
        special = np.array(
            [np.inf, -np.inf, 0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300, np.nan]
        )
        rng = np.random.default_rng(21)
        for eta in (special, rng.normal(scale=20.0, size=10_000)):
            assert np.array_equal(learners._expit(eta), _reference_expit(eta), equal_nan=True)

    def test_predict_at_large_linear_predictors_emits_no_warning(self):
        fit = learners.LogisticFit(coef=np.array([0.0, 1.0]), iterations=1, converged=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = fit.predict(np.array([[1000.0], [-1000.0]]))
        assert np.array_equal(p, [1.0, 0.0])

    # 1.5e-7 and 2e-7 put the smallest singular value just below and just
    # above matrix_rank's tolerance
    @pytest.mark.parametrize("perturbation", [0.0, 1e-9, 1.5e-7, 2e-7, 1e-4])
    def test_rank_verdict_matches_matrix_rank(self, perturbation):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(50, 2))
        # a third column that is a combination of the others, nudged off it
        third = base @ [2.0, -1.0] + perturbation * rng.normal(size=50)
        for X in (base, np.column_stack([base, third]), np.column_stack([base, base[:, :1]])):
            y = rng.normal(size=50)
            gram = _reference_design(X).T @ _reference_design(X)
            singular = np.linalg.matrix_rank(gram, tol=None) < gram.shape[0]
            if singular:
                with pytest.raises(SingularityError):
                    fit_ols(X, y)
            else:
                assert np.array_equal(fit_ols(X, y).coef, _reference_ols(X, y, 0.0))

    @pytest.mark.parametrize("degree, interactions, ridge", FIT_CASES)
    def test_ols_coefficients(self, degree, interactions, ridge):
        raw, y, _ = _polynomial_case(degree)
        F = FeatureMap(degree=degree, interactions=interactions).transform(raw)
        fit = fit_ols(F, y, ridge_lambda=ridge)
        assert np.array_equal(fit.coef, _reference_ols(F, y, ridge))
        assert np.array_equal(fit.predict(F), _reference_design(F) @ fit.coef)

    @pytest.mark.parametrize("degree, interactions, ridge", FIT_CASES)
    def test_logistic_coefficients_and_iterations(self, degree, interactions, ridge):
        raw, _, y = _polynomial_case(10 + degree)
        F = FeatureMap(degree=degree, interactions=interactions).transform(raw)
        fit = fit_logistic(F, y, ridge_lambda=ridge)
        beta, iterations, converged = _reference_logistic(F, y, ridge)
        assert (fit.iterations, fit.converged) == (iterations, converged) and converged
        assert np.array_equal(fit.coef, beta)
        assert np.array_equal(fit.predict(F), _reference_expit(_reference_design(F) @ beta))


class TestKernelRegression:
    def test_predicts_smooth_function(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, size=2000)
        y = np.sin(x) + rng.normal(scale=0.05, size=x.size)
        fit = fit_kernel_regression(x[:, None], y, bandwidth=0.15)
        grid = np.linspace(-1.5, 1.5, 21)[:, None]
        np.testing.assert_allclose(fit.predict(grid), np.sin(grid[:, 0]), atol=0.03)

    def test_predict_grad_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, size=400)
        y = x**2
        fit = fit_kernel_regression(x[:, None], y, bandwidth=0.3)
        grid = np.linspace(-1, 1, 9)[:, None]
        h = 1e-6
        numeric = (fit.predict(grid + h) - fit.predict(grid - h)) / (2 * h)
        np.testing.assert_allclose(fit.predict_grad(grid, axis=0), numeric, atol=1e-6)

    def test_far_query_raises_extrapolation(self):
        x = np.linspace(0, 1, 50)
        fit = fit_kernel_regression(x[:, None], x, bandwidth=0.05)
        with pytest.raises(ExtrapolationError, match="too far"):
            fit.predict(np.array([[60.0]]))

    def test_shape_validation(self):
        with pytest.raises(SchemaError, match="rows"):
            fit_kernel_regression(np.ones((3, 1)), np.ones(4))
        fit = fit_kernel_regression(np.ones((5, 2)), np.arange(5.0), bandwidth=1.0)
        with pytest.raises(SchemaError, match="columns"):
            fit.predict(np.ones((1, 3)))

    def test_scalar_bandwidth_broadcasts(self):
        rng = np.random.default_rng(1)
        F = rng.normal(size=(30, 3))
        fit = fit_kernel_regression(F, F.sum(axis=1), bandwidth=0.7)
        np.testing.assert_array_equal(fit.bandwidths, [0.7, 0.7, 0.7])


def _broadcast_weights(Q, F, h):
    """Gaussian weights as one (n_query, n_train, d) broadcast: the reference
    that the blocked kernel helper must reproduce bit for bit."""
    z2 = ((Q[:, None, :] - F[None, :, :]) / h) ** 2
    return np.exp(-0.5 * z2.sum(axis=2))


def _block_case(d, queries):
    """Training rows, bandwidths and queries whose count, relative to the rows
    of one kernel block, is given by ``queries``."""
    rng = np.random.default_rng(17 + d)
    n_train = 300 if queries != "one_row_blocks" else KERNEL_BLOCK_ELEMENTS // d + 1
    rows = max(1, KERNEL_BLOCK_ELEMENTS // (n_train * d))
    n_query = {"one": 1, "ragged": 4 * rows + rows // 2 + 1, "single_row_tail": 2 * rows + 1,
               "one_row_blocks": 3}[queries]
    assert n_query % rows or rows == 1  # the last block is a partial one
    F = rng.normal(size=(n_train, d))
    return F, 0.6 + 0.2 * np.arange(d), rng.normal(scale=0.8, size=(n_query, d))


BLOCK_CASES = [(d, q) for d in (1, 2, 3) for q in ("one", "ragged", "single_row_tail")] + [
    (1, "one_row_blocks")
]


class TestBlockedKernelWeights:
    @pytest.mark.parametrize("d, queries", BLOCK_CASES)
    def test_regression_equals_one_shot_broadcast(self, d, queries):
        F, h, Q = _block_case(d, queries)
        y = np.sin(F).sum(axis=1)
        fit = fit_kernel_regression(F, y, bandwidth=h)
        W = _broadcast_weights(Q, F, h)
        total = W.sum(axis=1)
        assert np.array_equal(fit.predict(Q), (W @ y) / total)
        for axis in range(d):
            Wd = W * ((F[None, :, axis] - Q[:, [axis]]) / h[axis] ** 2)
            grad = ((Wd @ y) * total - (W @ y) * Wd.sum(axis=1)) / total**2
            assert np.array_equal(fit.predict_grad(Q, axis), grad)

    @pytest.mark.parametrize("d, queries", BLOCK_CASES)
    def test_density_equals_one_shot_broadcast(self, d, queries):
        S, h, P = _block_case(d, queries)
        fit = fit_kde(S, bandwidth=h)
        K = _broadcast_weights(P, S, h) * (1.0 / np.sqrt(2.0 * np.pi)) ** d / np.prod(h)
        assert np.array_equal(fit.density_at(P), K.mean(axis=1))
        for axis in range(d):
            slope = (S[None, :, axis] - P[:, [axis]]) / h[axis] ** 2
            assert np.array_equal(fit.density_grad_at(P, axis), (K * slope).mean(axis=1))

    def test_no_columns_gives_the_sample_mean(self):
        # a covariate-free schema fits on an (n, 0) matrix: every weight is 1
        y = np.random.default_rng(5).normal(size=40)
        fit = fit_kernel_regression(np.empty((40, 0)), y)
        Q = np.empty((7, 0))
        W = _broadcast_weights(Q, np.empty((40, 0)), fit.bandwidths)
        assert np.array_equal(fit.predict(Q), (W @ y) / W.sum(axis=1))
        np.testing.assert_allclose(fit.predict(Q), np.full(7, y.mean()), rtol=1e-14)

    def test_extrapolation_names_the_global_query_row(self):
        x = np.linspace(0, 1, 50)
        fit = fit_kernel_regression(x[:, None], x, bandwidth=0.05)
        rows = KERNEL_BLOCK_ELEMENTS // 50
        queries = np.full((3 * rows, 1), 0.5)
        queries[2 * rows + 7] = 60.0
        for method in (fit.predict, lambda q: fit.predict_grad(q, axis=0)):
            with pytest.raises(ExtrapolationError, match=f"query row {2 * rows + 7};"):
                method(queries)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-1e3, 1e3),
    # away from zero: a product in the subnormal range keeps no relative precision
    scale=st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6),
)
def test_nadaraya_watson_is_equivariant_in_the_target(seed, shift, scale):
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    Q = rng.normal(size=(9, 2))
    base = fit_kernel_regression(F, y).predict(Q)
    size = np.abs(y).max()
    shifted = fit_kernel_regression(F, y + shift).predict(Q)
    assert np.all(np.abs(shifted - (base + shift)) <= 1e-12 * (abs(shift) + size))
    scaled = fit_kernel_regression(F, scale * y).predict(Q)
    assert np.all(np.abs(scaled - scale * base) <= 1e-12 * abs(scale) * size)


class TestDensityFit:
    def test_density_matches_gaussian_convolution(self):
        # A KDE with bandwidth h on an N(0,1) sample estimates the
        # convolution N(0, 1 + h^2); at n = 50k the MC error is tiny.
        rng = np.random.default_rng(5)
        sample = rng.normal(size=50_000)
        fit = fit_kde(sample, bandwidth=0.2)
        pts = np.array([-1.0, 0.0, 0.5])
        expected = stats.norm.pdf(pts, scale=np.sqrt(1.0 + 0.2**2))
        np.testing.assert_allclose(fit.density_at(pts[:, None]), expected, atol=0.01)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(6)
        fit = fit_kde(rng.normal(size=500))
        grid = np.linspace(-8, 8, 4001)
        mass = np.trapezoid(fit(grid), grid)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        fit = fit_kde(rng.normal(size=300), bandwidth=0.4)
        pts = np.linspace(-1.5, 1.5, 7)
        h = 1e-6
        numeric = (
            fit.density_at((pts + h)[:, None]) - fit.density_at((pts - h)[:, None])
        ) / (2 * h)
        np.testing.assert_allclose(
            fit.density_grad_at(pts[:, None], axis=0), numeric, atol=1e-8
        )

    def test_exact_two_point_density(self):
        fit = fit_kde(np.array([-1.0, 1.0]), bandwidth=1.0)
        expected = 0.5 * (stats.norm.pdf(0.0, loc=-1.0) + stats.norm.pdf(0.0, loc=1.0))
        assert fit(np.array([0.0]))[0] == pytest.approx(expected, rel=1e-12)

    def test_bandwidth_property_is_one_dimensional_only(self):
        one_d = fit_kde(np.arange(10.0), bandwidth=0.5)
        assert one_d.bandwidth == 0.5
        two_d = fit_kde(np.arange(20.0).reshape(10, 2), bandwidth=0.5)
        with pytest.raises(SchemaError, match="one dimension"):
            two_d.bandwidth

    def test_auto_bandwidth_uses_silverman(self):
        rng = np.random.default_rng(12)
        sample = rng.normal(size=100)
        fit = fit_kde(sample)
        assert fit.bandwidth == pytest.approx(silverman_bandwidth(sample), rel=1e-12)

    def test_too_small_sample_rejected(self):
        with pytest.raises(SchemaError, match="two points"):
            fit_kde(np.array([1.0]))
