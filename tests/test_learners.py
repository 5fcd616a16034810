"""Polynomial features, regression fits, kernel smoothers, and bandwidth rules."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from influence_lab import (
    ExtrapolationError,
    FeatureMap,
    NumericalError,
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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 3000),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        offset=st.sampled_from([0.0, -7.5, 1e4, 1e8]),
        decimals=st.sampled_from([None, 0, 1]),  # rounding makes ties
        zero_share=st.sampled_from([0.0, 0.3, 1.0]),  # +0.0 and -0.0 mixed
    )
    def test_quartiles_equal_numpys_percentile(self, n, seed, scale, offset, decimals,
                                               zero_share):
        rng = np.random.default_rng(seed)
        sample = offset + scale * rng.normal(size=n)
        if decimals is not None:
            sample = np.round(sample, decimals)
        zeros = rng.random(n) < zero_share
        sample[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        expected = np.percentile(sample, [75.0, 25.0])
        assert np.array(learners._quartiles(sample)).tobytes() == expected.tobytes()

    def test_quartiles_of_a_sample_holding_nan_are_nan(self):
        sample = np.array([1.0, np.nan, 3.0, 0.5, 2.0])
        assert np.all(np.isnan(np.percentile(sample, [75.0, 25.0])))
        assert all(math.isnan(q) for q in learners._quartiles(sample))

    def test_an_sd_that_overflows_yields_to_the_iqr_silently(self):
        # at this scale the squared deviations overflow, so the sd is infinite
        sample = np.random.default_rng(4).normal(size=50) * 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert np.std(sample, ddof=1) == np.inf
            q75, q25 = np.percentile(sample, [75.0, 25.0])
        expected = 0.9 * (float(q75 - q25) / 1.34) * 50 ** (-0.2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bandwidth = silverman_bandwidth(sample)
        assert [str(w.message) for w in caught] == []
        assert bandwidth == expected


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


def _outcome(call):
    """A fit, or its exception as (type, message)."""
    try:
        return call()
    except Exception as exc:  # compared with the stacked member
        return type(exc), str(exc)


def _assert_same_fit(member, alone):
    """A stacked member equals its own call: the same bits, or the same
    exception type and message."""
    if isinstance(alone, tuple):
        assert (type(member), str(member)) == alone
        return
    assert np.array_equal(member.coef, alone.coef)
    if isinstance(alone, learners.LogisticFit):
        assert (member.iterations, member.converged) == (alone.iterations, alone.converged)


def _stack_cases(B, degree, interactions, equal_rows):
    """B polynomial designs with OLS and logistic targets; row counts differ
    between members unless ``equal_rows``."""
    fmap = FeatureMap(degree=degree, interactions=interactions)
    cases = []
    for b in range(B):
        raw, y, y_binary = _polynomial_case(40 + b, n=300 if equal_rows else 300 - 37 * b)
        cases.append((fmap.transform(raw), y, y_binary))
    return cases


STACK_CASES = [
    (B, degree, interactions, ridge)
    for B in (1, 2, 5)
    for degree in (1, 2, 3)
    for interactions in (False, True)
    for ridge in (0.0, 0.3)
]


PLANTED_FAULTS = ("none", "none", "collinear", "constant", "inf", "short targets")


class TestStackedFits:
    """A stack of designs fits each member to the bits of its own call."""

    @pytest.mark.parametrize("B, degree, interactions, ridge", STACK_CASES)
    def test_ols_members_equal_their_own_calls(self, B, degree, interactions, ridge):
        cases = _stack_cases(B, degree, interactions, equal_rows=False)
        stack = fit_ols([F for F, _, _ in cases], [y for _, y, _ in cases], ridge)
        assert len(stack.members) == B
        for member, (F, y, _) in zip(stack.members, cases):
            _assert_same_fit(member, fit_ols(F, y, ridge))
            assert np.array_equal(member.coef, _reference_ols(F, y, ridge))

    @pytest.mark.parametrize("B, degree, interactions, ridge", STACK_CASES)
    def test_logistic_members_equal_their_own_calls(self, B, degree, interactions, ridge):
        cases = _stack_cases(B, degree, interactions, equal_rows=True)
        stack = fit_logistic([F for F, _, _ in cases], [t for _, _, t in cases], ridge)
        for member, (F, _, t) in zip(stack.members, cases):
            _assert_same_fit(member, fit_logistic(F, t, ridge))
            beta, iterations, converged = _reference_logistic(F, t, ridge)
            assert np.array_equal(member.coef, beta) and converged
            assert (member.iterations, member.converged) == (iterations, converged)
        assert stack.iterations == sum(m.iterations for m in stack.members)
        assert stack.converged

    @pytest.mark.parametrize("ridge", [0.0, 0.3])
    def test_failing_ols_members_leave_the_others_intact(self, ridge):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(60, 2))
        designs = [
            z,                                      # healthy
            np.column_stack([z[:, 0], 2 * z[:, 0]]),  # collinear
            z[:40],                                 # fewer rows than targets
            z * 1e160,                              # X'X overflows
            np.empty((0, 2)),                       # no rows: singular at any ridge
            z[:50] ** 2,                            # healthy, other row count
        ]
        targets = [rng.normal(size=60), rng.normal(size=60), rng.normal(size=60),
                   rng.normal(size=60), np.empty(0), rng.normal(size=50)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = fit_ols(designs, targets, ridge)
            alone = [_outcome(lambda F=F, y=y: fit_ols(F, y, ridge))
                     for F, y in zip(designs, targets)]
        for member, single in zip(stack.members, alone):
            _assert_same_fit(member, single)
        kinds = [type(m) for m in stack.members]
        assert kinds[0] is kinds[5] is learners.LinearFit
        assert kinds[2] is SchemaError and kinds[3] is NumericalError
        assert kinds[4] is SingularityError
        assert kinds[1] is (SingularityError if ridge == 0.0 else learners.LinearFit)

    @pytest.mark.parametrize("max_iter", [learners.IRLS_MAX_ITER, 3])
    @pytest.mark.parametrize("ridge", [0.0, 0.3])
    def test_failing_logistic_members_leave_the_others_intact(self, max_iter, ridge, monkeypatch):
        monkeypatch.setattr(learners, "IRLS_MAX_ITER", max_iter)
        rng = np.random.default_rng(8)
        z = rng.normal(size=(80, 2))
        x = (rng.uniform(size=80) < 1.0 / (1.0 + np.exp(-z[:, 0]))).astype(float)
        designs = [
            z,                                      # healthy
            np.column_stack([np.ones(80), z[:, 0]]),  # constant column
            z,                                      # separated classes
            np.column_stack([z[:, 0], z[:, 0]]),    # singular Hessian
            z * np.array([1.0, np.inf]),            # design not finite
            z * 1e160,                              # Hessian overflows
            z,                                      # targets not 0/1
            z ** 2,                                 # healthy
        ]
        targets = [x, x, (z[:, 0] > 0).astype(float), x, x, x, 2 * x, x]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = fit_logistic(designs, targets, ridge)
            alone = [_outcome(lambda F=F, y=y: fit_logistic(F, y, ridge))
                     for F, y in zip(designs, targets)]
        for member, single in zip(stack.members, alone):
            _assert_same_fit(member, single)
        kinds = [type(m) for m in stack.members]
        assert kinds[0] is kinds[7] is learners.LogisticFit
        assert kinds[1] is kinds[6] is SchemaError
        assert kinds[4] is kinds[5] is NumericalError
        if ridge == 0.0:
            assert kinds[3] is learners.SolverError
            assert kinds[2] is (learners.LogisticFit if max_iter == 3 else SeparationError)
        fits = [m for m in stack.members if isinstance(m, learners.LogisticFit)]
        assert stack.iterations == sum(f.iterations for f in fits)
        assert stack.converged == all(f.converged for f in fits)
        if max_iter == 3:
            assert not stack.converged

    @pytest.mark.parametrize("fit, kernel", [(fit_ols, "_ols_stack"),
                                             (fit_logistic, "_logistic_stack")])
    def test_only_a_stack_that_raises_is_fit_again_member_by_member(self, fit, kernel,
                                                                    monkeypatch):
        sizes, stacked = [], getattr(learners, kernel)
        monkeypatch.setattr(learners, kernel,
                            lambda designs, *rest: sizes.append(len(designs))
                            or stacked(designs, *rest))
        rng = np.random.default_rng(9)
        designs = [rng.normal(size=(50, 2)) for _ in range(4)]
        targets = [(rng.uniform(size=50) < 0.5).astype(float) for _ in designs]
        assert not any(isinstance(m, Exception) for m in fit(designs, targets).members)
        assert sizes == [4]
        designs[2] = np.column_stack([designs[2][:, 0], designs[2][:, 0]])  # singular
        sizes.clear()
        kinds = [type(m) for m in fit(designs, targets).members]
        assert sizes == [4, 1, 1, 1, 1]
        assert issubclass(kinds[2], NumericalError)
        assert not any(issubclass(k, Exception) for k in kinds[:2] + kinds[3:])

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(case=st.data(), ridge=st.sampled_from([0.0, 0.3]))
    def test_planted_failures_leave_every_member_its_own_call(self, case, ridge):
        model = case.draw(st.sampled_from(["ols", "logistic"]))
        faults = case.draw(st.lists(st.sampled_from(PLANTED_FAULTS), min_size=1, max_size=6))
        rng = np.random.default_rng(case.draw(st.integers(0, 2**32 - 1)))
        fit = fit_ols if model == "ols" else fit_logistic
        designs, targets = [], []
        for fault in faults:
            n = 40 if model == "logistic" else int(rng.integers(20, 60))
            F = rng.normal(size=(n, 2))
            y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-F @ [0.8, -0.5]))).astype(float)
            if fault == "collinear":
                F[:, 1] = 2.0 * F[:, 0]
            elif fault == "constant":
                F[:, 1] = 1.5
            elif fault == "inf":
                F[rng.integers(n), rng.integers(2)] = np.inf
            elif fault == "short targets":
                y = y[:-1]
            designs.append(F)
            targets.append(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = fit(designs, targets, ridge)
            alone = [_outcome(lambda F=F, y=y: fit(F, y, ridge))
                     for F, y in zip(designs, targets)]
        assert len(stack.members) == len(designs)
        for member, single in zip(stack.members, alone):
            _assert_same_fit(member, single)

    def test_one_design_raises_what_its_member_holds(self):
        with pytest.raises(NumericalError, match="not finite"):
            fit_ols(np.array([[1.0], [np.inf], [2.0]]), np.ones(3))
        with pytest.raises(NumericalError, match="not finite"):
            fit_logistic(np.array([[1.0], [np.nan], [2.0]]), np.array([0.0, 1.0, 1.0]))

    def test_designs_of_other_shapes_are_refused(self):
        with pytest.raises(SchemaError, match="column count"):
            fit_ols([np.ones((5, 1)), np.ones((5, 2))], [np.ones(5), np.ones(5)])
        with pytest.raises(SchemaError, match="one shape"):
            fit_logistic([np.ones((5, 1)), np.ones((6, 1))], [np.ones(5), np.ones(6)])

    @pytest.mark.parametrize("fit", [fit_ols, fit_logistic])
    @pytest.mark.parametrize("ridge", [np.nan, np.inf])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_a_non_finite_penalty_is_refused(self, fit, ridge, stacked):
        F, t = np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0.0, 1.0, 0.0, 1.0])
        args = ([F, F], [t, t]) if stacked else (F, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any arithmetic warns
            with pytest.raises(SchemaError) as info:
                fit(*args, ridge_lambda=ridge)
        assert str(info.value) == f"ridge_lambda must be finite and nonnegative, got {ridge}"


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
    """Gaussian weights exp(sum_j (q_j - x_j)^2 * f_j), f = -1 / (2 h^2), as
    one (n_query, n_train, d) broadcast: the reference that the blocked kernel
    helper must reproduce bit for bit."""
    return np.exp(((Q[:, None, :] - F[None, :, :]) ** 2 * (-0.5 / h**2)).sum(axis=2))


def _broadcast_slope(Q, F, h, axis):
    """(x_axis - q_axis) / h_axis^2 as a product with the precomputed 1 / h_axis^2."""
    return (F[None, :, axis] - Q[:, [axis]]) * (1.0 / h[axis] ** 2)


def _broadcast_density(W, h):
    """Weights scaled by the one precomputed normaliser (2 pi)^(-d/2) / prod(h)."""
    return W * ((1.0 / np.sqrt(2.0 * np.pi)) ** h.size / np.prod(h))


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
        W, ones = _broadcast_weights(Q, F, h), np.ones(len(F))
        total = W @ ones
        assert np.array_equal(fit.predict(Q), (W @ y) / total)
        for axis in range(d):
            Wd = W * _broadcast_slope(Q, F, h, axis)
            grad = ((Wd @ y) * total - (W @ y) * (Wd @ ones)) / total**2
            assert np.array_equal(fit.predict_grad(Q, axis), grad)

    @pytest.mark.parametrize("d, queries", BLOCK_CASES)
    def test_density_equals_one_shot_broadcast(self, d, queries):
        S, h, P = _block_case(d, queries)
        fit = fit_kde(S, bandwidth=h)
        K = _broadcast_density(_broadcast_weights(P, S, h), h)
        assert np.array_equal(fit.density_at(P), K.mean(axis=1))
        for axis in range(d):
            slope = _broadcast_slope(P, S, h, axis)
            assert np.array_equal(fit.density_grad_at(P, axis), (K * slope).mean(axis=1))

    def test_no_columns_gives_the_sample_mean(self):
        # a covariate-free schema fits on an (n, 0) matrix: every weight is 1
        y = np.random.default_rng(5).normal(size=40)
        fit = fit_kernel_regression(np.empty((40, 0)), y)
        Q = np.empty((7, 0))
        W = _broadcast_weights(Q, np.empty((40, 0)), fit.bandwidths)
        assert np.array_equal(fit.predict(Q), (W @ y) / (W @ np.ones(40)))
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


class TestKernelArithmetic:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_weights_stay_near_the_textbook_expression(self, d):
        # exponents from 0 down past the normal range, bandwidths over six decades
        rng = np.random.default_rng(40 + d)
        h = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
        F = rng.normal(scale=12.0, size=(300, d)) * h
        Q = rng.normal(scale=12.0, size=(70, d)) * h
        W = np.concatenate([w.copy() for _, w, _ in learners._kernel_blocks(Q, F, h)])
        exponent = -0.5 * (((Q[:, None, :] - F[None, :, :]) / h) ** 2).sum(axis=2)
        textbook = np.exp(exponent)
        normal = textbook >= np.finfo(float).tiny
        assert 0.2 < normal.mean() < 1.0
        error = np.abs(W - textbook)[normal]
        bound = 2e-15 * np.maximum(1.0, np.abs(exponent)) * textbook
        assert np.all(error <= bound[normal])

    def test_a_bandwidth_whose_factor_overflows_is_refused(self):
        # at 1e-160, 1 / h^2 is infinite: a query on a training row would get
        # the weight 0 * -inf = nan
        x = np.array([0.0, 1.0, 2.0])
        with pytest.raises(SchemaError, match="1e-160 of axis 0 is too small"):
            fit_kernel_regression(x[:, None], x, bandwidth=1e-160)
        with pytest.raises(SchemaError, match="1e-160 of axis 0 is too small"):
            fit_kde(x, bandwidth=1e-160)
        with pytest.raises(SchemaError, match="of axis 1 is too small"):
            fit_kernel_regression(np.column_stack([x, x]), x, bandwidth=[1.0, 1e-160])
        for h in (1e-150, 1e-154):  # 1 / h^2 is finite: accepted, and exact on a row
            # at 1e-154 an exponent and the slope (x - q) / h^2 overflow two
            # rows from a query, where the weight is exactly 0: silently, and
            # that row adds 0, not 0 * inf = nan, to the slope sums
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                nw = fit_kernel_regression(x[:, None], x, bandwidth=h)
                kde = fit_kde(x, bandwidth=h)
                predicted, slopes = nw.predict(x[:, None]), nw.predict_grad(x[:, None], 0)
                density, density_slopes = kde.density_at(x[:, None]), kde.density_grad_at(x[:, None])
            assert predicted.tolist() == [0.0, 1.0, 2.0]
            assert slopes.tolist() == [0.0, 0.0, 0.0]
            assert np.all(np.isfinite(density) & (density > 0.0))
            assert density_slopes.tolist() == [0.0, 0.0, 0.0]

    def test_a_kernel_result_that_overflows_is_refused(self):
        # at h = (1e-120, 1e-120) the density (about 1e238) is finite, but its
        # gradient one h from a sample is about 1e359
        x = np.array([0.0, 1.0, 2.0])
        S = np.column_stack([x, x]) * 1e-120
        kde = fit_kde(S, bandwidth=[1e-120, 1e-120])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(kde.density_at(S)))
            with pytest.raises(NumericalError, match="kernel density gradient overflows at "
                               "query row 0; the bandwidth is too small or the data too large"):
                kde.density_grad_at(S + [1e-120, 0.0], axis=0)
            nw = fit_kernel_regression(x[:, None], np.full(3, 1e308), bandwidth=100.0)
            with pytest.raises(NumericalError, match="kernel sum overflows at query row 0;"):
                nw.predict(x[:, None])

    def test_a_density_normaliser_that_overflows_is_refused(self):
        # each 1 / h^2 is finite, but prod(h) = 1e-330 underflows to zero
        S = np.random.default_rng(2).normal(size=(5, 3))
        with pytest.raises(SchemaError, match="axes 0-2 are too small"):
            fit_kde(S, bandwidth=1e-110)
        fit_kernel_regression(S, S[:, 0], bandwidth=1e-110)  # regression has no normaliser

    def test_an_automatic_bandwidth_of_a_tiny_spread_is_refused(self):
        x = np.arange(6.0) * 1e-170
        with pytest.raises(SchemaError, match="of axis 0 is too small"):
            fit_kernel_regression(x[:, None], x)
        with pytest.raises(SchemaError, match="of axis 0 is too small"):
            fit_kde(x)
        with pytest.raises(SchemaError, match="of axis 1 is too small"):
            fit_kde(np.column_stack([np.arange(6.0), x]))


def _block_rows(n_train):
    """Query rows per kernel block: a multiple of 8, at least 8."""
    return max(8, KERNEL_BLOCK_ELEMENTS // n_train // 8 * 8)


# n_train 300 gives 216-row blocks; n_train above KERNEL_BLOCK_ELEMENTS // 8
# gives 8-row blocks.  The query counts straddle one block, and the tails of
# 1-7 rows join the block before them.  n_train 800 to 5000 straddle
# 8192 // 3 = 2730, up to which numpy's default ufunc buffer would copy the
# exponent's broadcast: a pass, run at the minimum buffer, keeps every bit on
# both sides.
_R300 = _block_rows(300)
STREAM_QUERIES = {300: (1, 7, 8, 9, _R300 - 1, _R300, _R300 + 1, _R300 + 96, 2 * _R300 + 1,
                        3 * _R300 + 7),
                  KERNEL_BLOCK_ELEMENTS // 8 + 1: (1, 7, 8, 9, 15, 16, 17, 3 * 8 + 5),
                  **{n: (3 * _block_rows(n) + 11,) for n in (800, 1600, 2730, 2731, 5000)}}
STREAM_CASES = [(d, n_train, n_query) for d in (0, 1, 2, 3)
                for n_train, counts in STREAM_QUERIES.items() for n_query in counts]


class TestStreamedKernels:
    @pytest.mark.parametrize("d, n_train, n_query", STREAM_CASES)
    def test_every_pass_equals_one_shot_broadcast(self, d, n_train, n_query):
        rng = np.random.default_rng(100 * d + n_query)
        F = rng.normal(size=(n_train, d))
        Q = rng.normal(scale=0.8, size=(n_query, d))
        y = rng.normal(size=n_train)
        h = 0.6 + 0.2 * np.arange(d)
        regression, density = fit_kernel_regression(F, y, bandwidth=h), fit_kde(F, bandwidth=h)
        W, ones = _broadcast_weights(Q, F, h), np.ones(n_train)
        total = W @ ones
        assert np.array_equal(regression.predict(Q), (W @ y) / total)
        K = _broadcast_density(W, h)
        assert np.array_equal(density.density_at(Q), K.mean(axis=1))
        for axis in range(d):
            slope = _broadcast_slope(Q, F, h, axis)
            Wd = W * slope
            grad = ((Wd @ y) * total - (W @ y) * (Wd @ ones)) / total**2
            assert np.array_equal(regression.predict_grad(Q, axis), grad)
            assert np.array_equal(density.density_grad_at(Q, axis), (K * slope).mean(axis=1))

    @pytest.mark.parametrize("n_train, n_query", [
        (n_train, n_query) for n_train, counts in STREAM_QUERIES.items() for n_query in counts
    ])
    def test_blocks_are_whole_rows_with_the_short_tail_merged(self, n_train, n_query):
        F, Q = np.zeros((n_train, 1)), np.zeros((n_query, 1))
        blocks = [rows for rows, _, _ in learners._kernel_blocks(Q, F, np.ones(1))]
        rows = _block_rows(n_train)
        assert [b.start for b in blocks] == list(range(0, n_query, rows))[: len(blocks)]
        assert blocks[-1].stop == n_query
        assert all(b.stop - b.start == rows for b in blocks[:-1])
        assert len(blocks) == 1 or 8 <= blocks[-1].stop - blocks[-1].start < rows + 8

    @pytest.mark.parametrize("n_train", [37, 800, 1600, 2731])
    def test_passes_keep_their_bits_at_every_block_size(self, n_train, monkeypatch):
        # each total and numerator is a gemv over whole 8-row groups, so it
        # does not depend on where the blocks start
        rng = np.random.default_rng(n_train)
        F, y = rng.normal(size=(n_train, 2)), rng.normal(size=n_train)
        fit = fit_kernel_regression(F, y, bandwidth=[0.6, 0.8])
        for n_query in (37, 403):  # one block, or several with a ragged tail
            Q = rng.normal(scale=0.8, size=(n_query, 2))
            passes = []
            for elements in (1 << 12, 1 << 15, 1 << 16, 1 << 18):
                monkeypatch.setattr(learners, "KERNEL_BLOCK_ELEMENTS", elements)
                passes.append(np.stack([fit.predict(Q), fit.predict_grad(Q, 0),
                                        fit.predict_grad(Q, 1)]).tobytes())
            assert passes == [passes[0]] * 4

    def test_predict_holds_no_query_by_train_matrix(self):
        # 4000 x 4000 weights would take 128 MB; the blocks take well under 1 MB
        rng = np.random.default_rng(8)
        fit = fit_kernel_regression(rng.normal(size=(4000, 1)), rng.normal(size=4000),
                                    bandwidth=0.5)
        queries = rng.normal(size=(4000, 1))
        tracemalloc.start()
        try:
            fit.predict(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_every_pass_runs_at_the_minimum_ufunc_buffer(self, monkeypatch):
        blocks, seen = learners._kernel_blocks, []

        def recording_blocks(*args):
            for block in blocks(*args):
                seen.append(np.getbufsize())
                yield block

        monkeypatch.setattr(learners, "_kernel_blocks", recording_blocks)
        F = np.linspace(0.0, 1.0, 40)[:, None]
        regression, density = fit_kernel_regression(F, F[:, 0]), fit_kde(F)
        regression.predict(F)
        regression.predict_grad(F, 0)
        density.density_at(F)
        density.density_grad_at(F, 0)
        assert seen == [learners.KERNEL_UFUNC_BUFSIZE] * 4

    def test_a_pass_leaves_the_buffer_size_and_error_state_as_it_found_them(self):
        F = np.linspace(0.0, 1.0, 50)[:, None]
        regression, density = fit_kernel_regression(F, F[:, 0], bandwidth=0.05), fit_kde(F)
        with np.errstate(divide="raise"):
            np.setbufsize(4096)
            found = np.getbufsize(), np.geterr()
            regression.predict_grad(F, 0)
            density.density_grad_at(F, 0)
            assert (np.getbufsize(), np.geterr()) == found
            with pytest.raises(ExtrapolationError):  # a pass that raises
                regression.predict(np.array([[60.0]]))
            assert (np.getbufsize(), np.geterr()) == found

    def test_a_gradient_whose_squared_total_weight_underflows_raises(self):
        # 28 bandwidths past the sample the total weight is about 1e-170: above
        # KERNEL_WEIGHT_FLOOR, so the prediction stands, but its square is 0
        x = np.linspace(0, 1, 50)
        fit = fit_kernel_regression(x[:, None], x, bandwidth=0.05)
        rows = KERNEL_BLOCK_ELEMENTS // 50
        queries = np.full((3 * rows, 1), 0.5)
        queries[2 * rows + 7] = 1.0 + 28 * 0.05
        total = fit._sums(queries)[0][2 * rows + 7]
        assert learners.KERNEL_WEIGHT_FLOOR < total < np.sqrt(np.finfo(float).tiny)
        assert total**2 == 0.0
        assert np.all(np.isfinite(fit.predict(queries)))
        with pytest.raises(ExtrapolationError,
                           match=f"too small for a gradient at query row {2 * rows + 7};"):
            fit.predict_grad(queries, axis=0)


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
