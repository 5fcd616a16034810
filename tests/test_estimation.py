"""Cross-fitting machinery and the four estimators on hand-checkable data."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from influence_lab import (
    Ate,
    AverageDensity,
    AverageDerivativeEffect,
    Column,
    ColumnSet,
    Dataset,
    FeatureMap,
    KernelRegressionFit,
    LearnerSettings,
    NuisanceError,
    NuisanceSet,
    NumericalError,
    PopulationMean,
    PositivityError,
    PotentialOutcomeMean,
    Quantile,
    Schema,
    SeparationError,
    SolverError,
    ValidationError,
    estimate,
    estimating_equation,
    fit_cross_fitted_nuisances,
    fit_logistic,
    make_folds,
    one_step,
    plugin,
    run_replications,
    tmle,
    wald_interval,
)
from influence_lab import estimation, learners
from influence_lab.cli import main as cli_main
from influence_lab.simulation import AteLinearDgp, AteNonlinearDgp

ZXY = Schema((
    Column("z", "covariate", "binary"),
    Column("x", "exposure", "binary"),
    Column("y", "outcome", "continuous"),
))


KERNEL_LEARNERS = LearnerSettings(outcome_model="kernel", propensity_model="kernel")


def _hand_dataset(y):
    rows = [[0, 0, y[0]], [0, 1, y[1]], [1, 0, y[2]], [1, 1, y[3]]]
    return Dataset(ZXY, rows)


def _hand_nuisances(m1_by_z, m0_by_z, pi=0.5):
    def outcome_mean(x, Z):
        z = np.atleast_2d(Z)[:, 0]
        m1 = np.where(z == 0.0, m1_by_z[0], m1_by_z[1])
        m0 = np.where(z == 0.0, m0_by_z[0], m0_by_z[1])
        return np.where(np.asarray(x) == 1.0, m1, m0)

    return NuisanceSet(
        outcome_mean=outcome_mean,
        propensity=lambda Z: np.full(len(np.atleast_2d(Z)), pi),
    )


class TestMakeFolds:
    def test_partitions_all_rows(self):
        plan = make_folds(10, 3, seed=4)
        rows = np.concatenate([plan.fold_rows(k) for k in range(3)])
        np.testing.assert_array_equal(np.sort(rows), np.arange(10))
        sizes = [plan.fold_rows(k).size for k in range(3)]
        assert max(sizes) - min(sizes) <= 1

    def test_training_rows_are_the_complement(self):
        plan = make_folds(9, 3, seed=0)
        for k in range(3):
            train = set(plan.training_rows(k).tolist())
            held = set(plan.fold_rows(k).tolist())
            assert train.isdisjoint(held)
            assert train | held == set(range(9))

    def test_single_fold_trains_on_everything(self):
        plan = make_folds(6, 1, seed=0)
        np.testing.assert_array_equal(plan.training_rows(0), np.arange(6))
        np.testing.assert_array_equal(plan.fold_rows(0), np.arange(6))

    def test_deterministic_in_seed(self):
        a = make_folds(50, 5, seed=8).assignment
        b = make_folds(50, 5, seed=8).assignment
        c = make_folds(50, 5, seed=9).assignment
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(ValidationError, match="at least 1"):
            make_folds(10, 0, seed=0)
        with pytest.raises(ValidationError, match="cannot split"):
            make_folds(3, 4, seed=0)
        with pytest.raises(ValidationError, match="integer"):
            make_folds(10, True, seed=0)


@st.composite
def _fold_arguments(draw):
    n = draw(st.integers(1, 300))
    return n, draw(st.integers(1, min(n, 12))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=50, deadline=None)
@given(args=_fold_arguments())
def test_fold_plan_is_a_reproducible_near_equal_partition(args):
    n, K, seed = args
    plan = make_folds(n, K, seed)
    held = [plan.fold_rows(k) for k in range(K)]
    np.testing.assert_array_equal(np.sort(np.concatenate(held)), np.arange(n))
    sizes = [rows.size for rows in held]
    assert max(sizes) - min(sizes) <= 1
    for k, rows in enumerate(held):
        expected = np.arange(n) if K == 1 else np.setdiff1d(np.arange(n), rows)
        np.testing.assert_array_equal(plan.training_rows(k), expected)
    np.testing.assert_array_equal(make_folds(n, K, seed).assignment, plan.assignment)


class TestLearnerSettings:
    def test_rejects_unknown_models_and_bad_trim(self):
        with pytest.raises(ValidationError, match="outcome_model"):
            LearnerSettings(outcome_model="forest")
        with pytest.raises(ValidationError, match="propensity_model"):
            LearnerSettings(propensity_model="probit")
        with pytest.raises(ValidationError, match="trim"):
            LearnerSettings(trim=0.5)
        with pytest.raises(ValidationError, match="ridge"):
            LearnerSettings(ridge_lambda=-0.1)

    def test_json_round_trip_keys(self):
        blob = LearnerSettings(outcome_degree=2, bandwidth=0.3).to_json()
        assert blob["outcome_degree"] == 2
        assert blob["bandwidth"] == 0.3
        assert LearnerSettings(**blob) == LearnerSettings(
            outcome_degree=2, bandwidth=0.3
        )


class TestOneStepByHand:
    def test_ate_one_step_value_and_eif(self):
        data = _hand_dataset([1.0, 3.0, 2.0, 6.0])
        nuis = _hand_nuisances(m1_by_z=(3.0, 6.0), m0_by_z=(1.0, 2.0))
        report = one_step(Ate(), data, nuis)
        # Residuals vanish, so psi is the mean regression contrast
        # (2 + 2 + 4 + 4) / 4 and the influence values are the centered
        # contrasts (-1, -1, 1, 1).
        assert report.psi_hat == 3.0
        np.testing.assert_array_equal(report.eif_values, [-1.0, -1.0, 1.0, 1.0])
        assert report.se == pytest.approx(1.0 / np.sqrt(3.0))
        assert report.diagnostics["plugin_psi"] == 3.0
        assert report.diagnostics["mean_eif"] == 0.0

    def test_population_mean_one_step_is_the_sample_mean(self):
        data = _hand_dataset([1.0, 3.0, 2.0, 6.0])
        report = one_step(PopulationMean(), data, NuisanceSet())
        assert report.psi_hat == 3.0
        assert report.method == "one_step"

    def test_nonzero_residuals_shift_the_plugin(self):
        # Same regressions but y moved at (z=0, x=1): residual 1 with
        # inverse-propensity weight 2 adds 2/4 to the plug-in contrast.
        data = _hand_dataset([1.0, 4.0, 2.0, 6.0])
        nuis = _hand_nuisances(m1_by_z=(3.0, 6.0), m0_by_z=(1.0, 2.0))
        report = one_step(Ate(), data, nuis)
        assert report.diagnostics["plugin_psi"] == 3.0
        assert report.psi_hat == 3.5


class TestEstimatingEquation:
    def test_affine_solver_reproduces_one_step_exactly(self):
        data = _hand_dataset([1.0, 4.0, 2.0, 6.0])
        nuis = _hand_nuisances(m1_by_z=(3.0, 6.0), m0_by_z=(1.0, 2.0))
        os_report = one_step(Ate(), data, nuis)
        ee_report = estimating_equation(Ate(), data, nuis)
        assert ee_report.psi_hat == os_report.psi_hat
        assert ee_report.method == "estimating_equation"
        assert ee_report.diagnostics["solver_iterations"] == 0

    def test_quantile_bisection_finds_the_median(self):
        schema = Schema((Column("y", "outcome", "continuous"),))
        data = Dataset(schema, [[1.0], [2.0], [3.0]])
        report = estimate(Quantile(tau=0.5), data, method="estimating_equation",
                          folds=1)
        assert report.psi_hat == pytest.approx(2.0, abs=1e-8)
        assert report.diagnostics["solver_iterations"] > 0

    def test_average_density_identity(self):
        # With influence 2(f(y) - psi): one-step = 2 * EE - plug-in.
        rng = np.random.default_rng(14)
        schema = Schema((Column("y", "outcome", "continuous"),))
        data = Dataset(schema, rng.normal(size=(200, 1)))
        spec = AverageDensity()
        values = {}
        for method in ("plugin", "one_step", "estimating_equation"):
            values[method] = estimate(spec, data, method=method, folds=2).psi_hat
        assert values["one_step"] == pytest.approx(
            2.0 * values["estimating_equation"] - values["plugin"], abs=1e-12
        )

    def test_no_solver_for_rejected_shapes(self):
        data = _hand_dataset([1.0, 3.0, 2.0, 6.0])
        with pytest.raises(ValidationError, match="unknown method"):
            estimate(Ate(), data, method="newton")


class TestTmleByHand:
    def test_closed_form_fluctuation(self):
        data = _hand_dataset([1.0, 4.0, 2.0, 6.0])
        nuis = NuisanceSet(
            outcome_mean=lambda x, Z: np.where(np.asarray(x) == 1.0, 3.0, 2.0),
            propensity=lambda Z: np.full(len(np.atleast_2d(Z)), 0.5),
        )
        report = tmle(Ate(), data, nuis)
        # Arm 1: eps = sum(2 * (y - 3)) / sum(4) = 8/8 over x = 1 rows, so the
        # retargeted regression is 3 + 1/0.5 = 5; arm 0: eps = -2/8, giving 1.5.
        assert report.diagnostics["tmle_epsilon"] == [1.0, -0.25]
        assert report.psi_hat == 5.0 - 1.5
        assert all(abs(s) <= 1e-10 for s in report.diagnostics["tmle_score"])
        assert abs(report.diagnostics["mean_eif"]) <= 1e-12

    def test_score_is_zero_on_fitted_nuisances(self):
        data = AteLinearDgp().generate(300, seed=21)
        report = estimate(Ate(), data, method="tmle", folds=3)
        assert abs(report.diagnostics["mean_eif"]) <= 1e-10
        assert all(abs(s) <= 1e-10 for s in report.diagnostics["tmle_score"])
        assert abs(report.psi_hat - 1.0) <= 5.0 * report.se

    def test_unsupported_estimand_is_refused(self):
        data = _hand_dataset([1.0, 3.0, 2.0, 6.0])
        with pytest.raises(ValidationError, match="targeted"):
            tmle(PopulationMean(), data, NuisanceSet())

    def test_degenerate_propensity_is_refused(self):
        data = _hand_dataset([1.0, 3.0, 2.0, 6.0])
        nuis = NuisanceSet(
            outcome_mean=lambda x, Z: np.zeros(len(np.asarray(x))),
            propensity=lambda Z: np.ones(len(np.atleast_2d(Z))),
        )
        with pytest.raises(PositivityError, match="strictly inside"):
            tmle(Ate(), data, nuis)


class TestWaldInterval:
    def test_two_point_case(self):
        se, lo, hi = wald_interval(np.array([-1.0, 1.0]), psi_hat=0.0)
        assert se == 1.0
        assert lo == pytest.approx(-norm.ppf(0.975))
        assert hi == pytest.approx(norm.ppf(0.975))

    def test_degenerate_interval_warns(self):
        with pytest.warns(RuntimeWarning, match="constant"):
            se, lo, hi = wald_interval(np.zeros(5), psi_hat=2.0)
        assert se == 0.0 and lo == hi == 2.0

    def test_validation(self):
        with pytest.raises(ValidationError, match="two observations"):
            wald_interval(np.array([1.0]), 0.0)
        with pytest.raises(ValidationError, match="alpha"):
            wald_interval(np.array([1.0, 2.0]), 0.0, alpha=1.5)


class TestCrossFitting:
    def _dataset(self, n=60, seed=2):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-1, 1, size=n)
        x = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
        y = 1.0 + x + 0.5 * z + rng.normal(scale=0.3, size=n)
        schema = Schema((
            Column("z", "covariate", "continuous"),
            Column("x", "exposure", "binary"),
            Column("y", "outcome", "continuous"),
        ))
        return Dataset(schema, np.column_stack([z, x, y]))

    def _fold_propensities(self, data, plan, settings, points):
        """Each fold's clipped logistic propensity at ``points``."""
        z = data.values[:, 0]
        x = data.values[:, 1]
        fmap = FeatureMap(degree=1)
        out = []
        for k in range(plan.K):
            train = plan.training_rows(k)
            fit = fit_logistic(fmap.transform(z[train][:, None]), x[train])
            out.append(np.clip(
                fit.predict(fmap.transform(points)), settings.trim, 1.0 - settings.trim,
            ))
        return out

    def test_row_aligned_calls_use_held_out_fits_only(self):
        data = self._dataset()
        z = data.values[:, 0]
        plan = make_folds(60, 2, seed=7)
        settings = LearnerSettings()
        nuis = fit_cross_fitted_nuisances(data, Ate(), settings, plan=plan)
        table = nuis.table(Ate(), ColumnSet.from_dataset(data))
        for k in range(2):
            rows = plan.fold_rows(k)
            manual = self._fold_propensities(data, plan, settings, z[rows][:, None])[k]
            np.testing.assert_array_equal(table["propensity"][rows], manual)

    def test_scalar_probe_averages_over_folds(self):
        data = self._dataset()
        plan = make_folds(60, 2, seed=7)
        settings = LearnerSettings()
        nuis = fit_cross_fitted_nuisances(data, Ate(), settings, plan=plan)
        probe = nuis.probe("propensity", np.array([[0.25]]))
        per_fold = self._fold_propensities(data, plan, settings, [[0.25]])
        assert probe[0] == pytest.approx(np.mean(per_fold), abs=1e-15)

    def test_probe_of_sample_length_is_averaged_not_routed(self):
        # A probe with one point per row is still a probe: every point gets
        # the fold average, never its own row's held-out fit.
        data = self._dataset()
        z = data.values[:, :1]
        plan = make_folds(60, 2, seed=7)
        settings = LearnerSettings()
        nuis = fit_cross_fitted_nuisances(data, Ate(), settings, plan=plan)
        probe = nuis.probe("propensity", z)
        per_fold = self._fold_propensities(data, plan, settings, z)
        np.testing.assert_allclose(probe, np.mean(per_fold, axis=0), rtol=0, atol=1e-15)
        table = nuis.table(Ate(), ColumnSet.from_dataset(data))["propensity"]
        assert not np.allclose(probe, table, rtol=0, atol=1e-6)

    def test_table_belongs_to_the_fitted_estimand_and_rows(self):
        data = self._dataset()
        nuis = fit_cross_fitted_nuisances(data, Ate(), plan=make_folds(60, 2, seed=0))
        cols = ColumnSet.from_dataset(data)
        with pytest.raises(ValidationError, match="cross-fitted for ate"):
            nuis.table(PotentialOutcomeMean(x=1), cols)
        with pytest.raises(ValidationError, match="one dataset of 60 rows"):
            nuis.table(Ate(), cols.take(np.arange(30)))
        shuffled = Dataset(data.schema, data.values[np.roll(np.arange(60), 1)])
        with pytest.raises(ValidationError, match="serve only that pair"):
            one_step(Ate(), shuffled, nuis)
        assert nuis.table(Ate(), ColumnSet.from_dataset(data)) is nuis.values

    def test_fold_failures_name_the_fold(self):
        # Exposure perfectly separated by the covariate in every training
        # fold: the logistic fit diverges and the error names the fold.
        schema = Schema((
            Column("z", "covariate", "continuous"),
            Column("x", "exposure", "binary"),
            Column("y", "outcome", "continuous"),
        ))
        z = np.linspace(-1, 1, 20)
        rows = np.column_stack([z, (z > 0).astype(float), z])
        data = Dataset(schema, rows)
        with pytest.raises(SeparationError, match="fold 0"):
            fit_cross_fitted_nuisances(data, Ate(), plan=make_folds(20, 2, seed=0))

    def test_unfitted_slots_are_refused(self):
        data = self._dataset()
        nuis = fit_cross_fitted_nuisances(data, PopulationMean(), plan=make_folds(60, 2, seed=0))
        with pytest.raises(NuisanceError, match="joint_density"):
            nuis.probe("joint_density", np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(NuisanceError, match="propensity"):
            nuis.require("propensity")

    def test_trim_reporting(self):
        data = self._dataset()
        settings = LearnerSettings(trim=0.45)
        nuis = fit_cross_fitted_nuisances(data, Ate(), settings, plan=make_folds(60, 3, seed=1))
        assert nuis.trim_count > 0
        report = one_step(Ate(), data, nuis)
        assert report.diagnostics["trim_count"] == nuis.trim_count
        assert report.diagnostics["fold_count"] == 3

    def test_plan_size_mismatch(self):
        data = self._dataset()
        with pytest.raises(ValidationError, match="different number of rows"):
            fit_cross_fitted_nuisances(data, Ate(), plan=make_folds(59, 2, seed=0))



def _raise_on_call(exc, calls=(1,)):
    """A learner stand-in that raises ``exc`` on the given call numbers and
    otherwise fits a logistic regression."""
    count = [0]

    def fit(*args, **kwargs):
        count[0] += 1
        if count[0] in calls:
            raise exc
        return fit_logistic(*args, **kwargs)

    return fit


class _TwoArgumentError(Exception):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


class TestFoldFailures:
    def _data(self):
        return AteLinearDgp().generate(120, seed=5)

    def test_numpy_failure_becomes_numerical_error_naming_the_fold(self, monkeypatch):
        monkeypatch.setattr(
            estimation, "fit_logistic",
            _raise_on_call(np.linalg.LinAlgError("Singular matrix"), calls=(2,)),
        )
        with pytest.raises(NumericalError, match="fold 1: LinAlgError: Singular matrix") as info:
            estimate(Ate(), self._data(), folds=3)
        assert type(info.value) is NumericalError
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_cli_exits_2_without_traceback(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            estimation, "fit_logistic", _raise_on_call(np.linalg.LinAlgError("Singular matrix"))
        )
        cfg = tmp_path / "run.ini"
        cfg.write_text("[data]\ndgp = ate-linear\nn = 100\n\n[estimand]\nname = ate\n")
        assert cli_main(["estimate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "fold 0: LinAlgError" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "target, exc, line",
        [
            ("fit_logistic", MemoryError(), "error: MemoryError\n"),
            ("wald_interval", np.linalg.LinAlgError("SVD did not converge"),
             "error: LinAlgError: SVD did not converge\n"),
            ("wald_interval", FloatingPointError("underflow"),
             "error: FloatingPointError: underflow\n"),
        ],
    )
    def test_cli_maps_errors_escaping_the_folds(
        self, target, exc, line, monkeypatch, tmp_path, capsys
    ):
        def raising(*args, **kwargs):
            raise exc

        monkeypatch.setattr(estimation, target, raising)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[data]\ndgp = ate-linear\nn = 100\n\n[estimand]\nname = ate\n")
        assert cli_main(["estimate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.endswith(line) and err.count("\n") == 1 and "Traceback" not in err

    def test_cli_leaves_other_errors_to_the_traceback(self, monkeypatch, tmp_path):
        # ZeroDivisionError outside a fold is a programming error, not a numerical one
        def raising(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(estimation, "wald_interval", raising)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[data]\ndgp = ate-linear\nn = 100\n\n[estimand]\nname = ate\n")
        with pytest.raises(ZeroDivisionError):
            cli_main(["estimate", "--config", str(cfg)])

    def test_simulate_excludes_the_replication_with_its_reason(self, monkeypatch):
        monkeypatch.setattr(
            estimation, "fit_logistic", _raise_on_call(FloatingPointError("overflow"))
        )
        report = run_replications(AteLinearDgp(), Ate(), n=60, R=100, folds=2, seed=3)
        assert report.completed == 99
        assert report.excluded == ((0, "NumericalError: fold 0: FloatingPointError: overflow"),)

    def test_unconverged_logistic_fit_raises_naming_the_fold(self, monkeypatch):
        monkeypatch.setattr(learners, "IRLS_MAX_ITER", 1)
        with pytest.raises(SolverError, match="fold 0: logistic fit did not converge in 1 "):
            estimate(Ate(), self._data(), folds=3)

    def test_cli_exits_2_on_an_unconverged_logistic_fit(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(learners, "IRLS_MAX_ITER", 1)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[data]\ndgp = ate-linear\nn = 100\n\n[estimand]\nname = ate\n")
        assert cli_main(["estimate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error: fold 0: logistic fit did not converge" in err

    def test_simulate_excludes_a_replication_whose_logistic_fit_did_not_converge(
        self, monkeypatch
    ):
        calls = [0]

        def first_fit_capped(*args, **kwargs):
            calls[0] += 1
            with monkeypatch.context() as patch:
                if calls[0] == 1:
                    patch.setattr(learners, "IRLS_MAX_ITER", 1)
                return fit_logistic(*args, **kwargs)

        monkeypatch.setattr(estimation, "fit_logistic", first_fit_capped)
        report = run_replications(AteLinearDgp(), Ate(), n=60, R=100, folds=2, seed=3)
        assert report.completed == 99
        ((rep, reason),) = report.excluded
        assert rep == 0 and reason.startswith(
            "SolverError: fold 0: logistic fit did not converge in 1 IRLS iterations"
        )

    def test_other_exception_types_propagate_unchanged(self, monkeypatch):
        original = _TwoArgumentError(7, "learner refused")
        monkeypatch.setattr(estimation, "fit_logistic", _raise_on_call(original))
        with pytest.raises(_TwoArgumentError) as info:
            estimate(Ate(), self._data(), folds=3)
        assert info.value is original


class TestNuisancePasses:
    """Each cross-fitted nuisance is evaluated once per held-out row."""

    @pytest.fixture
    def predict_calls(self, monkeypatch):
        calls = []
        original = KernelRegressionFit.predict

        def counted(fit, queries):
            calls.append(len(queries))
            return original(fit, queries)

        monkeypatch.setattr(KernelRegressionFit, "predict", counted)
        return calls

    @pytest.mark.parametrize("method", ["plugin", "one_step", "estimating_equation", "tmle"])
    def test_kernel_ate_makes_three_passes_per_fold(self, method, predict_calls):
        data = AteNonlinearDgp().generate(150, seed=2)
        estimate(Ate(), data, method=method, settings=KERNEL_LEARNERS, folds=3, seed=1)
        # pi(Z), m(1, Z) and m(0, Z) once per fold, each on that fold's rows
        assert len(predict_calls) == 3 * 3
        assert sum(predict_calls) == 3 * 150

    def test_tmle_companion_one_step_adds_no_pass(self, predict_calls):
        report = run_replications(
            AteNonlinearDgp(), Ate(), method="tmle", settings=KERNEL_LEARNERS,
            n=150, R=1, folds=3, seed=4, truth=(1.0, 0.0),
        )
        assert report.completed == 1 and "max_tmle_aipw_gap" in report.extras
        assert len(predict_calls) == 3 * 3


class TestNoCovariates:
    XY = Schema((Column("x", "exposure", "binary"), Column("y", "outcome", "continuous")))

    @pytest.mark.parametrize("method", ["plugin", "one_step", "tmle"])
    def test_kernel_ate_on_a_randomized_design(self, method):
        # with no covariate every kernel fit is an (n, 0) sample mean, as OLS
        # and logistic fits on the intercept alone are
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, 200).astype(float)
        data = Dataset(self.XY, np.column_stack([x, 1.5 * x + rng.normal(size=200)]))
        kernel = estimate(Ate(), data, method=method, settings=KERNEL_LEARNERS, folds=3, seed=1)
        linear = estimate(Ate(), data, method=method, folds=3, seed=1)
        assert kernel.psi_hat == pytest.approx(linear.psi_hat, rel=1e-12)
        assert kernel.se == pytest.approx(linear.se, rel=1e-12)


class TestGuards:
    def test_extreme_influence_values_raise(self):
        data = _hand_dataset([1.0, 3.0, 2.0, 6.0])
        nuis = _hand_nuisances(m1_by_z=(0.0, 0.0), m0_by_z=(0.0, 0.0), pi=1e-12)
        with pytest.raises(PositivityError, match="influence values"):
            one_step(Ate(), data, nuis)

    def test_plugin_reports_no_debiasing_applied(self):
        data = _hand_dataset([1.0, 4.0, 2.0, 6.0])
        nuis = _hand_nuisances(m1_by_z=(3.0, 6.0), m0_by_z=(1.0, 2.0))
        report = plugin(Ate(), data, nuis)
        assert report.method == "plugin"
        assert report.psi_hat == 3.0  # the uncorrected regression contrast

    def test_average_derivative_warns_on_boundary_mass(self):
        # Uniform exposure keeps plenty of density at the sample range edge,
        # so the vanishing-boundary assumption visibly fails.
        rng = np.random.default_rng(3)
        schema = Schema((
            Column("x", "exposure", "continuous"),
            Column("z", "covariate", "continuous"),
            Column("y", "outcome", "continuous"),
        ))
        x = rng.uniform(-1.0, 1.0, 120)
        z = rng.normal(0.0, 1.0, 120)
        y = x**2 + 0.5 * z + rng.normal(0.0, 0.1, 120)
        data = Dataset(schema, np.column_stack([x, z, y]))
        with pytest.warns(RuntimeWarning, match="boundary terms"):
            report = estimate(
                AverageDerivativeEffect(), data, method="one_step", folds=2, seed=0
            )
        assert np.isfinite(report.psi_hat)
