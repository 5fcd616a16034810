"""Data-generating processes, closed-form truths, and the replication engine."""
import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate, stats

from influence_lab import (
    Ate,
    AverageDensity,
    ConfigError,
    InterventionalDirectEffect,
    LearnerSettings,
    PartiallyLinearCoefficient,
    PopulationMean,
    PositivityError,
    PotentialOutcomeMean,
    Quantile,
    RunFailedError,
    TailConditionalExpectation,
    ValidationError,
    fit_cross_fitted_nuisances,
    hash64,
    make_folds,
    one_step,
    run_replications,
)
from influence_lab.simulation import (
    ARM_SETTINGS,
    DGPS,
    AteLinearDgp,
    AteNonlinearDgp,
    DensityMixtureDgp,
    MediationDgp,
    NormalMeanDgp,
    PartiallyLinearDgp,
    cross_fitting_contrast,
    dgp_by_name,
    double_robustness_experiment,
)


class TestHash64:
    def test_deterministic_and_order_sensitive(self):
        assert hash64(3, "folds") == hash64(3, "folds")
        assert hash64(3, "folds") != hash64("folds", 3)
        assert hash64(1, 2) != hash64(12)

    def test_spreads_consecutive_indices(self):
        seeds = {hash64(0, r) for r in range(1000)}
        assert len(seeds) == 1000


class TestDgps:
    def test_registry_matches_names(self):
        for key, cls in DGPS.items():
            assert cls().name == key

    def test_dgp_by_name_overrides_and_validates(self):
        dgp = dgp_by_name("normal-mean", mu=2.0)
        assert dgp.mu == 2.0
        with pytest.raises(ConfigError, match="choose from"):
            dgp_by_name("cauchy-mean")

    @pytest.mark.parametrize("name", sorted(DGPS))
    def test_generate_is_deterministic_and_schema_valid(self, name):
        dgp = dgp_by_name(name)
        a = dgp.generate(40, seed=5)
        b = dgp.generate(40, seed=5)
        c = dgp.generate(40, seed=6)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert a.schema == dgp.schema
        assert a.values.shape == (40, len(dgp.schema.columns))

    @pytest.mark.parametrize("name", sorted(DGPS))
    def test_negative_seed_is_a_validation_error(self, name):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
            dgp_by_name(name).generate(10, -1)

    def test_normal_mean_sample_matches_moments(self):
        data = NormalMeanDgp(mu=0.3, sigma=2.0).generate(1_000_000, seed=1)
        assert np.mean(data.values) == pytest.approx(0.3, abs=0.01)
        assert np.std(data.values) == pytest.approx(2.0, abs=0.01)


class TestTruths:
    """Recorded truths against independently computed integrals."""

    def test_normal_mean_quantile_and_density(self):
        dgp = NormalMeanDgp(mu=1.0, sigma=2.0)
        q, mc = dgp.truth(Quantile(tau=0.8))
        assert mc == 0.0
        assert stats.norm.cdf(q, loc=1.0, scale=2.0) == pytest.approx(0.8)
        dens, _ = dgp.truth(AverageDensity())
        byquad, _ = integrate.quad(
            lambda y: stats.norm.pdf(y, loc=1.0, scale=2.0) ** 2, -np.inf, np.inf
        )
        assert dens == pytest.approx(byquad, rel=1e-9)

    def test_normal_mean_tail_expectation_by_quadrature(self):
        dgp = NormalMeanDgp(mu=0.5, sigma=1.5)
        c = 0.2
        value, _ = dgp.truth(TailConditionalExpectation(threshold=c))
        numer, _ = integrate.quad(
            lambda y: y * stats.norm.pdf(y, loc=0.5, scale=1.5), -np.inf, c
        )
        assert value == pytest.approx(numer / stats.norm.cdf(c, loc=0.5, scale=1.5),
                                      rel=1e-9)

    def test_ate_linear_truths_are_exact(self):
        dgp = AteLinearDgp()
        assert dgp.truth(Ate()) == (1.0, 0.0)
        value, mc = dgp.truth(PotentialOutcomeMean(x=1))
        assert mc == 0.0
        assert value == pytest.approx(0.5 + 1.0 + 0.5 * (0.7 - 0.3))

    def test_ate_nonlinear_oracle_agrees_with_algebra(self):
        dgp = AteNonlinearDgp()
        value, mc = dgp.truth(Ate())
        assert mc > 0.0
        closed = dgp.beta_x + dgp.beta_xz2 * dgp.z_half_width**2 / 3.0
        assert abs(value - closed) <= 4.0 * mc

    def test_partially_linear_truth_is_theta(self):
        truth = PartiallyLinearDgp(theta=0.8).truth(PartiallyLinearCoefficient())
        assert truth == (0.8, 0.0)

    def test_mediation_truth_by_enumeration(self):
        dgp = MediationDgp()
        value, mc = dgp.truth(InterventionalDirectEffect(x1=1, x0=0))
        assert mc == 0.0
        a0, a1, a2 = dgp.alpha
        b0, b1, b2, b3 = dgp.beta
        total = 0.0
        for z in (0.0, 1.0):
            p1 = 1.0 / (1.0 + math.exp(-(a0 + a1 * 0.0 + a2 * z)))
            for m, pm in ((1.0, p1), (0.0, 1.0 - p1)):
                total += 0.5 * pm * (b0 + b1 * m + b2 * 1.0 + b3 * z)
        assert value == pytest.approx(total, rel=1e-12)

    def test_density_mixture_truths(self):
        dgp = DensityMixtureDgp()
        dens, _ = dgp.truth(AverageDensity())

        def pdf(y):
            return 0.3 * stats.norm.pdf(y, -1.2, 0.5) + 0.7 * stats.norm.pdf(y, 0.8, 1.0)

        byquad, _ = integrate.quad(lambda y: pdf(y) ** 2, -np.inf, np.inf)
        assert dens == pytest.approx(byquad, rel=1e-9)
        q, _ = dgp.truth(Quantile(tau=0.35))
        mass, _ = integrate.quad(pdf, -np.inf, q)
        assert mass == pytest.approx(0.35, abs=1e-9)
        assert dgp.truth(PopulationMean())[0] == pytest.approx(0.3 * -1.2 + 0.7 * 0.8)

    def test_unrecorded_truth_raises(self):
        with pytest.raises(ValidationError, match="no recorded truth"):
            NormalMeanDgp().truth(Ate())


@dataclass(frozen=True)
class _FlakyDgp:
    """Stands in for a process whose estimator fails on chosen seeds."""

    fail_seeds: frozenset
    name = "flaky-normal"

    @property
    def schema(self):
        return NormalMeanDgp().schema

    def params(self):
        return {}

    def generate(self, n, seed):
        if seed in self.fail_seeds:
            raise PositivityError("synthetic failure for this replication")
        return NormalMeanDgp().generate(n, seed)

    def truth(self, spec):
        return NormalMeanDgp().truth(spec)


class TestRunReplications:
    def test_single_replication_mirrors_one_estimate(self):
        dgp = AteLinearDgp()
        report = run_replications(dgp, Ate(), method="one_step", n=200, R=1,
                                  seed=11, folds=3)
        data = dgp.generate(200, hash64(11, 0))
        plan = make_folds(200, 3, hash64(11, 0, "folds"))
        nuis = fit_cross_fitted_nuisances(data, Ate(), LearnerSettings(), plan=plan)
        single = one_step(Ate(), data, nuis)
        assert report.psi_hats == (single.psi_hat,)
        assert report.ses == (single.se,)
        assert report.completed == 1

    def test_aggregates_recompute_from_draws(self):
        report = run_replications(NormalMeanDgp(), PopulationMean(), n=80, R=25,
                                  seed=3, folds=1)
        psi = np.array(report.psi_hats)
        ses = np.array(report.ses)
        assert report.bias == pytest.approx(psi.mean() - report.truth, abs=1e-15)
        assert report.empirical_sd == pytest.approx(psi.std(ddof=1), abs=1e-15)
        assert report.rmse == pytest.approx(
            np.sqrt(np.mean((psi - report.truth) ** 2)), abs=1e-15
        )
        z = stats.norm.ppf(0.975)
        covered = (psi - z * ses <= report.truth) & (report.truth <= psi + z * ses)
        assert report.coverage == covered.mean()
        assert report.coverage_mc_se == pytest.approx(
            math.sqrt(report.coverage * (1 - report.coverage) / 25)
        )

    def test_truth_override_shifts_the_bias(self):
        base = run_replications(NormalMeanDgp(), PopulationMean(), n=50, R=5,
                                seed=1, folds=1)
        shifted = run_replications(NormalMeanDgp(), PopulationMean(), n=50, R=5,
                                   seed=1, folds=1, truth=(0.5, 0.0))
        assert shifted.psi_hats == base.psi_hats
        assert shifted.bias == pytest.approx(base.bias - 0.5)

    def test_validation(self):
        with pytest.raises(ValidationError, match="unknown method"):
            run_replications(NormalMeanDgp(), PopulationMean(), method="boost")
        with pytest.raises(ValidationError, match="at least one"):
            run_replications(NormalMeanDgp(), PopulationMean(), R=0)

    def test_isolated_failure_is_excluded_with_reason(self):
        bad_seed = hash64(5, 37)
        dgp = _FlakyDgp(fail_seeds=frozenset({bad_seed}))
        report = run_replications(dgp, PopulationMean(), n=30, R=150, seed=5,
                                  folds=1)
        assert report.completed == 149
        assert len(report.excluded) == 1
        rep_index, message = report.excluded[0]
        assert rep_index == 37
        assert "PositivityError" in message

    def test_a_non_finite_influence_value_is_excluded_with_reason(self, monkeypatch):
        poisoned = NormalMeanDgp().generate(30, hash64(5, 7)).values[0, 0]
        terms = PopulationMean.eif_terms

        def nan_in_replication_7(self, cols, nuis):
            u, s = terms(self, cols, nuis)
            return (np.where(np.arange(cols.n) == 4, np.nan, u) if u[0] == poisoned else u), s

        monkeypatch.setattr(PopulationMean, "eif_terms", nan_in_replication_7)
        report = run_replications(NormalMeanDgp(), PopulationMean(), n=30, R=150, seed=5,
                                  folds=1)
        assert report.completed == len(report.psi_hats) == 149
        assert report.excluded == ((7, "NumericalError: influence value at row 4 is nan; "
                                        "a nuisance or the estimate is not finite"),)
        assert np.all(np.isfinite(report.psi_hats))

    def test_widespread_failure_aborts_the_run(self):
        dgp = _FlakyDgp(fail_seeds=frozenset(hash64(5, r) for r in range(10)))
        with pytest.raises(RunFailedError, match="rep 0"):
            run_replications(dgp, PopulationMean(), n=30, R=100, seed=5, folds=1)

    def test_report_json_draw_toggle(self):
        report = run_replications(NormalMeanDgp(), PopulationMean(), n=40, R=3,
                                  seed=2, folds=1)
        lean = report.to_json()
        assert "psi_hats" not in lean
        rich = report.to_json(include_draws=True)
        assert rich["psi_hats"] == list(report.psi_hats)
        assert rich["completed"] == 3
        assert rich["estimand"]["name"] == "population_mean"


class TestExperiments:
    def test_arm_settings_encode_the_misspecifications(self):
        assert set(ARM_SETTINGS) == {
            "both_correct", "outcome_wrong", "propensity_wrong", "both_wrong",
        }
        assert ARM_SETTINGS["outcome_wrong"].outcome_degree == 1
        assert ARM_SETTINGS["outcome_wrong"].propensity_degree == 2
        assert ARM_SETTINGS["both_correct"].outcome_degree == 2

    def test_unknown_arm_rejected(self):
        with pytest.raises(ConfigError, match="unknown arms"):
            double_robustness_experiment(n=100, R=2, arms=("both_correct", "typo"))

    def test_overfit_kernel_without_splitting_degrades_coverage(self):
        # The invariant is a trend at the default seed: reusing rows for
        # fitting and evaluation shrinks the estimated se, so the uncrossed
        # arm must cover strictly less often than the cross-fitted one.
        out = cross_fitting_contrast()
        assert out["no_split_report"].completed == out["split_report"].completed
        assert out["no_split_coverage"] < out["split_coverage"]
