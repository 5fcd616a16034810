"""Estimand catalog: closed-form values, influence functions, validation."""
import numpy as np
import pytest

from influence_lab import (
    CATALOG,
    Ate,
    AverageDensity,
    Column,
    ColumnSet,
    ConditionalCdf,
    ConditionalMeanAt,
    Covariance,
    DensityAtPoint,
    DiscreteDistribution,
    ExpectedConditionalCovariance,
    NotPathwiseDifferentiableError,
    NuisanceError,
    NuisanceSet,
    PopulationMean,
    PositivityError,
    PotentialOutcomeMean,
    Quantile,
    Schema,
    SchemaError,
    TailConditionalExpectation,
    ValidationError,
    exact_nuisances,
    from_config,
)

ZXY = Schema((
    Column("z", "covariate", "binary"),
    Column("x", "exposure", "binary"),
    Column("y", "outcome", "continuous"),
))

# Outcome deterministic given (x, z): y = 1 + x + 2 z.
DET_LAW = DiscreteDistribution(
    ZXY,
    [[0, 0, 1.0], [0, 1, 2.0], [1, 0, 3.0], [1, 1, 4.0]],
    [0.2, 0.3, 0.1, 0.4],
)

XY = Schema((
    Column("x", "exposure", "binary"),
    Column("y", "outcome", "binary"),
))

# Single covariate cell, Bernoulli outcome in each arm.
NOISY_LAW = DiscreteDistribution(
    XY,
    [[0, 0], [0, 1], [1, 0], [1, 1]],
    [0.3, 0.1, 0.2, 0.4],
)


class TestCatalog:
    def test_names_are_registered(self):
        expected = {
            "population_mean", "average_density", "covariance",
            "potential_outcome_mean", "ate", "expected_conditional_covariance",
            "partially_linear_coefficient", "average_derivative_effect",
            "quantile", "tail_conditional_expectation", "conditional_cdf",
            "interventional_direct_effect", "incremental_propensity",
            "density_at_point", "conditional_mean_at",
        }
        assert set(CATALOG) == expected

    def test_from_config_builds_and_coerces(self):
        spec = from_config("quantile", {"tau": "0.25"})
        assert isinstance(spec, Quantile)
        assert spec.tau == 0.25
        assert from_config("potential_outcome_mean", {"x": "1"}).x == 1

    def test_from_config_rejects_unknown_name(self):
        with pytest.raises(ValidationError, match="available"):
            from_config("median")

    def test_from_config_rejects_unknown_parameter(self):
        with pytest.raises(ValidationError, match="does not accept"):
            from_config("ate", {"tau": 0.5})

    def test_from_config_rejects_bad_value(self):
        with pytest.raises(ValidationError, match="invalid"):
            from_config("quantile", {"tau": "half"})

    def test_parameter_range_validation(self):
        with pytest.raises(ValidationError, match="\\(0, 1\\)"):
            Quantile(tau=1.5)
        with pytest.raises(ValidationError, match="finite"):
            TailConditionalExpectation(threshold=np.inf)
        with pytest.raises(ValidationError, match="0 or 1"):
            PotentialOutcomeMean(x=2)

    def test_describe_echoes_params(self):
        assert Quantile(tau=0.9).describe() == {
            "name": "quantile", "params": {"tau": 0.9},
        }


class TestPluginValues:
    """Closed-form functional values on the small four-atom laws."""

    def test_population_mean(self):
        assert PopulationMean().plugin_value(DET_LAW) == pytest.approx(2.7)

    def test_ate(self):
        # Both covariate cells have arm difference 1.
        assert Ate().plugin_value(DET_LAW) == pytest.approx(1.0)

    def test_potential_outcome_means(self):
        assert PotentialOutcomeMean(x=1).plugin_value(DET_LAW) == pytest.approx(3.0)
        assert PotentialOutcomeMean(x=0).plugin_value(DET_LAW) == pytest.approx(2.0)

    def test_covariance(self):
        p = DET_LAW.probs
        y = DET_LAW.values[:, 2]
        x = DET_LAW.values[:, 1]
        byhand = np.dot(p, x * y) - np.dot(p, x) * np.dot(p, y)
        assert Covariance().plugin_value(DET_LAW) == pytest.approx(byhand)

    def test_expected_conditional_covariance(self):
        # z = 0: pi = 0.6, E[XY|z] = 1.2, E[X|z]E[Y|z] = 0.96 -> 0.24
        # z = 1: pi = 0.8, E[XY|z] = 3.2, E[X|z]E[Y|z] = 3.04 -> 0.16
        value = ExpectedConditionalCovariance().plugin_value(DET_LAW)
        assert value == pytest.approx(0.5 * 0.24 + 0.5 * 0.16)

    def test_average_density_is_squared_mass(self):
        assert AverageDensity().plugin_value(DET_LAW) == pytest.approx(
            0.2**2 + 0.3**2 + 0.1**2 + 0.4**2
        )

    def test_quantile_walks_the_cdf(self):
        assert Quantile(tau=0.5).plugin_value(DET_LAW) == pytest.approx(2.0)
        assert Quantile(tau=0.55).plugin_value(DET_LAW) == pytest.approx(3.0)
        assert Quantile(tau=0.7).plugin_value(DET_LAW) == pytest.approx(4.0)

    def test_tail_conditional_expectation(self):
        spec = TailConditionalExpectation(threshold=2.5)
        expected = (0.2 * 1.0 + 0.3 * 2.0) / 0.5
        assert spec.plugin_value(DET_LAW) == pytest.approx(expected)
        with pytest.raises(PositivityError, match="threshold"):
            TailConditionalExpectation(threshold=0.0).plugin_value(DET_LAW)

    def test_conditional_cdf(self):
        spec = ConditionalCdf(y=2.5, x=1.0)
        assert spec.plugin_value(DET_LAW) == pytest.approx(0.3 / 0.7)

    def test_missing_role_raises(self):
        y_only = Schema((Column("y", "outcome", "continuous"),))
        law = DiscreteDistribution(y_only, [[0.0], [1.0]], [0.5, 0.5])
        with pytest.raises(SchemaError, match="exposure"):
            Ate().plugin_value(law)


class TestExactNuisances:
    def test_propensity_and_outcome_mean_values(self):
        nuis = exact_nuisances(Ate(), DET_LAW)
        np.testing.assert_allclose(
            nuis.propensity(np.array([[0.0], [1.0]])), [0.6, 0.8]
        )
        np.testing.assert_allclose(
            nuis.outcome_mean(np.array([1.0, 0.0]), np.array([[1.0], [0.0]])),
            [4.0, 1.0],
        )

    def test_zero_probability_cell_raises_positivity(self):
        # No atom with (z=1, x=0): the outcome mean there is undefined.
        law = DiscreteDistribution(
            ZXY,
            [[0, 0, 1.0], [0, 1, 2.0], [1, 1, 4.0]],
            [0.2, 0.3, 0.5],
        )
        nuis = exact_nuisances(Ate(), law)
        with pytest.raises(PositivityError):
            nuis.outcome_mean(np.array([0.0]), np.array([[1.0]]))

    def test_smooth_only_slots_are_refused(self):
        with pytest.raises(ValidationError, match="smooth family"):
            exact_nuisances(Quantile(tau=0.5), DET_LAW)

    def test_missing_slot_message_names_it(self):
        cols = ColumnSet(n=2, y=np.array([1.0, 2.0]))
        with pytest.raises(NuisanceError, match="marginal_density"):
            AverageDensity().eif_terms(cols, NuisanceSet())


class TestEifValues:
    def test_population_mean_eif_is_centered_outcome(self):
        cols = ColumnSet(n=3, y=np.array([1.0, 2.0, 6.0]))
        np.testing.assert_allclose(
            PopulationMean().eif_values(cols, NuisanceSet(), psi=3.0),
            [-2.0, -1.0, 3.0],
        )

    def test_ate_eif_hand_value(self):
        # pi = 0.6, m1 = 2/3, m0 = 1/4, psi = 5/12; at (x=1, y=1) the
        # augmented term is (1 - 2/3) / 0.6 and the regression part cancels psi.
        nuis = NuisanceSet(
            propensity=lambda Z: np.full(len(np.atleast_2d(Z)), 0.6),
            outcome_mean=lambda x, Z: np.where(np.asarray(x) == 1.0, 2.0 / 3.0, 0.25),
        )
        cols = ColumnSet(
            n=1, y=np.array([1.0]), x=np.array([1.0]), Z=np.zeros((1, 1))
        )
        phi = Ate().eif_values(cols, nuis, psi=5.0 / 12.0)
        assert phi[0] == pytest.approx((1.0 - 2.0 / 3.0) / 0.6)

    @pytest.mark.parametrize(
        "spec",
        [
            PopulationMean(),
            Covariance(),
            Ate(),
            PotentialOutcomeMean(x=1),
            ExpectedConditionalCovariance(),
            AverageDensity(),
            TailConditionalExpectation(threshold=2.5),
            ConditionalCdf(y=2.5, x=1.0),
        ],
        ids=lambda s: s.name,
    )
    def test_eif_has_mean_zero_under_exact_nuisances(self, spec):
        law = DET_LAW
        nuis = exact_nuisances(spec, law)
        psi = spec.plugin_value(law)
        cols = ColumnSet.from_matrix(law.schema, law.values)
        phi = spec.eif_values(cols, nuis, psi)
        assert float(np.dot(law.probs, phi)) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_outcome_zeroes_the_ate_eif(self):
        # With exact nuisances and y a function of (x, z) every residual
        # vanishes, so the influence function is identically zero.
        nuis = exact_nuisances(Ate(), DET_LAW)
        cols = ColumnSet.from_matrix(ZXY, DET_LAW.values)
        np.testing.assert_allclose(
            Ate().eif_values(cols, nuis, 1.0), np.zeros(4), atol=1e-12
        )

    def test_noisy_law_ate_eif_values(self):
        nuis = exact_nuisances(Ate(), NOISY_LAW)
        psi = Ate().plugin_value(NOISY_LAW)
        assert psi == pytest.approx(2.0 / 3.0 - 0.25)
        cols = ColumnSet.from_matrix(XY, NOISY_LAW.values)
        phi = Ate().eif_values(cols, nuis, psi)
        # (x=1, y=1): (y - m1) / pi with the regression part cancelling psi.
        assert phi[3] == pytest.approx((1.0 - 2.0 / 3.0) / 0.6)
        assert float(np.dot(NOISY_LAW.probs, phi)) == pytest.approx(0.0, abs=1e-14)

    def test_quantile_ee_residual_and_eif(self):
        spec = Quantile(tau=0.5)
        cols = ColumnSet(n=3, y=np.array([1.0, 2.0, 3.0]))
        assert spec.ee_residual(cols, 2.0) == pytest.approx(2.0 / 3.0 - 0.5)
        assert spec.ee_residual(cols, 2.5) == pytest.approx(1.0 / 3.0 - 0.5)
        nuis = NuisanceSet(density_at_quantile=lambda q: np.full(len(q), 0.25))
        phi = spec.eif_values(cols, nuis, psi=2.0)
        np.testing.assert_allclose(phi, np.array([-0.5, 0.5, 0.5]) / 0.25)
        bad = NuisanceSet(density_at_quantile=lambda q: np.zeros(len(q)))
        with pytest.raises(PositivityError, match="density"):
            spec.eif_values(cols, bad, psi=2.0)


class TestRejectedFunctionals:
    @pytest.mark.parametrize("spec", [DensityAtPoint(y=0.0), ConditionalMeanAt(x=0.0)])
    def test_every_operation_is_refused(self, spec):
        cols = ColumnSet(n=1, y=np.array([0.0]))
        for call in (
            spec.nuisance_requirements,
            lambda: spec.plugin_value(DET_LAW),
            lambda: spec.eif_terms(cols, NuisanceSet()),
            lambda: spec.eif_values(cols, NuisanceSet(), 0.0),
            lambda: spec.plugin_estimate(cols, NuisanceSet()),
        ):
            with pytest.raises(NotPathwiseDifferentiableError, match="point-evaluation"):
                call()

    def test_message_suggests_a_smoothed_target(self):
        with pytest.raises(NotPathwiseDifferentiableError, match="integrated squared"):
            DensityAtPoint().nuisance_requirements()


class TestSchemaValidation:
    def test_conditional_cdf_rejects_continuous_exposure(self):
        schema = Schema((
            Column("x", "exposure", "continuous"),
            Column("y", "outcome", "continuous"),
        ))
        with pytest.raises(ValidationError, match="probability zero"):
            ConditionalCdf(y=0.0, x=0.5).validate_schema(schema)

    def test_conditional_cdf_allows_binary_exposure(self):
        ConditionalCdf(y=0.0, x=1.0).validate_schema(XY)
