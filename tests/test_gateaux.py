"""Numerical derivative oracle: Riesz identities, remainders, sweeps."""
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from influence_lab import (
    Ate,
    AverageDensity,
    Column,
    DerivativeUnstableError,
    DiscreteDistribution,
    IncrementalPropensity,
    MixturePath,
    NormalMixture,
    Observation,
    PartiallyLinearCoefficient,
    PopulationMean,
    PositivityError,
    Quantile,
    Schema,
    TailConditionalExpectation,
    ValidationError,
    check_t1_identity,
    eif_mean_under,
    exact_nuisances,
    numerical_gateaux,
    oracle_sweep,
    point_mass,
    remainder_decay_check,
    richardson_derivative,
    smooth_path_check,
    smooth_sweep,
    verify_eif,
    von_mises_remainder,
)
from influence_lab import gateaux
from influence_lab.gateaux import (
    CATALOG,
    CONVERGENCE_RTOL,
    FIRST_STEP,
    FULL_SCHEMA,
    MAX_HALVINGS,
    OUTCOME_ONLY,
    RICHARDSON_ORDER,
    SWEEP_PLAN,
    SweepResult,
    _SWEEP_PARAMS,
    contaminant_law,
    mixture_at,
    random_law,
)


def _full_law(rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return random_law(rng, FULL_SCHEMA), rng


class TestRichardsonDerivative:
    def test_exponential(self):
        value, halvings = richardson_derivative(math.exp, at=0.0)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert halvings >= 1

    def test_polynomial_from_the_left(self):
        value, _ = richardson_derivative(lambda t: t**3 + 2.0 * t, at=1.0,
                                         direction=-1.0)
        assert value == pytest.approx(5.0, abs=1e-9)

    def test_nonsmooth_function_raises(self):
        with pytest.raises(DerivativeUnstableError, match="halvings"):
            richardson_derivative(math.sqrt, at=0.0)


Y_ONLY = Schema((Column("y", "outcome", "continuous"),))
THREE_ATOMS = DiscreteDistribution(
    Y_ONLY, [[0.0], [1.0], [4.0]], [0.5, 0.25, 0.25]
)


# one (z, x) cell of the full schema carries 1e-8 of the mass
TINY_CELL_LAW = DiscreteDistribution(
    FULL_SCHEMA,
    [[0, 0, 1.0], [0, 1, 2.0], [1, 0, 3.0], [1, 1, 4.0]],
    [0.4 - 1e-8, 0.3, 1e-8, 0.3],
)


class TestVerifyEif:
    def test_population_mean_derivative_is_mean_shift(self):
        # Psi(P_t) is affine in t, so the derivative at 0 equals
        # E_Q[y] - E_P[y] for the point mass Q at each atom.
        reports = verify_eif(PopulationMean(), THREE_ATOMS)
        base_mean = 0.25 + 1.0
        for report, atom in zip(reports, (0.0, 1.0, 4.0)):
            assert not report.skipped
            assert report.analytic_value == pytest.approx(atom - base_mean, abs=1e-12)
            assert report.rel_error < 1e-8

    def test_ate_sweep_on_random_law(self):
        law, _ = _full_law(3)
        for report in verify_eif(Ate(), law):
            assert report.rel_error < 1e-6

    def test_tiny_conditioning_cell_is_skipped_not_passed(self):
        # One (z, x) cell carries 1e-8 probability: conditional means along
        # the path are ill-conditioned there, so the check must step aside.
        law = DiscreteDistribution(
            FULL_SCHEMA,
            [[0, 0, 1.0], [0, 1, 2.0], [1, 0, 3.0], [1, 1, 4.0]],
            [0.4 - 1e-8, 0.3, 1e-8, 0.3],
        )
        reports = verify_eif(Ate(), law)
        assert all(r.skipped for r in reports)
        assert "conditioning cell" in reports[0].skip_reason

    def test_both_endpoints_skip_by_one_rule(self):
        law, _ = _full_law(3)
        at_0 = verify_eif(Ate(), TINY_CELL_LAW)
        at_1 = check_t1_identity(Ate(), law, TINY_CELL_LAW)
        assert [r.contaminant_label for r in at_0] == [f"atom:{i}" for i in range(4)]
        assert {r.skip_reason for r in at_0} == {
            "a conditioning cell has probability 1.00e-08 < 1e-06"
        }
        assert (at_1.at_t, at_1.contaminant_label, at_1.skipped) == (1.0, "law", True)
        assert at_1.skip_reason == (
            "a conditioning cell of the contaminant has probability 1.00e-08 < 1e-06"
        )
        assert math.isnan(at_1.numerical_derivative) and math.isnan(at_1.analytic_value)
        with pytest.raises(ValidationError, match="no finite-support oracle"):
            check_t1_identity(Quantile(tau=0.5), THREE_ATOMS, THREE_ATOMS)

    def test_estimand_without_discrete_oracle_is_refused(self):
        with pytest.raises(ValidationError, match="smooth"):
            verify_eif(Quantile(tau=0.5), THREE_ATOMS)

    def test_one_oracle_guard_serves_every_entry_point(self):
        messages = set()
        for call in (lambda: verify_eif(Quantile(tau=0.5), THREE_ATOMS),
                     lambda: check_t1_identity(Quantile(tau=0.5), THREE_ATOMS, THREE_ATOMS),
                     lambda: exact_nuisances(Quantile(tau=0.5), THREE_ATOMS)):
            with pytest.raises(ValidationError) as caught:
                call()
            messages.add(str(caught.value))
        (message,) = messages
        assert "no finite-support oracle" in message and "smooth family" in message

    def test_explicit_contaminant_list(self):
        q = DiscreteDistribution(Y_ONLY, [[0.0], [1.0], [4.0]], [0.1, 0.1, 0.8])
        (report,) = verify_eif(PopulationMean(), THREE_ATOMS, contaminants=[q])
        assert report.contaminant_label == "law:0"
        assert report.rel_error < 1e-8

    def test_derivative_endpoint_validation(self):
        path = MixturePath(THREE_ATOMS, point_mass(Observation([4.0], Y_ONLY)))
        with pytest.raises(ValidationError, match="endpoint"):
            numerical_gateaux(PopulationMean(), path, at_t=0.5)


class TestT1Identity:
    def test_matches_negated_eif_mean(self):
        law, rng = _full_law(5)
        cont = contaminant_law(rng, law)
        report = check_t1_identity(Ate(), law, cont)
        assert report.at_t == 1.0
        assert report.analytic_value == -eif_mean_under(Ate(), law, cont)
        assert report.rel_error < 1e-6

    def test_population_mean_closed_form(self):
        q = DiscreteDistribution(Y_ONLY, [[0.0], [1.0], [4.0]], [0.2, 0.3, 0.5])
        report = check_t1_identity(PopulationMean(), THREE_ATOMS, q)
        # -E_P[phi(O, Q)] = E_Q[y] - E_P[y] for the mean.
        assert report.analytic_value == pytest.approx(2.3 - 1.25, abs=1e-12)
        assert report.rel_error < 1e-8


class TestVonMisesRemainder:
    def test_drift_is_negated_eif_mean(self):
        law, rng = _full_law(7)
        cont = contaminant_law(rng, law)
        report = von_mises_remainder(Ate(), law, cont)
        assert report.drift == -eif_mean_under(Ate(), law, cont)

    def test_linear_functional_has_zero_remainder(self):
        law, rng = _full_law(9)
        cont = contaminant_law(rng, law)
        report = von_mises_remainder(PopulationMean(), law, cont)
        assert report.remainder == pytest.approx(0.0, abs=1e-12)
        assert report.bound is None

    def test_average_density_remainder_is_exact_squared_mass(self):
        rng = np.random.default_rng(2)
        law = random_law(rng, OUTCOME_ONLY)
        cont = contaminant_law(rng, law)
        report = von_mises_remainder(AverageDensity(), law, cont)
        assert report.bound_kind == "exact_squared_mass"
        diff = [law.prob_of(a) - cont.prob_of(a) for a in law.support]
        assert report.remainder == pytest.approx(sum(d * d for d in diff), abs=1e-14)
        assert report.remainder == pytest.approx(report.bound, abs=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_ate_remainder_respects_cauchy_schwarz_bound(self, seed):
        law, rng = _full_law(seed)
        cont = contaminant_law(rng, law)
        report = von_mises_remainder(Ate(), law, cont)
        assert report.bound_kind == "cauchy_schwarz"
        assert abs(report.remainder) <= report.bound + 1e-12

    def test_expansion_identity_holds_exactly(self):
        law, rng = _full_law(11)
        cont = contaminant_law(rng, law)
        r = von_mises_remainder(Ate(), law, cont)
        residual = r.psi_contaminant - r.psi_base - r.drift + r.remainder
        assert residual == 0.0


class TestRemainderDecay:
    def test_ate_ratio_stabilizes(self):
        law, rng = _full_law(0)
        cont = contaminant_law(rng, law)
        ratios = remainder_decay_check(Ate(), law, cont)
        np.testing.assert_allclose(
            ratios,
            [-0.015519281284352874, -0.017373533337636245, -0.018427446972496538],
            rtol=1e-12,
        )
        for a, b in zip(ratios, ratios[1:]):
            assert abs(b - a) <= 0.2 * max(1e-12, abs(a))

    @pytest.mark.parametrize("steps, named", [((0.0,), "[0.0]"), ((0.1, 1.5, -0.2), "[1.5, -0.2]")])
    def test_steps_outside_the_unit_interval_are_refused(self, steps, named):
        law, rng = _full_law(0)
        cont = contaminant_law(rng, law)
        with pytest.raises(ValidationError, match=re.escape(f"(0, 1], got {named}")):
            remainder_decay_check(Ate(), law, cont, steps=steps)

    def test_average_density_ratio_is_constant(self):
        # R(P, P_t) = t^2 * sum (p - q)^2, so R / t^2 is flat in t and
        # equals the exact bound of the full-contaminant report.
        rng = np.random.default_rng(0)
        law = random_law(rng, OUTCOME_ONLY)
        cont = contaminant_law(rng, law)
        ratios = remainder_decay_check(AverageDensity(), law, cont)
        assert max(ratios) - min(ratios) < 1e-10
        full = von_mises_remainder(AverageDensity(), law, cont)
        assert ratios[0] == pytest.approx(full.bound, abs=1e-10)


class TestSmoothChecks:
    def test_quantile_against_gaussian_closed_form(self):
        base = NormalMixture(weights=(1.0,), means=(0.0,), sds=(1.0,))
        cont = NormalMixture(weights=(1.0,), means=(1.0,), sds=(0.8,))
        spec = Quantile(tau=0.5)
        report = smooth_path_check(spec, base, cont)
        # E_Q[phi_P] = (tau - F_Q(psi_P)) / f_P(psi_P) with psi_P = 0.
        expected = (0.5 - stats.norm.cdf(0.0, loc=1.0, scale=0.8)) / stats.norm.pdf(0.0)
        assert report.analytic_value == pytest.approx(expected, abs=1e-8)
        assert report.numerical_derivative == pytest.approx(expected, abs=1e-6)

    def test_tail_mean_against_gaussian_closed_form(self):
        base = NormalMixture(weights=(1.0,), means=(0.0,), sds=(1.0,))
        cont = NormalMixture(weights=(1.0,), means=(0.5,), sds=(0.7,))
        c = 0.25
        spec = TailConditionalExpectation(threshold=c)
        report = smooth_path_check(spec, base, cont)
        # phi_P(y) = 1{y <= c} (y - psi_P) / F_P(c); under Q ~ N(0.5, 0.7^2):
        # E_Q[y 1{y <= c}] = mu F_Q(c) - sigma^2 f_Q(c).
        psi0 = -stats.norm.pdf(c) / stats.norm.cdf(c)
        fq = stats.norm.cdf(c, loc=0.5, scale=0.7)
        partial = 0.5 * fq - 0.7**2 * stats.norm.pdf(c, loc=0.5, scale=0.7)
        expected = (partial - psi0 * fq) / stats.norm.cdf(c)
        assert report.analytic_value == pytest.approx(expected, abs=1e-6)
        assert report.rel_error < 1e-5

    def test_smooth_battery_passes(self):
        result = smooth_sweep()
        assert result.checked == 7
        assert result.skipped == 0
        assert result.worst_rel_error < 1e-5

    def test_only_keeps_one_estimand(self):
        result = smooth_sweep(only="quantile")
        assert [r.spec.name for r in result.reports] == ["quantile"] * 3

    def test_only_unknown_name_lists_available(self):
        with pytest.raises(ValidationError, match="available: average_derivative_effect, "
                           "quantile, tail_conditional_expectation"):
            smooth_sweep(only="population_mean")

    def test_family_type_validation(self):
        base = NormalMixture(weights=(1.0,), means=(0.0,), sds=(1.0,))
        with pytest.raises(ValidationError, match="no smooth-family check"):
            smooth_path_check(Ate(), base, base)
        with pytest.raises(ValidationError, match="NormalMixture"):
            smooth_path_check(Quantile(tau=0.5), base, object())


class TestOracleSweep:
    def test_small_sweep_passes_everywhere(self):
        result = oracle_sweep(trials=3, seed=123)
        assert result.checked > 0
        assert result.skipped == 0
        assert result.worst_rel_error < 1e-6

    def test_keep_worst_collapses_to_one_report_per_trial(self):
        result = oracle_sweep(trials=2, seed=11, keep="worst")
        assert len(result.reports) == 2 * len(SWEEP_PLAN)

    def test_only_filters_the_plan(self):
        result = oracle_sweep(trials=2, seed=11, only="ate")
        assert {r.spec.name for r in result.reports} == {"ate"}

    def test_only_unknown_name_lists_available(self):
        with pytest.raises(ValidationError, match="available"):
            oracle_sweep(trials=1, only="no_such_estimand")

    def test_negative_seed_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            oracle_sweep(trials=1, seed=-1)

    def test_keep_validation(self):
        with pytest.raises(ValidationError, match="keep"):
            oracle_sweep(trials=1, keep="best")

    @pytest.mark.parametrize("at_t", [0.5, -1.0, 2.0])
    def test_endpoint_other_than_0_or_1_is_refused(self, at_t):
        with pytest.raises(ValidationError, match=f"sweep endpoint must be 0 or 1, got {at_t!r}"):
            oracle_sweep(trials=1, at_t=at_t)

    def test_t1_sweep_runs_one_check_per_trial(self):
        result = oracle_sweep(trials=2, seed=29, at_t=1.0)
        assert result.checked == 2 * len(SWEEP_PLAN)
        assert result.worst_rel_error < 1e-6

    @pytest.mark.parametrize("keep", ["all", "worst"])
    def test_aggregates_are_read_from_the_reports(self, keep):
        # the counts the sweeps used to build by hand, on live and skipped reports
        swept = oracle_sweep(trials=2, seed=11, keep=keep)
        mixed = SweepResult(swept.reports + tuple(verify_eif(Ate(), TINY_CELL_LAW)))
        for result in (swept, mixed):
            live = [r for r in result.reports if not r.skipped]
            assert result.checked == len(live)
            assert result.skipped == len(result.reports) - len(live)
            assert result.worst_rel_error == max((r.rel_error for r in live), default=0.0)
        assert mixed.skipped == 4
        empty = SweepResult()
        assert (empty.checked, empty.skipped, empty.worst_rel_error) == (0, 0, 0.0)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_empty_or_impossible_sweep_is_refused(self, trials):
        with pytest.raises(ValidationError, match="a sweep needs"):
            oracle_sweep(trials=trials)

    def test_absurd_tolerance_reports_failures(self):
        assert oracle_sweep(trials=1, seed=5).failures(1e-18)


# ---------------------------------------------------------------------------
# the lockstep point-mass paths of verify_eif
# ---------------------------------------------------------------------------


def scalar_richardson(g, at, direction):
    """The one-path Richardson derivative on Python floats, kept here as the
    reference the lockstep table must reproduce bit for bit."""
    g0 = g(at)
    table, previous = [], None
    for k in range(MAX_HALVINGS + 1):
        h = FIRST_STEP / (2.0**k)
        row = [(g(at + direction * h) - g0) / (direction * h)]
        if table:
            last = table[-1]
            for j in range(1, min(len(last) + 1, RICHARDSON_ORDER + 1)):
                factor = 2.0**j
                row.append((factor * row[j - 1] - last[j - 1]) / (factor - 1.0))
        table.append(row)
        current = row[-1]
        if previous is not None:
            if abs(current - previous) <= CONVERGENCE_RTOL * max(1.0, abs(current)):
                return current, k
        previous = current
    raise DerivativeUnstableError(
        f"one-sided derivative did not stabilize after {MAX_HALVINGS} halvings "
        f"(last extrapolants {table[-2][-1]!r}, {table[-1][-1]!r})"
    )


def per_atom_reference(spec, law):
    """(derivative, halvings) along the path toward each atom's point mass,
    one path at a time: the exception of the first failing atom is raised."""
    out = []
    for atom in law.support:
        path = MixturePath(law, point_mass(Observation(atom, law.schema)))
        out.append(scalar_richardson(
            lambda t: spec.plugin_value(mixture_at(path, t)), 0.0, 1.0))
    return out


def hexed(pairs):
    return [(float(d).hex(), k) for d, k in pairs]


# a base law whose second atom has probability zero
ZERO_ATOM_LAW = DiscreteDistribution(
    FULL_SCHEMA,
    [[0, 0, 1.0], [0, 0, 5.0], [0, 1, 2.0], [1, 0, 3.0], [1, 1, 4.0], [1, 1, -1.0]],
    [0.3, 0.0, 0.2, 0.25, 0.15, 0.1],
)


@dataclass(frozen=True)
class KinkedMean(PopulationMean):
    """E[Y] plus sqrt(max(0, p_1 - 0.2)): not differentiable along the path
    toward atom 1 of ``KINK_LAW``.  Undefined once atom ``undefined_at``
    holds more than its base mass plus 0.001."""

    undefined_at: int = 3

    def plugin_values(self, law, probs):
        limit = KINK_LAW.probs[self.undefined_at] + 1e-3
        if np.any(probs[:, self.undefined_at] > limit):
            raise PositivityError(f"atom {self.undefined_at} holds more than {limit!r}")
        kink = np.sqrt(np.maximum(0.0, probs[:, 1] - 0.2))
        return super().plugin_values(law, probs) + kink


KINK_LAW = DiscreteDistribution(Y_ONLY, [[0.0], [1.0], [2.0], [4.0]], [0.1, 0.2, 0.3, 0.4])


@dataclass(frozen=True)
class UndefinedNear(PopulationMean):
    """E[Y], refused on a law other than ``center`` whose probabilities all
    lie within ``gap`` of it."""

    center: tuple = ()
    gap: float = 1e-3

    def plugin_values(self, law, probs):
        shift = np.abs(probs - np.asarray(self.center)).max(axis=1)
        if np.any((shift > 0.0) & (shift < self.gap)):
            raise PositivityError(f"a law within {self.gap} of the center")
        return super().plugin_values(law, probs)


class TestLockstep:
    def test_reports_equal_the_per_atom_paths_on_every_sweep_entry(self):
        rng = np.random.default_rng(2026)
        for entry, schema in SWEEP_PLAN:
            for _ in range(2):
                law = random_law(rng, schema)
                params = _SWEEP_PARAMS.get(entry, lambda rng, law: {})(rng, law)
                spec = CATALOG[entry.split(":")[0]](**params)
                reports = verify_eif(spec, law)
                got = [(r.numerical_derivative, r.halvings) for r in reports]
                assert hexed(got) == hexed(per_atom_reference(spec, law)), entry
                assert [r.contaminant_label for r in reports] == [
                    f"atom:{i}" for i in range(law.n_atoms)]

    def test_large_laws_run_in_blocks_of_paths(self, monkeypatch):
        # two to three paths per block: a block holds (window + 1) rows per path
        monkeypatch.setattr(gateaux, "LOCKSTEP_ELEMENTS", 30 * (gateaux.LADDER_WINDOW + 1))
        rng = np.random.default_rng(7)
        for entry, schema in SWEEP_PLAN[::3]:
            law = random_law(rng, schema)
            params = _SWEEP_PARAMS.get(entry, lambda rng, law: {})(rng, law)
            spec = CATALOG[entry.split(":")[0]](**params)
            got = [(r.numerical_derivative, r.halvings) for r in verify_eif(spec, law)]
            assert hexed(got) == hexed(per_atom_reference(spec, law)), entry

    @pytest.mark.parametrize("spec", [Ate(), IncrementalPropensity(epsilon=2.0),
                                      PartiallyLinearCoefficient()])
    def test_zero_probability_atom(self, spec):
        reports = verify_eif(spec, ZERO_ATOM_LAW)
        got = [(r.numerical_derivative, r.halvings) for r in reports]
        assert hexed(got) == hexed(per_atom_reference(spec, ZERO_ATOM_LAW))
        assert all(r.rel_error < 1e-6 for r in reports)

    # the second: two paths per block (atoms 0-1, 2-3), of (window + 1) rows of 4 atoms each
    @pytest.mark.parametrize("elements", [gateaux.LOCKSTEP_ELEMENTS,
                                          8 * (gateaux.LADDER_WINDOW + 1)])
    @pytest.mark.parametrize("undefined_at, error", [
        (3, DerivativeUnstableError),  # atom 1 fails first in atom order, atom 3 earlier in t
        (0, PositivityError),
    ])
    def test_first_failing_atom_gives_its_error(self, monkeypatch, elements, undefined_at, error):
        monkeypatch.setattr(gateaux, "LOCKSTEP_ELEMENTS", elements)
        spec = KinkedMean(undefined_at=undefined_at)
        with pytest.raises(error) as want:
            per_atom_reference(spec, KINK_LAW)
        with pytest.raises(error) as got:
            verify_eif(spec, KINK_LAW)
        assert str(got.value) == str(want.value)

    def test_richardson_derivative_is_the_one_row_case(self):
        for g, at, direction in ((math.exp, 0.0, 1.0), (lambda t: t**3 + 2.0 * t, 1.0, -1.0),
                                 (lambda t: math.log1p(t) / (1.0 + t), 0.0, 1.0)):
            got = richardson_derivative(g, at=at, direction=direction)
            assert hexed([got]) == hexed([scalar_richardson(g, at, direction)])
        with pytest.raises(DerivativeUnstableError) as want:
            scalar_richardson(math.sqrt, 0.0, 1.0)
        with pytest.raises(DerivativeUnstableError) as got:
            richardson_derivative(math.sqrt, at=0.0)
        assert str(got.value) == str(want.value)

    def test_a_step_past_convergence_that_raises_leaves_the_result(self):
        # E[Y] converges at the first halving (k = 1); the first window also
        # asks for steps down to FIRST_STEP / 16, where these laws are refused
        spec = UndefinedNear(center=tuple(KINK_LAW.probs.tolist()))
        toward_atom_0 = MixturePath(KINK_LAW, point_mass(Observation((0.0,), Y_ONLY)))
        with pytest.raises(PositivityError):
            spec.plugin_value(mixture_at(toward_atom_0, FIRST_STEP / 16))
        got = [(r.numerical_derivative, r.halvings) for r in verify_eif(spec, KINK_LAW)]
        assert hexed(got) == hexed(per_atom_reference(spec, KINK_LAW))
        assert [k for _, k in got] == [1] * KINK_LAW.n_atoms

        q = DiscreteDistribution(Y_ONLY, KINK_LAW.values, KINK_LAW.probs[::-1])
        path, spec = MixturePath(KINK_LAW, q), UndefinedNear(center=tuple(q.probs.tolist()))
        with pytest.raises(PositivityError):
            spec.plugin_value(mixture_at(path, 1.0 - FIRST_STEP / 4))
        want = scalar_richardson(lambda t: spec.plugin_value(mixture_at(path, t)), 1.0, -1.0)
        assert hexed([numerical_gateaux(spec, path, at_t=1.0)]) == hexed([want])
        assert want[1] == 1

    def test_an_unstable_ladder_raises_without_a_step_by_step_rerun(self):
        calls = []

        def values(ts, rows):
            calls.append(len(ts))
            return [[math.sqrt(t)] * len(rows) for t in ts]

        with pytest.raises(DerivativeUnstableError) as got:
            gateaux._richardson_rows(values, 2, 0.0, 1.0)
        with pytest.raises(DerivativeUnstableError) as want:
            scalar_richardson(math.sqrt, 0.0, 1.0)
        assert str(got.value) == str(want.value)
        # g(0) and MAX_HALVINGS + 1 steps, a window per call, each step once
        assert len(calls) == math.ceil((MAX_HALVINGS + 1) / gateaux.LADDER_WINDOW)
        assert sum(calls) == MAX_HALVINGS + 2

    def test_one_plugin_call_per_window(self, monkeypatch):
        calls = []
        original = PopulationMean.plugin_values

        def counted(self, law, probs):
            calls.append(len(probs))
            return original(self, law, probs)

        monkeypatch.setattr(PopulationMean, "plugin_values", counted)
        # the base value, then one window for all paths, which reuse it at t = 0
        verify_eif(PopulationMean(), KINK_LAW)
        assert calls == [1, gateaux.LADDER_WINDOW * KINK_LAW.n_atoms]
        calls.clear()
        q = DiscreteDistribution(Y_ONLY, KINK_LAW.values, KINK_LAW.probs[::-1])
        numerical_gateaux(PopulationMean(), MixturePath(KINK_LAW, q), at_t=1.0)
        assert calls == [gateaux.LADDER_WINDOW + 1]

    def test_default_path_builds_no_law_and_no_path(self, monkeypatch):
        law, _ = _full_law(4)
        built = []

        def recording(init):
            def record(self, *args, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)
            return record

        for cls in (DiscreteDistribution, MixturePath):
            monkeypatch.setattr(cls, "__init__", recording(cls.__init__))
        verify_eif(Ate(), law)
        assert built == []
        # the contaminant is a reweighting of the base on its support
        verify_eif(Ate(), law, contaminants=[contaminant_law(np.random.default_rng(1), law)])
        assert built == ["MixturePath"]


def outcome(f):
    """``f()`` as float-hex (derivative, halvings) pairs, or its error."""
    try:
        return hexed(f())
    except Exception as exc:  # the reference and the ladder must fail alike
        return (type(exc).__name__, str(exc))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), entry=st.sampled_from(SWEEP_PLAN))
def test_windowed_ladders_equal_the_step_by_step_reference(seed, entry):
    """On random laws of every sweep schema, at t = 0 (every point-mass path
    of the law) and at t = 1 (a random contaminant on its atoms)."""
    name, schema = entry
    rng = np.random.default_rng(seed)
    law = random_law(rng, schema)
    spec = CATALOG[name.split(":")[0]](**_SWEEP_PARAMS.get(name, lambda rng, law: {})(rng, law))
    got = outcome(lambda: [(r.numerical_derivative, r.halvings) for r in verify_eif(spec, law)])
    assert got == outcome(lambda: per_atom_reference(spec, law))
    path = MixturePath(law, contaminant_law(rng, law))
    got = outcome(lambda: [numerical_gateaux(spec, path, at_t=1.0)])
    assert got == outcome(lambda: [scalar_richardson(
        lambda t: spec.plugin_value(mixture_at(path, t)), 1.0, -1.0)])
