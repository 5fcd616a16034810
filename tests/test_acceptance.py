"""End-to-end statistical guarantees, one test per advertised property.

Every test prints a single PASS/FAIL line with the measured numbers
(visible under ``pytest -s``) and asserts the same condition, so the file
doubles as a release checklist.  The simulation tests share one frozen
master seed; each verdict below is reproducible bit for bit.
"""
import dataclasses
import subprocess
import sys
import time

import numpy as np

from influence_lab import (
    Ate,
    LearnerSettings,
    double_robustness_experiment,
    exact_nuisances,
    median_efficiency_experiment,
    oracle_sweep,
    run_replications,
    sqrt_n_rate_experiment,
    von_mises_remainder,
)
from influence_lab.gateaux import FULL_SCHEMA, contaminant_law, random_law
from influence_lab.simulation import ARM_SETTINGS, AteLinearDgp, AteNonlinearDgp

SEED = 20260815

KERNEL = LearnerSettings(outcome_model="kernel", propensity_model="kernel")


def verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok


def mc_se(report) -> float:
    return report.empirical_sd / np.sqrt(report.completed)


def test_criterion_01_eif_equals_point_mass_derivative():
    start = time.perf_counter()
    result = oracle_sweep(trials=50, seed=SEED, keep="worst")
    elapsed = time.perf_counter() - start
    ok = (
        result.checked > 0
        and not result.failures(1e-6)
        and result.worst_rel_error <= 1e-6
        and elapsed < 60
    )
    assert verdict(
        "criterion 1, derivative-vs-EIF sweep at t=0",
        ok,
        f"checked={result.checked} worst rel error={result.worst_rel_error:.2e} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_02_t1_identity_against_contaminant_mean():
    start = time.perf_counter()
    result = oracle_sweep(trials=50, seed=SEED, at_t=1.0, keep="worst")
    elapsed = time.perf_counter() - start
    ok = (
        result.checked > 0
        and not result.failures(1e-6)
        and result.worst_rel_error <= 1e-6
        and elapsed < 60
    )
    assert verdict(
        "criterion 2, endpoint identity at t=1",
        ok,
        f"checked={result.checked} worst rel error={result.worst_rel_error:.2e} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_03_ate_remainder_vanishes_with_true_propensity():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    spec = Ate()
    worst_true_pi = 0.0
    bound_failures = 0
    for _ in range(100):
        law = random_law(rng, FULL_SCHEMA)
        cont = contaminant_law(rng, law)
        nuis_p = exact_nuisances(spec, law)
        nuis_q = exact_nuisances(spec, cont)
        mixed = dataclasses.replace(nuis_q, propensity=nuis_p.propensity)
        true_pi = von_mises_remainder(spec, law, cont, nuisance_override=mixed)
        worst_true_pi = max(worst_true_pi, abs(true_pi.remainder))
        full = von_mises_remainder(spec, law, cont)
        if abs(full.remainder) > full.bound + 1e-12:
            bound_failures += 1
    elapsed = time.perf_counter() - start
    ok = worst_true_pi <= 1e-12 and bound_failures == 0 and elapsed < 30
    assert verdict(
        "criterion 3, ATE remainder structure over 100 laws",
        ok,
        f"max |R| with true propensity={worst_true_pi:.2e}, "
        f"Cauchy-Schwarz violations={bound_failures} ({elapsed:.1f}s)",
    )


def test_criterion_04_median_efficiency_ratio():
    start = time.perf_counter()
    res = median_efficiency_experiment(n=400, R=2000, seed=SEED)
    elapsed = time.perf_counter() - start
    median_ratio = res["median_sd_ratio"]
    mean_ratio = res["mean_sd_ratio"]
    ok = 1.15 <= median_ratio <= 1.35 and 0.95 <= mean_ratio <= 1.05 and elapsed < 120
    assert verdict(
        "criterion 4, EE median spread vs sigma/sqrt(n)",
        ok,
        f"median ratio={median_ratio:.4f} (expect ~1.2533), "
        f"mean ratio={mean_ratio:.4f} ({elapsed:.1f}s)",
    )


def test_criterion_05_coverage_calibration():
    start = time.perf_counter()
    report = run_replications(
        AteLinearDgp(), Ate(), method="one_step", n=1000, R=1000, seed=SEED, folds=5
    )
    elapsed = time.perf_counter() - start
    calibration = report.mean_se / report.empirical_sd
    ok = (
        report.completed == 1000
        and 0.925 <= report.coverage <= 0.97
        and 0.9 <= calibration <= 1.1
        and elapsed < 300
    )
    assert verdict(
        "criterion 5, Wald coverage with correct nuisances",
        ok,
        f"coverage={report.coverage:.4f}, se/sd={calibration:.4f}, "
        f"completed={report.completed} ({elapsed:.1f}s)",
    )


def test_criterion_06_one_step_removes_plugin_bias():
    start = time.perf_counter()
    plugin = run_replications(
        AteNonlinearDgp(), Ate(), method="plugin", settings=KERNEL,
        n=2000, R=500, seed=SEED,
    )
    onestep = run_replications(
        AteNonlinearDgp(), Ate(), method="one_step", settings=KERNEL,
        n=2000, R=500, seed=SEED,
    )
    elapsed = time.perf_counter() - start
    ok = (
        abs(onestep.bias) < abs(plugin.bias)
        and abs(plugin.bias) > 3 * mc_se(plugin)
        and abs(onestep.bias) <= 3 * mc_se(onestep)
        and elapsed < 600
    )
    assert verdict(
        "criterion 6, kernel plug-in bias removal",
        ok,
        f"plugin bias={plugin.bias:+.5f} ({abs(plugin.bias) / mc_se(plugin):.1f} mc-se), "
        f"one-step bias={onestep.bias:+.5f} "
        f"({abs(onestep.bias) / mc_se(onestep):.1f} mc-se) ({elapsed:.1f}s)",
    )


def test_criterion_07_double_robustness_arms():
    start = time.perf_counter()
    reports = double_robustness_experiment(n=2000, R=500, seed=SEED)
    elapsed = time.perf_counter() - start
    sigmas = {
        arm: abs(rep.bias) / mc_se(rep) for arm, rep in reports.items()
    }
    ok = (
        sigmas["both_correct"] <= 3.0
        and sigmas["outcome_wrong"] <= 3.0
        and sigmas["both_wrong"] > 5.0
        and elapsed < 600
    )
    detail = ", ".join(
        f"{arm}={reports[arm].bias:+.5f} ({sigmas[arm]:.1f} mc-se)"
        for arm in ("both_correct", "outcome_wrong", "propensity_wrong", "both_wrong")
    )
    assert verdict(
        "criterion 7, double robustness", ok, f"{detail} ({elapsed:.1f}s)"
    )


def test_criterion_08_tmle_score_and_aipw_agreement():
    start = time.perf_counter()
    runs = [
        run_replications(
            AteLinearDgp(), Ate(), method="tmle", n=1000, R=1000, seed=SEED, folds=5
        ),
        run_replications(
            AteNonlinearDgp(), Ate(), method="tmle", settings=KERNEL,
            n=2000, R=500, seed=SEED,
        ),
    ]
    runs.extend(
        run_replications(
            AteNonlinearDgp(), Ate(), method="tmle", settings=ARM_SETTINGS[arm],
            n=2000, R=500, seed=SEED, arm=arm,
        )
        for arm in ARM_SETTINGS
    )
    elapsed = time.perf_counter() - start
    worst_score = max(r.extras["max_tmle_score"] for r in runs)
    excluded = sum(len(r.excluded) for r in runs)
    # The o(1) agreement clause is pinned at the n=2000 configurations.
    gap_ratios = [
        r.extras["max_tmle_aipw_gap"] / r.mean_se for r in runs if r.n == 2000
    ]
    ok = worst_score <= 1e-10 and excluded == 0 and max(gap_ratios) < 0.5
    assert verdict(
        "criterion 8, TMLE post-condition on criteria 5-7 configs",
        ok,
        f"max |mean EIF|={worst_score:.2e}, max TMLE-AIPW gap="
        f"{max(gap_ratios):.3f} se at n=2000, exclusions={excluded} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_09_root_n_rate():
    start = time.perf_counter()
    res = sqrt_n_rate_experiment(n=1000, R=500, seed=SEED)
    elapsed = time.perf_counter() - start
    ratio = res["sd_ratio"]
    ok = 1.8 <= ratio <= 2.2 and elapsed < 300
    assert verdict(
        "criterion 9, sd(n)/sd(4n) near 2",
        ok,
        f"ratio={ratio:.4f} ({elapsed:.1f}s)",
    )


def test_criterion_10_point_evaluation_rejection(tmp_path):
    failures = []
    for name in ("density_at_point", "conditional_mean_at"):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(
            f"[data]\ndgp = normal-mean\nn = 100\n\n[estimand]\nname = {name}\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "influence_lab.cli", "estimate",
             "--config", str(cfg)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 1 or "point-evaluation" not in proc.stderr:
            failures.append(f"{name}: rc={proc.returncode} stderr={proc.stderr!r}")
    assert verdict(
        "criterion 10, point-evaluation functionals exit with code 1",
        not failures,
        "; ".join(failures) or "both rejected with the dedicated message",
    )
