"""The benchmark's span recorder still finds what it wraps.

``perfbench/spans.py`` patches package names from outside (module
functions, class methods, ``CrossFittedNuisances._combined``) and reads
``nuisance_requirements()`` and the ``Callable`` fields of ``NuisanceSet``;
a refactor that renames any of them breaks ``--trace 1``.  This test
installs the recorder, runs one tiny ``simulate`` and one ``verify-eif``
and checks the spans.
"""
import importlib.util
import json
from pathlib import Path

from influence_lab import cli, estimation, gateaux, simulation

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_trace_a_simulate_run(capsys):
    spans = load_spans()
    originals = (simulation.run_replications, estimation.fit_cross_fitted_nuisances,
                 estimation.CrossFittedNuisances.__dict__["_combined"])
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        code = cli.main(["simulate", "--dgp", "ate-linear", "--estimand", "ate",
                         "--n", "60", "--reps", "2", "--folds", "2", "--seed", "1"])
    finally:
        tracer.disable()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"]["replications"] == 2
    names = tracer.totals()["names"]
    for name in ("simulation.run_replications", "simulation.generate",
                 "estimation.fit_nuisances", "estimation.make_folds",
                 "estimation.estimator", "learners.fit_ols", "learners.fit_logistic",
                 "learners.predict", "estimands.eif"):
        assert names[name]["calls"] > 0, name
    # two function slots (outcome mean, propensity) per fold per replication
    assert tracer.counts["min_passes"] == 2 * 2 * 2
    assert (simulation.run_replications, estimation.fit_cross_fitted_nuisances,
            estimation.CrossFittedNuisances.__dict__["_combined"]) == originals


def test_spans_trace_a_verify_run(capsys):
    spans = load_spans()
    builders = dict(gateaux.SMOOTH_PATH_FUNCTIONS)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        code = cli.main(["verify-eif", "--spec", "all", "--trials", "1"])
    finally:
        tracer.disable()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["result"]["failures"] == 0
    names = tracer.totals()["names"]
    for name in ("gateaux.sweep_t0", "gateaux.sweep_t1", "gateaux.smooth_sweep",
                 "gateaux.numerical_gateaux", "gateaux.eif_mean",
                 "estimands.exact_nuisances"):
        assert names.get(name, {}).get("calls", 0) > 0, name
    # one path-function build per case of the smooth battery
    assert names.get("smooth.path_functions", {}).get("calls", 0) == len(gateaux.SMOOTH_CASES) == 7
    # a trial builds its law, and at t=1 its contaminant; no law per atom
    assert names["distributions.law_init"]["calls"] <= 3 * len(gateaux.SWEEP_PLAN)
    assert dict(gateaux.SMOOTH_PATH_FUNCTIONS) == builders
