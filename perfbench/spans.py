"""Span recorder for the traced run.

The recorder wraps the public functions of each package module from the
outside: a name a module imports into its own namespace is replaced where
it is imported (``influence_lab.cli.estimate``, the ``ESTIMATORS`` table,
...), and a class method is replaced on the class.  Every wrapped call
appends one span (name, layer, start, end, parent span, operation index)
to flat in-memory arrays; nothing is written until the run ends.  Self
time is a span's duration minus the durations of its direct children.
``disable`` and ``enable`` swap the originals and the wrappers, so one
process can run an operation untraced and then traced.

``Schema.validate_values``, called tens of thousands of times per
verification operation, is not wrapped, nor are private helpers; their cost
lands in the self time of their callers.  The one exception is
``CrossFittedNuisances._combined``: the fold-routing closures it builds are
wrapped as ``estimation.route`` spans, so that the fold splitting and
re-indexing they do is billed to ``estimation`` and not to the estimand
that calls them.
"""
from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "config", "distributions", "learners", "estimation",
          "estimands", "gateaux", "smooth", "simulation")


class Tracer:
    """In-memory span store plus the counters read at the same boundaries."""

    def __init__(self):
        self.names: list = []
        self.name_layer: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._active = Counter()
        self.current_op = -1
        self.counts = Counter()
        self.peak_tensor_bytes = 0
        self._train_rows = weakref.WeakKeyDictionary()
        self._patches: list = []

    def _intern(self, layer: str, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def wrap(self, layer: str, name, fn, after=None):
        """Span-recording wrapper.  ``name`` is a string or a function of
        (args, kwargs) that picks one; ``after(args, kwargs, result)`` reads
        counters from the call once it has returned."""
        fixed = None if callable(name) else self._intern(layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._intern(layer, name(args, kwargs))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.nested.append(1 if self._active[nid] else 0)
            self.end.append(0.0)
            self._stack.append(idx)
            self._active[nid] += 1
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
                self._active[nid] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, wrapper) -> None:
        original = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
        self._patches.append((owner, attr, original, wrapper))
        self._put(owner, attr, wrapper)

    @staticmethod
    def _put(owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def replace_function(self, layer: str, name, fn, after=None) -> None:
        """Replace ``fn`` in every package namespace and table that holds it."""
        wrapper = self.wrap(layer, name, fn, after)
        for modname, module in list(sys.modules.items()):
            if modname != "influence_lab" and not modname.startswith("influence_lab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                elif isinstance(value, dict) and attr.isupper():
                    for key, entry in list(value.items()):
                        if entry is fn:
                            self._set(value, key, wrapper)

    def replace_method(self, layer: str, name, owner, attr: str, after=None) -> None:
        """Replace one attribute of a class or module, and only there."""
        self._set(owner, attr, self.wrap(layer, name, owner.__dict__[attr], after))

    def enable(self) -> None:
        """Put every recorded wrapper back in place."""
        for owner, attr, _, wrapper in self._patches:
            self._put(owner, attr, wrapper)

    def disable(self) -> None:
        """Restore every original; the wrappers stay recorded for ``enable``."""
        for owner, attr, original, _ in reversed(self._patches):
            self._put(owner, attr, original)

    # -- derived numbers --------------------------------------------------

    def span_arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "nested": np.frombuffer(self.nested, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def totals(self) -> dict:
        """Per span name: calls, outermost calls, inclusive seconds of the
        outermost calls, and self seconds; per layer: self seconds."""
        a = self.span_arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        outer = a["nested"] == 0
        by_name = {
            "calls": np.bincount(a["name_id"], minlength=k),
            "outer_calls": np.bincount(a["name_id"][outer], minlength=k),
            "inclusive_s": np.bincount(a["name_id"][outer], weights=dur[outer], minlength=k),
            "self_s": np.bincount(a["name_id"], weights=self_time, minlength=k),
        }
        names = {
            name: {key: float(values[i]) for key, values in by_name.items()}
            for i, name in enumerate(self.names)
        }
        layers = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            layers[self.name_layer[i]] += float(by_name["self_s"][i])
        return {"names": names, "layers": layers}

    def save(self, path: str) -> None:
        """Write the spans out (compressed numpy archive)."""
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(self.name_layer),
            **self.span_arrays(),
        )


# ---------------------------------------------------------------------------
# what is wrapped, and the counters read from outside the package
# ---------------------------------------------------------------------------


def install(tr: Tracer) -> None:
    """Wrap the public functions of every layer named in the benchmark doc."""
    from influence_lab import _smooth, config, distributions, estimands, estimation
    from influence_lab import gateaux, learners, simulation

    function_slots = {
        name for name, f in estimands.NuisanceSet.__dataclass_fields__.items()
        if "Callable" in str(f.type)
    }

    def rows_loaded(args, kwargs, dataset):
        tr.counts["rows_loaded"] += dataset.n

    def irls(args, kwargs, fit):
        tr.counts["irls_iterations"] += fit.iterations
        tr.counts["irls_not_converged"] += 0 if fit.converged else 1

    def kernel_train(args, kwargs, fit):
        tr._train_rows[fit] = np.atleast_2d(np.asarray(args[0], dtype=float)).shape[0]

    def regression_pass(args, kwargs, _):
        fit, queries = args[0], args[1]
        n_query = np.atleast_2d(np.asarray(queries, dtype=float)).shape[0]
        n_train, d = tr._train_rows.get(fit, 0), fit.bandwidths.size
        tr.counts["kernel_evals"] += n_query * n_train
        tr.peak_tensor_bytes = max(tr.peak_tensor_bytes, n_query * n_train * d * 8)

    def min_passes(args, kwargs, nuis):
        spec = kwargs["spec"] if "spec" in kwargs else args[1]
        slots = spec.nuisance_requirements() & function_slots
        tr.counts["min_passes"] += len(slots) * nuis.plan.K

    def sweep_name(args, kwargs):
        return "gateaux.sweep_t1" if kwargs.get("at_t", 0.0) == 1.0 else "gateaux.sweep_t0"

    # The TMLE companion one-step of simulation is named apart from the
    # estimators, so it must be wrapped before one_step is wrapped everywhere.
    tr.replace_method("estimation", "simulation.tmle_companion", simulation, "one_step")

    for layer, name, fn, after in (
        ("config", "config.parse", config.parse_config_file, None),
        ("distributions", "distributions.load_csv", distributions.load_csv, rows_loaded),
        ("distributions", "distributions.mixture_at", distributions.mixture_at, None),
        ("learners", "learners.fit_ols", learners.fit_ols, None),
        ("learners", "learners.fit_logistic", learners.fit_logistic, irls),
        ("learners", "learners.fit_kernel_regression", learners.fit_kernel_regression,
         kernel_train),
        ("estimation", "estimation.estimate", estimation.estimate, None),
        ("estimation", "estimation.make_folds", estimation.make_folds, None),
        ("estimation", "estimation.fit_nuisances", estimation.fit_cross_fitted_nuisances,
         min_passes),
        ("estimation", "estimation.estimator", estimation.plugin, None),
        ("estimation", "estimation.estimator", estimation.one_step, None),
        ("estimation", "estimation.estimator", estimation.estimating_equation, None),
        ("estimation", "estimation.estimator", estimation.tmle, None),
        ("estimation", "estimation.wald", estimation.wald_interval, None),
        ("estimands", "estimands.exact_nuisances", estimands.exact_nuisances, None),
        ("gateaux", sweep_name, gateaux.oracle_sweep, None),
        ("gateaux", "gateaux.smooth_sweep", gateaux.smooth_sweep, None),
        ("gateaux", "gateaux.eif_mean", gateaux.eif_mean_under, None),
        ("gateaux", "gateaux.richardson", gateaux.richardson_derivative, None),
        ("gateaux", "gateaux.numerical_gateaux", gateaux.numerical_gateaux, None),
        ("smooth", "smooth.path_functions", _smooth.quantile_path_functions, None),
        ("smooth", "smooth.path_functions", _smooth.tail_path_functions, None),
        ("smooth", "smooth.path_functions", _smooth.derivative_path_functions, None),
        ("simulation", "simulation.run_replications", simulation.run_replications, None),
    ):
        tr.replace_function(layer, name, fn, after)

    methods = [
        ("distributions", "distributions.law_init", distributions.DiscreteDistribution,
         "__init__", None),
        ("learners", "learners.predict", learners.LinearFit, "predict", None),
        ("learners", "learners.predict", learners.LinearFit, "predict_grad", None),
        ("learners", "learners.predict", learners.LogisticFit, "predict", None),
        ("learners", "learners.predict", learners.KernelRegressionFit, "predict",
         regression_pass),
        ("learners", "learners.predict", learners.KernelRegressionFit, "predict_grad",
         regression_pass),
    ]
    for cls in (estimands.Estimand, *estimands.CATALOG.values()):
        for attr, name in (("eif_values", "estimands.eif"), ("eif_terms", "estimands.eif"),
                           ("plugin_estimate", "estimands.plugin_estimate"),
                           ("plugin_value", "estimands.plugin_value")):
            if attr in cls.__dict__:
                methods.append(("estimands", name, cls, attr, None))
    for attr in ("pdf", "cdf", "partial_mean", "quantile"):
        methods.append(("smooth", "smooth.normal_mixture", _smooth.NormalMixture, attr, None))
    for attr in ("xz_density", "xz_density_grad_x", "regression", "regression_grad"):
        methods.append(("smooth", "smooth.regression_family",
                        _smooth.GaussianRegressionFamily, attr, None))
    for cls in (_smooth.FixedGrid1D, _smooth.FixedGrid2D):
        for attr in ("__init__", "integrate"):
            methods.append(("smooth", "smooth.quadrature", cls, attr, None))
    for cls in simulation.DGPS.values():
        methods.append(("simulation", "simulation.generate", cls, "generate", None))
    for layer, name, cls, attr, after in methods:
        tr.replace_method(layer, name, cls, attr, after)

    # Function-valued nuisance slots are closures built per fit; wrap each
    # one as it is built.
    combined = estimation.CrossFittedNuisances.__dict__["_combined"]

    def traced_combined(self, name):
        value = combined(self, name)
        return tr.wrap("estimation", "estimation.route", value) if callable(value) else value

    tr._set(estimation.CrossFittedNuisances, "_combined", traced_combined)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tr: Tracer, ops: list) -> dict:
    """Every per-layer metric, as a mean per traced operation.  Failure
    counts (``irls_not_converged``, ``simulation.excluded``) are run totals.
    A layer a workload never calls reads 0."""
    n_ops = max(len(ops), 1)
    t = tr.totals()
    names, layers = t["names"], t["layers"]

    def stat(name: str, key: str) -> float:
        return names.get(name, {}).get(key, 0.0)

    def per_op(value: float) -> float:
        return value / n_ops

    results = [op["result"] for op in ops if op.get("result") is not None]
    verify = [r for r in results if "point_mass_t0" in r]
    blocks = [r[b] for r in verify for b in ("point_mass_t0", "identity_t1", "smooth_families")]
    live = [rep for block in blocks for rep in block["reports"] if not rep["skipped"]]
    checked = sum(block["checked"] for block in blocks)
    skipped = sum(block["skipped"] for block in blocks)
    simulated = [r for r in results if "replications" in r]
    passes = stat("learners.predict", "calls")
    checks = stat("gateaux.numerical_gateaux", "calls")

    metrics = {f"{layer}.self_s": per_op(layers[layer]) for layer in LAYERS}
    metrics.update({
        "cli.output_bytes": per_op(sum(op["output_bytes"] for op in ops)),
        "config.parse_s": per_op(stat("config.parse", "inclusive_s")),
        "distributions.load_csv_s": per_op(stat("distributions.load_csv", "inclusive_s")),
        "distributions.rows_loaded": per_op(tr.counts["rows_loaded"]),
        "distributions.mixture_at_calls": per_op(stat("distributions.mixture_at", "calls")),
        "distributions.mixture_at_s": per_op(stat("distributions.mixture_at", "inclusive_s")),
        "distributions.laws_built": per_op(stat("distributions.law_init", "calls")),
        "learners.fit_ols_s": per_op(stat("learners.fit_ols", "inclusive_s")),
        "learners.fit_logistic_s": per_op(stat("learners.fit_logistic", "inclusive_s")),
        "learners.irls_iterations": per_op(tr.counts["irls_iterations"]),
        "learners.irls_not_converged": float(tr.counts["irls_not_converged"]),
        "learners.fit_kernel_regression_s": per_op(
            stat("learners.fit_kernel_regression", "inclusive_s")),
        "learners.predict_calls": per_op(passes),
        "learners.predict_s": per_op(stat("learners.predict", "inclusive_s")),
        "learners.kernel_evals": per_op(tr.counts["kernel_evals"]),
        "learners.kernel_peak_tensor_mb": tr.peak_tensor_bytes / 2**20,
        "estimation.make_folds_s": per_op(stat("estimation.make_folds", "inclusive_s")),
        "estimation.fit_nuisances_s": per_op(stat("estimation.fit_nuisances", "inclusive_s")),
        "estimation.estimator_self_s": per_op(stat("estimation.estimator", "self_s")),
        "estimation.route_self_s": per_op(stat("estimation.route", "self_s")),
        "estimation.wald_s": per_op(stat("estimation.wald", "inclusive_s")),
        "estimation.nuisance_passes": per_op(passes),
        "estimation.nuisance_pass_ratio": tr.counts["min_passes"] / passes if passes else 0.0,
        "estimands.eif_calls": per_op(stat("estimands.eif", "outer_calls")),
        "estimands.eif_self_s": per_op(stat("estimands.eif", "self_s")),
        "estimands.plugin_estimate_s": per_op(stat("estimands.plugin_estimate", "inclusive_s")),
        "estimands.plugin_value_calls": per_op(stat("estimands.plugin_value", "calls")),
        "estimands.plugin_value_s": per_op(stat("estimands.plugin_value", "inclusive_s")),
        "estimands.exact_nuisances_s": per_op(stat("estimands.exact_nuisances", "inclusive_s")),
        "gateaux.sweep_t0_s": per_op(stat("gateaux.sweep_t0", "inclusive_s")),
        "gateaux.sweep_t1_s": per_op(stat("gateaux.sweep_t1", "inclusive_s")),
        "gateaux.smooth_sweep_s": per_op(stat("gateaux.smooth_sweep", "inclusive_s")),
        "gateaux.derivatives": per_op(stat("gateaux.richardson", "calls")),
        "gateaux.halvings_mean": (
            sum(rep["halvings"] for rep in live) / len(live) if live else 0.0),
        "gateaux.plugin_evals_per_check": (
            stat("estimands.plugin_value", "calls") / checks if checks else 0.0),
        "gateaux.eif_mean_s": per_op(stat("gateaux.eif_mean", "inclusive_s")),
        "gateaux.check_yield": checked / (checked + skipped) if checked + skipped else 0.0,
        "smooth.normal_mixture_s": per_op(stat("smooth.normal_mixture", "inclusive_s")),
        "smooth.regression_family_s": per_op(stat("smooth.regression_family", "inclusive_s")),
        "simulation.generate_s": per_op(stat("simulation.generate", "inclusive_s")),
        "simulation.replications": per_op(sum(r["replications"] for r in simulated)),
        "simulation.excluded": float(sum(len(r["excluded"]) for r in simulated)),
        "simulation.tmle_companion_s": per_op(stat("simulation.tmle_companion", "inclusive_s")),
        "simulation.aggregate_s": per_op(stat("simulation.run_replications", "self_s")),
    })
    return metrics
