"""Workload definitions: inputs drawn from the workload seed, the argv of
each operation, the checks on each operation's output, and the work units
an operation completes.

An operation is one call of ``influence_lab.cli.main(argv)``.  Operation
``i`` of a run is fully determined by (workload, seed, i): its CSV file,
its ``--seed`` and its method all derive from the workload seed, so two
runs at one seed send the program identical inputs whatever its speed.

The data are drawn here with numpy from the documented formula of the
package's built-in ``ate-nonlinear`` process, not by calling the package,
so a change to the package cannot change the benchmark's inputs.
"""
from __future__ import annotations

import hashlib
import math
import os

import numpy as np

TMLE_SCORE_LIMIT = 1e-10


def derive_seed(seed: int, *parts) -> int:
    """31-bit seed mixed from the workload seed and labels."""
    text = ":".join(str(p) for p in (seed,) + parts)
    digest = hashlib.blake2b(text.encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


def _expit(eta):
    return 1.0 / (1.0 + np.exp(-eta))


# ---------------------------------------------------------------------------
# input data (formula of the ate-nonlinear process in influence_lab.simulation)
# ---------------------------------------------------------------------------


def draw_ate_nonlinear(n: int, seed: int) -> tuple[list, np.ndarray]:
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.5, 1.5, n)
    x = (rng.uniform(size=n) < _expit(0.2 + 0.5 * z - 0.3 * z**2)).astype(float)
    m = 0.5 + 1.0 * x + 0.8 * z + 0.35 * z**2 + 2.0 * x * z + 0.35 * x * z**2
    y = m + rng.normal(0.0, 1.0, n)
    return ["z", "x", "y"], np.column_stack([z, x, y])


def write_csv(path: str, header: list, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_config(path: str, csv_path: str, roles: dict, estimand: str,
                 learners: dict, method: str, folds: int = 5) -> None:
    lines = ["[data]", f"path = {csv_path}"]
    lines += [f"role.{col} = {role}" for col, role in roles.items()]
    lines += ["", "[estimand]", f"name = {estimand}", "", "[learners]"]
    lines += [f"{key} = {value}" for key, value in learners.items()]
    lines += ["", "[run]", f"method = {method}", f"folds = {folds}", "seed = 0", ""]
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


# ---------------------------------------------------------------------------
# output checks shared by the workloads
# ---------------------------------------------------------------------------


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_estimate(result: dict, method: str) -> list:
    problems = []
    if not _finite(result.get("psi_hat"), result.get("se")):
        problems.append(f"non-finite psi_hat/se: {result.get('psi_hat')!r}, {result.get('se')!r}")
    if method == "tmle":
        scores = result.get("diagnostics", {}).get("tmle_score", [])
        if not scores or any(abs(s) > TMLE_SCORE_LIMIT for s in scores):
            problems.append(f"tmle_score above {TMLE_SCORE_LIMIT}: {scores!r}")
    return problems


def check_simulate(result: dict, reps: int) -> list:
    problems = []
    if result.get("completed") != reps:
        problems.append(f"completed {result.get('completed')!r} of {reps} replications")
    if result.get("excluded"):
        problems.append(f"excluded replications: {result['excluded'][:3]!r}")
    if not _finite(*result.get("psi_hats", [math.nan]), *result.get("ses", [math.nan])):
        problems.append("non-finite psi_hats or ses")
    return problems


def check_verify(result: dict) -> list:
    if result.get("failures") != 0:
        return [f"verify-eif reported {result.get('failures')!r} failures"]
    return []


SWEEP_BLOCKS = ("point_mass_t0", "identity_t1", "smooth_families")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One set of inputs.  ``cycle`` lists the operation kinds in the
    fixed order operations follow; a run always completes whole cycles."""

    name = ""
    op_label = ""      # what one operation is, for the printed metric names
    unit_label = ""    # the work unit counted by work_per_s
    cycle: tuple = ()

    def build_inputs(self, seed: int, directory: str) -> None:
        """Write every input file the operations read."""

    def kind(self, i: int) -> str:
        return self.cycle[i % len(self.cycle)]

    def argv(self, seed: int, directory: str, i: int) -> list:
        raise NotImplementedError

    def check(self, i: int, result: dict) -> list:
        raise NotImplementedError

    def units(self, result: dict) -> float:
        return 1.0

    def reference_values(self, result: dict) -> dict:
        """Numbers compared against the recorded reference at the default seed."""
        raise NotImplementedError


class EstimateWorkload(Workload):
    """Operations are ``estimate`` calls; one estimate is one work unit."""

    op_label = "estimate"
    unit_label = "estimates"

    def reference_values(self, result):
        return {"psi_hat": result["psi_hat"], "se": result["se"]}


class KernelAte(EstimateWorkload):
    name = "kernel-ate"
    cycle = ("plugin", "one-step", "tmle")
    n = 2000
    csv_files = 4
    roles = {"z": "covariate,continuous", "x": "exposure,binary", "y": "outcome,continuous"}

    def build_inputs(self, seed, directory):
        for j in range(self.csv_files):
            header, values = draw_ate_nonlinear(self.n, derive_seed(seed, self.name, "csv", j))
            write_csv(os.path.join(directory, f"ate-{j}.csv"), header, values)
        for method in self.cycle:
            write_config(
                os.path.join(directory, f"ate-{method}.ini"),
                os.path.join(directory, "ate-0.csv"), self.roles, "ate",
                {"outcome_model": "kernel", "propensity_model": "kernel"}, method,
            )

    def argv(self, seed, directory, i):
        return [
            "estimate",
            "--config", os.path.join(directory, f"ate-{self.kind(i)}.ini"),
            "--data", os.path.join(directory, f"ate-{i % self.csv_files}.csv"),
            "--seed", str(derive_seed(seed, self.name, "op", i)),
        ]

    def check(self, i, result):
        return check_estimate(result, self.kind(i))


class ParametricSim(Workload):
    name = "parametric-sim"
    op_label = "simulate"
    unit_label = "replications"
    cycle = ("one-step", "tmle")
    reps = 20

    def argv(self, seed, directory, i):
        return [
            "simulate", "--dgp", "ate-linear", "--estimand", "ate",
            "--method", self.kind(i), "--n", "1000", "--reps", str(self.reps),
            "--folds", "5", "--seed", str(derive_seed(seed, self.name, "op", i)),
        ]

    def check(self, i, result):
        return check_simulate(result, self.reps)

    def units(self, result):
        return float(result.get("completed", 0))

    def reference_values(self, result):
        return {key: result[key] for key in ("completed", "bias", "empirical_sd", "mean_se")}


class EifVerify(Workload):
    name = "eif-verify"
    op_label = "verify"
    unit_label = "checks"
    cycle = ("all",)
    trials = 4

    def argv(self, seed, directory, i):
        return [
            "verify-eif", "--spec", "all", "--trials", str(self.trials),
            "--seed", str(derive_seed(seed, self.name, "op", i)),
        ]

    def check(self, i, result):
        return check_verify(result)

    def units(self, result):
        return float(sum(result[block]["checked"] for block in SWEEP_BLOCKS))

    def reference_values(self, result):
        live = [r for block in SWEEP_BLOCKS for r in result[block]["reports"]
                if not r["skipped"]]
        return {
            "checked": sum(result[block]["checked"] for block in SWEEP_BLOCKS),
            "skipped": sum(result[block]["skipped"] for block in SWEEP_BLOCKS),
            "analytic_sum": math.fsum(r["analytic_value"] for r in live),
        }


WORKLOADS = {wl.name: wl for wl in (KernelAte(), ParametricSim(), EifVerify())}
