"""influence-lab benchmark: one command for every workload.

    python3 perfbench/run.py                  # every workload, untraced
    python3 perfbench/run.py --trace 1        # every workload, per-layer numbers
    python3 perfbench/run.py --workload kernel-ate --seed 3 --seconds 30 --trace 0

Run it from the root of a checkout that holds ``src/influence_lab``.  Each
workload runs in its own fresh interpreter (``worker.py``) with OpenBLAS
pinned to one thread and ``INFLUENCE_LAB_THREADS`` unset.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it name every metric with its
unit.  ``--workload`` picks one workload (default: all) and ``--seconds``
the measuring time per workload (default: ``run_seconds`` of
``BENCHMARK.json``); a benchmark harness that runs one workload at a time
passes both.  The exit code is 1 when any output check failed and 2 when
the benchmark could not run at all.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE_FILE = os.path.join(HERE, "reference.json")
OUTPUT_DIR = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 0
SETUP_PROBES = 2            # fresh interpreters timed before, and again after, the workload
SETUP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0      # one workload, from its first set-up probe to its result
TAIL_LADDER = (99.9, 99, 95, 90, 75)
REFERENCE_RTOL = 1e-9
NOMINAL_YARDSTICK_S = 0.005  # adjusted latencies are for a host that runs the yardstick this fast


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("INFLUENCE_LAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def tail_percentile(values: list) -> tuple:
    """Highest ladder percentile with at least ten samples beyond it
    (nearest-rank); (None, None) below forty samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


def adjusted_latency(op: dict) -> float:
    """The operation's latency scaled to a host that runs the yardstick in
    NOMINAL_YARDSTICK_S."""
    return op["latency_s"] * NOMINAL_YARDSTICK_S / op["yardstick_s"]


def kind_medians(ops: list, latency) -> dict:
    """Median of ``latency(op)`` per operation kind, in the order kinds first appear."""
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(latency(op))
    return {kind: statistics.median(values) for kind, values in by_kind.items()}


def run_worker(workload: str, seed: int, seconds: float, trace: int, base: str) -> dict:
    """Time set-up probes, run the workload process to its record, and time
    set-up probes again."""
    env = child_env()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []

    def probe(k: int) -> None:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, WORKER, "setup", *common, "--dir", os.path.join(base, f"probe{k}")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        setup.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise BenchError(f"set-up of {workload} failed:\n{proc.stderr[-2000:]}")

    for k in range(SETUP_PROBES):
        probe(k)

    spans = os.path.join(OUTPUT_DIR, "traces", f"{workload}-seed{seed}.npz")
    argv = [sys.executable, WORKER, "run", *common, "--dir", os.path.join(base, "run"),
            "--seconds", str(seconds), "--trace", str(trace), "--spans", spans]
    err_path = os.path.join(base, "worker.err")
    with open(err_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
            line = proc.stdout.readline() if readable else b""
            if line.strip() != b"ready":
                raise BenchError(f"{workload} process did not get ready")
            setup.append(time.perf_counter() - started)
            out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} did not finish within {RUN_DEADLINE_S:.0f} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if proc.returncode != 0:
        with open(err_path) as fh:
            raise BenchError(f"{workload} process exited with {proc.returncode}:\n"
                             + fh.read()[-2000:])
    for k in range(SETUP_PROBES, 2 * SETUP_PROBES):
        probe(k)
    record = json.loads(out.decode().strip().splitlines()[-1])
    record["setup_samples"] = setup
    return record


def check_reference(workload: str, ops: list, reference: dict) -> dict:
    """Compare the recorded operations at the reference seed: index -> mismatches."""
    expected = reference.get("workloads", {}).get(workload, {})
    problems = {}
    for op in ops:
        want = expected.get(str(op["index"]))
        got = op.get("reference")
        if want is None or got is None:
            continue
        for key, value in want.items():
            have = got.get(key)
            if have is None or abs(have - value) > REFERENCE_RTOL * max(1.0, abs(value)):
                problems.setdefault(op["index"], []).append(
                    f"{key} = {have!r}, reference {value!r}")
    return problems


def summarize(workload: str, seed: int, record: dict, reference: dict) -> dict:
    ops = record["ops"]
    timed = ops[1:]
    latencies = [op["latency_s"] for op in timed]
    failed = {op["index"] for op in ops if op["problems"]}
    problems = [f"op {op['index']}: {p}" for op in ops for p in op["problems"]]
    reference_checked = bool(reference) and seed == reference.get("seed")
    if reference_checked:
        mismatches = check_reference(workload, ops, reference)
        failed |= set(mismatches)
        problems += [f"op {i}: {p}" for i, found in mismatches.items() for p in found]
    attempted = len(ops)
    trace = record["trace"]
    if trace is not None:
        attempted += len(timed)
        replay_failed = set(trace["replay_failed"]) | set(trace["digest_mismatches"])
        problems += [f"traced replay: {p}" for p in trace["replay_problems"]]
        problems += [f"traced op {i}: result digest differs from the untraced run"
                     for i in trace["digest_mismatches"]]
    else:
        replay_failed = set()
    tail_p, tail = tail_percentile(latencies)
    adjusted = kind_medians(timed, adjusted_latency)
    medians = kind_medians(timed, lambda op: op["latency_s"])
    prefix = len(WORKLOADS[workload].cycle) + 1
    digests = [op["digest"] or "-" for op in ops]
    warnings = {}
    for op in ops:
        for category, count in op["warnings"].items():
            warnings[category] = warnings.get(category, 0) + count
    return {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": len(failed) + len(replay_failed),
        "correct": not problems,
        "problems": problems,
        "reference_checked": reference_checked,
        "setup_samples": record["setup_samples"],
        "metrics": {
            "setup_s": min(record["setup_samples"]),
            "peak_rss_mb": record["peak_rss_mb"],
            "op_p50_adj_s": statistics.fmean(adjusted.values()),
            "work_per_s": sum(op["units"] for op in timed) / sum(latencies),
        },
        "timed_ops": len(timed),
        "kind_adjusted": adjusted,
        "kind_medians": medians,
        "yardstick_s": statistics.median(op["yardstick_s"] for op in timed),
        "tail_percentile": tail_p,
        "tail_s": tail,
        "error_rate": (len(failed) + len(replay_failed)) / attempted,
        "warnings": warnings,
        "digest_prefix": _combine(digests[:prefix]),
        "digest_prefix_ops": min(prefix, len(ops)),
        "digest_all": _combine(digests),
        "digest_all_ops": len(ops),
        "environment": record["environment"],
        "trace": trace,
        "ops": ops,
    }


def _combine(digests: list) -> str:
    return hashlib.sha256(",".join(digests).encode()).hexdigest()[:16]


def print_summary(s: dict, loadavg: float) -> None:
    wl = WORKLOADS[s["workload"]]
    op_label, unit_label = wl.op_label, wl.unit_label
    env = dict(s["environment"], loadavg_1m_at_start=loadavg)
    m = s["metrics"]
    n = s["timed_ops"]
    tail = (f"{s['tail_s']:.6f} s   (p{s['tail_percentile']:g} of {n} timed ops)"
            if s["tail_s"] is not None else f"n/a   (fewer than 40 timed ops: {n})")
    lines = [
        f"== {s['workload']}  seed {s['seed']}",
        f"environment          {json.dumps(env)}",
        f"setup_s              {m['setup_s']:.6f} s   (fastest of "
        f"{len(s['setup_samples'])}: {', '.join(f'{v:.3f}' for v in s['setup_samples'])})",
        f"peak_rss_mb          {m['peak_rss_mb']:.3f} MB",
        f"{op_label}_p50_adj_s".ljust(21) + f"{m['op_p50_adj_s']:.6f} s   (mean of the "
        f"per-kind medians of {n} timed ops, adjusted to a {NOMINAL_YARDSTICK_S * 1e3:g} ms "
        "yardstick: " + ", ".join(f"{k} {v:.3f}" for k, v in s["kind_adjusted"].items()) + ")",
        f"{op_label}_p50_s".ljust(21)
        + f"{statistics.fmean(s['kind_medians'].values()):.6f} s   (mean of the per-kind "
        "medians: " + ", ".join(f"{k} {v:.3f}" for k, v in s["kind_medians"].items()) + ")",
        f"yardstick_s          {s['yardstick_s']:.6f} s   (median; the host's speed during the run)",
        f"{op_label}_tail_s".ljust(21) + tail,
        f"{unit_label}_per_s".ljust(21) + f"{m['work_per_s']:.4f} 1/s   (work units per second of operation time)",
        f"error_rate           {s['error_rate']:.4f}   ({s['failed']} failed of "
        f"{s['attempted']} attempted)",
        f"warnings             {json.dumps(s['warnings'])}   (counted, not failures)",
        f"result_digest        {s['digest_prefix']}   (ops 0-{s['digest_prefix_ops'] - 1}); "
        f"all {s['digest_all_ops']} ops: {s['digest_all']}",
    ]
    if s["reference_checked"]:
        lines.append("reference            checked against perfbench/reference.json")
    trace = s["trace"]
    if trace is not None:
        lines.append(
            f"trace_overhead       {100.0 * trace['overhead']:+.1f} %   (traced "
            f"{trace['traced_s']:.3f} s vs untraced {trace['untraced_s']:.3f} s, the same "
            f"{n} ops run in pairs; {trace['spans']} spans in "
            f"{os.path.relpath(trace['spans_file'], ROOT)})"
        )
        same = not trace["digest_mismatches"]
        lines.append(f"trace_digest         {'equal to' if same else 'DIFFERENT from'} "
                     "the untraced run, op by op")
    for problem in s["problems"][:20]:
        lines.append(f"FAILED               {problem}")
    print("\n".join(lines))


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record this run's per-operation values as the reference for its seed",
    )
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()[0]

    if not os.path.isfile(os.path.join(ROOT, "src", "influence_lab", "cli.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'influence_lab')}",
              file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    reference = {} if args.write_reference or not os.path.exists(REFERENCE_FILE) \
        else load_json(REFERENCE_FILE)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    summaries = []
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    for name in names:
        base = os.path.join(OUTPUT_DIR, f"run-{name}-seed{args.seed}-pid{os.getpid()}")
        try:
            record = run_worker(name, args.seed, seconds, args.trace, base)
        except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(base, ignore_errors=True)
        summary = summarize(name, args.seed, record, reference)
        print_summary(summary, loadavg)
        summaries.append(summary)

    if args.write_reference:
        stored = load_json(REFERENCE_FILE) if os.path.exists(REFERENCE_FILE) else {}
        if stored.get("seed") != args.seed:
            stored = {"seed": args.seed, "workloads": {}}
        for s in summaries:
            stored["workloads"][s["workload"]] = {
                str(op["index"]): op["reference"] for op in s["ops"] if "reference" in op
            }
        with open(REFERENCE_FILE, "w") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")

    metrics = {}
    for s in summaries:
        values = s["trace"]["metrics"] if args.trace else s["metrics"]
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        for m in declared:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = all(s["correct"] for s in summaries)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
