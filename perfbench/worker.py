"""Workload process: one fresh interpreter per workload.

    python3 perfbench/worker.py setup --workload W --seed S --dir D
    python3 perfbench/worker.py run   --workload W --seed S --dir D --seconds T --trace 0|1

Both modes import ``influence_lab.cli`` and write the workload's inputs
into D; that is the set-up ``run.py`` times.  ``run`` then prints
``ready``, drives operations in a closed loop with one client (each one an
in-process call of ``influence_lab.cli.main(argv)`` whose standard output
is captured), and prints one JSON record of every operation.

Operation 0 warms the process up and is not timed.  The timed loop then
runs whole cycles of the workload's operation kinds until T seconds have
passed.  With ``--trace 1`` every timed operation runs twice, untraced and
with the span recorder on, back to back.

Each operation is bracketed by two timings of a fixed pure-Python loop, the
yardstick; ``run.py`` uses their mean to adjust the operation's latency for
the speed of the shared host at that moment.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
import warnings
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

REFERENCE_OPS = 12
YARDSTICK_LOOPS = 60_000
# Wall-clock fields are left out of the result digest.
NONDETERMINISTIC_RESULT_KEYS = ("mean_runtime",)


def result_digest(result: dict) -> str:
    kept = {k: v for k, v in result.items() if k not in NONDETERMINISTIC_RESULT_KEYS}
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def yardstick() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(YARDSTICK_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def environment() -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "influence_lab_threads": os.environ.get("INFLUENCE_LAB_THREADS"),
    }


class Runner:
    def __init__(self, cli, workload, seed: int, directory: str):
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.entry = cli.main

    def op(self, i: int) -> dict:
        """Run operation i once, between two yardstick timings, and check
        its output."""
        argv = self.workload.argv(self.seed, self.directory, i)
        out, err = io.StringIO(), io.StringIO()
        rc, crash = None, ""
        before = yardstick()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    rc = self.entry(argv)
                except Exception:  # the loop must go on; the failure is recorded
                    crash = traceback.format_exc(limit=3)
                latency = time.perf_counter() - start
        after = yardstick()
        record = {
            "index": i,
            "kind": self.workload.kind(i),
            "latency_s": latency,
            "yardstick_s": (before + after) / 2.0,
            "rc": rc,
            "output_bytes": len(out.getvalue()),
            "warnings": dict(Counter(w.category.__name__ for w in caught)),
            "problems": [],
            "units": 0.0,
            "digest": None,
            "result": None,
        }
        if crash:
            record["problems"].append(f"uncaught exception: {crash}")
            return record
        if rc != 0:
            record["problems"].append(f"exit code {rc}: {err.getvalue().strip()[:300]}")
        try:
            result = json.loads(out.getvalue())["result"]
        except (ValueError, KeyError, TypeError) as exc:
            record["problems"].append(f"unreadable output: {exc}")
            return record
        record["problems"] += self.workload.check(i, result)
        record["digest"] = result_digest(result)
        record["result"] = result
        if not record["problems"]:
            record["units"] = self.workload.units(result)
        return record

    def loop(self, seconds: float, step) -> None:
        """``step(i)`` for i = 1, 2, ... in whole cycles until ``seconds`` pass."""
        i = 1
        start = time.perf_counter()
        while True:
            for _ in self.workload.cycle:
                step(i)
                i += 1
            if time.perf_counter() - start >= seconds:
                return


def slim(record: dict, keep_reference: bool, workload) -> dict:
    """Drop the bulky result block; keep the numbers run.py needs."""
    out = {k: v for k, v in record.items() if k != "result"}
    if keep_reference and record["result"] is not None and not record["problems"]:
        out["reference"] = workload.reference_values(record["result"])
    return out


def run(args, cli, workload) -> dict:
    runner = Runner(cli, workload, args.seed, args.dir)
    ops = [runner.op(0)]
    trace = None
    if not args.trace:
        runner.loop(args.seconds, lambda i: ops.append(runner.op(i)))
    else:
        from spans import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
        traced_main = tracer.wrap("cli", "cli.main", cli.main)
        replay = []

        def pair(i: int) -> None:
            # Untraced and traced back to back, alternating which goes first,
            # so both see the same state of a shared host.
            for traced in (i % 2 == 0, i % 2 == 1):
                if traced:
                    tracer.enable()
                    tracer.current_op = i
                    runner.entry = traced_main
                    replay.append(runner.op(i))
                else:
                    tracer.disable()
                    runner.entry = cli.main
                    ops.append(runner.op(i))
            tracer.disable()

        runner.loop(args.seconds, pair)
        os.makedirs(os.path.dirname(args.spans), exist_ok=True)
        tracer.save(args.spans)
        untraced = sum(op["latency_s"] for op in ops[1:])
        traced = sum(op["latency_s"] for op in replay)
        trace = {
            "metrics": layer_metrics(tracer, replay),
            "overhead": traced / untraced - 1.0,
            "traced_s": traced,
            "untraced_s": untraced,
            "digest_mismatches": [
                a["index"] for a, b in zip(ops[1:], replay) if a["digest"] != b["digest"]
            ],
            "replay_failed": [op["index"] for op in replay if op["problems"]],
            "replay_problems": [p for op in replay for p in op["problems"]],
            "spans": len(tracer.start),
            "spans_file": args.spans,
        }
    return {
        "environment": environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [slim(op, op["index"] < REFERENCE_OPS, workload) for op in ops],
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, help="measuring time; required by run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    if args.mode == "run" and args.seconds is None:
        parser.error("run needs --seconds")

    import influence_lab.cli as cli
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(args.dir, exist_ok=True)
    workload.build_inputs(args.seed, args.dir)
    if args.mode == "setup":
        return 0
    print("ready", flush=True)
    record = run(args, cli, workload)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
