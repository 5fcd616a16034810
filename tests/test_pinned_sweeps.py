"""Recorded oracle bits: the reports of the finite-support sweep at both
endpoints and of the smooth-family battery, as sha256 digests.

``pinned_sweeps.json`` holds, for each ``SWEEP_PLAN`` entry and endpoint,
the number of reports of ``oracle_sweep(seed=7, trials=30, keep="all")``
that come from the entry and a digest of them with every float in hex, and
one digest of ``smooth_sweep()``.  A change to the oracle that is meant to
keep its numbers must reproduce them bit for bit.  After a deliberate
change of numbers, re-record with
``PYTHONPATH=src python tests/test_pinned_sweeps.py``.
"""
import hashlib
import json
import pathlib
import sys

import pytest

from influence_lab.gateaux import SWEEP_PLAN, oracle_sweep, smooth_sweep

PINNED = pathlib.Path(__file__).with_name("pinned_sweeps.json")
SEED, TRIALS = 7, 30
ENDPOINTS = {"t=0": 0.0, "t=1": 1.0}
ENTRIES = tuple(entry for entry, _ in SWEEP_PLAN)


def _line(report) -> str:
    """One report as text, its derivative and analytic value in float hex."""
    return json.dumps([
        report.spec.describe(), report.at_t.hex(), report.numerical_derivative.hex(),
        report.analytic_value.hex(), report.halvings, report.contaminant_label,
        report.skipped, report.skip_reason,
    ], sort_keys=True)


def _digest(reports) -> dict:
    text = "\n".join(map(_line, reports))
    return {"reports": len(reports), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _entry(spec) -> str:
    """The ``SWEEP_PLAN`` entry an estimand of the sweep was drawn for."""
    tagged = f"{spec.name}:{spec.params().get('x')}"
    return tagged if tagged in ENTRIES else spec.name


def _oracle(at_t: float) -> dict:
    reports = oracle_sweep(trials=TRIALS, seed=SEED, at_t=at_t, keep="all").reports
    return {entry: _digest([r for r in reports if _entry(r.spec) == entry]) for entry in ENTRIES}


def _record() -> dict:
    return {
        "oracle_sweep": {endpoint: _oracle(at_t) for endpoint, at_t in ENDPOINTS.items()},
        "smooth_sweep": _digest(smooth_sweep().reports),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.fixture(scope="module")
def recorded() -> dict:
    return _record()


def test_every_entry_and_endpoint_is_pinned(pinned):
    assert sorted(pinned["oracle_sweep"]) == sorted(ENDPOINTS)
    for endpoint in ENDPOINTS:
        assert list(pinned["oracle_sweep"][endpoint]) == list(ENTRIES)


@pytest.mark.parametrize("endpoint", sorted(ENDPOINTS))
@pytest.mark.parametrize("entry", ENTRIES)
def test_oracle_sweep_matches_the_recorded_bits(entry, endpoint, pinned, recorded):
    got = recorded["oracle_sweep"][endpoint][entry]
    assert got == pinned["oracle_sweep"][endpoint][entry]


def test_smooth_sweep_matches_the_recorded_bits(pinned, recorded):
    assert recorded["smooth_sweep"] == pinned["smooth_sweep"]


if __name__ == "__main__":
    PINNED.write_text(json.dumps(_record(), indent=1) + "\n")
    sys.stdout.write(f"recorded the sweeps of seed {SEED}, {TRIALS} trials, in {PINNED}\n")
