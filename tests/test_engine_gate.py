"""The engine perf gate (``benchmarks/check_engine_regression.py``)."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "check_engine_regression", ROOT / "benchmarks" / "check_engine_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def baseline():
    return json.loads((ROOT / "BENCH_engine.json").read_text(encoding="utf-8"))


def test_baseline_passes_against_itself(gate, baseline):
    assert gate.check(baseline, copy.deepcopy(baseline), 0.2) == []


def test_mobility_probe_count_must_match_exactly(gate, baseline):
    fresh = copy.deepcopy(baseline)
    fresh["cases"]["mobility_catalog_sims"] += 1
    (failure,) = gate.check(baseline, fresh, 0.2)
    assert failure.startswith("mobility_catalog_sims:")


def test_case_event_counts_must_match_exactly(gate, baseline):
    """Even a case too short to gate on speed is gated on its events."""
    fresh = copy.deepcopy(baseline)
    name = "paper_eval_100_full"
    assert baseline["cases"][name]["wall_s"] < gate.MIN_GATE_SECONDS
    fresh["cases"][name]["events"] -= 1
    (failure,) = gate.check(baseline, fresh, 0.2)
    assert failure.startswith(f"{name}:") and "events" in failure
