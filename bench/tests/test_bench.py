"""Tests of the benchmark's own code: input generation, bounds, metric names.

Run with: python -m pytest bench/tests
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import bounds  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = gen.canonical_bytes(gen.generate(workload, 7))
    assert first == gen.canonical_bytes(gen.generate(workload, 7))
    assert first != gen.canonical_bytes(gen.generate(workload, 8))


def test_classifier_flags_values_outside_the_bounds():
    lb, ub, tol = 0.5, 0.6, 1e-6
    assert bounds.classify(0.55, 1e-9, lb, ub, tol) == ()
    assert bounds.classify(ub + 1e-6, 1e-9, lb, ub, tol) == ("above_ub",)
    assert bounds.classify(lb - 1e-2, 1e-9, lb, ub, tol) == ("below_lb",)
    assert bounds.classify(0.55, 1e-3, lb, ub, tol) == ("residual",)
    # the slacks: within 1e-8 above UB and 2e-3 below LB still pass
    assert bounds.classify(ub + 5e-9, 0.0, lb, ub, tol) == ()
    assert bounds.classify(lb - 1e-3, 0.0, lb, ub, tol) == ()


def test_bounds_meet_for_a_pure_side_and_are_ordered_otherwise():
    for pair in gen.measure_pure_pairs(0):
        lb, ub = bounds.lower_bound(pair.a, pair.b, pair.seed), bounds.upper_bound(pair.a, pair.b)
        assert lb == pytest.approx(ub, abs=1e-12)
        assert lb > 0.0
    for pair in gen.measure_mixed_pairs(0):
        lb, ub = bounds.lower_bound(pair.a, pair.b, pair.seed), bounds.upper_bound(pair.a, pair.b)
        assert lb <= ub + 1e-12
        assert (lb > 0.0) == (pair.inter_dim > 0)


def test_generated_pairs_have_the_intended_intersection():
    for pair in gen.measure_mixed_pairs(3):
        _, va = bounds.support(pair.a)
        _, vb = bounds.support(pair.b)
        assert len(bounds.intersection_rays(va, vb)) == pair.inter_dim, pair.label
        assert va.shape[1] >= 2 and vb.shape[1] >= 2, pair.label  # both sides mixed


def test_declared_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared_e2e == list(run.END_TO_END)
    assert declared_layer == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    for name, unit in declared_e2e + declared_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), unit


@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_metrics_are_the_declared_ones(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "spectral-large-d",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = list(run.END_TO_END) if trace == "0" else run.per_layer_metrics()
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == declared
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert np.isfinite(entry["value"]), name
