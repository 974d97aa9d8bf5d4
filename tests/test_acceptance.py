"""End-to-end acceptance gate.

Runs every shipped correctness criterion at full problem sizes through the
same entry point the ``selftest`` CLI command uses, then prints one PASS or
FAIL line per criterion.  Run with ``-s`` to see the lines as they appear:

    pytest tests/test_acceptance.py -v -s
"""

import json
import subprocess
import sys

import pytest

from qcompat import selftest
from qcompat.measure import DEFAULT_FEAS_TOL, _closed_form
from qcompat.selftest import run_criteria

IDENTS = [
    "strength-oracle",
    "two-state-closed-form",
    "measure-exact",
    "symmetry-roundtrip",
    "adversarial-rejection",
    "rank-detection",
    "symmetry-invariance",
    "determinism",
]


@pytest.fixture(scope="session")
def outcomes():
    results = {o.ident: o for o in run_criteria(seed=0, quick=False)}
    assert sorted(results) == sorted(IDENTS)
    return results


@pytest.mark.parametrize("ident", IDENTS)
def test_criterion(outcomes, ident):
    outcome = outcomes[ident]
    status = "PASS" if outcome.passed else "FAIL"
    print(f"{status} {outcome.ident}: {outcome.detail}")
    assert outcome.passed, f"{outcome.ident}: {outcome.detail}"


def test_selftest_cli_output_is_byte_deterministic():
    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "qcompat", "selftest", "--quick"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first, second = run(), run()
    a, b = json.loads(first), json.loads(second)
    assert json.dumps(a["result"], sort_keys=True) == json.dumps(b["result"], sort_keys=True)
    assert a["result"]["all_passed"] is True


def _unmirrored_measure(a, b, cfg=None):
    # the formula in argument order: right to rounding, but not bit-symmetric
    return _closed_form(a, b, DEFAULT_FEAS_TOL)


@pytest.mark.parametrize(
    "name, stand_in, failed",
    [
        ("example_measure", _unmirrored_measure, "pair-"),
        ("is_compatible", lambda a, b: False, "pair-"),
        ("is_compatible", lambda a, b: True, "disjoint-"),
    ],
    ids=["measure-stops-mirroring", "never-compatible", "always-compatible"],
)
def test_measure_exact_catches(monkeypatch, name, stand_in, failed):
    monkeypatch.setattr(selftest, name, stand_in)
    outcome = selftest._criterion_measure_exact(0, None, True)
    assert not outcome.passed
    assert f"'{failed}" in outcome.detail
