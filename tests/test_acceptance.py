"""End-to-end acceptance gate.

Runs every shipped correctness criterion at full problem sizes through the
same entry point the ``selftest`` CLI command uses, then prints one PASS or
FAIL line per criterion.  Run with ``-s`` to see the lines as they appear:

    pytest tests/test_acceptance.py -v -s
"""

import json
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from qcompat import selftest, states
from qcompat.measure import _closed_form, _side_key
from qcompat.selftest import run_criteria

IDENTS = [
    "strength-oracle",
    "two-state-closed-form",
    "measure-exact",
    "symmetry-roundtrip",
    "adversarial-rejection",
    "rank-cut",
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
    return _closed_form(a, b)


def _ill_first_measure(a, b, cfg=None):
    # mirrors bit for bit, but starts the formula from the worse-conditioned side
    if _side_key(a) < _side_key(b):
        res = _closed_form(b, a)
        return replace(res, decomposition_a=res.decomposition_b, decomposition_b=res.decomposition_a)
    return _closed_form(a, b)


@pytest.mark.parametrize(
    "name, stand_in, seed, quick, sign",
    [
        ("example_measure", _unmirrored_measure, 0, True, r"'pair-"),
        ("is_compatible", lambda a, b: False, 0, True, r"'pair-"),
        ("is_compatible", lambda a, b: True, 0, True, r"'disjoint-"),
        # check (vi) alone: every pair mirrors, and the residual exceeds 1e-12
        ("example_measure", _ill_first_measure, 111, False, r"max_residual=\d\.\d+e-1[12] .*failures=\[\]"),
    ],
    ids=["measure-stops-mirroring", "never-compatible", "always-compatible", "measure-starts-ill-conditioned"],
)
def test_measure_exact_catches(monkeypatch, name, stand_in, seed, quick, sign):
    monkeypatch.setattr(selftest, name, stand_in)
    outcome = selftest._criterion_measure_exact(seed, None, quick)
    assert not outcome.passed
    assert re.search(sign, outcome.detail)


@pytest.mark.parametrize("eps_rank", [1e-9, 1e-11], ids=["cut-too-high", "cut-too-low"])
@pytest.mark.parametrize("dims_cap", [None, (2, 2)], ids=["all-dims", "d2"])
def test_rank_cut_catches(monkeypatch, eps_rank, dims_cap):
    # the selftest binds its own copy of the cut, so its states stay where they were drawn
    monkeypatch.setattr(states, "DEFAULT_EPS_RANK", eps_rank)
    outcome = selftest._criterion_rank_cut(0, dims_cap, True)
    assert not outcome.passed
    assert re.search(r"failures=\[\d", outcome.detail)
