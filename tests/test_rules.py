"""The shared input rules: one table per rule over every entry point that applies it.

Each rule is a `_check_*` function in `states.py`; a row calls a public entry
point with an input that breaks the rule and pins the rule's error type and
message. The last test keeps the rules in one home.
"""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import qcompat
from qcompat import (
    DimensionMismatchError,
    MeasureConfig,
    NotUnitVectorError,
    PureStateMap,
    ValidationError,
    apply_symmetry,
    effects_equal_by_strength,
    example_measure,
    fidelity,
    haar_unitary,
    is_compatible,
    pure_state,
    pure_state_map,
    random_density,
    random_pure,
    random_symmetry,
    rank_via_compatibility,
    strength,
    strength_oracle,
    subspace_intersection_dim,
    support,
    symmetry_op,
    symmetry_overlap,
    symmetry_probe_map,
    transform_pure,
    transition_prob,
    validate_density,
    verify_theorem,
)
from qcompat.states import _check_norms, as_rng, child_rng

A3, B2 = random_density(3, 2, seed=1), random_density(2, 1, seed=2)
P3, P2 = random_pure(3, seed=3), random_pure(2, seed=4)
S3, S2 = random_symmetry(3, seed=5), random_symmetry(2, seed=6)


def _by_s3(rho):
    return apply_symmetry(S3, rho)


def _by_s3_then(out):
    """A transform that maps the six d = 3 probes by S3 and every later state, a mixed one, to ``out``."""
    calls = []

    def transform(rho):
        calls.append(rho)
        return _by_s3(rho) if len(calls) <= 6 else out

    return transform


SAME_DIM = {
    "is_compatible": (lambda: is_compatible(A3, B2), "state"),
    "fidelity": (lambda: fidelity(A3, B2), "state"),
    "example_measure": (lambda: example_measure(A3, B2), "state"),
    "strength": (lambda: strength(A3, P2), "effect and vector"),
    "strength_oracle": (lambda: strength_oracle(A3, P2), "effect and vector"),
    "effects_equal_by_strength": (lambda: effects_equal_by_strength(A3, B2), "effect"),
    "subspace_intersection_dim": (lambda: subspace_intersection_dim(support(A3), support(B2)), "ambient"),
    "transition_prob": (lambda: transition_prob(P3, P2), "pure state"),
    "pure_state_map": (lambda: pure_state_map([(P3, P2)]), "map entry"),
    "transform_pure": (lambda: transform_pure(S3, P2), "symmetry and state"),
    "apply_symmetry": (lambda: apply_symmetry(S3, B2), "symmetry and state"),
    "symmetry_overlap": (lambda: symmetry_overlap(S3, S2), "symmetry"),
    # numpy would refuse a mixed output of another dim with its own ValueError, or broadcast a d = 1 one silently
    "verify_theorem": (lambda: verify_theorem(_by_s3_then(B2), 3, n_mixed=1), "map entry"),
}


@pytest.mark.parametrize("entry", sorted(SAME_DIM))
def test_operands_of_equal_dimension(entry):
    call, what = SAME_DIM[entry]
    with pytest.raises(DimensionMismatchError, match=f"^{what} dims differ: 3 != 2$"):
        call()


DIM_RANGE = {
    "validate_density": lambda d: validate_density(np.eye(d) / max(d, 1)),
    "symmetry_op": lambda d: symmetry_op(np.eye(d)),
    "pure_state": lambda d: pure_state(np.ones(d), normalize=True),
    "random_density": lambda d: random_density(d, 1, seed=0),
    "random_pure": lambda d: random_pure(d, seed=0),
    "random_symmetry": lambda d: random_symmetry(d, seed=0),
    "haar_unitary": lambda d: haar_unitary(d, 0),
}


@pytest.mark.parametrize("dim", [0, 65])
@pytest.mark.parametrize("entry", sorted(DIM_RANGE))
def test_dimension_in_range(entry, dim):
    with pytest.raises(DimensionMismatchError, match=f"^dimension {dim} outside 1..64$"):
        DIM_RANGE[entry](dim)


def test_haar_unitary_rejects_a_negative_dimension():
    # beside the table's 0 (once a 0 x 0 array) and 65 (once drawn): -1 raised numpy's ValueError
    with pytest.raises(DimensionMismatchError, match="^dimension -1 outside 1..64$"):
        haar_unitary(-1, 0)


DIM_INTEGER = {
    "verify_theorem": lambda d: verify_theorem(_by_s3, d),
    "random_density": lambda d: random_density(d, 1, seed=0),
    "haar_unitary": lambda d: haar_unitary(d, 0),
    "random_pure": lambda d: random_pure(d, seed=0),
    "random_symmetry": lambda d: random_symmetry(d, seed=0),
}


@pytest.mark.parametrize("dim", [3.0, True, "3"])
@pytest.mark.parametrize("entry", sorted(DIM_INTEGER))
def test_dimension_is_an_integer(entry, dim):
    # 3.0 once escaped as numpy's TypeError from np.eye or the Gaussian draw, and True passed as 1
    least = 2 if entry == "verify_theorem" else 1
    message = f"^dimension must be an integer in {least}..64, got {re.escape(repr(dim))}$"
    with pytest.raises(DimensionMismatchError, match=message):
        DIM_INTEGER[entry](dim)


@pytest.mark.parametrize("entry", sorted(DIM_INTEGER))
def test_dimension_accepts_a_numpy_integer(entry):
    out = DIM_INTEGER[entry](np.int64(3))
    assert getattr(out, "verdict", True)


SYMMETRY_DIM = {
    "pure_state_map": lambda: pure_state_map([(pure_state([1.0]), pure_state([1.0]))]),
    "PureStateMap": lambda: PureStateMap(np.ones((1, 1)), np.ones((1, 1))),
    "verify_theorem": lambda: verify_theorem(lambda rho: rho, 1),
    "rank_via_compatibility": lambda: rank_via_compatibility(random_density(1, 1, seed=0)),
    "symmetry_probe_map": lambda: symmetry_probe_map(symmetry_op(np.eye(1))),
}


@pytest.mark.parametrize("entry", sorted(SYMMETRY_DIM))
def test_symmetry_layer_needs_dimension_two(entry):
    with pytest.raises(DimensionMismatchError, match="^dimension 1 outside 2..64$"):
        SYMMETRY_DIM[entry]()


SEEDS = {
    "as_rng": lambda s: as_rng(s),
    "random_pure": lambda s: random_pure(3, seed=s),
    "child_rng": lambda s: child_rng(s, 2, 0),
    "effects_equal_by_strength": lambda s: effects_equal_by_strength(A3, A3, seed=s),
    "verify_theorem": lambda s: verify_theorem(_by_s3, 3, n_mixed=1, seed=s),
    "rank_via_compatibility": lambda s: rank_via_compatibility(A3, seed=s),
    # accepted and ignored, yet held to the seed rule like every other seed
    "example_measure": lambda s: example_measure(A3, A3, MeasureConfig(seed=s)),
}


@pytest.mark.parametrize("seed", [-1, 2.5, "3", True])
@pytest.mark.parametrize("entry", sorted(SEEDS))
def test_seed_is_an_integer_at_least_zero(entry, seed):
    with pytest.raises(ValidationError, match=f"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"):
        SEEDS[entry](seed)


def test_numpy_integer_seeds_are_accepted():
    assert as_rng(np.int64(7)).random() == as_rng(7).random()
    assert child_rng(np.uint64(7), 2).random() == child_rng(7, 2).random()


COUNTS = {
    "example_measure": (lambda n: example_measure(A3, A3, MeasureConfig(restarts=n)), "restarts", 1),
    "verify_theorem": (lambda n: verify_theorem(_by_s3, 3, n_mixed=n), "n_mixed", 1),
}


@pytest.mark.parametrize("entry", sorted(COUNTS))
@pytest.mark.parametrize("offset", [-1, 1.5, np.float64(2.0)], ids=["below", "fraction", "numpy-float"])
def test_count_is_an_integer_with_a_floor(entry, offset):
    # a float count once passed silently (restarts) or escaped as numpy's TypeError
    call, name, least = COUNTS[entry]
    value = least + offset
    with pytest.raises(ValidationError, match=f"^{name} must be an integer >= {least}, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("entry", sorted(COUNTS))
def test_count_accepts_numpy_integers(entry):
    call, _, least = COUNTS[entry]
    call(np.int64(least + 1))


@pytest.mark.parametrize("rank", [2.5, True, "2"])
def test_random_density_rank_is_an_integer(rank):
    # a fractional rank once escaped as numpy's TypeError from the Dirichlet draw;
    # an integer outside 1..dim raises InvalidRankError (test_states)
    with pytest.raises(ValidationError, match=f"^rank must be an integer >= 1, got {re.escape(repr(rank))}$"):
        random_density(3, rank, seed=0)


def test_random_density_accepts_a_numpy_rank():
    assert random_density(3, np.int64(2), seed=0).numerical_rank == 2


NORMS = {
    "pure_state-zero": (lambda: pure_state(np.zeros(3), normalize=True), "vector has norm 0.0, not nonzero and finite"),
    "pure_state-nan": (lambda: pure_state([1.0, np.nan], normalize=True), "vector has norm nan, not nonzero and finite"),
    "pure_state-inf": (lambda: pure_state([np.inf, 0.0]), "vector has norm inf, not 1 within 1e-12"),
    "pure_state-not-unit": (lambda: pure_state([1.0, 1.0]), "vector has norm 1.4142135623730951, not 1 within 1e-12"),
    # the array forms that `_closed_form` (certificate rays) and `PureStateMap` (map rays) pass
    "certificate-rays": (
        lambda: _check_norms("a certificate ray", np.array([0.5, 0.0, np.nan])),
        "a certificate ray has norm 0.0, not nonzero and finite",
    ),
    "map-rays": (
        lambda: PureStateMap(np.eye(2), np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]])),
        "map output ray has norm 1.000000001, not 1 within 1e-12",
    ),
    "probe-rays": (
        lambda: _check_norms("a probe ray", np.array([1.0, 1.0 + 1e-9]), unit=True),
        "a probe ray has norm 1.000000001, not 1 within 1e-12",
    ),
}


@pytest.mark.parametrize("entry", sorted(NORMS))
def test_vector_norms(entry):
    call, message = NORMS[entry]
    with pytest.raises(NotUnitVectorError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("shape", [(3,), (3, 1, 1)])
def test_subspace_bases_must_be_two_dimensional(shape):
    # a 1-D basis once raised IndexError
    with pytest.raises(DimensionMismatchError, match="^expected bases as 2-D arrays"):
        subspace_intersection_dim(np.ones(shape), np.eye(3))
    with pytest.raises(DimensionMismatchError, match="^expected bases as 2-D arrays"):
        subspace_intersection_dim(np.eye(3), np.ones(shape))


@pytest.mark.parametrize(
    "module,name",
    [
        ("states", "_check_tolerance"),
        ("cli", "_tolerance"),
        ("cli", "_flag"),
        ("measure", "DEFAULT_FEAS_TOL"),
    ],
)
def test_no_tolerance_rule_is_left(module, name):
    # every tolerance is a fixed constant, so nothing validates or parses one
    assert not hasattr(importlib.import_module(f"qcompat.{module}"), name)


def test_rules_have_one_home():
    # only states.py may construct DimensionMismatchError: every other module
    # calls the rules there
    package = Path(qcompat.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "states.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "DimensionMismatchError":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
