"""Command line surface.

Every command loads its operands from the text formats in `io`, runs one
operation, and prints a single JSON report to stdout: command name, sha256
digests of the inputs, the effective config (every flag's value), the
result payload, and elapsed milliseconds. `measure` adds a `bounds` block
(the Uhlmann fidelity and its gap to the value) and `selftest` a
`criteria_elapsed_ms` map (criterion id to milliseconds) beside `result`,
so `result` keeps its keys. Results are deterministic given flags: every
seed comes from `--seed` (an integer >= 0, default 0) and nothing is read
from the environment. Elapsed time is the only varying field and sits
outside `result`. No flag takes a tolerance: the rank cut (1e-10 of the
top eigenvalue), the membership cut (1e-13 on sin^2), the map tolerance of
`reconstruct` and `verify` (`symmetry.MAP_TOL`, 1e-8) and the measure's
certificate limit (`measure.FEAS_TOL`, 1e-6) are fixed.

Exit codes: 0 ok, 1 selftest failure, 2 file/parse error or invalid flag
value (including a negative seed), 3 validation error, 4 measure
certificate residual above 1e-6 (`measure.FEAS_TOL`), 5 not a symmetry.
An error report carries the exception's type and message, and for 5 the
failing probe.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import io as qio
from .errors import (
    FileFormatError,
    InfeasibleError,
    NotASymmetryError,
    ValidationError,
)
from .measure import MeasureConfig, example_measure, fidelity
from .states import (
    _check_count,
    pure_state,
    subspace_intersection_dim,
    support,
    validate_density,
    validate_effect,
)
from .strength import strength, strength_oracle

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_NOT_A_SYMMETRY = 5

# exception -> exit code; the classes are disjoint, so order does not matter
EXIT_CODES = {
    FileFormatError: EXIT_IO,
    OSError: EXIT_IO,
    ValidationError: EXIT_VALIDATION,
    InfeasibleError: EXIT_INFEASIBLE,
    NotASymmetryError: EXIT_NOT_A_SYMMETRY,
}


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must look like 3 or 2..6, got {text!r}")
    if not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"dims range {text!r} is empty or negative")
    return lo, hi


def _seed(text: str) -> int:
    """The ``--seed`` type: the library's seed rule, so every rejection is exit 2 in its words.

    Text that is not an integer goes to the rule as it is.
    """
    try:
        value = int(text)
    except ValueError:
        value = text
    try:
        _check_count("seed", value)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _digest(path) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()


def _inputs(**paths) -> dict:
    return {label: {"path": str(p), "sha256": _digest(p)} for label, p in paths.items()}


def _certificate(res) -> dict | None:
    if res.decomposition_a is None:
        return None
    return {
        "weights_a": [float(w) for w in res.decomposition_a.weights],
        "weights_b": [float(w) for w in res.decomposition_b.weights],
        "vectors": [qio.vector_payload(v) for v in res.decomposition_a.rays],
    }


def _cmd_strength(args):
    inputs = _inputs(state=args.state, vector=args.vector)
    eff = validate_effect(qio.load_matrix(args.state))
    phi = pure_state(qio.load_vector(args.vector))
    config = {"oracle": bool(args.oracle)}
    res = strength(eff, phi)
    result = {
        "value": res.value,
        "in_range": res.in_range,
        "near_boundary": res.near_boundary,
    }
    if args.oracle:
        oracle = strength_oracle(eff, phi)
        result["oracle"] = oracle
        result["difference"] = abs(res.value - oracle)
    return {"inputs": inputs, "config": config, "result": result}, EXIT_OK


def _cmd_compat(args):
    inputs = _inputs(a=args.a, b=args.b)
    a = validate_density(qio.load_matrix(args.a))
    b = validate_density(qio.load_matrix(args.b))
    k = subspace_intersection_dim(support(a), support(b))
    result = {"compatible": k >= 1, "intersection_dim": k}
    return {"inputs": inputs, "config": {}, "result": result}, EXIT_OK


def _cmd_measure(args):
    inputs = _inputs(a=args.a, b=args.b)
    a = validate_density(qio.load_matrix(args.a))
    b = validate_density(qio.load_matrix(args.b))
    cfg = MeasureConfig(restarts=args.restarts, seed=args.seed)
    config = {"restarts": cfg.restarts, "seed": cfg.seed, "symmetric": bool(args.symmetric)}
    res = example_measure(a, b, cfg)
    result = {
        "value": float(res.value),
        "residual": float(res.residual),
        "restarts_used": int(res.restarts_used),
        "components": int(res.components),
        "certificate": _certificate(res),
    }
    f = fidelity(a, b)
    bounds = {"fidelity": f, "gap": f - float(res.value)}
    return {"inputs": inputs, "config": config, "result": result, "bounds": bounds}, EXIT_OK


def _cmd_reconstruct(args):
    from .symmetry import wigner_reconstruct

    inputs = _inputs(map=args.map)
    sym = wigner_reconstruct(qio.load_map(args.map))
    result = {"antiunitary": bool(sym.antiunitary), "u": qio.matrix_payload(sym.u)}
    return {"inputs": inputs, "config": {}, "result": result}, EXIT_OK


def _cmd_verify(args):
    from .symmetry import apply_symmetry, verify_theorem, wigner_reconstruct

    if args.symmetry is not None:
        inputs = _inputs(symmetry=args.symmetry)
        sym = qio.load_symmetry(args.symmetry)
    else:
        inputs = _inputs(map=args.map)
        sym = wigner_reconstruct(qio.load_map(args.map))
    config = {"n_mixed": args.n_mixed, "seed": args.seed}
    res = verify_theorem(lambda st: apply_symmetry(sym, st), sym.dim, n_mixed=args.n_mixed, seed=args.seed)
    result = {
        "verdict": bool(res.verdict),
        "max_error": float(res.max_error),
        "n_states": int(res.n_states),
        "failures": list(res.failures),
        "symmetry": {
            "antiunitary": bool(res.symmetry.antiunitary),
            "u": qio.matrix_payload(res.symmetry.u),
        },
    }
    return {"inputs": inputs, "config": config, "result": result}, EXIT_OK


def _cmd_selftest(args):
    from .selftest import payload as selftest_payload
    from .selftest import timed_criteria

    config = {
        "seed": args.seed,
        "dims": None if args.dims is None else f"{args.dims[0]}..{args.dims[1]}",
        "quick": bool(args.quick),
    }
    outcomes = []
    elapsed = {}
    for o, ms in timed_criteria(seed=args.seed, dims_cap=args.dims, quick=args.quick):
        marker = "PASS" if o.passed else "FAIL"
        print(f"[{marker}] {o.ident}: {o.detail} ({ms:.1f} ms)", file=sys.stderr)
        outcomes.append(o)
        elapsed[o.ident] = ms
    result = selftest_payload(outcomes)
    code = EXIT_OK if result["all_passed"] else EXIT_SELFTEST
    return {"inputs": {}, "config": config, "result": result, "criteria_elapsed_ms": elapsed}, code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcompat",
        description="State compatibility toolkit: strength, joint decompositions, symmetry reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("strength", help="largest weight of a ray inside an effect")
    p.add_argument("--state", required=True, help="effect or density matrix file")
    p.add_argument("--vector", required=True, help="unit vector file")
    p.add_argument("--oracle", action="store_true", help="also run the bisection cross-check")
    p.set_defaults(fn=_cmd_strength)

    p = sub.add_parser("compat", help="support intersection test for two states")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=_cmd_compat)

    p = sub.add_parser("measure", help="joint decomposition overlap measure")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument(
        "--restarts", type=int, default=MeasureConfig().restarts, help="accepted, no effect (must be >= 1)"
    )
    p.add_argument("--seed", type=_seed, default=0, help="accepted, no effect")
    p.add_argument("--symmetric", action="store_true", help="accepted, no effect")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("reconstruct", help="rebuild the operator behind a pure-state map")
    p.add_argument("--map", required=True)
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("verify", help="check a stored symmetry or map end to end")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--symmetry")
    group.add_argument("--map")
    p.add_argument("--n-mixed", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("selftest", help="run the built-in acceptance criteria")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--dims",
        type=_parse_dims,
        default=None,
        help="restrict dimensions, e.g. 2..6; each criterion needs one of its dims inside the range, "
        "so the range must meet 2..5 (else exit 3)",
    )
    p.add_argument("--quick", action="store_true", help="reduced batch sizes")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        report, code = args.fn(args)
    except tuple(EXIT_CODES) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NotASymmetryError):
            error["probe"] = exc.probe
        _emit({"command": args.command, "error": error})
        return next(exit_code for cls, exit_code in EXIT_CODES.items() if isinstance(exc, cls))
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    _emit({"command": args.command, **report, "elapsed_ms": elapsed_ms})
    return code


if __name__ == "__main__":
    raise SystemExit(main())
