"""The four workloads. Each is a fixed batch of calls built from the seed.

A call is one library operation, or one CLI process, plus a check that runs
after the timed pass. A check names every reason its call failed. Failures
of the measure's bounds or residual are quality failures: they are the known
optimizer defects, and they are counted. Every other failure is hard and
makes the run incorrect: a wrong verdict or exit code, strength disagreeing
with its oracle, a CLI result that differs from the library's, or an
exception the call should not raise.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
from qcompat import (
    MeasureConfig,
    NotASymmetryError,
    apply_symmetry,
    example_measure,
    is_compatible,
    measure_symmetric,
    pure_state,
    pure_state_map,
    rank_via_compatibility,
    strength,
    strength_oracle,
    subspace_intersection_dim,
    support,
    symmetry_op,
    validate_density,
    validate_effect,
    verify_theorem,
    wigner_reconstruct,
)
from qcompat.selftest import payload as selftest_payload
from qcompat.selftest import run_criteria

from bounds import classify, lower_bound, upper_bound
from gen import CliInputs, Pair, SpectralCase, generate, probe_map

ORACLE_TOL = 1e-7
OVERLAP_TOL = 1e-9
FIRST_RESTART_TOL = 1e-9
CLI_TIMEOUT_S = 150.0
CLI_MEASURE_RESTARTS = 4


@dataclass(frozen=True)
class Check:
    failures: tuple[str, ...] = ()
    hard: bool = False  # a failure outside the measure bound classifier
    key: object = None  # outcome summary; repeated passes must reproduce it
    value: float | None = None  # measure value
    gap: float | None = None  # UB - value
    restarts_used: int | None = None
    elapsed_ms: float | None = None  # the CLI command's own timing


@dataclass(frozen=True)
class Call:
    label: str
    run: Callable  # (tracer or None) -> output; the only timed part
    check: Callable  # output or raised exception -> Check
    measure: tuple | None = None  # (runner, a, b, cfg) for restart statistics


def _inproc(fn: Callable) -> Callable:
    def run(tracer):
        return fn() if tracer is None else tracer.run(fn)

    return run


def _raised(exc: Exception, hard: bool) -> Check:
    return Check((f"raised:{type(exc).__name__}",), hard)


# -- the decomposition measure ------------------------------------------------


def residual(res, a, b) -> float:
    """Largest Frobenius error of the two certified decompositions."""
    if res.decomposition_a is None:
        return 0.0 if res.value == 0.0 else float("inf")
    worst = 0.0
    for dec, target in ((res.decomposition_a, a), (res.decomposition_b, b)):
        vecs = np.array([p.vector for p in dec.pures])
        recon = (vecs.T * dec.weights) @ vecs.conj()
        worst = max(worst, float(np.linalg.norm(recon - target.matrix)))
    return worst


def _bounds(spec) -> Callable:
    """LB and UB of a measure call, computed on first use, after its pass."""
    _, a, b, cfg = spec
    return functools.cache(lambda: (lower_bound(a.matrix, b.matrix, cfg.seed), upper_bound(a.matrix, b.matrix)))


def measure_quality(res, a, b, cfg, bounds: Callable) -> Check:
    lb, ub = bounds()
    res_err = residual(res, a, b)
    return Check(
        classify(res.value, res_err, lb, ub, cfg.feas_tol),
        key=(res.value, res_err),
        value=res.value,
        gap=ub - res.value,
        restarts_used=res.restarts_used,
    )


def _measure_spec(a_m, b_m, symmetric: bool, restarts: int, seed: int):
    a, b = validate_density(a_m), validate_density(b_m)
    runner = measure_symmetric if symmetric else example_measure
    return runner, a, b, MeasureConfig(restarts=restarts, seed=seed)


def _measure_call(pair: Pair) -> Call:
    spec = _measure_spec(pair.a, pair.b, pair.symmetric, pair.restarts, pair.seed)
    runner, a, b, cfg = spec
    bounds = _bounds(spec)

    def check(out) -> Check:
        if isinstance(out, Exception):
            return _raised(out, hard=False)
        return measure_quality(out, a, b, cfg, bounds)

    return Call(pair.label, _inproc(lambda: runner(a, b, cfg)), check, spec)


def first_restart_matches(call: Call, full_value: float) -> bool:
    """Whether restarts=1 already reaches the full-restart value."""
    runner, a, b, cfg = call.measure
    return abs(runner(a, b, replace(cfg, restarts=1)).value - full_value) <= FIRST_RESTART_TOL


# -- optimizer-free calls at large dimension ----------------------------------


def _expect(what: str, pred: Callable) -> Callable:
    """Check for a call with one right answer; pred(out) -> (ok, key)."""

    def check(out) -> Check:
        if isinstance(out, Exception):
            return _raised(out, hard=True)
        ok, key = pred(out)
        return Check(() if ok else (what,), not ok, key)

    return check


def _rejected(out) -> Check:
    """A map that is not a symmetry must raise NotASymmetryError or fail verification."""
    if isinstance(out, NotASymmetryError):
        return Check(key=("rejected", out.probe))
    if isinstance(out, Exception):
        return _raised(out, hard=True)
    return Check(("accepted_non_symmetry",) if out.verdict else (), out.verdict, (out.verdict, out.failures))


def _pmap(pairs):
    return pure_state_map([(pure_state(x), pure_state(y)) for x, y in pairs])


def _is_pure(st) -> bool:
    return st.eigenvalues[0] >= 1.0 - 1e-9


def _tamper_mixed(pure_sym, mixed_sym):
    return lambda st: apply_symmetry(pure_sym if _is_pure(st) else mixed_sym, st)


def _depolarize_probes(sym, d: int):
    def transform(st):
        out = apply_symmetry(sym, st)
        return validate_density(0.999 * out.matrix + 0.001 * np.eye(d) / d) if _is_pure(st) else out

    return transform


def _square_warp(st):
    m = st.matrix @ st.matrix
    return validate_density(m / np.trace(m).real)


def _strength_call(label: str, state, ray, inside: bool) -> Call:
    phi = pure_state(ray)

    def pred(out):
        s, oracle = out
        return abs(s.value - oracle) <= ORACLE_TOL and s.in_range == inside, (s.value, oracle)

    return Call(label, _inproc(lambda: (strength(state, phi), strength_oracle(state, phi))), _expect("strength_mismatch", pred))


def _wigner_call(label: str, u: np.ndarray, antiunitary: bool) -> Call:
    pmap = _pmap(probe_map(u, antiunitary))
    d = u.shape[0]

    def pred(out):
        overlap = abs(np.trace(out.u.conj().T @ u)) / d
        return out.antiunitary == antiunitary and overlap >= 1.0 - OVERLAP_TOL, out.u.tobytes()

    return Call(label, _inproc(lambda: wigner_reconstruct(pmap)), _expect("reconstruction", pred))


def _verify_call(label: str, transform, d: int, seed: int, symmetry: bool) -> Call:
    run = _inproc(lambda: verify_theorem(transform, d, seed=seed))
    if not symmetry:
        return Call(label, run, _rejected)
    return Call(label, run, _expect("verdict", lambda out: (out.verdict, (out.verdict, out.max_error))))


def _spectral_calls(case: SpectralCase) -> list[Call]:
    d, h = case.d, case.d // 2
    half, full = validate_density(case.half), validate_density(case.full)
    compat_a, compat_b = (validate_density(m) for m in case.compat_pair)
    disjoint_a, disjoint_b = (validate_density(m) for m in case.disjoint_pair)
    sym_u = symmetry_op(case.u)
    sym_w = symmetry_op(case.w)
    anti_w = symmetry_op(case.w, antiunitary=True)
    calls = [
        Call(f"validate/d{d}/half", _inproc(lambda: validate_density(case.half)),
             _expect("rank", lambda out: (out.numerical_rank == h, out.numerical_rank))),
        Call(f"validate/d{d}/full", _inproc(lambda: validate_density(case.full)),
             _expect("rank", lambda out: (out.numerical_rank == d, out.numerical_rank))),
        _strength_call(f"strength/d{d}/half-in-0", half, case.rays_half[0], True),
        _strength_call(f"strength/d{d}/half-in-1", half, case.rays_half[1], True),
        _strength_call(f"strength/d{d}/half-out", half, case.rays_half[2], False),
        _strength_call(f"strength/d{d}/full", full, case.ray_full, True),
        Call(f"compat/d{d}/shared", _inproc(lambda: is_compatible(compat_a, compat_b)),
             _expect("verdict", lambda out: (out is True, out))),
        Call(f"compat/d{d}/disjoint", _inproc(lambda: is_compatible(disjoint_a, disjoint_b)),
             _expect("verdict", lambda out: (out is False, out))),
        Call(f"rank/d{d}", _inproc(lambda: rank_via_compatibility(half, seed=case.seed)),
             _expect("rank", lambda out: (out == h, out))),
        _wigner_call(f"reconstruct/d{d}/unitary", case.u, False),
        _wigner_call(f"reconstruct/d{d}/antiunitary", case.w, True),
        _verify_call(f"verify/d{d}/unitary", lambda st: apply_symmetry(sym_u, st), d, case.seed, True),
        _verify_call(f"verify/d{d}/antiunitary", lambda st: apply_symmetry(anti_w, st), d, case.seed, True),
        _verify_call(f"verify/d{d}/tamper-mixed", _tamper_mixed(sym_u, sym_w), d, case.seed, False),
        _verify_call(f"verify/d{d}/depolarize-probes", _depolarize_probes(sym_u, d), d, case.seed, False),
        _verify_call(f"verify/d{d}/square-warp", _square_warp, d, case.seed, False),
    ]
    return calls


# -- the command line, one process per call -----------------------------------


def _entries(a: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(a, dtype=np.complex128).ravel()]


def _payload(a: np.ndarray) -> dict:
    return {"dim": int(a.shape[0]), "entries": _entries(a)}


def _certificate(res) -> dict | None:
    if res.decomposition_a is None:
        return None
    return {
        "weights_a": [float(w) for w in res.decomposition_a.weights],
        "weights_b": [float(w) for w in res.decomposition_b.weights],
        "vectors": [_payload(p.vector) for p in res.decomposition_a.pures],
    }


def _verify_payload(res) -> dict:
    return {
        "verdict": bool(res.verdict),
        "max_error": float(res.max_error),
        "n_states": int(res.n_states),
        "failures": list(res.failures),
        "symmetry": {"antiunitary": bool(res.symmetry.antiunitary), "u": _payload(res.symmetry.u)},
    }


def _measure_expectation(spec) -> Callable:
    runner, a, b, cfg = spec
    bounds = _bounds(spec)

    def expected():
        res = runner(a, b, cfg)
        out = {
            "value": float(res.value),
            "residual": float(res.residual),
            "restarts_used": int(res.restarts_used),
            "components": int(res.components),
            "certificate": _certificate(res),
        }
        return out, 0, measure_quality(res, a, b, cfg, bounds)

    return functools.cache(expected)


def _write_inputs(inp: CliInputs, workdir: Path) -> None:
    def write(name: str, obj) -> None:
        (workdir / f"{name}.json").write_text(json.dumps(obj) + "\n")

    for name, m in inp.states.items():
        write(name, _payload(m))
    for name, v in inp.vectors.items():
        write(name, _payload(v))
    for name, (u, anti) in inp.symmetries.items():
        write(name, {**_payload(u), "antiunitary": anti})
    for name, pairs in inp.maps.items():
        write(name, {"dim": int(pairs[0][0].shape[0]), "pairs": [[_payload(x), _payload(y)] for x, y in pairs]})
    write("short", {"dim": 3, "entries": [[0.0, 0.0]] * 5})
    (workdir / "malformed.json").write_text("{not json\n")


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("QCOMPAT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def _cli_check(expected: Callable | None, error_code: int | None = None) -> Callable:
    """expected() -> (result, exit code, quality Check), cached; None for bad input."""

    def check(proc) -> Check:
        if isinstance(proc, Exception):
            return _raised(proc, hard=True)
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return Check(("bad_output",), True)
        if expected is None:
            ok = proc.returncode == error_code and "error" in report
            return Check(() if ok else ("exit_code",), not ok, proc.returncode)
        result, code, quality = expected()
        hard = []
        if proc.returncode != code:
            hard.append("exit_code")
        if report.get("result") != json.loads(json.dumps(result)):
            hard.append("result_mismatch")
        return replace(
            quality,
            failures=tuple(hard) + quality.failures,
            hard=bool(hard),
            key=(proc.returncode, json.dumps(report.get("result"), sort_keys=True)),
            elapsed_ms=report.get("elapsed_ms"),
        )

    return check


def _cli(label: str, args: list[str], env: dict, check: Callable, measure=None) -> Call:
    def run(tracer):
        cmd = [sys.executable, "-m", "qcompat"] if tracer is None else tracer.cli_command()
        return subprocess.run(cmd + args, capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S, check=False)

    return Call(label, run, check, measure)


def _selftest_call(seed: int, env: dict) -> Call:
    def expected():
        out = selftest_payload(run_criteria(seed=seed, dims_cap=(2, 2), quick=True))
        ok = out["all_passed"]
        return out, 0 if ok else 1, Check(() if ok else ("selftest_failed",))

    args = ["selftest", "--quick", "--dims", "2..2", "--seed", str(seed)]
    return _cli("selftest/quick/d2", args, env, _cli_check(functools.cache(expected)))


def _cli_calls(inp: CliInputs, workdir: Path, env: dict, tag: str) -> list[Call]:
    workdir.mkdir()
    _write_inputs(inp, workdir)
    seed = str(inp.seed)
    states, vectors = inp.states, inp.vectors

    def f(name: str) -> str:
        return str(workdir / f"{name}.json")

    def cli(label: str, args: list[str], check: Callable, measure=None) -> Call:
        return _cli(f"{tag}/{label}", args, env, check, measure)

    def exp_strength(state: str, vector: str, oracle: bool):
        eff = validate_effect(states[state])
        phi = pure_state(vectors[vector])
        res = strength(eff, phi)
        out = {"value": res.value, "in_range": res.in_range, "near_boundary": res.near_boundary}
        if oracle:
            out["oracle"] = strength_oracle(eff, phi)
            out["difference"] = abs(res.value - out["oracle"])
        return out, 0, Check()

    def exp_compat(a_name: str, b_name: str):
        a, b = validate_density(states[a_name]), validate_density(states[b_name])
        out = {
            "compatible": is_compatible(a, b),
            "intersection_dim": subspace_intersection_dim(support(a), support(b)),
        }
        return out, 0, Check()

    def exp_reconstruct(name: str):
        sym = wigner_reconstruct(_pmap(inp.maps[name]))
        return {"antiunitary": bool(sym.antiunitary), "u": _payload(sym.u)}, 0, Check()

    def exp_verify(sym):
        res = verify_theorem(lambda st: apply_symmetry(sym, st), sym.u.shape[0], seed=inp.seed)
        return _verify_payload(res), 0, Check()

    def cached(fn, *args):
        return functools.cache(lambda: fn(*args))

    m3 = _measure_spec(states["m3a"], states["m3b"], False, CLI_MEASURE_RESTARTS, inp.seed)
    m2 = _measure_spec(states["m2a"], states["m2b"], True, CLI_MEASURE_RESTARTS, inp.seed)
    restarts = ["--restarts", str(CLI_MEASURE_RESTARTS), "--seed", seed]
    sym64 = symmetry_op(*inp.symmetries["sym64"])
    return [
        cli("strength/d64/oracle", ["strength", "--state", f("st64"), "--vector", f("v64"), "--oracle"],
            _cli_check(cached(exp_strength, "st64", "v64", True))),
        cli("strength/d4/effect", ["strength", "--state", f("eff4"), "--vector", f("v4")],
            _cli_check(cached(exp_strength, "eff4", "v4", False))),
        cli("compat/d64/shared", ["compat", "--a", f("c64a"), "--b", f("c64b")],
            _cli_check(cached(exp_compat, "c64a", "c64b"))),
        cli("compat/d8/disjoint", ["compat", "--a", f("c8a"), "--b", f("c8b")],
            _cli_check(cached(exp_compat, "c8a", "c8b"))),
        cli("measure/d3/inter1", ["measure", "--a", f("m3a"), "--b", f("m3b"), *restarts],
            _cli_check(_measure_expectation(m3)), m3),
        cli("measure/d2/full/symmetric", ["measure", "--a", f("m2a"), "--b", f("m2b"), *restarts, "--symmetric"],
            _cli_check(_measure_expectation(m2)), m2),
        cli("reconstruct/d64/unitary", ["reconstruct", "--map", f("map64")],
            _cli_check(cached(exp_reconstruct, "map64"))),
        cli("reconstruct/d8/antiunitary", ["reconstruct", "--map", f("map8anti")],
            _cli_check(cached(exp_reconstruct, "map8anti"))),
        cli("verify/d64/symmetry", ["verify", "--symmetry", f("sym64"), "--seed", seed],
            _cli_check(cached(exp_verify, sym64))),
        cli("verify/d16/map", ["verify", "--map", f("map16"), "--seed", seed],
            _cli_check(functools.cache(lambda: exp_verify(wigner_reconstruct(_pmap(inp.maps["map16"])))))),
        cli("bad/missing-file", ["strength", "--state", f("absent"), "--vector", f("v4")], _cli_check(None, 2)),
        cli("bad/malformed-json", ["compat", "--a", f("malformed"), "--b", f("m3b")], _cli_check(None, 2)),
        cli("bad/short-entries", ["measure", "--a", f("short"), "--b", f("m3b")], _cli_check(None, 2)),
        cli("bad/not-hermitian", ["compat", "--a", f("nonherm3"), "--b", f("m3b")], _cli_check(None, 3)),
        cli("bad/trace-two", ["measure", "--a", f("trace2"), "--b", f("m3b")], _cli_check(None, 3)),
        cli("bad/not-unitary", ["verify", "--symmetry", f("nonunitary4")], _cli_check(None, 3)),
        cli("bad/reconstruct-broken-map", ["reconstruct", "--map", f("broken4")], _cli_check(None, 5)),
        cli("bad/verify-broken-map", ["verify", "--map", f("broken4")], _cli_check(None, 5)),
    ]


def build(workload: str, seed: int, workdir: Path, src: Path) -> list[Call]:
    """Generate the inputs and turn them into the workload's batch of calls."""
    inputs = generate(workload, seed)
    if workload in ("measure-pure", "measure-mixed"):
        return [_measure_call(pair) for pair in inputs]
    if workload == "spectral-large-d":
        return [call for case in inputs for call in _spectral_calls(case)]
    env = child_env(src)
    calls = [call for k, inp in enumerate(inputs) for call in _cli_calls(inp, workdir / f"round{k}", env, f"r{k}")]
    return calls + [_selftest_call(inputs[0].seed, env)]
