"""Text file formats: matrices, vectors, symmetries, pure-state maps.

Everything is JSON with complex numbers written as [re, im] pairs,
row-major for matrices. Floats survive a save/load round trip bit-exactly
(shortest round-trip decimal repr).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import FileFormatError
from .states import MAX_DIM, PureState, SymmetryOp, pure_state, symmetry_op

if TYPE_CHECKING:
    from .symmetry import PureStateMap


def _entries(a: np.ndarray) -> list[list[float]]:
    flat = np.asarray(a, dtype=np.complex128).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def _check_dim(obj, what: str) -> int:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{what}: payload must be a JSON object")
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= MAX_DIM:
        raise FileFormatError(f"{what}: dim must be an integer in 1..{MAX_DIM}")
    return dim


def _is_pair(item) -> bool:
    """A list of two ints or floats, subclasses included, never bools (bool has no subclasses)."""
    return (
        isinstance(item, list)
        and len(item) == 2
        and isinstance(item[0], (int, float))
        and isinstance(item[1], (int, float))
        and type(item[0]) is not bool
        and type(item[1]) is not bool
    )


def _entry_fault(item) -> str | None:
    if not _is_pair(item):
        return "is not a [re, im] pair"
    try:
        complex(*item)
    except OverflowError:
        return "has an integer too large for a float"
    return None


def _parse_entries(obj, count: int, what: str) -> np.ndarray:
    entries = obj.get("entries")
    if not isinstance(entries, list) or len(entries) != count:
        raise FileFormatError(f"{what}: entries must be a list of {count} [re, im] pairs")
    if all(map(_is_pair, entries)):
        try:
            return np.array(entries, dtype=np.float64).view(np.complex128).reshape(count)
        except OverflowError:
            pass
    k, fault = next((k, f) for k, item in enumerate(entries) if (f := _entry_fault(item)))
    raise FileFormatError(f"{what}: entry {k} {fault}")


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return obj


def matrix_payload(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"dim": int(m.shape[0]), "entries": _entries(m)}


def vector_payload(v: np.ndarray) -> dict:
    v = np.asarray(v, dtype=np.complex128).ravel()
    return {"dim": int(v.shape[0]), "entries": _entries(v)}


def symmetry_payload(sym: SymmetryOp) -> dict:
    payload = matrix_payload(sym.u)
    payload["antiunitary"] = bool(sym.antiunitary)
    return payload


def map_payload(pmap: PureStateMap) -> dict:
    return {
        "dim": pmap.dim,
        "pairs": [[vector_payload(p), vector_payload(q)] for p, q in zip(pmap.ins, pmap.outs)],
    }


def parse_matrix(obj, what: str = "matrix") -> np.ndarray:
    dim = _check_dim(obj, what)
    return _parse_entries(obj, dim * dim, what).reshape(dim, dim)


def parse_vector(obj, what: str = "vector") -> np.ndarray:
    dim = _check_dim(obj, what)
    return _parse_entries(obj, dim, what)


def save_matrix(path, m: np.ndarray) -> None:
    Path(path).write_text(json.dumps(matrix_payload(m)) + "\n")


def load_matrix(path) -> np.ndarray:
    return parse_matrix(_load_json(path), what=str(path))


def save_vector(path, v: np.ndarray) -> None:
    Path(path).write_text(json.dumps(vector_payload(v)) + "\n")


def load_vector(path) -> np.ndarray:
    return parse_vector(_load_json(path), what=str(path))


def save_symmetry(path, sym: SymmetryOp) -> None:
    Path(path).write_text(json.dumps(symmetry_payload(sym)) + "\n")


def load_symmetry(path) -> SymmetryOp:
    obj = _load_json(path)
    flag = obj.get("antiunitary")
    if not isinstance(flag, bool):
        raise FileFormatError(f"{path}: antiunitary must be a boolean")
    return symmetry_op(parse_matrix(obj, what=str(path)), antiunitary=flag)


def save_map(path, pmap: PureStateMap) -> None:
    Path(path).write_text(json.dumps(map_payload(pmap)) + "\n")


def load_map(path) -> PureStateMap:
    from .symmetry import pure_state_map

    obj = _load_json(path)
    dim = _check_dim(obj, str(path))
    raw = obj.get("pairs")
    if not isinstance(raw, list) or not raw:
        raise FileFormatError(f"{path}: pairs must be a nonempty list")
    pairs: list[tuple[PureState, PureState]] = []
    for k, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            raise FileFormatError(f"{path}: pair {k} must hold two vectors")
        vin = parse_vector(item[0], what=f"{path} pair {k} input")
        vout = parse_vector(item[1], what=f"{path} pair {k} output")
        if vin.shape[0] != dim or vout.shape[0] != dim:
            raise FileFormatError(f"{path}: pair {k} dimension differs from map dim")
        pairs.append((pure_state(vin), pure_state(vout)))
    return pure_state_map(pairs)
