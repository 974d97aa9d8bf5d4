import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcompat import (
    FileFormatError,
    ValidationError,
    random_density,
    random_pure,
    random_symmetry,
    symmetry_probe_map,
)
from qcompat.io import (
    load_map,
    load_matrix,
    load_symmetry,
    load_vector,
    map_payload,
    matrix_payload,
    parse_matrix,
    parse_vector,
    save_map,
    save_matrix,
    save_symmetry,
    save_vector,
    symmetry_payload,
    vector_payload,
)


class TestRoundTrips:
    def test_matrix(self, tmp_path):
        m = random_density(4, 3, seed=1).matrix
        path = tmp_path / "m.json"
        save_matrix(path, m)
        np.testing.assert_array_equal(load_matrix(path), m)

    def test_vector(self, tmp_path):
        v = random_pure(5, seed=2).vector
        path = tmp_path / "v.json"
        save_vector(path, v)
        np.testing.assert_array_equal(load_vector(path), v)

    def test_symmetry_both_kinds(self, tmp_path):
        for anti in (False, True):
            s = random_symmetry(3, antiunitary=anti, seed=3)
            path = tmp_path / f"s{int(anti)}.json"
            save_symmetry(path, s)
            out = load_symmetry(path)
            assert out.antiunitary == anti
            np.testing.assert_array_equal(out.u, s.u)

    def test_map(self, tmp_path):
        pmap = symmetry_probe_map(random_symmetry(3, antiunitary=True, seed=4))
        path = tmp_path / "map.json"
        save_map(path, pmap)
        out = load_map(path)
        assert out.dim == 3
        np.testing.assert_array_equal(out.ins, pmap.ins)
        np.testing.assert_array_equal(out.outs, pmap.outs)


class TestParsing:
    def test_parse_matrix_rejects_wrong_entry_count(self):
        obj = matrix_payload(np.eye(2, dtype=complex))
        obj["entries"] = obj["entries"][:3]
        with pytest.raises(FileFormatError):
            parse_matrix(obj)

    def test_parse_matrix_rejects_scalar_entries(self):
        obj = {"dim": 2, "entries": [1.0, 0.0, 0.0, 1.0]}
        with pytest.raises(FileFormatError):
            parse_matrix(obj)

    def test_parse_matrix_rejects_bad_pairs(self):
        obj = {"dim": 1, "entries": [[1.0, 0.0, 0.0]]}
        with pytest.raises(FileFormatError):
            parse_matrix(obj)
        obj = {"dim": 1, "entries": [["x", 0.0]]}
        with pytest.raises(FileFormatError):
            parse_matrix(obj)

    def test_parse_rejects_bad_dim(self):
        for dim in (0, -1, 2.5, True, "2", None):
            with pytest.raises(FileFormatError):
                parse_vector({"dim": dim, "entries": [[1.0, 0.0]]})

    def test_parse_rejects_missing_fields(self):
        with pytest.raises(FileFormatError):
            parse_matrix({"entries": []})
        with pytest.raises(FileFormatError):
            parse_vector({"dim": 2})

    def test_parse_rejects_non_object(self):
        with pytest.raises(FileFormatError):
            parse_matrix([1, 2, 3])

    def test_vector_payload_roundtrip_in_memory(self):
        v = np.array([0.6, 0.8j], dtype=complex)
        np.testing.assert_array_equal(parse_vector(vector_payload(v)), v)

    def test_number_subclasses_are_accepted(self):
        class Int(int):
            pass

        class Float(float):
            pass

        class Pair(list):
            pass

        out = parse_vector({"dim": 2, "entries": [Pair([Int(3), Float(0.5)]), [np.float64(-1.5), 2**70]]})
        assert out.tobytes() == np.array([3 + 0.5j, complex(-1.5, 2**70)]).tobytes()

    def test_error_names_the_first_bad_entry(self):
        entries = [[1.0, 0.0], [True, 0.0], ["x", 0.0]]
        with pytest.raises(FileFormatError, match=r"^v: entry 1 is not a \[re, im\] pair$"):
            parse_vector({"dim": 3, "entries": entries}, what="v")

    def test_integer_too_large_for_a_float(self):
        entries = [[1, 0], [2**1024 - 2**970 - 1, 0], [0, -(10**400)]]
        with pytest.raises(FileFormatError, match=r"^v: entry 2 has an integer too large for a float$"):
            parse_vector({"dim": 3, "entries": entries}, what="v")
        assert parse_vector({"dim": 1, "entries": entries[1:2]})[0].real == sys.float_info.max


def _reference_entries(entries):
    """complex(re, im) per entry under the acceptance rule, or the index of the first rejected entry."""
    out = []
    for k, item in enumerate(entries):
        if not (
            isinstance(item, list)
            and len(item) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in item)
        ):
            return k
        try:
            out.append(complex(item[0], item[1]))
        except OverflowError:
            return k
    return np.array(out, dtype=np.complex128)


# the smallest int too large for a float; one less rounds to the largest float
_FLOAT_EDGE = 2**1024 - 2**970
numbers = st.one_of(
    st.floats(),  # nan and +-inf included
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.sampled_from([_FLOAT_EDGE - 1, _FLOAT_EDGE, -_FLOAT_EDGE, 2**63, -(2**63) - 1]),
)
scalars = st.one_of(numbers, st.booleans(), st.text(max_size=2), st.none())
entries = st.lists(
    st.one_of(st.lists(numbers, min_size=2, max_size=2), st.lists(scalars, max_size=3), scalars),
    min_size=1,
    max_size=8,
)


@given(entries=entries)
@settings(max_examples=300, deadline=None)
def test_parse_entries_matches_complex_per_entry(entries):
    expected = _reference_entries(entries)
    try:
        got = parse_vector({"dim": len(entries), "entries": entries}, what="v")
    except FileFormatError as exc:
        assert isinstance(expected, int)
        assert str(exc).startswith(f"v: entry {expected} ")
    else:
        assert not isinstance(expected, int)
        assert got.dtype == np.complex128 and got.shape == (len(entries),)
        assert got.tobytes() == expected.tobytes()


class TestFileErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises((FileFormatError, OSError)):
            load_matrix(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError):
            load_matrix(path)

    def test_symmetry_flag_must_be_bool(self, tmp_path):
        s = random_symmetry(2, antiunitary=False, seed=5)
        obj = symmetry_payload(s)
        obj["antiunitary"] = "no"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError):
            load_symmetry(path)

    def test_symmetry_matrix_must_be_unitary(self, tmp_path):
        obj = {
            "dim": 2,
            "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
            "antiunitary": False,
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError):
            load_symmetry(path)

    def test_map_with_non_unit_vector(self, tmp_path):
        pmap = symmetry_probe_map(random_symmetry(2, antiunitary=False, seed=6))
        obj = map_payload(pmap)
        obj["pairs"][0][0]["entries"][0] = [5.0, 0.0]
        path = tmp_path / "map.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError):
            load_map(path)
