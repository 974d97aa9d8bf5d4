import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from qcompat import (
    haar_unitary,
    pure_state,
    pure_state_map,
    random_density,
    random_symmetry,
    selftest,
    symmetry_probe_map,
    validate_density,
)
from qcompat import cli
from qcompat import measure as measure_module
from qcompat.cli import build_parser
from qcompat.io import save_map, save_matrix, save_symmetry, save_vector
from qcompat.states import SymmetryOp
from qcompat.symmetry import _probe_family


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "qcompat", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    report = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, report, proc.stderr


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    def p(name):
        return str(root / name)

    save_matrix(p("mm4.json"), np.eye(4, dtype=complex) / 4)
    save_matrix(p("proj0.json"), np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    save_matrix(p("proj1.json"), np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))
    save_matrix(p("bad.json"), np.diag([2.0, -1.0]).astype(complex))
    save_matrix(p("r43.json"), random_density(4, 3, seed=0).matrix)
    save_matrix(p("r42.json"), random_density(4, 2, seed=1000).matrix)
    # a rank-2 state and a ray with kernel weight 1e-14, inside the membership cut;
    # the kernel direction is the third column of the state's eigh-validated form
    a7 = random_density(4, 2, seed=7)
    kernel = validate_density(a7.matrix).leading[:, 2]
    ray = np.sqrt(1.0 - 1e-14) * a7.leading @ np.array([0.6, 0.8]) + 1e-7 * kernel
    save_matrix(p("r7.json"), a7.matrix)
    save_vector(p("near7.json"), ray)
    save_matrix(p("near7proj.json"), np.outer(ray, ray.conj()))
    e0 = np.zeros(4, dtype=complex)
    e0[0] = 1.0
    save_vector(p("e0.json"), e0)
    # weight 1e-5 on the ray u2: above the rank cut, so u2 lies in the support
    u = haar_unitary(3, 0)
    proj = [np.outer(u[:, k], u[:, k].conj()) for k in range(3)]
    save_matrix(p("faint3.json"), 0.6 * proj[0] + (0.4 - 1e-5) * proj[1] + 1e-5 * proj[2])
    save_matrix(p("faint3ray.json"), proj[2])
    save_vector(p("faint3vec.json"), u[:, 2])

    sym = random_symmetry(3, antiunitary=True, seed=2)
    save_symmetry(p("sym.json"), sym)
    save_map(p("map_unitary.json"), symmetry_probe_map(random_symmetry(2, antiunitary=False, seed=3)))
    save_map(p("map_antiunitary.json"), symmetry_probe_map(random_symmetry(4, antiunitary=True, seed=4)))
    # the d = 4 probe map with its first pair appended as pair 2d = 8
    with open(p("map_antiunitary.json")) as fh:
        dup = json.load(fh)
    dup["pairs"].append(dup["pairs"][0])
    with open(p("map_duplicate.json"), "w") as fh:
        json.dump(dup, fh)

    # the d = 4 probe map with one output entry scaled by 1.5, and with one input entry shifted
    with open(p("map_antiunitary.json")) as fh:
        scaled = json.load(fh)
    shifted = json.loads(json.dumps(scaled))
    scaled["pairs"][1][1]["entries"][0] = [1.5 * x for x in scaled["pairs"][1][1]["entries"][0]]
    shifted["pairs"][2][0]["entries"][0][0] += 0.25
    for name, obj in (("map_scaled_out.json", scaled), ("map_shifted_in.json", shifted)):
        with open(p(name), "w") as fh:
            json.dump(obj, fh)

    labels, rays = _probe_family(2)
    probes = [pure_state(ray) for ray in rays]
    save_map(p("map_truncated.json"), pure_state_map([(q, q) for q in probes[:2]]))
    broken = [(q, probes[0] if label == "pair-0-1" else q) for label, q in zip(labels, probes)]
    save_map(p("map_broken.json"), pure_state_map(broken))

    # non-finite entries; json writes them as NaN / Infinity
    nan4 = np.eye(4, dtype=complex) / 4
    nan4[1, 2] = nan4[2, 1] = np.nan
    save_matrix(p("nan4.json"), nan4)
    save_vector(p("nanvec4.json"), np.array([1.0, np.nan, 0.0, 0.0]))
    inf3 = np.eye(3, dtype=complex)
    inf3[0, 0] = np.inf
    save_symmetry(p("infsym3.json"), SymmetryOp(inf3))
    nan_pair = {"dim": 2, "entries": [[np.nan, 0.0], [0.0, 0.0]]}
    with open(p("nanmap2.json"), "w") as fh:
        json.dump({"dim": 2, "pairs": [[nan_pair, nan_pair]]}, fh)
    return p


class TestStrengthCommand:
    def test_maximally_mixed(self, files):
        rc, rep, _ = run_cli("strength", "--state", files("mm4.json"), "--vector", files("e0.json"))
        assert rc == 0
        assert rep["command"] == "strength"
        assert set(rep) >= {"command", "inputs", "config", "result", "elapsed_ms"}
        assert abs(rep["result"]["value"] - 0.25) < 1e-12
        assert rep["result"]["in_range"] is True
        assert len(rep["inputs"]["state"]["sha256"]) == 64

    def test_own_projection_is_one(self, files):
        rc, rep, _ = run_cli("strength", "--state", files("proj0.json"), "--vector", files("e0.json"))
        assert rc == 0
        assert abs(rep["result"]["value"] - 1.0) < 1e-12

    def test_oracle_agreement(self, files):
        rc, rep, _ = run_cli(
            "strength", "--state", files("mm4.json"), "--vector", files("e0.json"), "--oracle"
        )
        assert rc == 0
        assert abs(rep["result"]["difference"]) <= 1e-7

    def test_missing_file_is_io_error(self, files):
        rc, rep, _ = run_cli("strength", "--state", files("nope.json"), "--vector", files("e0.json"))
        assert rc == 2
        assert rep["error"]["type"] == "FileFormatError"

    def test_invalid_state_is_validation_error(self, files):
        rc, rep, _ = run_cli("strength", "--state", files("bad.json"), "--vector", files("e0.json"))
        assert rc == 3


class TestCompatCommand:
    def test_orthogonal_pures(self, files):
        rc, rep, _ = run_cli("compat", "--a", files("proj0.json"), "--b", files("proj1.json"))
        assert rc == 0
        assert rep["result"]["compatible"] is False
        assert rep["result"]["intersection_dim"] == 0

    def test_state_with_itself(self, files):
        rc, rep, _ = run_cli("compat", "--a", files("mm4.json"), "--b", files("mm4.json"))
        assert rc == 0
        assert rep["result"]["compatible"] is True

    def test_integer_too_large_for_a_float_is_file_error(self, tmp_path, files):
        path = tmp_path / "huge.json"
        path.write_text('{"dim": 1, "entries": [[1' + "0" * 400 + ', 0]]}')
        rc, rep, _ = run_cli("compat", "--a", str(path), "--b", files("mm4.json"))
        assert rc == 2
        assert rep["error"]["type"] == "FileFormatError"
        assert "entry 0 has an integer too large for a float" in rep["error"]["message"]


def _ray_inside_the_support(files, state, vector, ray):
    """strength, compat and measure all count the ray as in the state's support; measure^2 = strength."""
    rc, st, _ = run_cli("strength", "--state", files(state), "--vector", files(vector))
    assert rc == 0
    rc, co, _ = run_cli("compat", "--a", files(state), "--b", files(ray))
    assert rc == 0
    rc, me, _ = run_cli("measure", "--a", files(state), "--b", files(ray))
    assert rc == 0
    assert st["result"]["in_range"] is True
    assert co["result"] == {"compatible": True, "intersection_dim": 1}
    assert abs(me["result"]["value"] ** 2 - st["result"]["value"]) <= 1e-12
    return co


def test_strength_compat_and_measure_share_one_membership_cut(files):
    # the ray leans 1e-14 of its weight into the kernel
    _ray_inside_the_support(files, "r7.json", "near7.json", "near7proj.json")


def test_weak_eigenvalue_above_the_rank_cut_is_in_the_support(files):
    # the state's weight on the ray, 1e-5, sits above the one rank cut
    assert _ray_inside_the_support(files, "faint3.json", "faint3vec.json", "faint3ray.json")["config"] == {}


def test_input_files_are_closed(files):
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "qcompat",
         "compat", "--a", files("proj0.json"), "--b", files("proj1.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ResourceWarning" not in proc.stderr


def test_compat_skips_the_symmetry_and_selftest_modules(files):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qcompat",
         "compat", "--a", files("proj0.json"), "--b", files("proj1.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "qcompat.cli" in loaded
    assert not {"qcompat.symmetry", "qcompat.selftest"} & loaded


class TestMeasureCommand:
    def test_identical_states(self, files):
        rc, rep, _ = run_cli(
            "measure", "--a", files("mm4.json"), "--b", files("mm4.json"), "--restarts", "2"
        )
        assert rc == 0
        assert abs(rep["result"]["value"] - 1.0) < 1e-9
        cert = rep["result"]["certificate"]
        assert set(cert) == {"vectors", "weights_a", "weights_b"}
        assert len(cert["weights_a"]) == len(cert["vectors"])

    def test_disjoint_states_have_null_certificate(self, files):
        rc, rep, _ = run_cli(
            "measure", "--a", files("proj0.json"), "--b", files("proj1.json"), "--restarts", "2"
        )
        assert rc == 0
        assert rep["result"]["value"] == 0.0
        assert rep["result"]["certificate"] is None

    @pytest.mark.parametrize("value", ["7", "abc"])
    def test_seed_env_is_ignored(self, files, value):
        # --seed is the only source of a seed: the environment is not read
        rc, rep, _ = run_cli(
            "measure",
            "--a", files("proj0.json"), "--b", files("proj0.json"), "--restarts", "1",
            env_extra={"QCOMPAT_SEED": value},
        )
        assert rc == 0
        assert rep["config"]["seed"] == 0

    def test_residual_above_feas_tol_exits_infeasible(self, files, monkeypatch, capsys):
        # no flag sets the limit and no natural input reaches 1e-6, so lower the constant in-process
        monkeypatch.setattr(measure_module, "FEAS_TOL", 0.0)
        rc = cli.main(["measure", "--a", files("r43.json"), "--b", files("r42.json")])
        rep = json.loads(capsys.readouterr().out)
        assert rc == 4
        assert rep["error"]["type"] == "InfeasibleError"
        assert "exceeds feas_tol" in rep["error"]["message"]

    def test_symmetric_flag(self, files):
        rc, rep, _ = run_cli(
            "measure",
            "--a", files("mm4.json"), "--b", files("proj0.json"),
            "--restarts", "2", "--symmetric",
        )
        assert rc == 0
        assert rep["config"]["symmetric"] is True
        assert 0.0 <= rep["result"]["value"] <= 1.0

    def test_symmetric_flag_is_a_no_op(self, files):
        def measure(a, b, *extra):
            return run_cli("measure", "--a", files(a), "--b", files(b), *extra)[1]["result"]

        plain = measure("r43.json", "r42.json")
        assert measure("r43.json", "r42.json", "--symmetric") == plain
        swapped = measure("r42.json", "r43.json")
        assert swapped["value"] == plain["value"]
        cert, swapped_cert = plain["certificate"], swapped["certificate"]
        assert swapped_cert["weights_a"] == cert["weights_b"] and swapped_cert["vectors"] == cert["vectors"]

    def test_bounds_do_not_depend_on_argument_order(self, files):
        reports = [
            run_cli("measure", "--a", files(a), "--b", files(b))[1]
            for a, b in (("r43.json", "r42.json"), ("r42.json", "r43.json"))
        ]
        assert reports[0]["bounds"] == reports[1]["bounds"]
        assert reports[0]["result"]["value"] == reports[1]["result"]["value"]

    def test_zero_restarts_is_validation_error(self, files):
        rc, rep, err = run_cli(
            "measure", "--a", files("mm4.json"), "--b", files("mm4.json"), "--restarts", "0"
        )
        assert rc == 3
        assert rep["error"]["type"] == "ValidationError"
        assert "Traceback" not in err

    def test_config_has_no_components_entry(self, files):
        rc, rep, _ = run_cli(
            "measure", "--a", files("mm4.json"), "--b", files("mm4.json"), "--restarts", "1"
        )
        assert rc == 0
        assert set(rep["config"]) == {"restarts", "seed", "symmetric"}
        assert rep["config"]["restarts"] == 1
        assert rep["result"]["components"] == 4

    def test_restarts_and_seed_are_no_ops(self, files):
        reports = [
            run_cli("measure", "--a", files("mm4.json"), "--b", files("proj0.json"), *extra)[1]
            for extra in ([], ["--restarts", "1", "--seed", "9"])
        ]
        assert reports[0]["result"] == reports[1]["result"]
        assert reports[1]["config"]["restarts"] == 1 and reports[1]["config"]["seed"] == 9

    @pytest.mark.parametrize("extra", [[], ["--symmetric"]], ids=["plain", "symmetric"])
    def test_bounds_sit_beside_result(self, files, extra):
        rc, rep, _ = run_cli(
            "measure", "--a", files("mm4.json"), "--b", files("proj0.json"), "--restarts", "4", *extra
        )
        assert rc == 0
        assert set(rep["result"]) == {"value", "residual", "restarts_used", "components", "certificate"}
        bounds = rep["bounds"]
        assert set(bounds) == {"fidelity", "gap"}
        assert abs(bounds["fidelity"] - 0.5) < 1e-12
        assert bounds["gap"] == bounds["fidelity"] - rep["result"]["value"]
        assert abs(bounds["gap"]) < 1e-12


class TestReconstructCommand:
    def test_unitary_map(self, files):
        rc, rep, _ = run_cli("reconstruct", "--map", files("map_unitary.json"))
        assert rc == 0
        assert rep["result"]["antiunitary"] is False
        assert rep["result"]["u"]["dim"] == 2
        assert rep["config"] == {}

    def test_antiunitary_map(self, files):
        rc, rep, _ = run_cli("reconstruct", "--map", files("map_antiunitary.json"))
        assert rc == 0
        assert rep["result"]["antiunitary"] is True
        assert rep["result"]["u"]["dim"] == 4

    def test_truncated_map(self, files):
        rc, rep, _ = run_cli("reconstruct", "--map", files("map_truncated.json"))
        assert rc == 3
        assert rep["error"]["type"] == "IncompleteMapError"

    def test_probability_breaking_map(self, files):
        rc, rep, _ = run_cli("reconstruct", "--map", files("map_broken.json"))
        assert rc == 5
        assert rep["error"]["type"] == "NotASymmetryError"
        assert rep["error"]["probe"]


class TestVerifyCommand:
    def test_symmetry_input(self, files):
        rc, rep, _ = run_cli("verify", "--symmetry", files("sym.json"), "--n-mixed", "4")
        assert rc == 0
        assert rep["result"]["verdict"] is True
        assert rep["result"]["max_error"] <= 1e-8
        assert rep["result"]["symmetry"]["antiunitary"] is True
        assert rep["config"] == {"n_mixed": 4, "seed": 0}

    def test_map_input(self, files):
        rc, rep, _ = run_cli("verify", "--map", files("map_unitary.json"), "--n-mixed", "4")
        assert rc == 0
        assert rep["result"]["verdict"] is True

    def test_antiunitary_map_input(self, files):
        rc, rep, _ = run_cli("verify", "--map", files("map_antiunitary.json"), "--n-mixed", "4")
        assert rc == 0
        assert rep["result"]["verdict"] is True
        assert rep["result"]["symmetry"]["antiunitary"] is True

    def test_broken_map_exits_not_a_symmetry(self, files):
        rc, rep, _ = run_cli("verify", "--map", files("map_broken.json"), "--n-mixed", "4")
        assert rc == 5
        assert rep["error"]["probe"]

    def test_zero_mixed_states_is_validation_error(self, files):
        rc, rep, _ = run_cli("verify", "--symmetry", files("sym.json"), "--n-mixed", "0")
        assert rc == 3
        assert rep["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("command", ["reconstruct", "verify"])
def test_duplicate_input_map_file_is_validation_error(files, command):
    # a map file reaches both commands through pure_state_map, which rejects the repeated input
    rc, rep, _ = run_cli(command, "--map", files("map_duplicate.json"))
    assert rc == 3
    assert rep["error"] == {"type": "ValidationError", "message": "duplicate input ray at pairs 0 and 8"}


@pytest.mark.parametrize("command", ["reconstruct", "verify"])
@pytest.mark.parametrize("name,side", [("map_scaled_out.json", "output"), ("map_shifted_in.json", "input")])
def test_non_unit_map_ray_is_validation_error(files, command, name, side):
    # the map checks its rays once, after the file, and names the side of the ray it rejects
    rc, rep, _ = run_cli(command, "--map", files(name))
    assert rc == 3
    assert rep["error"]["type"] == "NotUnitVectorError"
    assert re.fullmatch(rf"map {side} ray has norm 1\.\d+, not 1 within 1e-12", rep["error"]["message"])


def _operands(files, command):
    return {
        "strength": ["--state", files("mm4.json"), "--vector", files("e0.json")],
        "compat": ["--a", files("proj0.json"), "--b", files("mm4.json")],
        "measure": ["--a", files("proj0.json"), "--b", files("mm4.json"), "--restarts", "1"],
        "reconstruct": ["--map", files("map_unitary.json")],
        "verify": ["--map", files("map_unitary.json"), "--n-mixed", "1"],
    }[command]


# values that no flag sets: the membership cut, the map tolerance of the symmetry
# commands and the measure's certificate limit
@pytest.mark.parametrize(
    "command,flag",
    [("strength", "--tol-mem"), ("reconstruct", "--tol"), ("verify", "--tol"), ("measure", "--feas-tol")],
)
def test_removed_flag_is_a_usage_error(files, command, flag):
    rc, rep, err = run_cli(command, *_operands(files, command), flag, "1e-8")
    assert rc == 2
    assert rep is None
    assert f"unrecognized arguments: {flag} 1e-8" in err


@pytest.mark.parametrize(
    "args",
    [
        ["strength", "--state", "faint3.json", "--vector", "faint3vec.json"],
        ["compat", "--a", "faint3.json", "--b", "faint3ray.json"],
    ],
    ids=["strength", "compat"],
)
def test_rank_cut_is_not_a_flag(files, args):
    rc, rep, err = run_cli(*[files(a) if a.endswith(".json") else a for a in args], "--tol-rank", "1e-3")
    assert rc == 2
    assert rep is None
    assert "unrecognized arguments: --tol-rank" in err


def test_option_strings_are_pinned():
    # a new flag must show up here, and so in review
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    options = {
        name: sorted(opt for action in p._actions for opt in action.option_strings if opt not in ("-h", "--help"))
        for name, p in subparsers.choices.items()
    }
    assert options == {
        "strength": ["--oracle", "--state", "--vector"],
        "compat": ["--a", "--b"],
        "measure": ["--a", "--b", "--restarts", "--seed", "--symmetric"],
        "reconstruct": ["--map"],
        "verify": ["--map", "--n-mixed", "--seed", "--symmetry"],
        "selftest": ["--dims", "--quick", "--seed"],
    }


SEED_CALLS = {
    "measure": ["measure", "--a", "proj0.json", "--b", "mm4.json"],
    "verify": ["verify", "--symmetry", "sym.json", "--n-mixed", "1"],
    "selftest": ["selftest", "--quick"],
}


@pytest.mark.parametrize("command", sorted(SEED_CALLS))
@pytest.mark.parametrize("value", ["-1", "x", "1.5"])
def test_bad_seed_is_usage_error(files, command, value):
    # a negative seed must stop at parsing: numpy's generators reject it
    args = [files(a) if a.endswith(".json") else a for a in SEED_CALLS[command]]
    rc, rep, err = run_cli(*args, "--seed", value)
    assert rc == 2
    assert rep is None
    assert "seed must be an integer >= 0" in err


@pytest.mark.parametrize(
    "args,message",
    [
        (["compat", "--a", "mm4.json", "--b", "faint3.json"], "ambient dims differ: 4 != 3"),
        (["strength", "--state", "faint3.json", "--vector", "e0.json"], "effect and vector dims differ: 3 != 4"),
    ],
    ids=["compat", "strength"],
)
def test_files_of_different_dimension_are_validation_errors(files, args, message):
    rc, rep, _ = run_cli(*[files(a) if a.endswith(".json") else a for a in args])
    assert rc == 3
    assert rep["error"] == {"type": "DimensionMismatchError", "message": message}


NON_FINITE_CALLS = {
    "compat": (["compat", "--a", "nan4.json", "--b", "mm4.json"], "NotHermitianError"),
    "strength": (["strength", "--state", "mm4.json", "--vector", "nanvec4.json"], "NotUnitVectorError"),
    "measure": (["measure", "--a", "nan4.json", "--b", "mm4.json"], "NotHermitianError"),
    "verify": (["verify", "--symmetry", "infsym3.json", "--n-mixed", "1"], "NotUnitaryError"),
    "reconstruct": (["reconstruct", "--map", "nanmap2.json"], "NotUnitVectorError"),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_input_is_validation_error(files, name):
    args, error = NON_FINITE_CALLS[name]
    rc, rep, _ = run_cli(*(files(a) if a.endswith(".json") else a for a in args))
    assert rc == 3
    assert rep["error"]["type"] == error


class TestSelftestCommand:
    def test_quick_run_passes(self, files):
        rc, rep, err = run_cli("selftest", "--quick", "--dims", "2..3")
        assert rc == 0
        assert rep["result"]["all_passed"] is True
        assert "PASS" in err
        idents = [c["ident"] for c in rep["result"]["criteria"]]
        assert len(idents) == len(set(idents)) == len(selftest._CRITERIA)

    def test_dims_four_to_five_passes(self, files):
        # every criterion has a dimension in 4..5; two of them once covered only d 2-3
        rc, rep, _ = run_cli("selftest", "--quick", "--dims", "4..5")
        assert rc == 0
        assert rep["result"]["all_passed"] is True

    def test_criterion_times_sit_beside_result(self, files):
        rc, rep, err = run_cli("selftest", "--quick", "--dims", "2..2")
        assert rc == 0
        idents = [c["ident"] for c in rep["result"]["criteria"]]
        elapsed = rep["criteria_elapsed_ms"]
        assert sorted(elapsed) == sorted(idents)
        assert all(ms >= 0.0 for ms in elapsed.values())
        assert "elapsed" not in json.dumps(rep["result"])
        lines = [line for line in err.splitlines() if line.startswith(("[PASS]", "[FAIL]"))]
        assert len(lines) == len(idents)
        assert all(re.search(r" \(\d+\.\d ms\)$", line) for line in lines)
