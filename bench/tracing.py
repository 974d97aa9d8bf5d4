"""Per-layer counts and times, gathered with cProfile around the benchmark's calls.

In-process calls run with one profiler switched on around each call only.
CLI calls run through cli_child.py, which profiles the command in the child
and writes the profile to the run's work directory; the profiles are summed.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from pathlib import Path

# (module, function) pairs reported as <module>.<function>.{calls,self_s,cum_s}
LAYERS = (
    ("states", "validate_density"),
    ("states", "subspace_intersection_dim"),
    ("states", "support"),
    ("strength", "strength"),
    ("strength", "strength_oracle"),
    ("strength", "effects_equal_by_strength"),
    ("measure", "example_measure"),
    ("measure", "measure_symmetric"),
    ("measure", "is_compatible"),
    ("measure", "fidelity"),
    ("measure", "ascend"),
    ("measure", "sweep"),
    ("measure", "polish"),
    ("measure", "dykstra"),
    ("measure", "factorization"),
    ("measure", "project_simplex"),
    ("symmetry", "verify_theorem"),
    ("symmetry", "wigner_reconstruct"),
    ("symmetry", "apply_symmetry"),
    ("symmetry", "rank_via_compatibility"),
    ("io", "load_matrix"),
    ("io", "load_symmetry"),
    ("io", "load_map"),
    ("io", "matrix_payload"),
)

# metric names that differ from the function's name in the code
CODE_NAMES = {
    ("measure", "factorization"): "_factorization",
    ("measure", "project_simplex"): "_project_simplex",
}

_BY_CODE = {(mod, CODE_NAMES.get((mod, fn), fn)): (mod, fn) for mod, fn in LAYERS}

CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-function metric."""
    out = []
    for mod, fn in LAYERS:
        out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s"), (f"{mod}.{fn}.cum_s", "s")]
    return out


class Tracer:
    def __init__(self, workdir: Path):
        self.profile = cProfile.Profile()
        self.workdir = workdir
        self.dumps: list[Path] = []

    def run(self, fn):
        self.profile.enable()
        try:
            return fn()
        finally:
            self.profile.disable()

    def cli_command(self) -> list[str]:
        """Interpreter command that runs one CLI call under the profiler."""
        path = self.workdir / f"cli-{len(self.dumps)}.prof"
        self.dumps.append(path)
        return [sys.executable, str(CLI_CHILD), str(path)]

    def layer_metrics(self) -> dict[str, float]:
        stats = pstats.Stats()
        self.profile.create_stats()
        if self.profile.stats:  # empty when every call ran in a child
            stats.add(self.profile)
        for path in self.dumps:
            if path.exists():
                stats.add(str(path))
        totals = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        for (filename, _, funcname), (_, nc, tt, ct, _) in stats.stats.items():
            path = Path(filename)
            layer = _BY_CODE.get((path.stem, funcname)) if path.parent.name == "qcompat" else None
            if layer is not None:
                totals[layer][0] += nc
                totals[layer][1] += tt
                totals[layer][2] += ct
        out: dict[str, float] = {}
        for (mod, fn), (calls, self_s, cum_s) in totals.items():
            out[f"{mod}.{fn}.calls"] = float(calls)
            out[f"{mod}.{fn}.self_s"] = self_s
            out[f"{mod}.{fn}.cum_s"] = cum_s
        return out
