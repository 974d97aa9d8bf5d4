"""Every public function is reached by the CLI or the selftest.

Each CLI command runs in-process through `cli.main` on small files, and so
does ``selftest --quick``, under `sys.setprofile`. Every function named in
`qcompat.__all__` must be called on the way, except the few listed in
`UNREACHED`, each with the reason it stays public.
"""

import inspect
import sys

import numpy as np

import qcompat
from qcompat import cli, io, random_density, random_pure, random_symmetry, symmetry_probe_map

UNREACHED = {
    "symmetry_probe_map": "it builds the map that io.save_map writes, and CI's hash-seed script calls it",
}


def _commands(root):
    def p(name):
        return str(root / name)

    io.save_matrix(p("a.json"), random_density(3, 2, seed=0).matrix)
    io.save_matrix(p("b.json"), random_density(3, 3, seed=1).matrix)
    io.save_vector(p("v.json"), random_pure(3, seed=2).vector)
    sym = random_symmetry(3, antiunitary=True, seed=3)
    io.save_symmetry(p("s.json"), sym)
    io.save_map(p("m.json"), symmetry_probe_map(sym))
    return [
        ["strength", "--state", p("a.json"), "--vector", p("v.json"), "--oracle"],
        ["compat", "--a", p("a.json"), "--b", p("b.json")],
        ["measure", "--a", p("a.json"), "--b", p("b.json")],
        ["reconstruct", "--map", p("m.json")],
        ["verify", "--symmetry", p("s.json")],
        ["verify", "--map", p("m.json")],
        ["selftest", "--quick"],
    ]


def test_every_public_function_is_reached(tmp_path, capsys):
    commands = _commands(tmp_path)
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(commands)

    functions = [getattr(qcompat, name) for name in qcompat.__all__]
    unreached = [fn.__name__ for fn in functions if inspect.isfunction(fn) and fn.__code__ not in called]
    assert sorted(unreached) == sorted(UNREACHED)
