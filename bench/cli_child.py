"""Run one qcompat CLI command under cProfile and save the profile.

Usage: python cli_child.py <profile-out> <qcompat arguments...>

The package must be importable (PYTHONPATH pointing at src). The process
exits with the command's own exit code, so exit-code checks still hold
in the traced run.
"""

import cProfile
import sys

from qcompat.cli import main


def _run(out: str, argv: list[str]) -> int:
    prof = cProfile.Profile()
    prof.enable()
    try:
        return main(argv)
    finally:
        prof.disable()
        prof.dump_stats(out)


if __name__ == "__main__":
    raise SystemExit(_run(sys.argv[1], sys.argv[2:]))
