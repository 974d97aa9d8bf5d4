"""Hypothesis profiles.

With CI set, the ``ci`` profile derandomizes every property test, so a
failure in CI replays locally with ``CI=1 python -m pytest``. Each test
keeps its own ``max_examples``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
