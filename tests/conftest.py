"""Hypothesis profiles, and the environment of child interpreters.
``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run and every
machine, so all CI entries test the same inputs."""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_SRC = str(Path(__file__).resolve().parents[1] / "src")


def child_env(**extra):
    """The environment of a child Python that imports this checkout's ``src``:
    os.environ with ``src`` prepended to PYTHONPATH, then ``extra``."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)
