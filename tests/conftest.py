"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` draws the same examples on
every run and every machine, so all CI entries test the same inputs."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
