"""Shared test configuration.

With ``CI`` set (GitHub Actions sets it) every hypothesis test draws the
same examples on every run and keeps no example database, so a CI result
repeats.  Locally the default profile draws fresh examples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
