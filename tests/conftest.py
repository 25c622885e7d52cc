"""Hypothesis profiles for the test suite.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile: examples come from a
fixed derandomized stream, so a failure in CI recurs on any machine; there
is no per-example deadline, which a slow shared runner would trip; and a
failing example prints the blob that ``@reproduce_failure`` replays.
Without the variable, Hypothesis's defaults apply.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
