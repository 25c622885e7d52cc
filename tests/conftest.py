"""Hypothesis profiles and a per-test time limit for the test suite.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile: examples come from a
fixed derandomized stream, so a failure in CI recurs on any machine; there
is no per-example deadline, which a slow shared runner would trip; and a
failing example prints the blob that ``@reproduce_failure`` replays.
Without the variable, Hypothesis's defaults apply.

A test that runs past ``TEST_TIME_LIMIT_S`` (a loop that never ends, say)
ends the run: ``faulthandler`` prints every thread's traceback and exits.
The slowest test takes a few seconds, so the limit is generous.
"""

import faulthandler
import os
import sys

import pytest
from hypothesis import settings

TEST_TIME_LIMIT_S = 120

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


# a copy of the terminal's stderr, taken while pytest captures no output: a
# dump into the captured stream would vanish with the process
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _time_limit(request):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
