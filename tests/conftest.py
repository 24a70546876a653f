"""Puts this directory on sys.path, so that the test modules can import the
shared literal references in ``literal.py`` under every pytest import mode.

Every test also runs under one time limit: a test that hangs fails with a
TimeoutError and a traceback of where it waited, and the rest of the run
goes on.
"""

import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

TIME_LIMIT = 300                   # seconds; the slowest test takes ~72 s


@pytest.fixture(autouse=True)
def time_limit():
    """Raise TimeoutError in the test once TIME_LIMIT has passed."""

    def expire(signum, frame):
        raise TimeoutError(f"the test ran past its {TIME_LIMIT} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
