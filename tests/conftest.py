"""Suite-wide settings: a watchdog fails any test that runs longer than
TEST_TIME_LIMIT_S, so a defect that loops forever fails its test instead
of hanging the suite. It needs SIGALRM and is off where there is none."""

import signal

import pytest

TEST_TIME_LIMIT_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past the {TEST_TIME_LIMIT_S} s limit",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
