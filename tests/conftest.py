import faulthandler
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# a copy of the run's stderr taken before any test captures it, so a
# timed-out test's traceback reaches the terminal
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """``@pytest.mark.timeout(seconds)`` bounds the test's call: past
    it, faulthandler writes every thread's traceback to stderr and
    exits the run, so a hung test fails at its own limit, not the
    suite's."""
    mark = item.get_closest_marker("timeout")
    if mark is None:
        yield
        return
    faulthandler.dump_traceback_later(mark.args[0], exit=True,
                                      file=item.config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (never per test)."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus():
    """t1 smoke corpus: 100 labeled docs (FIXTURES.md §1)."""
    from raysearch.corpus import generate_corpus

    return generate_corpus(100, seed=42, labeled=True)


@pytest.fixture(scope="session")
def medium_corpus():
    """t2 correctness corpus: ~2000 docs."""
    from raysearch.corpus import generate_corpus

    return generate_corpus(2000, seed=42, labeled=True)
