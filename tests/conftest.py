"""Shared fixtures.  `tiny_scenario` is one small multi-study draw for the
transfer, baseline and evaluation tests; the `cpus` fixture pretends a CPU
count and counts forks (PretendCpus), so the fanned-out paths run on any
host; and every test must end with no child process left."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_scenario():
    """A fast multi-study draw shared by transfer/baseline tests.

    Treated as read-only by every consumer.
    """
    from targeted_psm.simulate import generate_scenario, scenario_preset

    config = scenario_preset("figure1-mini", n0=220, n_k=180, K=2, p=15, seed=99)
    data, truth = generate_scenario(config)
    return config, data, truth


class PretendCpus:
    """The process harness of the `cpus` fixture.  Calling it with n makes
    the affinity mask report n CPUs from then on (one CPU makes every
    fan_out serial); `forks` counts the forks this process has made since
    the test began.  A forked child counts in its own copy."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self.forks = 0
        real_fork = os.fork

        def fork():
            self.forks += 1
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)

    def __call__(self, n):
        self._monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def cpus(monkeypatch):
    """Four pretend CPUs and a fork counter (see PretendCpus)."""
    harness = PretendCpus(monkeypatch)
    harness(4)
    return harness


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps every process it started."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
