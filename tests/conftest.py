"""Fixtures shared by the test modules."""

import os
import threading

import pytest

from isbound import GaussianPair


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(count)`` makes ``_parallel_map`` see ``count`` CPUs in the process's affinity.

    One CPU forces every work unit onto the calling thread; more let units of
    at least ``gaussian._PARALLEL_PARTICLES`` particles run on worker threads.
    """

    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return set_count


@pytest.fixture
def drawing_threads(monkeypatch):
    """The set of threads ``GaussianPair.proposal_sampler`` runs on, filled as it is called."""
    threads = set()
    sampler = GaussianPair.proposal_sampler

    def recorded(self, n, seed):
        threads.add(threading.current_thread())
        return sampler(self, n, seed)

    monkeypatch.setattr(GaussianPair, "proposal_sampler", recorded)
    return threads
