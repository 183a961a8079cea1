"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.asynchronous import AsynchronousRumorSpreading
from repro.core.synchronous import SynchronousRumorSpreading
from repro.dynamics.sequences import StaticDynamicNetwork
from graph_oracles import clique, cycle, path, star


@pytest.fixture
def rng():
    """A deterministic generator shared by tests that need one."""
    return np.random.default_rng(12345)


@pytest.fixture
def async_process():
    """A default asynchronous push–pull process (boundary engine)."""
    return AsynchronousRumorSpreading()


@pytest.fixture
def sync_process():
    """A default synchronous push–pull process."""
    return SynchronousRumorSpreading()


@pytest.fixture
def small_clique_network():
    """K_10 viewed as a dynamic network."""
    return StaticDynamicNetwork(clique(range(10)))


@pytest.fixture
def small_path_network():
    """A 6-node path viewed as a dynamic network."""
    return StaticDynamicNetwork(path(range(6)))


@pytest.fixture
def small_star_network():
    """A 9-node star (centre 0) viewed as a dynamic network."""
    return StaticDynamicNetwork(star(0, range(1, 9)))


@pytest.fixture
def small_cycle_network():
    """An 8-node cycle viewed as a dynamic network."""
    return StaticDynamicNetwork(cycle(range(8)))
