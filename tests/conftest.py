import contextlib
import os
from unittest import mock

import numpy as np
import pytest

from steerkit.lqr import LqrWeights, build_schedule
from steerkit.models import VehicleParams


@pytest.fixture(scope="session")
def params():
    return VehicleParams()


@pytest.fixture(scope="session")
def kinematic_schedule(params):
    grid = np.arange(1.0, 16.0, 1.0)
    return build_schedule(grid, "kinematic", params, LqrWeights((1.0, 1.0), 1.0), dt=0.02)


@pytest.fixture(scope="session")
def dynamic_schedule(params):
    grid = np.arange(1.0, 16.0, 1.0)
    return build_schedule(grid, "dynamic", params, LqrWeights((1.0, 1.0, 1.0, 1.0), 1.0), dt=0.02)


class Forks(list):
    """The pids this process forked through os.fork."""

    def all_reaped(self) -> bool:
        """True when every one has been waited for: none runs or is a zombie."""
        for pid in self:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            return False
        return True


@contextlib.contextmanager
def recorded_forks():
    """Record the pids of the processes forked inside the block."""
    pids, fork = Forks(), os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(os, "fork", recording):
        yield pids


@pytest.fixture
def forks():
    """The pids of the processes forked during the test."""
    with recorded_forks() as pids:
        yield pids
