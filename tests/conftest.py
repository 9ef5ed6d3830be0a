"""Checks that hold after every test.

Builds and writers fork children (flatsurf4._fork); every child must be
reaped on every path, errors included, or a job would leave a process
behind.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
