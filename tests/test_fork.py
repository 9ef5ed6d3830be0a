"""A stage computed by a forked child (flatsurf4._fork.Forked).

The value is the same whether a child computes it or this process does:
with one allowed CPU, beside a second thread and when os.fork raises, no
child is forked; a child that fails gives the value computed here.  The
error raised is the one of the serial order: a stage placed before this
process's work wins over that work's error, a stage placed after it
loses, and its child is killed.  No child is left on any path (the
autouse fixture of conftest.py checks this after every test, too).
"""

import os
import threading
import time

import pytest

from flatsurf4._fork import Forked, can_fork

from test_writers import _allow_cpus


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pid_and(x):
    return os.getpid(), x


def _fail_in_child(parent):
    def fn(x):
        if os.getpid() != parent:
            raise RuntimeError("the child fails")
        return os.getpid(), x
    return fn


@pytest.mark.parametrize("place", [Forked.before, Forked.after])
def test_child_computes_the_value(monkeypatch, place):
    forks = _allow_cpus(monkeypatch, 2)
    with place(_pid_and, 7) as stage:
        pid, x = stage.result()
    assert x == 7 and pid != os.getpid()
    assert len(forks) == 1
    _no_child_left()


@pytest.mark.parametrize("place", [Forked.before, Forked.after])
def test_failed_child_gives_the_value_computed_here(monkeypatch, place):
    forks = _allow_cpus(monkeypatch, 2)
    with place(_fail_in_child(os.getpid()), 7) as stage:
        assert stage.result() == (os.getpid(), 7)
    assert len(forks) == 1
    _no_child_left()


def test_child_killed_by_a_signal_gives_the_value_computed_here(monkeypatch):
    forks = _allow_cpus(monkeypatch, 2)
    parent = os.getpid()

    def fn():
        if os.getpid() != parent:
            os.kill(os.getpid(), 9)
        return "here"

    with Forked.after(fn) as stage:
        assert stage.result() == "here"
    assert len(forks) == 1


def test_no_fork_with_one_cpu(monkeypatch):
    forks = _allow_cpus(monkeypatch, 1)
    assert not can_fork()
    with Forked.after(_pid_and, 3) as stage:
        assert stage.result() == (os.getpid(), 3)
    assert forks == []


def test_no_fork_beside_another_thread(monkeypatch):
    forks = _allow_cpus(monkeypatch, 2)
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(10,))
    thread.start()
    try:
        assert not can_fork()
        with Forked.before(_pid_and, 3) as stage:
            assert stage.result() == (os.getpid(), 3)
    finally:
        done.set()
        thread.join(10)
    assert not thread.is_alive()
    assert forks == []


def test_no_child_when_fork_raises(monkeypatch):
    _allow_cpus(monkeypatch, 2)

    def fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", fork)
    with Forked.after(_pid_and, 3) as stage:
        assert stage.result() == (os.getpid(), 3)
    _no_child_left()


def test_before_runs_at_once_without_a_child(monkeypatch):
    # one CPU: a stage placed before this process's work is computed when
    # it is placed, so the serial order (and its memory) is that of a
    # plain call
    _allow_cpus(monkeypatch, 1)
    order = []
    with Forked.before(order.append, "stage") as stage:
        order.append("own work")
        stage.result()
    assert order == ["stage", "own work"]
    order.clear()
    with Forked.after(order.append, "stage") as stage:
        order.append("own work")
        stage.result()
    assert order == ["own work", "stage"]


def _fails(message):
    def fn(*args):
        raise ValueError(message)
    return fn


@pytest.mark.parametrize("cpus", [1, 2])
def test_before_error_wins_over_own_error(monkeypatch, cpus):
    _allow_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match="the stage fails"):
        with Forked.before(_fails("the stage fails")):
            raise RuntimeError("own work fails")
    _no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_own_error_wins_over_after_error(monkeypatch, cpus):
    _allow_cpus(monkeypatch, cpus)
    with pytest.raises(RuntimeError, match="own work fails"):
        with Forked.after(_fails("the stage fails")):
            raise RuntimeError("own work fails")
    _no_child_left()


@pytest.mark.parametrize("place", [Forked.before, Forked.after])
def test_stage_error_is_raised_by_result(monkeypatch, place):
    _allow_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="the stage fails"):
        with place(_fails("the stage fails")) as stage:
            stage.result()
    _no_child_left()


def test_own_error_kills_a_running_child(monkeypatch):
    # the child of an after stage would run for a minute; the error of this
    # process's work kills and reaps it at once
    forks = _allow_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="own work fails"):
        with Forked.after(time.sleep, 60):
            raise RuntimeError("own work fails")
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    _no_child_left()


def test_before_stage_without_an_error_lets_own_error_through(monkeypatch):
    forks = _allow_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="own work fails"):
        with Forked.before(_pid_and, 1):
            raise RuntimeError("own work fails")
    assert len(forks) == 1
    _no_child_left()


def test_unread_result_leaves_no_child(monkeypatch):
    _allow_cpus(monkeypatch, 2)
    with Forked.after(_pid_and, 1):
        pass
    _no_child_left()
