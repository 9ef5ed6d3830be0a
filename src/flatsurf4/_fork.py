"""A stage computed by a forked child beside this process's own work.

A build has stages that only read what this process already holds and
return a small record (the flat-map check, the tangency checks), and a
writer formats one half of a file while the other half is formatted here.
On a host with two allowed CPUs a forked child computes such a stage while
this process goes on with the next: the child reads the parent's arrays
copy-on-write, sends back its pickled result through a pipe and leaves
with os._exit, so it never returns into the caller and runs no exit hook.
Where no child can be forked, or the child fails, this process computes
the stage itself, at the stage's place in the serial order, so every path
gives the same value and raises the same error.
"""

import os
import pickle
import signal
import threading

_NONE = object()  # no value yet


def can_fork():
    """True where a child may be forked: os.fork exists, at least two CPUs
    are allowed, and this process runs one thread (a child forked beside
    other threads may wait forever on a lock one of them held)."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


class Forked:
    """fn(*args), computed by a forked child while this process goes on.

    Use it as a context manager and read the value with result(); the
    child is reaped on every path.  Forked.before(fn, *args) places fn
    before this process's own work in the serial order: without a child
    fn is computed at once, and leaving the with-block on an error waits
    for the child, so fn's own error wins.  Forked.after(fn, *args) places
    fn after it: without a child result() computes fn, and leaving the
    with-block on an error kills and reaps the child, so this process's
    error wins.
    """

    def __init__(self, fn, args, before):
        self._call, self._before = (fn, args), before
        self._pid = self._pipe = None
        self._value = _NONE
        if can_fork():
            self._fork()
        if self._pid is None and before:
            self._value = fn(*args)

    @classmethod
    def before(cls, fn, *args):
        return cls(fn, args, True)

    @classmethod
    def after(cls, fn, *args):
        return cls(fn, args, False)

    def _fork(self):
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            os.close(r)
            os.close(w)
            return
        if pid == 0:
            code = 1
            try:
                os.close(r)
                fn, args = self._call
                with open(w, "wb") as out:
                    pickle.dump(fn(*args), out)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self._pid, self._pipe = pid, r

    def _wait(self):
        pid, self._pid = self._pid, None
        return os.waitpid(pid, 0)[1]

    def result(self):
        """fn(*args): the child's value, or computed here if there was no
        child or the child failed."""
        if self._pid is not None:
            try:
                with open(self._pipe, "rb") as src:
                    data = src.read()
            finally:
                status = self._wait()
            if status == 0:
                self._value = pickle.loads(data)
        if self._value is _NONE:
            fn, args = self._call
            self._value = fn(*args)
        return self._value

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._pid is not None:
            if exc_type is not None and self._before:
                self.result()
            else:
                os.kill(self._pid, signal.SIGKILL)
                os.close(self._pipe)
                self._wait()
        return False
