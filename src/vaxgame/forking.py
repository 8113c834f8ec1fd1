"""The package's one fork primitive, and the cost split built on it.

:class:`ForkedChild` forks a child that runs one function and exits.  The
forked trajectory writer (:mod:`vaxgame.forkwriter`) and
:func:`interleave`, which solves the odd-indexed costs of a sweep in a
child while the parent solves the even ones, are its two users.

The child leaves only through :func:`os._exit`, so it never runs the
caller's code, finalizers or exit handlers.  An exception it ends with is
pickled back on an error pipe, and the parent raises it as its own.  The
parent reaps the child in :meth:`ForkedChild.finish`; if a signal
handler's exception interrupts that wait, the child is killed and reaped
before the exception goes on.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import warnings

__all__ = ["ForkedChild", "interleave"]

# the exit code of a child whose function raised
_FAILED = 1


def _write_all(fd: int, data) -> None:
    """Write all of ``data``, a bytes-like object, to ``fd``, however many writes it takes."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view) :]


class ForkedChild:
    """One forked child process, from :meth:`start` until :meth:`finish` reaps it.

    ``name`` says what the child does, in the error raised for a child
    that ends by a signal or exits without sending an exception back.
    The handle is made before the fork, so a caller that holds it can
    always reap the child, whatever exception reaches it after the fork.
    """

    def __init__(self, name: str):
        self.name = name
        self.pid = []  # the child's pid, until it is reaped
        self.errors = None  # the read end of the error pipe

    def start(self, work, *inherited: int) -> bool:
        """Fork a child that closes ``inherited`` and runs ``work()``; only the parent returns.

        ``work`` returns the child's exit code.  If it raises, the child
        pickles the exception back and exits 1.  ``inherited`` are
        descriptors the child must not hold, such as the parent's end of
        a pipe whose end of file the child waits for.  Returns False, with
        no child and no descriptor of its own left open, when the fork
        fails.
        """
        self.errors, errors_w = os.pipe()
        # The child inherits the blocked mask, so none of the caller's signal
        # handlers runs in it; it ends when ``work`` returns or raises, or at
        # SIGKILL.  The pid is kept by list.extend, in C, so a handler's
        # exception in the parent (a signal another thread takes can raise
        # one at any bytecode) cannot come between the fork and the pid.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
        try:
            signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                # Safe to fork though numpy's OpenBLAS workers make this
                # process multi-threaded.  The child takes no lock those
                # threads hold and never returns into the caller.  A child
                # that calls BLAS (the cost split's root kernel does, in its
                # matrix-vector product) finds no stale pool: OpenBLAS's
                # pthread_atfork handler stops its thread pool before a fork,
                # and the child starts its own on first use.  Python 3.12
                # warns of such forks; this one is meant.
                with warnings.catch_warnings():
                    warnings.filterwarnings(
                        "ignore",
                        r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                        DeprecationWarning,
                    )
                    self.pid.extend(itertools.starmap(os.fork, [()]))
            except OSError:  # no process to spare
                os.close(self.errors)
                return False
            if self.pid == [0]:
                code = _FAILED
                try:
                    os.close(self.errors)
                    for fd in inherited:
                        os.close(fd)
                    code = _run(work, errors_w)
                finally:
                    os._exit(code)
        finally:
            os.close(errors_w)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        return True

    def finish(self, kill: bool = False):
        """Reap the child, killing it first if ``kill``; returns its error, None if it exited 0.

        The error is the exception the child sent back, or a
        :class:`RuntimeError` naming the signal or exit status.
        """
        pid = self.pid.pop()
        try:
            if kill:
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
        except BaseException:  # a signal handler's exception: the child must not outlive this call
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(self.errors)
            raise
        code = os.waitstatus_to_exitcode(status)
        with open(self.errors, "rb") as fh:
            data = fh.read()
        if code == 0:
            return None
        if data:
            return pickle.loads(data)
        if code < 0:
            return RuntimeError(f"{self.name} ended by signal {-code}")
        return RuntimeError(f"{self.name} exited with status {code}")


def _run(work, errors: int) -> int:
    """The child's body: ``work()``'s exit code, or 1 once its exception is on ``errors``."""
    try:
        return work()
    except Exception as exc:  # noqa: BLE001 - every error goes back to the parent
        try:
            data = pickle.dumps(exc)
        except Exception:  # noqa: BLE001 - an exception that does not pickle
            data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        _write_all(errors, data)
        return _FAILED


def interleave(solve, count: int) -> list:
    """``[solve(i) for i in range(count)]``, the odd ``i`` solved in a forked child.

    This process solves the even indices while the child solves the odd
    ones and sends its results back pickled, so each index's result is
    the object ``solve`` made, bytes and type alike.  Each side stops at
    its first failure; the exception raised is that of the lowest failing
    index, as the serial loop would raise it.  Whatever ``solve`` caches
    (a ladder of rungs) fills separately on each side.  When the fork
    fails, every index is solved here.  No child is left when this
    returns or raises.
    """
    rows_r, rows_w = os.pipe()
    child = ForkedChild("cost solver")
    with open(rows_r, "rb") as rows:
        try:
            try:
                forked = child.start(lambda: _solve_odd(solve, count, rows_w), rows_r)
            finally:
                os.close(rows_w)
            if not forked:  # no process to spare: solve them all here
                return [solve(i) for i in range(count)]
            evens, failure = _solve_until_failure(solve, range(0, count, 2))
            data = rows.read()
        except BaseException:
            if child.pid:
                child.finish(kill=True)
            raise
    error = child.finish()
    try:
        odds = pickle.loads(data)
    except Exception:
        if error is None:
            raise
        odds = []  # the child ended before it sent its results
    failures = [(2 * len(evens), failure), (2 * len(odds) + 1, error)]
    failed = [f for f in failures if f[1] is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    merged = [None] * count
    merged[::2], merged[1::2] = evens, odds
    return merged


def _solve_until_failure(solve, indices) -> tuple:
    """The results of ``solve`` over ``indices`` up to the first failure, and that exception or None."""
    done = []
    try:
        for i in indices:
            done.append(solve(i))
    except Exception as exc:  # noqa: BLE001 - reported by index, after the other side's results
        return done, exc
    return done, None


def _solve_odd(solve, count: int, fd: int) -> int:
    """The child's half: send the odd-index results up to its first failure, then raise that."""
    done, failure = _solve_until_failure(solve, range(1, count, 2))
    _write_all(fd, pickle.dumps(done))
    if failure is not None:
        raise failure
    return 0
