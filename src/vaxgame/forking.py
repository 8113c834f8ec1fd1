"""The package's one fork primitive, its one gate, and the two forks built on them.

:class:`ForkedChild` forks a child that runs one function and exits.  It
has two users: :func:`interleave`, which solves the odd-indexed costs of
a sweep in a child while the parent solves the even ones, and
:class:`ForkedWriter`, which formats a streamed trajectory in a child
while the parent integrates.  Both fork only where a second process may
run (:func:`_second_process`): ``os.fork`` exists and at least two CPUs
are usable, read from ``os.sched_getaffinity`` where the platform has it
and from ``os.cpu_count()`` otherwise.  Without that, or when the fork
fails, the same work runs in this process, with the same results.

The child leaves only through :func:`os._exit`, so it never runs the
caller's code, finalizers or exit handlers.  An exception it ends with is
pickled back on an error pipe, and the parent raises it as its own.  The
parent reads that pipe to its end and then reaps the child in
:meth:`ForkedChild.finish`; if a signal handler's exception interrupts
either, the child is killed and reaped before the exception goes on.
Every raw write loops until all of its bytes are through, since a signal
handled during a pipe write, such as a profiler's SIGALRM, can cut the
write short.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
import signal
import warnings

import numpy as np

__all__ = ["ForkedChild", "ForkedWriter", "interleave"]

# the exit code of a child whose function raised
_FAILED = 1


def _second_process() -> bool:
    """Whether a second process may run: ``os.fork`` exists and two CPUs are usable."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


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
        :class:`RuntimeError` naming the signal or exit status.  The error
        pipe is read to its end before the wait, so a child blocked on
        an exception larger than the pipe holds can finish writing it.
        """
        pid = self.pid.pop()
        try:
            with open(self.errors, "rb") as fh:
                if kill:
                    os.kill(pid, signal.SIGKILL)
                data = fh.read()
            _, status = os.waitpid(pid, 0)
        except BaseException:  # a signal handler's exception: the child must not outlive this call
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        code = os.waitstatus_to_exitcode(status)
        if code == 0:
            return None
        if code < 0:  # what it sent may be cut short
            return RuntimeError(f"{self.name} ended by signal {-code}")
        if data:
            return pickle.loads(data)
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

    The table commands, ``solve pne``, ``opt`` and ``bounds``, run their
    costs through this.  With fewer than two indices, where no second
    process may run, or when the fork fails, the loop runs here.  Else
    this process solves the even indices while the child solves the odd
    ones and sends its results back pickled, so each index's result is
    the object ``solve`` made, bytes and type alike.  Each side stops at
    its first failure; the exception raised is that of the lowest failing
    index, as the serial loop would raise it.  Whatever ``solve`` caches
    (a ladder of rungs) fills separately on each side.  No child is left
    when this returns or raises.
    """
    if count < 2 or not _second_process():
        return [solve(i) for i in range(count)]
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
    """The child's half: send the odd-index results up to its first failure, then raise that.

    ``fd`` is closed once the results are through, so the parent's read
    of them ends before the child sends back an exception of any size.
    """
    done, failure = _solve_until_failure(solve, range(1, count, 2))
    try:
        _write_all(fd, pickle.dumps(done))
    finally:
        os.close(fd)
    if failure is not None:
        raise failure
    return 0


class ForkedWriter:
    """Block sink that formats with ``sink`` in a forked child; a context manager.

    ``sink``, a ``cli._TableSink``, writes its opening (the CSV header or the
    JSON bracket) with its first block and its closing at ``close()``.  The
    first block decides: where a second process may run, ``sink.out`` has a
    ``fileno`` that does not raise :class:`io.UnsupportedOperation` (as
    :class:`io.StringIO`'s does) and the fork succeeds, each block's raw
    float64 rows go down a pipe.  The child formats them with its copy of
    ``sink`` into ``out``'s descriptor, past any text ``out`` buffers,
    while the parent integrates on, and exits 0 at end of file.
    Otherwise ``sink`` formats here, the same bytes.

    Leaving the ``with`` block closes the pipe and reaps the writer.  A
    failed writer sends its exception back; the parent raises it in place
    of the ``BrokenPipeError`` its next block meets, or on leaving the
    ``with`` block cleanly.  Only a clean exit writes the closing, here,
    after the writer is reaped, so a failed run, or a process that dies
    mid-stream, leaves a table without it.  Either way no child is left.
    """

    def __init__(self, sink):
        self.sink = sink
        self.send = None  # the per-block call, chosen at the first block
        self.child = ForkedChild("trajectory writer")

    def __call__(self, block: np.ndarray):
        if self.send is None:
            self.send = self._start(block.shape)
        self.send(block)

    def _start(self, shape: tuple):
        """Fork the writer, its buffer shaped like the first block; returns the per-block call."""
        fileno = getattr(self.sink.out, "fileno", None)
        if fileno is None or not _second_process():
            return self.sink
        try:
            fd = fileno()
        except io.UnsupportedOperation:
            return self.sink
        rows_r, self.rows = os.pipe()
        try:
            forked = self.child.start(lambda: _serve(self.sink, shape, rows_r, fd), self.rows)
        finally:
            os.close(rows_r)
        if not forked:  # no process to spare: format here
            os.close(self.rows)
            return self.sink
        return self._send

    def _send(self, block: np.ndarray):
        try:
            _write_all(self.rows, block)
        except BrokenPipeError:
            raise self._finish() from None

    def _finish(self):
        """Close the row pipe and reap the writer; returns its error, None if it exited 0."""
        os.close(self.rows)
        return self.child.finish()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.child.pid:
            error = self._finish()
            if exc_type is None and error is not None:
                raise error
        if exc_type is None:
            self.sink.close()
        return False


def _serve(sink, shape: tuple, rows_r: int, fd: int) -> int:
    """The writer's loop: format the raw rows on ``rows_r`` into ``fd`` until end of file."""
    block = np.empty(shape)
    sink.out = open(fd, "w", encoding="utf-8", newline="\n", closefd=False)
    with open(rows_r, "rb") as rows:
        while size := rows.readinto(block):
            sink(block[: size // block[0].nbytes])
    sink.out.flush()
    return 0
