"""Format a streamed float table in a forked writer process.

:class:`ForkedWriter` wraps a block sink, ``cli._TableSink``, whose
``out`` has a file descriptor.  At the first block the parent writes and
flushes the sink's opening (the CSV header or the JSON bracket) and forks.
From then on each block goes down a pipe as one frame: its byte length as
a little-endian int64, then the raw float64 rows.  The child formats each
block with its copy of the same sink and writes the text to ``out``'s
descriptor, so the parent's integrator and the formatting run side by
side.  A frame of length 0 ends the table: the child writes the closing
and exits 0.  End of file without it, when the parent fails or is killed,
makes the child exit without the closing.  A child that fails sends its
exception back on a second pipe and exits; the parent raises it in place
of the ``BrokenPipeError`` its next frame meets.

Every raw write and read loops until all of its bytes are through, since a
signal handled during a pipe write, such as a profiler's SIGALRM, can cut
the write short.  The child leaves only through :func:`os._exit`, so it
never runs the caller's code, finalizers or exit handlers, and the parent
reaps it before :meth:`ForkedWriter.__exit__` returns or raises.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
import signal
import struct
import warnings

import numpy as np

__all__ = ["ForkedWriter"]

# a frame's byte length; 0 is the end frame, since every block has a row
_LENGTH = struct.Struct("<q")
# the child's exit codes other than 0 for a committed table
_FAILED, _ABORTED = 1, 2


class _Text(list):
    """An ``out`` that collects the sink's text for one raw write."""

    write = list.append

    def drain(self) -> bytes:
        data = "".join(self).encode("utf-8")
        self.clear()
        return data


def _write_all(fd: int, data) -> None:
    """Write all of ``data``, a bytes-like object, to ``fd``, however many writes it takes."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view) :]


def _read_into(fd: int, buffer: bytearray) -> bool:
    """Fill ``buffer`` from ``fd``; False if end of file comes first."""
    view = memoryview(buffer)
    while view:
        got = os.readv(fd, [view])
        if got == 0:
            return False
        view = view[got:]
    return True


class ForkedWriter:
    """Block sink that formats with ``sink`` in a forked child; a context manager.

    Without a file descriptor behind ``sink.out`` (``fileno`` raises
    :class:`io.UnsupportedOperation`, as :class:`io.StringIO`'s does), or
    when the fork fails, the blocks go to ``sink`` in this process.
    Leaving the ``with`` block cleanly ends the table and raises the
    child's error if it had one; leaving it on an exception aborts the
    table.  Either way no child is left.
    """

    def __init__(self, sink):
        self.sink = sink
        self.send = None  # the per-block call, chosen at the first block
        self.child = []  # the writer's pid, until it is reaped

    def __call__(self, block: np.ndarray):
        if self.send is None:
            self.send = self._start(block.shape[1])
        self.send(block)

    def _start(self, width: int):
        """Fork the writer for rows of ``width`` floats; returns the per-block call."""
        out = self.sink.out
        try:
            fd = out.fileno()
        except io.UnsupportedOperation:
            return self.sink
        self.sink.begin()
        out.flush()
        frames_r, self.frames = os.pipe()
        self.errors, errors_w = os.pipe()
        try:
            self._fork(width, frames_r, fd, errors_w)
        except OSError:  # no process to spare: format here
            os.close(self.frames)
            os.close(self.errors)
            return self.sink
        finally:
            os.close(frames_r)
            os.close(errors_w)
        return self._send

    def _fork(self, width: int, frames_r: int, fd: int, errors_w: int):
        """Fork; in the child, serve the frames and exit, so only the parent returns."""
        # The child inherits the blocked mask, so none of the caller's signal
        # handlers runs in it; it ends at the end frame, at end of file or
        # at SIGKILL.  The pid is kept by list.extend, in C, so a handler's
        # exception in the parent (a signal another thread takes can raise
        # one at any bytecode) cannot come between the fork and the pid.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
        try:
            signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            # Safe to fork though numpy's OpenBLAS workers make this process
            # multi-threaded: the child only reads pipes, runs numpy's
            # elementwise ufuncs and Python's % formatting, calls no BLAS,
            # takes no lock those threads hold, and never returns into the
            # caller.  Python 3.12 warns of such forks; this one is meant.
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)", DeprecationWarning
                )
                self.child.extend(itertools.starmap(os.fork, [()]))
            if self.child == [0]:
                code = _FAILED
                try:
                    os.close(self.frames)
                    os.close(self.errors)
                    code = _serve(self.sink, width, frames_r, fd, errors_w)
                finally:
                    os._exit(code)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def _send(self, block: np.ndarray):
        try:
            _write_all(self.frames, _LENGTH.pack(block.nbytes))
            _write_all(self.frames, block)
        except BrokenPipeError:
            raise self._child_error(self._reap()) from None

    def _reap(self) -> int:
        """Close the frame pipe and wait for the writer; returns its exit code."""
        pid = self.child.pop()
        os.close(self.frames)
        try:
            _, status = os.waitpid(pid, 0)
        except BaseException:  # a signal handler's exception: the child must not outlive this call
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(self.errors)
            raise
        return os.waitstatus_to_exitcode(status)

    def _child_error(self, code: int) -> BaseException:
        """The exception the writer ended with, from its error pipe."""
        with open(self.errors, "rb") as fh:
            data = fh.read()
        if data:
            return pickle.loads(data)
        if code < 0:
            return RuntimeError(f"trajectory writer ended by signal {-code}")
        return RuntimeError(f"trajectory writer exited with status {code}")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if not self.child:
            # formatted here, or the writer was reaped and its error raised
            if exc_type is None:
                self.sink.close()
            return False
        if exc_type is not None:
            self._reap()
            os.close(self.errors)
            return False
        try:
            _write_all(self.frames, _LENGTH.pack(0))
        except BrokenPipeError:
            pass  # the writer has failed; its error is read below
        code = self._reap()
        if code != 0:
            raise self._child_error(code)
        os.close(self.errors)
        return False


def _serve(sink, width: int, frames: int, fd: int, errors: int) -> int:
    """The writer's loop: format each frame into ``fd`` until the end frame; returns the exit code."""
    text = _Text()
    sink.out = text
    length = bytearray(_LENGTH.size)
    try:
        while _read_into(frames, length):
            (size,) = _LENGTH.unpack(length)
            if size == 0:
                sink.close()
                _write_all(fd, text.drain())
                return 0
            rows = bytearray(size)
            if not _read_into(frames, rows):
                break
            sink(np.frombuffer(rows).reshape(-1, width))
            _write_all(fd, text.drain())
        return _ABORTED
    except Exception as exc:  # noqa: BLE001 - every error goes back to the parent
        try:
            data = pickle.dumps(exc)
        except Exception:  # noqa: BLE001 - an exception that does not pickle
            data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        _write_all(errors, data)
        return _FAILED
