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
the write short.  The fork, the error pipe and the reap are
:class:`vaxgame.forking.ForkedChild`'s; the parent reaps the writer before
:meth:`ForkedWriter.__exit__` returns or raises.
"""

from __future__ import annotations

import io
import os
import struct

import numpy as np

from .forking import ForkedChild, _write_all

__all__ = ["ForkedWriter"]

# a frame's byte length; 0 is the end frame, since every block has a row
_LENGTH = struct.Struct("<q")
# the writer's exit code at end of file before the end frame
_ABORTED = 2


class _Text(list):
    """An ``out`` that collects the sink's text for one raw write."""

    write = list.append

    def drain(self) -> bytes:
        data = "".join(self).encode("utf-8")
        self.clear()
        return data


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
        self.child = ForkedChild("trajectory writer")

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
        try:
            forked = self.child.start(lambda: _serve(self.sink, width, frames_r, fd), self.frames)
        finally:
            os.close(frames_r)
        if not forked:  # no process to spare: format here
            os.close(self.frames)
            return self.sink
        return self._send

    def _send(self, block: np.ndarray):
        try:
            _write_all(self.frames, _LENGTH.pack(block.nbytes))
            _write_all(self.frames, block)
        except BrokenPipeError:
            raise self._finish() from None

    def _finish(self):
        """Close the frame pipe and reap the writer; returns its error, None if it committed."""
        os.close(self.frames)
        return self.child.finish()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if not self.child.pid:
            # formatted here, or the writer was reaped and its error raised
            if exc_type is None:
                self.sink.close()
            return False
        if exc_type is not None:
            self._finish()
            return False
        try:
            _write_all(self.frames, _LENGTH.pack(0))
        except BrokenPipeError:
            pass  # the writer has failed; its error is read below
        error = self._finish()
        if error is not None:
            raise error
        return False


def _serve(sink, width: int, frames: int, fd: int) -> int:
    """The writer's loop: format each frame into ``fd`` until the end frame; returns the exit code."""
    text = _Text()
    sink.out = text
    length = bytearray(_LENGTH.size)
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
