"""Format a simulation's log.csv in a forked child while the run goes on.

`ForkedLog(path)` is the writer that `simkit.run_scenario(..., writer=)`
takes.  Its row table lives in a shared anonymous mmap.  The child, forked
right after the table is made, is the only process that formats the log:
it appends the rows to `path` in order, as the run process tells it over a
pipe of 8-byte tokens, each a row count and a kind: rows [0, k) are final
(and will not change), or the log is rows [0, n).  The run process sends a
final token at every flush, so the child follows the run a flush behind.
The pipe also orders the run process's row stores before the child reads
them, and its end tells the child the run process is gone.  The child never
waits on the pipe: it drains it with a zero-timeout select, and when it has
nothing to write it sleeps off the pipe (_IDLE), so a token write never
wakes it.  It writes the final rows up to the next CSV_BLOCK_ROWS boundary
at a time, the rest of the log once the length is known, and leaves through
`os._exit` (0 once the file is complete), so it never flushes inherited
stdio or runs atexit handlers.

`path` is where `cli.OutputDir` stages log.csv: the file is moved into
place only if the whole command succeeds.  `done`, after the run, waits for
the child, however far behind it is, and says whether the file is
complete; if not, the caller writes the log itself.  `abort` kills and
reaps a child still running, on any path.  The bytes equal
`SimLog.to_csv`'s: same head, blocks and cell reprs.
"""

from __future__ import annotations

import mmap
import os
import select
import signal
import time
from pathlib import Path

import numpy as np

from .numkit import CSV_BLOCK_ROWS, write_csv_rows
from .simkit import LOG_HEAD

_TOKEN = 8  # bytes of one signed little-endian token: value * 2 + kind
_FINAL, _LENGTH = range(2)
_IDLE = 0.0005                # s the child sleeps, off the pipe, with nothing to write


class ForkedLog:
    """A run's row table, whose final rows a forked child formats."""

    def __init__(self, path: Path):
        self.path = path
        self.pid = None
        self.pipe = None

    def table(self, shape: tuple[int, int]) -> np.ndarray:
        """A fresh float64 row table in shared memory, with a child formatting
        it; without a child (fork failed) done() returns False."""
        cells = shape[0] * shape[1]
        rows = np.frombuffer(mmap.mmap(-1, 8 * cells), dtype=float).reshape(shape)
        r = None
        try:
            r, self.pipe = os.pipe()
            self.pid = os.fork()
        except OSError:   # no child: the log is formatted serially
            self.abort()
            if r is not None:
                os.close(r)
            return rows
        if self.pid == 0:
            code = 1
            try:
                os.close(self.pipe)
                code = _format(rows, r, self.path)
            finally:
                os._exit(code)
        os.close(r)
        return rows

    def publish(self, k: int) -> None:
        """Rows [0, k) are final."""
        self._send(k, _FINAL)

    def finish(self, n: int) -> None:
        """The log is rows [0, n)."""
        self._send(n, _LENGTH)

    def done(self) -> bool:
        """Wait for the child; True when it exited 0, so `path` holds the
        whole log."""
        if self.pid is None:
            return False
        self._close_pipe()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return status == 0

    def abort(self) -> None:
        """Kill and reap the child if it still runs; drop the pipe."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self._close_pipe()

    def _send(self, value: int, kind: int) -> None:
        if self.pipe is not None:
            try:
                os.write(self.pipe, (value * 2 + kind).to_bytes(_TOKEN, "little", signed=True))
            except OSError:   # the child is gone; done() sees how it ended
                self._close_pipe()

    def _close_pipe(self) -> None:
        if self.pipe is not None:
            os.close(self.pipe)
            self.pipe = None


def _format(rows: np.ndarray, pipe: int, path: Path) -> int:
    """The child: append the rows the tokens on `pipe` make final to the
    file at `path`, in the artifacts' dialect, up to the next block boundary
    at a time; 0 once the whole log is written, 1 if the pipe closes first."""
    out = open(path, "w", encoding="utf-8", newline="\n")
    out.write(LOG_HEAD)
    final, n, done = 0, None, 0
    pending, closed = b"", False
    while True:
        # take every token that has come, never waiting for one
        while not closed and select.select([pipe], [], [], 0.0)[0]:
            part = os.read(pipe, 4096)
            closed = not part
            pending += part
            usable = len(pending) - len(pending) % _TOKEN
            for i in range(0, usable, _TOKEN):
                token = int.from_bytes(pending[i:i + _TOKEN], "little", signed=True)
                value, kind = token >> 1, token & 1
                if kind == _FINAL:
                    final = value
                else:
                    n = value
            pending = pending[usable:]
        if done == n:   # before `closed`: the length and the pipe's end can come in one drain
            return 0
        end = min(done - done % CSV_BLOCK_ROWS + CSV_BLOCK_ROWS, final if n is None else n)
        if done >= end:
            if closed:
                return 1
            time.sleep(_IDLE)   # off the pipe: a token written meanwhile wakes no one
            continue
        write_csv_rows(out, rows[done:end])
        out.flush()
        done = end
