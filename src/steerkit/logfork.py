"""Format a simulation's log.csv in a forked child while the run goes on.

`ForkedLog(path)` is the writer that `simkit.run_scenario(..., writer=)`
takes.  Its row table lives in a shared anonymous mmap.  The child, forked
right after the table is made, formats the rows with
`numkit.write_csv_rows` into `path` as the parent tells it, over a pipe of
8-byte tokens, which rows are final: a watermark k >= 0 says rows [0, k)
will not change, a token -n says the log is rows [0, n).  The child
formats each whole CSV_BLOCK_ROWS block below the watermark, the rest once
the length is known, and leaves through `os._exit` (0 once the file is
complete), so it never flushes inherited stdio or runs atexit handlers.

`path` is where `cli.OutputDir` stages log.csv: the file is moved into
place only if the whole command succeeds.  `done`, after the run, waits for
the child and says whether the file is complete; if not, the caller writes
the log itself.  `abort` kills and reaps a child still running, on any
path.  The bytes equal `SimLog.to_csv`'s: same head, blocks and cell reprs.
"""

from __future__ import annotations

import mmap
import os
import signal
from pathlib import Path

import numpy as np

from .numkit import CSV_BLOCK_ROWS, write_csv_rows
from .simkit import LOG_HEAD

_TOKEN = 8  # bytes of one signed little-endian token


class ForkedLog:
    """A run's row table, whose final rows a forked child formats."""

    def __init__(self, path: Path):
        self.path = path
        self.pid = None
        self.pipe = None

    def table(self, shape: tuple[int, int]) -> np.ndarray:
        """A fresh float64 row table in shared memory, with a child formatting
        it; without a child (fork failed) done() returns False."""
        rows = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1]), dtype=float).reshape(shape)
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
        """Rows [0, k) are final (k >= 0), or the log is rows [0, -k)."""
        if self.pipe is not None:
            try:
                os.write(self.pipe, k.to_bytes(_TOKEN, "little", signed=True))
            except OSError:   # the child is gone; done() sees how it ended
                self._close_pipe()

    def finish(self, n: int) -> None:
        """The log is rows [0, n)."""
        self.publish(-n)
        self._close_pipe()

    def done(self) -> bool:
        """Wait for the child; True when it exited 0, so `path` holds the whole log."""
        if self.pid is None:
            return False
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

    def _close_pipe(self) -> None:
        if self.pipe is not None:
            os.close(self.pipe)
            self.pipe = None


def _format(rows: np.ndarray, pipe: int, path: Path) -> int:
    """The child: format the rows the tokens on `pipe` make final into the
    file at `path`, in the artifacts' dialect; 0 once the whole log is
    written, 1 if the pipe closes before its length comes."""
    out = open(path, "w", encoding="utf-8", newline="\n")
    out.write(LOG_HEAD)
    done = 0
    while True:
        token = b""
        while len(token) < _TOKEN:
            part = os.read(pipe, _TOKEN - len(token))
            if not part:
                return 1
            token += part
        k = int.from_bytes(token, "little", signed=True)
        end = -k if k < 0 else k - k % CSV_BLOCK_ROWS
        if end > done:
            write_csv_rows(out, rows[done:end])
            out.flush()
            done = end
        if k < 0:
            return 0
