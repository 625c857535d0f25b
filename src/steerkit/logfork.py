"""Format a simulation's log.csv in a forked child while the run goes on.

`ForkedLog` is the writer that `simkit.run_scenario(..., writer=)` takes.
Its row table lives in a shared anonymous mmap.  The child, forked right
after the table is made, formats the rows with `numkit.write_csv_rows`
into an unnamed temporary file as the parent tells it, over a pipe of
8-byte tokens, which rows are final: a watermark k >= 0 says rows [0, k)
will not change, a token -n says the log is rows [0, n).  The child
formats each whole CSV_BLOCK_ROWS block below the watermark, the rest once
the length is known, and leaves through `os._exit` (0 once the file is
complete), so it never flushes inherited stdio or runs atexit handlers.

The file is scratch space, not an artifact: only `commit`, after the run
has returned, copies it into the artifact its caller opened, so a run that
fails writes nothing.  `abort` kills and reaps a child still running, and
may be called on any path.  The bytes equal `SimLog.to_csv`'s: same head,
same blocks, same cell reprs.
"""

from __future__ import annotations

import mmap
import os
import shutil
import signal
import tempfile

import numpy as np

from .numkit import CSV_BLOCK_ROWS, write_csv_rows
from .simkit import LOG_HEAD

_TOKEN = 8  # bytes of one signed little-endian token


class ForkedLog:
    """A run's row table, whose final rows a forked child formats."""

    def __init__(self):
        self.pid = None
        self.pipe = None
        self.tmp = None

    def table(self, shape: tuple[int, int]) -> np.ndarray:
        """A fresh float64 row table in shared memory, with a child formatting
        it; without a child (fork failed) commit() returns False."""
        rows = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1]), dtype=float).reshape(shape)
        r = None
        try:
            self.tmp = tempfile.TemporaryFile()
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
                code = _format(rows, r, self.tmp.fileno())
            finally:
                os._exit(code)
        os.close(r)
        return rows

    def publish(self, k: int) -> None:
        """Rows [0, k) are final (k >= 0), or the log is rows [0, -k)."""
        if self.pipe is not None:
            try:
                os.write(self.pipe, k.to_bytes(_TOKEN, "little", signed=True))
            except OSError:   # the child is gone; commit() sees how it ended
                self._close_pipe()

    def finish(self, n: int) -> None:
        """The log is rows [0, n)."""
        self.publish(-n)
        self._close_pipe()

    def commit(self, file) -> bool:
        """Wait for the child and copy its file into the binary file `file`;
        False when there is no child or it did not exit 0, and nothing is written then."""
        if self.pid is None:
            return False
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status != 0:
            return False
        self.tmp.seek(0)
        shutil.copyfileobj(self.tmp, file)
        return True

    def abort(self) -> None:
        """Kill and reap the child if it still runs; drop the pipe and file."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self._close_pipe()
        if self.tmp is not None:
            self.tmp.close()
            self.tmp = None

    def _close_pipe(self) -> None:
        if self.pipe is not None:
            os.close(self.pipe)
            self.pipe = None


def _format(rows: np.ndarray, pipe: int, fd: int) -> int:
    """The child: format the rows the tokens on `pipe` make final into file
    descriptor `fd`; 0 once the whole log is written, 1 if the pipe closes
    before its length comes."""
    out = open(fd, "w", encoding="utf-8", newline="\n", closefd=False)
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
