"""Format a simulation's log.csv in a forked child while the run goes on.

`ForkedLog(path)` is the writer that `simkit.run_scenario(..., writer=)`
takes.  Its row table lives in a shared anonymous mmap, with one more
cell where the child keeps the count of rows it has written.  The child,
forked right after the table is made, appends the rows to `path` in order,
as the run process tells it over a pipe of 8-byte tokens, each a row count
or block number and a kind: rows [0, k) are final (and will not change),
the log is rows [0, n), block b's text is handed over.  The run process
sends a final token at every flush, so the child follows the run a flush
behind.  The child never waits on the pipe: it drains it with a zero-timeout
select, and when it has nothing to write it sleeps off the pipe (_IDLE), so
a token write never wakes it.  It writes the final rows up to the next
CSV_BLOCK_ROWS boundary at a time, the rest of the log once the length is
known, and leaves through `os._exit` (0 once the file is complete), so it
never flushes inherited stdio or runs atexit handlers.

The run process formats blocks too.  Whenever the child is two or more
whole blocks behind, not counting the block it is writing (checked each
time a block becomes final, and in `done` before the wait), the run
process formats the newest final block into a handoff file beside `path`,
then hands it over with one token.  The child, which looks for tokens
before each write, copies a block handed over by then into place when it
reaches the block's first row, and formats any other rows itself.
`numkit.write_csv_rows` output does not depend on where a run of rows
starts, so the bytes are the same whoever formats a row and wherever a
write starts, and a handoff the child sees too late only costs the run
process its work.

`path` is where `cli.OutputDir` stages log.csv: the file is moved into
place only if the whole command succeeds.  `done`, after the run, waits for
the child and says whether the file is complete; if not, the caller writes
the log itself.  `abort` kills and reaps a child still running, and
removes every handoff left, on any path.  The bytes equal
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

_TOKEN = 8  # bytes of one signed little-endian token: value * 4 + kind
_FINAL, _LENGTH, _HANDOFF = range(3)
_IDLE = 0.0005                # s the child sleeps, off the pipe, with nothing to write


class ForkedLog:
    """A run's row table, whose final rows a forked child formats."""

    def __init__(self, path: Path):
        self.path = path
        self.pid = None
        self.pipe = None
        self.handed: set[int] = set()   # blocks taken, whose handoffs abort removes

    def table(self, shape: tuple[int, int]) -> np.ndarray:
        """A fresh float64 row table in shared memory, with a child formatting
        it; without a child (fork failed) done() returns False."""
        cells = shape[0] * shape[1]
        shared = mmap.mmap(-1, 8 * (cells + 1))
        rows = np.frombuffer(shared, dtype=float, count=cells).reshape(shape)
        written = np.frombuffer(shared, dtype=np.int64, count=1, offset=8 * cells)
        self.rows, self.written = rows, written
        self.blocks, self.n = 0, None   # final blocks, length
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
                code = _format(rows, written, r, self.path)
            finally:
                os._exit(code)
        os.close(r)
        return rows

    def publish(self, k: int) -> None:
        """Rows [0, k) are final: tell the child.  Where that completes a
        block, take the newest block if the child is two or more whole
        blocks behind (`_take`)."""
        self._send(k, _FINAL)
        if k // CSV_BLOCK_ROWS > self.blocks:
            self.blocks = k // CSV_BLOCK_ROWS
            self._take(self.blocks - 1, k)

    def finish(self, n: int) -> None:
        """The log is rows [0, n)."""
        self._send(n, _LENGTH)
        self.n = n

    def done(self) -> bool:
        """Take the newest blocks while the child is two or more behind
        (`_take`), then wait for it; True when it exited 0, so `path` holds
        the whole log."""
        if self.pid is None:
            return False
        if self.n is not None:
            b = -(-self.n // CSV_BLOCK_ROWS)
            while b > 0 and (b - 1 in self.handed or self._take(b - 1, self.n)):
                b -= 1
        self._close_pipe()
        if self.pid is None:   # stopped where a handoff could not be made
            return False
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return status == 0

    def abort(self) -> None:
        """Kill and reap the child if it still runs; drop the pipe and the handoffs."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self._close_pipe()
        self._remove_handoffs()

    def _take(self, b: int, final: int) -> bool:
        """Format block b of the rows below `final` into its handoff and hand
        it over, if the child has two whole blocks before it still to write:
        the one it may be writing and one more; True if the block was handed
        over."""
        lo = b * CSV_BLOCK_ROWS
        if self.pipe is None or lo - int(self.written[0]) < 2 * CSV_BLOCK_ROWS:
            return False
        self.handed.add(b)
        try:
            with open(_handoff(self.path, b), "w", encoding="utf-8", newline="\n") as f:
                write_csv_rows(f, self.rows[lo:min(lo + CSV_BLOCK_ROWS, final)])
        except OSError:   # a failing disk: stop the child, the log is written serially
            self.abort()
            return False
        self._send(b, _HANDOFF)
        return self.pipe is not None

    def _send(self, value: int, kind: int) -> None:
        if self.pipe is not None:
            try:
                os.write(self.pipe, (value * 4 + kind).to_bytes(_TOKEN, "little", signed=True))
            except OSError:   # the child is gone; done() sees how it ended
                self._close_pipe()

    def _close_pipe(self) -> None:
        if self.pipe is not None:
            os.close(self.pipe)
            self.pipe = None

    def _remove_handoffs(self) -> None:
        for b in self.handed:
            _handoff(self.path, b).unlink(missing_ok=True)
        self.handed = set()


def _handoff(path: Path, b: int) -> Path:
    """Where the run process hands block b of the log at `path` over."""
    return path.with_name(f"{path.name}.{b}")


def _format(rows: np.ndarray, written: np.ndarray, pipe: int, path: Path) -> int:
    """The child: append the rows the tokens on `pipe` make final to the
    file at `path`, in the artifacts' dialect, up to the next block boundary
    at a time, each block handed over before the child gets to its first row
    from its handoff, and keep the count in written[0]; 0 once the whole log
    is written, 1 if the pipe closes first."""
    out = open(path, "w", encoding="utf-8", newline="\n")
    out.write(LOG_HEAD)
    final, n, done, handed = 0, None, 0, set()
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
                value, kind = token >> 2, token & 3
                if kind == _FINAL:
                    final = value
                elif kind == _LENGTH:
                    n = value
                else:
                    handed.add(value)
            pending = pending[usable:]
        if done == n:   # before `closed`: the length and the pipe's end can come in one drain
            return 0
        b, start = divmod(done, CSV_BLOCK_ROWS)
        end = min(done - start + CSV_BLOCK_ROWS, final if n is None else n)
        if done >= end:
            if closed:
                return 1
            time.sleep(_IDLE)   # off the pipe: a token written meanwhile wakes no one
            continue
        if start == 0 and b in handed:
            handoff = _handoff(path, b)
            out.write(handoff.read_text(encoding="utf-8"))
            handoff.unlink()
        else:
            write_csv_rows(out, rows[done:end])
        out.flush()
        done = written[0] = end
