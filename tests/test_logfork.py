"""The forked log.csv formatter: its bytes are SimLog.to_csv's on every path."""

import atexit
import contextlib
import io
import json
import math
import os
import select
import signal
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from steerkit import SimulationError, cli, logfork
from steerkit.logfork import ForkedLog
from steerkit.numkit import CSV_BLOCK_ROWS
from steerkit.pathkit import gen_path
from steerkit.simkit import CSV_COLUMNS, ScenarioConfig, SimLog, run_scenario

from conftest import recorded_forks
from test_scenario_oracle import P, scenarios

SPECIALS = (0.0, -0.0, math.nan, math.inf, -math.inf)
VALUES = SPECIALS + (1.0, -1.5, 0.1, 1e-300, -2.5e300, 12345.678, 5e-324)


def serial_bytes(rows: np.ndarray) -> bytes:
    buf = io.StringIO()
    SimLog(rows).to_csv(buf)
    return buf.getvalue().encode("utf-8")


def committed(writer: ForkedLog) -> bytes:
    assert writer.done()
    writer.abort()
    return writer.path.read_bytes()


def leftovers(folder: Path) -> list[str]:
    """Files beside log.csv (log.csv.*) and stages (.steerkit-*) left in folder."""
    return sorted(p.name for p in folder.iterdir()
                  if p.name.startswith("log.csv.") or p.name.startswith(".steerkit-"))


@contextlib.contextmanager
def slow_child(seconds=0.04):
    """Each block a forked child formats takes `seconds` longer, so the run
    process gets blocks ahead of it and waits for it in done().  The patch is
    made before the fork; the list it yields gets the row count of each block
    the run process formats, which stays empty: the child formats every row."""
    parent, real, taken = os.getpid(), logfork.write_csv_rows, []

    def slowed(out, table):
        if os.getpid() == parent:
            taken.append(len(table))
        else:
            time.sleep(seconds)
        real(out, table)

    with mock.patch.object(logfork, "write_csv_rows", slowed):
        yield taken


def published(writer: ForkedLog, want: np.ndarray, n: int, every: int = 480) -> None:
    """Fill the writer's table with want's first n rows as a run does: a
    watermark every `every` rows, then the length."""
    rows = writer.table(want.shape)
    rows[:] = 7.77
    for k in range(every, n, every):
        rows[k - every:k] = want[k - every:k]
        writer.publish(k)
    rows[:n] = want[:n]
    writer.finish(n)


def _size(file: Path) -> int:
    """The bytes the child has written to file so far (0 before it opens it)."""
    return file.stat().st_size if file.exists() else 0


@st.composite
def tables(draw):
    """A row table of VALUES with runs of repeats, its log length (the whole
    table, or a path end short of it) and the watermarks published on the way."""
    rows = max(1, CSV_BLOCK_ROWS * draw(st.integers(0, 3)) + draw(st.sampled_from([-1, 0, 1])))
    n = rows if draw(st.booleans()) else draw(st.integers(1, rows))
    marks = sorted(draw(st.lists(st.integers(0, n), max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in CSV_COLUMNS:
        run = draw(st.sampled_from([1, 3, CSV_BLOCK_ROWS + 1]))
        cols.append(np.repeat(rng.choice(VALUES, size=rows // run + 1), run)[:rows])
    return np.column_stack(cols), n, marks


class Snapshots:
    """A writer without a child: a copy of the final rows at each watermark."""

    def table(self, shape):
        self.rows, self.snaps = np.empty(shape), []
        return self.rows

    def publish(self, k):
        self.snaps.append(self.rows[:k].copy())

    def finish(self, n):
        self.n = n

    def abort(self):
        pass


class TestForkedBytes:
    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table=tables(), rerun=st.booleans())
    def test_forked_log_equals_the_serial_one(self, table, rerun):
        # rows past the watermark hold a sentinel until they are published,
        # so a child that formats a row too early writes the sentinel
        want, n, marks = table
        with recorded_forks() as forks, tempfile.TemporaryDirectory() as tmp:
            writer = ForkedLog(Path(tmp) / "log.csv")
            if rerun:   # a table abandoned by abort(), then a fresh one
                first = writer.table(want.shape)
                first[:] = 7.77
                writer.publish(len(want))
                writer.abort()
            rows = writer.table(want.shape)
            rows[:] = 7.77
            for k in marks:
                rows[:k] = want[:k]
                writer.publish(k)
                # the child formats every whole block below k (and flushes it)
                # before the next rows are written
                whole = len(serial_bytes(want[:k - k % CSV_BLOCK_ROWS]))
                deadline = time.monotonic() + 10.0
                while k >= CSV_BLOCK_ROWS and _size(writer.path) < whole:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            rows[:n] = want[:n]
            writer.finish(n)
            got = committed(writer)
        assert got == serial_bytes(want[:n])
        assert len(forks) == 1 + rerun and forks.all_reaped()

    @pytest.mark.parametrize("rows", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                      2 * CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 1])
    def test_runs_across_block_boundaries(self, rows, params, kinematic_schedule, forks,
                                          tmp_path):
        path = gen_path("circle", spacing=0.1, radius=50.0, arc_deg=270.0)
        cfg = ScenarioConfig(path=path, speed=10.0, t_end=(rows - 1) * 0.001,
                             initial_offset=(0.3, 0.05))
        writer = ForkedLog(tmp_path / "log.csv")
        log = run_scenario(cfg, kinematic_schedule, params=params, writer=writer)
        assert len(log) == rows and log.stop_reason == "t_end"
        assert committed(writer) == serial_bytes(
            run_scenario(cfg, kinematic_schedule, params=params).rows)
        assert len(forks) == 1 and forks.all_reaped()

    def test_path_end_truncates_the_log(self, params, kinematic_schedule, forks, tmp_path):
        cfg = ScenarioConfig(path=gen_path("line", spacing=0.1, length=45.0), speed=10.0,
                             t_end=8.0, initial_offset=(0.4, 0.0))
        writer = ForkedLog(tmp_path / "log.csv")
        log = run_scenario(cfg, kinematic_schedule, params=params, writer=writer)
        assert log.stop_reason == "path_end" and CSV_BLOCK_ROWS < len(log) < cfg.log_rows
        assert committed(writer) == serial_bytes(log.rows)
        assert forks.all_reaped()

    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=scenarios())
    def test_no_row_below_a_watermark_changes(self, scenario):
        cfg, gains = scenario
        writer = Snapshots()
        try:
            log = run_scenario(cfg, gains, params=P, writer=writer)
        except (SimulationError, ValueError):
            log = None
        final = writer.rows if log is None else log.rows
        assert log is None or writer.n == len(log)
        for snap in writer.snaps:
            assert snap.tobytes() == final[:len(snap)].tobytes()

    @pytest.mark.parametrize("n", [6 * CSV_BLOCK_ROWS, 6 * CSV_BLOCK_ROWS + 5,
                                   5 * CSV_BLOCK_ROWS - 1, 3 * CSV_BLOCK_ROWS + 1])
    def test_a_slow_child_formats_every_row(self, n, forks, tmp_path):
        # the log ends where the table does, or short of it as at a path end
        want = np.random.default_rng(n).choice(VALUES, size=(6 * CSV_BLOCK_ROWS + 5,
                                                             len(CSV_COLUMNS)))
        writer = ForkedLog(tmp_path / "log.csv")
        with slow_child() as taken:
            published(writer, want, n)
            got = committed(writer)
        assert got == serial_bytes(want[:n])
        assert taken == [] and len(forks) == 1 and forks.all_reaped()
        assert leftovers(tmp_path) == []

    def test_a_run_to_its_path_end_with_a_slow_child(self, params, kinematic_schedule, forks,
                                                     tmp_path):
        cfg = ScenarioConfig(path=gen_path("line", spacing=0.1, length=90.0), speed=10.0,
                             t_end=12.0, initial_offset=(0.4, 0.0))
        writer = ForkedLog(tmp_path / "log.csv")
        with slow_child() as taken:
            log = run_scenario(cfg, kinematic_schedule, params=params, writer=writer)
            got = committed(writer)
        assert log.stop_reason == "path_end" and len(log) % CSV_BLOCK_ROWS
        assert got == serial_bytes(log.rows)
        assert taken == [] and len(forks) == 1 and forks.all_reaped()
        assert leftovers(tmp_path) == []

    def test_a_child_killed_after_its_first_block(self, forks, tmp_path):
        want = np.random.default_rng(2).choice(VALUES, size=(6 * CSV_BLOCK_ROWS,
                                                             len(CSV_COLUMNS)))
        writer = ForkedLog(tmp_path / "log.csv")
        first = len(serial_bytes(want[:CSV_BLOCK_ROWS]))
        with slow_child(0.2):
            published(writer, want, len(want))
            deadline = time.monotonic() + 10.0
            while _size(writer.path) < first:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            os.kill(writer.pid, signal.SIGKILL)
            assert not writer.done()
            writer.abort()
        assert serial_bytes(want).startswith(writer.path.read_bytes())
        assert writer.pid is None and len(forks) == 1 and forks.all_reaped()
        assert leftovers(tmp_path) == []

    @pytest.mark.parametrize("failure", [RuntimeError, OSError])
    def test_a_child_whose_formatting_fails(self, failure, forks, tmp_path):
        # formatting fails in the child once its first block is written: the
        # child exits 1 without raising into the caller's stack, done() is
        # False, and log.csv holds the first block, which it flushed
        want = np.random.default_rng(1).choice(VALUES, size=(5 * CSV_BLOCK_ROWS,
                                                             len(CSV_COLUMNS)))
        parent, real, formatted = os.getpid(), logfork.write_csv_rows, [0]

        def failing(out, table):
            if os.getpid() != parent and formatted[0] >= CSV_BLOCK_ROWS:
                raise failure("cannot format")
            formatted[0] += len(table)
            real(out, table)

        writer = ForkedLog(tmp_path / "log.csv")
        with mock.patch.object(logfork, "write_csv_rows", failing):   # before the fork
            published(writer, want, len(want))
            pid = writer.pid
            assert not writer.done()
            writer.abort()
        assert writer.path.read_bytes() == serial_bytes(want[:CSV_BLOCK_ROWS])
        assert forks == [pid] and forks.all_reaped() and formatted == [0]
        assert leftovers(tmp_path) == []

    def test_the_child_flushes_no_inherited_buffer_and_runs_no_exit_handler(
            self, forks, tmp_path):
        # the child leaves through os._exit: text the run process had
        # buffered when it forked is written once, by the run process, and an
        # atexit handler of the run process never runs in the child
        want = np.random.default_rng(3).choice(VALUES, size=(2 * CSV_BLOCK_ROWS + 9,
                                                             len(CSV_COLUMNS)))
        exits = tmp_path / "exits"

        def handler():
            with open(exits, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()}\n")

        atexit.register(handler)
        try:
            with open(tmp_path / "buffered.txt", "w", encoding="utf-8") as buffered:
                buffered.write("once\n")   # unflushed when the child is forked
                writer = ForkedLog(tmp_path / "log.csv")
                published(writer, want, len(want))
                got = committed(writer)
        finally:
            atexit.unregister(handler)
        assert got == serial_bytes(want)
        assert (tmp_path / "buffered.txt").read_text(encoding="utf-8") == "once\n"
        assert not exits.exists()
        assert len(forks) == 1 and forks.all_reaped()

    def test_simulate_with_a_slow_child_leaves_only_its_artifacts(self, forks, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "path": {"kind": "circle", "radius": 50.0, "arc_deg": 270.0},
            "speed": 10.0, "t_end": 14.0, "initial_offset": [0.3, 0.0],
            "gains": {"grid": [1.0, 15.0, 8], "weights": {"q": [1.0, 1.0], "r": 1.0}}}))
        outs = {}
        for cpus in (1, 2):
            with mock.patch.object(cli, "_usable_cpus", return_value=cpus), slow_child() as taken:
                out = tmp_path / f"c{cpus}"
                assert cli.main(["simulate", str(cfg), "--out", str(out)]) == 0
            outs[cpus] = {p.name: p.read_bytes() for p in out.rglob("*")
                          if p.is_file() and p.name != "manifest.json"}
            assert taken == [] and leftovers(out) == [] and leftovers(tmp_path) == []
        assert outs[1] == outs[2]
        assert len(forks) == 1 and forks.all_reaped()

    def test_the_child_writes_rows_before_the_first_block_is_final(self, forks, tmp_path):
        want = np.random.default_rng(4).choice(VALUES, size=(2 * CSV_BLOCK_ROWS,
                                                             len(CSV_COLUMNS)))
        writer = ForkedLog(tmp_path / "log.csv")
        rows = writer.table(want.shape)
        rows[:] = 7.77
        rows[:480] = want[:480]
        writer.publish(480)
        first = serial_bytes(want[:480])
        deadline = time.monotonic() + 10.0
        while _size(writer.path) < len(first):
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert writer.path.read_bytes() == first
        rows[:] = want
        writer.finish(len(want))
        assert committed(writer) == serial_bytes(want)
        assert len(forks) == 1 and forks.all_reaped()

    def test_the_child_never_blocks_on_the_pipe(self, forks, tmp_path):
        # the child looks at the pipe only through a select that does not
        # wait; one that would wait fails the child, and with it the log
        parent, real = os.getpid(), select.select

        def polled(rlist, wlist, xlist, timeout=None):
            if os.getpid() != parent and timeout != 0.0:
                raise AssertionError(f"the child waits on the pipe, timeout {timeout}")
            return real(rlist, wlist, xlist, timeout)

        want = np.random.default_rng(5).choice(VALUES, size=(3 * CSV_BLOCK_ROWS + 7,
                                                             len(CSV_COLUMNS)))
        writer = ForkedLog(tmp_path / "log.csv")
        with mock.patch.object(select, "select", polled):
            published(writer, want, len(want))
            time.sleep(0.01)   # the child runs out of rows and idles
            got = committed(writer)
        assert got == serial_bytes(want)
        assert len(forks) == 1 and forks.all_reaped()

    def test_a_closed_pipe_ends_the_child_with_exit_1(self, forks, tmp_path):
        want = np.random.default_rng(6).choice(VALUES, size=(3 * CSV_BLOCK_ROWS,
                                                             len(CSV_COLUMNS)))
        writer = ForkedLog(tmp_path / "log.csv")
        rows = writer.table(want.shape)
        rows[:] = want
        writer.publish(CSV_BLOCK_ROWS + 5)
        writer._close_pipe()   # no length comes
        _, status = os.waitpid(writer.pid, 0)
        writer.pid = None
        assert os.waitstatus_to_exitcode(status) == 1
        # it wrote the final rows it was told of before it ended
        assert writer.path.read_bytes() == serial_bytes(want[:CSV_BLOCK_ROWS + 5])
        writer.abort()
        assert len(forks) == 1 and forks.all_reaped()

    def test_the_length_and_the_pipe_end_in_one_drain(self, forks, tmp_path):
        # the child writes every row, then sleeps a long _IDLE; the length
        # and the pipe's end both come during that sleep, so one drain reads
        # them, and a child that has written the whole log still exits 0
        want = np.random.default_rng(7).choice(VALUES, size=(100, len(CSV_COLUMNS)))
        writer = ForkedLog(tmp_path / "log.csv")
        with mock.patch.object(logfork, "_IDLE", 0.2):   # before the fork
            rows = writer.table(want.shape)
        rows[:] = want
        writer.publish(len(want))
        whole = serial_bytes(want)
        deadline = time.monotonic() + 10.0
        while _size(writer.path) < len(whole):
            assert time.monotonic() < deadline
            time.sleep(0.001)
        writer.finish(len(want))
        assert committed(writer) == whole
        assert len(forks) == 1 and forks.all_reaped()

    def test_no_child_means_no_commit(self, tmp_path):
        writer = ForkedLog(tmp_path / "log.csv")
        with mock.patch.object(os, "fork", side_effect=OSError("no processes")):
            rows = writer.table((3, len(CSV_COLUMNS)))
        rows[:] = 1.0
        writer.finish(3)
        assert not writer.done()
        assert not writer.path.exists()
