"""The forked log.csv formatter: its bytes are SimLog.to_csv's on every path."""

import io
import math
import os
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from steerkit import SimulationError
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

    def test_no_child_means_no_commit(self, tmp_path):
        writer = ForkedLog(tmp_path / "log.csv")
        with mock.patch.object(os, "fork", side_effect=OSError("no processes")):
            rows = writer.table((3, len(CSV_COLUMNS)))
        rows[:] = 1.0
        writer.finish(3)
        assert not writer.done()
        assert not writer.path.exists()
