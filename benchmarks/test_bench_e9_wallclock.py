"""E9 — wall-clock process-parallel partition execution.

Every scenario before this one measures the *virtual* clock; E9 pins the
first path whose **real** elapsed time can track the virtual per-partition
makespan: the shared-nothing process executor (PR 5).  Three properties:

* the executor matrix (sequential, worker processes) is result-transparent
  on the scan-heavy workload — byte-identical rows, no float tolerance,
  since both executors enumerate in partition order;
* on a multi-core machine the process executor's wall clock beats the GIL:
  speedup vs. sequential ≥ 1.0 (deliberately relaxed — CI machines are
  noisy and have few cores; the persistent baseline in
  ``BENCH_relalg.json`` records the real ratios).  The speedup is the
  median of paired per-round ratios over interleaved rounds, so both
  executors are timed in the same machine phase: a best-of-N minimum per
  executor, taken in separate windows, lets one lucky round decide and
  flips the verdict whenever the machine changes speed between windows;
* the assertions are scaled to the hardware: a single-core machine checks
  result transparency only, because no executor can beat sequential there.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.relalg import Database, ProcessScanExecutor

_ROWS = 24_000
_PARTITIONS = 8
_QUERIES = [
    (
        "SELECT region, COUNT(*), SUM(incl), MAX(excl) FROM samples "
        "WHERE excl > ? GROUP BY region ORDER BY region",
        [97.0],
    ),
    ("SELECT COUNT(*), SUM(incl) FROM samples WHERE incl > ? AND pe <= ?", [95.0, 8]),
    ("SELECT id, incl FROM samples WHERE incl > ? AND excl > ? ORDER BY id", [98.0, 98.0]),
    ("SELECT pe, COUNT(*) FROM samples WHERE excl > ? GROUP BY pe ORDER BY pe", [96.0]),
]


def _build(**kwargs) -> Database:
    database = Database(n_partitions=_PARTITIONS, **kwargs)
    database.execute(
        "CREATE TABLE samples (id INTEGER PRIMARY KEY, region INTEGER, "
        "pe INTEGER, incl FLOAT, excl FLOAT)"
    )
    database.executemany(
        "INSERT INTO samples (id, region, pe, incl, excl) VALUES (?, ?, ?, ?, ?)",
        [
            (i, i % 24, i % 16, (i * 37 % 1000) / 10.0, (i * 59 % 1000) / 10.0)
            for i in range(_ROWS)
        ],
    )
    return database


def _run(database: Database):
    return [database.query(sql, params).rows for sql, params in _QUERIES]


def _wall(database: Database) -> float:
    start = time.perf_counter()
    _run(database)
    return time.perf_counter() - start


def _paired_walls(sequential: Database, parallel: Database, rounds: int = 30):
    """Wall times of ``rounds`` interleaved (sequential, parallel) pairs."""
    pairs = []
    for _ in range(rounds):
        pairs.append((_wall(sequential), _wall(parallel)))
    return pairs


class TestE9WallClock:
    def test_executor_matrix_is_result_transparent(self, process_pool):
        sequential = _build()
        reference = _run(sequential)
        assert reference[0], "the workload must produce rows"
        with _build(executor=process_pool) as parallel:
            assert _run(parallel) == reference

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="multi-core wall-clock speedup needs more than one core",
    )
    def test_process_wall_clock_beats_the_gil(self, benchmark):
        workers = min(4, os.cpu_count() or 1)
        sequential = _build()
        reference = _run(sequential)

        def measure():
            with ProcessScanExecutor(workers=workers) as pool, \
                    _build(executor=pool) as parallel:
                assert _run(parallel) == reference
                return _paired_walls(sequential, parallel)

        pairs = benchmark.pedantic(measure, rounds=1, iterations=1)
        sequential_wall = statistics.median(s for s, _ in pairs)
        process_wall = statistics.median(p for _, p in pairs)
        speedup = statistics.median(s / p for s, p in pairs)
        benchmark.extra_info["sequential_wall_s"] = round(sequential_wall, 6)
        benchmark.extra_info["process_wall_s"] = round(process_wall, 6)
        benchmark.extra_info["process_speedup"] = round(speedup, 3)
        # Relaxed CI bound (see module docstring): the process executor must
        # not lose to plain sequential execution.
        assert speedup >= 1.0
