"""In-process execution over partitioned tables.

Every plan runs in the calling process; partitioning changes only how the
driving scan walks storage (partition-major, one partition after another),
never what a statement returns.  These tests pin that contract with fixed
statements, next to the random executor-matrix fuzzer:

* a table split into five partitions returns the rows of the same table in
  one partition, under the vectorized and the row-at-a-time executor;
* at one partition count the two executors agree on rows *and* on every
  ``QueryStats`` counter, including the per-partition scan attribution;
* DML and DDL between queries, dropped and recreated tables, empty tables,
  empty partitions and every columnar chunk size keep that agreement.
"""

from __future__ import annotations

import pytest

from repro.relalg import Database


def _populate(db: Database) -> Database:
    db.execute(
        "CREATE TABLE m (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT, s VARCHAR)"
    )
    db.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, m_id INTEGER, v FLOAT)")
    db.executemany(
        "INSERT INTO m (id, g, x, s) VALUES (?, ?, ?, ?)",
        [
            (i, i % 7, float(i) * 1.5, ["alpha", "beta", None][i % 3])
            for i in range(120)
        ],
    )
    db.executemany(
        "INSERT INTO r (id, m_id, v) VALUES (?, ?, ?)",
        [(i, (i * 11) % 120, float(i % 13)) for i in range(60)],
    )
    return db


def _database(n_partitions: int, vectorized: bool, **kwargs) -> Database:
    return _populate(
        Database(n_partitions=n_partitions, vectorized=vectorized, **kwargs)
    )


_MODES = {"vectorized": True, "rowwise": False}

_QUERIES = [
    ("SELECT id, g, x FROM m WHERE g = ? AND x > ? ORDER BY id", [3, 20.0]),
    ("SELECT COUNT(*), SUM(x), MIN(x), MAX(x) FROM m WHERE x > ?", [30.0]),
    ("SELECT DISTINCT g FROM m WHERE s IS NOT NULL ORDER BY g", []),
    ("SELECT g, COUNT(*) AS c FROM m GROUP BY g HAVING COUNT(*) > ? ORDER BY g", [2]),
    (
        "SELECT m.id, r.id, r.v FROM m, r WHERE m.id = r.m_id AND m.x > ? "
        "ORDER BY m.id, r.id LIMIT 25",
        [5.0],
    ),
    ("SELECT m.id, r.id FROM m, r WHERE m.g = r.m_id ORDER BY m.id, r.id", []),
    ("SELECT id FROM m WHERE g IN (?, ?) ORDER BY id DESC LIMIT 7", [1, 5]),
    ("SELECT id FROM m WHERE x > (SELECT MIN(v) FROM r) ORDER BY id", []),
    ("SELECT * FROM m WHERE id = ?", [42]),
]


def _same_work(got, expected, label):
    """The counters that do not depend on how storage is partitioned."""
    assert got.stats.rows_scanned == expected.stats.rows_scanned, label
    assert got.stats.rows_joined == expected.stats.rows_joined, label
    assert got.stats.rows_returned == expected.stats.rows_returned, label
    assert got.stats.subqueries == expected.stats.subqueries, label


class TestPartitionedMatchesSinglePartition:
    @pytest.mark.parametrize("mode", sorted(_MODES))
    @pytest.mark.parametrize("sql, params", _QUERIES)
    def test_rows_and_work_match(self, sql, params, mode):
        single = _database(1, _MODES[mode])
        partitioned = _database(5, _MODES[mode])
        expected = single.query(sql, params)
        got = partitioned.query(sql, params)
        assert got.columns == expected.columns
        assert got.rows == expected.rows
        _same_work(got, expected, (sql, mode))


class TestExecutorsAgreeAtEveryPartitionCount:
    @pytest.mark.parametrize("sql, params", _QUERIES)
    def test_rowwise_matches_vectorized_exactly(self, sql, params):
        vectorized = _database(5, True)
        rowwise = _database(5, False)
        expected = vectorized.query(sql, params)
        got = rowwise.query(sql, params)
        assert got.columns == expected.columns
        assert got.rows == expected.rows
        assert got.stats == expected.stats
        assert (
            got.stats.partition_rows_scanned
            == expected.stats.partition_rows_scanned
        )


class TestChangesBetweenQueries:
    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_dml_between_queries_is_seen(self, mode):
        single = _database(1, _MODES[mode])
        partitioned = _database(5, _MODES[mode])
        sql = "SELECT g, COUNT(*), SUM(x) FROM m WHERE x > ? GROUP BY g ORDER BY g"
        assert partitioned.query(sql, [0.0]).rows == single.query(sql, [0.0]).rows
        for target in (partitioned, single):
            target.executemany(
                "INSERT INTO m (id, g, x, s) VALUES (?, ?, ?, ?)",
                [(1000 + i, i % 7, 999.0 + i, "new") for i in range(15)],
            )
            target.execute("DELETE FROM m WHERE g = ?", [2])
            target.execute("DELETE FROM m WHERE x < ? AND g = ?", [60.0, 4])
        got = partitioned.query(sql, [0.0])
        expected = single.query(sql, [0.0])
        assert got.rows == expected.rows
        assert 2 not in [row[0] for row in got.rows]
        _same_work(got, expected, mode)

    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_ddl_between_queries_replans(self, mode):
        single = _database(1, _MODES[mode])
        partitioned = _database(5, _MODES[mode])
        sql = "SELECT id FROM m WHERE g = ? ORDER BY id"
        before = partitioned.query(sql, [4])
        assert before.rows == single.query(sql, [4]).rows
        assert before.stats.index_lookups == 0
        for target in (partitioned, single):
            target.execute("CREATE INDEX idx_m_g ON m (g)")
        got = partitioned.query(sql, [4])
        expected = single.query(sql, [4])
        assert got.rows == expected.rows == before.rows
        assert got.stats.index_lookups > 0
        # The probe reads only the matching rows instead of the whole table.
        assert got.stats.rows_scanned == len(got.rows) < before.stats.rows_scanned

    def test_dropped_and_recreated_table_is_replanned(self):
        with Database(n_partitions=4) as db:
            for generation in range(3):
                db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
                db.executemany(
                    "INSERT INTO t (id, v) VALUES (?, ?)",
                    [(i, float(i + generation)) for i in range(30 + generation)],
                )
                result = db.query("SELECT COUNT(*), MIN(v) FROM t WHERE v >= ?", [0.0])
                assert result.rows == [(30 + generation, float(generation))]
                db.execute("DROP TABLE t")

    def test_same_named_tables_of_two_databases_stay_separate(self):
        with Database(n_partitions=4) as first, Database(n_partitions=4) as second:
            for db, rows in ((first, 40), (second, 7)):
                db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
                db.executemany(
                    "INSERT INTO t (id, v) VALUES (?, ?)",
                    [(i, float(i)) for i in range(rows)],
                )
            sql = "SELECT COUNT(*) FROM t WHERE v >= ?"
            assert first.query(sql, [0.0]).scalar() == 40
            assert second.query(sql, [0.0]).scalar() == 7


class TestSparseStorage:
    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_empty_partitions_and_empty_tables(self, mode):
        with Database(n_partitions=6, vectorized=_MODES[mode]) as db:
            db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, v FLOAT)")
            assert db.query("SELECT * FROM e WHERE v > ?", [0.0]).rows == []
            assert db.query("SELECT COUNT(*), SUM(v) FROM e").rows == [(0, None)]
            db.execute("INSERT INTO e (id, v) VALUES (?, ?)", [1, 5.0])
            result = db.query("SELECT id FROM e WHERE v > ?", [0.0])
            assert result.rows == [(1,)]
            # One live row: every other partition is empty and scans nothing.
            assert sum(result.stats.partition_rows_scanned.values()) == 1


class TestChunkSizes:
    @pytest.mark.parametrize("chunk_size", [1, 2, 7, 4096])
    def test_chunk_size_never_changes_results_or_stats(self, chunk_size):
        reference = _database(5, False)
        chunked = _database(5, True, vectorized_chunk_size=chunk_size)
        for sql, params in _QUERIES:
            expected = reference.query(sql, params)
            got = chunked.query(sql, params)
            assert got.rows == expected.rows, (sql, chunk_size)
            assert got.stats == expected.stats, (sql, chunk_size)


class TestDatabaseLifecycle:
    @pytest.mark.parametrize("n_partitions", [0, -3])
    def test_partition_count_must_be_positive(self, n_partitions):
        with pytest.raises(ValueError, match="n_partitions"):
            Database(n_partitions=n_partitions)

    def test_close_is_idempotent_and_queries_still_run(self):
        db = _database(4, True)
        sql = "SELECT COUNT(*) FROM m WHERE x > ?"
        expected = db.query(sql, [10.0]).scalar()
        db.close()
        db.close()
        # Without a write-ahead log, close() leaves the in-memory tables.
        assert db.query(sql, [10.0]).scalar() == expected

    def test_context_manager_returns_the_database(self):
        with Database(n_partitions=4) as db:
            assert isinstance(db, Database)
            _populate(db)
            assert db.query("SELECT COUNT(*) FROM r").scalar() == 60
