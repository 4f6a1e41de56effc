"""Parity of the bulk-load write path with its per-row reference.

The write path decides per table what the schema alone fixes: row images of
TIMESTAMP-free tables skip the WAL value codec, rows whose values already
have their columns' storage types skip the per-column check, all-placeholder
INSERTs bind without per-value closures, and the loader caches each row
shape's column tuple.  These tests pin that none of it is observable: the
log and checkpoint bytes equal the codec-built reference, ``execute``,
``executemany`` and recovery replay store the same tuple (or raise the same
error) for every kind of input, and DELETE evaluates its WHERE clause
against the table as it was before the statement, as SQL requires.
"""

import datetime as dt
import json
import sqlite3
from types import SimpleNamespace

import pytest

from repro.compiler.loader import DatabaseLoader
from repro.relalg import Database, fingerprint_hash, state_fingerprint
from repro.relalg.errors import RelalgError
from repro.relalg.schema import Column, ColumnType, TableSchema
from repro.relalg.wal import _dump_record, encode_row, row_key

_STAMP = dt.datetime(2001, 5, 17, 12, 30, 45, 123456)


def _wal_db(path, **kwargs):
    return Database(wal_path=str(path), wal_autocheckpoint=None, **kwargs)


def _rows(database, table):
    return [row for part in database.table(table).partitions for row in part.rows]


def _live(database, table):
    return [row for row in _rows(database, table) if row is not None]


class TestRowImageBytes:
    """Log and checkpoint bytes equal a reference built with ``encode_row``."""

    def _run(self, path):
        database = _wal_db(path, n_partitions=2)
        database.execute(
            "CREATE TABLE plain (id INTEGER PRIMARY KEY, n INTEGER, f FLOAT, s VARCHAR, b BOOLEAN)"
        )
        database.execute("CREATE TABLE stamped (id INTEGER PRIMARY KEY, at TIMESTAMP, s VARCHAR)")
        plain = [[1, 2, 0.5, "a", True], [2, None, float("-inf"), "bé", False], [3, 7, 5, None, None]]
        stamped = [[1, _STAMP, "dt"], [2, "2001-05-18T01:02:03", "iso"], [3, None, "null"]]
        database.executemany("INSERT INTO plain (id, n, f, s, b) VALUES (?, ?, ?, ?, ?)", plain)
        database.executemany("INSERT INTO stamped (id, at, s) VALUES (?, ?, ?)", stamped)
        deleted_plain = [row for row in _rows(database, "plain") if row[0] == 3]
        deleted_stamped = [row for row in _rows(database, "stamped") if row[0] == 2]
        database.execute("DELETE FROM plain WHERE id = 3")
        database.execute("DELETE FROM stamped WHERE id = 2")
        # Every logged row image, in log order, as the reference sees it.
        images = [plain, stamped, deleted_plain, deleted_stamped]
        return database, images

    def test_log_bytes_match_codec_reference(self, tmp_path):
        path = tmp_path / "bytes.wal"
        database, images = self._run(path)
        database.close()
        expected = b""
        pending = iter(images)
        for line in path.read_bytes().splitlines(keepends=True):
            record = json.loads(line)
            if record["t"] in ("ins", "del"):
                record["rows"] = [encode_row(row) for row in next(pending)]
            expected += _dump_record(record)
        assert next(pending, None) is None
        assert path.read_bytes() == expected
        assert b'{"$dt":"2001-05-17T12:30:45.123456"}' in expected
        assert b'"2001-05-18T01:02:03"' in expected

    def test_checkpoint_bytes_match_codec_reference(self, tmp_path):
        path = tmp_path / "ckpt.wal"
        database, _ = self._run(path)
        database.checkpoint()
        data = (tmp_path / "ckpt.wal.ckpt").read_bytes()
        payload = json.loads(data)
        for spec in payload["tables"]:
            spec["partitions"] = [
                [None if row is None else encode_row(row) for row in partition.rows]
                for partition in database.table(spec["name"]).partitions
            ]
        assert data == json.dumps(payload, separators=(",", ":")).encode("utf-8")
        assert b"null" in data  # the tombstones are kept
        expected = fingerprint_hash(state_fingerprint(database))
        database.close()
        with _wal_db(path, n_partitions=2) as recovered:
            assert fingerprint_hash(state_fingerprint(recovered)) == expected
            stamped = sorted(_live(recovered, "stamped"))
            assert stamped == [(1, _STAMP, "dt"), (3, None, "null")]
            assert all(type(row) is tuple for row in _live(recovered, "plain"))

    def test_replay_restores_identical_state(self, tmp_path):
        path = tmp_path / "replay.wal"
        database, _ = self._run(path)
        expected = fingerprint_hash(state_fingerprint(database))
        database.close()
        with _wal_db(path, n_partitions=2) as recovered:
            assert fingerprint_hash(state_fingerprint(recovered)) == expected
            assert sorted(_live(recovered, "stamped"))[0] == (1, _STAMP, "dt")


_DDL = (
    "CREATE TABLE p (id INTEGER PRIMARY KEY, n INTEGER NOT NULL, f FLOAT, s VARCHAR, b BOOLEAN)"
)
_TS_DDL = "CREATE TABLE p (id INTEGER PRIMARY KEY, at TIMESTAMP)"
_FULL = "INSERT INTO p (id, n, f, s, b) VALUES (?, ?, ?, ?, ?)"
_TS_INS = "INSERT INTO p (id, at) VALUES (?, ?)"

#: (case, DDL, INSERT, parameters, stored tuple or (error type, error text)).
_CASES = [
    ("exact types", _DDL, _FULL, (1, 2, 0.5, "x", True), (1, 2, 0.5, "x", True)),
    (
        "NULL into nullable columns",
        _DDL, _FULL, (1, 2, None, None, None), (1, 2, None, None, None),
    ),
    (
        "True into INTEGER",
        _DDL, _FULL, (1, True, 0.5, "x", True), ("SchemaError", "expected an integer, got True"),
    ),
    ("5 into FLOAT", _DDL, _FULL, (1, 2, 5, "x", False), (1, 2, 5.0, "x", False)),
    ("3.0 into INTEGER", _DDL, _FULL, (1, 3.0, 0.5, "x", True), (1, 3, 0.5, "x", True)),
    ("1 into BOOLEAN", _DDL, _FULL, (1, 2, 0.5, "x", 1), (1, 2, 0.5, "x", True)),
    (
        "NULL into PRIMARY KEY",
        _DDL, _FULL, (None, 2, 0.5, "x", True),
        ("IntegrityError", "column 'id' of table 'p' must not be NULL"),
    ),
    (
        "NULL into NOT NULL",
        _DDL, _FULL, (1, None, 0.5, "x", True),
        ("IntegrityError", "column 'n' of table 'p' must not be NULL"),
    ),
    (
        "wrong arity",
        _DDL, "INSERT INTO p VALUES (?, ?, ?)", (1, 2, 0.5),
        ("SchemaError", "table 'p' has 5 columns but the row has 3 values"),
    ),
    (
        "too few parameters",
        _DDL, _FULL, (1, 2, 0.5),
        ("ExecutionError", "INSERT uses parameter 4 but only 3 parameter(s) were supplied"),
    ),
    (
        "extra parameters ignored",
        _DDL, "INSERT INTO p (id, n) VALUES (?, ?)", (1, 2, "extra"), (1, 2, None, None, None),
    ),
    (
        "column subset out of order",
        _DDL, "INSERT INTO p (s, id, n) VALUES (?, ?, ?)", ("x", 1, 2), (1, 2, None, "x", None),
    ),
    (
        "literal and negated values",
        _DDL, "INSERT INTO p (id, n, s) VALUES (?, -?, 'lit')", (1, 2), (1, -2, None, "lit", None),
    ),
    ("datetime into TIMESTAMP", _TS_DDL, _TS_INS, (1, _STAMP), (1, _STAMP)),
    ("ISO string into TIMESTAMP", _TS_DDL, _TS_INS, (1, "2001-05-17T12:30:45.123456"), (1, _STAMP)),
    (
        "bad string into TIMESTAMP",
        _TS_DDL, _TS_INS, (1, "soon"),
        ("SchemaError", "expected an ISO timestamp string, got 'soon'"),
    ),
]


def _outcome(action):
    """``("ok", row identity)`` of the stored row, or the error's type and text."""
    try:
        rows = action()
    except RelalgError as exc:
        return ("error", type(exc).__name__, str(exc))
    assert len(rows) == 1
    return ("ok", row_key(rows[0]))


def _expected(stored):
    if isinstance(stored[0], str) and stored[0].endswith("Error"):
        return ("error",) + stored
    return ("ok", row_key(stored))


class TestInsertParity:
    @pytest.mark.parametrize(
        "case, ddl, sql, params, stored", _CASES, ids=[c[0] for c in _CASES]
    )
    def test_execute_executemany_and_replay_agree(
        self, tmp_path, case, ddl, sql, params, stored
    ):
        def via_execute():
            with Database() as database:
                database.execute(ddl)
                database.execute(sql, params)
                return _live(database, "p")

        def via_executemany():
            with Database() as database:
                database.execute(ddl)
                database.executemany(sql, [params])
                return _live(database, "p")

        def via_replay():
            path = tmp_path / "parity.wal"
            database = _wal_db(path)
            database.execute(ddl)
            try:
                database.execute(sql, params)
            finally:
                database.close()
            with _wal_db(path) as recovered:
                return _live(recovered, "p")

        expected = _expected(stored)
        assert _outcome(via_execute) == expected
        assert _outcome(via_executemany) == expected
        assert _outcome(via_replay) == expected
        if expected[0] == "error":
            with _wal_db(tmp_path / "parity.wal") as recovered:
                assert _live(recovered, "p") == []

    def test_failing_row_leaves_batch_unapplied(self):
        with Database() as database:
            database.execute(_DDL)
            with pytest.raises(RelalgError, match="expected an integer, got True"):
                database.executemany(
                    _FULL, [(1, 2, 0.5, "x", True), (2, True, 0.5, "y", True)]
                )
            assert _live(database, "p") == []

    def test_exact_type_row_keeps_its_value_objects(self):
        schema = TableSchema(
            "p", [Column("f", ColumnType.FLOAT), Column("s", ColumnType.VARCHAR)]
        )
        values = [float("nan"), "x"]
        row = schema.validate_row(values)
        assert type(row) is tuple
        assert row[0] is values[0] and row[1] is values[1]


class _Recorder:
    def __init__(self):
        self.calls = []

    def execute(self, sql, params=()):
        self.calls.append((sql, list(params)))


class TestLoaderShapes:
    def test_cached_shapes_drop_unknown_columns(self):
        schema = TableSchema(
            "T", [Column("id", ColumnType.INTEGER, primary_key=True), Column("a", ColumnType.VARCHAR)]
        )
        recorder = _Recorder()
        mapping = SimpleNamespace(schemas={"T": schema})
        loader = DatabaseLoader(mapping, recorder, batch_size=None)
        loader._insert("T", {"id": 1, "a": "x", "ghost": 5})
        loader._insert("T", {"id": 2, "a": "y", "ghost": 6})
        loader._insert("T", {"ghost": 7, "a": "z", "id": 3})
        loader._insert("T", {"id": 4, "a": "w"})
        assert recorder.calls == [
            ("INSERT INTO T (id, a) VALUES (?, ?)", [1, "x"]),
            ("INSERT INTO T (id, a) VALUES (?, ?)", [2, "y"]),
            ("INSERT INTO T (a, id) VALUES (?, ?)", ["z", 3]),
            ("INSERT INTO T (id, a) VALUES (?, ?)", [4, "w"]),
        ]
        assert loader.rows_inserted == 4


_DELETES = [
    ("x = (SELECT MAX(x) FROM t)", [3, 2, 1]),
    ("x > (SELECT AVG(x) FROM t)", [1, 2, 3, 4, 5, 6]),
    ("x < (SELECT COUNT(*) FROM t)", [5, 1, 4, 2, 3]),
    ("x = (SELECT MIN(x) FROM t) OR x = (SELECT MAX(x) FROM t)", [4, 9, 1, 7]),
]


def _sqlite_delete(where, values):
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE t (x INTEGER PRIMARY KEY)")
        connection.executemany("INSERT INTO t VALUES (?)", [(v,) for v in values])
        deleted = connection.execute(f"DELETE FROM t WHERE {where}").rowcount
        kept = [row[0] for row in connection.execute("SELECT x FROM t ORDER BY x")]
    finally:
        connection.close()
    return deleted, kept


class TestDeleteReadsPreStatementTable:
    """A DELETE whose WHERE reads its own table matches stdlib ``sqlite3``."""

    @pytest.mark.parametrize("where, values", _DELETES, ids=[d[0] for d in _DELETES])
    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    @pytest.mark.parametrize("n_partitions", [1, 4])
    def test_matches_sqlite(self, tmp_path, where, values, engine, n_partitions):
        expected = _sqlite_delete(where, values)
        path = tmp_path / "delete.wal"
        database = _wal_db(path, engine=engine, n_partitions=n_partitions)
        database.execute("CREATE TABLE t (x INTEGER PRIMARY KEY)")
        database.executemany("INSERT INTO t (x) VALUES (?)", [(v,) for v in values])
        deleted = database.execute(f"DELETE FROM t WHERE {where}")
        kept = [row[0] for row in database.query("SELECT x FROM t ORDER BY x")]
        assert (deleted, kept) == expected
        state = fingerprint_hash(state_fingerprint(database))
        database.close()
        with _wal_db(path, engine=engine, n_partitions=n_partitions) as recovered:
            assert fingerprint_hash(state_fingerprint(recovered)) == state

    def test_inside_transaction_and_rollback(self):
        with Database(n_partitions=4) as database:
            database.execute("CREATE TABLE t (x INTEGER PRIMARY KEY)")
            database.executemany("INSERT INTO t (x) VALUES (?)", [(3,), (2,), (1,)])
            before = fingerprint_hash(state_fingerprint(database))
            database.execute("BEGIN")
            assert database.execute("DELETE FROM t WHERE x = (SELECT MAX(x) FROM t)") == 1
            assert [r[0] for r in database.query("SELECT x FROM t ORDER BY x")] == [1, 2]
            database.execute("ROLLBACK")
            assert fingerprint_hash(state_fingerprint(database)) == before
