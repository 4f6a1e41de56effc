"""Additional executor edge cases: ordering, NULLs, joins, result shapes."""

import gc

import pytest

from repro.relalg import Database, ExecutionError
from repro.relalg.compile import ExecContext
from repro.relalg.executor import QueryStats


@pytest.fixture()
def db():
    database = Database()
    database.execute(
        "CREATE TABLE measurements (id INTEGER PRIMARY KEY, region VARCHAR, "
        "run_id INTEGER, value FLOAT)"
    )
    rows = [
        (1, "main", 1, 10.0),
        (2, "main", 2, None),
        (3, "loop", 1, 4.0),
        (4, "loop", 2, 8.0),
        (5, "io", 1, 1.0),
    ]
    database.executemany(
        "INSERT INTO measurements (id, region, run_id, value) VALUES (?, ?, ?, ?)",
        rows,
    )
    database.execute("CREATE TABLE runs (id INTEGER PRIMARY KEY, pes INTEGER)")
    database.executemany("INSERT INTO runs (id, pes) VALUES (?, ?)", [(1, 2), (2, 8)])
    return database


class TestOrderingAndNulls:
    def test_order_by_ascending_puts_nulls_last(self, db):
        result = db.query("SELECT id, value FROM measurements ORDER BY value")
        assert [row[0] for row in result] == [5, 3, 4, 1, 2]

    def test_order_by_descending_treats_nulls_as_largest(self, db):
        # NULL sorts as the largest value: last in ASC, first in DESC.
        result = db.query("SELECT id, value FROM measurements ORDER BY value DESC")
        ids = [row[0] for row in result]
        assert ids[0] == 2
        assert ids[1] == 1
        assert ids[-1] == 5

    def test_order_by_multiple_keys(self, db):
        result = db.query(
            "SELECT region, run_id FROM measurements ORDER BY region, run_id DESC"
        )
        assert result.rows[0] == ("io", 1)
        assert result.rows[1] == ("loop", 2)

    def test_order_by_expression_over_source_rows(self, db):
        result = db.query(
            "SELECT id FROM measurements WHERE value IS NOT NULL ORDER BY value * -1"
        )
        assert [row[0] for row in result] == [1, 4, 3, 5]

    def test_order_by_output_alias_in_aggregate_query(self, db):
        result = db.query(
            "SELECT region, COUNT(*) AS n FROM measurements GROUP BY region ORDER BY n DESC, region"
        )
        assert result.rows[0][1] == 2

    def test_order_by_arbitrary_expression_in_aggregate_query_is_rejected(self, db):
        with pytest.raises(ExecutionError, match="ORDER BY"):
            db.query(
                "SELECT region, COUNT(*) FROM measurements GROUP BY region "
                "ORDER BY value"
            )

    def test_aggregates_skip_nulls(self, db):
        result = db.query(
            "SELECT COUNT(value), COUNT(*), AVG(value) FROM measurements WHERE region = 'main'"
        )
        count_value, count_star, average = result.rows[0]
        assert count_value == 1
        assert count_star == 2
        assert average == pytest.approx(10.0)

    def test_sum_of_only_nulls_is_null(self, db):
        result = db.query(
            "SELECT SUM(value) FROM measurements WHERE region = 'main' AND run_id = 2"
        )
        assert result.scalar() is None

    def test_limit_zero_returns_nothing(self, db):
        assert len(db.query("SELECT * FROM measurements LIMIT 0")) == 0

    def test_distinct_after_order_preserves_sortedness(self, db):
        result = db.query(
            "SELECT DISTINCT region FROM measurements ORDER BY region DESC"
        )
        assert [row[0] for row in result] == ["main", "loop", "io"]


class TestJoinsAndStats:
    def test_join_statistics_count_scans_and_joins(self, db):
        result = db.query(
            "SELECT m.id FROM measurements m JOIN runs r ON m.run_id = r.id "
            "WHERE r.pes = 8"
        )
        assert sorted(row[0] for row in result) == [2, 4]
        assert result.stats.rows_joined == 2
        assert result.stats.rows_scanned > 0

    def test_three_way_cross_join_filtering(self, db):
        db.execute("CREATE TABLE labels (id INTEGER PRIMARY KEY, name VARCHAR)")
        db.executemany(
            "INSERT INTO labels (id, name) VALUES (?, ?)", [(1, "first"), (2, "second")]
        )
        result = db.query(
            "SELECT m.id, l.name FROM measurements m, runs r, labels l "
            "WHERE m.run_id = r.id AND l.id = r.id AND m.region = 'loop' "
            "ORDER BY m.id"
        )
        assert result.rows == [(3, "first"), (4, "second")]

    def test_qualified_star_selects_one_table(self, db):
        result = db.query(
            "SELECT r.* FROM measurements m JOIN runs r ON m.run_id = r.id "
            "WHERE m.id = 1"
        )
        assert result.columns == ["id", "pes"]
        assert result.rows == [(1, 2)]

    def test_duplicate_binding_is_rejected(self, db):
        with pytest.raises(ExecutionError, match="duplicate table binding"):
            db.query("SELECT * FROM runs a, runs a")

    def test_join_without_on_is_a_cross_product(self, db):
        result = db.query("SELECT COUNT(*) FROM measurements JOIN runs")
        assert result.scalar() == 10

    def test_query_stats_merge(self):
        a = QueryStats(rows_scanned=5, index_lookups=1, rows_joined=2, subqueries=1)
        b = QueryStats(rows_scanned=3, index_lookups=2, rows_joined=1, subqueries=0)
        a.merge(b)
        assert a.rows_scanned == 8
        assert a.index_lookups == 3
        assert a.subqueries == 1

    def test_scalar_subquery_with_multiple_rows_is_an_error(self, db):
        with pytest.raises(ExecutionError, match="scalar subquery"):
            db.query(
                "SELECT id FROM runs WHERE pes = (SELECT run_id FROM measurements)"
            )

    def test_scalar_subquery_with_no_rows_yields_null(self, db):
        result = db.query(
            "SELECT COUNT(*) FROM runs WHERE pes = (SELECT value FROM measurements WHERE id = 999)"
        )
        assert result.scalar() == 0

    def test_scalar_functions(self, db):
        result = db.query(
            "SELECT ABS(value * -1), UPPER(region), LOWER(region), LENGTH(region), "
            "COALESCE(NULL, value, 0) FROM measurements WHERE id = 1"
        )
        assert result.rows[0] == (10.0, "MAIN", "main", 4, 10.0)

    def test_unknown_scalar_function(self, db):
        with pytest.raises(ExecutionError, match="unknown function"):
            db.query("SELECT SOUNDEX(region) FROM measurements")

    def test_aggregate_outside_aggregate_context_is_rejected(self, db):
        with pytest.raises(ExecutionError, match="not allowed here"):
            db.query("SELECT id FROM measurements WHERE SUM(value) > 1")


class TestOrderByDescWithNulls:
    """ORDER BY DESC and NULLs — behaviour the plan-driven rewrite preserves."""

    def test_desc_with_nulls_and_secondary_key(self, db):
        result = db.query(
            "SELECT id, value FROM measurements ORDER BY value DESC, id DESC"
        )
        # NULL sorts as the largest value in DESC; ties broken by id DESC.
        assert [row[0] for row in result] == [2, 1, 4, 3, 5]

    def test_desc_on_expression_over_source_rows(self, db):
        result = db.query(
            "SELECT id FROM measurements WHERE value IS NOT NULL "
            "ORDER BY value * 2 DESC"
        )
        assert [row[0] for row in result] == [1, 4, 3, 5]

    def test_desc_on_aggregate_alias_with_null_groups(self, db):
        result = db.query(
            "SELECT region, SUM(value) AS total FROM measurements "
            "GROUP BY region ORDER BY total DESC"
        )
        # 'main' has SUM 10 (NULL skipped), 'loop' 12, 'io' 1.
        assert [row[0] for row in result] == ["loop", "main", "io"]


class TestCountDistinct:
    def test_count_distinct_skips_nulls_and_duplicates(self, db):
        result = db.query("SELECT COUNT(DISTINCT run_id) FROM measurements")
        assert result.scalar() == 2

    def test_count_distinct_on_expression(self, db):
        result = db.query(
            "SELECT COUNT(DISTINCT region), COUNT(region) FROM measurements"
        )
        assert result.rows == [(3, 5)]

    def test_count_distinct_per_group(self, db):
        result = db.query(
            "SELECT region, COUNT(DISTINCT value) FROM measurements "
            "GROUP BY region ORDER BY region"
        )
        # 'main' has one non-NULL value; NULL is not counted.
        assert result.rows == [("io", 1), ("loop", 2), ("main", 1)]


class TestMultiTableIndexProbeStats:
    """Exact QueryStats of multi-table index-probe plans (A1-style queries)."""

    def test_pk_probe_per_outer_row(self, db):
        result = db.query(
            "SELECT r.pes FROM measurements m JOIN runs r ON r.id = m.run_id "
            "WHERE m.region = 'loop'"
        )
        assert sorted(row[0] for row in result) == [2, 8]
        # measurements scan (5) + one PK-probe result row per outer row (2).
        assert result.stats.rows_scanned == 7
        assert result.stats.index_lookups == 2
        assert result.stats.rows_joined == 2
        assert result.stats.rows_returned == 2
        assert result.stats.hash_probes == 0

    def test_probe_stats_match_the_interpreted_engine(self, db):
        from repro.relalg.interp import InterpretedSelectExecutor
        from repro.relalg.sqlparser import parse_sql

        sql = ("SELECT r.pes FROM measurements m JOIN runs r ON r.id = m.run_id "
               "WHERE m.region = 'loop'")
        compiled = db.query(sql)
        interpreted = InterpretedSelectExecutor(db.tables).execute(parse_sql(sql))
        assert compiled.stats == interpreted.stats

    def test_probe_key_from_constant_counts_one_lookup(self, db):
        result = db.query(
            "SELECT m.id FROM runs r JOIN measurements m ON m.run_id = r.id "
            "WHERE r.id = 1"
        )
        assert sorted(row[0] for row in result) == [1, 3, 5]
        # One PK probe into runs (1 row) + a scan of measurements per outer
        # row (run_id is unindexed, equated with the bound r.id → hash join:
        # 5 build rows + 3 probe results).
        assert result.stats.index_lookups == 1
        assert result.stats.rows_scanned == 1 + 5 + 3
        assert result.stats.hash_probes == 1


class TestScalarSubqueryStatsMerging:
    def test_filter_subquery_counters_merge_into_the_outer_query(self, db):
        result = db.query(
            "SELECT id FROM runs WHERE pes = (SELECT MAX(run_id) FROM measurements)"
        )
        assert [row[0] for row in result] == [1]
        # runs is scanned (2 rows); the subquery runs once per scanned row
        # and scans measurements fully each time.
        assert result.stats.subqueries == 2
        assert result.stats.rows_scanned == 2 + 2 * 5
        assert result.stats.rows_returned == 1  # outer rows only

    def test_probe_key_subquery_runs_once(self, db):
        result = db.query(
            "SELECT pes FROM runs WHERE id = (SELECT MIN(run_id) FROM measurements)"
        )
        assert result.scalar() == 2
        assert result.stats.subqueries == 1
        assert result.stats.index_lookups == 1
        assert result.stats.rows_scanned == 5 + 1

    def test_select_list_subquery_merges_per_row(self, db):
        result = db.query(
            "SELECT id, (SELECT COUNT(*) FROM measurements) FROM runs"
        )
        assert result.rows == [(1, 5), (2, 5)]
        assert result.stats.subqueries == 2
        assert result.stats.rows_scanned == 2 + 2 * 5

    def test_subquery_stats_match_the_interpreted_engine(self, db):
        from repro.relalg.interp import InterpretedSelectExecutor
        from repro.relalg.sqlparser import parse_sql

        sql = "SELECT id FROM runs WHERE pes = (SELECT MAX(run_id) FROM measurements)"
        compiled = db.query(sql)
        interpreted = InterpretedSelectExecutor(db.tables).execute(parse_sql(sql))
        assert compiled.stats == interpreted.stats


class TestExecutionLeavesNoCycles:
    """A finished execution is freed by reference counting alone."""

    @pytest.mark.parametrize("n_partitions", [1, 4])
    def test_no_exec_context_survives_with_gc_disabled(self, n_partitions):
        with Database(n_partitions=n_partitions) as database:
            database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER)")
            database.executemany(
                "INSERT INTO t (id, g) VALUES (?, ?)", [(i, i % 3) for i in range(30)]
            )
            queries = [
                ("SELECT a.id FROM t a, t b WHERE a.id = b.g AND a.id > ?", (0,)),
                ("SELECT id FROM t WHERE g = (SELECT MAX(g) FROM t)", ()),
                ("SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g", ()),
                ("SELECT id FROM t WHERE id = ?", (7,)),
            ]
            for sql, params in queries:  # plan once, so only executions remain
                database.query(sql, params)
            gc.collect()
            gc.disable()
            try:
                for sql, params in queries:
                    database.query(sql, params)
                database.execute("DELETE FROM t WHERE g = (SELECT MIN(g) FROM t)")
                leaked = sum(isinstance(o, ExecContext) for o in gc.get_objects())
            finally:
                gc.enable()
            assert leaked == 0

    def test_plan_cache_misses_leave_no_cycles(self):
        # Planning is freed by reference counting alone too: expression
        # walks must not leave self-referencing ``visit`` closures (or any
        # other cycle) behind, which with the collector off would strand
        # them and everything they hold until the next cyclic collection.
        with Database(n_partitions=2) as database:
            database.execute(
                "CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, x FLOAT)"
            )
            database.executemany(
                "INSERT INTO t (id, g, x) VALUES (?, ?, ?)",
                [(i, i % 3, float(i)) for i in range(30)],
            )
            gc.collect()
            gc.disable()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                for literal in range(20):  # distinct SQL text: all misses
                    database.query(
                        f"SELECT a.id, b.x FROM t a, t b WHERE a.g = b.id "
                        f"AND a.x > {literal} AND (b.g IN (1, 2) OR b.x IS "
                        f"NULL) AND a.id < (SELECT MAX(id) FROM t WHERE "
                        f"-g < {literal})"
                    )
                gc.collect()
                stranded = [
                    getattr(obj, "__qualname__", type(obj).__name__)
                    for obj in gc.garbage
                ]
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                gc.enable()
            assert database.plan_cache_info()["misses"] >= 20
            assert not any(name.endswith(".visit") for name in stranded)
            assert stranded == []
