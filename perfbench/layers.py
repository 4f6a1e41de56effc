"""Per-layer metrics of the traced run (their names and units are listed in
``BENCHMARK.json``).

Every per-layer figure is *per pass* (the mean over the traced passes), so
counts can be compared across runs of different length.  Layers that only
work while the workload is set up — the simulator, schema generation and
property compilation, and the loader on workloads whose passes load
nothing — are taken from the traced (first) set-up instead.  A layer a
workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence

from spans import Span, outermost, self_times


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _durations(spans: Sequence[Span], name: str) -> List[float]:
    return [span.duration for span in spans if span.name == name]


def _load_flushes(spans: Sequence[Span]) -> int:
    """Batches the loader shipped: client ``executemany`` calls under a load."""
    by_id = {span.sid: span for span in spans}
    flushes = 0
    for span in spans:
        if span.name != "client.executemany":
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != "compiler.load":
            parent = by_id.get(parent.parent)
        flushes += parent is not None
    return flushes


def per_layer_metrics(
    setup_spans: Sequence[Span],
    pass_spans: Sequence[Span],
    traced_passes: Sequence[Any],
    untraced_passes: Sequence[Any],
    tracer,
    user_bytes: int,
) -> Dict[str, float]:
    """Compute every per-layer metric from one traced run."""
    n = len(traced_passes)
    counts = {
        key: sum(p.counts.get(key, 0) for p in traced_passes) / n
        for key in traced_passes[0].counts
    }
    own = self_times(pass_spans)
    counters = {key: value / n for key, value in tracer.counters.items()}

    load_spans = pass_spans if _durations(pass_spans, "compiler.load") else setup_spans
    load_n = n if load_spans is pass_spans else 1
    client = outermost(pass_spans, "client.")
    statement_us = sorted(span.duration * 1e6 for span in client)
    percentiles = statistics.quantiles(statement_us, n=100) if len(statement_us) > 1 else [0.0] * 99
    database = outermost(pass_spans, "database.")
    hits, misses = counts.get("plan_hits", 0.0), counts.get("plan_misses", 0.0)
    evaluations = counts.get("evaluations", 0.0)
    partition_rows = list(tracer.partition_rows.values())
    wal_bytes = counts.get("wal_bytes", 0.0)
    untraced = statistics.median(p.wall_s for p in untraced_passes)
    traced = statistics.median(p.wall_s for p in traced_passes)

    def total(spans, name):
        return sum(_durations(spans, name))

    return {
        "apprentice.simulate_s": total(setup_spans, "apprentice.simulate"),
        "compiler.schema_s": total(setup_spans, "compiler.schema"),
        "compiler.property_compile_s": total(setup_spans, "compiler.property_compile"),
        "compiler.load_s": total(load_spans, "compiler.load") / load_n,
        "compiler.flushes": _load_flushes(load_spans) / load_n,
        "cosy.analyze_self_s": own.get("cosy.analyze", 0.0) / n,
        "cosy.evaluate_self_s": own.get("cosy.evaluate", 0.0) / n,
        "cosy.evaluations": evaluations,
        "cosy.statements_per_evaluation": _ratio(len(client) / n, evaluations),
        "cosy.fallbacks": counts.get("fallbacks", 0.0),
        "client.statements": len(client) / n,
        "client.statement_p50_us": percentiles[49],
        "client.statement_p99_us": percentiles[98],
        "client.self_s": sum(v for k, v in own.items() if k.startswith("client.")) / n,
        "client.rows_fetched": counts.get("client_rows_fetched", 0.0),
        "backend.self_s": sum(v for k, v in own.items() if k.startswith("backend.")) / n,
        "database.statement_s": sum(span.duration for span in database) / n,
        "database.plan_cache_hit_ratio": _ratio(hits, hits + misses),
        "database.plan_misses": misses,
        "database.rows_scanned": counters.get("database.rows_scanned", 0.0),
        "database.index_lookups": counters.get("database.index_lookups", 0.0),
        "database.range_probes": counters.get("database.range_probes", 0.0),
        "database.hash_probes": counters.get("database.hash_probes", 0.0),
        "database.rows_joined": counters.get("database.rows_joined", 0.0),
        "database.rows_returned": counters.get("database.rows_returned", 0.0),
        "database.rows_examined_per_row_returned": _ratio(
            counters.get("database.rows_scanned", 0.0),
            counters.get("database.rows_returned", 0.0),
        ),
        "database.subqueries_per_statement": _ratio(
            counters.get("database.subqueries", 0.0), len(database) / n
        ),
        "storage.executemany_s": total(pass_spans, "storage.insert_many") / n,
        "storage.rows_inserted": counters.get("storage.rows_inserted", 0.0),
        "storage.partition_skew": (
            max(partition_rows) / statistics.mean(partition_rows)
            if len(partition_rows) > 1 else 1.0
        ),
        "wal.bytes_written": wal_bytes,
        "wal.bytes_per_user_byte": _ratio(wal_bytes, user_bytes),
        "wal.fsyncs": len(_durations(pass_spans, "wal.fsync")) / n,
        "wal.fsync_s": total(pass_spans, "wal.fsync") / n,
        "wal.checkpoints": counts.get("wal_checkpoints", 0.0),
        "wal.recover_s": total(pass_spans, "wal.reopen") / n,
        "process.cpu_s": tracer.request_cpu_s / n,
        "process.wait_s": tracer.request_wait_s / n,
        "trace.untraced_pass_s": untraced,
        "trace.traced_pass_s": traced,
        "trace.overhead": traced / untraced,
    }
