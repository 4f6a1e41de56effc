"""The benchmark's workloads: inputs made from a seed, timed passes, oracles.

Every workload is driven the same way by ``run.py``:

* ``setup(seed, tracer)`` builds the state a user would have before the first
  request (simulated data, schema, loaded rows, warm caches).  ``run.py``
  sets it up several times and reports the median as ``setup_s``.
* ``run_pass(index, tracer)`` runs one *pass*: a fixed unit of work that
  repeats exactly, so its counts (statements, QueryStats sums, plan-cache
  hits and misses, virtual time, WAL bytes, ...) must be identical from pass
  to pass.  Only the pass's own steps are timed (its requests, plus the
  schema and the reopen of ``durable_load``); bookkeeping between them is
  not.
* ``request_kinds()`` names the kind of every request of a pass, in the
  order of ``PassResult.latencies_s``, and ``other_steps`` names the other
  timed steps, in the order of ``PassResult.other_s``.
* ``reference()`` computes, outside the timed phase, what every operation
  of a pass must answer, with an independent engine or evaluator;
  ``wrong(got, expected, position)`` counts the wrong answers of one
  operation and ``weight(expected)`` how many operations it stands for.
* ``oracle_self_test(reference)`` perturbs a real reference answer and
  returns a message for every perturbation the oracle fails to catch.

The load is one closed-loop client in this process: each request is issued
after the previous one returns.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import random
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.apprentice import ExecutionSimulator, SimulationConfig, synthetic_workload
from repro.asl.specs import cosy_specification
from repro.compiler import DatabaseLoader, generate_schema
from repro.cosy import ClientSideStrategy, CosyAnalyzer, PushdownStrategy
from repro.relalg import (
    CHUNK_ROWS,
    Database,
    NativeClient,
    RelalgError,
    backend,
    fingerprint_hash,
    state_fingerprint,
)
from repro.relalg.wal import encode_row

#: The paper's processor counts: one simulated test run per entry.
PES = (1, 2, 4, 8, 16, 32)
#: The ``scalable`` scenario every COSY workload simulates (12,509 rows).
SCENARIO = {"functions": 20, "regions_per_function": 8, "calls_per_region": 2}
#: Relative tolerance of the severity oracle (the A2 tolerance).
SEVERITY_TOLERANCE = 1e-9
#: The engine's WAL autocheckpoint threshold, read from its signature so the
#: reported flush policy is the one that actually ran.
WAL_AUTOCHECKPOINT = (
    inspect.signature(Database).parameters["wal_autocheckpoint"].default
)
FLUSH_POLICY = (
    "engine default: fsync at every autocommit statement or batch and every "
    f"DDL; autocheckpoint when the log reaches {WAL_AUTOCHECKPOINT} bytes"
)


@dataclass
class PassResult:
    """What one pass did, as seen from outside the program."""

    #: Latency of every user request of the pass, in seconds, in the same
    #: order in every pass; their sum is the time behind ``ops``.
    latencies_s: List[float] = field(default_factory=list)
    #: Other timed steps of the pass (e.g. schema, reopen), same order.
    other_s: List[float] = field(default_factory=list)
    #: User operations the pass completed (``ops_per_s`` numerator).
    ops: int = 0
    #: Per-operation answers (``None`` when the operation raised), checked
    #: against ``reference()`` after the timed phase.
    outputs: List[Any] = field(default_factory=list)
    #: Counts that must repeat exactly from pass to pass.
    counts: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Timed seconds of the whole pass."""
        return sum(self.latencies_s) + sum(self.other_s)


def simulate(seed: int):
    """Simulate the ``scalable`` scenario over every processor count."""
    workload = synthetic_workload("scalable", **SCENARIO)
    config = SimulationConfig(pe_counts=PES, seed=seed)
    return ExecutionSimulator(workload, config).run()


def _summary(database: Database) -> Dict[str, int]:
    summary = database.summary
    counts = {
        item.name: getattr(summary, item.name)
        for item in fields(summary)
        if isinstance(getattr(summary, item.name), int)
    }
    counts["partition_rows_scanned"] = sum(
        summary.partition_rows_scanned.values()
    )
    return counts


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _engine_counts(client: NativeClient) -> Dict[str, int]:
    """Engine-side counters of one client: summary, plan cache, client."""
    counts = {f"summary.{k}": v for k, v in _summary(client.backend.database).items()}
    plan = client.plan_cache_info()
    counts["plan_hits"] = plan["hits"]
    counts["plan_misses"] = plan["misses"]
    counts["client_calls"] = client.calls
    counts["client_rows_fetched"] = client.rows_fetched
    return counts


# --------------------------------------------------------------------------- #
# cosy_analysis
# --------------------------------------------------------------------------- #


def _analysis_answer(result) -> Tuple[Tuple[Tuple[str, bool, float], ...], int]:
    """``((property@subject, holds, severity), ...), skipped`` of one analysis."""
    instances = tuple(
        sorted(
            (f"{i.property_name}@{i.subject}", bool(i.holds), float(i.severity))
            for i in result.instances
        )
    )
    return instances, result.skipped


def _close_enough(a: float, b: float) -> bool:
    return abs(a - b) <= SEVERITY_TOLERANCE * max(abs(a), abs(b))


def severity_mismatches(got, expected) -> int:
    """Wrong evaluations in one analysis answer (subject, holds, severity)."""
    if got is None:
        return max(1, len(expected[0]) + expected[1])
    got_map = {subject: (holds, sev) for subject, holds, sev in got[0]}
    wrong = abs(got[1] - expected[1])
    for subject, holds, severity in expected[0]:
        found = got_map.pop(subject, None)
        if found is None or found[0] != holds or not _close_enough(found[1], severity):
            wrong += 1
    return wrong + len(got_map)


class CosyAnalysis:
    ops_unit = "property evaluations"
    request_unit = "one COSY analysis of one test run (every property)"
    pass_unit = "one analysis session: every test run analysed once"
    other_steps = ()

    def __init__(self) -> None:
        self.client: Optional[NativeClient] = None

    def setup(self, seed: int, tracer) -> None:
        specification = cosy_specification()
        with tracer.span("apprentice.simulate"):
            repository = simulate(seed)
        with tracer.span("compiler.schema"):
            mapping = generate_schema(specification)
            self.client = NativeClient(backend("oracle7"))
            loader = DatabaseLoader(mapping, self.client)
            loader.create_schema(with_indexes=True)
        ids = loader.load(repository)
        self.rows_loaded = loader.rows_inserted
        self.strategy = PushdownStrategy(specification, mapping, self.client, ids)
        with tracer.span("compiler.property_compile"):
            for name in specification.index.properties:
                self.strategy.compiled(name)
        self.analyzer = CosyAnalyzer(repository, specification=specification)
        # Warm-up: the largest run, where the guarded severity queries run
        # too, fills the plan cache.
        self.analyzer.analyze(pes=PES[-1], strategy=self.strategy)

    def run_pass(self, index: int, tracer) -> PassResult:
        client, strategy = self.client, self.strategy
        client.backend.reset_clock()
        before = _engine_counts(client)
        statements, fallbacks = strategy.statements_issued, strategy.fallbacks
        result = PassResult()
        evaluations = 0
        for pes in PES:
            with tracer.request():
                start = time.perf_counter()
                try:
                    analysis = self.analyzer.analyze(pes=pes, strategy=strategy)
                except RelalgError:
                    analysis = None
                took = time.perf_counter() - start
            result.latencies_s.append(took)
            answer = None if analysis is None else _analysis_answer(analysis)
            if answer is not None:
                evaluations += self.weight(answer)
            result.outputs.append(answer)
        result.ops = evaluations
        result.counts = _delta(_engine_counts(client), before)
        result.counts.update(
            evaluations=evaluations,
            statements=strategy.statements_issued - statements,
            fallbacks=strategy.fallbacks - fallbacks,
            virtual_s=client.elapsed,
        )
        return result

    @staticmethod
    def request_kinds() -> List[str]:
        return [f"analyze pes={pes}" for pes in PES]

    def reference(self) -> List[Any]:
        """Every request evaluated by the ASL interpreter (client side)."""
        interpreter = ClientSideStrategy(self.analyzer.specification)
        return [
            _analysis_answer(self.analyzer.analyze(pes=pes, strategy=interpreter))
            for pes in PES
        ]

    @staticmethod
    def wrong(got, expected, position: int) -> int:
        return min(severity_mismatches(got, expected), CosyAnalysis.weight(expected))

    @staticmethod
    def weight(expected) -> int:
        """Evaluations one answer stands for: instances plus skipped contexts."""
        return len(expected[0]) + expected[1]

    def oracle_self_test(self, reference: List[Any]) -> List[str]:
        sample = next(answer for answer in reference if answer[0])
        subject, holds, severity = sample[0][0]
        rest = sample[0][1:]
        perturbed = {
            "severity off by 1e-6": ((subject, holds, severity * (1 + 1e-6) + 1e-6),) + rest,
            "holds flipped": ((subject, not holds, severity),) + rest,
            "instance missing": rest,
        }
        failures = [
            f"cosy oracle missed: {label}"
            for label, instances in perturbed.items()
            if severity_mismatches((instances, sample[1]), sample) == 0
        ]
        within = ((subject, holds, severity * (1 + 1e-12)),) + rest
        if severity_mismatches((within, sample[1]), sample) != 0:
            failures.append("cosy oracle rejects a difference within tolerance")
        return failures

    def describe(self) -> Dict[str, Any]:
        return {
            "rows": self.rows_loaded,
            "test_runs": len(PES),
            "distinct_sql_texts": self.client.plan_cache_info()["size"],
            "plan_cache_size": self.client.plan_cache_info()["size"],
            "backend": "oracle7",
        }

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


# --------------------------------------------------------------------------- #
# durable_load
# --------------------------------------------------------------------------- #


class WalMeter:
    """Counts WAL events through the engine's public ``wal_hook``.

    Bytes written are read from the log's size at every log fsync (the log
    only grows between resets) and from the checkpoint file at every
    checkpoint, so truncated generations are still counted.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.fsyncs = 0
        self.checkpoints = 0
        self.bytes_written = 0
        self._log_size = 0

    def hook(self, label: str, count: int) -> None:
        if label.startswith("fsync:"):
            self.fsyncs += 1
            if not label.startswith("fsync:ckpt"):
                size = os.path.getsize(self.path)
                self.bytes_written += size - self._log_size
                self._log_size = size
        elif label == "truncate:log":
            self._log_size = 0
        elif label == "rename:ckpt":
            self.checkpoints += 1
            self.bytes_written += os.path.getsize(self.path + ".ckpt")


def _remove_wal(path: str) -> None:
    for suffix in ("", ".ckpt", ".ckpt.tmp"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


class DurableLoad:
    ops_unit = "repository rows loaded durably (fsyncs included)"
    request_unit = "one durable load of one simulated repository"
    pass_unit = (
        "one session: schema plus six repository loads into a fresh WAL "
        "database, then reopen with recovery"
    )
    #: Repositories per session: six loads write enough log (~4.4 MB) for
    #: the engine's default autocheckpoint to fire once in every session.
    VERSIONS = 6
    other_steps = ("schema", "reopen")

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.repositories: List[Any] = []
        self.rows_per_pass = 0
        self.checkpoints_fired = 0

    def setup(self, seed: int, tracer) -> None:
        specification = cosy_specification()
        with tracer.span("apprentice.simulate"):
            self.repositories = [
                simulate(seed * self.VERSIONS + k) for k in range(self.VERSIONS)
            ]
        with tracer.span("compiler.schema"):
            self.mapping = generate_schema(specification)
        # No warm-up: every pass starts from a fresh database and log, so
        # there is no cache to fill.

    def run_pass(self, index: int, tracer) -> PassResult:
        path = os.path.join(self.workdir, f"session{index}.wal")
        meter = WalMeter(path)
        result = PassResult()
        start = time.perf_counter()
        database = Database(name="oracle7", wal_path=path, wal_hook=meter.hook)
        client = NativeClient(backend("oracle7", database=database))
        loader = DatabaseLoader(self.mapping, client)
        loader.create_schema(with_indexes=True)
        result.other_s.append(time.perf_counter() - start)
        for repository in self.repositories:
            with tracer.request():
                start = time.perf_counter()
                try:
                    loader.load(repository)
                    loaded = True
                except RelalgError:
                    loaded = None
                took = time.perf_counter() - start
            result.outputs.append(loaded)
            result.latencies_s.append(took)
        result.ops = loader.rows_inserted
        counts = _engine_counts(client)
        counts["virtual_s"] = client.elapsed
        client.close()
        with tracer.request(), tracer.span("wal.reopen"):
            start = time.perf_counter()
            try:
                recovered: Optional[Database] = Database(
                    name="oracle7", wal_path=path, wal_hook=meter.hook
                )
            except RelalgError:
                recovered = None
            recover_s = time.perf_counter() - start
        result.other_s.append(recover_s)
        if recovered is None:
            result.outputs.append(None)
        else:
            result.outputs.append(fingerprint_hash(state_fingerprint(recovered)))
            recovered.close()
        _remove_wal(path)
        counts.update(
            rows_loaded=loader.rows_inserted,
            wal_bytes=meter.bytes_written,
            wal_fsyncs=meter.fsyncs,
            wal_checkpoints=meter.checkpoints,
        )
        result.counts = counts
        self.rows_per_pass = loader.rows_inserted
        self.checkpoints_fired += meter.checkpoints
        return result

    def request_kinds(self) -> List[str]:
        return [f"load {k + 1} of {self.VERSIONS}" for k in range(self.VERSIONS)]

    def reference(self) -> List[Any]:
        """The state fingerprint of the same loads into an in-memory database."""
        with Database(name="oracle7") as database:
            loader = DatabaseLoader(self.mapping, NativeClient(backend("oracle7", database=database)))
            loader.create_schema(with_indexes=True)
            for repository in self.repositories:
                loader.load(repository)
            self.user_bytes = sum(
                len(json.dumps(encode_row(row)))
                for name in database.table_names()
                for row in database.table(name).scan()
            )
            fingerprint = fingerprint_hash(state_fingerprint(database))
        return [True] * len(self.repositories) + [fingerprint]

    @staticmethod
    def wrong(got, expected, position: int) -> int:
        return 0 if got == expected else 1

    @staticmethod
    def weight(expected) -> int:
        return 1

    def oracle_self_test(self, reference: List[Any]) -> List[str]:
        with Database(name="oracle7") as database:
            database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
            database.executemany("INSERT INTO t (id, v) VALUES (?, ?)", [(1, 0.5), (2, 1.5)])
            before = fingerprint_hash(state_fingerprint(database))
            database.execute("DELETE FROM t WHERE id = 2")
            after = fingerprint_hash(state_fingerprint(database))
        fingerprint = reference[-1]
        if self.wrong(after, before, 0) == 0 or self.wrong(fingerprint[::-1], fingerprint, 0) == 0:
            return ["durable oracle missed a perturbed state"]
        return []

    def describe(self) -> Dict[str, Any]:
        return {
            "rows_per_pass": self.rows_per_pass,
            "repositories_per_pass": self.VERSIONS,
            "checkpoints_fired": self.checkpoints_fired,
            "flush_policy": FLUSH_POLICY,
            "backend": "oracle7",
        }

    def teardown(self) -> None:
        self.repositories = []


# --------------------------------------------------------------------------- #
# adhoc_query
# --------------------------------------------------------------------------- #

N_ROWS = 100_000
N_REGIONS = 64
PARTITIONS = 8
#: Values of ``incl``/``excl`` are multiples of 1/GRID: float sums are exact
#: in any order, and literals placed strictly between two grid points give
#: the same answer whatever their last digits.
GRID = 1024
INSERT_ROWS = 10

TEMPLATES = {
    "filtered_aggregate": (
        "SELECT COUNT(*), SUM(excl), AVG(incl) FROM samples "
        "WHERE pe = ? AND excl > ?"
    ),
    "group_by": (
        "SELECT region, COUNT(*), SUM(incl), MAX(excl) FROM samples "
        "WHERE excl < ? GROUP BY region"
    ),
    "join_group_by": (
        "SELECT r.fn, COUNT(*), SUM(s.excl) FROM samples s "
        "JOIN regions r ON s.region = r.region WHERE s.excl >= ? GROUP BY r.fn"
    ),
    "range_probe": "SELECT id, incl FROM samples WHERE incl BETWEEN ? AND ?",
    "top_k": "SELECT id, incl FROM samples WHERE excl < ? ORDER BY incl DESC LIMIT 20",
    # The always-true bound on ``excl`` gives the literal form a float to
    # move, so its text is new in every pass.
    "point_lookup": "SELECT id, region, pe, incl, excl FROM samples WHERE id = ? AND excl >= ?",
    "insert": "INSERT INTO samples (id, region, pe, incl, excl) VALUES (?, ?, ?, ?, ?)",
    "delete": "DELETE FROM samples WHERE id >= ?",
}
ORDERED_TEMPLATES = ("top_k",)


@dataclass
class Op:
    """One operation of a pass: a template, its parameters, its text form."""

    template: str
    params: Sequence[Any]
    literal: bool = False

    def sql(self, jitter: int) -> Tuple[str, Sequence[Any]]:
        """The SQL text and parameters to send.

        Literal operations inline their parameters; floats move by
        ``jitter`` × 1e-8, which keeps them between the same two grid points
        (same answer) but makes the text new, so it misses the plan cache.
        """
        text = TEMPLATES[self.template]
        if not self.literal:
            return text, self.params
        for value in self.params:
            if isinstance(value, float):
                rendered = f"{value + jitter * 1e-8:.10f}"
            else:
                rendered = str(value)
            text = text.replace("?", rendered, 1)
        return text, ()


def _mid_grid(rng: random.Random, value: float) -> float:
    """A seeded literal between two grid points within 1/16 above ``value``.

    The band is narrow so every seed's predicate keeps about the same
    selectivity: the seed changes the data and the order of the mix, not
    how much work a pass does.
    """
    return (int(value * GRID) + rng.randrange(GRID // 16) + 0.5) / GRID


def sample_rows(seed: int) -> List[Tuple[Any, ...]]:
    rng = random.Random(seed)
    rows = []
    for i in range(N_ROWS):
        incl = rng.randrange(64 * GRID)
        rows.append(
            (
                i,
                rng.randrange(N_REGIONS),
                rng.choice(PES),
                incl / GRID,
                rng.randrange(incl + 1) / GRID,
            )
        )
    return rows


def region_rows() -> List[Tuple[Any, ...]]:
    return [(r, r // 8, f"phase_{r // 8:03d}_region_{r % 8:03d}") for r in range(N_REGIONS)]


def build_samples(client, seed: int) -> None:
    """Create and fill the ``samples`` fact and ``regions`` dimension tables."""
    client.execute(
        "CREATE TABLE samples (id INTEGER PRIMARY KEY, region INTEGER, "
        "pe INTEGER, incl FLOAT, excl FLOAT)"
    )
    # The dimension table has no key or index on its join column, so the
    # join is a hash join.
    client.execute("CREATE TABLE regions (region INTEGER, fn INTEGER, name VARCHAR)")
    client.executemany("INSERT INTO regions (region, fn, name) VALUES (?, ?, ?)", region_rows())
    client.executemany(TEMPLATES["insert"], sample_rows(seed))
    client.execute("CREATE INDEX idx_samples_incl ON samples (incl) ORDERED")


def rows_match(got, expected, ordered: bool) -> bool:
    if got is None:
        return False
    if isinstance(expected, int) or ordered:
        return got == expected
    return sorted(got, key=repr) == sorted(expected, key=repr)


def _range(rng: random.Random) -> List[float]:
    low = _mid_grid(rng, 8 + 48 * rng.random())
    return [low, low + 0.125]


#: Draws the parameters of one read of each template.
READ_PARAMS = {
    "point_lookup": lambda rng: [rng.randrange(N_ROWS), -0.5 / GRID],
    "range_probe": _range,
    "top_k": lambda rng: [_mid_grid(rng, 48.0)],
    "filtered_aggregate": lambda rng: [rng.choice(PES), _mid_grid(rng, 4.0)],
    "group_by": lambda rng: [_mid_grid(rng, 8.0)],
    "join_group_by": lambda rng: [_mid_grid(rng, 16.0)],
}
#: Reads of every template in each form (placeholders, inline literals) per
#: pass.
READ_REPEATS = 3


def make_ops(rng: random.Random) -> List[Op]:
    """The seeded operation mix of one pass.

    No analyst trace gives the frequencies of the templates, so they are
    invented and equal: every read template runs ``READ_REPEATS`` times with
    placeholders (plan-cache hits) and as often with inline literals
    (misses), in a seeded order.  All reads of a template share one draw of
    parameters, so the reference engine evaluates each template once.  The
    batch insert and the delete that undoes it (2 of 38 operations, about
    5%) come last, so every pass starts from the same rows with cold chunk
    caches.
    """
    ops = [
        Op(template, params, literal)
        for template, params in ((t, draw(rng)) for t, draw in READ_PARAMS.items())
        for literal in (False, True)
        for _ in range(READ_REPEATS)
    ]
    rng.shuffle(ops)
    new_rows = [
        (N_ROWS + k, rng.randrange(N_REGIONS), rng.choice(PES),
         (64 * GRID + k) / GRID, rng.randrange(GRID) / GRID)
        for k in range(INSERT_ROWS)
    ]
    ops.append(Op("insert", new_rows))
    ops.append(Op("delete", [N_ROWS]))
    return ops


class AdhocQuery:
    ops_unit = "operations (queries and writes) completed"
    request_unit = "one query or write statement"
    pass_unit = "one round of the seeded operation mix"
    other_steps = ()

    def __init__(self) -> None:
        self.client: Optional[NativeClient] = None
        self.texts: set = set()

    def setup(self, seed: int, tracer) -> None:
        self.seed = seed
        self.client = NativeClient(backend("oracle7", n_partitions=PARTITIONS))
        build_samples(self.client, seed)
        self.ops = make_ops(random.Random(seed))
        # Warm-up: each distinct kind of operation once, which plans every
        # placeholder text and leaves the table as every pass leaves it.
        kinds = {}
        for op in self.ops:
            kinds.setdefault((op.template, op.literal), op)
        self._run(list(kinds.values()), -1, tracer)

    def _execute(self, client, op: Op, jitter: int):
        sql, params = op.sql(jitter)
        self.texts.add(sql)
        if op.template == "insert":
            return client.executemany(sql, params)
        if op.template == "delete":
            return client.execute(sql, params)
        return client.query(sql, params).rows

    def run_pass(self, index: int, tracer) -> PassResult:
        return self._run(self.ops, index, tracer)

    def _run(self, ops: List[Op], index: int, tracer) -> PassResult:
        client = self.client
        client.backend.reset_clock()
        before = _engine_counts(client)
        result = PassResult()
        base = (index + 1) * len(self.ops)
        for position, op in enumerate(ops):
            jitter = 1 + (base + position) % 40_000
            with tracer.request():
                start = time.perf_counter()
                try:
                    answer = self._execute(client, op, jitter)
                except RelalgError:
                    answer = None
                took = time.perf_counter() - start
            result.latencies_s.append(took)
            result.outputs.append(answer)
        result.ops = len(ops)
        result.counts = _delta(_engine_counts(client), before)
        result.counts["virtual_s"] = client.elapsed
        return result

    def request_kinds(self) -> List[str]:
        return [
            f"{op.template} ({'literal' if op.literal else 'placeholder'})"
            if op.template in READ_PARAMS else op.template
            for op in self.ops
        ]

    def reference(self) -> List[Any]:
        """The pass replayed on the interpreted (seed) engine.

        Literal operations are replayed in their placeholder form: the
        literal sits between the same two grid points as the parameter, so
        both texts have one answer.  Repeats of a read on an unchanged
        table are evaluated once.
        """
        with NativeClient(backend("oracle7", engine="interpreted", n_partitions=PARTITIONS)) as client:
            build_samples(client, self.seed)
            # An index the measured database lacks: it changes no answer, and
            # spares the interpreted engine a nested-loop join.
            client.execute("CREATE INDEX idx_regions_region ON regions (region)")
            answers: List[Any] = []
            memo: Dict[Tuple[str, Tuple[Any, ...]], Any] = {}
            for op in self.ops:
                key = (op.template, tuple(op.params))
                if op.template in ("insert", "delete"):
                    memo.clear()
                elif key in memo:
                    answers.append(memo[key])
                    continue
                answer = self._execute(client, Op(op.template, op.params), 0)
                if op.template not in ("insert", "delete"):
                    memo[key] = answer
                answers.append(answer)
        return answers

    def wrong(self, got, expected, position: int) -> int:
        ordered = self.ops[position].template in ORDERED_TEMPLATES
        return 0 if rows_match(got, expected, ordered) else 1

    @staticmethod
    def weight(expected) -> int:
        return 1

    def oracle_self_test(self, reference: List[Any]) -> List[str]:
        failures = []
        for position, expected in enumerate(reference):
            if not isinstance(expected, list) or not expected:
                continue
            first = expected[0]
            changed = (first[0],) + tuple(
                v + 1 if isinstance(v, (int, float)) and not isinstance(v, bool) else v
                for v in first[1:]
            )
            if changed == first:
                continue
            if self.wrong([changed] + expected[1:], expected, position) == 0:
                failures.append(
                    f"query oracle missed a perturbed row ({self.ops[position].template})"
                )
        if not any(isinstance(e, list) and e for e in reference):
            failures.append("query oracle had no rows to perturb")
        return failures

    def describe(self) -> Dict[str, Any]:
        database = self.client.backend.database
        stats = database.table("samples").statistics()
        literal = sum(1 for op in self.ops if op.literal)
        return {
            "rows": stats.row_count,
            "partitions": stats.n_partitions,
            "chunk_rows": CHUNK_ROWS,
            "chunks_per_partition": [
                math.ceil(rows / CHUNK_ROWS) for rows in stats.partition_rows
            ],
            "ops_per_pass": len(self.ops),
            "literal_ops_per_pass": literal,
            "write_ops_per_pass": sum(
                1 for op in self.ops if op.template in ("insert", "delete")
            ),
            "distinct_sql_texts": len(self.texts),
            "plan_cache_size": self.client.plan_cache_info()["size"],
            "backend": "oracle7",
        }

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        self.texts = set()


def make_workload(name: str, workdir: str):
    if name == "durable_load":
        return DurableLoad(workdir)
    return {"cosy_analysis": CosyAnalysis, "adhoc_query": AdhocQuery}[name]()

