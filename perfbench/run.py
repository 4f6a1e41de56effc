"""The repository benchmark: the COSY pipeline measured end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cosy_analysis --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, fresh processes
    python3 perfbench/run.py --selftest               # exact-repeat and second-seed check

Workloads (see ``workloads.py``): ``cosy_analysis`` (simulate → load →
COSY analysis on the pushdown path), ``durable_load`` (the WAL-backed write
path with recovery) and ``adhoc_query`` (an analyst's SQL mix over a
10⁵-row table).

One run sets the workload up several times, spread over the run
(``setup_s`` is the median), and after each set-up repeats passes — fixed
units of work from one closed-loop client — until ``--seconds`` of timed
work are done in all.  Every timed step of a pass
comes back in the same order each pass; ``pass_s`` and ``ops_per_s``
describe the *median pass* (each step's median over the passes), so a burst
of machine noise in one pass does not move them.  The latency metrics
take each request kind's percentile over the untraced passes and report the
geometric mean over the kinds, so each kind weighs the same.  After the timed
phase every answer is checked against an independent reference, the
oracles check themselves on perturbed answers, and the per-pass counts must
be identical from pass to pass.

The end-to-end times are scaled to a reference machine speed.  A shared
2-core virtual machine was measured changing speed by ±25% in phases of
minutes, longer than a run, so ten runs of unchanged code spread by 15–40%
(quartile distance over median) in wall time.  Before every set-up and
pass the run times a fixed piece of pure-Python work that shares no code
with the program (``_calibration_loop``); every end-to-end time is
multiplied by ``REFERENCE_LOOP_S`` over the run's median loop time, which
cancels the machine's speed and leaves the program's.  The wall times as
measured, the loop times and the scale are all in the report line.

The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1`` (traced and untraced passes alternate, so the run also reports
its tracing overhead).  The line before it is a self-describing report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Calibration loop runs before every set-up and pass.
LOOPS_PER_POINT = 3
#: The calibration loop's duration on that 2-core virtual machine (Python
#: 3.11) in its fast phases; scaled times read as wall times there.
REFERENCE_LOOP_S = 0.022
#: What each end-to-end metric means (names and units: ``BENCHMARK.json``).
MEANINGS = {
    "setup_s": "median time of one set-up (scaled)",
    "pass_s": "time of the median pass (scaled)",
    "ops_per_s": "operations of one pass per (scaled) second of its median requests",
    "latency_p50_gmean_ms": "geometric mean over request kinds of each kind's median latency (scaled)",
    "latency_p90_gmean_ms": "geometric mean over request kinds of each kind's 90th-percentile latency (scaled)",
    "peak_rss_mb": "peak resident memory of the workload process",
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def workload_names() -> list:
    return [workload["name"] for workload in load_spec()["workloads"]]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workload_names() + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"],
                        help="timed work per run (whole passes; at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload twice per seed and compare counts")
    return parser.parse_args(argv)


def _digest(counts) -> str:
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]


def _latencies_by_kind(kinds, passes):
    """Every request latency of the passes, grouped by request kind."""
    by_kind = {}
    for result in passes:
        for kind, latency in zip(kinds, result.latencies_s):
            by_kind.setdefault(kind, []).append(latency)
    return by_kind


def _gmean_percentiles(by_kind):
    """(p50, p90) in milliseconds: the geometric mean over request kinds of
    each kind's percentile, so every kind weighs the same however fast it
    is (as in TPC-H's power metric)."""
    cuts = [
        statistics.quantiles(samples, n=10, method="inclusive") if len(samples) > 1
        else samples * 9
        for samples in by_kind.values()
    ]
    return tuple(
        statistics.geometric_mean(cut[decile] for cut in cuts) * 1e3 for decile in (4, 8)
    )


def _step_medians(steps_per_pass):
    """The median of every timed step over the passes."""
    return [statistics.median(step) for step in zip(*steps_per_pass)]


def _calibration_loop() -> float:
    """Seconds a fixed piece of pure-Python work (dict and string building,
    integer arithmetic, a sort) takes now: a probe of the machine's speed."""
    start = time.perf_counter()
    table = {}
    for i in range(60_000):
        table[i] = str(i)
    total = 0
    for i in range(150_000):
        total += i * i % 7
    sorted(table.values())
    return time.perf_counter() - start


def _run(workload, seed: int, seconds: float, tracer, trace: bool):
    """Set the workload up ``SETUPS`` times, spread over the run: each
    set-up is followed by whole passes until its share of ``seconds`` of
    timed work is done, so the set-ups meet the machine at different times
    of the run.  A traced run traces its first set-up and alternates
    untraced and traced passes, at least one of each.  Returns the set-up
    times, the traced set-up's spans, the passes, which of them were traced,
    the traced passes' spans and the calibration loop times."""
    setup_times, setup_spans, loops = [], [], []
    passes, traced_flags, pass_spans = [], [], []
    timed = 0.0
    for segment in range(SETUPS):
        if segment:
            workload.teardown()
        gc.collect()
        loops += [_calibration_loop() for _ in range(LOOPS_PER_POINT)]
        traced = trace and segment == 0
        mark = len(tracer.spans)
        with tracer.recording() if traced else contextlib.nullcontext():
            start = time.perf_counter()
            workload.setup(seed, tracer)
            setup_times.append(time.perf_counter() - start)
        if traced:
            setup_spans = tracer.spans[mark:]
            tracer.clear_counters()
        last = segment == SETUPS - 1
        while timed < seconds * (segment + 1) / SETUPS or (
            last and trace and len(set(traced_flags)) < 2
        ):
            loops += [_calibration_loop() for _ in range(LOOPS_PER_POINT)]
            traced = trace and len(passes) % 2 == 1
            mark = len(tracer.spans)
            with tracer.recording() if traced else contextlib.nullcontext():
                result = workload.run_pass(len(passes), tracer)
            if traced:
                pass_spans.extend(tracer.spans[mark:])
            passes.append(result)
            traced_flags.append(traced)
            timed += result.wall_s
    return setup_times, setup_spans, passes, traced_flags, pass_spans, loops


def _check(workload, passes):
    """Every answer against the reference, the oracle's self-test, and the
    exact repeat of the per-pass counts."""
    start = time.perf_counter()
    reference = workload.reference()
    oracle_s = time.perf_counter() - start
    problems = list(workload.oracle_self_test(reference))
    attempted = failed = 0
    for result in passes:
        if len(result.outputs) != len(reference):
            problems.append("a pass answered a different number of operations")
        for position, expected in enumerate(reference):
            got = result.outputs[position] if position < len(result.outputs) else None
            attempted += workload.weight(expected)
            failed += workload.wrong(got, expected, position)
    first_counts = passes[0].counts
    changed = sorted(
        {key for result in passes for key in result.counts
         if result.counts[key] != first_counts.get(key)}
    )
    if changed:
        problems.append(f"per-pass counts differ between passes: {changed}")
    return attempted, failed, problems, oracle_s


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload; returns the result object."""
    from layers import per_layer_metrics
    from spans import Tracer
    from workloads import make_workload

    spec = load_spec()
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORKDIR)
    tracer = Tracer()
    workload = make_workload(name, workdir)
    try:
        setup_times, setup_spans, passes, traced_flags, pass_spans, loops = _run(
            workload, seed, seconds, tracer, trace
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, problems, oracle_s = _check(workload, passes)
        sizes = workload.describe()
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    first_counts = passes[0].counts
    untraced = [p for p, t in zip(passes, traced_flags) if not t]
    median_requests = _step_medians([p.latencies_s for p in untraced])
    median_other = _step_medians([p.other_s for p in untraced])
    by_kind = _latencies_by_kind(workload.request_kinds(), untraced)
    p50, p90 = _gmean_percentiles(by_kind)
    steps = dict(zip(workload.other_steps, median_other))
    measured = {
        "setup_s": statistics.median(setup_times),
        "pass_s": sum(median_requests) + sum(median_other),
        "ops_per_s": untraced[0].ops / sum(median_requests),
        "latency_p50_gmean_ms": p50,
        "latency_p90_gmean_ms": p90,
        "peak_rss_mb": peak_rss_mb,
    }
    scale = REFERENCE_LOOP_S / statistics.median(loops)
    values = {name: value * scale for name, value in measured.items()}
    values["ops_per_s"] = measured["ops_per_s"] / scale
    values["peak_rss_mb"] = measured["peak_rss_mb"]
    if trace:
        traced_passes = [p for p, t in zip(passes, traced_flags) if t]
        layer_values = per_layer_metrics(
            setup_spans, pass_spans, traced_passes, untraced, tracer,
            getattr(workload, "user_bytes", 0),
        )
        listed = spec["per_layer"]
        tracer.write(os.path.join(WORKDIR, "traces", f"{name}-seed{seed}.jsonl.gz"))
    else:
        listed, layer_values = spec["end_to_end"], values
    metrics = {m["name"]: {"value": layer_values[m["name"]], "unit": m["unit"]} for m in listed}

    report = {
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "seed": seed,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "load": "one closed-loop client in one process",
        "units": {
            "operation": workload.ops_unit,
            "request": workload.request_unit,
            "pass": workload.pass_unit,
        },
        "sizes": sizes,
        "setup_times_s": setup_times,
        "passes": len(passes),
        "pass_walls_s": [p.wall_s for p in passes],
        "traced_passes": sum(traced_flags),
        "latency_samples_per_kind": {kind: len(v) for kind, v in by_kind.items()},
        "other_steps_s": steps,
        "oracle_s": oracle_s,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "virtual_s_per_pass": first_counts.get("virtual_s"),
        "counts_per_pass": first_counts,
        "counts_digest": _digest(first_counts),
        "counts_repeat_exactly": all(p.counts == first_counts for p in passes),
        "problems": problems,
        "calibration_loop_s": loops,
        "speed_scale": scale,
        "measured_wall": measured,
        "end_to_end": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"], "meaning": MEANINGS[m["name"]]}
            for m in spec["end_to_end"]
        },
    }
    if "reopen" in steps:
        report["recovery_s"] = steps["reopen"]
    print(json.dumps({"report": report}))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh interpreter; returns its result and report."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} failed:\n{completed.stderr[-2000:]}")
    return {"result": json.loads(lines[-1]), "report": json.loads(lines[-2])["report"]}


def run_all(args) -> int:
    """Every workload in its own fresh process; one table of every metric,
    plus the report's failure ratio, modeled backend time and recovery time."""
    results = {}
    for workload in workload_names():
        child = _child(workload, args.seed, args.seconds, args.trace)
        result, report = child["result"], child["report"]
        results[workload] = result
        rows = [(metric, entry["value"], entry["unit"]) for metric, entry in result["metrics"].items()]
        rows.append(("failed_ratio", report["failed_ratio"], "1"))
        rows.append(("virtual_s", report["virtual_s_per_pass"], "s"))
        if "recovery_s" in report:
            rows.append(("recovery_s", report["recovery_s"], "s"))
        for metric, value, unit in rows:
            print(f"{workload:14s} {metric:40s} {value:16.6f} {unit}")
        print(f"{workload:14s} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def selftest(args) -> int:
    """Counts repeat exactly across fresh processes; a second seed runs green."""
    problems = []
    for workload in workload_names():
        for seed in (args.seed, args.seed + 1):
            runs = [_child(workload, seed, 1.0, 0) for _ in range(2 if seed == args.seed else 1)]
            for run in runs:
                if not run["result"]["correct"]:
                    problems.append(f"{workload} seed {seed}: {run['report']['problems']}")
            digests = {run["report"]["counts_digest"] for run in runs}
            if len(digests) != 1:
                problems.append(f"{workload} seed {seed}: counts differ across runs {digests}")
            print(f"{workload:14s} seed {seed}: digests {sorted(digests)} "
                  f"correct={[run['result']['correct'] for run in runs]}")
    for problem in problems:
        print("PROBLEM:", problem)
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.selftest:
        return selftest(args)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
