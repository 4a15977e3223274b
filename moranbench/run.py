"""moran benchmark: one closed-loop client driving the public moran API.

    python3 moranbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; moran is imported from ``src/`` and
nowhere else.  One process, one thread, one client: the next operation
starts when the previous one has returned.  Each op runs under an in-process
deadline (``signal.setitimer``); its result is checked outside the timed
span, and an op that raises, answers wrongly or passes its deadline counts
as failed without stopping the run.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

import spans  # noqa: E402
from speed import Clock  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import DEFECT_DEADLINE_S, WORKLOADS, Search  # noqa: E402

DEADLINE_S = 5.0  # per op, in real seconds; the slowest op here takes under 1 s
SETUP_REPEATS = 9
MAX_WALL_S = 150.0  # stop starting rounds after this, whatever --seconds says
MODULES = ["system", "fourier", "spectra", "tiling", "fuglede", "cli", "errors"]


class Deadline(BaseException):
    """Raised by SIGALRM inside an op that passed its deadline."""


def _alarm(signum, frame):
    raise Deadline()


def load_moran() -> SimpleNamespace:
    """Import moran afresh from SRC (drops modules an earlier import left)."""
    for name in [n for n in sys.modules if n == "moran" or n.startswith("moran.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {name: importlib.import_module(f"moran.{name}") for name in MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"moran was imported from {modules['cli'].__file__}")
    return SimpleNamespace(**modules)


def setup(workload):
    """Median time of SETUP_REPEATS imports plus the workload's shared state."""
    times, clock = [], Clock()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        m = load_moran()
        shared = workload.prepare(m)
        times.append((time.perf_counter() - start) * clock.factor())
    return m, shared, statistics.median(times)


def timed(op, m, deadline=DEADLINE_S):
    """(seconds, result, error) of one op under the deadline."""
    signal.setitimer(signal.ITIMER_REAL, deadline)
    start = time.perf_counter()
    try:
        result, error = op.run(m), None
    except Deadline:
        result, error = None, f"passed its {deadline} s deadline"
    except Exception as exc:  # any raise is a failed op, never a stopped run
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    return elapsed, result, error


def verdict(op, result, error):
    """None if the op is correct, else the reason it failed."""
    if error is not None:
        return error
    try:
        op.check(result)
    except CheckError as exc:
        return str(exc)
    return None


class Tally:
    def __init__(self):
        self.latencies = []  # seconds, failed ops at least the deadline
        self.raw = []  # seconds as measured, before scaling to reference speed
        self.kinds = []
        self.failures = []  # (kind, reason)

    def add(self, op, elapsed, reason, factor=1.0):
        self.raw.append(elapsed)
        elapsed *= factor
        self.kinds.append(op.kind)
        if reason is None:
            self.latencies.append(elapsed)
        else:
            self.latencies.append(max(elapsed, DEADLINE_S))
            self.failures.append((op.kind, f"{reason} [{op.input}]"))


def run_loop(workload, m, shared, seconds, step):
    """Run whole rounds until the ops have been busy for `seconds`."""
    busy, wall0 = 0.0, time.perf_counter()
    for ops in workload.rounds(m, shared):
        for op in ops:
            busy += step(op)
        if busy >= seconds or time.perf_counter() - wall0 > MAX_WALL_S:
            return


def untraced_run(workload, m, shared, seconds) -> Tally:
    tally, clock = Tally(), Clock()

    def step(op):
        elapsed, result, error = timed(op, m)
        factor = clock.factor()
        tally.add(op, elapsed, verdict(op, result, error), factor)
        return elapsed

    run_loop(workload, m, shared, seconds, step)
    return tally


def traced_run(workload, m, shared, seconds):
    """Each op runs twice, untraced and traced, in alternating order.

    Returns the tally, the tracer, the start time, the traced/untraced time
    ratio and each traced op's scale factor to reference speed.
    """
    tracer, tally, clock = spans.Tracer(m), Tally(), Clock()
    plain, traced, factors = [0.0], [0.0], {}

    def step(op):
        op_id, busy = len(tally.latencies), 0.0
        for leg in (0, 1) if op_id % 2 else (1, 0):
            if leg:
                tracer.install()
                span = tracer.begin_op(op_id)
            try:
                elapsed, result, error = timed(op, m)
            finally:
                if leg:
                    tracer.end_op(span)
                    tracer.remove()
            factor = clock.factor()
            (traced if leg else plain)[0] += elapsed * factor
            busy += elapsed
            if leg:
                factors[op_id] = factor
                tally.add(op, elapsed, verdict(op, result, error), factor)
        return busy

    origin = time.perf_counter()
    run_loop(workload, m, shared, seconds, step)
    return tally, tracer, origin, traced[0] / plain[0], factors


def percentiles(values):
    """Percentiles 1..99, so percentiles(v)[q] is the q-th."""
    return [None] + statistics.quantiles(values, n=100, method="inclusive")


def probe_known_defects(m):
    """The two reproduced defects, each expected to answer correctly."""
    failed = 0
    for op in Search.defect_probes(m):
        elapsed, result, error = timed(op, m, deadline=DEFECT_DEADLINE_S)
        reason = verdict(op, result, error)
        failed += reason is not None
        print(f"probe {op.kind}: {'ok' if reason is None else 'FAILED'} "
              f"in {elapsed * 1e3:.1f} ms" + ("" if reason is None else f" ({reason})"))
    return failed


def report(tally, metrics):
    for kind, reason in tally.failures[:20]:
        print(f"failed op {kind}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    attempted = len(tally.latencies)
    failed = len(tally.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def end_to_end(tally, setup_s):
    lat = tally.latencies
    ok = len(lat) - len(tally.failures)
    pct = percentiles(lat)
    beyond = {q: sum(x > pct[q] for x in lat) for q in (90, 99)}
    print(f"samples {len(lat)}; beyond p90 {beyond[90]}, beyond p99 {beyond[99]}")
    raw = percentiles(tally.raw)
    print(f"as measured (not scaled to reference speed): ops_per_s "
          f"{ok / sum(tally.raw):.6g}, p50 {raw[50] * 1e3:.6g} ms, "
          f"p90 {raw[90] * 1e3:.6g} ms; median scale factor "
          f"{statistics.median(x / r for x, r in zip(lat, tally.raw)):.4f}")
    by_kind = {}
    for kind, x in zip(tally.kinds, lat):
        by_kind.setdefault(kind, []).append(x * 1e3)
    for kind, xs in sorted(by_kind.items()):
        print(f"  {kind}: {len(xs)} ops, median {statistics.median(xs):.3f} ms, "
              f"max {max(xs):.3f} ms")
    print(f"latency_p99_ms {pct[99] * 1e3:.6g} ms (not a metric: "
          f"{beyond[99]} samples beyond it)")
    return {
        "ops_per_s": (ok / sum(lat), "1/s"),
        "latency_p50_ms": (pct[50] * 1e3, "ms"),
        "latency_p90_ms": (pct[90] * 1e3, "ms"),
        "ok_op_ratio": (ok / len(lat), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "MiB"),
    }


def per_layer(tally, tracer, origin, overhead, factors, m, probe_failed, args):
    values = spans.layer_metrics(tracer.spans, len(tally.latencies), factors)
    values["trace.overhead_ratio"] = (overhead, len(tally.latencies))
    values["probe.known_defects.failed"] = (probe_failed, 2)
    values.update(spans.reference_points(m))
    trace_file = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.dump(trace_file, origin)
    records, metrics = [], {}
    layers = {name: layer for name, layer, _, _ in spans.REFERENCE_POINTS}
    for name, unit, _ in spans.per_layer_names():
        value, iterations = values[name]
        metrics[name] = (float(value), unit)
        records.append({"name": name, "layer": layers.get(name, name.split(".")[0]),
                        "median": float(value), "unit": unit,
                        "iterations": iterations,
                        "python": platform.python_version()})
    bench_file = WORK / f"BENCH_trace-{args.workload}-{args.seed}.json"
    bench_file.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"spans: {trace_file.relative_to(ROOT)}; "
          f"records: {bench_file.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "moran" / "__init__.py").is_file():
        print(f"moranbench: no moran sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)

    workload = WORKLOADS[args.workload](args.seed, WORK)
    m, shared, setup_s = setup(workload)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}; python {platform.python_version()}")
    if args.trace:
        tally, tracer, origin, overhead, factors = traced_run(
            workload, m, shared, args.seconds)
    else:
        tally = untraced_run(workload, m, shared, args.seconds)
    probe_failed = probe_known_defects(m) if args.workload == "search" else 0
    if args.trace:
        metrics = per_layer(tally, tracer, origin, overhead, factors, m,
                            probe_failed, args)
    else:
        metrics = end_to_end(tally, setup_s)
    report(tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
