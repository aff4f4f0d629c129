#!/usr/bin/env python3
"""End-to-end benchmark of the RTOS model, with per-layer costs.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 2003 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

Each run is a closed loop in this one process: the next batch starts
when the previous one returned, for ``--seconds`` seconds, with no
worker pool. ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` instead reports per-layer metrics from
a traced run (spans around the calls into each layer) and a counted
run (Python calls per layer, in a child process with a fixed hash
seed). See ``perfbench/README.md`` for the workloads and metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"

#: (name, unit) of the end-to-end metrics, every workload
END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: end-to-end ratios of single workloads; printed with the trace-0
#: table and reported with the per-layer metrics (0 where not measured)
WORKLOAD_RATIOS = (
    ("rtos_overhead_x", "x"),
    ("delay_error_pct", "%"),
    ("obs_overhead_x", "x"),
)

#: (name, unit) of the per-layer metrics, every workload (0 where the
#: workload does not use the layer)
PER_LAYER = (
    ("kernel.steps", "count"),
    ("kernel.run_s", "s"),
    ("kernel.us_per_step", "us"),
    ("kernel.py_calls", "count"),
    ("rtos.context_switches", "count"),
    ("rtos.preemptions", "count"),
    ("rtos.interrupts", "count"),
    ("rtos.us_per_switch", "us"),
    ("rtos.py_calls", "count"),
    ("rtos.py_calls_per_switch", "calls/switch"),
    ("rtos.dispatch.py_calls", "count"),
    ("rtos.taskmgr.py_calls", "count"),
    ("rtos.eventmgr.py_calls", "count"),
    ("rtos.timemgr.py_calls", "count"),
    ("rtos.sched.py_calls", "count"),
    ("rtos.mc.py_calls", "count"),
    ("platform.build_s", "s"),
    ("platform.py_calls", "count"),
    ("explore.runs", "count"),
    ("explore.decisions", "count"),
    ("explore.states", "count"),
    ("explore.states_per_run", "states/run"),
    ("explore.factory_s", "s"),
    ("explore.py_calls", "count"),
    ("faults.misses_detected", "count"),
    ("faults.py_calls", "count"),
    ("obs.records", "count"),
    ("obs.fold_s", "s"),
    ("obs.snapshot_s", "s"),
    ("obs.py_calls", "count"),
    ("analysis.check_s", "s"),
    ("analysis.schedulable", "count"),
    ("analysis.witnesses", "count"),
    ("analysis.py_calls", "count"),
    ("synthesis.instructions", "count"),
    ("synthesis.cycles", "count"),
    ("synthesis.ips", "1/s"),
    ("synthesis.build_s", "s"),
    ("synthesis.py_calls", "count"),
    ("apps.dsp_s", "s"),
    ("apps.py_calls", "count"),
    ("channels.py_calls", "count"),
    ("bench.trace_overhead_x", "x"),
) + WORKLOAD_RATIOS

#: fresh interpreters started per run to time set-up (median reported)
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1", "crossval_hier", "explore_mc3",
                                 "periodic_obs", "all"))
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="pinned results to check against")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite --expected from the current program")
    # internal: the child processes of a run
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--counted", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_repro():
    """Import ``repro`` from this checkout's ``src``; False if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro

    return Path(repro.__file__).resolve().parent == SRC / "repro"


def engine_class():
    """The kernel engine ``Simulator()`` builds in this environment."""
    from repro.kernel import Simulator

    return type(Simulator())


def run_owner(engine):
    """The class in ``engine``'s MRO that defines ``run``."""
    return next(cls for cls in engine.__mro__ if "run" in cls.__dict__)


def child(args, *flags, env=None, timeout=170):
    """Run this script as a child process with ``args``' workload."""
    command = [sys.executable, str(HERE / "run.py"), *flags,
               "--workload", args.workload, "--seed", str(args.seed),
               "--expected", str(args.expected)]
    return subprocess.run(command, capture_output=True, text=True,
                          env=env, timeout=timeout)


# ---------------------------------------------------------------------------
# batches, checks and the closed loop
# ---------------------------------------------------------------------------


class Tally:
    """Items attempted and failed, with the first few error messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, items, message):
        self.failed += items
        if len(self.errors) < 5:
            self.errors.append(message)


def attempt(workload, batch, tally):
    """Run and check one batch; ``(result, host seconds)`` or ``None``."""
    started = time.perf_counter()
    try:
        result = workload.run(batch)
    except Exception:
        fail_batch(workload, batch, tally)
        return None
    elapsed = time.perf_counter() - started
    return (result, elapsed) if judge(workload, batch, result, tally) else None


def fail_batch(workload, batch, tally):
    items = workload.size(batch)
    tally.attempted += items
    tally.fail(items, f"{workload.name}: {traceback.format_exc()}")


def judge(workload, batch, result, tally):
    """Count ``result``'s items and check it; True when correct."""
    try:
        items = workload.items(batch, result)
        errors = workload.check(batch, result)
    except Exception:
        fail_batch(workload, batch, tally)
        return False
    tally.attempted += items
    if errors:
        tally.fail(items, f"{workload.name}: " + "; ".join(errors))
    return not errors


#: what a finished batch leaves for the metrics; the result itself is
#: dropped, so memory does not grow with the number of batches run
Finished = collections.namedtuple("Finished", "items busy times ratios")


def closed_loop(workload, seconds, tally):
    """Run batches back to back for ``seconds``; a :class:`Finished`
    per correct batch."""
    done = []
    deadline = time.perf_counter() + seconds
    for count, batch in enumerate(workload.batches()):
        if count and time.perf_counter() >= deadline:
            break
        outcome = attempt(workload, batch, tally)
        if outcome is not None:
            result, elapsed = outcome
            done.append(Finished(
                workload.items(batch, result), workload.busy(result, elapsed),
                workload.item_times(batch, result, elapsed),
                workload.ratios(result)))
    return done


def weighted_quantile(pairs, q):
    """Nearest-rank quantile of ``(value, weight)`` pairs."""
    pairs = sorted(pairs)
    target = q * sum(weight for _, weight in pairs)
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= target:
            return value
    return pairs[-1][0]


def measure_setup(args):
    """Median seconds from a fresh interpreter to the first simulated
    instant, over :data:`SETUP_REPEATS` child processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = child(args, "--setup-probe", timeout=120)
        times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return statistics.median(times)


def end_to_end(workload, args, tally):
    """Trace-0 run: metrics with no instrumentation installed."""
    setup_s = measure_setup(args)
    for batch in workload.reference():
        attempt(workload, batch, tally)
    done = closed_loop(workload, args.seconds, tally)
    if not done:
        return None, {}
    pairs = [pair for batch in done for pair in batch.times]
    metrics = {
        "items_per_s": (sum(batch.items for batch in done)
                        / sum(batch.busy for batch in done)),
        "item_p50_ms": weighted_quantile(pairs, 0.50) * 1e3,
        "item_p95_ms": weighted_quantile(pairs, 0.95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": setup_s,
    }
    extra = {name: statistics.median(batch.ratios[name] for batch in done)
             for name in done[0].ratios}
    extra["samples"] = sum(weight for _, weight in pairs)
    return metrics, extra


# ---------------------------------------------------------------------------
# traced and counted runs
# ---------------------------------------------------------------------------


def instrument(tracer, workload, engine):
    """Spans common to every workload, then the workload's own."""
    from repro.rtos import RTOSModel

    counters, captured = tracer.counters, tracer.captured

    def harvest(args, steps_before):
        sim = args[0]
        counters["kernel.steps"] += sim.stats["steps"] - steps_before
        for os_ in [os_ for os_ in captured if os_.sim is sim]:
            captured.remove(os_)
            counters["rtos.context_switches"] += os_.metrics.context_switches
            counters["rtos.preemptions"] += os_.metrics.preemptions
            counters["rtos.interrupts"] += os_.metrics.interrupts
            if os_.monitor is not None:
                counters["faults.misses_detected"] += sum(
                    os_.monitor.miss_counts.values())

    tracer.patch(run_owner(engine), "run", "kernel.Simulator.run",
                 before=lambda args: args[0].stats["steps"], after=harvest)
    tracer.patch(RTOSModel, "__init__", "rtos.RTOSModel",
                 after=lambda args, _: captured.append(args[0]))
    workload.instrument(tracer)


def fixed_pass(workload, tally, tracer=None):
    """Run the fixed batches, under ``tracer``'s spans if given, then
    check them; ``(correct results, host seconds of the runs)``."""
    runs = []
    started = time.perf_counter()
    try:
        for index, batch in enumerate(workload.fixed()):
            if tracer is not None:
                tracer.item = index
            try:
                runs.append((batch, workload.run(batch)))
            except Exception:
                fail_batch(workload, batch, tally)
    finally:
        if tracer is not None:
            tracer.restore()
    elapsed = time.perf_counter() - started
    return ([result for batch, result in runs
             if judge(workload, batch, result, tally)], elapsed)


def layer_values(workload, tracer, results):
    """Per-layer values of one traced pass."""
    summary = tracer.summary()

    def total(name, key="total_s"):
        return summary.get(name, {}).get(key, 0)

    counters = tracer.counters
    run_s = total("kernel.Simulator.run", "self_s")
    steps = counters["kernel.steps"]
    switches = counters["rtos.context_switches"]
    values = {
        "kernel.steps": steps,
        "kernel.run_s": run_s,
        "kernel.us_per_step": run_s / steps * 1e6 if steps else 0.0,
        "rtos.context_switches": switches,
        "rtos.preemptions": counters["rtos.preemptions"],
        "rtos.interrupts": counters["rtos.interrupts"],
        "rtos.us_per_switch": run_s / switches * 1e6 if switches else 0.0,
        "platform.build_s": total("platform.build_architecture"),
        "explore.factory_s": total("explore.factory"),
        "faults.misses_detected": counters["faults.misses_detected"],
        "obs.records": total("obs.SpanBuilder.emit", "calls"),
        "obs.fold_s": total("obs.SpanBuilder.emit"),
        "obs.snapshot_s": (total("obs.MetricsRegistry.snapshot")
                           + total("obs.span_dump")),
        "analysis.check_s": total("analysis.check_system"),
        "synthesis.build_s": total("synthesis.build_vocoder_program"),
        "apps.dsp_s": (total("apps.encoder_stage")
                       + total("apps.decoder_stage")),
    }
    if results:
        values.update(workload.layer_values(results, tracer))
    return values


def count_layers(args):
    """Python calls per layer over the fixed batches, from a child
    process with a fixed hash seed so that the counts repeat exactly."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = child(args, "--counted", env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"counted run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer(workload, args, tally, engine):
    """Trace-1 run: untraced and traced passes over the same fixed
    batches, alternating which goes first, then the counted run."""
    from probes import Tracer, write_trace

    for batch in workload.reference():
        attempt(workload, batch, tally)
    tracers, values, ratios, overheads = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    traced_first = False
    while not overheads or time.perf_counter() < deadline:
        for traced in ((True, False) if traced_first else (False, True)):
            if traced:
                tracer = Tracer()
                instrument(tracer, workload, engine)
                results, traced_s = fixed_pass(workload, tally, tracer)
                tracers.append(tracer)
                values.append(layer_values(workload, tracer, results))
            else:
                results, plain_s = fixed_pass(workload, tally)
                ratios.extend(workload.ratios(r) for r in results)
        overheads.append(traced_s / plain_s)
        traced_first = not traced_first
    counts = count_layers(args)

    metrics = {name: 0 for name, _ in PER_LAYER}
    for name in {name for v in values for name in v}:
        metrics[name] = statistics.median_low(
            v[name] for v in values if name in v)
    for name in (ratios[0] if ratios else ()):
        metrics[name] = statistics.median(r[name] for r in ratios)
    for layer, calls in counts.items():
        if f"{layer}.py_calls" in metrics:
            metrics[f"{layer}.py_calls"] = calls
    if metrics["rtos.context_switches"]:
        metrics["rtos.py_calls_per_switch"] = (
            counts.get("rtos", 0) / metrics["rtos.context_switches"])
    metrics["bench.trace_overhead_x"] = statistics.median(overheads)
    write_trace(OUT / f"trace-{workload.name}-seed{args.seed}.jsonl",
                {"workload": workload.name, "seed": args.seed,
                 "engine": engine.backend, "py_calls": counts},
                tracers)
    return metrics


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def load_expected(path):
    with open(path) as handle:
        return json.load(handle)


def print_table(rows):
    for name, value, unit in rows:
        print(f"  {name:<26} {value:>16.6g} {unit}")


def report(tally, metrics, units, notes=()):
    """Print notes and errors, then the result line."""
    for note in notes:
        print(f"note: {note}")
    for error in tally.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))


def run_workload(args):
    from workloads import WORKLOADS

    engine = engine_class()
    workload = WORKLOADS[args.workload](args.seed, load_expected(args.expected))
    tally = Tally()
    print(f"workload {args.workload}  seed {args.seed}  "
          f"engine {engine.backend}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    if args.trace:
        metrics = per_layer(workload, args, tally, engine)
        print_table((name, metrics[name], unit) for name, unit in PER_LAYER)
        report(tally, metrics, PER_LAYER, workload.notes.values())
        return 0
    metrics, extra = end_to_end(workload, args, tally)
    if metrics is None:
        for error in tally.errors:
            print(f"FAILED {error}", file=sys.stderr)
        return 1
    rows = [(name, metrics[name], unit) for name, unit in END_TO_END]
    rows += [(name, extra[name], unit) for name, unit in WORKLOAD_RATIOS
             if name in extra]
    rows.append(("failed_frac", tally.failed / tally.attempted, "share"))
    rows.append(("samples", extra["samples"], "items"))
    print_table(rows)
    report(tally, metrics, END_TO_END, workload.notes.values())
    return 0


def run_all(args):
    """Every workload in turn, each in its own process."""
    from workloads import WORKLOADS

    tally, metrics, units = Tally(), {}, []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--expected", str(args.expected)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        tally.attempted += result["attempted"]
        tally.failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry["value"]
            units.append((f"{name}.{metric}", entry["unit"]))
    report(tally, metrics, units)
    return 0


def setup_probe(args):
    """Child of :func:`measure_setup`: exit at the first simulated
    instant of the workload's first batch."""
    def first_instant(*_args, **_kwargs):
        os._exit(0)

    setattr(run_owner(engine_class()), "run", first_instant)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, {})
    workload.run(next(workload.batches()))
    print("set-up probe finished without simulating", file=sys.stderr)
    return 3


def counted(args):
    """Child of :func:`count_layers`: print the call counts as JSON."""
    from probes import count_calls
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, {})
    batches = workload.fixed()
    for batch in batches:  # let lazy imports and caches settle
        workload.run(batch)
    counts = count_calls(lambda: [workload.run(b) for b in batches])
    print(json.dumps(dict(sorted(counts.items()))))
    return 0


def pin(args):
    from workloads import DEFAULT_SEED, WORKLOADS

    expected = load_expected(args.expected) if args.expected.exists() else {}
    expected["default_seed"] = DEFAULT_SEED
    for name, cls in WORKLOADS.items():
        expected[name] = cls(DEFAULT_SEED, {}).pins()
    with open(args.expected, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not import_repro():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.counted:
        return counted(args)
    if args.pin:
        return pin(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
