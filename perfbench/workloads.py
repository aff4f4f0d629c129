"""The benchmark's four workloads.

Each workload turns a seed into a stream of *batches*, runs a batch
through the public API, says how many work items the batch finished
and how long each took, and checks the simulated results. A batch is
the smallest call the workload can time from outside: one vocoder
round of all three Table-1 models, one crossval configuration, one
exploration, one bare + armed periodic run.

Checks come in three kinds, and any failure counts the batch's items
as failed:

* invariants that hold on every seed (the crossval contract, no mc3
  violation, spec SNR equal to arch SNR, bare and armed periodic runs
  simulating the same thing);
* results pinned in ``expected.json`` for the default seed;
* repeatability: a batch whose input was already run must reproduce
  the earlier result exactly.
"""

import dataclasses
import json
import random
import time

import repro.analysis.crossval as crossval
import repro.apps.vocoder.impl as vocoder_impl
import repro.apps.vocoder.models as vocoder_models
import repro.farm.workloads as farm_workloads
from repro.apps.vocoder.decoder import DecoderCore
from repro.apps.vocoder.encoder import EncoderCore
from repro.explore.explorer import Explorer
from repro.explore.models import MODELS
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanBuilder
from repro.platform.architecture import Architecture

#: seed of the pinned results in ``expected.json``
DEFAULT_SEED = 2003


def _plain(value):
    """``value`` as JSON would give it back (tuples become lists)."""
    return json.loads(json.dumps(value))


def _diff(got, want, limit=3):
    if isinstance(got, dict) and isinstance(want, dict):
        keys = [k for k in sorted(set(got) | set(want))
                if got.get(k) != want.get(k)]
        return ", ".join(f"{k}: got {got.get(k)!r}, expected {want.get(k)!r}"
                         for k in keys[:limit])
    return f"got {got!r}, expected {want!r}"


class Workload:
    """Base class: batch stream, timing split and output checks."""

    name = None

    def __init__(self, seed, expected):
        self.seed = seed
        self.expected = expected.get(self.name, {})
        #: batch key -> a defect the checks met but did not count as failure
        self.notes = {}
        self._seen = {}

    # what the subclasses define ----------------------------------------

    def batches(self):
        """Endless stream of batch inputs for the closed loop."""
        raise NotImplementedError

    def reference(self):
        """Batches of the default seed whose results are pinned."""
        raise NotImplementedError

    def fixed(self):
        """The fixed batch list of the traced and counted runs."""
        raise NotImplementedError

    def run(self, batch):
        raise NotImplementedError

    def items(self, batch, result):
        raise NotImplementedError

    def size(self, batch):
        """Items a batch would have finished (counted when it fails)."""
        raise NotImplementedError

    def outcome(self, batch, result):
        """The simulated results that must not change."""
        raise NotImplementedError

    def pinned(self, batch):
        """Expected :meth:`outcome` of ``batch``, or ``None``."""
        raise NotImplementedError

    def invariants(self, batch, result):
        return []

    def key(self, batch):
        return json.dumps(batch)

    def item_times(self, batch, result, elapsed):
        """``(seconds per item, items)`` pairs of a finished batch."""
        return [(elapsed / max(1, self.items(batch, result)),
                 self.items(batch, result))]

    def busy(self, result, elapsed):
        """Host seconds the batch's items are counted over."""
        return elapsed

    def ratios(self, result):
        """Workload-specific end-to-end ratios of a finished batch."""
        return {}

    def pins(self):
        """The ``expected.json`` entry: outcomes of the default seed."""
        batch = self.reference()[0]
        return {"outcome": _plain(self.outcome(batch, self.run(batch)))}

    def instrument(self, tracer):
        """Install this workload's spans on ``tracer``."""

    def layer_values(self, results, tracer):
        """Per-layer values only this workload's results carry."""
        return {}

    # shared -------------------------------------------------------------

    def check(self, batch, result):
        """Error messages for ``result``; empty when it is correct."""
        errors = list(self.invariants(batch, result))
        got = _plain(self.outcome(batch, result))
        want = self.pinned(batch)
        if want is not None and got != want:
            errors.append(f"differs from expected.json: {_diff(got, want)}")
        first = self._seen.setdefault(self.key(batch), got)
        if first != got:
            errors.append(f"differs from an earlier run of the same input: "
                          f"{_diff(got, first)}")
        return errors


class Table1(Workload):
    """The paper's Table 1: the three vocoder models at one frame count.

    Item: one speech frame through the specification, architecture and
    implementation models. The models take all frames in one call, so a
    frame's host time is its round's time divided by the frame count.
    """

    name = "table1"
    frames = 10
    #: the paper's claim that the architecture model predicts the
    #: implementation's timing, as a limit on the mean-delay error in
    #: percent (measured: 1.6 % at 10 frames on every seed)
    max_delay_error_pct = 5.0

    def batches(self):
        while True:
            yield self.seed

    def reference(self):
        return [DEFAULT_SEED]

    def fixed(self):
        return [self.seed]

    def run(self, seed):
        result = {}
        for label, fn in (("spec", vocoder_models.run_specification),
                          ("arch", vocoder_models.run_architecture),
                          ("impl", vocoder_impl.run_implementation)):
            started = time.perf_counter()
            result[label] = fn(n_frames=self.frames, seed=seed)
            result[f"{label}_s"] = time.perf_counter() - started
        return result

    def items(self, batch, result):
        return self.frames

    def size(self, batch):
        return self.frames

    @staticmethod
    def delay_error_pct(result):
        arch = result["arch"].mean_delay_ms
        impl = result["impl"].mean_delay_ms
        return abs(arch - impl) / impl * 100

    def outcome(self, batch, result):
        spec, arch, impl = result["spec"], result["arch"], result["impl"]
        return {
            "spec_delays_ns": spec.delays_ns,
            "arch_delays_ns": arch.delays_ns,
            "impl_delays_ns": impl.delays_ns,
            "arch_switches": int(arch.context_switches),
            "impl_switches": int(impl.context_switches),
            "snr_db": [round(float(x), 9) for x in arch.snrs_db],
            "impl_instructions": int(impl.extra["instructions"]),
            "impl_cycles": int(impl.extra["cycles"]),
        }

    def pinned(self, batch):
        return self.expected.get("outcome") if batch == DEFAULT_SEED else None

    def invariants(self, batch, result):
        spec, arch, impl = result["spec"], result["arch"], result["impl"]
        errors = []
        if list(spec.snrs_db) != list(arch.snrs_db):
            errors.append("spec SNR differs from arch SNR")
        for run in (spec, arch, impl):
            if len(run.delays_ns) != self.frames:
                errors.append(f"{run.model}: {len(run.delays_ns)} delays "
                              f"for {self.frames} frames")
        if not impl.extra["halted"]:
            errors.append("implementation model did not halt")
        if errors:
            return errors
        error = self.delay_error_pct(result)
        if error > self.max_delay_error_pct:
            errors.append(f"arch delay misses impl delay by {error:.2f}%")
        return errors

    def ratios(self, result):
        return {
            "rtos_overhead_x": result["arch_s"] / result["spec_s"],
            "delay_error_pct": self.delay_error_pct(result),
            "synthesis.ips": (result["impl"].extra["instructions"]
                              / result["impl_s"]),
        }

    def instrument(self, tracer):
        for module, attr in ((vocoder_models, "run_specification"),
                             (vocoder_models, "run_architecture"),
                             (vocoder_impl, "run_implementation")):
            tracer.patch(module, attr, f"apps.{attr}")
        tracer.patch(vocoder_impl, "build_vocoder_program",
                     "synthesis.build_vocoder_program")
        for cls, name in ((EncoderCore, "apps.encoder_stage"),
                          (DecoderCore, "apps.decoder_stage")):
            tracer.replace(cls, "stages", _folded_stages(tracer, cls, name))

    def layer_values(self, results, tracer):
        impl = results[-1]["impl"]
        return {
            "synthesis.instructions": impl.extra["instructions"],
            "synthesis.cycles": impl.extra["cycles"],
        }


def _folded_stages(tracer, cls, name):
    original = cls.__dict__["stages"]

    def stages(self, *args):
        for stage, budget, fn in original(self, *args):
            yield stage, budget, tracer.folded(name, fn)

    return stages


def pe_qualified(spec):
    """``spec`` with every task renamed ``<pe>.<task>``."""
    return dataclasses.replace(spec, pes=tuple(
        dataclasses.replace(pe, components=tuple(
            dataclasses.replace(comp, tasks=tuple(
                dataclasses.replace(task, name=f"{pe.name}.{task.name}")
                for task in comp.tasks))
            for comp in pe.components))
        for pe in spec.pes))


class CrossvalHier(Workload):
    """Generated hierarchical configurations through ``cross_validate``.

    Item: one configuration, analysed by ``check_system`` and simulated
    multi-PE with deadline watchdogs armed. The stream is
    ``generate_matrix`` in blocks of :attr:`block` configurations.
    """

    name = "crossval_hier"
    block = 1000
    n_reference = 20
    n_fixed = 40
    n_pinned = 100

    def __init__(self, seed, expected):
        super().__init__(seed, expected)
        self._first = crossval.generate_matrix(self.block, seed)

    def _matrix(self, seed, number):
        if seed == self.seed and number == 0:
            return self._first
        # block 0 is generate_matrix(count, seed) itself, so its leading
        # configurations are the ones pinned for the default seed
        return crossval.generate_matrix(
            self.block, seed if number == 0 else f"{seed}.{number}")

    def batches(self):
        number = 0
        while True:
            for index, spec in enumerate(self._matrix(self.seed, number)):
                yield (self.seed, number, index, spec)
            number += 1

    def reference(self):
        matrix = self._matrix(DEFAULT_SEED, 0)
        return [(DEFAULT_SEED, 0, i, matrix[i])
                for i in range(self.n_reference)]

    def fixed(self):
        return [(self.seed, 0, i, self._first[i]) for i in range(self.n_fixed)]

    def run(self, batch):
        return crossval.cross_validate(batch[3])

    def items(self, batch, result):
        return 1

    def size(self, batch):
        return 1

    def key(self, batch):
        return json.dumps(batch[:3])

    def outcome(self, batch, result):
        return {
            "system": result["system"],
            "schedulable": result["analysis_schedulable"],
            "misses": result["simulated_misses"],
        }

    def pinned(self, batch):
        seed, number, index, _ = batch
        pins = self.expected.get("configs", [])
        if seed == DEFAULT_SEED and number == 0 and index < len(pins):
            return pins[index]
        return None

    def invariants(self, batch, result):
        if result["consistent"]:
            return []
        # cross_validate keys tasks by bare name, and generate_matrix
        # reuses names on every PE, so a certified task on one PE can
        # take the blame for a same-named task's misses on another:
        # decide the contract on the same system with PE-unique names
        recheck = crossval.cross_validate(pe_qualified(batch[3]))
        if recheck["violations"]:
            return list(recheck["violations"])
        self.notes[self.key(batch)] = (
            f"{result['system']}: cross_validate reports "
            f"{len(result['violations'])} violation(s) that vanish with "
            "PE-unique task names")
        return []

    def pins(self):
        matrix = self._matrix(DEFAULT_SEED, 0)[:self.n_pinned]
        return {"configs": [
            _plain(self.outcome(None, crossval.cross_validate(spec)))
            for spec in matrix
        ]}

    def instrument(self, tracer):
        tracer.patch(crossval, "cross_validate", "analysis.cross_validate")
        tracer.patch(crossval, "check_system", "analysis.check_system")
        tracer.patch(crossval, "build_architecture",
                     "platform.build_architecture")
        tracer.patch(Architecture, "run", "platform.Architecture.run")

    def layer_values(self, results, tracer):
        return {
            "analysis.schedulable": sum(
                r["analysis_schedulable"] for r in results),
            "analysis.witnesses": sum(
                1 for r in results
                if not r["analysis_schedulable"] and r["missed_tasks"]),
        }


class ExploreMC3(Workload):
    """``Explorer(MODELS["mc3"], prune="none")``; seed-free.

    Item: one explored schedule. Runs are timed between successive
    calls of the model factory, which the explorer makes once per run.
    """

    name = "explore_mc3"
    max_runs = 1000

    def __init__(self, seed, expected):
        super().__init__(seed, expected)
        self.factory = MODELS["mc3"]

    def batches(self):
        while True:
            yield "mc3"

    def reference(self):
        return ["mc3"]

    def fixed(self):
        return ["mc3"]

    def run(self, batch):
        stamps = []
        factory = self.factory

        def timed_factory():
            stamps.append(time.perf_counter())
            return factory()

        result = Explorer(timed_factory, prune="none",
                          max_runs=self.max_runs).run()
        return {"result": result, "stamps": stamps,
                "end": time.perf_counter()}

    def items(self, batch, result):
        return result["result"].runs

    def size(self, batch):
        return self.max_runs

    def item_times(self, batch, result, elapsed):
        # stamps[0] is the explorer's probe build; run k starts at
        # stamps[k] and ends where the next run's factory call begins
        ends = result["stamps"][2:] + [result["end"]]
        return [(end - start, 1)
                for start, end in zip(result["stamps"][1:], ends)]

    def outcome(self, batch, result):
        explored = result["result"]
        return {
            "runs": explored.runs,
            "decisions": explored.decisions,
            "states": explored.states,
            "complete": explored.complete,
            "violations": len(explored.violations),
        }

    def pinned(self, batch):
        return self.expected.get("outcome")

    def invariants(self, batch, result):
        return [f"mc3 violation: {v.kind}: {v.message}"
                for v in result["result"].violations[:3]]

    def instrument(self, tracer):
        tracer.patch(Explorer, "run", "explore.Explorer.run")
        tracer.replace(self, "factory",
                       tracer.spanned("explore.factory", self.factory))

    def layer_values(self, results, tracer):
        explored = results[-1]["result"]
        return {
            "explore.runs": explored.runs,
            "explore.decisions": explored.decisions,
            "explore.states": explored.states,
            "explore.states_per_run": explored.states / explored.runs,
        }


#: (period ns, utilization share) menus of the generated periodic set
PERIODS = (400_000, 500_000, 750_000, 1_000_000)
SHARES = (0.30, 0.25, 0.20, 0.15)


def periodic_task_set(seed, index, granularity):
    """The ``index``-th task set of ``seed``: four periodic tasks at
    total utilization 0.9.

    Each set permutes which period gets which priority and which share,
    so schedules (switches, preemptions, misses) differ between sets
    while the simulated work per horizon stays the same.
    """
    rng = random.Random(f"{seed}.{index}")
    periods = rng.sample(PERIODS, len(PERIODS))
    shares = rng.sample(SHARES, len(SHARES))
    return tuple(
        (f"t{i + 1}", period,
         round(period * share / granularity) * granularity)
        for i, (period, share) in enumerate(zip(periods, shares))
    )


#: keys of ``periodic_taskset_run`` results that describe the schedule
_SIM_KEYS = ("misses", "switches", "preemptions", "dispatches", "interrupts",
             "utilization", "busy_time", "idle_time", "sim_time",
             "worst_response", "avg_response")


class PeriodicObs(Workload):
    """Generated periodic task sets, each run bare and with observability.

    Armed means a ``MetricsRegistry``, span tracing and a streaming
    ``SpanBuilder`` (``with_obs=True, with_spans=True``). Item: one job
    completed in the armed run. Every batch takes the seed's next task
    set, so a run averages over many schedules, and alternates which
    run goes first.
    """

    name = "periodic_obs"
    horizon = 300_000_000
    granularity = 10_000

    def batches(self):
        index = 0
        while True:
            yield (self.seed, index, index % 2 == 0)
            index += 1

    def reference(self):
        return [(DEFAULT_SEED, 0, True)]

    def fixed(self):
        return [(self.seed, 0, True)]

    def key(self, batch):
        return json.dumps(batch[:2])

    def run(self, batch):
        seed, index, bare_first = batch
        task_set = periodic_task_set(seed, index, self.granularity)
        result = {}
        for armed in ((False, True) if bare_first else (True, False)):
            label = "armed" if armed else "bare"
            started = time.perf_counter()
            result[label] = farm_workloads.periodic_taskset_run(
                policy="priority", preemption="immediate",
                granularity=self.granularity, horizon=self.horizon,
                task_set=task_set, with_obs=armed, with_spans=armed,
            )
            result[f"{label}_s"] = time.perf_counter() - started
        return result

    def items(self, batch, result):
        return result["armed"]["spans"]["misses"]["totals"]["completed"]

    def size(self, batch):
        return sum(self.horizon // period for period in PERIODS)

    def busy(self, result, elapsed):
        return result["armed_s"]

    def item_times(self, batch, result, elapsed):
        jobs = self.items(batch, result)
        return [(result["armed_s"] / max(1, jobs), jobs)]

    def outcome(self, batch, result):
        bare = result["bare"]
        return {
            "switches": bare["switches"],
            "preemptions": bare["preemptions"],
            "misses": bare["misses"],
            "completed_jobs": self.items(batch, result),
        }

    def pinned(self, batch):
        if batch[:2] == (DEFAULT_SEED, 0):
            return self.expected.get("outcome")
        return None

    def invariants(self, batch, result):
        bare, armed = result["bare"], result["armed"]
        errors = [f"armed run changed {key}: {bare[key]!r} -> {armed[key]!r}"
                  for key in _SIM_KEYS if bare[key] != armed[key]]
        missed = armed["spans"]["misses"]["totals"]["missed"]
        if missed != bare["misses"]:
            errors.append(f"span census counts {missed} misses, "
                          f"the RTOS {bare['misses']}")
        return errors

    def ratios(self, result):
        return {"obs_overhead_x": result["armed_s"] / result["bare_s"]}

    def instrument(self, tracer):
        tracer.patch(farm_workloads, "periodic_taskset_run",
                     "farm.periodic_taskset_run")
        tracer.replace(SpanBuilder, "emit",
                       tracer.folded("obs.SpanBuilder.emit",
                                     SpanBuilder.__dict__["emit"]))
        tracer.patch(MetricsRegistry, "snapshot",
                     "obs.MetricsRegistry.snapshot")
        tracer.patch(farm_workloads, "span_dump", "obs.span_dump")


WORKLOADS = {cls.name: cls
             for cls in (Table1, CrossvalHier, ExploreMC3, PeriodicObs)}
