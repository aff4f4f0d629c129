"""Exact pins for the hierarchical server's budget ledger.

The per-window ledger (``ComponentStats.window_consumption``) is what
the analysis' supply model is checked against, so the budget
bookkeeping is pinned window by window: step-mode runs (whose
consumption may overrun the budget by up to one delay step), and the
three kinds of mid-run :meth:`HierarchicalScheduler.reconfigure_budget`
— grow, shrink below the window's consumption, and unbound.
"""

import pytest

from repro.kernel.simulator import Simulator
from repro.rtos import PERIODIC, Component, HierarchicalScheduler, RTOSModel


def _sched_events(sim):
    return [
        (r.time, r.info) for r in sim.trace.records
        if r.category == "sched" and r.info in ("dispatch", "throttle")
    ]


# ---------------------------------------------------------------------------
# step mode: the run of test_step_mode_overrun_bounded_by_delay_step
# ---------------------------------------------------------------------------

STEP_PINS = {
    # step 150 divides the 600 budget: no overrun
    150: {
        "A": ({0: 600, 1: 600, 2: 600, 3: 600, 4: 600, 5: 600, 6: 600,
               7: 300}, 7, 7, 8),
        "B": ({0: 300, 1: 300, 2: 300, 3: 300, 4: 300}, 0, 0, 6),
        "hog": (5, 7, [1300, 2000, 2300, 3000, 3300]),
        "lite": (0, 0, [900, 900, 900, 900, 900]),
        "end": 7300,
    },
    # step 225 does not: every full window overruns by 75
    225: {
        "A": ({0: 675, 1: 675, 2: 675, 3: 675, 4: 675, 5: 675, 6: 450},
              6, 6, 7),
        "B": ({0: 300, 1: 300, 2: 300, 3: 300, 4: 300}, 0, 0, 6),
        "hog": (5, 6, [1225, 1450, 2000, 2225, 2450]),
        "lite": (0, 0, [975, 975, 975, 975, 975]),
        "end": 6450,
    },
}


@pytest.mark.parametrize("step", sorted(STEP_PINS))
def test_step_mode_ledger_pinned(step):
    comp_a = Component("A", budget=600, period=1000, priority=0)
    comp_b = Component("B", budget=400, period=1000, priority=1)
    sim = Simulator()
    sched = HierarchicalScheduler([comp_a, comp_b], top="priority")
    os_ = RTOSModel(sim, sched=sched, preemption="step", name="pe.os")
    hog = os_.task_create("hog", PERIODIC, 1000, 900)
    lite = os_.task_create("lite", PERIODIC, 1000, 300)
    sched.assign(hog, comp_a)
    sched.assign(lite, comp_b)

    def hog_body():
        for _ in range(5):
            for _ in range(900 // step):
                yield from os_.time_wait(step)
            yield from os_.task_endcycle()

    def lite_body():
        for _ in range(5):
            yield from os_.time_wait(300)
            yield from os_.task_endcycle()

    sim.spawn(os_.task_body(hog, hog_body()), name="hog")
    sim.spawn(os_.task_body(lite, lite_body()), name="lite")
    os_.start()
    sim.run()

    pins = STEP_PINS[step]
    for comp in (comp_a, comp_b):
        stats = comp.stats
        assert (stats.window_consumption, stats.throttles,
                stats.replenishments, stats.dispatches) == pins[comp.name]
    for task in (hog, lite):
        stats = task.stats
        assert (stats.deadline_misses, stats.preemptions,
                stats.response_times) == pins[task.name]
    assert sim.now == pins["end"]


# ---------------------------------------------------------------------------
# reconfigure_budget mid-run
# ---------------------------------------------------------------------------


def _reconfigured(budget, at, new_budget):
    """One 800-unit job per 2000 through an ``A: budget/1000`` server,
    whose budget becomes ``new_budget`` at time ``at``."""
    sim = Simulator()
    comp = Component("A", budget=budget, period=1000, priority=0)
    sched = HierarchicalScheduler([comp])
    os_ = RTOSModel(sim, sched=sched, preemption="immediate", name="pe.os")
    task = os_.task_create("t", PERIODIC, 2000, 800)
    sched.assign(task, comp)

    def body():
        for _ in range(2):
            yield from os_.time_wait(800)
            yield from os_.task_endcycle()

    sim.spawn(os_.task_body(task, body()), name="t")
    sim.schedule_at(at, lambda: sched.reconfigure_budget("A", new_budget),
                    label="reconfigure")
    os_.start()
    sim.run()
    return sim, comp, task


def test_grown_budget_dispatches_throttled_idle_component_at_once():
    # throttled at 300 with nothing running; the grown budget makes the
    # rest of window 0 available the instant it lands
    sim, comp, task = _reconfigured(300, 500, 600)
    assert _sched_events(sim)[:4] == [
        (0, "dispatch"), (300, "throttle"), (500, "dispatch"), (800, "throttle"),
    ]
    assert comp.stats.window_consumption == {0: 600, 1: 200, 2: 600, 3: 200}
    assert comp.stats.throttles == 3
    assert task.stats.response_times == [1200, 1200]
    assert task.stats.deadline_misses == 0


def test_shrunk_budget_below_consumption_throttles_at_once():
    # 400 already consumed in window 0 when the budget drops to 300
    sim, comp, task = _reconfigured(600, 400, 300)
    assert _sched_events(sim)[:3] == [
        (0, "dispatch"), (400, "throttle"), (1000, "dispatch"),
    ]
    assert comp.stats.window_consumption == {
        0: 400, 1: 300, 2: 300, 3: 300, 4: 300,
    }
    assert comp.stats.throttles == 5
    assert task.stats.response_times == [2100, 3000]
    assert task.stats.deadline_misses == 2


def test_unbounded_budget_never_throttles():
    sim, comp, task = _reconfigured(300, 100, None)
    assert not comp.bounded and comp.budget is None
    assert _sched_events(sim) == [(0, "dispatch"), (2000, "dispatch"),
                                  (4000, "dispatch")]
    # charged up to the reconfiguration; unbounded time is not budgeted
    assert comp.stats.window_consumption == {0: 100}
    assert comp.stats.throttles == 0
    assert task.stats.response_times == [800, 800]


def test_rejected_budget_leaves_enforcement_armed():
    # a bad budget is refused before any state changes: the running
    # task's exhaustion timer still throttles it at 300
    errors = []

    def bad_reconfigure(sched):
        try:
            sched.reconfigure_budget("A", 5000)
        except ValueError as exc:
            errors.append(exc)

    sim = Simulator()
    comp = Component("A", budget=300, period=1000, priority=0)
    sched = HierarchicalScheduler([comp])
    os_ = RTOSModel(sim, sched=sched, preemption="immediate", name="pe.os")
    task = os_.task_create("t", PERIODIC, 2000, 800)
    sched.assign(task, comp)

    def body():
        yield from os_.time_wait(800)
        yield from os_.task_endcycle()

    sim.spawn(os_.task_body(task, body()), name="t")
    sim.schedule_at(100, lambda: bad_reconfigure(sched), label="reconfigure")
    os_.start()
    sim.run()
    assert len(errors) == 1 and comp.budget == 300
    assert comp.stats.window_consumption == {0: 300, 1: 300, 2: 200}
    assert comp.stats.throttles == 2
