"""Hierarchical scheduling: budget/period resource servers per PE.

Beyond-paper extension in the style of compositional scheduling
frameworks (periodic resource model / BDR): a PE's tasks are grouped
into :class:`Component`\\ s — resource servers with a budget ``Θ`` per
period ``Π`` and their own *local* scheduling policy (any of the six
flat policies, typically EDF or fixed-priority) — and a *top-level*
server scheduler arbitrates between components. The analytic
counterpart lives in :mod:`repro.analysis.schedulability` (demand-bound
vs supply-bound functions); the cross-validation harness
(:mod:`repro.analysis.crossval`) runs the same system spec through both.

The :class:`HierarchicalScheduler` implements the plain
:class:`~repro.rtos.sched.base.Scheduler` interface, so it plugs into
the :class:`~repro.rtos.dispatch.Dispatcher` (and therefore the
unchanged Figure-4 facade) like any flat policy. Budget bookkeeping
uses two kernel timers per component:

* an **exhaustion timer**, armed when one of the component's tasks is
  dispatched, firing when the remaining budget of the current server
  window depletes — the component is then *throttled* until its next
  replenishment;
* a **replenishment timer**, armed while a throttled component still
  has ready tasks, firing at the next window boundary
  (``(k+1)·Π``) to re-run the scheduling decision.

Server windows are aligned to absolute time (window ``k`` spans
``[k·Π, (k+1)·Π)``), matching the analysis' periodic-resource model.

A scheduling point costs O(components) integer compares. Each bounded
component carries its current ``(window, used)`` pair; only the one
component whose task holds the CPU consumes budget, so only it is
charged (at the scheduling points that read its budget, at yield and
at exhaustion). A component that is not running has static
consumption: it is ineligible exactly while ``now < blocked_until``,
the end of the window whose budget it used up.

Enforcement granularity follows the PE's preemption mode, exactly like
task preemption (paper Section 4.3): in ``immediate`` mode a running
task is forced off the CPU the instant its server's budget depletes, so
per-window consumption never exceeds ``Θ``; in ``step`` mode the switch
happens at the task's next scheduling point, so consumption can overrun
by up to one delay step — the same accuracy bound the paper derives for
preemption. The cross-validation harness therefore runs in
``immediate`` mode.

Tasks never assigned to a component land in an implicit *background*
component: unbounded budget, lowest top-level urgency — existing
single-level code (drivers, helper tasks) composes unchanged.
"""

from repro.rtos.sched.base import Scheduler
from repro.rtos.sched import make_scheduler as _make_local

__all__ = ["Component", "ComponentStats", "HierarchicalScheduler"]

_INF = float("inf")


class ComponentStats:
    """Per-component budget/supply accounting."""

    __slots__ = (
        "window_consumption",
        "throttles",
        "replenishments",
        "dispatches",
    )

    def __init__(self):
        #: window index -> execution time consumed by the component's
        #: tasks inside that server window (raw, including any step-mode
        #: overrun past the budget); written whenever the component is
        #: charged
        self.window_consumption = {}
        #: times the component was suspended on budget depletion
        self.throttles = 0
        #: replenishment-timer firings that re-ran scheduling
        self.replenishments = 0
        #: task dispatches charged to this component
        self.dispatches = 0

    @property
    def total_consumed(self):
        return sum(self.window_consumption.values())

    @property
    def max_window_consumption(self):
        if not self.window_consumption:
            return 0
        return max(self.window_consumption.values())


class Component:
    """A budget/period resource server holding a taskset.

    Parameters
    ----------
    name:
        Label used in traces and metrics.
    budget:
        CPU time ``Θ`` the component may consume per server window.
        ``None`` makes the component *unbounded* (a best-effort
        background server that is never throttled).
    period:
        Server window length ``Π``. Required for bounded components.
    policy:
        Local scheduling policy for the tasks inside the component —
        anything :func:`repro.rtos.sched.make_scheduler` accepts.
    priority:
        Top-level fixed priority of the server (lower = more urgent)
        under a ``"priority"`` top-level scheduler; ignored under
        ``"edf"`` (servers then compete by window deadline).
    """

    __slots__ = (
        "name",
        "budget",
        "period",
        "priority",
        "policy",
        "local",
        "tasks",
        "index",
        "stats",
        "bounded",
        "blocked_until",
        "_window",
        "_win_end",
        "_used",
        "_run_task",
        "_run_start",
        "_exhaust_timer",
        "_replenish_timer",
        "_replenish_at",
    )

    def __init__(self, name, budget=None, period=None, policy="edf",
                 priority=0):
        if budget is not None:
            budget = int(budget)
            if period is None:
                raise ValueError(
                    f"component {name!r}: a bounded budget needs a period"
                )
            period = int(period)
            if budget <= 0 or period <= 0:
                raise ValueError(
                    f"component {name!r}: budget and period must be positive"
                )
            if budget > period:
                raise ValueError(
                    f"component {name!r}: budget {budget} exceeds period {period}"
                )
        self.name = name
        self.budget = budget
        self.period = int(period) if period is not None else None
        self.priority = priority
        self.policy = policy
        #: local ready queue + policy (private scheduler instance)
        self.local = _make_local(policy)
        self.tasks = []
        #: registration order on the PE (top-level tie break)
        self.index = 0
        self.stats = ComponentStats()
        #: kept in sync with ``budget`` by reconfigure_budget
        self.bounded = budget is not None
        #: while not running, the component is out of budget exactly
        #: while ``now < blocked_until`` (end of the exhausted window)
        self.blocked_until = 0
        #: current (window, used) pair: the latest window charged, its
        #: end time and the consumption charged to it so far
        self._window = 0
        self._win_end = 0
        self._used = 0
        #: task of this component currently holding the CPU, and the
        #: time up to which its run has been charged
        self._run_task = None
        self._run_start = None
        self._exhaust_timer = None
        self._replenish_timer = None
        self._replenish_at = None

    # -- budget bookkeeping (all times are integers) -----------------------

    def window_deadline(self, now):
        """End of the current server window (EDF top-level key)."""
        period = self.period
        if period is None:
            return _INF
        return (now // period + 1) * period

    def _charge(self, now):
        """Charge the in-flight run up to ``now``, split at window ends.

        Callers guarantee a bounded component with ``_run_start < now``.
        """
        t = self._run_start
        self._run_start = now
        ledger = self.stats.window_consumption
        window = self._window
        win_end = self._win_end
        used = self._used
        while True:
            if t >= win_end:
                # the run has rolled over into a fresh window
                window = t // self.period
                win_end = (window + 1) * self.period
                used = 0
            if now <= win_end:
                used += now - t
                ledger[window] = used
                break
            used += win_end - t
            ledger[window] = used
            t = win_end
        self._window = window
        self._win_end = win_end
        self._used = used
        self.blocked_until = win_end if used >= self.budget else 0

    def remaining(self, now):
        """Budget left in the current server window (inf if unbounded)."""
        if not self.bounded:
            return _INF
        start = self._run_start
        if start is not None and now > start:
            self._charge(now)
        left = self.budget - (self._used if now < self._win_end else 0)
        return left if left > 0 else 0

    def __repr__(self):
        if self.bounded:
            return (
                f"Component({self.name!r}, {self.budget}/{self.period}, "
                f"policy={self.policy!r})"
            )
        return f"Component({self.name!r}, unbounded, policy={self.policy!r})"


class HierarchicalScheduler(Scheduler):
    """Two-level server scheduler (see module doc).

    Parameters
    ----------
    components:
        Iterable of :class:`Component`. Tasks are routed to components
        via :meth:`assign` (the platform layer's
        ``ProcessingElement.add_task(component=...)`` does this).
    top:
        Top-level policy arbitrating between components:
        ``"priority"`` (fixed server priorities) or ``"edf"``
        (earliest server-window deadline first).
    """

    __slots__ = ("components", "top", "background", "_by_task", "_dispatcher",
                 "_sim", "_order", "_edf", "_best")

    name = "hier"

    def __init__(self, components=(), top="priority"):
        super().__init__()
        if top not in ("priority", "edf"):
            raise ValueError(f"unknown top-level policy: {top!r}")
        self.top = top
        self._edf = top == "edf"
        self.components = []
        #: implicit best-effort server for unassigned tasks
        self.background = Component(
            "background", None, None, policy="priority", priority=_INF
        )
        self.background.index = _INF
        #: peek scan order: components by registration, background last
        self._order = [self.background]
        #: component of the task the last peek chose (tied_best)
        self._best = None
        #: task uid -> component
        self._by_task = {}
        self._dispatcher = None
        self._sim = None
        for comp in components:
            self.add_component(comp)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_component(self, comp):
        """Register ``comp`` with this scheduler; returns it."""
        if any(c.name == comp.name for c in self.components):
            raise ValueError(f"duplicate component name {comp.name!r}")
        comp.index = len(self.components)
        self.components.append(comp)
        self._order.insert(comp.index, comp)
        for task in comp.tasks:
            self._by_task[task.uid] = comp
        return comp

    def assign(self, task, comp):
        """Route ``task`` to ``comp``'s local scheduler."""
        if isinstance(comp, str):
            comp = self.component(comp)
        if comp is not self.background and comp not in self.components:
            self.add_component(comp)
        self._by_task[task.uid] = comp
        if task not in comp.tasks:
            comp.tasks.append(task)
        return comp

    def component(self, name):
        """Look up a registered component by name."""
        for comp in self.components:
            if comp.name == name:
                return comp
        if name == self.background.name:
            return self.background
        raise KeyError(f"no component named {name!r}")

    def component_of(self, task):
        """The component ``task`` is served by (background if unassigned)."""
        return self._by_task.get(task.uid, self.background)

    def bind(self, dispatcher):
        """Hook the dispatcher (budget timers + forced preemption)."""
        self._dispatcher = dispatcher
        self._sim = dispatcher.sim

    # ------------------------------------------------------------------
    # Scheduler interface (consumed by the Dispatcher)
    #
    # Hot paths inline component_of and the budget check: a bounded
    # component whose task holds the CPU is charged up to ``now``, after
    # which ``now < blocked_until`` says whether its budget is gone.
    # ------------------------------------------------------------------

    def on_ready(self, task, now):
        comp = self._by_task.get(task.uid, self.background)
        comp.local.on_ready(task, now)
        if comp.bounded:
            start = comp._run_start
            if start is not None and now > start:
                comp._charge(now)
            blocked = comp.blocked_until
            if now < blocked and comp._replenish_at != blocked:
                # budget already gone this window: make sure the
                # scheduling decision re-runs at the next replenishment
                self._ensure_replenish(comp)

    def remove(self, task):
        self._by_task.get(task.uid, self.background).local.remove(task)

    def peek(self, now):
        best = None
        best_task = None
        best_key = None
        edf = self._edf
        for comp in self._order:
            local = comp.local
            # the local policy's memoized peek, read without a call
            if local._peek_valid:
                task = local._peek_cache
            else:
                task = local.peek(now)
            if task is None:
                continue
            if comp.bounded:
                start = comp._run_start
                if start is not None and now > start:
                    comp._charge(now)
                blocked = comp.blocked_until
                if now < blocked:
                    if comp._replenish_at != blocked:
                        self._ensure_replenish(comp)
                    continue
            key = comp.window_deadline(now) if edf else comp.priority
            # strict compare in registration order = (key, index) order
            if best is None or key < best_key:
                best = comp
                best_task = task
                best_key = key
        self._best = best
        return best_task

    def tied_best(self, now):
        # server arbitration is total-ordered by (key, comp.index), so
        # there is never a cross-component tie to expose; within the
        # winning component, local ties are real decision points
        if self.peek(now) is None:
            return []
        return self._best.local.tied_best(now)

    def expired(self, task, now):
        comp = self._by_task.get(task.uid, self.background)
        if not comp.bounded:
            return False
        start = comp._run_start
        if start is not None and now > start:
            comp._charge(now)
        blocked = comp.blocked_until
        if now < blocked:
            if comp._replenish_at != blocked:
                self._ensure_replenish(comp)
            return True
        return False

    def preempts(self, candidate, running, now):
        by_task = self._by_task
        comp_c = by_task.get(candidate.uid, self.background)
        comp_r = by_task.get(running.uid, self.background)
        if comp_r.bounded:
            start = comp_r._run_start
            if start is not None and now > start:
                comp_r._charge(now)
            if now < comp_r.blocked_until:
                # the running task's server is out of budget: any
                # eligible candidate takes the CPU at this scheduling point
                return True
        if comp_c is comp_r:
            return comp_c.local.preempts(candidate, running, now)
        if self._edf:
            return (comp_c.window_deadline(now), comp_c.index) < (
                comp_r.window_deadline(now), comp_r.index)
        return (comp_c.priority, comp_c.index) < (comp_r.priority, comp_r.index)

    def on_dispatch(self, task, now):
        comp = self._by_task.get(task.uid, self.background)
        comp.local.on_dispatch(task, now)
        comp.stats.dispatches += 1
        comp._run_task = task
        comp._run_start = now
        sim = self._sim
        if comp.bounded and sim is not None:
            timer = comp._exhaust_timer
            if timer is not None:
                sim.cancel_scheduled(timer)
            left = comp.budget - (comp._used if now < comp._win_end else 0)
            comp._exhaust_timer = sim.schedule_after(
                left if left > 0 else 0, lambda: self._exhausted(comp)
            )

    def on_yield(self, task, now):
        comp = self._by_task.get(task.uid, self.background)
        if comp._run_task is not task:
            return
        if comp.bounded and now > comp._run_start:
            comp._charge(now)
        comp._run_task = None
        comp._run_start = None
        timer = comp._exhaust_timer
        if timer is not None:
            comp._exhaust_timer = None
            if self._sim is not None:
                self._sim.cancel_scheduled(timer)
        dispatcher = self._dispatcher
        if comp.bounded and dispatcher is not None and dispatcher.obs is not None:
            dispatcher.obs.component_budget(comp.name).set(
                comp._used if now < comp._win_end else 0
            )

    # ------------------------------------------------------------------
    # budget timers
    # ------------------------------------------------------------------

    def _exhausted(self, comp):
        """Exhaustion timer callback: throttle or re-arm."""
        comp._exhaust_timer = None
        task = comp._run_task
        if task is None:
            return  # stale: the task yielded at this same instant
        now = self._sim.now
        left = comp.remaining(now)
        if left > 0:
            # a window boundary replenished the budget mid-run
            comp._exhaust_timer = self._sim.schedule_after(
                left, lambda: self._exhausted(comp)
            )
            return
        comp.stats.throttles += 1
        dispatcher = self._dispatcher
        dispatcher.trace.record(
            now, "sched", dispatcher.name, "throttle",
            component=comp.name, task=task.name,
        )
        if dispatcher.obs is not None:
            dispatcher.obs.component_throttles(comp.name).inc()
        if comp._replenish_at != comp.blocked_until:
            self._ensure_replenish(comp)
        if dispatcher.running is task and dispatcher.preemption == "immediate":
            # exact enforcement: force the task off the CPU now; its
            # remaining delay resumes after the next dispatch
            dispatcher.preempt_running(by=f"budget:{comp.name}")
        else:
            # step mode: the switch happens at the task's next
            # scheduling point (bounded overrun, like t4 -> t4')
            dispatcher.resched_from_outside()

    def reconfigure_budget(self, comp, budget):
        """Re-set ``comp``'s per-window budget mid-run (MC mode switches).

        Settles the in-flight charge, swaps the budget and re-arms the
        exhaustion timer against the remaining allowance of the current
        window. Shrinking below what the window already consumed
        throttles the component at this scheduling point (per the PE's
        preemption mode), exactly as if the old budget had just
        depleted. ``budget=None`` makes the component unbounded.
        """
        if isinstance(comp, str):
            comp = self.component(comp)
        if budget is not None:
            budget = int(budget)
            if budget <= 0 or comp.period is None or budget > comp.period:
                raise ValueError(
                    f"component {comp.name!r}: budget {budget!r} must be in "
                    f"1..period ({comp.period})"
                )
        sim = self._sim
        now = sim.now if sim is not None else 0
        start = comp._run_start
        if start is not None and now > start:
            if comp.bounded:
                comp._charge(now)
            else:
                comp._run_start = now  # unbounded time is never charged
        timer = comp._exhaust_timer
        if timer is not None:
            comp._exhaust_timer = None
            if sim is not None:
                sim.cancel_scheduled(timer)
        if budget is None:
            comp.budget = None
            comp.bounded = False
            comp.blocked_until = 0
            timer = comp._replenish_timer
            if timer is not None:
                comp._replenish_timer = None
                if sim is not None:
                    sim.cancel_scheduled(timer)
            comp._replenish_at = None
            if self._dispatcher is not None:
                self._dispatcher.resched_from_outside()
            return
        comp.budget = budget
        comp.bounded = True
        comp.blocked_until = comp._win_end if comp._used >= budget else 0
        if comp._run_task is not None:
            left = comp.remaining(now)
            if left <= 0:
                self._exhausted(comp)
            else:
                comp._exhaust_timer = sim.schedule_after(
                    left, lambda: self._exhausted(comp)
                )
        elif self._dispatcher is not None:
            # a grown budget can un-throttle the component right away
            self._dispatcher.resched_from_outside()

    def _ensure_replenish(self, comp):
        """Arm ``comp``'s replenishment timer at ``blocked_until``.

        Callers only invoke this when the armed target differs, so a
        timer is (re-)armed once per exhausted window.
        """
        sim = self._sim
        if sim is None:
            return
        timer = comp._replenish_timer
        if timer is not None:
            sim.cancel_scheduled(timer)
        target = comp.blocked_until
        comp._replenish_at = target
        comp._replenish_timer = sim.schedule_at(
            target, lambda: self._replenished(comp)
        )

    def _replenished(self, comp):
        comp._replenish_timer = None
        comp._replenish_at = None
        comp.stats.replenishments += 1
        dispatcher = self._dispatcher
        if dispatcher is not None:
            dispatcher.resched_from_outside()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def ready_tasks(self):
        tasks = []
        for comp in self._order:
            tasks.extend(comp.local.ready_tasks)
        return tasks

    def __len__(self):
        return sum(len(c.local) for c in self._order)

    def __repr__(self):
        comps = ", ".join(c.name for c in self.components)
        return f"HierarchicalScheduler(top={self.top!r}, components=[{comps}])"
