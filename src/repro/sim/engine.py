"""The discrete-event engine.

A :class:`Simulator` owns a virtual clock (float seconds) and a priority
queue of pending events.  Events scheduled for the same instant fire in
the order they were scheduled (stable FIFO tie-breaking via a sequence
number), which keeps multi-component interactions — e.g. an interrupt
raised and masked at the same timestamp — deterministic.

Hot-path layout (the engine executes tens of millions of events per
figure campaign, so this is the repro's wall clock):

* Queue entries are native ``(time, seq, handle)`` tuples — ordering is
  C-level tuple comparison, and ``seq`` is unique so the handle is
  never compared.
* One binary heap is the whole event store: ``schedule_at`` pushes,
  dispatch pops.
* :class:`EventHandle` objects are pooled: after dispatch (or a
  skipped cancelled entry), a handle provably free of external
  references (``sys.getrefcount``, CPython only) returns to a free
  list for the next ``schedule`` call.
* ``run()`` dispatches inline — no ``peek()``/``step()`` round trips —
  and ``pending_events`` is O(1) via a live-event counter.
* Lazily-cancelled debris is compacted eagerly once it outnumbers the
  live events, so re-armed timers cannot accumulate.

``perfbench/`` times this path end to end; its ``--trace 1`` split
reports the engine's own self time and call count.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import Any, Callable, List, Optional, Tuple

_INF = float("inf")

#: A handle with no references outside the engine shows exactly this
#: refcount at the pooling checks (entry tuple + one local + the
#: getrefcount argument).  Non-CPython implementations may not have
#: refcounts at all, so pooling is disabled there (-1 never matches).
_POOL_RC = 3 if sys.implementation.name == "cpython" else -1

#: Compact the heap once cancelled debris passes this floor *and*
#: outnumbers the live events.
_COMPACT_FLOOR = 256


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (negative delays, time travel...)."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the entry stays queued but is skipped when it
    surfaces.  This keeps :meth:`Simulator.cancel` O(1); the simulator
    additionally compacts the heap when debris accumulates.

    Dispatch marks the handle cancelled before invoking its callback,
    so a late ``cancel()`` on an already-fired handle is a no-op and
    the live/cancelled accounting can never double-count.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._live -= 1
            cancelled = sim._cancelled + 1
            sim._cancelled = cancelled
            if cancelled > _COMPACT_FLOOR and cancelled > sim._live:
                sim._compact()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<EventHandle t={self.time:.9f} {name} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1e-3, handler, arg1, arg2)
        sim.run(until=10.0)

    The clock unit is seconds.  ``run`` executes events in timestamp order
    until the queue drains or the horizon is reached; the clock is left at
    ``until`` when a horizon is given (so rate statistics computed as
    count/elapsed are exact even if the last event fired earlier).
    """

    def __init__(self, start_time: float = 0.0):
        self.now: float = start_time
        #: Every queued entry: a heap of (time, seq, handle).
        self._heap: List[Tuple] = []
        self._seq: int = 0
        self._running: bool = False
        self._events_executed: int = 0
        #: Events the fluid datapath (:mod:`repro.sim.fluid`) accounted
        #: for arithmetically instead of dispatching.  For an eligible
        #: run, ``events_executed + collapsed_events`` equals the exact
        #: mode's ``events_executed``.
        self.collapsed_events: int = 0
        self._step_observer: Optional[Callable[[EventHandle], None]] = None
        #: Live (non-cancelled) queued events — pending_events is O(1).
        self._live: int = 0
        #: Cancelled entries still queued (compaction trigger).
        self._cancelled: int = 0
        #: Recycled EventHandle pool.
        self._free: List[EventHandle] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self.now}): time travel"
            )
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            handle = free.pop()
            handle.time = time
            handle.seq = seq
            handle.callback = callback
            handle.args = args
            handle.cancelled = False
        else:
            handle = EventHandle(time, seq, callback, args)
            handle._sim = self
        self._live += 1
        heappush(self._heap, (time, seq, handle))
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        handle.cancel()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty.

        Discards any cancelled prefix while looking.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            self._cancelled -= 1
            heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Execute the single next event.  Returns False if none remained."""
        if self.peek() is None:
            return False
        entry = heappop(self._heap)
        handle = entry[2]
        self.now = entry[0]
        self._events_executed += 1
        self._live -= 1
        handle.cancelled = True  # late cancel() on a fired handle: no-op
        observer = self._step_observer
        if observer is None:
            handle.callback(*handle.args)
        else:
            observer(handle)
        return True

    def set_step_observer(
            self, observer: Optional[Callable[[EventHandle], None]]) -> None:
        """Install a dispatch hook (``None`` to remove it).

        When set, the observer is invoked *instead of* the event's
        callback and becomes responsible for calling
        ``handle.callback(*handle.args)`` itself.  This is the seam the
        opt-in host profiler (:class:`repro.obs.EngineProfiler`) uses to
        measure wall-clock per callback; the default path stays a single
        attribute check.
        """
        self._step_observer = observer

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or to the ``until`` horizon.

        With a horizon, events strictly after ``until`` stay queued and the
        clock is advanced exactly to ``until``.

        The dispatch loop is inlined (no per-event ``peek``/``step``
        round trips): pop while the heap top is within the horizon, skip
        cancelled entries, pool handles that have no external references.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        limit = _INF if until is None else until
        heap = self._heap  # identity is stable: _compact filters in place
        free = self._free
        pool_rc = _POOL_RC
        try:
            while heap and heap[0][0] <= limit:
                entry = heappop(heap)
                handle = entry[2]
                if handle.cancelled:
                    self._cancelled -= 1
                    if getrefcount(handle) == pool_rc:
                        handle.callback = None
                        handle.args = ()
                        free.append(handle)
                    continue
                self.now = entry[0]
                self._events_executed += 1
                self._live -= 1
                handle.cancelled = True  # late cancel(): no-op
                observer = self._step_observer
                if observer is not None:
                    observer(handle)
                    continue
                callback = handle.callback
                args = handle.args
                if getrefcount(handle) == pool_rc:
                    # No external references: recycle before dispatch so
                    # the callback's own schedules can reuse the handle.
                    handle.callback = None
                    handle.args = ()
                    free.append(handle)
                    callback(*args)
                else:
                    callback(*args)
                    # Callers like the interrupt throttle drop their
                    # reference inside the callback; re-check.
                    if getrefcount(handle) == pool_rc:
                        handle.callback = None
                        handle.args = ()
                        free.append(handle)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    @property
    def events_executed(self) -> int:
        """Total events executed since construction."""
        return self._events_executed

    def queue_stats(self) -> dict:
        """Read-only queue accounting for the invariant auditor.

        Unlike :meth:`peek`, this never mutates the heap — no
        cancelled-prefix popping — so calling it mid-run cannot perturb
        the event stream.  The identity audited against it: ``live +
        cancelled`` equals the entries physically in the heap.
        """
        return {
            "live": self._live,
            "cancelled": self._cancelled,
            "heap": len(self._heap),
        }

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Eagerly drop lazily-cancelled entries from the heap.

        Filters in place (the run loop caches the heap reference), and
        exactly resets the cancelled-debris counter.
        """
        heap = self._heap
        live_heap = [entry for entry in heap if not entry[2].cancelled]
        if len(live_heap) != len(heap):
            heap[:] = live_heap
            heapify(heap)
        self._cancelled = 0
