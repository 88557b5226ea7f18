"""Instrumentation the benchmark installs around the program's public
entry points, from outside: no file under ``src/`` is touched.

Two strengths:

* **timed** — only what the end-to-end metrics need, at O(1) cost per
  scenario: the instant of the first ``Simulator.run`` call (the end of
  set-up) through a hook that removes itself when it fires, and the
  simulators built (their event counters are read after the run).
* **traced** — additionally a span around every entry point below.
  Each span is ``[id, parent_id, name, start, end]`` in host monotonic
  seconds, kept in memory and written out when the pass ends.

Spanned entry points: ``api.run``, ``Testbed``/``Host`` construction,
``Simulator.run``, ``Testbed.settle_fluid``, the auditor's ``audit``,
``run_sweep`` and ``ResultCache.get``/``put``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, List, Optional


class Probe:
    """Timing hooks and an in-memory span log for one process."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.pid = os.getpid()
        self.spans: List[list] = []
        self._stack: List[list] = []
        self._next = 0
        #: Span id a forked worker's root spans hang under.
        self.root_parent: Optional[str] = None
        self.first_run: Optional[float] = None
        self.sims: List[object] = []
        self._engine = None
        self._orig_run = None

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> None:
        self._next += 1
        parent = self._stack[-1][0] if self._stack else self.root_parent
        span = [f"{self.pid}:{self._next}", parent, name, time.monotonic(),
                None]
        self.spans.append(span)
        self._stack.append(span)

    def close(self) -> None:
        self._stack.pop()[4] = time.monotonic()

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        probe = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            probe.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                probe.close()
        return spanned

    def _wrap(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.span(name, getattr(owner, attr)))

    def forked(self) -> None:
        """Start a fresh span log in a forked worker, hanging its spans
        under the parent span that was open when the worker forked."""
        if os.getpid() == self.pid:
            return
        self.root_parent = self._stack[-1][0] if self._stack else None
        self.pid = os.getpid()
        self.spans = []
        self._stack = []

    def drain_spans(self, path: str) -> None:
        """Append the closed spans to ``path`` (JSON lines) and drop
        them from memory."""
        with open(path, "a") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
        self.spans = []

    # -- hooks ---------------------------------------------------------
    def install(self) -> None:
        """Patch the program's classes; call once, after import."""
        from repro.sim import engine
        self._engine = engine
        orig_init = engine.Simulator.__init__
        probe = self

        @functools.wraps(orig_init)
        def init(sim, *args, **kwargs):
            orig_init(sim, *args, **kwargs)
            probe.sims.append(sim)
        engine.Simulator.__init__ = init
        if self.traced:
            from repro.audit.auditor import InvariantAuditor
            from repro.core.host import Host
            from repro.core.testbed import Testbed
            from repro.sweep.cache import ResultCache
            self._wrap(engine.Simulator, "run", "sim.Simulator.run")
            self._wrap(Testbed, "__init__", "core.Testbed")
            self._wrap(Host, "__init__", "core.Host")
            self._wrap(Testbed, "settle_fluid", "sim.settle_fluid")
            self._wrap(InvariantAuditor, "audit", "audit.check")
            self._wrap(ResultCache, "get", "sweep.cache_get")
            self._wrap(ResultCache, "put", "sweep.cache_put")
        self._orig_run = engine.Simulator.run

    def arm(self) -> None:
        """Forget the last scenario and catch the next first
        ``Simulator.run`` call.  The hook restores the plain method the
        moment it fires, so the event loop runs unwrapped."""
        self.first_run = None
        self.sims = []
        probe = self
        simulator = self._engine.Simulator
        orig = self._orig_run

        def first_run(sim, *args, **kwargs):
            probe.first_run = time.monotonic()
            simulator.run = orig
            return orig(sim, *args, **kwargs)
        simulator.run = first_run

    def disarm(self) -> None:
        self._engine.Simulator.run = self._orig_run

    def events(self) -> int:
        """Simulated events (executed + collapsed) of the simulators
        built since :meth:`arm`."""
        return sum(sim.events_executed + sim.collapsed_events
                   for sim in self.sims)
