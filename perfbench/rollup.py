"""Roll a cProfile run up by ``repro.<subpackage>`` layer.

Layers are named after the program's packages.  ``sim`` is split by
module (``sim.fluid`` covers ``fluid.py`` and ``fluid_host.py``; the
remaining sim modules form ``sim.other``) and the top-level modules
(``api.py`` and friends) form ``api``.

Builtins and the standard library have no layer of their own.  Their
self time is charged to the ``repro`` layer that called them: cProfile
records, per caller, the callee's self time spent on that caller's
behalf, and a non-``repro`` caller passes the charge on to its own
callers in proportion to the time each spent in it.  Time spent blocked
(lock acquires, sleeps, polls, pipe reads) is kept apart as the
layer's wait time.  What reaches no ``repro`` frame is ``unattributed``
(the benchmark's own code and interpreter shutdown).
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional, Tuple

LAYERS = (
    "sim.engine", "sim.wheel", "sim.fluid", "sim.sync", "sim.stats",
    "sim.other", "devices", "hw", "drivers", "vmm", "net", "core",
    "cluster", "migration", "faults", "audit", "obs", "sweep", "api",
)

_SIM_MODULES = {"engine": "sim.engine", "wheel": "sim.wheel",
                "fluid": "sim.fluid", "fluid_host": "sim.fluid",
                "sync": "sim.sync", "stats": "sim.stats"}

#: Builtin names that block the calling thread.
_WAITS = ("acquire", "sleep", "select", "poll", "waitpid", "posix.read",
          "recv", "_wait")

Func = Tuple[str, int, str]


def _is_wait(func: Func) -> bool:
    filename, _, name = func
    return filename == "~" and any(word in name for word in _WAITS)


class Rollup:
    """Per-layer self time, wait time and call counts of one profile."""

    def __init__(self, stats: pstats.Stats, package_dir: str):
        self._prefix = os.path.join(os.path.realpath(package_dir), "")
        self._stats = stats.stats
        self._owners: Dict[Func, Dict[str, float]] = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.wait_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.unattributed_s = 0.0
        self.total_s = 0.0
        for func, (_, calls, self_time, _, callers) in self._stats.items():
            self.total_s += self_time
            layer = self.layer_of(func)
            if layer is not None:
                self.self_s[layer] += self_time
                self.calls[layer] += calls
                continue
            bucket = self.wait_s if _is_wait(func) else self.self_s
            charged = 0.0
            for caller, entry in callers.items():
                for owner, share in self._owner(caller).items():
                    bucket[owner] += entry[2] * share
                    charged += entry[2] * share
            self.unattributed_s += self_time - charged

    def layer_of(self, func: Func) -> Optional[str]:
        filename = func[0]
        if not filename.startswith(self._prefix):
            filename = os.path.realpath(filename)
            if not filename.startswith(self._prefix):
                return None
        parts = filename[len(self._prefix):].split(os.sep)
        if len(parts) == 1:
            return "api"
        if parts[0] == "sim":
            return _SIM_MODULES.get(parts[1][:-3], "sim.other")
        return parts[0] if parts[0] in LAYERS else None

    def _owner(self, func: Func) -> Dict[str, float]:
        """How ``func``'s time splits across the layers above it."""
        layer = self.layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in self._owners:
            return self._owners[func]
        self._owners[func] = {}  # a cycle back here charges nothing
        callers = self._stats.get(func, (0, 0, 0, 0, {}))[4]
        weights = {caller: entry[3] for caller, entry in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: entry[1] for caller, entry in callers.items()}
            total = sum(weights.values())
        owners: Dict[str, float] = {}
        for caller, weight in weights.items():
            for owner, share in self._owner(caller).items():
                owners[owner] = owners.get(owner, 0.0) + \
                    share * weight / total
        self._owners[func] = owners
        return owners

    @property
    def repro_calls(self) -> int:
        return sum(self.calls.values())

    @property
    def layer_share(self) -> float:
        """Share of profiled time that landed on a named layer."""
        if self.total_s <= 0:
            return 0.0
        named = sum(self.self_s.values()) + sum(self.wait_s.values())
        return named / self.total_s
