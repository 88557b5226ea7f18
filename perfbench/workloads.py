"""The benchmark's workloads: scenario shapes as plain dicts.

The shapes are copied here on purpose instead of being imported from
the program's bench or figure tables, so an edit under ``src/`` can
never resize a workload.  Each entry is a ``Scenario.from_dict`` input
without its ``seed``; :func:`scenario_dicts` adds the run's seed, which is
the only way the seed reaches the program.

A workload has up to two parts, run in this order by every pass:

* ``serial`` — scenarios run one after another through ``repro.api.run``
  in the pass process;
* ``sweep`` — scenarios run as a cold then a warm supervised
  ``run_sweep`` over a fresh ``ResultCache``.

This module imports nothing from the program: the harness uses it to
count scenarios and order reference runs before any ``repro`` code is
loaded.
"""

from __future__ import annotations

from typing import Dict, List

FIXED_2K = {"kind": "fixed_itr", "hz": 2000}
AIC = {"kind": "aic"}

#: The default seed the recorded reference digests were taken at.
DEFAULT_SEED = 42


def _fig15(vm_count: int, warmup: float, duration: float) -> dict:
    return {"mode": "sriov", "kind": "hvm", "policy": FIXED_2K,
            "vm_count": vm_count, "warmup": warmup, "duration": duration}


def _fig10(duration: float) -> dict:
    return {"mode": "intervm", "variant": "sriov", "sender": "dom0",
            "policy": AIC, "warmup": 0.15, "duration": duration}


def _aic_1vm(protocol: str) -> dict:
    return {"mode": "sriov", "vm_count": 1, "ports": 1, "policy": AIC,
            "protocol": protocol, "warmup": 0.5, "duration": 5.0}


_SRIOV_EXACT = {
    # 10 HVM guests on 10 ports, fixed 2 kHz ITR, UDP RX.
    "fig15": dict(_fig15(10, 0.3, 0.4), sim_mode="exact"),
    # 5 guests, 2.6.18 kernel (per-interrupt MSI masking), one port,
    # dynamic ITR, every section-5 optimization off.
    "fig06": {"mode": "sriov", "ports": 1, "kernel": "2.6.18",
              "policy": {"kind": "dynamic_itr"}, "opts": {},
              "vm_count": 5, "warmup": 0.3, "duration": 0.4,
              "sim_mode": "exact"},
    # inter-VM SR-IOV loopback, dom0 sender, AIC.
    "fig10": dict(_fig10(0.2), sim_mode="exact"),
}

_SRIOV_FLUID = {
    "fig15": dict(_fig15(10, 0.3, 2.0), sim_mode="fluid"),
    "fig16": dict(_fig15(10, 0.3, 2.0), kind="pvm", sim_mode="fluid"),
    "fig10": dict(_fig10(1.0), sim_mode="fluid"),
    "fig08": dict(_aic_1vm("udp"), sim_mode="fluid"),
    "fig09": dict(_aic_1vm("tcp"), sim_mode="fluid"),
    # Two VMs per port: the fluid gates refuse it, so it runs exact and
    # keeps a measured fallback share in the workload.
    "fig15x20": dict(_fig15(20, 0.3, 0.2), sim_mode="fluid"),
}

_CLUSTER_FLUID = {
    "fig22": {
        "mode": "cluster",
        "hosts": [{"name": "h0", "vm_count": 1, "ports": 1},
                  {"name": "h1", "vm_count": 1, "ports": 1}],
        "flows": [{"src_host": "h0", "dst_host": "h1",
                   "offered_bps": 900e6},
                  {"src_host": "h1", "dst_host": "h0",
                   "offered_bps": 900e6}],
        "fabric": {"uplink_gbps": 10.0, "latency_s": 2e-5},
        "warmup": 0.3, "duration": 1.0, "sim_mode": "fluid",
    },
}


def _pv_intervm(size: int) -> dict:
    return {"mode": "intervm", "variant": "pv", "kind": "pvm",
            "message_bytes": size, "warmup": 0.3, "duration": 0.15}


def _scaling(mode: str, kind: str, vm_count: int) -> dict:
    return {"mode": mode, "kind": kind, "vm_count": vm_count,
            "warmup": 0.3, "duration": 0.15}


_CAMPAIGN = {
    # DNIS migration while the VF's line flaps: bonding failover.  The
    # longest cell goes first so the pool starts on the critical path.
    "fig21f": {"mode": "migrate", "variant": "dnis", "start_at": 0.5,
               "faults": [{"kind": "link_flap", "at": 0.15,
                           "duration": 0.2, "port": 0}]},
    "fig14-pv-1500": _pv_intervm(1500),
    "fig14-pv-4000": _pv_intervm(4000),
    "fig14-sriov-1500": {"mode": "intervm", "variant": "sriov",
                         "message_bytes": 1500, "warmup": 0.5,
                         "duration": 0.15},
    "fig17-1": _scaling("pv", "hvm", 1),
    "fig17-2": _scaling("pv", "hvm", 2),
    "fig19-1": _scaling("vmdq", "pvm", 1),
    "fig19-2": _scaling("vmdq", "pvm", 2),
}

WORKLOADS: Dict[str, Dict[str, Dict[str, dict]]] = {
    # Every event dispatched per packet, so the fluid fast path is
    # bypassed; the sweep adds the pool, the cache, PV, VMDq, migration
    # and faults.
    "exact": {"serial": _SRIOV_EXACT, "sweep": _CAMPAIGN},
    # The fluid fast path engaged on one host and across a two-host
    # cluster.
    "fluid": {"serial": dict(_SRIOV_FLUID, **_CLUSTER_FLUID)},
}

#: Worker processes of the supervised sweep.
CAMPAIGN_JOBS = 2


def scenario_dicts(workload: str, seed: int, part: str) -> Dict[str, dict]:
    """Each scenario of one part of ``workload`` as a
    ``Scenario.from_dict`` input."""
    return {name: dict(shape, seed=seed)
            for name, shape in WORKLOADS[workload].get(part, {}).items()}


def shapes(workload: str) -> Dict[str, dict]:
    """Every scenario shape of ``workload``, by name."""
    out: Dict[str, dict] = {}
    for part in WORKLOADS[workload].values():
        out.update(part)
    return out


def reference_dict(scenario: dict) -> dict:
    """The exact-mode twin a result must match byte for byte."""
    return dict(scenario, sim_mode="exact")


def names(workload: str) -> List[str]:
    return list(shapes(workload))


def twin_names(workload: str) -> List[str]:
    """Scenarios that do not run exact, so their reference is a separate
    exact-mode run.  An exact scenario's own first result is its
    reference."""
    return [name for name, shape in shapes(workload).items()
            if shape.get("sim_mode", "exact") != "exact"]


def cluster_names(workload: str) -> List[str]:
    return [name for name, shape in shapes(workload).items()
            if shape.get("mode") == "cluster"]
