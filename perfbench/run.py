"""The repository benchmark: host time of the SR-IOV testbed simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact --seed 7 --seconds 45 --trace 0

Every pass of the workload runs in a fresh Python process (so imports,
set-up and peak memory are that pass's own), one after another, until
``--seconds`` of passes are used up.  Between passes the exact-mode
twin of every scenario that does not itself run exact is run, untimed;
an exact scenario's first timed result is its own reference.  At the
default seed the reference digests recorded in
``reference_digests.json`` are used instead.  Every timed result must
reproduce its reference digest byte for byte.

``--trace 1`` adds one traced pass (spans + cProfile rollup by layer)
and reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md
for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import (DEFAULT_SEED, WORKLOADS, cluster_names, names,
                       twin_names)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "reference_digests.json"
OUT_DIR = BENCH_DIR / "out"

#: Every run ends well inside the 180 s a run may take.
RUN_BUDGET_S = 165.0
MIN_PASSES = 3
#: Reference passes run side by side (both cores; they are untimed).
REFERENCE_WIDTH = 2
#: Time kept back per pending batch of reference passes.
REFERENCE_BATCH_S = 10.0

#: Fluid gates reported by name; the rest are summed into ``other``.
NAMED_GATES = ("itr_window", "port_exact_peer")

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s",
    "sim_events_per_s": "1/s", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (not a wrong result)."""


class Pass:
    """One child process running ``passrun.py``."""

    def __init__(self, workdir: Path, label: str, role: str, workload: str,
                 seed: int, extra: Optional[List[str]] = None):
        workdir.mkdir(parents=True, exist_ok=True)
        self.out = workdir / f"{label}.json"
        self.log = workdir / f"{label}.log"
        self.label = label
        cmd = [sys.executable, str(BENCH_DIR / "passrun.py"),
               "--workload", workload, "--seed", str(seed),
               "--role", role, "--out", str(self.out),
               "--tmp", str(workdir / label)] + (extra or [])
        (workdir / label).mkdir(exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   TMPDIR=str(workdir / label),
                   REPRO_CACHE_DIR=str(workdir / label / "repro-cache"),
                   REPRO_AUDIT_DIR=str(OUT_DIR / "audit"))
        with open(self.log, "w") as log:
            spawn = time.monotonic()
            self.proc = subprocess.Popen(
                cmd + ["--spawn", repr(spawn)], env=env, cwd=str(ROOT),
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                start_new_session=True)
        self.usage = None
        self.status = None

    def poll(self) -> bool:
        pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
        if pid == 0:
            return False
        self.status = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.status
        self.usage = usage
        return True

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if self.status is None:
            _, status, self.usage = os.wait4(self.proc.pid, 0)
            self.status = os.waitstatus_to_exitcode(status)
            self.proc.returncode = self.status

    def result(self) -> dict:
        if self.status != 0:
            tail = self.log.read_text()[-2000:]
            raise BenchError(f"{self.label} exited {self.status}:\n{tail}")
        doc = json.loads(self.out.read_text())
        if not Path(doc["repro_file"]).resolve().is_relative_to(SRC):
            raise BenchError(f"{self.label} imported repro from "
                             f"{doc['repro_file']}, not from {SRC}")
        doc["cpu_s"] = self.usage.ru_utime + self.usage.ru_stime
        doc["peak_rss_mb"] = self.usage.ru_maxrss / 1024.0
        return doc


def run_passes(makers, width: int, deadline: float) -> List[dict]:
    """Run pass constructors ``width`` at a time, starting the next as
    soon as a slot frees; kill whatever still runs at ``deadline``.
    Results come back in ``makers`` order."""
    queue = list(makers)
    started: List[Pass] = []
    running: List[Pass] = []
    try:
        while queue or running:
            while queue and len(running) < width:
                started.append(queue.pop(0)())
                running.append(started[-1])
            running = [p for p in running if not p.poll()]
            if running and time.monotonic() > deadline:
                raise BenchError("out of time waiting for "
                                 + ", ".join(p.label for p in running))
            time.sleep(0.02)
    finally:
        for p in running:
            p.kill()
    return [p.result() for p in started]


def run_pass(deadline: float, *args) -> dict:
    """Run one ``Pass(*args)`` alone."""
    return run_passes([lambda: Pass(*args)], 1, deadline)[0]


def reference_makers(workload: str, seed: int, workdir: Path,
                     scenarios: List[str]) -> list:
    """One untimed exact-mode reference pass per named scenario."""
    return [
        (lambda name=name: Pass(workdir, f"ref-{workload}-{name}",
                                "reference", workload, seed,
                                ["--name", name]))
        for name in scenarios]


def collect_references(docs: List[dict]) -> Dict[str, dict]:
    refs: Dict[str, dict] = {}
    for doc in docs:
        refs.update(doc["scenarios"])
    for name, ref in refs.items():
        if "error" in ref:
            raise BenchError(f"reference run of {name} failed: "
                             f"{ref['error']}")
    return refs


def own_references(timed: List[dict], workload: str) -> Dict[str, dict]:
    """The first good timed result of each exact scenario: an exact
    run is its own exact-mode twin."""
    twins = set(twin_names(workload))
    refs: Dict[str, dict] = {}
    for doc in timed:
        for key, got in doc["scenarios"].items():
            name = key.split(":", 1)[-1]
            if name not in twins and name not in refs and "error" not in got:
                refs[name] = got
    return refs


def recorded_references(workload: str, seed: int) -> Optional[dict]:
    """The digests recorded at the default seed, if complete."""
    if seed != DEFAULT_SEED or not REFERENCES.exists():
        return None
    recorded = json.loads(REFERENCES.read_text()).get(workload, {})
    return recorded if set(recorded) == set(names(workload)) else None


def check(doc: dict, refs: Dict[str, dict], tally: dict) -> None:
    """Count each scenario result of a pass against its reference."""
    for key, got in doc["scenarios"].items():
        name = key.split(":", 1)[-1]
        tally["attempted"] += 1
        if "error" in got:
            tally["failed"] += 1
            tally["problems"].append(f"{key}: {got['error']}")
        elif name not in refs:
            tally["failed"] += 1
            tally["problems"].append(f"{key}: no reference result")
        elif got["digest"] != refs[name]["digest"]:
            tally["failed"] += 1
            tally["problems"].append(
                f"{key}: digest {got['digest'][:16]} != reference "
                f"{refs[name]['digest'][:16]}")


def median(values) -> float:
    return statistics.median(values)


def end_to_end(docs: List[dict]) -> Dict[str, float]:
    """The end-to-end metrics of a run: each is the median over the
    run's passes, which a single pass slowed or sped up by the host's
    other tenants cannot move."""
    return {
        "wall_s": median(d["wall_s"] for d in docs),
        "cpu_s": median(d["cpu_s"] for d in docs),
        "setup_s": median(d["import_s"] + d["setup_s"] for d in docs),
        "sim_events_per_s": median(d["events"] / d["sim_s"] for d in docs),
        "peak_rss_mb": median(d["peak_rss_mb"] for d in docs),
    }


def fluid_counters(doc: dict) -> Dict[str, float]:
    collapsed = flows = 0
    gates: Dict[str, int] = {}
    for got in doc["scenarios"].values():
        fluid = got.get("fluid") or {}
        collapsed += fluid.get("collapsed_events", 0)
        flows += fluid.get("flows", 0)
        for gate, count in (fluid.get("rejections") or {}).items():
            gates[gate] = gates.get(gate, 0) + count
    out = {
        "sim.events": doc["events"],
        "sim.events_collapsed": collapsed,
        "sim.collapsed_fraction": (collapsed / doc["events"]
                                   if doc["events"] else 0.0),
        "sim.fluid.flows": flows,
        "sim.fluid.rejected": sum(gates.values()),
    }
    for gate in NAMED_GATES:
        out[f"sim.fluid.rejected.{gate}"] = gates.get(gate, 0)
    out["sim.fluid.rejected.other"] = sum(
        count for gate, count in gates.items() if gate not in NAMED_GATES)
    return out


def per_layer(timed: List[dict], traced: dict,
              process: Optional[dict]) -> Dict[str, float]:
    roll = traced["rollup"]
    out: Dict[str, float] = {}
    for layer in roll["layers"]:
        out[f"{layer}.self_s"] = roll["self_s"][layer]
        out[f"{layer}.calls"] = roll["calls"][layer]
    out["sweep.wait_s"] = roll["wait_s"]["sweep"]
    out["calls_per_event"] = (roll["repro_calls"] / traced["events"]
                              if traced["events"] else 0.0)
    out["trace.layer_share"] = roll["layer_share"]
    out["trace.unattributed_s"] = roll["unattributed_s"]
    out["trace.overhead"] = traced["wall_s"] / median(d["wall_s"]
                                                      for d in timed)
    out["core.setup_s"] = median(d["core_setup_s"] for d in timed)
    out["audit.final_s"] = traced["spans"].get("audit.check", 0.0)
    out.update(fluid_counters(traced))
    scen = traced["scenarios"].values()
    out["cluster.sync_windows"] = sum(s.get("sync_windows", 0) for s in scen)
    out["net.fabric.frames_offered"] = sum(s.get("frames_offered", 0)
                                           for s in scen)
    out["cluster.process_wall_s"] = process["wall_s"] if process else 0.0
    out["cluster.process_cpu_s"] = process["cpu_s"] if process else 0.0
    sweeps = [d["sweep"] for d in timed if "sweep" in d]
    out["sweep.cache_get_s"] = traced["spans"].get("sweep.cache_get", 0.0)
    out["sweep.cache_put_s"] = traced["spans"].get("sweep.cache_put", 0.0)
    out["sweep.cache_hit_rate"] = (median(s["warm_hit_rate"] for s in sweeps)
                                   if sweeps else 0.0)
    out["sweep.task_s"] = (median(s["task_s"] for s in sweeps)
                           if sweeps else 0.0)
    out["sweep.critical_path_s"] = (
        median(s["critical_path_s"] for s in sweeps) if sweeps else 0.0)
    out["sweep.retries"] = sum(s["retries"] for s in sweeps)
    return out


UNITS = {"self_s": "s", "calls": "count", "_s": "s", "_fraction": "ratio",
         "_rate": "ratio", "overhead": "ratio", "share": "ratio",
         "per_event": "calls/event"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def describe(workload: str, refs: Dict[str, dict], timed: List[dict],
             e2e: Dict[str, float], tally: dict) -> None:
    """Human-readable lines: the simulated anchors and every metric."""
    print(f"workload {workload}: {len(timed)} timed passes; model accuracy "
          f"is EXPERIMENTS.md's business, this benchmark claims no error "
          f"figure of its own")
    for name, ref in refs.items():
        print(f"  anchor {name}: {ref['gbps']:.4f} Gbps, cpu "
              f"{ref['cpu_pct']:.2f} %, exits {ref['exits']}, "
              f"digest {ref['digest'][:16]}")
    for doc in timed:
        print(f"  pass: wall {doc['wall_s']:.4f} s, cpu {doc['cpu_s']:.4f} s, "
              f"events {doc['events']}")
    last = timed[-1]
    for name, got in last["scenarios"].items():
        fluid = got.get("fluid")
        if fluid:
            events = got["events"] or 0
            share = fluid["collapsed_events"] / events if events else 0.0
            print(f"  fluid {name}: collapsed_fraction {share:.4f}, "
                  f"flows {fluid['flows']}, rejected "
                  f"{fluid.get('rejections') or {}}")
    for metric, value in e2e.items():
        print(f"  {metric} = {value:.6g} {END_TO_END[metric]}")
    attempted = max(tally["attempted"], 1)
    print(f"  failed_frac = {tally['failed'] / attempted:.6g} ratio "
          f"({tally['failed']} of {tally['attempted']} runs)")
    for problem in tally["problems"]:
        print(f"  FAILED {problem}")


def record_references(workdir: Path) -> int:
    """Rewrite reference_digests.json from default-seed exact runs."""
    deadline = time.monotonic() + 3600
    doc = {}
    for workload in WORKLOADS:
        makers = reference_makers(workload, DEFAULT_SEED, workdir,
                                  names(workload))
        doc[workload] = collect_references(
            run_passes(makers, REFERENCE_WIDTH, deadline))
    for refs in doc.values():
        for ref in refs.values():
            ref.pop("fluid", None)
            ref.pop("events", None)
    REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


def measure(args, workdir: Path) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    workload, seed = args.workload, args.seed
    recorded = recorded_references(workload, seed)
    pending = [] if recorded else reference_makers(
        workload, seed, workdir, twin_names(workload))
    ref_docs: List[dict] = []

    timed: List[dict] = []
    timed_s = 0.0
    while True:
        begin = time.monotonic()
        timed.append(run_pass(deadline, workdir, f"timed-{len(timed)}",
                              "timed", workload, seed))
        timed_s += time.monotonic() - begin
        # The untimed reference runs fill the gaps between timed passes,
        # which spreads the passes over more of the host's contention
        # phases at no extra cost.
        if pending:
            batch, pending = (pending[:REFERENCE_WIDTH],
                              pending[REFERENCE_WIDTH:])
            ref_docs += run_passes(batch, REFERENCE_WIDTH, deadline)
        if args.trace:
            # The per-layer metrics come from the traced pass.  One timed
            # pass is the base of trace.overhead, and the run's time goes
            # to the traced pass (cProfile costs 3-6x) and the
            # process-per-host pass (about 2.5 plain passes).
            break
        typical = timed_s / len(timed)
        # Keep back time for the references still to run.
        reserve = REFERENCE_BATCH_S * len(pending) / REFERENCE_WIDTH
        if time.monotonic() + typical + reserve > deadline:
            break
        if len(timed) >= MIN_PASSES and timed_s + typical > args.seconds:
            break
    ref_docs += run_passes(pending, REFERENCE_WIDTH, deadline)
    refs = recorded or dict(own_references(timed, workload),
                            **collect_references(ref_docs))
    tally = {"attempted": 0, "failed": 0, "problems": []}
    for doc in timed:
        check(doc, refs, tally)

    e2e = end_to_end(timed)
    metrics: Dict[str, float]
    if args.trace:
        spans = OUT_DIR / f"spans-{workload}.jsonl"
        traced = run_pass(deadline, workdir, "traced", "traced", workload,
                          seed, ["--spans", str(spans)])
        check(traced, refs, tally)
        process = None
        if cluster_names(workload):
            process = run_pass(deadline, workdir, "process",
                               "process_hosts", workload, seed)
            check(process, refs, tally)
        metrics = per_layer(timed, traced, process)
    else:
        metrics = e2e
    describe(workload, refs, timed, e2e, tally)
    if args.trace:
        for metric, value in metrics.items():
            print(f"  {metric} = {value:.6g} {unit_of(metric)}")
    correct = tally["failed"] == 0
    units = END_TO_END if not args.trace else {m: unit_of(m)
                                               for m in metrics}
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the SR-IOV testbed simulator.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite reference_digests.json at the "
                             "default seed and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if not args.record_references and args.workload is None:
        parser.error("--workload is required")
    OUT_DIR.mkdir(exist_ok=True)
    # A terminated harness still kills and reaps its passes (finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = BENCH_DIR / "tmp" / str(os.getpid())
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)
    try:
        if args.record_references:
            return record_references(workdir)
        return measure(args, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (BENCH_DIR / "tmp").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
