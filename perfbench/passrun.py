"""One pass of one workload, in a fresh process.

``run.py`` starts this script once per pass so that imports, set-up
and peak memory belong to that pass alone.  It writes one JSON document
to ``--out``; timings are host ``time.monotonic()`` instants, which
share one clock with the parent that passed its spawn instant in
``--spawn``.

Roles:

* ``timed`` — the workload with the O(1) timing hooks only;
* ``traced`` — the same with spans and a cProfile rollup;
* ``reference`` — the exact-mode twin of scenario ``--name``, untimed;
* ``process_hosts`` — the workload's cluster scenarios with one worker
  process per host (``parallel_hosts=True``).
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from probe import Probe
from workloads import (CAMPAIGN_JOBS, WORKLOADS, cluster_names,
                       reference_dict, scenario_dicts, shapes)


def digest(result) -> str:
    """sha256 of the result's canonical JSON.

    Cluster results carry two execution-shape counters that the
    program's own fluid == exact contract leaves out, and so does this
    digest: each host's ``events_executed`` (the work the fluid datapath
    exists to shrink) and the coordinator's ``sync_windows`` (collapsed
    flows widen the lockstep barriers).
    """
    from repro.sweep.cache import canonical_json
    doc = result.to_dict()
    cluster = doc.get("extras", {}).get("cluster", {})
    for host in cluster.get("hosts", {}).values():
        host.pop("events_executed", None)
    cluster.pop("sync_windows", None)
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def summary(result, events: Optional[int] = None) -> Dict[str, object]:
    """The result's digest plus its simulated anchors and counters."""
    cluster = result.extras.get("cluster", {})
    out: Dict[str, object] = {
        "digest": digest(result),
        "gbps": result.throughput_gbps,
        "cpu_pct": result.total_cpu_percent,
        "exits": sum(result.exit_counts.values()),
        "events": events,
        "fluid": result.fluid,
    }
    if cluster:
        out["sync_windows"] = cluster.get("sync_windows", 0)
        out["frames_offered"] = cluster.get("fabric", {}).get("offered", 0)
    return out


def _error(exc: BaseException) -> Dict[str, object]:
    return {"error": f"{type(exc).__name__}: {exc}"}


def simulate(scenarios: Dict[str, dict], probe: Probe,
             profile: Optional[cProfile.Profile]) -> Dict[str, object]:
    """Run the scenarios one after another in this process."""
    from repro.api import Scenario, run
    if probe.traced:
        run = probe.span("api.run", run)
    results = {}
    setup_s = core_setup_s = sim_s = 0.0
    events = 0
    first_begin = None
    if profile is not None:
        profile.enable()
    for name, data in scenarios.items():
        begin = time.monotonic()
        first_begin = first_begin or begin
        try:
            scenario = Scenario.from_dict(data)
            probe.arm()
            called = time.monotonic()
            result = run(scenario)
        except Exception as exc:  # a raise or an auditor trip: a failure
            result = exc
        end = time.monotonic()
        first = probe.first_run if probe.first_run is not None else end
        probe.disarm()
        if not isinstance(result, Exception):
            core_setup_s += first - called
        setup_s += first - begin
        sim_s += end - first
        results[name] = (result, probe.events())
        events += results[name][1]
    if profile is not None:
        profile.disable()
    scenarios = {name: (_error(result) if isinstance(result, Exception)
                        else summary(result, count))
                 for name, (result, count) in results.items()}
    return {"end": end, "first_begin": first_begin, "setup_s": setup_s,
            "core_setup_s": core_setup_s, "sim_s": sim_s,
            "events": events, "scenarios": scenarios}


def campaign(data: Dict[str, dict], probe: Probe, tmp: Path,
             profile: Optional[cProfile.Profile]) -> Dict[str, object]:
    """A cold then a warm supervised sweep over a fresh cache."""
    from repro.api import Scenario
    from repro.sweep import jobs as sweep_jobs
    from repro.sweep.cache import ResultCache
    from repro.sweep.runner import run_sweep
    tasks_dir = tmp / "tasks"
    tasks_dir.mkdir(parents=True, exist_ok=True)
    task_run = sweep_jobs.run
    traced = probe.traced
    counter = [0]

    def worker_run(scenario, **kwargs):
        # Runs inside a forked pool worker (the hook is inherited).
        probe.forked()
        counter[0] += 1
        stem = tasks_dir / f"{os.getpid()}-{counter[0]}"
        begin = time.monotonic()
        probe.arm()
        called = time.monotonic()
        worker_profile = cProfile.Profile() if traced else None
        if worker_profile is not None:
            worker_profile.enable()
        try:
            if traced:
                return probe.span("api.run", task_run)(scenario, **kwargs)
            return task_run(scenario, **kwargs)
        finally:
            if worker_profile is not None:
                worker_profile.disable()
            end = time.monotonic()
            probe.disarm()
            record = {"begin": begin, "called": called,
                      "first": probe.first_run,
                      "end": end, "events": probe.events()}
            stem.with_suffix(".json").write_text(json.dumps(record))
            if worker_profile is not None:
                worker_profile.dump_stats(str(stem.with_suffix(".pstats")))
                probe.drain_spans(str(stem.with_suffix(".spans")))

    sweep_jobs.run = worker_run
    sweep = probe.span("sweep.run_sweep", run_sweep) if traced else run_sweep
    first_begin = time.monotonic()
    if profile is not None:
        profile.enable()
    scenarios = [Scenario.from_dict(cell) for cell in data.values()]
    cache = ResultCache(tmp / "cache")
    cold, cold_stats = sweep(scenarios, jobs=CAMPAIGN_JOBS, cache=cache)
    warm, warm_stats = sweep(scenarios, jobs=CAMPAIGN_JOBS, cache=cache)
    if profile is not None:
        profile.disable()
    end = time.monotonic()

    records = [json.loads(path.read_text())
               for path in sorted(tasks_dir.glob("*.json"))]
    firsts = [r["first"] for r in records if r["first"] is not None]
    first = min(firsts) if firsts else end
    names = list(data)
    results = {}
    for label, outcomes in (("cold", cold), ("warm", warm)):
        for name, outcome in zip(names, outcomes):
            if outcome.result is None:
                error = outcome.task.error if outcome.task else "no result"
                results[f"{label}:{name}"] = {"error": error}
            else:
                results[f"{label}:{name}"] = summary(outcome.result)
    task_times = [r["end"] - r["begin"] for r in records]
    return {
        "end": end, "first_begin": first_begin,
        "setup_s": first - first_begin, "sim_s": end - first,
        "core_setup_s": sum(r["first"] - r["called"] for r in records
                            if r["first"] is not None),
        "events": sum(r["events"] for r in records),
        "scenarios": results,
        "sweep": {
            "task_s": sum(task_times),
            "critical_path_s": max(task_times, default=0.0),
            "retries": cold_stats.retried + warm_stats.retried,
            "warm_hit_rate": warm_stats.hit_rate,
        },
        "worker_profiles": sorted(str(p) for p in
                                  tasks_dir.glob("*.pstats")),
        "worker_spans": sorted(str(p) for p in tasks_dir.glob("*.spans")),
    }


def workload_pass(workload: str, seed: int, probe: Probe, tmp: Path,
                  profile: Optional[cProfile.Profile]) -> Dict[str, object]:
    """One pass: the serial part, then the sweep part, added up."""
    parts = []
    serial = scenario_dicts(workload, seed, "serial")
    if serial:
        parts.append(simulate(serial, probe, profile))
    cells = scenario_dicts(workload, seed, "sweep")
    if cells:
        parts.append(campaign(cells, probe, tmp, profile))
    doc = dict(parts[-1])
    doc["first_begin"] = parts[0]["first_begin"]
    doc["scenarios"] = {}
    for key in ("setup_s", "core_setup_s", "sim_s", "events"):
        doc[key] = sum(part[key] for part in parts)
    for part in parts:
        doc["scenarios"].update(part["scenarios"])
    return doc


def reference(name: str, workload: str, seed: int) -> Dict[str, object]:
    from repro.api import Scenario, run
    data = reference_dict(dict(shapes(workload)[name], seed=seed))
    try:
        result = run(Scenario.from_dict(data))
    except Exception as exc:
        return {"scenarios": {name: _error(exc)}}
    return {"scenarios": {name: summary(result)}}


def process_hosts(workload: str, seed: int) -> Dict[str, object]:
    from repro.api import Scenario, run
    out = {}
    for name in cluster_names(workload):
        data = dict(shapes(workload)[name], seed=seed)
        try:
            result = run(Scenario.from_dict(data), parallel_hosts=True)
        except Exception as exc:
            out[name] = _error(exc)
            continue
        out[name] = summary(result)
    return {"end": time.monotonic(), "scenarios": out}


def rollup(profile_paths: List[str], package_dir: str) -> Dict[str, object]:
    from rollup import LAYERS, Rollup
    stats = pstats.Stats(profile_paths[0])
    for path in profile_paths[1:]:
        stats.add(path)
    layers = Rollup(stats, package_dir)
    return {
        "self_s": layers.self_s, "wait_s": layers.wait_s,
        "calls": layers.calls, "repro_calls": layers.repro_calls,
        "unattributed_s": layers.unattributed_s,
        "total_s": layers.total_s, "layer_share": layers.layer_share,
        "layers": list(LAYERS),
    }


def span_totals(paths: List[str]) -> Dict[str, float]:
    """Total duration per span name."""
    totals: Dict[str, float] = {}
    for path in paths:
        with open(path) as fh:
            for line in fh:
                span = json.loads(line)
                if span["end"] is not None:
                    totals[span["name"]] = (totals.get(span["name"], 0.0)
                                            + span["end"] - span["start"])
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", required=True,
                        choices=("timed", "traced", "reference",
                                 "process_hosts"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawn", type=float, default=None)
    parser.add_argument("--name", default=None)
    parser.add_argument("--tmp", default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    spawn = args.spawn if args.spawn is not None else time.monotonic()

    import repro
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    if args.role == "reference":
        doc = reference(args.name, args.workload, args.seed)
    elif args.role == "process_hosts":
        doc = process_hosts(args.workload, args.seed)
    else:
        traced = args.role == "traced"
        probe = Probe(traced=traced)
        probe.install()
        profile = cProfile.Profile() if traced else None
        tmp = Path(args.tmp)
        doc = workload_pass(args.workload, args.seed, probe, tmp, profile)
        doc["import_s"] = doc["first_begin"] - spawn
        if traced:
            main_profile = str(tmp / "main.pstats")
            profile.dump_stats(main_profile)
            doc["rollup"] = rollup(
                [main_profile] + doc.pop("worker_profiles", []),
                package_dir)
            main_spans = str(tmp / "main.spans")
            probe.drain_spans(main_spans)
            span_files = [main_spans] + doc.pop("worker_spans", [])
            doc["spans"] = span_totals(span_files)
            if args.spans:
                with open(args.spans, "w") as out:
                    for path in span_files:
                        out.write(Path(path).read_text())
    doc["repro_file"] = repro.__file__
    if "end" in doc:
        doc["wall_s"] = doc["end"] - spawn
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
