"""The campaign subsystem: declarative sweeps, a process pool, and a
content-addressed result cache.

* :mod:`repro.sweep.spec` — :class:`SweepSpec`: grid/list expansion of
  a declarative sweep document into :class:`~repro.api.Scenario` lists.
* :mod:`repro.sweep.cache` — :class:`ResultCache`: results keyed by a
  stable hash of (scenario, cost model, schema version); warm reruns
  simulate nothing.
* :mod:`repro.sweep.jobs` — content-addressed jobs and the picklable
  pool worker.
* :mod:`repro.sweep.runner` — :func:`run_sweep`: the cache-aware,
  pool-parallel engine with a byte-identical determinism contract.
* :mod:`repro.sweep.supervise` — :func:`run_supervised`: watchdog
  timeouts, bounded crash retries, and worker-pool respawn under the
  engine.
* :mod:`repro.sweep.checkpoint` — :class:`CampaignCheckpoint`: the
  atomic progress record behind ``repro sweep --resume``.
* :mod:`repro.sweep.figures` — every paper figure (Figs. 6-21) as a
  registered campaign; backs both ``repro figures`` and the
  pytest-benchmark suite.
"""

from repro.sweep.cache import (
    ResultCache,
    canonical_json,
    costs_to_dict,
    default_cache_dir,
    job_key,
)
from repro.sweep.figures import (
    FIGURES,
    figure_artifact,
    generate_figures,
    resolve_names,
    run_figure,
)
from repro.sweep.checkpoint import (CHECKPOINT_SCHEMA, CampaignCheckpoint,
                                    CheckpointError)
from repro.sweep.jobs import Job, build_jobs, execute_payload
from repro.sweep.runner import Outcome, SweepStats, run_sweep
from repro.sweep.spec import SweepSpec
from repro.sweep.supervise import (SuperviseConfig, SuperviseStats,
                                   TaskOutcome, run_supervised)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CampaignCheckpoint",
    "CheckpointError",
    "FIGURES",
    "Job",
    "Outcome",
    "ResultCache",
    "SuperviseConfig",
    "SuperviseStats",
    "SweepSpec",
    "SweepStats",
    "TaskOutcome",
    "build_jobs",
    "canonical_json",
    "costs_to_dict",
    "default_cache_dir",
    "execute_payload",
    "figure_artifact",
    "generate_figures",
    "job_key",
    "resolve_names",
    "run_figure",
    "run_sweep",
    "run_supervised",
]
