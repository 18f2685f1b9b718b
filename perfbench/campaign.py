"""The ``campaign`` workload: waves of cells through ``repro.exec``.

Every wave builds a fresh :class:`~repro.exec.Campaign` and runs it with
the default backend for ``workers`` processes, checkpointing into a fresh
temporary ``REPRO_CACHE_DIR``.  A shared cache would turn later waves into
checkpoint reads and measure the disk, not the simulator.

Traced waves pass the executor a :class:`TimedStore` and a
:class:`CellReporter` through its public ``store=`` / ``reporter=``
parameters; nothing inside ``repro.exec`` is replaced.
"""

from __future__ import annotations

import io
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.exec import (
    Campaign,
    CampaignExecutor,
    CheckpointStore,
    ExecPolicy,
    ProgressReporter,
)

from probe import fingerprint


class TimedStore(CheckpointStore):
    """Checkpoint store counting and timing its writes."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.writes = 0
        self.write_s = 0.0

    def store(self, task_id, result_payload) -> None:
        t0 = perf_counter()
        super().store(task_id, result_payload)
        self.write_s += perf_counter() - t0
        self.writes += 1


class CellReporter(ProgressReporter):
    """Progress reporter keeping every finished cell's outcome."""

    def __init__(self) -> None:
        super().__init__(stream=io.StringIO())
        self.outcomes = []

    def task_finished(self, outcome) -> None:
        self.outcomes.append(outcome)
        super().task_finished(outcome)


@dataclass
class Wave:
    """One campaign wave as the harness saw it."""

    wall_s: float
    build_s: float
    fingerprints: list[str | None]
    failed: int
    store: TimedStore | None = None
    reporter: CellReporter | None = None


def run_wave(configs, workers: int, work_dir: Path, traced: bool) -> Wave:
    """Run ``configs`` as one campaign in a fresh cache directory."""
    wave_dir = Path(tempfile.mkdtemp(prefix="wave-", dir=work_dir))
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(wave_dir)
    try:
        t0 = perf_counter()
        campaign = Campaign.from_configs("perfbench-campaign", configs)
        t1 = perf_counter()
        cells = wave_dir / "cells"
        store = TimedStore(cells) if traced else CheckpointStore(cells)
        reporter = CellReporter() if traced else None
        result = CampaignExecutor(
            policy=ExecPolicy(workers=workers), store=store, reporter=reporter
        ).run(campaign)
        t2 = perf_counter()
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
        shutil.rmtree(wave_dir, ignore_errors=True)
    return Wave(
        wall_s=t2 - t0,
        build_s=t1 - t0,
        fingerprints=[
            fingerprint(o.result) if o.ok else None for o in result.outcomes
        ],
        failed=result.failed,
        store=store if traced else None,
        reporter=reporter,
    )
