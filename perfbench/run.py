"""The repo benchmark: one command, three workloads, correctness-gated.

Run from the root of a checkout::

    python3 perfbench/run.py --workload backbone --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs a separate traced pass and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``; the last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Every invocation also runs the correctness gate: the
simulated fingerprint (events executed, ``metrics_snapshot`` counters,
pdr, delay) must agree between the untraced and the traced run of a
config, repeats of a config, and, on a short copy of a config, a sliced
run, a single ``run_scenario`` call and the ``batched_kernel=False``
scalar oracle; campaign cells must equal a serial in-process run of the
same configs.  A mismatch fails the repetition, and any failure makes the
command exit 1.

See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
#: ``host.calib_s`` of the reference host.  End-to-end host times are
#: reported at that speed: raw × HOST_REF_CALIB_S / (the run's median
#: calibration), so a host slowing down or speeding up between runs does
#: not read as a change in the program.
HOST_REF_CALIB_S = 0.015
#: Scenario configs run (untraced, then traced) under ``--trace 1``.
TRACED_CONFIGS = 2


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else math.nan


def setup_probes(
    root: Path, kind: str, configs, workers: int, work_dir: Path, calib: list
) -> list[dict]:
    """Time import + build + start in ``SETUP_PROBES`` fresh interpreters.

    Host-speed samples taken beside the probes are appended to ``calib``.
    """
    from probe import calibrate
    from repro.experiments.serialization import config_to_dict

    spec = json.dumps(
        {
            "src": str(root / "src"),
            "kind": kind,
            "configs": [config_to_dict(c) for c in configs],
            "workers": workers,
            "work_dir": str(work_dir / "setup-cells"),
        }
    )
    out = []
    for _ in range(SETUP_PROBES):
        calib.extend(calibrate() for _ in range(3))
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=spec,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    shutil.rmtree(work_dir / "setup-cells", ignore_errors=True)
    return out


def model_metrics(records) -> dict[str, float]:
    """pdr, delay percentiles and NRL pooled over ``records``."""
    sent = sum(r.result.packets_sent for r in records)
    received = sum(r.result.packets_received for r in records)
    delays = [d for r in records for d in r.delays]
    control = sum(r.result.totals["control_packets"] for r in records)
    data = sum(
        r.result.totals["data_forwarded"] + r.result.totals["data_originated"]
        for r in records
    )
    return {
        "pdr": received / sent if sent else 0.0,
        "delay_ms_p50": percentile(delays, 50) * 1e3,
        "delay_ms_p95": percentile(delays, 95) * 1e3,
        "nrl": control / data if data else 0.0,
    }


class Gate:
    """Collects correctness failures; every one fails the run."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.errors.append(f"{what}: fingerprint mismatch")

    def extend(self, what: str, errors: list[str]) -> None:
        self.errors.extend(f"{what}: {e}" for e in errors)


def gate_short_run(gate: Gate, config, short_s: float, slice_s: float) -> int:
    """Sliced run, single ``run_scenario`` call and the scalar oracle agree.

    Runs a copy of ``config`` cut to ``short_s`` simulated seconds three
    ways: advanced in slices, through one ``run_scenario`` call, and with
    ``batched_kernel=False`` (the scalar reference the batched kernel must
    reproduce).  Returns the number of runs made.
    """
    from probe import fingerprint, run_sliced
    from repro.experiments.runner import run_scenario

    if short_s < config.sim_time_s:
        config = replace(
            config, sim_time_s=short_s, warmup_s=min(config.warmup_s, short_s / 2)
        )
    single = fingerprint(run_scenario(config))
    gate.equal(
        f"sliced vs single run_scenario call ({config.sim_time_s:g} s)",
        fingerprint(run_sliced(config, slice_s).result),
        single,
    )
    gate.equal(
        f"batched_kernel=False scalar oracle vs batched ({config.sim_time_s:g} s)",
        fingerprint(run_scenario(replace(config, batched_kernel=False))),
        single,
    )
    return 3


def traced_runs(gate: Gate, configs, slice_s: float, fingerprints, label: str):
    """Traced run of each config; it must match its untraced fingerprint."""
    from probe import LayerProfiler, fingerprint, run_sliced

    out = []
    for k, (config, want) in enumerate(zip(configs, fingerprints)):
        prof = LayerProfiler()
        rec = run_sliced(config, slice_s, profiler=prof)
        gate.equal(f"{label} {k} traced vs untraced", fingerprint(rec.result), want)
        gate.extend(f"{label} {k} wrapper coverage", rec.coverage)
        out.append((rec, prof))
    return out


def setup_metrics(probes, calib: list[float]) -> dict[str, float]:
    """``setup_s`` at reference host speed, scaled by the calibration
    samples taken beside the probes, and its raw parts; medians over the
    probes."""
    def med(key: str) -> float:
        return statistics.median(p[key] for p in probes)

    return {
        "setup_s": HOST_REF_CALIB_S / statistics.median(calib) * statistics.median(
            p["import_s"] + p["build_s"] + p["start_s"] for p in probes
        ),
        "experiments.import_s": med("import_s"),
        "experiments.build_s": med("build_s"),
        "experiments.start_s": med("start_s"),
    }


def run_scenario_workload(root, wl, seconds, trace, work_dir):
    from layers import EXEC_METRICS, simulation_layers
    from probe import calibrate, fingerprint, run_sliced

    gate = Gate()
    # Untraced: passes over every config until the time budget is spent.
    # Traced: one untraced and one traced pass over the first few configs,
    # a fixed amount of work so per-layer counts repeat exactly per seed.
    configs = wl.configs[:TRACED_CONFIGS] if trace else wl.configs
    passes, calib = [], []
    t_start = perf_counter()
    while not passes or (not trace and perf_counter() - t_start < seconds):
        records = []
        for k, config in enumerate(configs):
            calib.append(calibrate())
            rec = run_sliced(config, wl.slice_s, calib=calib)
            if passes:
                gate.equal(
                    f"config {k} pass {len(passes)} vs its first run",
                    fingerprint(rec.result),
                    fingerprint(passes[0][k].result),
                )
            records.append(rec)
        passes.append(records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = passes[0]
    log(f"{len(passes)} untraced pass(es) in {perf_counter() - t_start:.1f} s")

    traced = traced_runs(
        gate, configs, wl.slice_s, [fingerprint(r.result) for r in first], "config"
    ) if trace else []
    t_gate = perf_counter()
    gate_runs = gate_short_run(gate, wl.configs[0], wl.gate_s, wl.slice_s)
    t_probes = perf_counter()
    setup_calib = []
    probes = setup_probes(root, "scenario", wl.configs[:1], 1, work_dir, setup_calib)
    log(f"gate runs {t_probes - t_gate:.1f} s, set-up probes "
        f"{perf_counter() - t_probes:.1f} s")

    attempted = sum(len(p) for p in passes) + len(traced) + gate_runs
    untraced = [r for p in passes for r in p]
    slices = [s for r in untraced for s in r.slice_ms]
    speed = HOST_REF_CALIB_S / statistics.median(calib)
    metrics = {
        # Mean over a pass, so every config weighs the same; median over
        # passes.
        "wall_s": speed * statistics.median(
            statistics.fmean(r.wall_s for r in p) for p in passes
        ),
        "slice_ms_p50": speed * percentile(slices, 50),
        "slice_ms_p95": speed * percentile(slices, 95),
        "peak_rss_mb": peak_rss_mb,
        **model_metrics(first),
        **setup_metrics(probes, setup_calib),
        "experiments.collect_s": statistics.median(r.collect_s for r in untraced),
        **{name: 0.0 for name in EXEC_METRICS},
        "host.calib_s": statistics.median(calib),
    }
    if trace:
        metrics.update(simulation_layers(traced, first))
        metrics["bench.trace_overhead"] = sum(r.wall_s for r, _ in traced) / sum(
            r.wall_s for r in first
        )
    return gate, attempted, metrics


def run_campaign_workload(root, wl, seconds, trace, work_dir):
    from campaign import run_wave
    from layers import simulation_layers
    from probe import calibrate, fingerprint, run_sliced

    gate = Gate()
    workers = min(2, len(os.sched_getaffinity(0)))
    waves, calib = [], []
    t_start = perf_counter()
    # Traced: a fixed two waves, so exec counts repeat exactly per seed.
    while (len(waves) < 2) if trace else (
        not waves or perf_counter() - t_start < seconds
    ):
        # Sampled between waves only: during one the workers hold both CPUs.
        calib.extend(calibrate() for _ in range(3))
        waves.append(run_wave(wl.configs, workers, work_dir, traced=bool(trace)))
    # Pool workers are joined at the end of each wave, so RUSAGE_CHILDREN
    # already holds their peak; set-up probes run later and cannot mix in.
    peak_rss_mb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024

    # Two serial in-process passes: the reference the executor's cells must
    # equal, and a repeat that must equal it; both are the sliced runs
    # behind the campaign's slice metrics.  A host speed sample precedes
    # every cell, and the slices are scaled by these samples alone: host
    # speed drifts by 20-40% between passes, and a cell runs for well under
    # a second, too short for ``run_sliced`` to sample.
    serial_calib = []
    passes = []
    for _ in range(2):
        records = []
        for config in wl.configs:
            serial_calib.append(calibrate())
            records.append(run_sliced(config, wl.slice_s))
        passes.append(records)
    reference, repeat = passes
    ref_fp = [fingerprint(r.result) for r in reference]
    for c, rec in enumerate(repeat):
        gate.equal(f"cell {c} serial repeat", fingerprint(rec.result), ref_fp[c])
    for w, wave in enumerate(waves):
        for c, fp in enumerate(wave.fingerprints):
            if fp is None:
                gate.errors.append(f"wave {w} cell {c}: failed in the executor")
            else:
                gate.equal(f"wave {w} cell {c} vs serial in-process run", fp, ref_fp[c])
    traced = traced_runs(gate, wl.configs, wl.slice_s, ref_fp, "cell") if trace else []
    gate_runs = gate_short_run(gate, wl.configs[-1], wl.gate_s, wl.slice_s)
    setup_calib = []
    probes = setup_probes(root, "campaign", wl.configs, workers, work_dir, setup_calib)

    attempted = len(waves) * len(wl.configs) + len(repeat) + len(traced) + gate_runs
    slices = [s for r in reference + repeat for s in r.slice_ms]
    speed = HOST_REF_CALIB_S / statistics.median(calib)
    slice_speed = HOST_REF_CALIB_S / statistics.median(serial_calib)
    metrics = {
        "wall_s": speed * statistics.median(w.wall_s for w in waves),
        "slice_ms_p50": slice_speed * percentile(slices, 50),
        "slice_ms_p95": slice_speed * percentile(slices, 95),
        "peak_rss_mb": peak_rss_mb,
        **model_metrics(reference),
        # The probes time import, campaign build and executor bring-up;
        # per layer, build/start/collect are the cells' own, per cell.
        **setup_metrics(probes, setup_calib),
        "experiments.build_s": statistics.median(r.build_s for r in reference),
        "experiments.start_s": statistics.median(r.start_s for r in reference),
        "experiments.collect_s": statistics.median(r.collect_s for r in reference),
        "host.calib_s": statistics.median(calib + serial_calib),
    }
    if trace:
        outcomes = [o for w in waves for o in w.reporter.outcomes]
        cell_s = [o.duration_s for o in outcomes]
        metrics.update(simulation_layers(traced, reference))
        metrics.update({
            "exec.cells": float(len(outcomes)),
            "exec.cells_failed": float(sum(not o.ok for o in outcomes)),
            "exec.retries": float(sum(max(0, o.attempts - 1) for o in outcomes)),
            "exec.cell_s_sum": sum(cell_s),
            "exec.cell_s_p50": percentile(cell_s, 50),
            "exec.cell_s_p95": percentile(cell_s, 95),
            "exec.utilisation": sum(cell_s) / (sum(w.wall_s for w in waves) * workers),
            "exec.overhead_s": statistics.median(
                w.wall_s - sum(o.duration_s for o in w.reporter.outcomes) / workers
                for w in waves
            ),
            "exec.checkpoint_writes": float(sum(w.store.writes for w in waves)),
            "exec.checkpoint_write_s": sum(w.store.write_s for w in waves),
            "exec.campaign_build_s": statistics.median(w.build_s for w in waves),
            "bench.trace_overhead": sum(r.wall_s for r, _ in traced)
            / sum(r.wall_s for r in reference),
        })
    return gate, attempted, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink simulated time and config count (smoke tests only)",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        log(f"no program source at {src}/repro")
        return 2
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        log(f"{spec_path} missing")
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro
    from workloads import WORKLOADS, make_workload

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        log(f"imported repro from {repro.__file__}, not {src}")
        return 2
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}")
        return 2

    work_dir = root / ".bench_work"
    work_dir.mkdir(exist_ok=True)
    try:
        wl = make_workload(args.workload, args.seed, args.scale)
        runner = (
            run_campaign_workload if args.workload == "campaign"
            else run_scenario_workload
        )
        gate, attempted, metrics = runner(
            root, wl, args.seconds, args.trace, work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # Each gate error is one repetition, cell or check that failed.
    failed = min(attempted, len(gate.errors))
    metrics["failed_ratio"] = failed / attempted
    for line in gate.errors:
        log(f"correctness: {line}")
    missing = sorted(set(units) - set(metrics))
    bad = sorted(n for n in units if n in metrics and not math.isfinite(metrics[n]))
    if missing or bad:
        log(f"metric set broken: missing={missing} non-finite={bad}")
        return 2
    correct = not gate.errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report, print no result, fail
        traceback.print_exc()
        sys.exit(2)
