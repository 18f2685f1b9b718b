"""Tests for the benchmark itself: metric spec, inputs, gate, smoke runs.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from probe import LayerProfiler, coverage_errors, fingerprint, instrument  # noqa: E402
from workloads import (  # noqa: E402
    CAMPAIGN_MEAN_HOPS,
    WORKLOADS,
    make_workload,
    mean_hops,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_records_why_for_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"].strip() and "\n" not in w["why"] and len(w["why"]) <= 200


def test_inputs_follow_the_seed():
    for name in ("backbone", "churn"):
        a = make_workload(name, 1, scale=0.3)
        assert a == make_workload(name, 1, scale=0.3)
        assert a.configs != make_workload(name, 2, scale=0.3).configs
    campaign = make_workload("campaign", 1)
    assert campaign == make_workload("campaign", 1)
    assert len(campaign.configs) == 32
    assert {c.protocol for c in campaign.configs} == {"aodv", "gossip", "counter", "nlr"}
    lo, hi = CAMPAIGN_MEAN_HOPS
    assert all(lo <= mean_hops(c) <= hi for c in campaign.configs)


def test_churn_crashes_only_static_relays():
    wl = make_workload("churn", 3, scale=0.3)
    from repro.experiments.scenario import build_network

    for config in wl.configs:
        net = build_network(replace(config, fault_spec=None))
        endpoints = {f.src for f in net.flows} | {f.dst for f in net.flows}
        victims = set(config.fault_spec["nodes"])
        assert victims and not victims & endpoints
        assert max(victims) < 70  # the 30 highest ids roam


def _short_run(config, wrap_after=None):
    """Run ``config`` traced; ``wrap_after(net)`` may undo a wrapper."""
    from repro.experiments.runner import collect_result
    from repro.experiments.scenario import build_network

    net = build_network(config)
    prof = LayerProfiler()
    net.sim.set_profiler(prof)
    bounds = instrument(net)
    if wrap_after is not None:
        wrap_after(net)
    net.start()
    net.sim.run(until=config.sim_time_s)
    net.stop()
    return net, bounds, prof, collect_result(net)


def test_wrapper_coverage_holds_and_catches_a_bypass():
    config = make_workload("churn", 5, scale=0.2).configs[0]
    net, bounds, prof, _ = _short_run(config)
    assert coverage_errors(net, bounds, prof) == []
    assert bounds.transmit.calls and bounds.mac_send.calls and bounds.move.calls

    # Callers that skip the wrapper (here: every MAC's send restored to the
    # class method) must be reported, not silently under-counted.
    def bypass(n):
        for stack in n.stacks:
            del stack.mac.send

    net, bounds, prof, _ = _short_run(config, wrap_after=bypass)
    errors = coverage_errors(net, bounds, prof)
    assert any("CsmaMac.send" in e for e in errors)


def test_instrumentation_does_not_change_the_simulation():
    from repro.experiments.runner import run_scenario

    config = make_workload("backbone", 4, scale=0.2).configs[0]
    *_, traced = _short_run(config)
    assert fingerprint(traced) == fingerprint(run_scenario(config))
    assert fingerprint(traced) != fingerprint(
        run_scenario(replace(config, seed=config.seed + 1))
    )


def _bench(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_and_passes_the_gate(workload, trace):
    proc = _bench(
        ROOT, "--workload", workload, "--seed", "2", "--seconds", "1",
        "--trace", str(trace), "--scale", "0.2",
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        values = {k: v["value"] for k, v in out["metrics"].items()}
        assert values["bench.trace_overhead"] > 0
        exec_active = values["exec.cells"] > 0
        assert exec_active == (workload == "campaign")
        # A fresh cache per wave: every cell is run and written, none read.
        assert values["exec.checkpoint_writes"] == values["exec.cells"]
        moving = values["phy.move_s"] > 0 and values["topology.mobility_s"] > 0
        assert moving == (workload == "churn")
        if workload == "backbone":
            assert values["sim.batched_share"] > 0.5
        if workload == "churn":
            assert values["sim.batched_share"] < 0.05


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(
        tmp_path, "--workload", "backbone", "--seed", "1", "--seconds", "1",
        "--trace", "0", timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
