"""Layer instrumentation attached from outside the program.

Three sources, none of which edits code under ``src/``:

1. :class:`LayerProfiler`, an ``EngineProfiler`` installed through the
   public ``Simulator.set_profiler``.  It times every event callback,
   keyed by ``repro.<layer>``, and additionally files each
   ``PeriodicProcess`` firing under the layer of the callback it wraps
   (mobility ticks, HELLO beacons and load sampling all dispatch through
   the same ``PeriodicProcess._fire``).
2. :func:`instrument`, which wraps public call boundaries *on the
   instances* of one built network: ``Channel.transmit``,
   ``Channel.move_many`` (``set_position`` delegates to it),
   ``CsmaMac.send`` and ``RoutingProtocol.on_packet``.  Callers reach all
   four through attribute lookup at call time, so an instance attribute
   intercepts every call; :func:`coverage_errors` proves it against the
   program's own counters.  Engine-dispatched callbacks are never
   replaced: the batched drain loop finds batch handlers by function
   identity, so wrapping ``Timer._fire`` or a radio rx method would drop
   the batched path and measure a different program.
3. The program's own ``ScenarioResult.metrics_snapshot`` counters.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.experiments.runner import ScenarioResult, collect_result
from repro.experiments.scenario import Network, build_network
from repro.obs.profiler import EngineProfiler
from repro.sim.process import PeriodicProcess

_PERIODIC_FIRE = PeriodicProcess._fire

#: Host seconds between calibration samples inside a sliced run.
CALIB_EVERY_S = 1.0


def calibrate() -> float:
    """Seconds for a fixed pure-Python plus numpy loop (host speed probe).

    The loop never changes with the program, so its time tracks only how
    fast the host runs at that moment.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    a = np.arange(100_000, dtype=float)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - t0


def layer_of(fn) -> str:
    """``repro.<layer>`` package a callable lives in (``?`` outside repro)."""
    parts = (getattr(fn, "__module__", "") or "").split(".")
    return parts[1] if len(parts) >= 2 and parts[0] == "repro" else "?"


class LayerProfiler(EngineProfiler):
    """Engine profiler with periodic-process attribution and batch sizes."""

    def __init__(self) -> None:
        super().__init__(sample_every=1)
        #: layer → [firings, seconds] of PeriodicProcess callbacks.
        self.periodic_by_layer: dict[str, list[float]] = {}
        #: Logical events and dispatches of batches covering ≥ 2 events.
        self.coalesced_events = 0
        self.coalesced_batches = 0

    def record(self, fn, dt: float) -> None:
        super().record(fn, dt)
        if getattr(fn, "__func__", None) is _PERIODIC_FIRE:
            # Read-only peek at the wrapped callback; nothing is replaced.
            cell = self.periodic_by_layer.setdefault(
                layer_of(fn.__self__._fn), [0, 0.0]
            )
            cell[0] += 1
            cell[1] += dt

    def record_batch(self, fn, dt: float, n: int) -> None:
        super().record_batch(fn, dt, n)
        if n > 1:
            self.coalesced_events += n
            self.coalesced_batches += 1


@dataclass
class Tally:
    """Calls, inclusive seconds and items seen at one wrapped boundary."""

    calls: int = 0
    seconds: float = 0.0
    items: int = 0


def _wrap(obj, name: str, tally: Tally, count_items: bool = False) -> None:
    inner = getattr(obj, name)

    if count_items:
        def wrapper(updates):
            t0 = perf_counter()
            inner(updates)
            tally.seconds += perf_counter() - t0
            tally.calls += 1
            tally.items += len(updates)
    else:
        def wrapper(*args):
            t0 = perf_counter()
            out = inner(*args)
            tally.seconds += perf_counter() - t0
            tally.calls += 1
            return out

    setattr(obj, name, wrapper)


@dataclass
class Boundaries:
    """Tallies of every wrapped boundary of one network."""

    transmit: Tally = field(default_factory=Tally)
    move: Tally = field(default_factory=Tally)
    mac_send: Tally = field(default_factory=Tally)
    on_packet: Tally = field(default_factory=Tally)


def instrument(net: Network) -> Boundaries:
    """Wrap ``net``'s public call boundaries; call before ``net.start()``."""
    b = Boundaries()
    if net.channel is not None:
        _wrap(net.channel, "transmit", b.transmit)
        _wrap(net.channel, "move_many", b.move, count_items=True)
    for stack in net.stacks:
        _wrap(stack.mac, "send", b.mac_send)
        _wrap(stack.routing, "on_packet", b.on_packet)
    return b


def coverage_errors(
    net: Network, b: Boundaries, profiler: LayerProfiler
) -> list[str]:
    """Mismatches between wrapper counts and the program's own counters.

    A mismatch means a caller bypassed a wrapper (e.g. through a bound
    method captured at build time), so the per-layer times would be short.
    """
    snap = net.metrics.metrics_json()
    pairs = [
        ("Channel.transmit calls", b.transmit.calls,
         'repro_phy_frames_total{kind="sent"}',
         snap.get('repro_phy_frames_total{kind="sent"}', 0)),
        ("CsmaMac.send calls", b.mac_send.calls,
         "queue enqueued + dropped",
         sum(s.mac.queue.enqueued + s.mac.queue.dropped for s in net.stacks)),
        ("RoutingProtocol.on_packet calls", b.on_packet.calls,
         "CsmaMac.data_rx",
         sum(s.mac.data_rx for s in net.stacks)),
        ("profiled events", profiler.events,
         "repro_sim_events_executed_total",
         snap.get("repro_sim_events_executed_total", 0)),
        ("Channel.move_many calls", b.move.calls,
         "topology PeriodicProcess firings",
         profiler.periodic_by_layer.get("topology", [0])[0]),
    ]
    return [
        f"{what}={got} but {ref}={want}"
        for what, got, ref, want in pairs
        if got != want
    ]


def fingerprint(result: ScenarioResult) -> str:
    """Digest of a run's simulated outcome: events, counters, pdr, delay.

    Host-time fields (``wallclock_s``) are excluded, so two runs of one
    config agree exactly whenever they simulated the same thing.
    """
    blob = json.dumps(
        {
            "events": result.events_executed,
            "snapshot": result.metrics_snapshot,
            "pdr": result.pdr,
            "mean_delay_s": None
            if math.isnan(result.mean_delay_s) else result.mean_delay_s,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class RunRecord:
    """One scenario repetition as the harness saw it."""

    result: ScenarioResult
    #: Raw end-to-end delays of every in-window delivery (seconds).
    delays: list[float]
    wall_s: float
    build_s: float
    start_s: float
    run_s: float
    collect_s: float
    slice_ms: list[float]
    #: Application packets the traffic sources handed to their stacks.
    packets_sent: int = 0
    boundaries: Boundaries | None = None
    coverage: list[str] = field(default_factory=list)


def run_sliced(
    config,
    slice_s: float,
    profiler: LayerProfiler | None = None,
    calib: list[float] | None = None,
) -> RunRecord:
    """Build, start, advance in fixed simulated slices, stop and collect.

    The same steps as ``run_scenario`` with ``sim.run`` split into
    ``until=`` slices, each timed on the host; ``slice_ms`` keeps the
    slices after the config's warm-up, as the model metrics do.  With a
    ``profiler`` the
    network is also instrumented and the wrapper coverage checked.  With
    ``calib``, a :func:`calibrate` sample is appended between slices every
    ``CALIB_EVERY_S`` host seconds; that time is left out of the run's.
    """
    t0 = perf_counter()
    net = build_network(config)
    t1 = perf_counter()
    boundaries = None
    if profiler is not None:
        net.sim.set_profiler(profiler)
        boundaries = instrument(net)
    t2 = perf_counter()
    net.start()
    t3 = perf_counter()
    sim = net.sim
    end = config.sim_time_s
    n_slices = max(1, round(end / slice_s))
    slices = []
    paused = 0.0
    next_calib = t3 + CALIB_EVERY_S
    for k in range(1, n_slices + 1):
        until = end if k == n_slices else k * slice_s
        s0 = perf_counter()
        sim.run(until=until)
        s1 = perf_counter()
        if (k - 1) * slice_s >= config.warmup_s - 1e-9:
            slices.append((s1 - s0) * 1e3)
        if calib is not None and s1 >= next_calib:
            calib.append(calibrate())
            next_calib = perf_counter()
            paused += next_calib - s1
            next_calib += CALIB_EVERY_S
    t4 = perf_counter()
    net.stop()
    t5 = perf_counter()
    result = collect_result(net, wallclock_s=t5 - t0 - paused)
    t6 = perf_counter()
    record = RunRecord(
        result=result,
        delays=[d for r in net.collector.flows.values() for d in r.delays],
        wall_s=t6 - t0 - paused,
        build_s=t1 - t0,
        start_s=t3 - t2,
        run_s=t4 - t3 - paused,
        collect_s=t6 - t5,
        slice_ms=slices,
        packets_sent=sum(s.packets_sent for s in net.stacks),
        boundaries=boundaries,
    )
    if profiler is not None:
        record.coverage = coverage_errors(net, boundaries, profiler)
    return record
