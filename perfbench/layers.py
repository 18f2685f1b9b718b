"""Per-layer metrics from traced runs.

Counts and seconds are totals over the traced pass, so a count repeats
exactly for a given seed.  Seconds are inclusive host time: a wrapped
boundary's time contains whatever it calls, and an event callback's time
contains the layers it calls into.  ``perfbench/README.md`` maps every
metric to the end-to-end metric it should move and on which workload.
NLR's ``repro.core`` runs inside net callbacks and is folded into ``net``.
"""

from __future__ import annotations

from probe import LayerProfiler, RunRecord

RX_CALLBACKS = ("Radio.on_rx_start", "Radio.on_rx_end", "rx_start_block", "rx_end_block")
RX_START_CALLBACKS = ("Radio.on_rx_start", "rx_start_block")
NET_LAYERS = ("net", "core")

EXEC_METRICS = (
    "exec.cells", "exec.cells_failed", "exec.retries", "exec.cell_s_sum",
    "exec.cell_s_p50", "exec.cell_s_p95", "exec.utilisation",
    "exec.overhead_s", "exec.checkpoint_writes", "exec.checkpoint_write_s",
    "exec.campaign_build_s",
)


def _snap_sum(records: list[RunRecord], key: str) -> float:
    return sum(r.result.metrics_snapshot.get(key, 0.0) for r in records)


def _snap_prefix_sum(records: list[RunRecord], prefix: str) -> float:
    return sum(
        v
        for r in records
        for k, v in r.result.metrics_snapshot.items()
        if k.startswith(prefix)
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def simulation_layers(
    traced: list[tuple[RunRecord, LayerProfiler]],
    untraced: list[RunRecord],
) -> dict[str, float]:
    """sim / phy / mac / net / traffic / topology / faults metrics.

    ``untraced`` supplies the event rate (host time without the
    profiler's per-event cost); everything else comes from ``traced``.
    """
    records = [r for r, _ in traced]
    by_callback: dict[str, list[float]] = {}
    by_layer: dict[str, list[float]] = {}
    periodic: dict[str, list[float]] = {}
    callback_s = coalesced_events = coalesced_batches = 0.0
    for _, prof in traced:
        data = prof.as_dict()
        callback_s += data["total_time_s"]
        for row in data["callbacks"]:
            for table, key in ((by_callback, row["callback"]), (by_layer, row["layer"])):
                cell = table.setdefault(key, [0.0, 0.0])
                cell[0] += row["events"]
                cell[1] += row["time_s"]
        for layer, (n, t) in prof.periodic_by_layer.items():
            cell = periodic.setdefault(layer, [0.0, 0.0])
            cell[0] += n
            cell[1] += t
        coalesced_events += prof.coalesced_events
        coalesced_batches += prof.coalesced_batches

    def cb(name: str, i: int) -> float:
        return by_callback.get(name, [0.0, 0.0])[i]

    def layer(name: str, i: int) -> float:
        return by_layer.get(name, [0.0, 0.0])[i] + periodic.get(name, [0.0, 0.0])[i]

    events = sum(r.result.events_executed for r in records)
    frames_sent = _snap_sum(records, 'repro_phy_frames_total{kind="sent"}')
    rx_starts = sum(cb(n, 0) for n in RX_START_CALLBACKS)
    tx_data = _snap_sum(records, 'repro_mac_tx_total{kind="data"}')
    retries = _snap_sum(records, "repro_mac_retries_total")
    bounds = [r.boundaries for r in records]

    def control(kind: str) -> float:
        return _snap_sum(records, f'repro_net_control_tx_total{{kind="{kind}"}}')

    return {
        "sim.events": float(events),
        "sim.events_per_s": _ratio(
            sum(r.result.events_executed for r in untraced),
            sum(r.run_s for r in untraced),
        ),
        "sim.loop_s": sum(r.run_s for r in records) - callback_s,
        "sim.timer_s": cb("Timer._fire", 1),
        "sim.periodic_s": cb("PeriodicProcess._fire", 1),
        "sim.batched_share": _ratio(coalesced_events, events),
        "sim.events_per_batch": _ratio(coalesced_events, coalesced_batches),
        "phy.frames_sent": frames_sent,
        "phy.rx_events": sum(cb(n, 0) for n in RX_CALLBACKS),
        "phy.fanout": _ratio(rx_starts, frames_sent),
        "phy.rx_s": sum(cb(n, 1) for n in RX_CALLBACKS),
        "phy.tx_s": sum(b.transmit.seconds for b in bounds),
        "phy.moves": float(sum(b.move.items for b in bounds)),
        "phy.move_s": sum(b.move.seconds for b in bounds),
        "phy.frames_corrupted": _snap_sum(
            records, 'repro_phy_frames_total{kind="corrupted"}'
        ),
        "phy.rx_useful_ratio": _ratio(
            _snap_sum(records, 'repro_phy_frames_total{kind="received"}'),
            rx_starts,
        ),
        "mac.tx_data": tx_data,
        "mac.tx_ack": _snap_sum(records, 'repro_mac_tx_total{kind="ack"}'),
        "mac.retries": retries,
        "mac.drops": _snap_prefix_sum(records, "repro_mac_drops_total{"),
        "mac.retry_ratio": _ratio(retries, tx_data),
        "mac.sends": float(sum(b.mac_send.calls for b in bounds)),
        "mac.send_s": sum(b.mac_send.seconds for b in bounds),
        "net.rreq_tx": control("rreq"),
        "net.rrep_tx": control("rrep"),
        "net.rerr_tx": control("rerr"),
        "net.hello_tx": control("hello"),
        "net.rreq_forwarded": _snap_sum(records, "repro_net_rreq_forwarded_total"),
        "net.discoveries_failed": _snap_sum(
            records, "repro_net_discoveries_failed_total"
        ),
        "net.data_dropped": _snap_prefix_sum(records, "repro_net_data_dropped_total{"),
        "net.rx_calls": float(sum(b.on_packet.calls for b in bounds)),
        "net.rx_s": sum(b.on_packet.seconds for b in bounds),
        "net.callback_s": sum(layer(n, 1) for n in NET_LAYERS),
        "traffic.packets_sent": float(sum(r.packets_sent for r in records)),
        "traffic.emit_s": layer("traffic", 1),
        "topology.mobility_s": layer("topology", 1),
        "faults.events": layer("faults", 0),
        "faults.s": layer("faults", 1),
    }

