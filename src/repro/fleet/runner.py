"""Fleet execution: one proxy, thousands of device bindings, one clock.

A shard is one :class:`~repro.sim.engine.Simulator` carrying a single
:class:`~repro.proxy.proxy.LastHopProxy` with one per-device binding
(compact :class:`~repro.proxy.state.TopicState`) per device, plus one
:class:`~repro.device.link.LastHopLink` / :class:`~repro.device.device.
ClientDevice` pair per device.

The shard replays **four fleet-wide merged streams** (arrivals, rank
changes, reads, network transitions) rather than four streams per
device: the engine's stream heap stays O(1) in the device count, so the
per-event heap cost does not grow with fleet size. The merged streams
are the per-device streams of :func:`~repro.experiments.runner.
register_trace_streams` interleaved by timestamp with device-major,
stable tie-breaking — devices never interact, so the interleaving
cannot change any device's outcome, and the four streams register in
the same relative order as the single-device runner. A one-device fleet
therefore replays the exact event sequence of :func:`~repro.experiments.
runner.run_scenario` on that device's trace, which the differential
tests pin.

Per-device results fold into a :class:`~repro.metrics.streaming.
FleetAccumulator` as they finish; nothing per-device survives the shard,
so parent-side memory is O(shards) no matter how many devices run.

Determinism across sharding: devices never interact (separate topics,
links, fault plans hashed on the device's derived seed), so each
device's outcome depends only on its own trace and plan — not on which
shard ran it or which devices shared its simulator. The accumulator's
integer counters are therefore bit-identical under any ``(shards,
jobs)`` partitioning; float sums merge up to reassociation.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro import faults as faults_mod
from repro import obs
from repro.broker.message import Notification
from repro.device.device import ClientDevice
from repro.device.link import LastHopLink
from repro.experiments import parallel
from repro.faults import FaultPlan, FaultSpec
from repro.fleet.batch import ShardBatchDispatcher
from repro.fleet.config import FleetScenarioConfig
from repro.fleet.workload import FleetWorkload, build_fleet_workload
from repro.metrics.accounting import RunStats
from repro.metrics.streaming import FleetAccumulator, SketchedStats
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy, ProxyConfig
from repro.sim import trace_shm
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.types import EventId, NetworkStatus, TopicId


def device_topic(device: int) -> TopicId:
    """The binding topic of global device ``device``."""
    return TopicId(f"device/{device}")


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one fleet campaign."""

    config: FleetScenarioConfig
    policy: PolicyConfig
    accumulator: FleetAccumulator
    shards: int
    jobs: int

    @property
    def devices(self) -> int:
        return self.accumulator.devices

    @property
    def waste(self) -> float:
        return self.accumulator.waste

    def describe(self) -> str:
        return self.accumulator.describe()


@contextmanager
def _bulk_allocation() -> Iterator[None]:
    """Suspend the cyclic collector while a shard allocates its fleet.

    Wiring N devices allocates ~20 long-lived objects each; with the
    collector enabled, every generation sweep rescans the whole
    (growing) fleet, turning setup quadratic-ish in N. Collection is
    paused for the bulk phase and the prior state restored afterwards —
    the fleet's objects live until the shard ends regardless, so pausing
    changes no outcome, only removes rescans.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _execute_shard(
    workload: FleetWorkload,
    policy: PolicyConfig,
    fault_spec: Optional[FaultSpec] = None,
    link_latency: float = 0.0,
    use_batch: bool = True,
) -> FleetAccumulator:
    """Run one shard's devices on one simulator; fold into an accumulator.

    The per-device wiring mirrors :func:`~repro.experiments.runner.
    run_scenario` exactly — ctor order, listener registration order,
    crash timers scheduled before streams — and the merged streams
    preserve each device's within-device event order, so a device's
    statistics are identical whether it runs here or through the
    single-device runner.

    ``use_batch`` picks the columnar batched fast path (the default) or
    the scalar per-callback oracle the differential tests check it
    against. Both produce bit-identical integer metrics.
    """
    config = workload.config
    spec = fault_spec if fault_spec is not None else faults_mod.active_spec()
    obs_ctx = obs.active()
    recorder = None if obs_ctx is None else obs_ctx.recorder
    auditor = None if obs_ctx is None else obs_ctx.auditor
    obs.PROBES.count("fleet-shards")

    with _bulk_allocation():
        return _execute_shard_inner(
            workload, policy, spec, link_latency, recorder, auditor, use_batch
        )


def _execute_shard_inner(
    workload: FleetWorkload,
    policy: PolicyConfig,
    spec: Optional[FaultSpec],
    link_latency: float,
    recorder,
    auditor,
    use_batch: bool,
) -> FleetAccumulator:
    config = workload.config
    acc = FleetAccumulator()
    sim = Simulator()
    duration = config.duration
    # The proxy-wide transport/stats slots back the classic `add_topic`
    # alias only; every fleet binding carries its own.
    proxy = LastHopProxy(
        sim,
        None,
        ProxyConfig(policy=policy),
        RunStats(),
        recorder=recorder,
        auditor=auditor,
    )
    threshold = config.threshold
    base_seed = config.seed
    null_faults = spec is None or spec.is_null
    schedule_at = sim.schedule_at
    draws = None if null_faults else workload.fault_draws()
    if draws is not None:
        arrival_rows = workload._stream_offsets(
            "arrivals", workload.arrival_counts
        ).tolist()
        event_ids = workload.arrivals.event_ids

    topics: List[TopicId] = []
    stats_list: List[SketchedStats] = []
    devices: List[ClientDevice] = []
    links: List[LastHopLink] = []
    states: List = []
    crash_prone: List[bool] = []
    perform_reads: List = []
    set_statuses: List = []
    for index in range(workload.devices):
        plan = (
            None
            if null_faults
            else FaultPlan.build(
                spec,
                seed=derive_seed(base_seed, f"device-{workload.lo + index}"),
                duration=duration,
            )
        )
        stats = SketchedStats(
            delay_sketch=acc.read_delay_sketch,
            delay_moments=acc.read_delay_moments,
        )
        topic = device_topic(workload.lo + index)
        link = LastHopLink(
            sim, stats, latency=link_latency, faults=plan, recorder=recorder
        )
        device = ClientDevice(sim, link, stats, faults=plan)
        device.add_topic(topic, threshold)
        state = proxy.add_binding(
            topic, transport=link, stats=stats, rank_threshold=threshold
        )
        device.attach_proxy(proxy)
        link.add_status_listener(partial(proxy.on_topic_network, topic))
        if plan is not None:
            if draws is not None:
                lo, hi = arrival_rows[index], arrival_rows[index + 1]
                if hi > lo:
                    plan.attach_draws(draws, lo, hi, int(event_ids[lo]))
            for crash_time in plan.crash_times:
                schedule_at(
                    crash_time,
                    proxy.crash_restart_topic,
                    topic,
                    plan.spec.restart_delay,
                )
        topics.append(topic)
        stats_list.append(stats)
        devices.append(device)
        links.append(link)
        states.append(state)
        crash_prone.append(plan is not None and bool(plan.crash_times))
        perform_reads.append(device.perform_read)
        set_statuses.append(link.set_status)

    if use_batch:
        dispatcher = ShardBatchDispatcher(
            sim=sim,
            workload=workload,
            proxy=proxy,
            policy=policy,
            topics=topics,
            states=states,
            links=links,
            devices=devices,
            stats_list=stats_list,
            perform_reads=perform_reads,
            set_statuses=set_statuses,
            crash_prone=crash_prone,
            link_latency=link_latency,
            recorder=recorder,
            auditor=auditor,
        )
        dispatcher.register_streams()
    else:
        _register_fleet_streams(
            sim, workload, proxy, topics, perform_reads, set_statuses
        )

    sim.run(until=duration)

    # Final-queue sweep, one per binding: equivalent to
    # ``topic_state(t).queued_event_count()`` / ``device.queue_size(t)``
    # but reading the ranked queues directly — at 10k+ bindings the
    # method hops are a measurable slice of the fold.
    states_map = proxy._states
    acc.add_shard(
        stats_list,
        [
            len(st.outgoing) + len(st.prefetch) + len(st.holding)
            for st in (states_map[topic] for topic in topics)
        ],
        [
            len(device._queues[topic])
            for device, topic in zip(devices, topics)
        ],
    )
    acc.events_processed = sim.events_processed
    obs.PROBES.count("events", sim.events_processed)
    _dismantle_shard(sim, proxy, devices, links)
    return acc


def _dismantle_shard(
    sim: Simulator,
    proxy: LastHopProxy,
    devices: List[ClientDevice],
    links: List[LastHopLink],
) -> None:
    """Break the shard's reference cycles so plain refcounting frees it.

    The device ↔ link ↔ proxy ↔ simulator graph is cyclic (listeners
    hold bound methods, heap events hold states, devices hold the
    proxy); with the cyclic collector suspended for the shard's
    lifetime (:func:`_bulk_allocation`), an unbroken graph would
    survive until a later full GC sweep — which lands in the middle of
    the *next* shard (or benchmark round). Everything the caller needs
    has been folded into the accumulator by now.
    """
    sim.clear()
    for link in links:
        link._listeners.clear()
        link._device = None
    for device in devices:
        device._proxy = None
    proxy._states.clear()


def _register_fleet_streams(
    sim: Simulator,
    workload: FleetWorkload,
    proxy: LastHopProxy,
    topics: List[TopicId],
    perform_reads: List,
    set_statuses: List,
) -> None:
    """Register the shard's four merged trace streams.

    Equivalent to calling :func:`~repro.experiments.runner.
    register_trace_streams` per device, with all devices' items
    interleaved by timestamp: the stable sorts keep each device's items
    in within-device order, the streams register in the same arrivals →
    rank-changes → reads → network order, and devices are independent,
    so every device observes exactly its single-device event sequence.
    The payoff is the engine heap: four stream cursors total instead of
    four per device.
    """
    n = workload.devices
    duration = workload.config.duration
    on_notification = proxy.on_notification

    acols = workload.arrivals
    didx = np.repeat(np.arange(n), workload.arrival_counts)
    order = np.argsort(acols.times, kind="stable")
    originals: Dict[EventId, Notification] = {}
    arrival_stream = []
    append_arrival = arrival_stream.append
    for d, time, event_id, rank, expires_at in zip(
        didx[order].tolist(),
        acols.times[order].tolist(),
        acols.event_ids[order].tolist(),
        acols.ranks[order].tolist(),
        acols.expires_at[order].tolist(),
    ):
        notification = Notification(
            event_id=EventId(event_id),
            topic=topics[d],
            rank=rank,
            published_at=time,
            # NaN != NaN: the only NaN in the column is the sentinel.
            expires_at=None if expires_at != expires_at else expires_at,
        )
        originals[notification.event_id] = notification
        append_arrival((time, on_notification, (notification,)))
    sim.add_stream(arrival_stream)

    ccols = workload.rank_changes
    order = np.argsort(ccols.times, kind="stable")
    change_stream = []
    for time, event_id, new_rank in zip(
        ccols.times[order].tolist(),
        ccols.event_ids[order].tolist(),
        ccols.new_ranks[order].tolist(),
    ):
        original = originals[EventId(event_id)]
        update = Notification(
            event_id=original.event_id,
            topic=original.topic,
            rank=new_rank,
            published_at=original.published_at,
            expires_at=original.expires_at,
        )
        change_stream.append((time, on_notification, (update,)))
    sim.add_stream(change_stream)

    rcols = workload.reads
    ridx = np.repeat(np.arange(n), workload.read_counts)
    order = np.argsort(rcols.times, kind="stable")
    sim.add_stream(
        [
            (time, perform_reads[d], (topics[d], count))
            for d, time, count in zip(
                ridx[order].tolist(),
                rcols.times[order].tolist(),
                rcols.counts[order].tolist(),
            )
        ]
    )

    ocols = workload.outages
    oidx = np.repeat(np.arange(n), workload.outage_counts)
    # One DOWN per outage start, one UP per end that falls inside the
    # run — the per-device edge rules of Trace.network_transitions. At
    # an equal within-device timestamp an UP (previous interval's end)
    # must precede a DOWN (next interval's start), hence the secondary
    # sort key; cross-device order at equal times is immaterial.
    ev_times = np.concatenate([ocols.starts, ocols.ends])
    ev_dev = np.concatenate([oidx, oidx])
    is_down = np.concatenate(
        [np.ones(ocols.starts.size, bool), np.zeros(ocols.ends.size, bool)]
    )
    keep = np.ones(ev_times.size, dtype=bool)
    keep[ocols.starts.size :] = ocols.ends < duration
    ev_times, ev_dev, is_down = ev_times[keep], ev_dev[keep], is_down[keep]
    order = np.lexsort((is_down, ev_times))
    down, up = NetworkStatus.DOWN, NetworkStatus.UP
    sim.add_stream(
        [
            (time, set_statuses[d], (down if goes_down else up,))
            for time, d, goes_down in zip(
                ev_times[order].tolist(),
                ev_dev[order].tolist(),
                is_down[order].tolist(),
            )
        ]
    )


def _execute_shard_from_shm(
    key: str,
    lo: int,
    hi: int,
    config: FleetScenarioConfig,
    policy: PolicyConfig,
    fault_spec: Optional[FaultSpec],
    link_latency: float,
    use_batch: bool = True,
) -> FleetAccumulator:
    """Worker entry: attach the shard's columns from shared memory.

    A vanished segment (parent unlinked early) degrades to a rebuild:
    generation is deterministic in the config, so ``build_fleet_workload
    (config).shard(lo, hi)`` reproduces the same columns byte-for-byte.
    """
    packed = trace_shm.load(key)
    if packed is not None:
        workload = FleetWorkload.from_trace(config, packed)
    else:
        workload = build_fleet_workload(config).shard(lo, hi)
    return _execute_shard(workload, policy, fault_spec, link_latency, use_batch)


def run_fleet(
    config: FleetScenarioConfig,
    policy: Optional[PolicyConfig] = None,
    *,
    shards: int = 1,
    jobs: int = 1,
    faults: Optional[FaultSpec] = None,
    link_latency: float = 0.0,
    workload: Optional[FleetWorkload] = None,
    use_batch: bool = True,
) -> FleetResult:
    """Run a whole fleet campaign; results invariant to ``(shards, jobs)``.

    The workload is generated once (vectorized, in the parent) and
    sharded into contiguous device ranges; ``jobs`` worker processes
    execute shards with the columns handed off through shared memory.
    ``faults`` applies the same :class:`FaultSpec` to every device, each
    realizing its own plan from its derived seed; None falls back to the
    process-wide spec (the CLI's ``--faults``). Pass ``workload`` to
    reuse an already-built :func:`build_fleet_workload` result (it must
    match ``config``). ``use_batch`` selects batched (default) or
    scalar shard dispatch; both produce bit-identical integer metrics.
    """
    config.validate()
    if policy is None:
        policy = PolicyConfig()
    policy.validate()
    spec = faults if faults is not None else faults_mod.active_spec()
    if workload is None:
        with obs.PROBES.phase("fleet-build"):
            workload = build_fleet_workload(config)
    accumulator = parallel.run_fleet_shards(
        workload,
        policy,
        shards=shards,
        jobs=jobs,
        fault_spec=spec,
        link_latency=link_latency,
        use_batch=use_batch,
    )
    return FleetResult(
        config=config,
        policy=policy,
        accumulator=accumulator,
        shards=shards,
        jobs=jobs,
    )
