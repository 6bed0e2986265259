"""Batched fleet-shard dispatch over columnar binding state.

The scalar fleet path (PR 7) replays four merged streams through one
Python callback per event; at 100k devices that is ~10 million dispatch
round-trips, each touching scattered per-binding objects. This module is
the batch alternative: the four streams collapse into **one** merged
batch stream registered through the engine's batch-pop API
(:meth:`~repro.sim.engine.Simulator.add_batch_stream`), and a single
*pump* consumes whole runs of consecutive events in one call, filtering
devices against the contiguous arrays of
:class:`~repro.fleet.columns.FleetColumns` and executing a **fused**
fast path that replicates the scalar call chain's observable effects
with a fraction of its Python-frame and attribute-walk overhead.

Merging the streams is an ordering-preserving transformation. In scalar
mode the four streams reserve contiguous sequence blocks in
registration order (arrivals → rank changes → reads → outages), so the
engine fires stream events sorted by ``(time, seq)`` — which is exactly
"by time; at equal times by stream kind in registration order; within a
kind in within-stream order". A stable sort by time over the four
kind-ordered streams concatenated in registration order reproduces that
order precisely, and the merged stream reserves one block with the same
total length, so dynamic timers (which always draw later sequence
numbers than the whole block) and pre-registered crash timers (which
always draw earlier ones) tie-break identically in both modes. The
payoff: the heap carries one cursor instead of four, and the pump is
re-entered only when a dynamic timer actually preempts it, not on every
cross-stream alternation.

Equivalence contract (pinned by ``tests/fleet/test_fleet_batch.py``):
batched and scalar dispatch produce bit-identical
:class:`~repro.metrics.streaming.FleetAccumulator` integer counters,
float sums, and sketch buckets for any policy, fault preset, and seed.
The fusion rules that make this hold:

* A binding is *fused* only while every guarantee of the fast path
  holds; :meth:`ShardBatchDispatcher.resync` re-derives the
  ``scalar_only`` gate (and every mirrored column) from the
  authoritative objects after each scalar fallback. Anything dynamic
  timers can invalidate (pending retractions, the rank-instability
  delay stage) routes the binding back through the scalar oracle path.
  Bindings that can never fuse (a fault plan with a crash schedule,
  whose restarts rebuild proxy state outside the pump, or a shard-level
  fusion blocker) skip the resync entirely — their columns are never
  consulted.
* Faulted bindings without crashes fuse like clean ones. Loss,
  duplicates, jitter and retries live in the link and the device: a
  fused forward runs the link's first ack/retry attempt, retry and
  delayed-receive timers touch no proxy queue, and duplicates are
  deduped by ``ClientDevice.receive``. One ordering effect remains:
  retries parked during an outage must be rescheduled before the
  reconnect listeners run, which only ``set_status`` does, so a
  reconnect with parked retries takes the scalar path.
* Fused handlers replicate the scalar code path's *observable* writes
  exactly, and skip only work proven to be a no-op under the fast-path
  guarantees: the ``prefetch_limit`` recompute when ``old_reads`` has
  not moved, the ``state.delay`` refresh while the tracker has no
  drops, and the schedule-then-cancel expiration-timer pair on
  immediately forwarded notifications (cancelled entries never count
  toward ``events_processed``, and skipping a reservation shifts later
  sequence numbers uniformly, preserving every relative order).
* Conservative columns fail safe: ``proxy_queued`` may read high after
  a dynamic expiration fired, which only demotes that binding's next
  READ/UP event to the scalar path — never the reverse.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.broker.message import Notification
from repro.errors import SimulationError
from repro.fleet.columns import FleetColumns
from repro.fleet.workload import FleetWorkload
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.sim.engine import Simulator
from repro.types import NetworkStatus, PolicyKind, TopicId

_UP = NetworkStatus.UP
_DOWN = NetworkStatus.DOWN

#: Merged-stream event codes. Arrival classification (live / filtered /
#: dead-on-arrival) is precomputed vectorized at build time and encoded
#: directly, as is the outage direction, so the pump dispatches on one
#: small-int compare chain.
_ARRIVE = 0
_ARRIVE_FILTERED = 1
_ARRIVE_DEAD = 2
_CHANGE = 3
_READ = 4
_OUTAGE_DOWN = 5
_OUTAGE_UP = 6


class ShardBatchDispatcher:
    """Drives one fleet shard through the engine's batch-pop API.

    Construction wires nothing into the simulator; call
    :meth:`register_streams` after the per-device objects exist. The
    dispatcher assumes the fleet runner's wiring shape: one topic per
    device, no battery model, unlimited device storage,
    ``report_on_reconnect`` devices, and crash timers (if any) already
    scheduled — exactly what ``repro.fleet.runner`` builds.
    """

    def __init__(
        self,
        *,
        sim: Simulator,
        workload: FleetWorkload,
        proxy: LastHopProxy,
        policy: PolicyConfig,
        topics: List[TopicId],
        states: List,
        links: List,
        devices: List,
        stats_list: List,
        perform_reads: List,
        set_statuses: List,
        crash_prone: List[bool],
        link_latency: float,
        recorder,
        auditor,
    ) -> None:
        self.sim = sim
        self.workload = workload
        self.proxy = proxy
        self.policy = policy
        self.topics = topics
        self.states = states
        self.links = links
        self.devices = devices
        self.stats_list = stats_list
        self.perform_reads = perform_reads
        self.set_statuses = set_statuses

        #: The whole shard qualifies for fusion only without observers
        #: (recorder/auditor hooks fire on scalar paths only), with a
        #: zero-latency link (fused forwards deliver synchronously), and
        #: with the delay stage structurally inactive: a fixed positive
        #: delay arms per-event timers whose timeouts mutate queues
        #: outside the pumps.
        self.fused_shard = (
            recorder is None
            and auditor is None
            and link_latency == 0.0
            and (policy.delay is None or policy.delay == 0.0)
        )
        #: Adaptive delay (policy.delay None) stays fused per binding
        #: until its tracker records a rank drop; see :meth:`resync`.
        self.adaptive_delay = policy.delay is None
        self.online_kind = policy.kind is PolicyKind.ONLINE
        #: RATE arrivals earn forwarding credit per event — inherently
        #: scalar; RATE reads still fuse whenever the queues are empty.
        self.fuse_arrivals = self.fused_shard and policy.kind is not PolicyKind.RATE
        self.fuse_reads = self.fused_shard

        initial_limit = states[0].prefetch_limit if states else 0
        self.cols = FleetColumns(workload, initial_limit)
        if not self.fused_shard:
            self.cols.scalar_only[:] = 1
        elif any(crash_prone):
            self.cols.scalar_only[np.asarray(crash_prone, dtype=bool)] = 1
        #: Static per-device fusion eligibility (fused shard, and no
        #: crash schedule — a crash/restart timer rebuilds proxy state
        #: outside the pump; other faults do not block fusion): unlike
        #: ``scalar_only`` this can never be invalidated by dynamic
        #: timers, so DOWN transitions — which touch no queue state —
        #: may fuse on it alone. A False here also means the binding's
        #: columns are never consulted, so its scalar fallbacks skip the
        #: resync.
        self.statics: List[bool] = [
            self.fused_shard and not crashes for crashes in crash_prone
        ]
        self.dev_queues = [
            device._queues[topics[d]] for d, device in enumerate(devices)
        ]
        self.dev_consume = [device._consume for device in devices]
        #: Whether fused arrivals must keep the proxy's durable history
        #: and delay-tracker bookkeeping. Both exist solely for rank
        #: changes: ``history`` is read when a change resolves its
        #: original arrival (and by crash rebuilds, which imply a crash
        #: schedule and hence a never-fused binding), and the tracker's
        #: publication count is only consulted once a drop has been
        #: recorded. A shard whose workload carries no change events can
        #: therefore skip both writes on the fused path;
        #: :meth:`register_streams` clears this when that holds.
        self.track_publications = True

        # Merged columnar stream (filled by register_streams). Plain
        # lists: per-item reads in the pump stay unboxed.
        self.m_times: List[float] = []
        self.m_codes: List[int] = []
        self.m_devs: List[int] = []
        #: Integer payload: event id (arrivals, changes), read count
        #: (reads), unused (outages).
        self.m_ints: List[int] = []
        #: Float payloads: rank / expires-at (NaN = never) for arrivals
        #: and changes; published-at for changes only (arrivals publish
        #: at their own timestamp).
        self.m_ranks: List[float] = []
        self.m_exps: List[float] = []
        self.m_pubs: List[float] = []

    # ------------------------------------------------------------------
    # Stream construction
    # ------------------------------------------------------------------
    @staticmethod
    def _check_times(name: str, times: np.ndarray) -> None:
        """Vectorized analogue of the scalar streams' lazy per-item
        validation: every timestamp finite (sortedness is guaranteed by
        the argsort that produced the order)."""
        if times.size and not np.isfinite(times).all():
            raise SimulationError(f"fleet {name} stream contains non-finite times")

    def register_streams(self) -> None:
        """Register the shard's events as one merged batch stream.

        Each kind is first ordered exactly as ``_register_fleet_streams``
        orders its stream (stable time argsorts; the outage
        ``lexsort((is_down, times))``); the kinds are then concatenated
        in registration order (arrivals → rank changes → reads →
        outages) and stable-sorted by time, which — see the module
        docstring — reproduces the scalar engine's ``(time, seq)``
        firing order event for event. The single reserved sequence
        block has the same total length as the scalar mode's four, so
        ``_seq_next`` (and with it every dynamic timer's tie-breaking)
        advances identically. Arrival classification (below-threshold /
        dead-on-arrival / live) is precomputed with vectorized masks;
        ``Notification`` objects are created lazily in the pump, only
        for events that survive.
        """
        wl = self.workload
        n = wl.devices
        duration = wl.config.duration
        threshold = wl.config.threshold

        acols = wl.arrivals
        adev = np.repeat(np.arange(n), wl.arrival_counts)
        order = np.argsort(acols.times, kind="stable")
        a_times = acols.times[order]
        self._check_times("arrival", a_times)
        a_ranks = acols.ranks[order]
        a_exps = acols.expires_at[order]
        below = a_ranks < threshold
        # NaN (the no-expiry sentinel) compares False, so non-expiring
        # notifications are never classified dead.
        dead = ~below & (a_exps <= a_times)
        a_codes = np.where(below, _ARRIVE_FILTERED, _ARRIVE).astype(np.uint8)
        a_codes[dead] = _ARRIVE_DEAD
        a_devs = adev[order]
        a_eids = acols.event_ids[order]

        ccols = wl.rank_changes
        if ccols.times.size:
            order = np.argsort(ccols.times, kind="stable")
            c_times = ccols.times[order]
            self._check_times("rank-change", c_times)
            c_eids = ccols.event_ids[order]
            c_ranks = ccols.new_ranks[order]
            # Resolve each change's original arrival so the update
            # notification carries the publication fields the scalar
            # runner copies from its ``originals`` map. Device-major
            # event ids are normally ascending (contiguous per-device
            # blocks); fall back to a dict for exotic traces.
            aeids = acols.event_ids
            src = None
            if aeids.size and bool(np.all(np.diff(aeids) > 0)):
                pos = np.searchsorted(aeids, c_eids)
                pos = np.minimum(pos, aeids.size - 1)
                if np.array_equal(aeids[pos], c_eids):
                    src = pos
            if src is None:
                index_of = {
                    eid: i for i, eid in enumerate(aeids.tolist())
                }
                src = np.fromiter(
                    (index_of[eid] for eid in c_eids.tolist()),
                    dtype=np.int64,
                    count=c_eids.size,
                )
            c_devs = adev[src]
            c_pubs = acols.times[src]
            c_exps = acols.expires_at[src]
        else:
            c_times = np.empty(0)
            c_eids = np.empty(0, dtype=np.int64)
            c_ranks = np.empty(0)
            c_devs = np.empty(0, dtype=np.int64)
            c_pubs = np.empty(0)
            c_exps = np.empty(0)

        rcols = wl.reads
        ridx = np.repeat(np.arange(n), wl.read_counts)
        order = np.argsort(rcols.times, kind="stable")
        r_times = rcols.times[order]
        self._check_times("read", r_times)
        r_devs = ridx[order]
        r_counts = rcols.counts[order]

        ocols = wl.outages
        oidx = np.repeat(np.arange(n), wl.outage_counts)
        ev_times = np.concatenate([ocols.starts, ocols.ends])
        ev_dev = np.concatenate([oidx, oidx])
        is_down = np.concatenate(
            [np.ones(ocols.starts.size, bool), np.zeros(ocols.ends.size, bool)]
        )
        keep = np.ones(ev_times.size, dtype=bool)
        keep[ocols.starts.size :] = ocols.ends < duration
        ev_times, ev_dev, is_down = ev_times[keep], ev_dev[keep], is_down[keep]
        order = np.lexsort((is_down, ev_times))
        o_times = ev_times[order]
        self._check_times("outage", o_times)
        o_devs = ev_dev[order]
        o_codes = np.where(
            is_down[order], _OUTAGE_DOWN, _OUTAGE_UP
        ).astype(np.uint8)

        na = a_times.size
        nc = c_times.size
        nr = r_times.size
        self.track_publications = nc > 0
        zr = np.zeros(nr)
        zo = np.zeros(o_times.size)
        times = np.concatenate([a_times, c_times, r_times, o_times])
        codes = np.concatenate([
            a_codes,
            np.full(nc, _CHANGE, dtype=np.uint8),
            np.full(nr, _READ, dtype=np.uint8),
            o_codes,
        ])
        devs = np.concatenate([a_devs, c_devs, r_devs, o_devs])
        ints = np.concatenate([a_eids, c_eids, r_counts, zo.astype(np.int64)])
        ranks = np.concatenate([a_ranks, c_ranks, zr, zo])
        exps = np.concatenate([a_exps, c_exps, zr, zo])
        pubs = np.concatenate([np.zeros(na), c_pubs, zr, zo])

        # Stable by time: ties keep concatenation order = registration
        # order across kinds, per-kind order within a kind — the scalar
        # engine's exact (time, seq) order.
        order = np.argsort(times, kind="stable")
        self.m_times = times[order].tolist()
        self.m_codes = codes[order].tolist()
        self.m_devs = devs[order].tolist()
        self.m_ints = ints[order].tolist()
        self.m_ranks = ranks[order].tolist()
        self.m_exps = exps[order].tolist()
        self.m_pubs = pubs[order].tolist()
        self.sim.add_batch_stream(self.m_times, self._pump)

    # ------------------------------------------------------------------
    # Column resynchronisation
    # ------------------------------------------------------------------
    def resync(self, d: int) -> None:
        """Re-mirror one binding's columns from the authoritative
        objects; called after every scalar fallback of a binding that
        can still fuse (``statics[d]``).

        Also re-derives the ``scalar_only`` gate: a sticky condition
        (recorded rank drops under adaptive delay) keeps the binding
        scalar, transient ones (pending retractions, armed delay timers)
        clear once drained. Only a fused shard's crash-free bindings
        get here, so no crash rebuild has replaced the state object and
        neither the shard gate nor the crash gate needs a re-check.
        """
        st = self.states[d]
        cols = self.cols
        cols.network[d] = 1 if st.network is _UP else 0
        cols.queue_size[d] = st.queue_size
        cols.prefetch_limit[d] = st.prefetch_limit
        cols.proxy_queued[d] = st.queued_event_count()
        cols.offline_reads[d] = sum(
            len(entries) for entries in self.devices[d]._offline_reads.values()
        )
        cols.next_expiry[d] = min(
            st.outgoing.next_expiry(),
            st.prefetch.next_expiry(),
            st.holding.next_expiry(),
        )
        dirty = (
            bool(st.pending_retractions)
            or bool(st.delay_handles)
            or (self.adaptive_delay and st.tracker.drops > 0)
        )
        cols.scalar_only[d] = 1 if dirty else 0

    # ------------------------------------------------------------------
    # The pump (engine batch-pop contract; see Simulator.add_batch_stream)
    # ------------------------------------------------------------------
    def _pump(
        self, pos: int, base: int, cap_time: float, cap_seq: int,
        until: float, limit: int,
    ) -> int:
        sim = self.sim
        next_key = sim.next_key
        times = self.m_times
        m_codes = self.m_codes
        m_devs = self.m_devs
        m_ints = self.m_ints
        m_ranks = self.m_ranks
        m_exps = self.m_exps
        m_pubs = self.m_pubs
        topics = self.topics
        states = self.states
        stats_list = self.stats_list
        links = self.links
        dev_queues = self.dev_queues
        dev_consume = self.dev_consume
        perform_reads = self.perform_reads
        set_statuses = self.set_statuses
        statics = self.statics
        cols = self.cols
        scalar_only = cols.scalar_only
        net = cols.network
        qsize = cols.queue_size
        plimit = cols.prefetch_limit
        queued = cols.proxy_queued
        nexp = cols.next_expiry
        offline = cols.offline_reads
        notify_batch = self.proxy.notify_batch
        read_batch = self.proxy.read_batch
        on_notification = self.proxy.on_notification
        try_forwarding = self.proxy.try_forwarding
        resync = self.resync
        fuse_arrivals = self.fuse_arrivals
        fuse_reads = self.fuse_reads
        online = self.online_kind
        track = self.track_publications
        seq_mark = sim._seq_next
        i = pos
        end = len(times)
        if limit < end - pos:
            end = pos + limit
        while i < end:
            t = times[i]
            if t > until:
                break
            if t > cap_time or (t == cap_time and base + i >= cap_seq):
                break
            sim._now = t
            code = m_codes[i]
            d = m_devs[i]
            if code == _ARRIVE:
                if fuse_arrivals and not scalar_only[d]:
                    exp = m_exps[i]
                    expiring = exp == exp  # NaN sentinel check
                    notification = Notification(
                        event_id=m_ints[i],
                        topic=topics[d],
                        rank=m_ranks[i],
                        published_at=t,
                        expires_at=exp if expiring else None,
                    )
                    if notify_batch(
                        states[d],
                        notification,
                        bool(net[d]),
                        qsize[d] < plimit[d],
                        online,
                        track,
                    ):
                        qsize[d] += 1
                    else:
                        queued[d] += 1
                        if expiring and exp < nexp[d]:
                            nexp[d] = exp
                else:
                    exp = m_exps[i]
                    on_notification(
                        Notification(
                            event_id=m_ints[i],
                            topic=topics[d],
                            rank=m_ranks[i],
                            published_at=t,
                            expires_at=None if exp != exp else exp,
                        )
                    )
                    if statics[d]:
                        resync(d)
            elif code == _OUTAGE_DOWN:
                # DOWN touches no queue state: the device listener
                # ignores it and the proxy only records the status, so
                # any crash-free binding fuses regardless of dirtiness.
                # (Branch order is by event frequency: a typical
                # campaign carries several outage transitions per read.)
                if statics[d]:
                    if net[d]:
                        links[d]._status = _DOWN
                        states[d].network = _DOWN
                        net[d] = 0
                else:
                    set_statuses[d](_DOWN)
            elif code == _OUTAGE_UP:
                # UP fuses when reconnection needs no offline read log
                # replayed. The listener cascade reduces to the queue
                # report (clean bindings track the device queue
                # exactly, so the report itself is the whole device
                # side) followed by the proxy's try_forwarding — a
                # no-op unless something is queued, in which case the
                # real flush runs and the columns resync from its
                # outcome. Retries parked during the outage must resume
                # before the listeners run, which only set_status does.
                if (
                    statics[d] and not scalar_only[d] and not offline[d]
                    and not links[d]._parked
                ):
                    if not net[d]:
                        st = states[d]
                        links[d]._status = _UP
                        qlen = len(dev_queues[d])
                        st.queue_size = qlen
                        qsize[d] = qlen
                        st.network = _UP
                        net[d] = 1
                        if queued[d]:
                            try_forwarding(st)
                            qsize[d] = st.queue_size
                            plimit[d] = st.prefetch_limit
                            queued[d] = st.queued_event_count()
                else:
                    set_statuses[d](_UP)
                    if statics[d]:
                        resync(d)
            elif code == _READ:
                n = m_ints[i]
                # Fused READ: link up, binding clean, and nothing
                # queued at the proxy (proxy_queued is a conservative
                # upper bound, so zero here means truly empty) — the
                # whole READ exchange reduces to moving-average
                # bookkeeping plus local consume.
                if fuse_reads and net[d] and not scalar_only[d] and not queued[d]:
                    stats = stats_list[d]
                    stats.reads += 1
                    st = states[d]
                    qlen = len(dev_queues[d])
                    read_batch(st, n, qlen)
                    qsize[d] = qlen
                    plimit[d] = st.prefetch_limit
                    if not dev_consume[d](topics[d], n):
                        stats.empty_reads += 1
                else:
                    perform_reads[d](topics[d], n)
                    if statics[d]:
                        resync(d)
            elif code == _CHANGE:
                # Rank changes always take the scalar oracle path: they
                # mutate shared Notification objects, may arm
                # retractions, and feed the delay tracker — all of
                # which the fused gates must then see.
                exp = m_exps[i]
                on_notification(
                    Notification(
                        event_id=m_ints[i],
                        topic=topics[d],
                        rank=m_ranks[i],
                        published_at=m_pubs[i],
                        expires_at=None if exp != exp else exp,
                    )
                )
                if statics[d]:
                    resync(d)
            else:
                # Filtered / dead-on-arrival: counters only. The scalar
                # path's trailing try_forwarding is a no-op here
                # (queues untouched; prefetch_limit already equals the
                # policy-effective value).
                if fuse_arrivals and not scalar_only[d]:
                    stats = stats_list[d]
                    stats.arrivals += 1
                    if code == _ARRIVE_FILTERED:
                        stats.filtered += 1
                    else:
                        stats.expired_at_proxy += 1
                else:
                    exp = m_exps[i]
                    on_notification(
                        Notification(
                            event_id=m_ints[i],
                            topic=topics[d],
                            rank=m_ranks[i],
                            published_at=t,
                            expires_at=None if exp != exp else exp,
                        )
                    )
                    if statics[d]:
                        resync(d)
            i += 1
            if sim._seq_next != seq_mark:
                seq_mark = sim._seq_next
                cap_time, cap_seq = next_key()
        return i - pos
