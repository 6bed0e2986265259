"""Columnar mirror of the hot per-binding fleet state.

A fleet shard keeps its authoritative per-device state in slotted
Python objects (:class:`~repro.proxy.state.TopicState`,
:class:`~repro.device.link.LastHopLink`, :class:`~repro.device.device.
ClientDevice`). The batch dispatcher additionally mirrors the fields it
touches on every event into contiguous numpy arrays indexed by *local*
device id, so per-event eligibility checks are flat array reads and
whole-shard questions ("who is online?", "who has prefetch room?") are
single vectorized masks instead of 100k attribute walks.

Write-through invariants (pinned by :meth:`FleetColumns.verify_sync`
and the differential suite):

* ``network``, ``queue_size`` and ``prefetch_limit`` are **exact**
  mirrors: every code path that mutates the authoritative field either
  updates the column in the same step (the fused fast paths) or is
  followed by :meth:`~repro.fleet.batch.ShardBatchDispatcher.resync`
  (every scalar fallback).
* ``proxy_queued`` is a **conservative upper bound**: fused paths keep
  it exact, but dynamic expiration timers (which fire outside the
  pumps) may shrink the real queues first. Stale-high is safe — it only
  sends the next READ/UP event for that device down the scalar path,
  which resyncs.
* ``next_expiry`` is a **conservative lower bound** on the earliest
  ``expires_at`` queued at the proxy (``inf`` when nothing expiring is
  queued); it may point at an already-removed event, never past a live
  one.
* ``scalar_only`` is sticky-conservative: it is set the moment a
  binding leaves fast-path territory (crash schedule attached, pending
  retractions, adaptive delay armed by rank drops) and only cleared by
  a resync that re-verifies every fast-path precondition.

``volume_limit`` and ``wake_phase`` are static per-device heterogeneity
knobs (the subscription Max and the wake-window offset), carried here
so shard-level masks can combine them with the dynamic state; the wake
offsets are re-drawn from the same named substream the workload builder
used, which reproduces them bit-for-bit without widening the
shared-memory trace format.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.fleet.workload import FleetWorkload
from repro.sim.rng import RandomSource
from repro.types import NetworkStatus


class FleetColumns:
    """Hot per-binding fields as contiguous arrays, local-id indexed."""

    __slots__ = (
        "devices",
        "network",
        "proxy_queued",
        "queue_size",
        "prefetch_limit",
        "volume_limit",
        "wake_phase",
        "next_expiry",
        "offline_reads",
        "scalar_only",
    )

    def __init__(self, workload: FleetWorkload, initial_prefetch_limit: int) -> None:
        n = workload.devices
        config = workload.config
        self.devices = n
        #: 1 while the binding's last-hop link is UP.
        self.network = np.ones(n, dtype=np.uint8)
        #: Events waiting in the binding's three proxy queues.
        self.proxy_queued = np.zeros(n, dtype=np.int32)
        #: The proxy's estimate of the client queue occupancy.
        self.queue_size = np.zeros(n, dtype=np.int32)
        #: The binding's current prefetch budget (policy-effective).
        self.prefetch_limit = np.full(n, initial_prefetch_limit, dtype=np.int32)
        #: The subscription's Max — notifications per read (static).
        self.volume_limit = np.asarray(workload.limits, dtype=np.int32)
        #: Per-device wake-window offset in hours (static); re-drawn
        #: from the builder's named substream, sliced to this shard.
        self.wake_phase = (
            RandomSource(config.seed)
            .spawn_numpy("fleet:wake-offsets")
            .uniform(
                -config.wake_hour_spread, config.wake_hour_spread,
                size=config.devices,
            )[workload.lo : workload.lo + n]
        )
        #: Earliest ``expires_at`` queued at the proxy (inf = none).
        self.next_expiry = np.full(n, math.inf)
        #: Offline read-log entries buffered on the device.
        self.offline_reads = np.zeros(n, dtype=np.int32)
        #: Sticky dispatch gate: 1 = route this binding's events through
        #: the scalar oracle path.
        self.scalar_only = np.zeros(n, dtype=np.uint8)

    # ------------------------------------------------------------------
    # Write-through setters (narrow, one field each). The batch pumps
    # write the arrays directly on their hottest paths — same stores,
    # no call overhead — but every non-pump writer goes through these.
    # ------------------------------------------------------------------
    def set_network(self, device: int, up: bool) -> None:
        self.network[device] = 1 if up else 0

    def set_queue_size(self, device: int, size: int) -> None:
        self.queue_size[device] = size

    def set_prefetch_limit(self, device: int, limit: int) -> None:
        self.prefetch_limit[device] = limit

    def set_proxy_queued(self, device: int, count: int) -> None:
        self.proxy_queued[device] = count

    def mark_scalar_only(self, device: int) -> None:
        self.scalar_only[device] = 1

    # ------------------------------------------------------------------
    # Masks (vectorized views over the whole shard)
    # ------------------------------------------------------------------
    def online_mask(self) -> np.ndarray:
        """Devices whose last hop is currently UP."""
        return self.network != 0

    def budget_mask(self) -> np.ndarray:
        """Devices with spare prefetch room on the client."""
        return self.queue_size < self.prefetch_limit

    def fast_mask(self) -> np.ndarray:
        """Devices eligible for fused dispatch right now."""
        return self.scalar_only == 0

    # ------------------------------------------------------------------
    # Invariant audit (test / --audit surface)
    # ------------------------------------------------------------------
    def verify_sync(self, states, devices, topics) -> List[str]:
        """Check the write-through invariants against the authoritative
        objects; returns human-readable violations (empty = in sync)."""
        violations: List[str] = []
        for d, state in enumerate(states):
            up = state.network is NetworkStatus.UP
            if bool(self.network[d]) != up:
                violations.append(
                    f"device {d}: network column {self.network[d]} vs "
                    f"authoritative {state.network}"
                )
            queued = state.queued_event_count()
            if int(self.proxy_queued[d]) < queued:
                violations.append(
                    f"device {d}: proxy_queued column {self.proxy_queued[d]} "
                    f"below authoritative {queued}"
                )
            if int(self.queue_size[d]) != state.queue_size:
                violations.append(
                    f"device {d}: queue_size column {self.queue_size[d]} vs "
                    f"authoritative {state.queue_size}"
                )
            if int(self.prefetch_limit[d]) != state.prefetch_limit:
                violations.append(
                    f"device {d}: prefetch_limit column "
                    f"{self.prefetch_limit[d]} vs authoritative "
                    f"{state.prefetch_limit}"
                )
            hint = float(self.next_expiry[d])
            for queue in (state.outgoing, state.prefetch, state.holding):
                for item in queue:
                    if item.expires_at is not None and item.expires_at < hint:
                        violations.append(
                            f"device {d}: next_expiry hint {hint:.3f} past "
                            f"queued expiry {item.expires_at:.3f}"
                        )
                        break
        return violations
