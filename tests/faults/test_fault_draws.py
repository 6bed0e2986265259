"""Property: every fault draw equals the reference SHA-256 formulation.

``FaultPlan`` hashes a pre-encoded seed prefix plus ``%d``-formatted
parts, and serves attempt-1 ``drop``/``jitter`` and ``dup`` draws from a
per-workload :class:`FaultDrawTable`. Both must reproduce, bit for bit,
the original formulation kept here as the oracle: the parts
``str()``-joined with ``:`` behind ``"<seed>:faults"``, SHA-256, first
eight digest bytes big-endian over ``2**64``.
"""

import hashlib
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultDrawTable, FaultPlan, FaultSpec
from repro.fleet import FleetScenarioConfig, build_fleet_workload
from repro.units import DAY

SPEC = FaultSpec(
    loss_rate=0.5,
    duplicate_rate=0.5,
    jitter_mean=2.0,
    report_duplicate_rate=0.5,
    max_retries=5,
)


def reference_unit(seed, *parts):
    key = ":".join(str(part) for part in (seed, "faults") + parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


class TestDrawIdentity:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        event_id=st.integers(min_value=0, max_value=2**62),
        numpy_id=st.booleans(),
        attempt=st.integers(min_value=1, max_value=SPEC.max_retries + 1),
        row=st.integers(min_value=0, max_value=4),
    )
    def test_every_site_matches_reference(
        self, seed, event_id, numpy_id, attempt, row
    ):
        eid = np.int64(event_id) if numpy_id else event_id
        drop = reference_unit(seed, "drop", event_id, attempt)
        jitter = reference_unit(seed, "jitter", event_id, attempt)
        dup = reference_unit(seed, "dup", event_id)

        direct = FaultPlan(SPEC, seed)
        tabled = FaultPlan(SPEC, seed)
        table = FaultDrawTable(8)
        # The plan owns rows [1, 6); ``event_id`` lands on row 1 + row.
        tabled.attach_draws(table.columns(0, 8), 1, 6, event_id - row)
        # Direct draws, then the table's first (filling) and second
        # (cached) lookups.
        for plan in (direct, tabled, tabled):
            assert plan._drop_unit(eid, attempt) == drop
            assert plan._jitter_unit(eid, attempt) == jitter
            assert plan._dup_unit(eid) == dup
            assert plan.drop_delivery(eid, attempt) == (drop < SPEC.loss_rate)
            assert plan.duplicate_delivery(eid) == (dup < SPEC.duplicate_rate)
            assert plan.delivery_jitter(eid, attempt) == (
                -SPEC.jitter_mean * math.log(1.0 - jitter)
            )

        cells = np.asarray(table._cells)
        # Only the plan's own row was filled, and retries never are.
        assert np.isnan(np.delete(cells, 1 + row, axis=1)).all()
        assert cells[2, 1 + row] == dup
        if attempt == 1:
            assert cells[0, 1 + row] == drop
            assert cells[1, 1 + row] == jitter
        else:
            assert np.isnan(cells[:2, 1 + row]).all()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        device=st.integers(min_value=0, max_value=10**6),
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
            max_size=6,
        ),
    )
    def test_report_site_matches_reference(self, seed, device, times):
        plan = FaultPlan(SPEC, seed)
        topic = f"device/{device}"
        entries = [(time, 1) for time in times]
        for time in times:
            assert plan._report_unit(topic, time) == reference_unit(
                seed, "report", topic, repr(float(time))
            )
        corrupted, injected = plan.corrupt_read_report(topic, entries)
        extras = [
            entry
            for entry in entries
            if reference_unit(seed, "report", topic, repr(float(entry[0])))
            < SPEC.report_duplicate_rate
        ]
        assert corrupted == entries + extras
        assert injected == len(extras)


class TestWorkloadTable:
    def _workload(self):
        return build_fleet_workload(
            FleetScenarioConfig(devices=12, duration=DAY, seed=4)
        )

    def test_shards_share_one_table(self):
        workload = self._workload()
        counts = workload.arrival_counts
        lo_rows = int(counts[:5].sum())
        piece = workload.shard(5, 9)
        drops, _, _ = piece.fault_draws()
        assert len(drops) == int(counts[5:9].sum())
        drops[0] = 0.25
        root_drops, _, _ = workload.fault_draws()
        assert root_drops[lo_rows] == 0.25
        # A second slice of the same rows sees the write too.
        assert workload.shard(5, 9).fault_draws()[0][0] == 0.25

    def test_table_is_allocated_on_first_use(self):
        workload = self._workload()
        piece = workload.shard(0, 6)
        assert workload._draws._cells is None
        piece.fault_draws()
        assert np.isnan(workload._draws._cells).all()

    def test_non_consecutive_ids_get_no_table(self):
        workload = self._workload()
        workload.arrivals.event_ids[-1] += 1
        assert workload.fault_draws() is None
