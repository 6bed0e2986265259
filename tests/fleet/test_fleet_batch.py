"""Differential suite: batched fleet dispatch vs the scalar oracle.

``use_batch=True`` routes a shard through :class:`ShardBatchDispatcher`
(columnar state, one merged batch stream, fused fast paths);
``use_batch=False`` replays the identical workload through the scalar
per-event callbacks. The two modes must be *bit-identical* on every
integer metric — the batched path is an optimization, never an
approximation — and, with identical sharding, on the float sums too
(same devices folded in the same order).

The matrix here sweeps (policy x fault preset x seed) and checks that
faulted bindings really take the fused path, then covers the rich
workload features the fused gates must punt on (expiring arrivals, rank
changes, thresholds, link latency), retries parked across outages,
partitioning knobs, and — via hypothesis — randomly drawn heterogeneity
configs. A final class pins the columnar write-through invariants with
:meth:`FleetColumns.verify_sync` at end of run.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.device.link import LastHopLink
from repro.fleet import FleetScenarioConfig, run_fleet
from repro.fleet.batch import ShardBatchDispatcher
from repro.fleet.runner import device_topic
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.sim.rng import derive_seed
from repro.types import NetworkStatus
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.ranks import RankChangeConfig
from repro.workload.reads import ReadConfig

POLICIES = {
    "buffer": lambda: PolicyConfig.buffer(prefetch_limit=4),
    "on_demand": PolicyConfig.on_demand,
    "online": PolicyConfig.online,
    "rate": PolicyConfig.rate,
    "unified": PolicyConfig.unified,
}

PRESETS = [None, "lossy", "reliable", "chaos"]


def _both_signatures(config, policy, *, spec=None, link_latency=0.0):
    batch = run_fleet(
        config, policy, faults=spec, link_latency=link_latency, use_batch=True
    ).accumulator
    scalar = run_fleet(
        config, policy, faults=spec, link_latency=link_latency, use_batch=False
    ).accumulator
    return batch, scalar


def _record_fused_topics(monkeypatch):
    """Collect the topic of every binding ``notify_batch`` serves."""
    fused = set()
    original = LastHopProxy.notify_batch

    def spy(proxy, state, *args):
        fused.add(state.topic)
        return original(proxy, state, *args)

    monkeypatch.setattr(LastHopProxy, "notify_batch", spy)
    return fused


def _crash_free_topics(config, spec):
    """Topics of the devices whose fault plan schedules no crash."""
    return {
        device_topic(d)
        for d in range(config.devices)
        if not faults.FaultPlan.build(
            spec, derive_seed(config.seed, f"device-{d}"), config.duration
        ).crash_times
    }


def _assert_identical(batch, scalar):
    # Same partitioning, same device order: even the float sums must
    # agree bitwise, not just the integer counters.
    assert batch.signature() == scalar.signature()
    assert batch.describe() == scalar.describe()


class TestDifferentialMatrix:
    """(policy x fault preset x seed): bit-for-bit equality."""

    @pytest.mark.parametrize(
        "policy_name,preset,seed",
        list(itertools.product(sorted(POLICIES), PRESETS, [0, 7])),
    )
    def test_batch_matches_scalar(
        self, policy_name, preset, seed, monkeypatch
    ):
        spec = faults.FaultSpec.parse(preset) if preset else None
        config = FleetScenarioConfig(devices=120, duration=DAY, seed=seed)
        fused = _record_fused_topics(monkeypatch)
        batch, scalar = _both_signatures(
            config, POLICIES[policy_name](), spec=spec
        )
        _assert_identical(batch, scalar)
        if spec is not None and policy_name != "rate":
            # Every binding carries a fault plan here; the differential
            # check above is only meaningful if some of them fused.
            # RATE arrivals never fuse, and a crash schedule keeps its
            # binding on the scalar path.
            assert fused
            assert fused <= _crash_free_topics(config, spec)


class TestRichWorkloads:
    """Workload features that exercise the scalar-fallback gates."""

    def _rich_config(self, **overrides):
        base = dict(
            devices=100,
            duration=DAY,
            seed=3,
            threshold=1.5,
            arrivals=ArrivalConfig(events_per_day=6.0, expiring_fraction=0.5),
            reads=ReadConfig(reads_per_day=2.0),
            outages=OutageConfig(downtime_fraction=0.3),
            rank_changes=RankChangeConfig(
                drop_fraction=0.2, boost_fraction=0.2
            ),
        )
        base.update(overrides)
        return FleetScenarioConfig(**base)

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_expiring_changes_threshold(self, policy_name):
        batch, scalar = _both_signatures(
            self._rich_config(), POLICIES[policy_name]()
        )
        _assert_identical(batch, scalar)

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_expiring_arrivals_lossy(self, policy_name):
        batch, scalar = _both_signatures(
            self._rich_config(),
            POLICIES[policy_name](),
            spec=faults.FaultSpec.parse("lossy"),
        )
        _assert_identical(batch, scalar)

    def test_rank_churn_with_faults(self):
        batch, scalar = _both_signatures(
            self._rich_config(),
            PolicyConfig.unified(),
            spec=faults.FaultSpec.parse("chaos"),
        )
        _assert_identical(batch, scalar)

    def test_link_latency_disables_fusion_not_correctness(self):
        """A latent link unfuses the whole shard; results still match."""
        batch, scalar = _both_signatures(
            self._rich_config(rank_changes=RankChangeConfig()),
            PolicyConfig.unified(),
            link_latency=3.0,
        )
        _assert_identical(batch, scalar)


class TestParkedRetries:
    """Retries that fire during an outage park at the link and must
    resume, before the listeners, when it comes back up."""

    def test_fused_reconnect_resumes_parked_retries(self, monkeypatch):
        config = FleetScenarioConfig(
            devices=60,
            duration=DAY,
            seed=5,
            outages=OutageConfig(downtime_fraction=0.4, outages_per_day=4.0),
        )
        # Heavy loss and a long backoff: most retries land in an outage.
        spec = faults.FaultSpec(
            loss_rate=0.6, retry_base=600.0, retry_cap=3600.0
        )
        captured = {}
        original_register = ShardBatchDispatcher.register_streams

        def capture(dispatcher):
            captured["dispatcher"] = dispatcher
            return original_register(dispatcher)

        # UP transitions that met every fused-reconnect gate except an
        # empty parked list.
        parked_ups = []
        original_set_status = LastHopLink.set_status

        def spy(link, status):
            dispatcher = captured.get("dispatcher")
            if (
                dispatcher is not None
                and status is NetworkStatus.UP
                and not link.up
                and link._parked
            ):
                d = dispatcher.links.index(link)
                cols = dispatcher.cols
                if (
                    dispatcher.statics[d]
                    and not cols.scalar_only[d]
                    and not cols.offline_reads[d]
                ):
                    parked_ups.append(d)
            return original_set_status(link, status)

        monkeypatch.setattr(ShardBatchDispatcher, "register_streams", capture)
        monkeypatch.setattr(LastHopLink, "set_status", spy)
        batch = run_fleet(
            config, PolicyConfig.unified(), faults=spec, use_batch=True
        ).accumulator
        captured.clear()
        scalar = run_fleet(
            config, PolicyConfig.unified(), faults=spec, use_batch=False
        ).accumulator
        _assert_identical(batch, scalar)
        assert parked_ups
        assert batch.counters["delivery_retries"] > 0


class TestPartitioning:
    """The dispatch knob composes with shards/jobs transparently."""

    @pytest.mark.parametrize("shards,jobs", [(3, 1), (4, 2)])
    def test_sharded_batch_matches_unsharded_scalar(self, shards, jobs):
        config = FleetScenarioConfig(devices=60, duration=DAY, seed=11)
        reference = run_fleet(
            config, PolicyConfig.unified(), use_batch=False
        ).accumulator.signature()
        sharded = run_fleet(
            config,
            PolicyConfig.unified(),
            shards=shards,
            jobs=jobs,
            use_batch=True,
        ).accumulator.signature()
        ref_float = reference.pop("read_delay_sum")
        cand_float = sharded.pop("read_delay_sum")
        assert sharded == reference
        assert abs(cand_float - ref_float) <= 1e-9 * max(
            1.0, abs(ref_float)
        )


# One strategy per heterogeneity axis; hypothesis shrinks toward the
# plain config, so failures minimize to the single feature that broke.
_CONFIGS = st.fixed_dictionaries(
    {
        "events_per_day": st.floats(min_value=0.5, max_value=8.0),
        "expiring_fraction": st.floats(min_value=0.0, max_value=1.0),
        "reads_per_day": st.floats(min_value=0.1, max_value=4.0),
        "downtime": st.floats(min_value=0.0, max_value=0.9),
        "threshold": st.floats(min_value=0.0, max_value=3.0),
        "drop_fraction": st.floats(min_value=0.0, max_value=0.4),
        "boost_fraction": st.floats(min_value=0.0, max_value=0.4),
        "seed": st.integers(min_value=0, max_value=10_000),
        "policy": st.sampled_from(sorted(POLICIES)),
    }
)


class TestHypothesisHeterogeneity:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_CONFIGS)
    def test_random_heterogeneity_batch_matches_scalar(self, drawn):
        config = FleetScenarioConfig(
            devices=25,
            duration=DAY,
            seed=drawn["seed"],
            threshold=drawn["threshold"],
            arrivals=ArrivalConfig(
                events_per_day=drawn["events_per_day"],
                expiring_fraction=drawn["expiring_fraction"],
            ),
            reads=ReadConfig(reads_per_day=drawn["reads_per_day"]),
            outages=OutageConfig(downtime_fraction=drawn["downtime"]),
            rank_changes=RankChangeConfig(
                drop_fraction=drawn["drop_fraction"],
                boost_fraction=drawn["boost_fraction"],
            ),
        )
        batch, scalar = _both_signatures(config, POLICIES[drawn["policy"]]())
        _assert_identical(batch, scalar)


class TestColumnSync:
    """The columnar mirror must match the authoritative objects."""

    def _captured_dispatcher(self, monkeypatch, config, policy, spec=None):
        """Run one shard, capturing the dispatcher and skipping the
        teardown that would clear the state it mirrors."""
        import repro.fleet.runner as runner_mod
        from repro.fleet.workload import build_fleet_workload

        captured = {}
        original = ShardBatchDispatcher.register_streams

        def capture(dispatcher):
            captured["dispatcher"] = dispatcher
            return original(dispatcher)

        monkeypatch.setattr(
            ShardBatchDispatcher, "register_streams", capture
        )
        monkeypatch.setattr(
            runner_mod, "_dismantle_shard", lambda *args: None
        )
        workload = build_fleet_workload(config)
        runner_mod._execute_shard(workload, policy, spec, use_batch=True)
        return captured["dispatcher"]

    def test_columns_in_sync_at_end_of_run(self, monkeypatch):
        self._assert_in_sync(monkeypatch, None)

    def test_columns_in_sync_at_end_of_lossy_run(self, monkeypatch):
        self._assert_in_sync(monkeypatch, faults.FaultSpec.parse("lossy"))

    def _assert_in_sync(self, monkeypatch, spec):
        config = FleetScenarioConfig(
            devices=80,
            duration=DAY,
            seed=2,
            arrivals=ArrivalConfig(events_per_day=4.0, expiring_fraction=0.4),
            reads=ReadConfig(reads_per_day=1.0),
            outages=OutageConfig(downtime_fraction=0.3),
        )
        dispatcher = self._captured_dispatcher(
            monkeypatch, config, PolicyConfig.unified(), spec
        )
        # Without crashes every binding, faulted or not, can fuse, so
        # the whole shard is checked.
        assert all(dispatcher.statics)
        violations = dispatcher.cols.verify_sync(
            dispatcher.states, dispatcher.devices, dispatcher.topics
        )
        assert violations == []

    def test_no_rank_changes_skips_publication_tracking(self, monkeypatch):
        """The history/tracker fast-path gate reflects the workload."""
        plain = FleetScenarioConfig(devices=10, duration=DAY, seed=0)
        dispatcher = self._captured_dispatcher(
            monkeypatch, plain, PolicyConfig.unified()
        )
        assert dispatcher.track_publications is False

        churn = FleetScenarioConfig(
            devices=10,
            duration=DAY,
            seed=0,
            rank_changes=RankChangeConfig(drop_fraction=0.3),
        )
        dispatcher = self._captured_dispatcher(
            monkeypatch, churn, PolicyConfig.unified()
        )
        assert dispatcher.track_publications is True
