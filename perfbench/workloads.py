"""The benchmark's named workloads: inputs from a seed, run, self-check.

Each workload is one *campaign* through the package's public entry
points (``run_fleet``, ``run_fleet_sweep``, ``validate.run``). A campaign
splits into three phases:

* ``prepare(seed, workdir)`` — config construction and, for the sweep,
  the empty results store. This is set-up, outside the timed region.
* ``run(prepared, jobs)`` — the timed region: workload build, wiring,
  replay, fold and store writes.
* ``judge(prepared, result)`` — output checks and the outcome digest,
  outside the timed region.

The digest hashes only integer simulated statistics, so a change that
claims to alter speed alone must leave it byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Tuple

from repro.experiments import validate
from repro.faults import FaultSpec
from repro.fleet import FleetScenarioConfig, run_fleet
from repro.fleet.store import SweepStore
from repro.fleet.sweep import FleetSweepConfig, parse_policy_token, run_fleet_sweep
from repro.proxy.policies import PolicyConfig
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.reads import ReadConfig
from tracer import Boundary, Tracer

#: Fleet size of ``fleet_default`` (CLI default load: 32 arrivals and
#: 2 reads per device-day).
DEFAULT_DEVICES = 4_000
#: Fleet size of ``fleet_light`` (2 arrivals, 0.5 reads, 10 % downtime).
LIGHT_DEVICES = 20_000
#: Fleet size of every ``sweep_lossy`` cell.
SWEEP_DEVICES = 400
SWEEP_POLICIES = ("online", "on_demand", "buffer:16", "rate", "unified")
#: Virtual days of every ``paper_validate`` single-device run. Shorter
#: horizons fail some claims on some seeds (90 and 120 days: 2 seeds in
#: 100 each); 180 days passed all 100 seeds tried.
VALIDATE_DAYS = 180.0

#: Claims in the validate scorecard; a short scorecard counts the
#: missing claims as failed.
VALIDATE_CLAIMS = len(validate.CHECKS)


@dataclass(frozen=True)
class Outcome:
    """What one campaign produced, as the benchmark judges it."""

    #: Operations attempted: one campaign, one sweep cell, one claim.
    ops: int
    #: Operations that failed their output check.
    failed: int
    #: sha256 of the integer simulated statistics.
    digest: str
    #: Simulated events processed, summed over shards and cells.
    events: int
    #: Simulated devices (device-runs), summed over cells.
    devices: int


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def integer_entries(value: object) -> object:
    """``value`` with every float entry dropped, recursively.

    Floats carry the documented reassociation tolerance across
    ``(shards, jobs)``; integers must be bit-identical.
    """
    if isinstance(value, dict):
        return {
            key: integer_entries(item)
            for key, item in value.items()
            if not isinstance(item, float)
        }
    if isinstance(value, list):
        return [integer_entries(item) for item in value if not isinstance(item, float)]
    return value


# ----------------------------------------------------------------------
# fleet_default / fleet_light
# ----------------------------------------------------------------------
def _fleet_default_config(seed: int) -> FleetScenarioConfig:
    return FleetScenarioConfig(devices=DEFAULT_DEVICES, duration=DAY, seed=seed)


def _fleet_light_config(seed: int) -> FleetScenarioConfig:
    return FleetScenarioConfig(
        devices=LIGHT_DEVICES,
        duration=DAY,
        seed=seed,
        arrivals=ArrivalConfig(events_per_day=2.0),
        reads=ReadConfig(reads_per_day=0.5),
        outages=OutageConfig(downtime_fraction=0.1),
    )


def _fleet_prepare(make_config: Callable[[int], FleetScenarioConfig]):
    def prepare(seed: int, workdir: str) -> Tuple[FleetScenarioConfig, PolicyConfig]:
        return make_config(seed), PolicyConfig.unified()
    return prepare


def _fleet_run(prepared, jobs: int):
    config, policy = prepared
    return run_fleet(config, policy, shards=1, jobs=jobs)


def _fleet_judge(prepared, result) -> Outcome:
    config, _ = prepared
    acc = result.accumulator
    ok = (
        acc.devices == config.devices
        and acc.wasted <= acc.forwarded
        and acc.messages_read <= acc.forwarded
    )
    signature = integer_entries(acc.signature())
    return Outcome(
        ops=1,
        failed=0 if ok else 1,
        digest=digest(signature),
        events=acc.events_processed,
        devices=acc.devices,
    )


# ----------------------------------------------------------------------
# sweep_lossy
# ----------------------------------------------------------------------
@dataclass
class _SweepInputs:
    config: FleetSweepConfig
    store: SweepStore
    path: str


def sweep_config(seed: int) -> FleetSweepConfig:
    return FleetSweepConfig(
        base=FleetScenarioConfig(devices=SWEEP_DEVICES, duration=DAY),
        policies=tuple(parse_policy_token(token) for token in SWEEP_POLICIES),
        # Two campaign seeds per benchmark seed, disjoint across seeds.
        seeds=(2 * seed, 2 * seed + 1),
        faults=FaultSpec.parse("lossy"),
    )


def _sweep_prepare(seed: int, workdir: str) -> _SweepInputs:
    path = os.path.join(workdir, f"sweep-{os.getpid()}.sqlite")
    if os.path.exists(path):
        os.remove(path)
    return _SweepInputs(config=sweep_config(seed), store=SweepStore(path), path=path)


def _sweep_run(prepared: _SweepInputs, jobs: int):
    return run_fleet_sweep(prepared.config, prepared.store, shards=2, jobs=jobs)


def _sweep_judge(prepared: _SweepInputs, outcome) -> Outcome:
    cells = prepared.config.cells()
    stored = {row.cell_key: row for row in prepared.store.rows(outcome.campaign_key)}
    prepared.store.close()
    os.remove(prepared.path)
    missing = sum(1 for cell in cells if cell.key not in stored)
    rows = []
    events = devices = 0
    for key in sorted(stored):
        row = stored[key]
        metrics = json.loads(row.metrics_json)
        events += metrics["events_processed"]
        devices += metrics["devices"]
        rows.append([key, row.policy_name, row.seed, integer_entries(metrics)])
    return Outcome(
        ops=len(cells),
        failed=missing,
        digest=digest(rows),
        events=events,
        devices=devices,
    )


# ----------------------------------------------------------------------
# paper_validate
# ----------------------------------------------------------------------
#: The scorecard returns claim strings only, so its simulated work is
#: counted at the engine: one wrapper call per single-device run, a few
#: dozen per campaign, installed on untraced and traced passes alike.
_ENGINE = Boundary("repro.sim.engine:Simulator.run", "sim.run", events=True)


def _validate_prepare(seed: int, workdir: str) -> validate.ValidateConfig:
    return validate.ValidateConfig(duration=VALIDATE_DAYS * DAY, seed=seed)


def _validate_run(config: validate.ValidateConfig, jobs: int):
    with Tracer(boundaries=(_ENGINE,)) as engine:
        return validate.run(config), engine.stat("sim.run")


def _validate_judge(config: validate.ValidateConfig, result) -> Outcome:
    results, engine = result
    claims = [[r.claim_id, r.measured, r.passed] for r in results]
    ops = max(VALIDATE_CLAIMS, len(results))
    return Outcome(
        ops=ops,
        failed=ops - sum(1 for r in results if r.passed),
        digest=digest(claims),
        events=engine.work,
        devices=engine.calls,
    )


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    #: Worker processes of the first traced pass. Untraced campaigns,
    #: which give the end-to-end metrics, always run inline: two
    #: workers on a 2-vCPU shared host follow whichever vCPU is slower,
    #: and their wall time spread 5-17 % over ten seeds even after the
    #: host-speed adjustment (inline: 3-7 %).
    jobs: int
    #: Operations one campaign attempts.
    ops: int
    prepare: Callable[[int, str], Any]
    run: Callable[[Any, int], Any]
    judge: Callable[[Any, Any], Outcome]
    #: Tracer keys that must fire on the traced pass at ``jobs``
    #: (``parent``) and, for pool workloads, on the ``jobs=1`` pass
    #: that records the in-shard layers (``inner``).
    parent: FrozenSet[str]
    inner: FrozenSet[str] = frozenset()
    #: Campaign seeds per benchmark seed. A run cycles through
    #: ``campaign_seeds(seed)``, one campaign each, and reports the
    #: mean over them of each seed's median.
    seed_window: int = 1

    def campaign_seeds(self, seed: int) -> List[int]:
        """The campaign seeds of benchmark seed ``seed``, disjoint across seeds."""
        return [self.seed_window * seed + i for i in range(self.seed_window)]


#: Layers every fleet campaign goes through. The CLI default load has
#: no outages, so only ``fleet_light`` toggles links.
_FLEET_LAYERS = frozenset({
    "workload.fleet_build", "fleet.shard", "sim.run", "batch.pump",
    "metrics.fold", "proxy.add_binding", "proxy.forward",
    "queues.add", "queues.pop", "device.read", "device.receive",
    "link.deliver",
})
_FUSED = frozenset({"proxy.notify_fused", "proxy.read_fused"})
_OUTAGES = frozenset({"link.set_status", "proxy.network"})

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fleet_default",
            jobs=1,
            ops=1,
            prepare=_fleet_prepare(_fleet_default_config),
            run=_fleet_run,
            judge=_fleet_judge,
            # Reads that find proxy queues non-empty fall back to scalar.
            parent=_FLEET_LAYERS | _FUSED | {"proxy.read_scalar"},
        ),
        Workload(
            name="fleet_light",
            jobs=1,
            ops=1,
            prepare=_fleet_prepare(_fleet_light_config),
            run=_fleet_run,
            judge=_fleet_judge,
            parent=_FLEET_LAYERS | _FUSED | _OUTAGES,
        ),
        Workload(
            name="sweep_lossy",
            jobs=2,
            ops=2 * len(SWEEP_POLICIES),
            prepare=_sweep_prepare,
            run=_sweep_run,
            judge=_sweep_judge,
            # A campaign's events, and with them its time, move a few
            # per cent with its seeds; two campaign seeds per run.
            seed_window=2,
            parent=frozenset({
                "workload.fleet_build", "parallel.map", "parallel.publish",
                "store.append", "store.rows", "metrics.fold",
            }),
            # Every binding carries a fault plan: the scalar path only.
            inner=(_FLEET_LAYERS - {"workload.fleet_build"})
            | {"faults.plan_build", "proxy.notify_scalar", "proxy.read_scalar"},
        ),
        Workload(
            name="paper_validate",
            jobs=1,
            ops=VALIDATE_CLAIMS,
            prepare=_validate_prepare,
            run=_validate_run,
            judge=_validate_judge,
            # One scorecard's cost depends on its seed's outage pattern
            # (time in RankedQueue iteration over long backlogs): the
            # middle half of 20 seeds spreads 11 % of the median. Six
            # scorecard seeds per benchmark seed cut that by ~2.4.
            seed_window=6,
            parent=frozenset({
                "workload.trace_cached", "workload.trace_build",
                "runner.scenario", "runner.baseline", "sim.run",
                "proxy.notify_scalar", "proxy.read_scalar", "proxy.network",
                "proxy.forward", "queues.add", "queues.pop", "device.read",
                "device.receive", "link.deliver", "link.set_status",
            }),
        ),
    )
}
