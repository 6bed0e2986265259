"""Parallel experiment execution.

Every figure of the paper is a grid of independent ``(x, seed)`` paired
runs — each builds its own trace, simulator, and statistics, so the grid
is embarrassingly parallel. This module fans such grids across a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping the output
**deterministic**: results are merged in submission order, so a parallel
run is bit-for-bit identical to the serial one (same floats, same
ordering), only faster.

Design constraints, and how they are met:

* **Picklable work items.** Sweep callers pass arbitrary callables
  (``make_config`` / ``make_policy`` are often lambdas), which do not
  pickle. The engine therefore evaluates those factories in the parent
  and ships only frozen dataclasses across the process boundary:
  a :class:`PairedTask` carries the built :class:`ScenarioConfig` and
  :class:`PolicyConfig`; the compact :class:`PairedOutcome` comes back.
* **Deterministic merge.** Futures are submitted in grid order and
  harvested in that same order; stragglers simply make the harvest
  block, never reorder it.
* **Shared per-scenario work.** The paper runs "two scenarios for each
  randomized set of discrete events", but a policy sweep evaluates many
  policies against one scenario — re-running the identical on-line
  baseline for every cell. :func:`run_pair_grid` therefore groups the
  grid by ``(ScenarioConfig, seed)`` into :class:`ScenarioBatchTask`
  units: a worker builds the trace once, runs the baseline once, and
  evaluates every policy variant of the group against that cached
  baseline — roughly halving simulated runs for policy sweeps. Outcomes
  are scattered back into grid order, so the result (and the streaming
  ``on_result`` order) is bit-for-bit identical to per-cell execution.
* **No rebuilt traces.** Workers build traces through
  :func:`repro.workload.scenario.build_trace_cached`, so the baseline
  and policy runs of a pair — and every policy variant sweeping against
  a fixed scenario — share one trace per ``(config, seed)``. When the
  parent has configured an on-disk cache (:mod:`repro.sim.trace_cache`,
  the CLI's ``--trace-cache``), a pool initializer forwards it so all
  workers — and later invocations — share built traces across process
  boundaries too.
* **Chunked submission.** Many small tasks are shipped per future
  (``chunksize``), amortizing pickling/IPC overhead and keeping
  contiguous grid cells on the same worker — which is exactly what the
  per-process trace and baseline LRUs want to see.
* **Same-process fallback.** ``jobs=1`` (the default everywhere) runs
  the exact same worker function inline, with no executor, no pickling,
  and streaming results.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults, obs
from repro.experiments.runner import run_baseline, run_paired, run_scenario
from repro.metrics.waste_loss import pair_metrics
from repro.proxy.policies import PolicyConfig
from repro.sim import trace_cache, trace_shm
from repro.workload.scenario import ScenarioConfig, build_trace_cached

#: Upper bound on automatic chunk sizes: keeps the in-order harvest
#: streaming results at a reasonable cadence even on huge grids.
MAX_AUTO_CHUNK: int = 32


def resolve_jobs(jobs: Optional[int], tasks: int) -> int:
    """Number of worker processes to actually use.

    ``None`` or a non-positive value means "one per CPU"; the result is
    clamped to the task count so small grids never spawn idle workers.
    """
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, tasks))


def resolve_chunksize(chunksize: Optional[int], tasks: int, workers: int) -> int:
    """Tasks shipped per future. ``None`` picks an automatic size.

    The automatic size aims at ~4 chunks per worker (enough slack for
    stragglers to rebalance) and never exceeds :data:`MAX_AUTO_CHUNK`.
    """
    if chunksize is not None:
        return max(1, chunksize)
    if workers <= 1:
        return 1
    return max(1, min(MAX_AUTO_CHUNK, -(-tasks // (workers * 4))))


def _worker_init(
    trace_cache_dir: Optional[str],
    obs_config: Optional["obs.ObsConfig"] = None,
    fault_spec: Optional["faults.FaultSpec"] = None,
    shm_traces: Optional[Dict[str, str]] = None,
) -> None:
    """Process-pool initializer: inherit the parent's process-wide setup.

    Worker processes start with fresh module state, so the parent's
    :func:`repro.sim.trace_cache.configure` call would otherwise not
    reach them — and every worker would regenerate traces the disk
    cache already holds. The observability configuration rides along
    for the same reason: an ``--audit`` run must audit inside every
    worker, not just the parent (each worker gets its own ring buffer
    and transition counter; an invariant violation raised in a worker
    propagates through the future exactly like any other error). The
    fault spec (``--faults``) likewise: a lossy sweep must inject the
    same faults whether a cell runs inline or in a worker.

    ``shm_traces`` maps trace content keys to shared-memory segment
    names the parent published (:mod:`repro.sim.trace_shm`); workers
    attach those columns zero-copy instead of rebuilding the trace.
    """
    trace_cache.configure(trace_cache_dir)
    obs.configure(obs_config)
    faults.configure(fault_spec)
    trace_shm.configure(shm_traces)


def _run_chunk(fn: Callable[..., Any], chunk: Sequence[Tuple[Any, ...]]) -> List[Any]:
    """Worker: evaluate a contiguous slice of the task grid."""
    return [fn(*task) for task in chunk]


def parallel_map(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    jobs: Optional[int] = 1,
    on_result: Optional[Callable[[int, Any], None]] = None,
    chunksize: Optional[int] = None,
    shm_traces: Optional[Dict[str, str]] = None,
) -> List[Any]:
    """Evaluate ``fn(*task)`` for every task, optionally across processes.

    Results come back as a list in task order regardless of completion
    order — the deterministic merge the figure pipeline depends on.
    ``on_result(index, value)`` is invoked in task order as results
    become available (progress reporting); with ``jobs=1`` it streams
    after each task, with workers it streams as the in-order harvest
    advances.

    When ``jobs`` exceeds 1, ``fn`` must be a module-level function and
    every task element picklable. ``chunksize`` tasks ship per future
    (``None`` = automatic, see :func:`resolve_chunksize`): fewer, fatter
    futures amortize pickling/IPC, and contiguous cells landing on one
    worker keeps its per-process trace/baseline caches warm.

    ``shm_traces`` (key→segment name) is forwarded to every worker's
    initializer so published traces attach zero-copy; inline execution
    ignores it (the parent already holds the traces).
    """
    tasks = [task if isinstance(task, tuple) else (task,) for task in tasks]
    effective = resolve_jobs(jobs, len(tasks))
    results: List[Any] = []
    if effective <= 1:
        for index, task in enumerate(tasks):
            value = fn(*task)
            results.append(value)
            if on_result is not None:
                on_result(index, value)
        return results
    chunk = resolve_chunksize(chunksize, len(tasks), effective)
    chunks = [tasks[start : start + chunk] for start in range(0, len(tasks), chunk)]
    cache_dir = trace_cache.active_dir()
    with ProcessPoolExecutor(
        max_workers=effective,
        initializer=_worker_init,
        initargs=(
            None if cache_dir is None else str(cache_dir),
            obs.active_config(),
            faults.active_spec(),
            shm_traces,
        ),
    ) as pool:
        futures = [pool.submit(_run_chunk, fn, part) for part in chunks]
        index = 0
        for future in futures:
            for value in future.result():
                results.append(value)
                if on_result is not None:
                    on_result(index, value)
                index += 1
    return results


@dataclass(frozen=True)
class PairedTask:
    """One picklable ``(x, seed)`` cell of a sweep grid.

    The scenario and policy are fully built in the parent (factories may
    be lambdas), so the worker only replays frozen configuration.
    """

    x: float
    seed: int
    config: ScenarioConfig
    policy: PolicyConfig


@dataclass(frozen=True)
class PairedOutcome:
    """Compact picklable result of one paired run."""

    x: float
    seed: int
    waste: float
    loss: float
    forwarded: int
    messages_read: int


@dataclass(frozen=True)
class BatchCell:
    """One sweep cell inside a :class:`ScenarioBatchTask`.

    ``index`` is the cell's position in the original task grid, used to
    scatter batched outcomes back into grid order.
    """

    index: int
    x: float
    seed: int
    policy: PolicyConfig


@dataclass(frozen=True)
class ScenarioBatchTask:
    """Every cell of a sweep grid that shares one ``(config, seed)``.

    A worker builds the trace once, runs the on-line baseline once, and
    evaluates each cell's policy against that shared baseline.
    """

    config: ScenarioConfig
    seed: int
    cells: Tuple[BatchCell, ...]


def group_paired_tasks(tasks: Sequence[PairedTask]) -> List[ScenarioBatchTask]:
    """Group grid cells by ``(ScenarioConfig, seed)``, preserving order.

    Batches appear in order of each scenario's first occurrence in the
    grid; cells within a batch keep grid order. A policy sweep (fixed
    scenario, varying policy) collapses to one batch per seed; a
    scenario sweep degenerates to single-cell batches, which execute
    exactly like the per-cell path.
    """
    groups: "OrderedDict[Tuple[ScenarioConfig, int], List[BatchCell]]" = OrderedDict()
    for index, task in enumerate(tasks):
        cell = BatchCell(index=index, x=task.x, seed=task.seed, policy=task.policy)
        groups.setdefault((task.config, task.seed), []).append(cell)
    return [
        ScenarioBatchTask(config=config, seed=seed, cells=tuple(cells))
        for (config, seed), cells in groups.items()
    ]


def execute_pair(task: PairedTask) -> PairedOutcome:
    """Worker: run one paired (baseline, policy) cell of a sweep grid."""
    with obs.PROBES.phase("trace-build"):
        trace = build_trace_cached(task.config, seed=task.seed)
    result = run_paired(trace, task.policy, threshold=task.config.threshold)
    metrics = result.metrics
    return PairedOutcome(
        x=task.x,
        seed=task.seed,
        waste=metrics.waste,
        loss=metrics.loss,
        forwarded=metrics.forwarded,
        messages_read=metrics.messages_read,
    )


def execute_batch(batch: ScenarioBatchTask) -> Tuple[PairedOutcome, ...]:
    """Worker: run every cell of one scenario batch against one baseline.

    The trace is built (or fetched) once, the on-line baseline simulated
    once, and each policy variant compared against it — identical
    arithmetic to ``run_paired`` per cell, minus the redundant baseline
    re-executions.
    """
    with obs.PROBES.phase("trace-build"):
        trace = build_trace_cached(batch.config, seed=batch.seed)
    threshold = batch.config.threshold
    baseline = run_baseline(trace, threshold=threshold)
    outcomes = []
    for cell in batch.cells:
        with obs.PROBES.phase("variant"):
            candidate = run_scenario(trace, cell.policy, threshold=threshold)
        metrics = pair_metrics(baseline.stats, candidate.stats)
        outcomes.append(
            PairedOutcome(
                x=cell.x,
                seed=cell.seed,
                waste=metrics.waste,
                loss=metrics.loss,
                forwarded=metrics.forwarded,
                messages_read=metrics.messages_read,
            )
        )
    return tuple(outcomes)


def publish_grid_traces(
    tasks: Sequence[PairedTask], jobs: Optional[int]
) -> Optional[trace_shm.ShmTraceSet]:
    """Build and publish the grid's traces for zero-copy worker attach.

    Returns None when the grid will run inline (nothing to hand off).
    The parent builds each unique ``(config, seed)`` trace once — via
    :func:`build_trace_cached`, so its own LRU and any disk cache are
    honoured — and publishes the columns to shared memory. The caller
    owns the returned set and must ``unlink()`` it (or use it as a
    context manager) once the pool has drained.
    """
    if resolve_jobs(jobs, len(tasks)) <= 1:
        return None
    fault_spec = faults.active_spec()
    shm_set = trace_shm.ShmTraceSet()
    try:
        for task in tasks:
            key = trace_cache.trace_key(task.config, task.seed, faults=fault_spec)
            if key in shm_set.mapping:
                continue
            with obs.PROBES.phase("trace-build"):
                trace = build_trace_cached(task.config, seed=task.seed)
            shm_set.publish(key, trace)
    except Exception:
        shm_set.unlink()
        raise
    return shm_set


class FleetWorkloadCache:
    """Small LRU of built fleet workloads, keyed by scenario config.

    The sweep layer never needs this — its scenario-major cell order
    visits each ``(scenario, seed)`` group exactly once. The tune layer
    (:mod:`repro.fleet.tune`) does: every search round re-evaluates
    candidates against the *same* seeded scenarios, and the vectorized
    workload build is the only per-evaluation cost that does not depend
    on the policy. One cache entry per campaign seed makes repeat
    visits free, which is what the evaluations-per-second bench pins.

    ``FleetScenarioConfig`` is frozen and hashable, so the config is
    its own key; entries evict least-recently-used beyond ``maxsize``.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self.builds = 0
        self.hits = 0

    def get(self, config):
        """The built workload for ``config``, building on first use."""
        from repro.fleet.workload import build_fleet_workload

        entry = self._entries.get(config)
        if entry is not None:
            self._entries.move_to_end(config)
            self.hits += 1
            return entry
        workload = build_fleet_workload(config)
        self.builds += 1
        self._entries[config] = workload
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
        return workload


def run_fleet_policy_batch(
    workload,
    policies: Sequence[PolicyConfig],
    shards: int = 1,
    jobs: Optional[int] = 1,
    fault_spec: Optional["faults.FaultSpec"] = None,
    link_latency: float = 0.0,
    use_batch: bool = True,
):
    """Execute several policy variants over ONE fleet workload's shards.

    The fleet analogue of :class:`ScenarioBatchTask`: a sweep evaluates
    many policies against one ``(scenario, seed)`` cell, and the
    expensive shared work — the vectorized workload build (done by the
    caller, once) and the shard-column shared-memory publication (done
    here, once) — must not be repeated per policy. Returns one folded
    :class:`~repro.metrics.streaming.FleetAccumulator` per policy, in
    ``policies`` order.

    The workload (a :class:`repro.fleet.workload.FleetWorkload`) is
    sliced into contiguous device ranges. Inline (``jobs<=1``) each
    slice runs sequentially on its own simulator; with workers, each
    slice's columns are published to shared memory
    (:mod:`repro.sim.trace_shm` — the same segment format as grid
    traces) exactly once and every policy's shard tasks attach them
    zero-copy. Per policy, shard accumulators merge in shard order, so
    the folded results are deterministic; device outcomes are
    independent, so each is also invariant to ``(shards, jobs)`` up to
    documented float reassociation.

    ``use_batch`` selects between the columnar batched dispatcher and
    the scalar per-event path (its differential oracle); it travels to
    workers inside each task.

    Fleet imports stay inside the function: :mod:`repro.fleet.runner`
    imports this module at import time, so importing it here at module
    level would be circular.
    """
    from repro.fleet.runner import _execute_shard, _execute_shard_from_shm
    from repro.fleet.workload import shard_bounds
    from repro.metrics.streaming import FleetAccumulator

    policies = list(policies)
    if not policies:
        return []
    spec = fault_spec if fault_spec is not None else faults.active_spec()
    bounds = shard_bounds(workload.devices, shards)
    effective = resolve_jobs(jobs, len(bounds) * len(policies))
    if effective <= 1:
        totals = []
        for policy in policies:
            total = FleetAccumulator()
            for lo, hi in bounds:
                piece = workload if (lo, hi) == (0, workload.devices) else (
                    workload.shard(lo, hi)
                )
                total.merge(
                    _execute_shard(piece, policy, spec, link_latency, use_batch)
                )
            totals.append(total)
        return totals

    shm_set = trace_shm.ShmTraceSet()
    try:
        segments = []
        for s, (lo, hi) in enumerate(bounds):
            piece = workload.shard(lo, hi)
            key = f"fleet-shard-{s}"
            shm_set.publish(key, piece.to_trace())
            segments.append((key, lo, hi))
        tasks = [
            (
                key, lo, hi, workload.config, policy, spec, link_latency,
                use_batch,
            )
            # Policy-major: each policy's shards are contiguous, so the
            # in-order harvest below folds them without buffering.
            for policy in policies
            for key, lo, hi in segments
        ]
        results = parallel_map(
            _execute_shard_from_shm,
            tasks,
            jobs=effective,
            # One shard per future: shards are already the coarse unit.
            chunksize=1,
            shm_traces=dict(shm_set.mapping),
        )
    finally:
        shm_set.unlink()
    totals = []
    harvest = iter(results)
    for _ in policies:
        total = FleetAccumulator()
        for _ in bounds:
            total.merge(next(harvest))
        totals.append(total)
    return totals


def run_fleet_shards(
    workload,
    policy: PolicyConfig,
    shards: int = 1,
    jobs: Optional[int] = 1,
    fault_spec: Optional["faults.FaultSpec"] = None,
    link_latency: float = 0.0,
    use_batch: bool = True,
):
    """Execute a fleet workload across shards; fold into one accumulator.

    The single-policy face of :func:`run_fleet_policy_batch` — see
    there for the sharding, handoff, and determinism contract.
    """
    return run_fleet_policy_batch(
        workload,
        [policy],
        shards=shards,
        jobs=jobs,
        fault_spec=fault_spec,
        link_latency=link_latency,
        use_batch=use_batch,
    )[0]


def run_pair_grid(
    tasks: Sequence[PairedTask],
    jobs: Optional[int] = 1,
    on_result: Optional[Callable[[int, PairedOutcome], None]] = None,
    group: bool = True,
    chunksize: Optional[int] = None,
) -> List[PairedOutcome]:
    """Run a grid of paired cells; outcomes in task order.

    With ``group`` (the default) the grid executes as scenario batches
    (:func:`group_paired_tasks`), sharing one trace build and one
    baseline run per ``(config, seed)``. Results — including the
    streaming ``on_result(index, outcome)`` order — are bit-for-bit
    identical to the per-cell path (``group=False``); grouping only
    removes redundant, deterministic re-computation.

    With workers, the parent publishes every unique trace of the grid
    to shared memory first (:func:`publish_grid_traces`); workers attach
    the columns zero-copy instead of rebuilding. Attached columns are
    byte-identical to a local build, so outcomes do not depend on the
    handoff path.
    """
    tasks = list(tasks)
    shm_set = publish_grid_traces(tasks, jobs)
    shm_traces = None if shm_set is None else dict(shm_set.mapping)
    try:
        if not group:
            return parallel_map(
                execute_pair,
                [(task,) for task in tasks],
                jobs=jobs,
                on_result=on_result,
                chunksize=chunksize,
                shm_traces=shm_traces,
            )
        batches = group_paired_tasks(tasks)
        results: List[Optional[PairedOutcome]] = [None] * len(tasks)
        emitted = 0

        def _scatter(batch_index: int, outcomes: Tuple[PairedOutcome, ...]) -> None:
            # Batches harvest in submission order; once every batch covering
            # the next grid index has landed, stream the contiguous prefix.
            nonlocal emitted
            with obs.PROBES.phase("scatter"):
                for cell, outcome in zip(batches[batch_index].cells, outcomes):
                    results[cell.index] = outcome
                while emitted < len(results) and results[emitted] is not None:
                    if on_result is not None:
                        on_result(emitted, results[emitted])
                    emitted += 1

        parallel_map(
            execute_batch,
            [(batch,) for batch in batches],
            jobs=jobs,
            on_result=_scatter,
            chunksize=chunksize,
            shm_traces=shm_traces,
        )
        return results  # type: ignore[return-value]
    finally:
        if shm_set is not None:
            shm_set.unlink()
