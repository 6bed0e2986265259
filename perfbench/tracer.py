"""Outside-in layer tracing: wrap each layer's public entry points.

The program carries no spans of its own, so the traced pass patches the
functions at every layer boundary from here, before anything is built,
and removes the patches afterwards. Each wrapper keeps a call stack so
that a layer's *self* time is its span minus the time its wrapped
children took; everything left over is ``other.self_s``.

Two kinds of boundary:

* *coarse* boundaries (workload build, engine run, fold, store, pool,
  single-device runner) fire a handful of times per campaign and record
  a full span — ``(id, name, start, end, parent, run)`` — in memory,
  written out by :meth:`Tracer.write_spans` when the pass ends;
* *hot* boundaries (proxy, queue, device, link calls) fire once per
  simulated event or more, so they only aggregate calls, total and self
  time in place: a span per call would cost more memory than the
  campaign itself.

Module-level functions are patched wherever they are looked up: every
loaded ``repro`` module whose namespace holds the original function
object (``from x import f`` copies) gets the wrapper too. Without that,
``validate.py``'s name-imported ``run_scenario`` would bypass the patch
and the layer would read zero instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Marker attribute set on every installed wrapper.
WRAPPED_MARK = "__perfbench_wrapped__"


@dataclass(frozen=True)
class Boundary:
    """One patched entry point.

    ``target`` is ``module:function`` or ``module:Class.method``;
    ``key`` names the aggregate the calls fold into (several targets may
    share one key, e.g. scalar and fused notify). ``span`` records full
    spans; ``hook`` runs after each call with ``(args, result)`` and
    returns an amount added to the key's work counter. Calls made
    directly under the ``miss_under`` key count as that cache's misses.
    ``events`` (``Simulator.run`` only) adds the events each call fires
    to the work counter.
    """

    target: str
    key: str
    span: bool = False
    hook: Optional[Callable[[tuple, Any], int]] = None
    miss_under: Optional[str] = None
    events: bool = False


def _trace_events(args: tuple, trace: Any) -> int:
    columns = getattr(trace, "_columns", None)
    if columns is not None:
        return int(
            columns.arrivals.times.size
            + columns.reads.times.size
            + columns.outages.starts.size
            + columns.rank_changes.times.size
        )
    return (
        len(trace._arrivals) + len(trace._reads)
        + len(trace._outages) + len(trace._rank_changes)
    )


def _fleet_events(args: tuple, workload: Any) -> int:
    return workload.total_events


def _map_tasks(args: tuple, result: Any) -> int:
    return len(args[1])


#: Every boundary the traced pass patches, outermost layers first.
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("repro.fleet.workload:build_fleet_workload", "workload.fleet_build",
             span=True, hook=_fleet_events),
    Boundary("repro.workload.scenario:build_trace_cached", "workload.trace_cached",
             span=True),
    Boundary("repro.workload.scenario:build_trace", "workload.trace_build",
             span=True, hook=_trace_events, miss_under="workload.trace_cached"),
    Boundary("repro.experiments.runner:run_scenario", "runner.scenario",
             span=True, miss_under="runner.baseline"),
    Boundary("repro.experiments.runner:run_baseline", "runner.baseline", span=True),
    Boundary("repro.experiments.parallel:parallel_map", "parallel.map",
             span=True, hook=_map_tasks),
    Boundary("repro.sim.trace_shm:ShmTraceSet.publish", "parallel.publish", span=True),
    Boundary("repro.fleet.store:SweepStore.append", "store.append", span=True),
    Boundary("repro.fleet.store:SweepStore.rows", "store.rows", span=True),
    Boundary("repro.metrics.streaming:FleetAccumulator.add_shard", "metrics.fold",
             span=True),
    Boundary("repro.metrics.streaming:FleetAccumulator.merge", "metrics.fold",
             span=True),
    Boundary("repro.fleet.runner:_execute_shard", "fleet.shard", span=True),
    Boundary("repro.sim.engine:Simulator.run", "sim.run", span=True, events=True),
    Boundary("repro.faults:FaultPlan.build", "faults.plan_build"),
    Boundary("repro.fleet.batch:ShardBatchDispatcher._pump", "batch.pump"),
    Boundary("repro.proxy.proxy:LastHopProxy.add_binding", "proxy.add_binding"),
    Boundary("repro.proxy.proxy:LastHopProxy.on_notification", "proxy.notify_scalar"),
    Boundary("repro.proxy.proxy:LastHopProxy.notify_batch", "proxy.notify_fused"),
    Boundary("repro.proxy.proxy:LastHopProxy.on_read", "proxy.read_scalar"),
    Boundary("repro.proxy.proxy:LastHopProxy.read_batch", "proxy.read_fused"),
    Boundary("repro.proxy.proxy:LastHopProxy.on_topic_network", "proxy.network"),
    Boundary("repro.proxy.proxy:LastHopProxy.on_network", "proxy.network"),
    Boundary("repro.proxy.proxy:LastHopProxy._do_forward", "proxy.forward"),
    Boundary("repro.proxy.proxy:LastHopProxy._forward_batch", "proxy.forward"),
    Boundary("repro.proxy.queues:RankedQueue.add", "queues.add"),
    Boundary("repro.proxy.queues:RankedQueue.pop_highest", "queues.pop"),
    Boundary("repro.proxy.queues:RankedQueue.top_n", "queues.pop"),
    Boundary("repro.proxy.queues:RankedQueue.remove", "queues.pop"),
    Boundary("repro.device.device:ClientDevice.perform_read", "device.read"),
    Boundary("repro.device.device:ClientDevice.receive", "device.receive"),
    Boundary("repro.device.device:ClientDevice.receive_batch", "device.receive"),
    Boundary("repro.device.link:LastHopLink.deliver", "link.deliver"),
    Boundary("repro.device.link:LastHopLink.deliver_batch", "link.deliver"),
    Boundary("repro.device.link:LastHopLink.set_status", "link.set_status"),
)


class _Stat:
    """Running totals of one aggregate key."""

    __slots__ = ("calls", "total", "self_time", "work", "misses")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work = 0
        self.misses = 0


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for a boundary target."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


class Tracer:
    """Installs the boundary wrappers, aggregates, and restores.

    :meth:`install` patches every boundary and :meth:`restore` puts
    every original attribute back; as a context manager it does both.
    ``run_id`` tags the spans of one pass.
    """

    def __init__(self, boundaries=BOUNDARIES, run_id: str = "run") -> None:
        self.boundaries = tuple(boundaries)
        self.run_id = run_id
        self.stats: Dict[str, _Stat] = {}
        #: Recorded coarse spans: (id, name, start, end, parent id, run id).
        self.spans: List[Tuple[int, str, float, float, int, str]] = []
        # Frame: [child seconds, span id, aggregate key]. The root frame
        # collects the time covered by top-level spans.
        self._stack: List[list] = [[0.0, 0, None]]
        self._next_span = 1
        #: (owner, attribute, original) for every patched site.
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrappers --------------------------------------------------------
    def _wrap(self, fn: Callable, boundary: Boundary) -> Callable:
        stat = self.stats.setdefault(boundary.key, _Stat())
        stack = self._stack
        perf = time.perf_counter
        key = boundary.key

        if not boundary.span and boundary.hook is None and not boundary.miss_under:
            def hot(*args, **kwargs):
                frame = [0.0, 0, key]
                stack.append(frame)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf() - start
                    stack.pop()
                    stack[-1][0] += elapsed
                    stat.calls += 1
                    stat.total += elapsed
                    stat.self_time += elapsed - frame[0]
            wrapper = hot
        else:
            spans = self.spans
            hook = boundary.hook
            miss_under = boundary.miss_under
            run_id = self.run_id
            tracer = self

            def coarse(*args, **kwargs):
                parent = stack[-1]
                span_id = tracer._next_span
                tracer._next_span += 1
                frame = [0.0, span_id, key]
                stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf()
                    elapsed = end - start
                    stack.pop()
                    parent[0] += elapsed
                    stat.calls += 1
                    stat.total += elapsed
                    stat.self_time += elapsed - frame[0]
                    if boundary.span:
                        spans.append((span_id, key, start, end, parent[1], run_id))
                if hook is not None:
                    stat.work += hook(args, result)
                if miss_under is not None and parent[2] == miss_under:
                    stat.misses += 1
                return result
            wrapper = coarse

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _wrap_counting_events(self, fn: Callable, boundary: Boundary) -> Callable:
        """:meth:`_wrap`, plus the simulator events each call fires."""
        inner = self._wrap(fn, boundary)
        stat = self.stats[boundary.key]

        @functools.wraps(fn)
        def run(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return inner(sim, *args, **kwargs)
            finally:
                stat.work += sim.events_processed - before
        setattr(run, WRAPPED_MARK, True)
        return run

    # -- install / restore ----------------------------------------------
    def install(self) -> "Tracer":
        """Patch every boundary; all or nothing."""
        try:
            for boundary in self.boundaries:
                self._install(boundary)
        except BaseException:
            self.restore()
            raise
        return self

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def _install(self, boundary: Boundary) -> None:
        owner, name, original = _resolve(boundary.target)
        if isinstance(owner, type):
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            if boundary.events:
                wrapper = self._wrap_counting_events(fn, boundary)
            else:
                wrapper = self._wrap(fn, boundary)
            setattr(owner, name, classmethod(wrapper) if is_classmethod else wrapper)
            self._patched.append((owner, name, original))
            return
        wrapper = self._wrap(original, boundary)
        # Patch every namespace that holds the same function object:
        # name imports (`from m import f`) are looked up there, not in m.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back, innermost patch first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------
    @property
    def covered(self) -> float:
        """Seconds covered by top-level wrapped spans."""
        return self._stack[0][0]

    def stat(self, key: str) -> _Stat:
        return self.stats.get(key) or _Stat()

    def fired(self) -> Dict[str, int]:
        return {key: stat.calls for key, stat in self.stats.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, run_id in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run_id,
                }) + "\n")


def leftover_wrappers() -> List[str]:
    """Names of wrapper objects still reachable from a ``repro`` module
    or class after a pass — empty when restoration is complete."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{module_name}.{attr}")
            if isinstance(value, type) and value.__module__ == module_name:
                for name, member in list(value.__dict__.items()):
                    inner = getattr(member, "__func__", member)
                    if getattr(inner, WRAPPED_MARK, False):
                        found.append(f"{module_name}.{attr}.{name}")
    return found


#: Layer times that only some workloads reach. They are printed with the
#: rest but kept out of the JSON summary: on the other workloads they
#: read exactly 0 on every run, which a summary must not carry as a time.
PARTIAL_TIMES = frozenset({
    "fleet.wiring_s", "batch.pump_s", "proxy.add_binding_s", "proxy.network_s",
    "link.set_status_s", "faults.plan_build_s", "metrics.fold_s",
    "store.append_s", "store.rows_s", "parallel.publish_s", "parallel.map_s",
    "runner.scenario_s",
})


def layer_metrics(tracer: Tracer, wall: float) -> Dict[str, float]:
    """The per-layer metric set derived from one traced pass."""
    s = tracer.stat
    notify_scalar, notify_fused = s("proxy.notify_scalar"), s("proxy.notify_fused")
    read_scalar, read_fused = s("proxy.read_scalar"), s("proxy.read_fused")
    fused_calls = notify_fused.calls + read_fused.calls
    all_calls = fused_calls + notify_scalar.calls + read_scalar.calls
    cached = s("workload.trace_cached")
    trace_build = s("workload.trace_build")
    baseline = s("runner.baseline")
    scenario = s("runner.scenario")
    fleet_build = s("workload.fleet_build")
    sim_run = s("sim.run")
    return {
        "workload.build_s": fleet_build.self_time + trace_build.self_time
        + cached.self_time,
        "workload.events": fleet_build.work + trace_build.work,
        "workload.trace_cache_hit_ratio": (
            1.0 - trace_build.misses / cached.calls if cached.calls else 0.0
        ),
        "fleet.wiring_s": s("fleet.shard").self_time,
        "proxy.add_binding_s": s("proxy.add_binding").self_time,
        "proxy.add_binding_calls": s("proxy.add_binding").calls,
        "proxy.notify_s": notify_scalar.self_time + notify_fused.self_time,
        "proxy.notify_calls": notify_scalar.calls + notify_fused.calls,
        "proxy.read_s": read_scalar.self_time + read_fused.self_time,
        "proxy.read_calls": read_scalar.calls + read_fused.calls,
        "proxy.network_s": s("proxy.network").self_time,
        "proxy.network_calls": s("proxy.network").calls,
        "proxy.forward_s": s("proxy.forward").self_time,
        "proxy.fused_share": fused_calls / all_calls if all_calls else 0.0,
        "queues.add_calls": s("queues.add").calls,
        "queues.pop_calls": s("queues.pop").calls,
        "queues.op_s": s("queues.add").self_time + s("queues.pop").self_time,
        "batch.pump_s": s("batch.pump").self_time,
        "device.read_s": s("device.read").self_time,
        "device.read_calls": s("device.read").calls,
        "device.receive_s": s("device.receive").self_time,
        "device.receive_calls": s("device.receive").calls,
        "link.deliver_s": s("link.deliver").self_time,
        "link.deliver_calls": s("link.deliver").calls,
        "link.set_status_s": s("link.set_status").self_time,
        "link.set_status_calls": s("link.set_status").calls,
        "sim.run_s": sim_run.total,
        "sim.self_s": sim_run.self_time,
        "sim.events": sim_run.work,
        "faults.plan_build_s": s("faults.plan_build").self_time,
        "faults.plan_build_calls": s("faults.plan_build").calls,
        "metrics.fold_s": s("metrics.fold").self_time,
        "store.append_s": s("store.append").self_time,
        "store.appends": s("store.append").calls,
        "store.rows_s": s("store.rows").self_time,
        "parallel.publish_s": s("parallel.publish").self_time,
        "parallel.map_s": s("parallel.map").self_time,
        "parallel.tasks": s("parallel.map").work,
        "runner.scenario_s": scenario.self_time + baseline.self_time,
        "runner.scenario_calls": scenario.calls,
        "runner.baseline_hit_ratio": (
            1.0 - scenario.misses / baseline.calls if baseline.calls else 0.0
        ),
        "other.self_s": wall - tracer.covered,
    }
