"""Self-tests of the benchmark harness (run: pytest perfbench/tests)."""

from __future__ import annotations

import os
import signal
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from repro.experiments import validate  # noqa: E402
from repro.experiments.figures.common import scenario  # noqa: E402
from repro.fleet import build_fleet_workload  # noqa: E402
from repro.units import DAY  # noqa: E402
from repro.workload.scenario import build_trace  # noqa: E402

SMALL = 40


def _small_fleet(make_config, seed):
    return make_config(seed).with_changes(devices=SMALL)


def _arrival_times(config):
    return build_fleet_workload(config).arrivals.times


def test_seed_changes_fleet_inputs():
    for make_config in (workloads._fleet_default_config, workloads._fleet_light_config):
        same = [_arrival_times(_small_fleet(make_config, 7)) for _ in range(2)]
        assert np.array_equal(same[0], same[1])
        other = _arrival_times(_small_fleet(make_config, 8))
        assert not np.array_equal(same[0], other)


def test_seed_changes_sweep_and_validate_inputs():
    keys = [{cell.key for cell in workloads.sweep_config(seed).cells()} for seed in (0, 0, 1)]
    assert keys[0] == keys[1]
    assert not keys[0] & keys[2]
    traces = [
        build_trace(scenario(duration=2 * DAY), seed=config.seed).columns.arrivals.times
        for config in (workloads._validate_prepare(seed, BENCH) for seed in (3, 3, 4))
    ]
    assert np.array_equal(traces[0], traces[1])
    assert not np.array_equal(traces[0], traces[2])


def _report(digest, ops=1, failed=0, seed=0):
    return {"digest": digest, "ops": ops, "failed": failed, "seed": seed}


def test_perturbed_digest_counts_as_failed():
    campaigns = [_report("a", ops=8), _report("a", ops=8), _report("b", ops=8)]
    assert run.judge(campaigns, expected_ops=8) == {"attempted": 24, "failed": 8}


def test_digests_are_compared_within_a_seed():
    campaigns = [
        _report("a", ops=8, seed=4), _report("b", ops=8, seed=5),
        _report("a", ops=8, seed=4), _report("c", ops=8, seed=4),
    ]
    assert run.judge(campaigns, expected_ops=8) == {"attempted": 32, "failed": 8}


def test_campaign_seeds_are_disjoint_windows():
    validate_workload = workloads.WORKLOADS["paper_validate"]
    windows = [set(validate_workload.campaign_seeds(seed)) for seed in range(3)]
    assert all(len(w) == validate_workload.seed_window for w in windows)
    assert not windows[0] & windows[1] and not windows[1] & windows[2]
    assert workloads.WORKLOADS["fleet_default"].campaign_seeds(7) == [7]


def test_value_is_the_mean_of_seed_medians():
    assert run.window_value([0, 0, 0], [1.0, 5.0, 2.0]) == 2.0
    assert run.window_value([0, 1, 0, 1], [1.0, 4.0, 3.0, 4.0]) == 3.0


def _burn(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_sampler_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGPROF)
    sampler = hostspeed.Sampler()
    with sampler:
        _burn(0.35)
    assert len(sampler.slices) >= 2
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    report = sampler.report()
    assert report["slices"] == len(sampler.slices)
    assert report["slice_total_s"] == sum(sampler.slices)
    assert min(sampler.slices) <= report["slice_s"] <= max(sampler.slices)


def test_crash_and_bad_trace_count_as_failed():
    bad_trace = dict(_report("a", ops=10), trace_ok=False)
    campaigns = [_report("a", ops=10), None, bad_trace]
    assert run.judge(campaigns, expected_ops=10) == {"attempted": 30, "failed": 20}


def test_own_check_failures_are_counted():
    campaigns = [_report("a", ops=8, failed=1), _report("a", ops=8, failed=1)]
    assert run.judge(campaigns, expected_ops=8) == {"attempted": 16, "failed": 2}


def _patch_sites():
    """Every (owner, attribute) -> object a boundary may patch."""
    sites = {}
    for boundary in tracing.BOUNDARIES:
        owner, name, original = tracing._resolve(boundary.target)
        if isinstance(owner, type):
            sites[(owner, name)] = original
            continue
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and module is not None:
                for attr, value in vars(module).items():
                    if value is original:
                        sites[(module, attr)] = original
    return sites


def _fleet_campaign():
    prepared = (
        _small_fleet(workloads._fleet_light_config, 1),
        workloads.PolicyConfig.unified(),
    )
    return workloads._fleet_judge(prepared, workloads._fleet_run(prepared, 1))


def test_traced_pass_restores_every_wrapped_attribute():
    before = _patch_sites()
    untraced = _fleet_campaign()
    with tracing.Tracer() as tracer:
        traced = _fleet_campaign()
        # validate.py imports run_scenario by name: the patch must reach it.
        validate._check_fig1_formula(validate.ValidateConfig(duration=2 * DAY))
    fired = tracer.fired()
    assert fired["sim.run"] >= 1
    assert fired["proxy.add_binding"] == SMALL
    assert fired["runner.scenario"] >= 1
    assert traced.digest == untraced.digest
    after = _patch_sites()
    assert after.keys() == before.keys()
    assert all(after[site] is before[site] for site in before)
    assert tracing.leftover_wrappers() == []


def test_layer_metrics_add_up_to_wall():
    with tracing.Tracer() as tracer:
        _fleet_campaign()
    metrics = tracing.layer_metrics(tracer, wall=tracer.covered + 0.5)
    assert abs(metrics["other.self_s"] - 0.5) < 1e-9
    self_times = sum(
        value for name, value in metrics.items()
        if name.endswith("_s") and name not in ("sim.run_s", "other.self_s")
    )
    assert abs(self_times - tracer.covered) < 1e-6


def test_campaign_past_its_timeout_is_killed(tmp_path):
    start = time.monotonic()
    try:
        run.run_campaign("fleet_light", 0, 1, False, str(tmp_path), timeout=0.5)
    except run.CampaignError:
        pass
    else:
        raise AssertionError("a campaign past its timeout must raise")
    assert time.monotonic() - start < 5.0
