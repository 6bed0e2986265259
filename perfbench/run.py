"""Benchmark driver: repeat one workload's campaign, each in a fresh process.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_default --seed 0 --seconds 20 --trace 0

It starts campaigns (``campaign.py``) one after another until
``--seconds`` have passed, checks every campaign's outputs and that all
campaigns of the seed agree on the outcome digest, prints every metric
by name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, their times adjusted for
the host's speed (``hostspeed.py``); ``--trace 1`` alternates
untraced and traced campaigns and reports the per-layer metrics and the
tracing overhead instead. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional

from hostspeed import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CAMPAIGN = os.path.join(HERE, "campaign.py")

#: Campaigns per untraced run, at least, whatever ``--seconds`` says.
MIN_CAMPAIGNS = 3
#: A run stops starting campaigns once this much time has gone, so the
#: whole run ends inside its 180 s budget.
HARD_STOP_S = 120.0
#: Per-campaign subprocess timeout.
CAMPAIGN_TIMEOUT_S = 150.0

END_TO_END = ("wall_s", "us_per_event", "us_per_device", "peak_rss_mb", "setup_s")
#: Layer-metric prefixes a pool workload takes from its ``jobs=1``
#: traced pass: wrappers do not follow work into pool workers.
IN_SHARD = ("fleet.", "proxy.", "queues.", "batch.", "device.", "link.", "sim.",
            "faults.", "metrics.")


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.startswith("us_per_"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


class CampaignError(RuntimeError):
    """A campaign process failed, timed out, or printed no result."""


def run_campaign(
    workload: str, seed: int, jobs: int, trace: bool, workdir: str,
    timeout: float, spans: Optional[str] = None,
) -> dict:
    """Run one campaign in a fresh interpreter; returns its report.

    ``setup_s`` runs from just before the process is started to the
    moment its inputs are ready: interpreter start, imports, config
    construction and, for the sweep, the empty store.
    """
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, CAMPAIGN, "--workload", workload, "--seed", str(seed),
        "--jobs", str(jobs), "--trace", "1" if trace else "0", "--workdir", workdir,
    ]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise CampaignError(f"{workload} campaign did not finish in {timeout:.0f} s")
    except BaseException:
        _kill_group(proc)
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CampaignError(
            f"{workload} campaign exited {proc.returncode}: {err.strip()[-2000:]}"
        )
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    report["seed"] = seed
    return report


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill a campaign and its pool workers, which share its process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def judge(campaigns: List[Optional[dict]], expected_ops: int) -> Dict[str, int]:
    """Attempted and failed operations over one run's campaigns.

    A campaign that crashed (``None``) fails all ``expected_ops`` of its
    operations. A campaign whose digest differs from the most common
    digest of the run's campaigns with the same seed fails all of its
    operations too.
    """
    digests: Dict[Optional[int], collections.Counter] = collections.defaultdict(
        collections.Counter
    )
    for c in campaigns:
        if c is not None:
            digests[c.get("seed")][c["digest"]] += 1
    consensus = {seed: count.most_common(1)[0][0] for seed, count in digests.items()}
    attempted = failed = 0
    for campaign in campaigns:
        if campaign is None:
            attempted += expected_ops
            failed += expected_ops
            continue
        attempted += campaign["ops"]
        if (
            campaign["digest"] != consensus[campaign.get("seed")]
            or not campaign.get("trace_ok", True)
        ):
            failed += campaign["ops"]
        else:
            failed += campaign["failed"]
    return {"attempted": attempted, "failed": failed}


def speed_scale(campaign: dict) -> float:
    """``NOMINAL_S`` over the campaign's mean reference-slice time.

    Multiplying a campaign's host seconds by it gives the seconds they
    would read on the reference host (see ``hostspeed.py``).
    """
    return NOMINAL_S / campaign["slice_s"]


def end_to_end(campaigns: Iterable[dict]) -> Dict[str, List[float]]:
    """Per-campaign samples of every end-to-end metric.

    Times are speed-adjusted: host seconds scaled by ``speed_scale``.
    """
    samples: Dict[str, List[float]] = {name: [] for name in END_TO_END}
    for c in campaigns:
        scale = speed_scale(c)
        wall = (c["wall_s"] - c["slice_total_s"]) * scale
        samples["wall_s"].append(wall)
        samples["us_per_event"].append(wall * 1e6 / c["events"])
        samples["us_per_device"].append(wall * 1e6 / c["devices"])
        samples["peak_rss_mb"].append(c["peak_rss_mb"])
        samples["setup_s"].append(c["setup_s"] * scale)
    return samples


def host_figures(campaigns: Iterable[dict]) -> Dict[str, List[float]]:
    """Unadjusted host seconds and the reference time, for the text lines."""
    samples: Dict[str, List[float]] = {"raw_wall_s": [], "raw_setup_s": [], "slice_s": []}
    for c in campaigns:
        samples["raw_wall_s"].append(c["wall_s"])
        samples["raw_setup_s"].append(c["setup_s"])
        samples["slice_s"].append(c["slice_s"])
    return samples


def trace_checks(workload, traced: dict, inner: dict) -> List[str]:
    """Problems with one traced pair: bypassed or leftover wrappers."""
    problems = []
    for report, expected, label in (
        (traced, workload.parent, f"jobs={workload.jobs}"),
        (inner, workload.inner, "jobs=1"),
    ):
        silent = sorted(k for k in expected if not report["fired"].get(k))
        if silent:
            problems.append(f"{label}: wrappers never fired: {', '.join(silent)}")
        if report["leftover"]:
            problems.append(f"{label}: wrappers left installed: {report['leftover']}")
    return problems


def layer_sample(plain: dict, traced: dict, inner: dict) -> Dict[str, float]:
    """Per-layer figures of one untraced/traced round.

    The tracing overhead compares the untraced campaign with the traced
    one at the same ``jobs=1``.
    """
    layers = dict(traced["layers"])
    if inner is not traced:
        for name, value in inner["layers"].items():
            if name.startswith(IN_SHARD):
                layers[name] = value
    plain_wall = plain["wall_s"] - plain["slice_total_s"]
    layers["trace.overhead_s"] = inner["wall_s"] - plain_wall
    layers["trace.overhead_share"] = layers["trace.overhead_s"] / plain_wall
    return layers


def window_value(seeds: List[int], values: List[float]) -> float:
    """The reported value: each campaign seed's median, averaged over seeds.

    With one seed per run this is the median over the run's campaigns.
    """
    by_seed: Dict[int, List[float]] = collections.defaultdict(list)
    for seed, value in zip(seeds, values):
        by_seed[seed].append(value)
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def describe(name: str, value: float, values: List[float]) -> str:
    return (
        f"{name:32s} {value:.6g} {unit_of(name)}"
        f"  min {min(values):.6g}  max {max(values):.6g}  n={len(values)}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no package source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from tracer import PARTIAL_TIMES
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    start = time.monotonic()
    seeds = workload.campaign_seeds(args.seed)
    # One more campaign than seeds, so that one seed's digest repeats.
    min_campaigns = max(MIN_CAMPAIGNS, len(seeds) + 1)
    campaigns: List[Optional[dict]] = []
    layer_samples: List[Dict[str, float]] = []
    layer_seeds: List[int] = []
    problems: List[str] = []

    def campaign(seed: int, jobs: int, trace: bool, tag: str = "") -> Optional[dict]:
        remaining = CAMPAIGN_TIMEOUT_S - (time.monotonic() - start)
        spans = None
        if trace:
            spans = os.path.join(
                out_dir, f"spans-{args.workload}-seed{seed}-{tag}.jsonl"
            )
        try:
            report = run_campaign(
                args.workload, seed, jobs, trace, workdir,
                max(remaining, 1.0), spans,
            )
        except CampaignError as exc:
            problems.append(str(exc))
            report = None
        campaigns.append(report)
        return report

    try:
        for round_index in itertools.count():
            seed = seeds[round_index % len(seeds)]
            plain = campaign(seed, 1, False)
            if args.trace and plain is not None:
                traced = campaign(seed, workload.jobs, True, f"j{workload.jobs}")
                inner = traced
                if traced is not None and workload.jobs > 1:
                    inner = campaign(seed, 1, True, "j1")
                if traced is not None and inner is not None:
                    issues = trace_checks(workload, traced, inner)
                    if issues:
                        problems.extend(issues)
                        traced["trace_ok"] = False
                    layer_samples.append(layer_sample(plain, traced, inner))
                    layer_seeds.append(seed)
            elapsed = time.monotonic() - start
            if problems or elapsed >= HARD_STOP_S:
                break
            rounds = len(layer_samples) if args.trace else len(campaigns)
            if elapsed >= args.seconds and (args.trace or rounds >= min_campaigns):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts = judge(campaigns, workload.ops)
    ok = [c for c in campaigns if c is not None]
    if args.trace:
        names = sorted({name for sample in layer_samples for name in sample})
        samples = {n: [s[n] for s in layer_samples if n in s] for n in names}
        sample_seeds = {n: [q for s, q in zip(layer_samples, layer_seeds) if n in s]
                        for n in names}
        text_only: Dict[str, List[float]] = {}
    else:
        timed = [c for c in ok if c["events"] and c["devices"]]
        samples = end_to_end(timed)
        text_only = host_figures(timed)
        sample_seeds = {n: [c["seed"] for c in timed] for n in list(samples) + list(text_only)}
    values = {
        name: window_value(sample_seeds[name], v)
        for name, v in list(samples.items()) + list(text_only.items()) if v
    }
    for name, v in list(samples.items()) + list(text_only.items()):
        if v:
            print(describe(name, values[name], v))
    print(f"{'failed_fraction':32s} {counts['failed']}/{counts['attempted']}")
    digests: Dict[int, List[str]] = {}
    for c in ok:
        digests.setdefault(c["seed"], [])
        if c["digest"] not in digests[c["seed"]]:
            digests[c["seed"]].append(c["digest"])
    for seed, found in digests.items():
        print(f"{'digest seed ' + str(seed):32s} {' '.join(d[:16] for d in found)}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    reported = [name for name in samples if name not in PARTIAL_TIMES]
    correct = (
        not problems and counts["failed"] == 0
        and all(len(found) <= 1 for found in digests.values())
        and bool(reported) and all(samples[name] for name in reported)
    )
    metrics = {
        name: {"value": values[name], "unit": unit_of(name)}
        for name in reported if samples[name]
    }
    print(json.dumps({
        "correct": correct,
        "attempted": max(counts["attempted"], 1),
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
