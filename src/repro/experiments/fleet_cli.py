"""``repro-lasthop fleet`` — run a fleet campaign from the command line.

One proxy process serving thousands of heterogeneous devices, optionally
sharded across worker processes. Results are invariant to ``--shards``
and ``--jobs`` (integer metrics bit-identical, float sums up to
reassociation), so the knobs are pure throughput levers.

Examples::

    repro-lasthop fleet --devices 10000
    repro-lasthop fleet --devices 100000 --shards 8 --jobs 4
    repro-lasthop fleet --devices 10000 --faults lossy --audit
    repro-lasthop fleet --devices 1000 --policy rate --days 7 --format json

``repro-lasthop fleet sweep`` runs whole campaign grids into a results
store; see :mod:`repro.experiments.fleet_sweep_cli`. ``repro-lasthop
fleet tune`` adaptively searches one policy preset's parameter space
through the same store; see :mod:`repro.experiments.fleet_tune_cli`.

All three share this module's scaffold: :func:`add_campaign_arguments`
declares their common scenario, execution and output flags,
:func:`scenario_overrides` applies the scenario flags to a base config,
:func:`parse_campaign_args` turns every flag error into a usage error
(rc 2), and :func:`run_and_emit` writes the output and turns a typed
runtime error into one ``error:`` line (rc 2). Each CLI adds only its
own flags and rendering, and passes its fault spec explicitly instead
of installing a process-wide one.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple, TypeVar

from repro import faults, obs
from repro.errors import ConfigurationError, ExportError
from repro.faults import FaultSpec
from repro.fleet import FleetScenarioConfig, run_fleet
from repro.fleet.sweep import parse_policy_token
from repro.proxy.policies import PolicyConfig
from repro.units import DAY
from repro.workload.arrivals import ArrivalConfig
from repro.workload.outages import OutageConfig
from repro.workload.reads import ReadConfig

#: Sentinel for bare ``--profile`` (summary to stderr, no stats file).
_PROFILE_STDERR = Path("-")

#: Functions shown in the ``--profile`` cumulative-time summary.
_PROFILE_TOP_N = 25

T = TypeVar("T")


def _fault_spec(text: str) -> Optional[FaultSpec]:
    """Parse a ``--faults`` value; a null spec means no faults (None).

    Normalizing here keeps ``--faults none`` the same run, and the same
    sweep and tune store keys, as omitting the flag.
    """
    try:
        spec = FaultSpec.parse(text)
    except ConfigurationError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return None if spec.is_null else spec


def add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the flags every fleet campaign CLI shares.

    The scenario flags default to None, meaning "keep the base
    config's value" (:func:`scenario_overrides`).
    """
    parser.add_argument("--devices", type=int, default=None,
                        help="fleet size (default 1000)")
    parser.add_argument("--days", type=float, default=None,
                        help="virtual run length in days (default 1)")
    parser.add_argument("--events-per-day", type=float, default=None,
                        help="mean notification arrivals per device-day")
    parser.add_argument("--reads-per-day", type=float, default=None,
                        help="mean user reads per device-day")
    parser.add_argument("--downtime", type=float, default=None,
                        help="target per-device downtime fraction in [0, 1]")
    parser.add_argument("--threshold", type=float, default=None,
                        help="subscription rank threshold (default 0)")
    parser.add_argument("--shards", type=int, default=1,
                        help=(
                            "device partitions (default 1); sweep and tune "
                            "stores stay bit-identical only at fixed shards"
                        ))
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for shards (0 = one per CPU)")
    parser.add_argument("--faults", type=_fault_spec, default=None,
                        metavar="SPEC",
                        help=(
                            "fault preset name "
                            f"({', '.join(sorted(faults.PRESETS))}) or a JSON "
                            "FaultSpec object, hashed per-device"
                        ))
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="output format (default: text)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the output to this file instead of stdout")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines on stderr")


def scenario_overrides(
    args: argparse.Namespace, base: FleetScenarioConfig
) -> FleetScenarioConfig:
    """``base`` with the scenario flags that were given applied."""
    overrides: dict = {}
    if args.devices is not None:
        overrides["devices"] = args.devices
    if args.days is not None:
        overrides["duration"] = args.days * DAY
    if args.threshold is not None:
        overrides["threshold"] = args.threshold
    if args.events_per_day is not None:
        overrides["arrivals"] = ArrivalConfig(events_per_day=args.events_per_day)
    if args.reads_per_day is not None:
        overrides["reads"] = ReadConfig(reads_per_day=args.reads_per_day)
    if args.downtime is not None:
        overrides["outages"] = OutageConfig(downtime_fraction=args.downtime)
    return base.with_changes(**overrides)


def parse_campaign_args(
    parser: argparse.ArgumentParser,
    argv: Optional[List[str]],
    build: Callable[[argparse.Namespace], T],
) -> Tuple[argparse.Namespace, T]:
    """Parse ``argv``, check the shared flags and ``build`` the campaign.

    ``build`` checks the CLI's own flags and returns its validated
    campaign config. A ConfigurationError from either exits through
    ``parser.error`` (rc 2), like argparse's own usage errors.
    """
    args = parser.parse_args(argv)
    try:
        if args.devices is not None and args.devices < 1:
            raise ConfigurationError("--devices must be >= 1")
        if args.days is not None and args.days <= 0:
            raise ConfigurationError("--days must be positive")
        if args.shards < 1:
            raise ConfigurationError("--shards must be >= 1")
        if args.jobs < 0:
            raise ConfigurationError("--jobs must be >= 0 (0 = one per CPU)")
        return args, build(args)
    except ConfigurationError as error:
        parser.error(str(error))


def _emit(text: str, output: Optional[Path]) -> None:
    """Print or write the output; OSError becomes a typed ExportError."""
    if output is None:
        print(text)
        return
    try:
        output.write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise ExportError(f"cannot write output to {output}: {exc}") from exc


def run_and_emit(args: argparse.Namespace, produce: Callable[[], str]) -> int:
    """Run ``produce`` and emit its text to stdout or ``--output``.

    A ConfigurationError or ExportError on the way (a refused store, an
    unwritable ``--output``) prints one ``error:`` line and returns 2:
    a campaign can run for an hour before it fails, and that must end
    on the CLI's clean error path, not a raw traceback.
    """
    try:
        _emit(produce(), args.output)
    except (ConfigurationError, ExportError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lasthop fleet",
        description=(
            "Run one last-hop proxy against a whole fleet of simulated "
            "devices; metrics stream into O(shards) accumulators."
        ),
    )
    add_campaign_arguments(parser)
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--policy", default="unified",
                        help=(
                            "proxy policy preset: online, on_demand, rate, "
                            "unified or buffer:N (default: unified)"
                        ))
    parser.add_argument("--audit", type=int, nargs="?", const=1, default=None,
                        metavar="N",
                        help=(
                            "audit proxy invariants every N transitions "
                            "(bare --audit audits every one)"
                        ))
    parser.add_argument("--dispatch", choices=["batch", "scalar"],
                        default="batch",
                        help=(
                            "event dispatch mode: columnar batched shards "
                            "(default) or the scalar per-event oracle they "
                            "are checked against"
                        ))
    parser.add_argument("--profile", type=Path, nargs="?", const=_PROFILE_STDERR,
                        default=None, metavar="FILE",
                        help=(
                            "profile the campaign with cProfile; with FILE, "
                            "dump raw stats there (for snakeviz/pstats), and "
                            "always print the top functions by cumulative "
                            "time to stderr. Profiles the parent process "
                            "only — use --jobs 1 for full coverage"
                        ))
    parser.add_argument("--no-timing", action="store_true",
                        help=(
                            "omit wall-clock fields from the output so two "
                            "runs of the same campaign compare byte-for-byte"
                        ))
    return parser


def _fleet_campaign(
    args: argparse.Namespace,
) -> Tuple[FleetScenarioConfig, PolicyConfig]:
    if args.audit is not None and args.audit < 1:
        raise ConfigurationError("--audit interval must be >= 1")
    config = scenario_overrides(args, FleetScenarioConfig(seed=args.seed))
    config.validate()
    return config, parse_policy_token(args.policy).policy


def _render_json(result, elapsed: Optional[float]) -> str:
    acc = result.accumulator
    payload = {
        "devices": acc.devices,
        "shards": result.shards,
        "jobs": result.jobs,
        "events_processed": acc.events_processed,
        "forwarded": acc.forwarded,
        "messages_read": acc.messages_read,
        "wasted": acc.wasted,
        "waste": acc.waste,
        "mean_read_age": acc.mean_read_age,
        "read_age_p50": acc.read_delay_sketch.percentile(0.5),
        "read_age_p95": acc.read_delay_sketch.percentile(0.95),
        "read_age_p99": acc.read_delay_sketch.percentile(0.99),
        "final_proxy_queued": acc.final_proxy_queued,
        "final_device_queued": acc.final_device_queued,
        "counters": {k: v for k, v in sorted(acc.counters.items())},
    }
    if elapsed is not None:
        payload["elapsed_seconds"] = round(elapsed, 3)
    return json.dumps(payload, indent=2, sort_keys=True)


def _run(
    args: argparse.Namespace, config: FleetScenarioConfig, policy: PolicyConfig
) -> str:
    """Run the campaign (under ``--profile``) and render its summary."""
    profiler = cProfile.Profile() if args.profile is not None else None
    started = time.time()
    if profiler is not None:
        profiler.enable()
    try:
        result = run_fleet(
            config,
            policy,
            shards=args.shards,
            jobs=args.jobs,
            faults=args.faults,
            use_batch=args.dispatch == "batch",
        )
    finally:
        if profiler is not None:
            profiler.disable()
    elapsed = time.time() - started

    if profiler is not None:
        if args.profile != _PROFILE_STDERR:
            profiler.dump_stats(args.profile)
            print(f"  [profile stats written to {args.profile}]", file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats(pstats.SortKey.CUMULATIVE)
        stats.print_stats(_PROFILE_TOP_N)

    if not args.quiet:
        rate = config.devices / elapsed if elapsed > 0 else float("inf")
        print(
            f"  [fleet: {config.devices} devices x {config.duration / DAY:g} "
            f"day(s), {args.shards} shard(s), policy={args.policy}, "
            f"{elapsed:.1f} s = {rate:,.0f} devices/s]",
            file=sys.stderr,
        )

    if args.format == "json":
        return _render_json(result, None if args.no_timing else elapsed)
    return result.describe()


def main(argv: Optional[List[str]] = None) -> int:
    # `sweep`/`tune` are subcommands with their own flag sets; route
    # before the single-campaign parser so their flags never collide.
    args_list = sys.argv[1:] if argv is None else list(argv)
    if args_list and args_list[0] == "sweep":
        from repro.experiments.fleet_sweep_cli import main as sweep_main

        return sweep_main(args_list[1:])
    if args_list and args_list[0] == "tune":
        from repro.experiments.fleet_tune_cli import main as tune_main

        return tune_main(args_list[1:])

    args, (config, policy) = parse_campaign_args(
        build_parser(), args_list, _fleet_campaign
    )
    if args.audit is not None:
        obs.configure(obs.ObsConfig(audit_interval=args.audit))
    try:
        return run_and_emit(args, lambda: _run(args, config, policy))
    except obs.InvariantViolation as error:
        print(f"invariant audit failed:\n{error}", file=sys.stderr)
        return 2
    finally:
        if args.audit is not None:
            obs.configure(None)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
