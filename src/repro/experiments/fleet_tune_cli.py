"""``repro-lasthop fleet tune`` — adaptive policy auto-tuning campaigns.

Searches one policy preset's parameter space against a fleet scenario
(:mod:`repro.fleet.tune`: successive halving over seed replicates, then
coordinate refinement), routing every evaluation through the sweep
results store so campaigns are resumable and best-known variants are
regression-tracked across PRs::

    repro-lasthop fleet tune --store results.sqlite --devices 1000 \\
        --preset unified --int-param initial_prefetch_limit=1:64 \\
        --int-param ma_window=2:40 --choice delay=0,60,600 \\
        --seeds 0 1 2 --screen-seeds 1 --budget 64

The objective is scalarized waste-vs-loss (``--loss-weight``), or
constrained waste minimization with ``--loss-budget``. A killed
campaign (or one stopped by ``--max-evals``) resumes with ``--resume``
and reproduces the uninterrupted run's store rows and incumbent
trajectory byte for byte at fixed ``--shards``, for any ``--jobs``.

``--report --baseline OLD.sqlite`` skips the search and diffs this
store's best-known variants against a baseline store (the committed
fixture in CI); ``--fail-on-regression`` turns any regressed family
into a non-zero exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.fleet_cli import (
    add_campaign_arguments,
    parse_campaign_args,
    run_and_emit,
    scenario_overrides,
)
from repro.fleet.config import FleetScenarioConfig
from repro.fleet.store import SweepStore, dump_rows
from repro.fleet.sweep import SWEEP_POLICY_PRESETS
from repro.fleet.tune import (
    TuneConfig,
    TuneObjective,
    TuneOutcome,
    TuneParam,
    diff_best,
    render_report_json,
    render_report_text,
    run_fleet_tune,
    trajectory_jsonl,
)
from repro.experiments.fleet_sweep_cli import parse_json_values

#: Space used when no --param/--int-param/--choice flags are given: the
#: unified policy's initial prefetch limit and moving-average window.
DEFAULT_SPACE: Tuple[TuneParam, ...] = (
    TuneParam("initial_prefetch_limit", lo=1, hi=64, integer=True),
    TuneParam("ma_window", lo=2, hi=40, integer=True),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lasthop fleet tune",
        description=(
            "Adaptively tune a policy preset's parameters against a fleet "
            "scenario, through a resumable results store with best-known-"
            "variant regression tracking."
        ),
    )
    parser.add_argument("--store", type=Path, required=True, metavar="PATH",
                        help="sqlite results store (created if missing)")
    # Report mode.
    parser.add_argument("--report", action="store_true",
                        help=(
                            "skip the search; diff this store's best-known "
                            "variants against --baseline (--store must exist)"
                        ))
    parser.add_argument("--baseline", type=Path, default=None, metavar="PATH",
                        help="baseline store for --report (must exist)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when --report finds a regressed family")
    add_campaign_arguments(parser)
    # Parameter space.
    parser.add_argument("--preset", type=str, default="unified",
                        choices=sorted(SWEEP_POLICY_PRESETS) + ["buffer"],
                        help="policy preset whose parameters are tuned")
    parser.add_argument("--param", action="append", default=[],
                        metavar="NAME=LO:HI",
                        help=(
                            "continuous range over one preset constructor "
                            "argument; repeatable"
                        ))
    parser.add_argument("--int-param", action="append", default=[],
                        metavar="NAME=LO:HI",
                        help="integer range; repeatable")
    parser.add_argument("--choice", action="append", default=[],
                        metavar="NAME=V1,V2,...",
                        help="discrete JSON values; repeatable")
    # Objective.
    parser.add_argument("--loss-weight", type=float, default=10.0,
                        help=(
                            "lambda of the weighted objective "
                            "waste + lambda*loss (default 10)"
                        ))
    parser.add_argument("--loss-budget", type=float, default=None,
                        metavar="FRACTION",
                        help=(
                            "constraint mode: minimize waste subject to "
                            "loss <= FRACTION"
                        ))
    # Search knobs.
    parser.add_argument("--seeds", type=int, nargs="+", default=None,
                        help="full replicate seed set (default: 0 1 2)")
    parser.add_argument("--screen-seeds", type=int, default=1, metavar="N",
                        help=(
                            "seeds of the cheap screening prefix "
                            "(default 1)"
                        ))
    parser.add_argument("--samples", type=int, default=8,
                        help="round-0 candidates (default 8)")
    parser.add_argument("--survivors", type=int, default=2,
                        help="candidates promoted to the full seed set")
    parser.add_argument("--refine-rounds", type=int, default=2,
                        help="coordinate-refinement rounds (default 2)")
    parser.add_argument("--refine-shrink", type=float, default=0.5,
                        help="per-round step shrink factor (default 0.5)")
    parser.add_argument("--budget", type=int, default=None, metavar="N",
                        help=(
                            "max logical evaluations — (candidate, seed) "
                            "pairs, computed or replayed (default: "
                            "unlimited)"
                        ))
    parser.add_argument("--search-seed", type=int, default=0,
                        help="seed of the candidate sampler (default 0)")
    parser.add_argument("--resume", action="store_true",
                        help="replay cells the store already holds")
    parser.add_argument("--max-evals", type=int, default=None, metavar="N",
                        help=(
                            "stop after N newly computed cells (campaign "
                            "stays resumable)"
                        ))
    parser.add_argument("--dump-rows", action="store_true",
                        help=(
                            "emit the campaign's rows as sorted canonical "
                            "JSONL instead of the summary"
                        ))
    parser.add_argument("--trajectory", action="store_true",
                        help=(
                            "emit the incumbent trajectory as canonical "
                            "JSONL instead of the summary"
                        ))
    return parser


def _parse_range(raw: str, *, integer: bool) -> TuneParam:
    """Parse one ``--param``/``--int-param`` flag: ``NAME=LO:HI``."""
    name, sep, rest = raw.partition("=")
    name = name.strip()
    lo_raw, colon, hi_raw = rest.partition(":")
    if not sep or not name or not colon:
        raise ConfigurationError(
            f"parameter must be NAME=LO:HI, got {raw!r}"
        )
    try:
        if integer:
            lo: float = int(lo_raw)
            hi: float = int(hi_raw)
        else:
            lo = float(lo_raw)
            hi = float(hi_raw)
    except ValueError:
        raise ConfigurationError(
            f"parameter {name!r} bounds must be "
            f"{'integers' if integer else 'numbers'}, got {rest!r}"
        ) from None
    return TuneParam(name=name, lo=lo, hi=hi, integer=integer)


def _parse_choice(raw: str) -> TuneParam:
    """Parse one ``--choice`` flag: ``NAME=V1,V2,...`` (JSON values)."""
    name, values = parse_json_values(raw, "choice", "NAME")
    return TuneParam(name=name, choices=tuple(values))


def build_tune_config(args: argparse.Namespace) -> TuneConfig:
    space: List[TuneParam] = []
    for raw in args.param:
        space.append(_parse_range(raw, integer=False))
    for raw in args.int_param:
        space.append(_parse_range(raw, integer=True))
    for raw in args.choice:
        space.append(_parse_choice(raw))
    if not space:
        space = list(DEFAULT_SPACE)

    return TuneConfig(
        base=scenario_overrides(args, FleetScenarioConfig()),
        space=tuple(space),
        preset=args.preset,
        objective=TuneObjective(
            loss_weight=args.loss_weight, loss_budget=args.loss_budget
        ),
        seeds=tuple(args.seeds) if args.seeds is not None else (0, 1, 2),
        screen_seeds=args.screen_seeds,
        samples=args.samples,
        survivors=args.survivors,
        refine_rounds=args.refine_rounds,
        refine_shrink=args.refine_shrink,
        budget=args.budget,
        search_seed=args.search_seed,
        faults=args.faults,
    )


def render_outcome_text(outcome: TuneOutcome) -> str:
    """Human-readable campaign summary."""
    lines = [
        f"tune campaign {outcome.campaign_key[:12]} "
        f"(family {outcome.family_key[:12]}):",
        f"  objective: {outcome.config.objective.describe()}",
        f"  evaluations: {outcome.evaluations} logical "
        f"({outcome.computed} cells computed, {outcome.reused} replayed "
        f"from the store)",
    ]
    if outcome.interrupted:
        lines.append(
            "  interrupted by --max-evals; rerun with --resume to continue"
        )
    elif outcome.incumbent is None:
        lines.append("  no incumbent (campaign produced no checkpoint)")
    else:
        inc = outcome.incumbent
        seeds = ",".join(map(str, inc.seeds))
        lines.append(f"  incumbent: {inc.name}")
        lines.append(
            f"  incumbent objective: {inc.objective:.6f} over seeds {seeds}"
        )
        if outcome.exhausted:
            lines.append("  budget exhausted before the schedule finished")
        lines.append(
            "  best-known variant: "
            + ("updated" if outcome.best_recorded
               else "kept (stored one is no worse)")
        )
    if outcome.trajectory:
        lines.append("  trajectory:")
        for point in outcome.trajectory:
            lines.append(
                f"    [{point.evaluations:>4}] {point.phase:<24} "
                f"{point.objective:.6f}  {point.variant_key}"
            )
    return "\n".join(lines)


def render_outcome_json(outcome: TuneOutcome) -> str:
    """JSON campaign summary (stable key order)."""
    incumbent = None
    if outcome.incumbent is not None:
        incumbent = {
            "name": outcome.incumbent.name,
            "params": json.loads(outcome.incumbent.params_json),
            "policy": json.loads(outcome.incumbent.policy_json),
            "objective": outcome.incumbent.objective,
            "seeds": list(outcome.incumbent.seeds),
        }
    payload = {
        "campaign_key": outcome.campaign_key,
        "family_key": outcome.family_key,
        "objective_spec": outcome.config.objective.describe(),
        "evaluations": outcome.evaluations,
        "computed": outcome.computed,
        "reused": outcome.reused,
        "exhausted": outcome.exhausted,
        "interrupted": outcome.interrupted,
        "best_recorded": outcome.best_recorded,
        "incumbent": incumbent,
        "trajectory": [
            json.loads(point.as_json()) for point in outcome.trajectory
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _checked_tune_config(args: argparse.Namespace) -> Optional[TuneConfig]:
    """The validated search config, or None in ``--report`` mode."""
    if args.report:
        if args.baseline is None:
            raise ConfigurationError("--report requires --baseline")
        return None
    if args.baseline is not None:
        raise ConfigurationError("--baseline only makes sense with --report")
    if args.max_evals is not None and args.max_evals < 1:
        raise ConfigurationError("--max-evals must be >= 1")
    if args.dump_rows and args.trajectory:
        raise ConfigurationError(
            "--dump-rows and --trajectory are mutually exclusive"
        )
    config = build_tune_config(args)
    config.validate()
    return config


def _run_report(args: argparse.Namespace) -> int:
    diffs = []

    def report() -> str:
        # Opening a store creates it; a mistyped path must not pass as
        # an empty store.
        for path in (args.store, args.baseline):
            if not path.exists():
                raise ConfigurationError(f"no such store: {path}")
        with SweepStore(args.store) as store, \
                SweepStore(args.baseline) as baseline:
            diffs.extend(diff_best(store.best_rows(), baseline.best_rows()))
        if args.format == "json":
            return render_report_json(diffs)
        return render_report_text(diffs)

    rc = run_and_emit(args, report)
    regressed = any(diff.status == "regressed" for diff in diffs)
    if rc == 0 and regressed and args.fail_on_regression:
        print("error: best-known variant regressed", file=sys.stderr)
        return 1
    return rc


def _run(args: argparse.Namespace, config: TuneConfig) -> str:
    progress = None
    if not args.quiet:
        progress = lambda line: print(f"  {line}", file=sys.stderr)

    started = time.time()
    with SweepStore(args.store) as store:
        outcome = run_fleet_tune(
            config,
            store,
            shards=args.shards,
            jobs=args.jobs,
            resume=args.resume,
            max_evals=args.max_evals,
            progress=progress,
        )
    elapsed = time.time() - started

    if not args.quiet:
        print(
            f"  [tune: {outcome.evaluations} evaluation(s), "
            f"{outcome.computed} cell(s) computed, {outcome.reused} "
            f"replayed, {elapsed:.1f} s -> {args.store}]",
            file=sys.stderr,
        )

    if args.dump_rows:
        return dump_rows(outcome.rows)
    if args.trajectory:
        return trajectory_jsonl(outcome.trajectory)
    if args.format == "json":
        return render_outcome_json(outcome)
    return render_outcome_text(outcome)


def main(argv: Optional[List[str]] = None) -> int:
    args, config = parse_campaign_args(
        build_parser(), argv, _checked_tune_config
    )
    if config is None:
        return _run_report(args)
    return run_and_emit(args, lambda: _run(args, config))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
