"""``repro-lasthop fleet sweep`` — grid campaigns over a results store.

Runs a :class:`~repro.fleet.sweep.FleetSweepConfig` — scenario knobs ×
policy variants × seeds — through the shared-workload shard executor and
appends every completed cell to an append-only sqlite store
(:mod:`repro.fleet.store`). Re-running against the same store with
``--resume`` skips completed cells and writes bit-identical rows, so a
killed campaign loses at most the cells in flight.

The grid is spelled either with flags::

    repro-lasthop fleet sweep --store results.sqlite \\
        --devices 1000 --axis threshold=0,0.5 --axis rate_sigma=0.25,0.75 \\
        --policies online,on_demand,unified,buffer:8 --seeds 0 1 2

or with a JSON grid file (``--grid``), which can also parameterize
policy presets::

    {
      "base": {"devices": 1000, "threshold": 0.5},
      "axes": [["devices", [1000, 4000]],
               ["volume_limits", [[4, 8], [8, 16]]]],
      "policies": ["online", "on_demand",
                   {"name": "u-delay", "preset": "unified",
                    "params": {"delay": 60.0}}],
      "seeds": [0, 1]
    }

The summary (``--format text|json``) is the per-family Pareto front of
waste vs. count-based loss; ``--dump-rows`` instead emits the sorted
canonical JSONL image of the campaign's rows (the byte-comparable form
the CI kill-and-resume smoke test diffs).
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
from repro.fleet.sweep import (
    DEFAULT_POLICIES,
    FleetSweepConfig,
    parse_policy_token,
    policy_variant_from_spec,
    render_summary_json,
    render_summary_text,
    run_fleet_sweep,
    summarize_pareto,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lasthop fleet sweep",
        description=(
            "Run a (scenario x policy x seed) fleet campaign grid into an "
            "append-only, resumable results store."
        ),
    )
    parser.add_argument("--store", type=Path, required=True, metavar="PATH",
                        help="sqlite results store (created if missing)")
    parser.add_argument("--grid", type=Path, default=None, metavar="FILE",
                        help=(
                            "JSON grid file with base/axes/policies/seeds; "
                            "flags below override its base scenario knobs"
                        ))
    add_campaign_arguments(parser)
    # Grid axes.
    parser.add_argument("--axis", action="append", default=[],
                        metavar="FIELD=V1,V2,...",
                        help=(
                            "grid one FleetScenarioConfig field over JSON "
                            "values, e.g. --axis devices=1000,4000 or "
                            "--axis volume_limits=[4,8],[8,16]; repeatable, "
                            "later axes vary fastest"
                        ))
    parser.add_argument("--policies", type=str, default=None,
                        metavar="P1,P2,...",
                        help=(
                            "comma-separated policy presets (online, "
                            "on_demand, rate, unified, buffer:N); default "
                            f"{','.join(DEFAULT_POLICIES)}"
                        ))
    parser.add_argument("--seeds", type=int, nargs="+", default=None,
                        help="campaign seeds (default: 0)")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells the store already holds")
    parser.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help=(
                            "stop after N newly computed cells (campaign "
                            "stays resumable)"
                        ))
    parser.add_argument("--dump-rows", action="store_true",
                        help=(
                            "emit the campaign's rows as sorted canonical "
                            "JSONL instead of the Pareto summary"
                        ))
    return parser


def _split_axis_values(raw: str) -> List[str]:
    """Split axis values on commas that are not inside JSON brackets.

    ``volume_limits=[4,8],[8,16]`` has two values, not four.
    """
    parts: List[str] = []
    depth = 0
    current = []
    for ch in raw:
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [part for part in (p.strip() for p in parts) if part]


def _freeze(value: object) -> object:
    """JSON lists become tuples so frozen scenario configs stay hashable."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def parse_json_values(raw: str, kind: str, metavar: str) -> Tuple[str, list]:
    """Parse one ``NAME=V1,V2,...`` flag whose values are JSON.

    ``kind`` and ``metavar`` name the flag in errors (``--axis FIELD``,
    ``--choice NAME``).
    """
    name, sep, rest = raw.partition("=")
    name = name.strip()
    if not sep or not name:
        raise ConfigurationError(
            f"{kind} must be {metavar}=V1,V2,..., got {raw!r}"
        )
    values = []
    for token in _split_axis_values(rest):
        try:
            values.append(json.loads(token))
        except json.JSONDecodeError:
            raise ConfigurationError(
                f"{kind} {name!r} value {token!r} is not valid JSON"
            ) from None
    if not values:
        raise ConfigurationError(f"{kind} {name!r} has no values")
    return name, values


def parse_axis(raw: str) -> Tuple[str, Tuple[object, ...]]:
    """Parse one ``--axis FIELD=V1,V2,...`` flag."""
    field_name, values = parse_json_values(raw, "axis", "FIELD")
    return field_name, tuple(_freeze(value) for value in values)


def _base_from_grid(spec: dict) -> FleetScenarioConfig:
    base_spec = spec.get("base", {})
    if not isinstance(base_spec, dict):
        raise ConfigurationError("grid file 'base' must be an object")
    frozen = {key: _freeze(value) for key, value in base_spec.items()}
    try:
        return FleetScenarioConfig().with_changes(**frozen)
    except TypeError as exc:
        raise ConfigurationError(f"grid file 'base': {exc}") from exc


def _load_grid_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read grid file {path}: {exc}") from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"grid file {path} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigurationError(f"grid file {path} must hold a JSON object")
    unknown = set(spec) - {"base", "axes", "policies", "seeds"}
    if unknown:
        raise ConfigurationError(
            f"unknown grid file keys: {', '.join(sorted(unknown))}"
        )
    return spec


def _grid_list(spec: dict, key: str) -> list:
    """The grid file's ``key`` entry (absent = empty); it must be a list."""
    value = spec.get(key, [])
    if not isinstance(value, list):
        raise ConfigurationError(
            f"grid file {key!r} must be a list, got {value!r}"
        )
    return value


def build_sweep_config(args: argparse.Namespace) -> FleetSweepConfig:
    grid_spec = _load_grid_file(args.grid) if args.grid is not None else {}
    base = scenario_overrides(args, _base_from_grid(grid_spec))

    axes: List[Tuple[str, Tuple[object, ...]]] = []
    for entry in _grid_list(grid_spec, "axes"):
        if not (
            isinstance(entry, list) and len(entry) == 2
            and isinstance(entry[0], str) and isinstance(entry[1], list)
        ):
            raise ConfigurationError(
                "grid file 'axes' entries must be [field, [values...]] "
                f"pairs, got {entry!r}"
            )
        name, values = entry
        axes.append((name, tuple(_freeze(v) for v in values)))
    for raw in args.axis:
        axes.append(parse_axis(raw))

    if args.policies is not None:
        policies = tuple(
            parse_policy_token(token)
            for token in args.policies.split(",") if token.strip()
        )
    elif "policies" in grid_spec:
        policies = tuple(
            policy_variant_from_spec(entry)
            for entry in _grid_list(grid_spec, "policies")
        )
    else:
        policies = tuple(parse_policy_token(name) for name in DEFAULT_POLICIES)

    if args.seeds is not None:
        seeds = tuple(args.seeds)
    elif "seeds" in grid_spec:
        seeds = tuple(_grid_list(grid_spec, "seeds"))
    else:
        seeds = (0,)

    return FleetSweepConfig(
        base=base, policies=policies, seeds=seeds, axes=tuple(axes),
        faults=args.faults,
    )


def _checked_sweep_config(args: argparse.Namespace) -> FleetSweepConfig:
    if args.max_cells is not None and args.max_cells < 1:
        raise ConfigurationError("--max-cells must be >= 1")
    config = build_sweep_config(args)
    config.validate()
    return config


def _run(args: argparse.Namespace, config: FleetSweepConfig) -> str:
    progress = None
    if not args.quiet:
        progress = lambda line: print(f"  {line}", file=sys.stderr)

    started = time.time()
    with SweepStore(args.store) as store:
        outcome = run_fleet_sweep(
            config,
            store,
            shards=args.shards,
            jobs=args.jobs,
            resume=args.resume,
            max_cells=args.max_cells,
            progress=progress,
        )
    elapsed = time.time() - started

    if not args.quiet:
        print(
            f"  [sweep: {outcome.computed} cell(s) computed, "
            f"{outcome.skipped} skipped, {outcome.remaining} remaining, "
            f"{elapsed:.1f} s -> {args.store}]",
            file=sys.stderr,
        )

    if args.dump_rows:
        return dump_rows(outcome.rows)
    summaries = summarize_pareto(outcome.config, outcome.rows)
    if args.format == "json":
        return render_summary_json(summaries)
    return render_summary_text(summaries)


def main(argv: Optional[List[str]] = None) -> int:
    args, config = parse_campaign_args(
        build_parser(), argv, _checked_sweep_config
    )
    return run_and_emit(args, lambda: _run(args, config))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
