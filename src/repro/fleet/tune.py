"""Adaptive policy auto-tuning campaigns over the sweep store.

The paper only ever explores the unified algorithm's knobs — buffer
multiplier, expiration-threshold window, delay stage, rate thresholds —
on fixed grids (Figures 3–7). This module *searches* that space: a
:class:`TuneConfig` declares a parameter space over one policy preset's
constructor arguments, an objective over stored
:meth:`~repro.metrics.streaming.FleetAccumulator.metrics_row` entries,
and a seeded deterministic search budget; :func:`run_fleet_tune` walks
the space adaptively and tracks the best-known variant per scenario
family in the store's ``best`` table.

Search strategy
---------------

Two classic pieces, composed and made fully deterministic:

1. **Successive halving over seed replicates.** Round 0 draws
   ``samples`` candidates from the space (candidate 0 is the space
   midpoint, the rest quasi-random from hashed substreams of
   ``search_seed``). All are *screened* on the cheap seed prefix
   (``seeds[:screen_seeds]``); the top ``survivors`` by screening
   objective are *promoted* to the full seed set, and the best
   fully-replicated survivor becomes the incumbent.
2. **Coordinate refinement.** For ``refine_rounds`` rounds, each
   parameter in declaration order proposes neighbors of the incumbent
   (``±span/2·shrink^(round+1)`` for ranges, every other value for
   choices), evaluated on the full seed set; a proposal that improves
   the ``(objective, canonical key)`` order becomes the new incumbent.

Ties everywhere break by the candidate's canonical parameter JSON, so
an all-identical-objective space still yields one deterministic winner.

Why the trajectory is reproducible
----------------------------------

Every evaluation is one sweep cell — ``(seeded scenario, named policy
variant, fault spec)`` hashed by :func:`repro.fleet.store.cell_key` —
routed through :func:`repro.experiments.parallel.run_fleet_policy_batch`
and appended to the :class:`~repro.fleet.store.SweepStore`. Cells are
pure functions of their key (the PR 9 contract), objectives are computed
from the *stored* row (so a fetched cell and a freshly computed one feed
the search bit-identical floats), and the search itself consumes nothing
but those objectives and the config. The whole trajectory is therefore a
pure function of ``(TuneConfig, store contents)``: killing a campaign
after any number of evaluations and resuming replays the same decisions
from stored rows and lands on the same incumbent, byte for byte.

Objective semantics
-------------------

Per ``(candidate, seed)`` cell the objective scalarizes the stored
metrics against the ``online`` baseline cell of the same seed (computed
on demand, stored like any other cell):

* *weighted mode* (default): ``waste + loss_weight · loss``;
* *constraint mode* (``loss_budget`` set): ``waste`` when ``loss <=
  loss_budget``, else ``2 + (loss - loss_budget)`` — waste and loss are
  fractions in ``[0, 1]``, so every feasible point beats every
  infeasible one and infeasible points order by constraint violation.

``loss`` is the count-based shortfall of messages read versus the
baseline (the documented lower bound of the paper's §3.1 set metric —
see :mod:`repro.fleet.sweep`). A candidate's score is the mean over the
seeds evaluated so far (screening seeds first, full set once promoted).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults as faults_mod
from repro.errors import ConfigurationError
from repro.experiments import parallel
from repro.faults import FaultSpec
from repro.fleet.config import FleetScenarioConfig
from repro.fleet.store import (
    BestRow,
    SweepRow,
    SweepStore,
    canonical_json,
    cell_key,
    _sha256,
)
from repro.fleet.sweep import (
    LOSS_BASELINE,
    PolicyVariant,
    parse_policy_token,
    policy_preset_constructor,
    policy_variant_from_spec,
)
from repro.sim.rng import derive_seed

#: Constraint-mode penalty floor: waste is a fraction, so any feasible
#: objective is < 1 < 2 <= any infeasible one.
_INFEASIBLE_BASE = 2.0

#: Version pin folded into :func:`family_key`; bump when the family
#: identity or objective semantics change.
_FAMILY_FORMAT = 1


# ----------------------------------------------------------------------
# Parameter space
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TuneParam:
    """One searchable dimension, mapped onto a preset constructor kwarg.

    Exactly one of two shapes:

    * a **range** — ``lo``/``hi`` bounds, continuous by default,
      ``integer=True`` for integer-valued knobs (``ma_window``,
      ``initial_prefetch_limit``, ``prefetch_limit``);
    * a **choice** — an explicit tuple of JSON-native values, e.g.
      pinning the delay stage to ``(0.0, 60.0, 600.0)``.
    """

    name: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    integer: bool = False
    choices: Optional[Tuple[object, ...]] = None

    @property
    def is_choice(self) -> bool:
        return self.choices is not None

    def validate(self) -> None:
        if not self.name:
            raise ConfigurationError("tune parameter name must not be empty")
        if self.is_choice:
            if self.lo is not None or self.hi is not None:
                raise ConfigurationError(
                    f"parameter {self.name!r} mixes choices with range bounds"
                )
            if not self.choices:
                raise ConfigurationError(
                    f"parameter {self.name!r} has no choices"
                )
            if len(set(map(canonical_json, self.choices))) != len(self.choices):
                raise ConfigurationError(
                    f"parameter {self.name!r} has duplicate choices"
                )
            return
        if self.lo is None or self.hi is None:
            raise ConfigurationError(
                f"parameter {self.name!r} needs lo/hi bounds or choices"
            )
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigurationError(
                f"parameter {self.name!r} bounds must be finite"
            )
        if not self.lo < self.hi:
            raise ConfigurationError(
                f"parameter {self.name!r} needs lo < hi, got "
                f"[{self.lo}, {self.hi}]"
            )
        if self.integer and (
            int(self.lo) != self.lo or int(self.hi) != self.hi
        ):
            raise ConfigurationError(
                f"integer parameter {self.name!r} needs integral bounds"
            )

    # ------------------------------------------------------------------
    def midpoint(self) -> object:
        """The deterministic round-0 anchor value."""
        if self.is_choice:
            return self.choices[0]
        if self.integer:
            return int(self.lo + self.hi) // 2
        return (self.lo + self.hi) / 2.0

    def sample(self, u: float) -> object:
        """Map one unit-interval draw onto the parameter's domain."""
        if self.is_choice:
            index = min(int(u * len(self.choices)), len(self.choices) - 1)
            return self.choices[index]
        if self.integer:
            span = int(self.hi) - int(self.lo) + 1
            return int(self.lo) + min(int(u * span), span - 1)
        return self.lo + u * (self.hi - self.lo)

    def corners(self) -> Tuple[object, ...]:
        """Domain extremes, validated eagerly against the preset."""
        if self.is_choice:
            return tuple(self.choices)
        if self.integer:
            return (int(self.lo), int(self.hi))
        return (self.lo, self.hi)

    def neighbors(self, current: object, round_index: int,
                  shrink: float) -> List[object]:
        """Refinement proposals around ``current`` for one round."""
        if self.is_choice:
            return [c for c in self.choices
                    if canonical_json(c) != canonical_json(current)]
        span = self.hi - self.lo
        step = span / 2.0 * shrink ** (round_index + 1)
        if self.integer:
            step = max(1, int(round(step)))
            lo_p = max(int(self.lo), int(current) - step)
            hi_p = min(int(self.hi), int(current) + step)
        else:
            lo_p = max(self.lo, current - step)
            hi_p = min(self.hi, current + step)
        return [v for v in (lo_p, hi_p) if v != current]


# ----------------------------------------------------------------------
# Objective
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TuneObjective:
    """Scalarized waste-vs-loss objective (minimized).

    ``loss_budget=None`` is the weighted mode ``waste + loss_weight ·
    loss``; setting it switches to constraint mode — minimize waste
    subject to ``loss <= loss_budget``, with infeasible points ranked
    above every feasible one by their constraint violation.
    """

    loss_weight: float = 10.0
    loss_budget: Optional[float] = None

    def validate(self) -> None:
        if self.loss_weight < 0 or not math.isfinite(self.loss_weight):
            raise ConfigurationError(
                f"loss_weight must be finite and non-negative, got "
                f"{self.loss_weight}"
            )
        if self.loss_budget is not None and not 0.0 <= self.loss_budget <= 1.0:
            raise ConfigurationError(
                f"loss_budget must be within [0, 1], got {self.loss_budget}"
            )

    def scalarize(self, waste: float, loss: float) -> float:
        if self.loss_budget is None:
            return waste + self.loss_weight * loss
        if loss <= self.loss_budget:
            return waste
        return _INFEASIBLE_BASE + (loss - self.loss_budget)

    def describe(self) -> str:
        if self.loss_budget is None:
            return f"waste + {self.loss_weight:g}*loss"
        return f"min waste s.t. loss <= {self.loss_budget:g}"


# ----------------------------------------------------------------------
# Campaign configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TuneConfig:
    """Full description of one auto-tuning campaign.

    ``space`` grids keyword arguments of ``preset``'s constructor
    (:func:`repro.fleet.sweep.policy_preset_constructor`); ``seeds`` is
    the full replicate set, of which the first ``screen_seeds`` form
    the cheap screening prefix. ``budget`` bounds *logical* evaluations
    — distinct ``(candidate, seed)`` pairs the search may consume,
    whether computed or fetched from the store — so a fresh and a
    resumed campaign see identical budget accounting.
    """

    base: FleetScenarioConfig
    space: Tuple[TuneParam, ...]
    preset: str = "unified"
    objective: TuneObjective = field(default_factory=TuneObjective)
    seeds: Tuple[int, ...] = (0, 1, 2)
    screen_seeds: int = 1
    samples: int = 8
    survivors: int = 2
    refine_rounds: int = 2
    refine_shrink: float = 0.5
    budget: Optional[int] = None
    search_seed: int = 0
    faults: Optional[FaultSpec] = None

    def validate(self) -> None:
        self.base.validate()
        self.objective.validate()
        if not self.space:
            raise ConfigurationError("tune needs at least one parameter")
        names = [p.name for p in self.space]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate tune parameters: "
                f"{', '.join(sorted(n for n in names if names.count(n) > 1))}"
            )
        for param in self.space:
            param.validate()
        if not self.seeds:
            raise ConfigurationError("tune needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("tune seeds must be unique")
        if not 1 <= self.screen_seeds <= len(self.seeds):
            raise ConfigurationError(
                f"screen_seeds must be within [1, {len(self.seeds)}], got "
                f"{self.screen_seeds}"
            )
        if self.samples < 1:
            raise ConfigurationError(
                f"samples must be >= 1, got {self.samples}"
            )
        if not 1 <= self.survivors <= self.samples:
            raise ConfigurationError(
                f"survivors must be within [1, {self.samples}], got "
                f"{self.survivors}"
            )
        if self.refine_rounds < 0:
            raise ConfigurationError(
                f"refine_rounds must be >= 0, got {self.refine_rounds}"
            )
        if not 0.0 < self.refine_shrink < 1.0:
            raise ConfigurationError(
                f"refine_shrink must be within (0, 1), got "
                f"{self.refine_shrink}"
            )
        if self.budget is not None and self.budget < self.samples:
            raise ConfigurationError(
                f"budget must cover one screening pass "
                f"(>= samples = {self.samples}), got {self.budget}"
            )
        # Eagerly reject spaces the preset cannot realize: every domain
        # extreme, one parameter at a time around the midpoint anchor,
        # must construct and validate (all PolicyConfig constraints are
        # interval bounds, so valid extremes imply a valid interior).
        anchor = self.midpoint_assignment()
        self.variant_for(anchor).validate()
        for param in self.space:
            for value in param.corners():
                probe = dict(anchor)
                probe[param.name] = value
                self.variant_for(probe).validate()

    # ------------------------------------------------------------------
    def midpoint_assignment(self) -> Dict[str, object]:
        return {p.name: p.midpoint() for p in self.space}

    def sample_assignment(self, index: int) -> Dict[str, object]:
        """Candidate ``index`` of round 0 (0 = the midpoint anchor)."""
        if index == 0:
            return self.midpoint_assignment()
        return {
            p.name: p.sample(
                derive_seed(self.search_seed, f"sample:{index}:{p.name}")
                / 2.0 ** 64
            )
            for p in self.space
        }

    def variant_for(self, assignment: Dict[str, object]) -> PolicyVariant:
        """The named policy variant one assignment evaluates as."""
        return policy_variant_from_spec(
            {"preset": self.preset, "params": dict(assignment)}
        )

    def spec_json(self) -> str:
        """Canonical JSON of the whole campaign spec."""
        return canonical_json(
            {
                "tune_format": _FAMILY_FORMAT,
                "base": self.base,
                "space": [dataclasses.asdict(p) for p in self.space],
                "preset": self.preset,
                "objective": self.objective,
                "seeds": list(self.seeds),
                "screen_seeds": self.screen_seeds,
                "samples": self.samples,
                "survivors": self.survivors,
                "refine_rounds": self.refine_rounds,
                "refine_shrink": self.refine_shrink,
                "budget": self.budget,
                "search_seed": self.search_seed,
                "faults": self.faults,
            }
        )

    def campaign_key(self) -> str:
        return _sha256(self.spec_json())

    def family_key(self) -> str:
        """Hash of everything that makes two objectives comparable.

        The scenario minus its seed, the seed set, the objective spec,
        and the fault spec — deliberately *not* the preset or the
        search knobs, so a later campaign searching a different space
        over the same scenario competes for (and can improve) the same
        ``best`` row.
        """
        scenario = dataclasses.asdict(self.base)
        scenario.pop("seed", None)
        spec = self.faults
        if spec is not None and spec.is_null:
            spec = None
        return _sha256(
            canonical_json(
                {
                    "tune_family_format": _FAMILY_FORMAT,
                    "scenario": scenario,
                    "seeds": list(self.seeds),
                    "objective": self.objective,
                    "faults": spec,
                }
            )
        )

    def family_label(self) -> str:
        return (
            f"devices={self.base.devices} threshold={self.base.threshold:g} "
            f"seeds={len(self.seeds)} [{self.objective.describe()}]"
        )


# ----------------------------------------------------------------------
# Pure search core
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryPoint:
    """One incumbent change, stamped with the budget spent so far."""

    evaluations: int
    phase: str
    variant_key: str
    objective: float

    def as_json(self) -> str:
        return canonical_json(
            {
                "evaluations": self.evaluations,
                "phase": self.phase,
                "variant": json.loads(self.variant_key),
                "objective": self.objective,
            }
        )


def trajectory_jsonl(trajectory: Sequence[TrajectoryPoint]) -> str:
    """The byte-comparable incumbent-trajectory image (one JSON/line)."""
    return "\n".join(point.as_json() for point in trajectory)


@dataclass(frozen=True)
class TuneSearchResult:
    """What the search core found (objective is minimized)."""

    params: Optional[Dict[str, object]]
    params_json: Optional[str]
    objective: Optional[float]
    #: Seeds the incumbent's objective averages over — the full seed
    #: set unless the budget ran out before promotion finished.
    objective_seeds: Tuple[int, ...]
    evaluations: int
    exhausted: bool
    trajectory: Tuple[TrajectoryPoint, ...]


def run_tune_search(
    config: TuneConfig,
    evaluate_batch: Callable[[List[Dict[str, object]], int], List[float]],
) -> TuneSearchResult:
    """The deterministic search loop, decoupled from fleet execution.

    ``evaluate_batch(assignments, seed)`` returns one scalar objective
    per assignment; it is called with deduplicated work only (the core
    memoizes ``(assignment, seed)`` pairs, and each unique pair counts
    once against ``config.budget`` no matter how often it is consulted).
    Injectable so search quality and determinism are testable against
    synthetic objective landscapes without running fleets.
    """
    cache: Dict[Tuple[str, int], float] = {}
    used = 0
    exhausted = False
    trajectory: List[TrajectoryPoint] = []

    def key_of(assignment: Dict[str, object]) -> str:
        return canonical_json(assignment)

    def eval_seeds(
        assignments: List[Dict[str, object]], seeds: Sequence[int]
    ) -> bool:
        """Fill the cache; False when the budget cut the phase short."""
        nonlocal used, exhausted
        for seed in seeds:
            needed = [
                a for a in assignments if (key_of(a), seed) not in cache
            ]
            if not needed:
                continue
            if config.budget is not None and used + len(needed) > config.budget:
                exhausted = True
                return False
            for assignment, value in zip(
                needed, evaluate_batch(needed, seed)
            ):
                cache[(key_of(assignment), seed)] = float(value)
            used += len(needed)
        return True

    def covered(
        assignments: List[Dict[str, object]], seeds: Sequence[int]
    ) -> List[Dict[str, object]]:
        return [
            a for a in assignments
            if all((key_of(a), s) in cache for s in seeds)
        ]

    def mean_over(
        assignment: Dict[str, object], seeds: Sequence[int]
    ) -> float:
        values = [cache[(key_of(assignment), s)] for s in seeds]
        return sum(values) / len(values)

    def finalize(
        incumbent: Optional[Dict[str, object]],
        objective: Optional[float],
        seeds: Tuple[int, ...],
    ) -> TuneSearchResult:
        return TuneSearchResult(
            params=incumbent,
            params_json=None if incumbent is None else key_of(incumbent),
            objective=objective,
            objective_seeds=seeds,
            evaluations=used,
            exhausted=exhausted,
            trajectory=tuple(trajectory),
        )

    # Round 0: deterministic candidate draw, deduplicated keep-first
    # (choice-heavy spaces can collide; identical assignments would
    # only burn budget on cache hits).
    candidates: List[Dict[str, object]] = []
    seen = set()
    for index in range(config.samples):
        assignment = config.sample_assignment(index)
        key = key_of(assignment)
        if key not in seen:
            seen.add(key)
            candidates.append(assignment)

    screen = tuple(config.seeds[: config.screen_seeds])
    full = tuple(config.seeds)

    # Phase 1: screen every candidate on the cheap seed prefix.
    completed = eval_seeds(candidates, screen)
    screened = covered(candidates, screen)
    if not screened:
        # budget < samples is rejected by validate(); only an
        # interrupted evaluator (never the budget) can land here.
        return finalize(None, None, ())
    ranked = sorted(screened, key=lambda a: (mean_over(a, screen), key_of(a)))
    incumbent = ranked[0]
    incumbent_objective = mean_over(incumbent, screen)
    incumbent_seeds = screen
    trajectory.append(
        TrajectoryPoint(used, "screen", key_of(incumbent), incumbent_objective)
    )
    if not completed:
        return finalize(incumbent, incumbent_objective, incumbent_seeds)

    # Phase 2: promote the survivors to the full replicate set.
    survivors = ranked[: config.survivors]
    completed = eval_seeds(survivors, full)
    promoted = covered(survivors, full)
    if promoted:
        best = min(promoted, key=lambda a: (mean_over(a, full), key_of(a)))
        incumbent = best
        incumbent_objective = mean_over(best, full)
        incumbent_seeds = full
        trajectory.append(
            TrajectoryPoint(
                used, "promote", key_of(best), incumbent_objective
            )
        )
    if not completed:
        return finalize(incumbent, incumbent_objective, incumbent_seeds)

    # Phase 3: coordinate refinement around the incumbent.
    for round_index in range(config.refine_rounds):
        for param in config.space:
            proposals = []
            for value in param.neighbors(
                incumbent[param.name], round_index, config.refine_shrink
            ):
                candidate = dict(incumbent)
                candidate[param.name] = value
                if key_of(candidate) != key_of(incumbent):
                    proposals.append(candidate)
            if not proposals:
                continue
            completed = eval_seeds(proposals, full)
            for candidate in covered(proposals, full):
                objective = mean_over(candidate, full)
                if (objective, key_of(candidate)) < (
                    incumbent_objective, key_of(incumbent)
                ):
                    incumbent = candidate
                    incumbent_objective = objective
                    trajectory.append(
                        TrajectoryPoint(
                            used,
                            f"refine{round_index + 1}:{param.name}",
                            key_of(candidate),
                            objective,
                        )
                    )
            if not completed:
                return finalize(
                    incumbent, incumbent_objective, incumbent_seeds
                )
    return finalize(incumbent, incumbent_objective, incumbent_seeds)


# ----------------------------------------------------------------------
# Fleet-backed campaigns
# ----------------------------------------------------------------------

class _Interrupted(Exception):
    """Internal: the ``max_evals`` kill switch fired mid-campaign."""


@dataclass(frozen=True)
class TunedVariant:
    """The campaign's incumbent, as recorded (or recordable) in ``best``."""

    name: str
    params_json: str
    policy_json: str
    objective: float
    seeds: Tuple[int, ...]


@dataclass(frozen=True)
class TuneOutcome:
    """What one :func:`run_fleet_tune` invocation did."""

    config: TuneConfig
    campaign_key: str
    family_key: str
    #: ``None`` when the campaign was interrupted before any checkpoint.
    incumbent: Optional[TunedVariant]
    #: Logical evaluations the search consumed (computed or fetched).
    evaluations: int
    #: Cells newly simulated by this invocation (baselines included).
    computed: int
    #: Cells satisfied from the store (resume or cross-campaign reuse).
    reused: int
    #: The search budget ran out before the schedule finished.
    exhausted: bool
    #: The ``max_evals`` kill switch stopped this invocation; resume to
    #: continue the identical trajectory.
    interrupted: bool
    #: The incumbent replaced (or created) the family's ``best`` row.
    best_recorded: bool
    trajectory: Tuple[TrajectoryPoint, ...]
    #: Every row of this campaign currently in the store.
    rows: Tuple[SweepRow, ...]


def run_fleet_tune(
    config: TuneConfig,
    store: SweepStore,
    *,
    shards: int = 1,
    jobs: int = 1,
    resume: bool = False,
    max_evals: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> TuneOutcome:
    """Run (or resume) an auto-tuning campaign into ``store``.

    ``shards``/``jobs`` are pure throughput levers (cell metrics are
    invariant to them at fixed shards, so the trajectory is too).
    ``max_evals`` bounds cells *newly computed* by this invocation —
    the kill switch the smoke test uses; the interrupted campaign
    resumes with ``resume=True``, replaying its decisions from stored
    rows. On completion the incumbent is offered to the store's
    ``best`` table (kept only if strictly better than the stored one).
    """
    config.validate()
    if config.faults is None:
        # Ambient process-wide spec changes every metric; fold it into
        # the identity exactly like the sweep layer does.
        ambient = faults_mod.active_spec()
        if ambient is not None:
            config = replace(config, faults=ambient)
    if max_evals is not None and max_evals < 1:
        raise ConfigurationError(f"max_evals must be >= 1, got {max_evals}")

    campaign = config.campaign_key()
    store.register_campaign(campaign, config.spec_json())
    if store.rows(campaign) and not resume:
        raise ConfigurationError(
            "store already holds cells of this tune campaign; pass "
            "resume=True (--resume) to replay them and continue"
        )

    workloads = parallel.FleetWorkloadCache(
        maxsize=max(2, len(config.seeds))
    )
    baseline_variant = parse_policy_token(LOSS_BASELINE)
    baseline_reads: Dict[int, int] = {}
    counters = {"computed": 0, "reused": 0}

    def ensure_cell(seed: int, variant: PolicyVariant) -> SweepRow:
        """Fetch the cell from the store or compute-and-append it."""
        scenario = config.base.with_changes(seed=seed)
        key = cell_key(
            scenario, variant.name, variant.policy, faults=config.faults
        )
        row = store.get(key)
        if row is not None:
            counters["reused"] += 1
            return row
        if max_evals is not None and counters["computed"] >= max_evals:
            raise _Interrupted
        workload = workloads.get(scenario)
        (accumulator,) = parallel.run_fleet_policy_batch(
            workload,
            [variant.policy],
            shards=shards,
            jobs=jobs,
            fault_spec=config.faults,
        )
        row = SweepRow(
            cell_key=key,
            campaign_key=campaign,
            scenario_json=canonical_json(scenario),
            policy_name=variant.name,
            policy_json=canonical_json(variant.policy),
            seed=seed,
            metrics_json=canonical_json(accumulator.metrics_row()),
        )
        store.append(row)
        counters["computed"] += 1
        if progress is not None:
            progress(
                f"[{counters['computed']} computed] seed={seed} "
                f"policy={variant.name}"
            )
        return row

    def evaluate_batch(
        assignments: List[Dict[str, object]], seed: int
    ) -> List[float]:
        if seed not in baseline_reads:
            baseline = ensure_cell(seed, baseline_variant)
            baseline_reads[seed] = int(baseline.metrics["messages_read"])
        base_reads = baseline_reads[seed]
        scores = []
        for assignment in assignments:
            # Objectives always come from the *stored* row (canonical
            # JSON round-trips floats exactly), so a fetched cell and a
            # freshly computed one are indistinguishable to the search.
            row = ensure_cell(seed, config.variant_for(assignment))
            metrics = row.metrics
            waste = float(metrics["waste"])
            read = int(metrics["messages_read"])
            loss = (
                max(0, base_reads - read) / base_reads if base_reads else 0.0
            )
            scores.append(config.objective.scalarize(waste, loss))
        return scores

    interrupted = False
    try:
        result = run_tune_search(config, evaluate_batch)
    except _Interrupted:
        interrupted = True
        result = TuneSearchResult(
            params=None,
            params_json=None,
            objective=None,
            objective_seeds=(),
            evaluations=0,
            exhausted=False,
            trajectory=(),
        )

    incumbent: Optional[TunedVariant] = None
    best_recorded = False
    if result.params is not None:
        variant = config.variant_for(result.params)
        incumbent = TunedVariant(
            name=variant.name,
            params_json=result.params_json,
            policy_json=canonical_json(variant.policy),
            objective=result.objective,
            seeds=tuple(result.objective_seeds),
        )
        if tuple(result.objective_seeds) == tuple(config.seeds):
            # Only fully-replicated incumbents are comparable across
            # campaigns; a budget-exhausted screening winner is not.
            best_recorded = store.record_best(
                BestRow(
                    family_key=config.family_key(),
                    label=config.family_label(),
                    campaign_key=campaign,
                    variant_name=incumbent.name,
                    policy_json=incumbent.policy_json,
                    params_json=incumbent.params_json,
                    objective=incumbent.objective,
                    objective_json=canonical_json(config.objective),
                    seeds_json=canonical_json(list(config.seeds)),
                )
            )

    return TuneOutcome(
        config=config,
        campaign_key=campaign,
        family_key=config.family_key(),
        incumbent=incumbent,
        evaluations=result.evaluations,
        computed=counters["computed"],
        reused=counters["reused"],
        exhausted=result.exhausted,
        interrupted=interrupted,
        best_recorded=best_recorded,
        trajectory=result.trajectory,
        rows=tuple(store.rows(campaign)),
    )


# ----------------------------------------------------------------------
# Regression tracking: diff best tables across stores
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BestDiff:
    """One scenario family's incumbent, current vs baseline store."""

    family_key: str
    label: str
    #: ``new`` (no baseline), ``improved``, ``unchanged``, ``regressed``,
    #: or ``missing`` (baseline family the current store never tuned).
    status: str
    current: Optional[BestRow]
    baseline: Optional[BestRow]
    #: ``current - baseline`` objective, when both sides exist.
    delta: Optional[float]


def diff_best(
    current: Sequence[BestRow],
    baseline: Sequence[BestRow],
    *,
    rel_tol: float = 1e-9,
) -> List[BestDiff]:
    """Compare two stores' best-known variants, family by family.

    ``rel_tol`` absorbs float-reassociation noise across platforms; a
    deterministic re-run of the same campaign lands on ``unchanged``.
    Families sort by key, so the report is byte-stable.
    """
    current_by_key = {row.family_key: row for row in current}
    baseline_by_key = {row.family_key: row for row in baseline}
    diffs = []
    for key in sorted(set(current_by_key) | set(baseline_by_key)):
        cur = current_by_key.get(key)
        base = baseline_by_key.get(key)
        if cur is None:
            diffs.append(BestDiff(key, base.label, "missing", None, base, None))
            continue
        if base is None:
            diffs.append(BestDiff(key, cur.label, "new", cur, None, None))
            continue
        delta = cur.objective - base.objective
        if math.isclose(
            cur.objective, base.objective, rel_tol=rel_tol, abs_tol=rel_tol
        ):
            status = "unchanged"
        elif cur.objective < base.objective:
            status = "improved"
        else:
            status = "regressed"
        diffs.append(BestDiff(key, cur.label, status, cur, base, delta))
    return diffs


def render_report_text(diffs: Sequence[BestDiff]) -> str:
    """Plain-text regression report over best-known variants."""
    if not diffs:
        return "no tuned families in either store"
    lines = ["best-known policy variants (current vs baseline):"]
    for diff in diffs:
        cur = diff.current.objective if diff.current else None
        base = diff.baseline.objective if diff.baseline else None
        detail = " ".join(
            part for part in (
                f"objective={cur:.6f}" if cur is not None else None,
                f"baseline={base:.6f}" if base is not None else None,
                f"delta={diff.delta:+.6f}" if diff.delta is not None else None,
                f"variant={diff.current.variant_name}"
                if diff.current else None,
            )
            if part is not None
        )
        lines.append(f"  {diff.status:>9}  {diff.label}  {detail}")
    regressed = sum(1 for d in diffs if d.status == "regressed")
    lines.append(
        f"{len(diffs)} family(ies), {regressed} regression(s); objective "
        "is minimized, so smaller is better."
    )
    return "\n".join(lines)


def render_report_json(diffs: Sequence[BestDiff]) -> str:
    """JSON regression report (stable key order)."""
    payload = [
        {
            "family_key": diff.family_key,
            "label": diff.label,
            "status": diff.status,
            "delta": diff.delta,
            "current": None if diff.current is None else json.loads(
                diff.current.as_json()
            ),
            "baseline": None if diff.baseline is None else json.loads(
                diff.baseline.as_json()
            ),
        }
        for diff in diffs
    ]
    return json.dumps(payload, indent=2, sort_keys=True)
