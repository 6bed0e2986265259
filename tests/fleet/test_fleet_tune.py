"""Adaptive tuning campaigns: search core, store integration, CLI.

The load-bearing claims under test:

* the search trajectory is a pure function of ``(TuneConfig, store
  contents)`` — killing a campaign after any number of evaluations and
  resuming reproduces the uninterrupted run's store rows **and**
  incumbent trajectory byte-for-byte, at fixed shards, for any jobs;
* under the same evaluation budget, the adaptive search is no worse
  than an exhaustive uniform grid on a known synthetic landscape;
* all-identical-objective spaces still converge to one deterministic
  winner (ties break by canonical parameter JSON);
* the store's ``best`` table only ever improves, and ``--report``
  classifies families as new/improved/unchanged/regressed/missing.
"""

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.errors import ConfigurationError
from repro.experiments import fleet_cli, fleet_tune_cli
from repro.experiments import cli as main_cli
from repro.fleet.config import FleetScenarioConfig
from repro.fleet.store import BestRow, SweepStore, canonical_json, dump_rows
from repro.fleet.tune import (
    TuneConfig,
    TuneObjective,
    TuneParam,
    diff_best,
    render_report_json,
    render_report_text,
    run_fleet_tune,
    run_tune_search,
    trajectory_jsonl,
)


@pytest.fixture(autouse=True)
def _reset_process_state():
    """Leave process-wide faults/obs clean whatever a test configures."""
    yield
    from repro import obs

    faults.configure(None)
    obs.configure(None)


def _space_config(**kwargs):
    """A tiny fleet-backed campaign over the unified policy."""
    defaults = dict(
        base=FleetScenarioConfig(devices=8),
        space=(
            TuneParam("ma_window", lo=2, hi=16, integer=True),
            TuneParam("delay", choices=(0.0, 60.0)),
        ),
        preset="unified",
        seeds=(0, 1),
        screen_seeds=1,
        samples=3,
        survivors=2,
        refine_rounds=1,
    )
    defaults.update(kwargs)
    return TuneConfig(**defaults)


class TestTuneParam:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name=""),
            dict(name="x"),  # no bounds, no choices
            dict(name="x", lo=1.0),
            dict(name="x", lo=2.0, hi=1.0),
            dict(name="x", lo=1.0, hi=1.0),
            dict(name="x", lo=0.0, hi=float("inf")),
            dict(name="x", lo=0.5, hi=3.0, integer=True),
            dict(name="x", lo=0.0, hi=1.0, choices=(1, 2)),
            dict(name="x", choices=()),
            dict(name="x", choices=(1, 1)),
        ],
    )
    def test_validate_rejects_bad_params(self, kwargs):
        with pytest.raises(ConfigurationError):
            TuneParam(**kwargs).validate()

    def test_integer_sampling_covers_bounds_inclusively(self):
        param = TuneParam("x", lo=2, hi=5, integer=True)
        values = {param.sample(u / 100.0) for u in range(100)}
        assert values == {2, 3, 4, 5}
        assert param.sample(1.0) == 5  # u == 1.0 clamps into range

    def test_choice_sampling_is_uniform_over_values(self):
        param = TuneParam("x", choices=("a", "b", "c"))
        assert param.sample(0.0) == "a"
        assert param.sample(0.5) == "b"
        assert param.sample(0.99) == "c"
        assert param.sample(1.0) == "c"

    def test_neighbors_clamp_to_bounds(self):
        param = TuneParam("x", lo=0.0, hi=10.0)
        # Round 0 step = span/2 * 0.5 = 2.5.
        assert param.neighbors(5.0, 0, 0.5) == [2.5, 7.5]
        assert param.neighbors(0.0, 0, 0.5) == [2.5]  # lo clamp dedups
        integer = TuneParam("x", lo=0, hi=10, integer=True)
        assert integer.neighbors(5, 0, 0.5) == [3, 7]  # round(2.5) == 2
        # Step shrinks but never below 1 for integer params.
        assert integer.neighbors(5, 5, 0.5) == [4, 6]

    def test_choice_neighbors_exclude_current(self):
        param = TuneParam("x", choices=(0.0, 60.0, 600.0))
        assert param.neighbors(60.0, 0, 0.5) == [0.0, 600.0]


class TestTuneObjective:
    def test_weighted_mode(self):
        objective = TuneObjective(loss_weight=10.0)
        assert objective.scalarize(0.3, 0.02) == pytest.approx(0.5)

    def test_constraint_mode_orders_feasible_below_infeasible(self):
        objective = TuneObjective(loss_budget=0.1)
        feasible_worst = objective.scalarize(1.0, 0.1)  # max waste
        infeasible_best = objective.scalarize(0.0, 0.1 + 1e-9)
        assert feasible_worst < infeasible_best
        # Infeasible points order by violation, not waste.
        assert objective.scalarize(0.0, 0.5) < objective.scalarize(1.0, 0.6)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(loss_weight=-1.0), dict(loss_weight=float("nan")),
         dict(loss_budget=1.5), dict(loss_budget=-0.1)],
    )
    def test_validate_rejects_bad_objectives(self, kwargs):
        with pytest.raises(ConfigurationError):
            TuneObjective(**kwargs).validate()


class TestTuneConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(space=()),
            dict(space=(TuneParam("ma_window", lo=2, hi=16, integer=True),) * 2),
            dict(seeds=()),
            dict(seeds=(0, 0)),
            dict(screen_seeds=0),
            dict(screen_seeds=3),  # > len(seeds)
            dict(samples=0),
            dict(survivors=0),
            dict(survivors=9),  # > samples
            dict(refine_rounds=-1),
            dict(refine_shrink=1.0),
            dict(budget=2),  # < samples
            dict(preset="no-such-preset"),
            # Not a constructor kwarg of the preset.
            dict(space=(TuneParam("no_such_kwarg", lo=0.0, hi=1.0),)),
            # Domain extreme the preset rejects (ma_window must be >= 1).
            dict(space=(TuneParam("ma_window", lo=0, hi=16, integer=True),)),
        ],
    )
    def test_validate_rejects_bad_configs(self, kwargs):
        with pytest.raises(ConfigurationError):
            _space_config(**kwargs).validate()

    def test_campaign_key_tracks_search_knobs(self):
        assert (
            _space_config().campaign_key() == _space_config().campaign_key()
        )
        assert (
            _space_config().campaign_key()
            != _space_config(search_seed=1).campaign_key()
        )

    def test_family_key_ignores_search_knobs_but_not_objective(self):
        base = _space_config()
        assert base.family_key() == _space_config(
            search_seed=7, samples=5, refine_rounds=0,
            space=(TuneParam("delay", choices=(0.0, 60.0)),),
        ).family_key()
        assert base.family_key() != _space_config(seeds=(0, 2)).family_key()
        assert base.family_key() != _space_config(
            objective=TuneObjective(loss_budget=0.1)
        ).family_key()
        assert base.family_key() != _space_config(
            base=FleetScenarioConfig(devices=16)
        ).family_key()

    def test_candidate_zero_is_the_midpoint(self):
        config = _space_config()
        assert config.sample_assignment(0) == {"ma_window": 9, "delay": 0.0}
        assert config.sample_assignment(1) == config.sample_assignment(1)


def _search_config(**kwargs):
    """A synthetic-landscape config; the evaluator never runs fleets."""
    defaults = dict(
        base=FleetScenarioConfig(devices=8),
        space=(
            TuneParam("ma_window", lo=1, hi=32, integer=True),
            TuneParam("delay", choices=(0.0, 60.0, 600.0)),
        ),
        preset="unified",
        seeds=(0,),
        screen_seeds=1,
        samples=8,
        survivors=2,
        refine_rounds=3,
    )
    defaults.update(kwargs)
    return TuneConfig(**defaults)


def _landscape(assignment):
    """Known synthetic optimum: ma_window=21, delay=60.

    21 is deliberately off the uniform grid the differential test
    spends its budget on, so the comparison measures the adaptive
    search's refinement, not a lucky grid alignment.
    """
    penalty = {0.0: 0.3, 60.0: 0.0, 600.0: 0.6}[assignment["delay"]]
    return abs(assignment["ma_window"] - 21) * 0.05 + penalty


class TestSearchCore:
    def _evaluate(self, calls=None):
        def evaluate_batch(assignments, seed):
            if calls is not None:
                calls.extend(
                    (canonical_json(a), seed) for a in assignments
                )
            return [_landscape(a) for a in assignments]
        return evaluate_batch

    def test_trajectory_is_deterministic(self):
        config = _search_config()
        first = run_tune_search(config, self._evaluate())
        second = run_tune_search(config, self._evaluate())
        assert trajectory_jsonl(first.trajectory) == trajectory_jsonl(
            second.trajectory
        )
        assert first.params == second.params
        assert first.objective == second.objective

    def test_never_reevaluates_a_candidate_seed_pair(self):
        calls = []
        run_tune_search(_search_config(seeds=(0, 1), screen_seeds=1),
                        self._evaluate(calls))
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("search_seed", [0, 1, 2])
    def test_beats_exhaustive_grid_under_same_budget(self, search_seed):
        """Differential search quality: on a known landscape, the
        adaptive search must be no worse than spending the identical
        evaluation budget on a uniform grid."""
        budget = 24
        config = _search_config(search_seed=search_seed, budget=budget)
        result = run_tune_search(config, self._evaluate())
        assert result.evaluations <= budget

        choices = (0.0, 60.0, 600.0)
        per_choice = budget // len(choices)
        lo, hi = 1, 32
        grid_best = min(
            _landscape({"ma_window": lo + round(i * (hi - lo) / (per_choice - 1)),
                        "delay": delay})
            for delay in choices
            for i in range(per_choice)
        )
        assert result.objective <= grid_best + 1e-12

    def test_identical_objectives_tie_break_by_canonical_key(self):
        """An all-flat landscape still yields one deterministic winner:
        the smallest canonical parameter JSON among the candidates."""
        config = _search_config(refine_rounds=0)

        def flat(assignments, seed):
            return [0.5 for _ in assignments]

        result = run_tune_search(config, flat)
        candidates = [
            canonical_json(config.sample_assignment(i))
            for i in range(config.samples)
        ]
        assert result.params_json == min(candidates)
        assert run_tune_search(config, flat).params_json == result.params_json

    def test_budget_exhaustion_keeps_last_checkpoint(self):
        # A continuous space never collides, so round 0 draws exactly
        # `samples` unique candidates and budget == samples cuts the
        # search right after the screening checkpoint.
        config = _search_config(
            space=(TuneParam("delay", lo=0.0, hi=600.0),),
            seeds=(0, 1), screen_seeds=1, budget=8,
        )

        def landscape(assignments, seed):
            return [abs(a["delay"] - 450.0) for a in assignments]

        result = run_tune_search(config, landscape)
        assert result.exhausted
        assert result.evaluations == 8
        assert result.objective_seeds == (0,)  # promotion never finished
        assert result.params is not None

    def test_unlimited_budget_runs_to_completion(self):
        config = _search_config(seeds=(0, 1), screen_seeds=1)
        result = run_tune_search(config, self._evaluate())
        assert not result.exhausted
        assert result.objective_seeds == (0, 1)


class TestRunFleetTune:
    def test_fresh_campaign_records_best(self, tmp_path):
        config = _space_config()
        with SweepStore(tmp_path / "s.sqlite") as store:
            outcome = run_fleet_tune(config, store)
            assert outcome.incumbent is not None
            assert outcome.best_recorded
            assert not outcome.interrupted
            assert outcome.reused == 0
            best = store.get_best(config.family_key())
        assert best is not None
        assert best.variant_name == outcome.incumbent.name
        assert best.objective == outcome.incumbent.objective

    def test_replay_leaves_best_unchanged(self, tmp_path):
        config = _space_config()
        with SweepStore(tmp_path / "s.sqlite") as store:
            first = run_fleet_tune(config, store)
            again = run_fleet_tune(config, store, resume=True)
            assert again.computed == 0
            assert again.reused > 0
            assert not again.best_recorded  # tie keeps the incumbent
            assert again.incumbent == first.incumbent

    def test_unresumed_partial_campaign_is_refused(self, tmp_path):
        config = _space_config()
        with SweepStore(tmp_path / "s.sqlite") as store:
            run_fleet_tune(config, store, max_evals=2)
            with pytest.raises(ConfigurationError, match="--resume"):
                run_fleet_tune(config, store)

    def test_interrupted_outcome_has_no_incumbent(self, tmp_path):
        config = _space_config()
        with SweepStore(tmp_path / "s.sqlite") as store:
            outcome = run_fleet_tune(config, store, max_evals=2)
        assert outcome.interrupted
        assert outcome.incumbent is None
        assert not outcome.best_recorded
        assert outcome.computed == 2

    def test_cross_campaign_cell_reuse(self, tmp_path):
        """Cells are content-addressed, so a second campaign over an
        overlapping space replays them instead of recomputing."""
        with SweepStore(tmp_path / "s.sqlite") as store:
            run_fleet_tune(_space_config(), store)
            other = run_fleet_tune(
                _space_config(samples=4, search_seed=3), store
            )
        assert other.reused > 0  # at least the shared online baselines

    def test_screening_only_incumbent_is_not_recorded(self, tmp_path):
        """A budget-exhausted campaign whose incumbent never reached the
        full seed set must not pollute cross-campaign comparisons."""
        config = _space_config(budget=3)  # one screening pass only
        with SweepStore(tmp_path / "s.sqlite") as store:
            outcome = run_fleet_tune(config, store)
            assert outcome.exhausted
            assert outcome.incumbent is not None
            assert outcome.incumbent.seeds == (0,)
            assert not outcome.best_recorded
            assert store.best_rows() == []

    def test_trajectory_invariant_to_jobs(self, tmp_path):
        config = _space_config()
        with SweepStore(tmp_path / "a.sqlite") as store:
            serial = run_fleet_tune(config, store, shards=2, jobs=1)
        with SweepStore(tmp_path / "b.sqlite") as store:
            workers = run_fleet_tune(config, store, shards=2, jobs=2)
        assert trajectory_jsonl(serial.trajectory) == trajectory_jsonl(
            workers.trajectory
        )
        assert dump_rows(serial.rows) == dump_rows(workers.rows)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        split=st.integers(min_value=1, max_value=9),
        jobs=st.sampled_from([1, 2]),
    )
    def test_resume_equals_fresh_run_property(self, split, jobs):
        """Killing after any number of computed cells and resuming (at
        any jobs) reproduces the uninterrupted campaign's store image
        and incumbent trajectory byte-for-byte."""
        config = _space_config()
        with tempfile.TemporaryDirectory() as tmp:
            with SweepStore(os.path.join(tmp, "fresh.sqlite")) as store:
                fresh = run_fleet_tune(config, store, shards=2)
            with SweepStore(os.path.join(tmp, "resumed.sqlite")) as store:
                partial = run_fleet_tune(
                    config, store, shards=2, max_evals=split
                )
                assert partial.computed == min(split, fresh.computed)
                resumed = run_fleet_tune(
                    config, store, shards=2, jobs=jobs, resume=True
                )
        assert dump_rows(fresh.rows) == dump_rows(resumed.rows)
        assert trajectory_jsonl(fresh.trajectory) == trajectory_jsonl(
            resumed.trajectory
        )
        assert fresh.incumbent == resumed.incumbent
        assert fresh.evaluations == resumed.evaluations


def _best_row(family="f1", objective=0.5, label="family-1"):
    return BestRow(
        family_key=family,
        label=label,
        campaign_key="c1",
        variant_name='{"unified":{"delay":0}}',
        policy_json=canonical_json({"kind": "unified"}),
        params_json=canonical_json({"delay": 0}),
        objective=objective,
        objective_json=canonical_json({"loss_weight": 10.0}),
        seeds_json=canonical_json([0, 1]),
    )


class TestBestTable:
    def test_strictly_better_replaces(self, tmp_path):
        with SweepStore(tmp_path / "s.sqlite") as store:
            assert store.record_best(_best_row(objective=0.5))
            assert not store.record_best(_best_row(objective=0.5))  # tie
            assert not store.record_best(_best_row(objective=0.6))
            assert store.record_best(_best_row(objective=0.4))
            assert store.get_best("f1").objective == 0.4
            assert len(store.best_rows()) == 1


class TestBestDiff:
    def test_all_statuses(self):
        current = [
            _best_row("f-improved", 0.4),
            _best_row("f-new", 0.5),
            _best_row("f-regressed", 0.7),
            _best_row("f-unchanged", 0.5),
        ]
        baseline = [
            _best_row("f-improved", 0.5),
            _best_row("f-missing", 0.5),
            _best_row("f-regressed", 0.5),
            _best_row("f-unchanged", 0.5),
        ]
        diffs = diff_best(current, baseline)
        assert [(d.family_key, d.status) for d in diffs] == [
            ("f-improved", "improved"),
            ("f-missing", "missing"),
            ("f-new", "new"),
            ("f-regressed", "regressed"),
            ("f-unchanged", "unchanged"),
        ]
        by_key = {d.family_key: d for d in diffs}
        assert by_key["f-improved"].delta == pytest.approx(-0.1)
        assert by_key["f-new"].delta is None

    def test_float_noise_is_unchanged(self):
        diffs = diff_best(
            [_best_row("f1", 0.5)], [_best_row("f1", 0.5 + 1e-12)]
        )
        assert diffs[0].status == "unchanged"

    def test_reports_render(self):
        diffs = diff_best([_best_row("f1", 0.4)], [_best_row("f1", 0.5)])
        text = render_report_text(diffs)
        assert "improved" in text and "delta=-0.100000" in text
        payload = json.loads(render_report_json(diffs))
        assert payload[0]["status"] == "improved"
        assert render_report_text([]) == "no tuned families in either store"


class TestTuneCli:
    def _argv(self, store, extra=()):
        return [
            "--store", str(store),
            "--devices", "8",
            "--preset", "unified",
            "--int-param", "ma_window=2:16",
            "--choice", "delay=0,60",
            "--seeds", "0", "1",
            "--screen-seeds", "1",
            "--samples", "3",
            "--survivors", "2",
            "--refine-rounds", "1",
            "--quiet",
            *extra,
        ]

    def test_end_to_end_text_summary(self, tmp_path, capsys):
        rc = fleet_tune_cli.main(self._argv(tmp_path / "s.sqlite"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "incumbent:" in out
        assert "best-known variant: updated" in out
        assert "trajectory:" in out

    def test_json_summary(self, tmp_path, capsys):
        rc = fleet_tune_cli.main(
            self._argv(tmp_path / "s.sqlite", ["--format", "json"])
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_recorded"] is True
        assert payload["incumbent"]["params"].keys() == {"ma_window", "delay"}
        assert payload["trajectory"]

    def test_kill_and_resume_is_byte_identical(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.sqlite"
        assert fleet_tune_cli.main(
            self._argv(fresh, ["--trajectory"])
        ) == 0
        fresh_traj = capsys.readouterr().out
        assert fleet_tune_cli.main(
            self._argv(fresh, ["--resume", "--dump-rows"])
        ) == 0
        fresh_rows = capsys.readouterr().out

        resumed = tmp_path / "resumed.sqlite"
        assert fleet_tune_cli.main(
            self._argv(resumed, ["--max-evals", "4"])
        ) == 0
        capsys.readouterr()
        assert fleet_tune_cli.main(
            self._argv(resumed, ["--resume", "--jobs", "2", "--trajectory"])
        ) == 0
        assert capsys.readouterr().out == fresh_traj
        assert fleet_tune_cli.main(
            self._argv(resumed, ["--resume", "--dump-rows"])
        ) == 0
        assert capsys.readouterr().out == fresh_rows

    def test_report_unchanged_after_replay(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.sqlite"
        other = tmp_path / "other.sqlite"
        assert fleet_tune_cli.main(self._argv(fresh)) == 0
        assert fleet_tune_cli.main(self._argv(other)) == 0
        capsys.readouterr()
        rc = fleet_tune_cli.main([
            "--store", str(other), "--report", "--baseline", str(fresh),
            "--fail-on-regression",
        ])
        assert rc == 0
        assert "unchanged" in capsys.readouterr().out

    def test_report_regression_fails_when_asked(self, tmp_path, capsys):
        current, baseline = tmp_path / "cur.sqlite", tmp_path / "base.sqlite"
        with SweepStore(current) as store:
            store.record_best(_best_row(objective=0.6))
        with SweepStore(baseline) as store:
            store.record_best(_best_row(objective=0.5))
        argv = ["--store", str(current), "--report",
                "--baseline", str(baseline)]
        assert fleet_tune_cli.main(argv) == 0  # informational by default
        capsys.readouterr()
        rc = fleet_tune_cli.main(argv + ["--fail-on-regression"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "regressed" in captured.out
        assert "regressed" in captured.err

    @pytest.mark.parametrize("missing", ["store", "baseline"])
    def test_report_refuses_missing_store(self, tmp_path, capsys, missing):
        existing, absent = tmp_path / "real.sqlite", tmp_path / "typo.sqlite"
        with SweepStore(existing) as store:
            store.record_best(_best_row(objective=0.5))
        store, baseline = (
            (absent, existing) if missing == "store" else (existing, absent)
        )
        rc = fleet_tune_cli.main([
            "--store", str(store), "--report", "--baseline", str(baseline),
            "--fail-on-regression",
        ])
        assert rc == 2
        assert f"error: no such store: {absent}" in capsys.readouterr().err
        assert not absent.exists()

    def test_faults_flag_sets_no_process_state(self, tmp_path, capsys):
        rc = fleet_tune_cli.main(
            self._argv(tmp_path / "s.sqlite", ["--faults", "lossy"])
        )
        assert rc == 0
        assert faults.active_spec() is None

    def test_routed_from_fleet_cli(self, tmp_path, capsys):
        rc = fleet_cli.main(
            ["tune", *self._argv(tmp_path / "s.sqlite")]
        )
        assert rc == 0
        assert "incumbent:" in capsys.readouterr().out

    def test_routed_from_main_cli(self, tmp_path, capsys):
        rc = main_cli.main(
            ["fleet", "tune", *self._argv(tmp_path / "s.sqlite")]
        )
        assert rc == 0
        assert "incumbent:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--devices", "0"],
            ["--shards", "0"],
            ["--jobs", "-1"],
            ["--max-evals", "0"],
            ["--param", "ma_window"],
            ["--param", "ma_window=2"],
            ["--param", "ma_window=a:b"],
            ["--int-param", "ma_window=0:16"],  # preset rejects lo corner
            ["--choice", "delay=not json"],
            ["--choice", "delay="],
            ["--param", "no_such_kwarg=0:1"],
            ["--report"],  # needs --baseline
            ["--baseline", "x.sqlite"],  # needs --report
            ["--dump-rows", "--trajectory"],
            ["--faults", "no-such-preset"],
            ["--budget", "1"],  # < samples
        ],
    )
    def test_rejects_bad_flags(self, tmp_path, extra):
        argv = ["--store", str(tmp_path / "s.sqlite"), "--quiet",
                "--samples", "3", *extra]
        with pytest.raises(SystemExit) as excinfo:
            fleet_tune_cli.main(argv)
        assert excinfo.value.code == 2

    def test_unwritable_output_is_typed_error(self, tmp_path, capsys):
        rc = fleet_tune_cli.main(
            self._argv(
                tmp_path / "s.sqlite",
                ["--output", str(tmp_path / "no-dir" / "out.txt")],
            )
        )
        assert rc == 2
        assert "error: cannot write output" in capsys.readouterr().err
