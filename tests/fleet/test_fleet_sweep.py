"""Fleet sweep campaigns: config grid, results store, resume, CLI.

The load-bearing claims under test:

* the store key is a pure function of the cell's configuration, so a
  resumed campaign skips exactly the completed cells and the resulting
  rows are **bit-identical** to an uninterrupted run's (for fixed
  ``--shards``; ``--jobs`` never matters);
* one workload build serves every policy variant of a ``(scenario,
  seed)`` cell group (the shared-workload execution shape), without
  changing any metric versus isolated runs;
* the Pareto summary joins loss against the ``online`` baseline and
  flags the non-dominated (waste, loss) points.
"""

import dataclasses
import hashlib
import json
import os
import sqlite3
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.errors import ConfigurationError, ExportError
from repro.experiments import fleet_cli, fleet_sweep_cli
from repro.experiments import cli as main_cli
from repro.experiments.parallel import run_fleet_policy_batch, run_fleet_shards
from repro.faults import FaultSpec
from repro.fleet.config import FleetScenarioConfig
from repro.fleet.store import (
    STORE_FORMAT_VERSION,
    SweepRow,
    SweepStore,
    canonical_json,
    cell_key,
    dump_rows,
)
from repro.fleet.sweep import (
    FleetSweepConfig,
    PolicyVariant,
    parse_policy_token,
    policy_variant_from_spec,
    run_fleet_sweep,
    summarize_pareto,
)
from repro.fleet.workload import build_fleet_workload
from repro.proxy.policies import PolicyConfig


@pytest.fixture(autouse=True)
def _reset_process_state():
    """Leave process-wide faults/obs clean whatever a test configures."""
    yield
    from repro import obs

    faults.configure(None)
    obs.configure(None)


def _tiny_config(**kwargs):
    defaults = dict(
        base=FleetScenarioConfig(devices=12),
        policies=(parse_policy_token("online"), parse_policy_token("unified")),
        seeds=(0, 1),
        axes=(("devices", (12, 24)),),
    )
    defaults.update(kwargs)
    return FleetSweepConfig(**defaults)


class TestSweepConfig:
    def test_grid_and_cells_are_deterministic(self):
        config = _tiny_config()
        grid = config.scenario_grid()
        assert [s.devices for s in grid] == [12, 24]
        cells = config.cells()
        assert len(cells) == 2 * 2 * 2
        # Scenario-major, then seed, then policy — the grouping contract.
        assert [
            (c.scenario.devices, c.seed, c.variant.name) for c in cells[:4]
        ] == [
            (12, 0, "online"), (12, 0, "unified"),
            (12, 1, "online"), (12, 1, "unified"),
        ]
        assert cells == config.cells()
        assert len({c.key for c in cells}) == len(cells)

    def test_later_axes_vary_fastest(self):
        config = _tiny_config(
            axes=(("devices", (12, 24)), ("threshold", (0.0, 0.5)))
        )
        grid = config.scenario_grid()
        assert [(s.devices, s.threshold) for s in grid] == [
            (12, 0.0), (12, 0.5), (24, 0.0), (24, 0.5)
        ]

    def test_list_axis_values_freeze_to_tuples(self):
        config = _tiny_config(axes=(("volume_limits", ([4, 8], [8, 16])),))
        grid = config.scenario_grid()
        assert [s.volume_limits for s in grid] == [(4, 8), (8, 16)]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(policies=()),
            dict(policies=(parse_policy_token("online"),) * 2),
            dict(seeds=()),
            dict(seeds=(0, 0)),
            dict(axes=(("seed", (1, 2)),)),
            dict(axes=(("no_such_field", (1,)),)),
            dict(axes=(("devices", ()),)),
            dict(axes=(("devices", (12,)), ("devices", (24,)))),
            dict(axes=(("devices", (0,)),)),  # invalid scenario in grid
        ],
    )
    def test_validate_rejects_bad_grids(self, kwargs):
        with pytest.raises(ConfigurationError):
            _tiny_config(**kwargs).validate()

    def test_campaign_key_tracks_spec(self):
        a = _tiny_config()
        b = _tiny_config(seeds=(0, 2))
        assert a.campaign_key() == _tiny_config().campaign_key()
        assert a.campaign_key() != b.campaign_key()

    def test_cell_key_depends_on_every_component(self):
        scenario = FleetScenarioConfig(devices=12)
        online = PolicyConfig.online()
        base = cell_key(scenario, "online", online)
        assert base == cell_key(scenario, "online", online)
        assert base != cell_key(scenario.with_changes(seed=1), "online", online)
        assert base != cell_key(scenario, "renamed", online)
        assert base != cell_key(scenario, "online", PolicyConfig.on_demand())


class TestPolicyParsing:
    def test_presets_and_buffer_token(self):
        assert parse_policy_token("unified").name == "unified"
        buffered = parse_policy_token("buffer:8")
        assert buffered.name == "buffer:8"
        assert buffered.policy.prefetch_limit == 8

    @pytest.mark.parametrize(
        "token",
        [
            "nope", "buffer:x", "buffer:",
            # Regression: int() accepts sign/whitespace/underscore forms
            # that would mint distinct variant names for the same limit
            # (buffer:8 vs buffer:+8), splitting store cells. Only a
            # bare non-negative integer is a valid limit token.
            "buffer:+3", "buffer: 3", "buffer:-1", "buffer:1_0",
            "buffer:³",
        ],
    )
    def test_rejects_bad_tokens(self, token):
        with pytest.raises(ConfigurationError):
            parse_policy_token(token)

    def test_spec_object_parameterizes_preset(self):
        variant = policy_variant_from_spec(
            {"name": "u-delay", "preset": "unified", "params": {"delay": 60.0}}
        )
        assert variant.name == "u-delay"
        assert variant.policy.delay == 60.0

    @pytest.mark.parametrize(
        "spec",
        [
            42,
            {"preset": "nope"},
            {"preset": "unified", "nope": 1},
            {"preset": "unified", "params": {"no_such_kwarg": 1}},
            {"preset": "unified", "params": "delay"},
        ],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ConfigurationError):
            policy_variant_from_spec(spec)


class TestSweepStore:
    def _row(self, key="k1", campaign="c1"):
        return SweepRow(
            cell_key=key,
            campaign_key=campaign,
            scenario_json=canonical_json({"devices": 1}),
            policy_name="online",
            policy_json=canonical_json({"kind": "online"}),
            seed=0,
            metrics_json=canonical_json({"forwarded": 3}),
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with SweepStore(path) as store:
            store.register_campaign("c1", "{}")
            store.append(self._row("k2"))
            store.append(self._row("k1"))
            assert len(store) == 2
            assert store.existing_keys(["k1", "k3"]) == {"k1"}
        with SweepStore(path) as store:
            rows = store.rows("c1")
            assert [row.cell_key for row in rows] == ["k1", "k2"]
            assert rows[0].metrics == {"forwarded": 3}

    def test_duplicate_append_is_export_error(self, tmp_path):
        with SweepStore(tmp_path / "store.sqlite") as store:
            store.append(self._row())
            with pytest.raises(ExportError):
                store.append(self._row())
            assert len(store) == 1

    def test_unopenable_path_is_export_error(self, tmp_path):
        with pytest.raises(ExportError):
            SweepStore(tmp_path / "missing-dir" / "store.sqlite")

    def _write_v1_store(self, path, rows=()):
        """A genuine PR 9-format file: no ``best`` table, format 1."""
        conn = sqlite3.connect(str(path))
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
        conn.execute(
            "CREATE TABLE campaigns (campaign_key TEXT PRIMARY KEY, "
            "spec_json TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE results (cell_key TEXT PRIMARY KEY, "
            "campaign_key TEXT NOT NULL, scenario_json TEXT NOT NULL, "
            "policy_name TEXT NOT NULL, policy_json TEXT NOT NULL, "
            "seed INTEGER NOT NULL, metrics_json TEXT NOT NULL)"
        )
        conn.execute("INSERT INTO meta VALUES ('store_format', '1')")
        for row in rows:
            conn.execute(
                "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?)",
                (row.cell_key, row.campaign_key, row.scenario_json,
                 row.policy_name, row.policy_json, row.seed,
                 row.metrics_json),
            )
        conn.commit()
        conn.close()

    def test_newer_format_refused_with_typed_error(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with SweepStore(path) as store:
            store._conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'store_format'",
                (str(STORE_FORMAT_VERSION + 1),),
            )
            store._conn.commit()
        with pytest.raises(ExportError, match="newer"):
            SweepStore(path)

    def test_unrecognized_format_refused_with_typed_error(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with SweepStore(path) as store:
            store._conn.execute(
                "UPDATE meta SET value = 'banana' "
                "WHERE key = 'store_format'"
            )
            store._conn.commit()
        with pytest.raises(ExportError, match="unrecognized"):
            SweepStore(path)

    def test_v1_store_upgrades_in_place(self, tmp_path):
        """A PR 9-format file opens, gains the ``best`` table, keeps its
        rows addressable — old campaigns stay resumable after upgrade."""
        path = tmp_path / "store.sqlite"
        self._write_v1_store(path, rows=[self._row("k1")])
        with SweepStore(path) as store:
            assert store.existing_keys(["k1"]) == {"k1"}
            assert store.rows("c1")[0].metrics == {"forwarded": 3}
            assert store.best_rows() == []  # the new table, empty
            value = store._conn.execute(
                "SELECT value FROM meta WHERE key = 'store_format'"
            ).fetchone()[0]
            assert int(value) == STORE_FORMAT_VERSION
        # Reopening the upgraded file is a no-op.
        with SweepStore(path) as store:
            assert len(store) == 1

    def test_v1_upgrade_preserves_cell_keys(self, tmp_path):
        """The key a v1 build derived matches the one this build derives
        for the same cell (CELL_KEY_FORMAT_VERSION pins it), so a
        campaign started before the upgrade resumes without recompute."""
        scenario = FleetScenarioConfig(devices=12)
        key = cell_key(scenario, "online", PolicyConfig.online())
        # The exact derivation a format-1 build used, spelled out.
        v1_body = canonical_json({
            "store_format": 1,
            "scenario": dataclasses.asdict(scenario),
            "policy_name": "online",
            "policy": dataclasses.asdict(PolicyConfig.online()),
            "faults": None,
        })
        assert key == hashlib.sha256(v1_body.encode("utf-8")).hexdigest()

    def test_dump_rows_sorted_and_stable(self):
        a, b = self._row("aa"), self._row("zz")
        assert dump_rows([b, a]) == dump_rows([a, b])
        assert '"cell_key":"aa"' in dump_rows([b, a]).splitlines()[0]


class TestRunFleetSweep:
    def test_fresh_run_completes_grid(self, tmp_path):
        config = _tiny_config()
        with SweepStore(tmp_path / "s.sqlite") as store:
            outcome = run_fleet_sweep(config, store)
        assert outcome.computed == len(config.cells())
        assert outcome.skipped == 0
        assert outcome.remaining == 0
        assert len(outcome.rows) == outcome.computed

    def test_rows_invariant_to_jobs(self, tmp_path):
        config = _tiny_config()
        with SweepStore(tmp_path / "a.sqlite") as store:
            serial = dump_rows(run_fleet_sweep(config, store, shards=2).rows)
        with SweepStore(tmp_path / "b.sqlite") as store:
            parallel_dump = dump_rows(
                run_fleet_sweep(config, store, shards=2, jobs=2).rows
            )
        assert serial == parallel_dump

    def test_unresumed_partial_store_is_refused(self, tmp_path):
        config = _tiny_config()
        with SweepStore(tmp_path / "s.sqlite") as store:
            run_fleet_sweep(config, store, max_cells=2)
            with pytest.raises(ConfigurationError, match="--resume"):
                run_fleet_sweep(config, store)
            outcome = run_fleet_sweep(config, store, resume=True)
        assert outcome.skipped == 2
        assert outcome.computed == len(config.cells()) - 2

    def test_resume_skips_everything_when_complete(self, tmp_path):
        config = _tiny_config()
        with SweepStore(tmp_path / "s.sqlite") as store:
            run_fleet_sweep(config, store)
            again = run_fleet_sweep(config, store, resume=True)
        assert again.computed == 0
        assert again.skipped == len(config.cells())

    def test_progress_lines_cover_computed_cells(self, tmp_path):
        config = _tiny_config()
        lines = []
        with SweepStore(tmp_path / "s.sqlite") as store:
            run_fleet_sweep(config, store, progress=lines.append)
        assert len(lines) == len(config.cells())
        assert lines[0].startswith("[1/8] ")

    def test_rejects_bad_max_cells(self, tmp_path):
        with SweepStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(ConfigurationError):
                run_fleet_sweep(_tiny_config(), store, max_cells=0)

    def test_matches_isolated_single_policy_runs(self, tmp_path):
        """Stored rows == one isolated run_fleet_shards per policy: the
        shared workload build changes throughput, never metrics."""
        config = _tiny_config(axes=(), seeds=(0,))
        with SweepStore(tmp_path / "s.sqlite") as store:
            outcome = run_fleet_sweep(config, store, shards=2)
        workload = build_fleet_workload(config.base.with_changes(seed=0))
        by_name = {row.policy_name: row for row in outcome.rows}
        for variant in config.policies:
            alone = run_fleet_shards(workload, variant.policy, shards=2)
            assert by_name[variant.name].metrics_json == canonical_json(
                alone.metrics_row()
            )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(split=st.integers(min_value=1, max_value=7))
    def test_resume_equals_fresh_run_property(self, split):
        """Killing after any number of cells and resuming reproduces the
        uninterrupted store row-for-row, byte-for-byte."""
        config = _tiny_config()
        with tempfile.TemporaryDirectory() as tmp:
            with SweepStore(os.path.join(tmp, "fresh.sqlite")) as store:
                fresh = dump_rows(run_fleet_sweep(config, store, shards=2).rows)
            with SweepStore(os.path.join(tmp, "resumed.sqlite")) as store:
                partial = run_fleet_sweep(
                    config, store, shards=2, max_cells=split
                )
                assert partial.computed == split
                resumed = dump_rows(
                    run_fleet_sweep(config, store, shards=2, resume=True).rows
                )
        assert fresh == resumed


class TestPolicyBatch:
    def test_batch_matches_per_policy_runs(self):
        workload = build_fleet_workload(FleetScenarioConfig(devices=16))
        policies = [PolicyConfig.online(), PolicyConfig.unified()]
        batch = run_fleet_policy_batch(workload, policies, shards=2)
        for policy, acc in zip(policies, batch):
            alone = run_fleet_shards(workload, policy, shards=2)
            assert acc.signature() == alone.signature()

    def test_worker_path_matches_inline(self):
        workload = build_fleet_workload(FleetScenarioConfig(devices=16))
        policies = [PolicyConfig.online(), PolicyConfig.on_demand()]
        inline = run_fleet_policy_batch(workload, policies, shards=2, jobs=1)
        workers = run_fleet_policy_batch(workload, policies, shards=2, jobs=2)
        for a, b in zip(inline, workers):
            assert a.signature() == b.signature()

    def test_empty_policy_list(self):
        workload = build_fleet_workload(FleetScenarioConfig(devices=4))
        assert run_fleet_policy_batch(workload, []) == []


class TestParetoSummary:
    def _rows(self, tmp_path, config):
        with SweepStore(tmp_path / "s.sqlite") as store:
            return run_fleet_sweep(config, store, shards=2).rows

    def test_baseline_loss_is_zero_and_front_flagged(self, tmp_path):
        config = _tiny_config()
        summaries = summarize_pareto(config, self._rows(tmp_path, config))
        assert [s.label for s in summaries] == ["devices=12", "devices=24"]
        for family in summaries:
            assert family.seeds == (0, 1)
            by_name = {p.name: p for p in family.policies}
            assert by_name["online"].loss == 0.0
            assert any(p.on_front for p in family.policies)
            # online forwards everything at arrival: maximal waste, so
            # a policy with less waste and no loss dominates it.
            assert by_name["unified"].waste < by_name["online"].waste

    def test_without_baseline_loss_is_none(self, tmp_path):
        config = _tiny_config(
            policies=(parse_policy_token("unified"),), axes=(), seeds=(0,)
        )
        summaries = summarize_pareto(config, self._rows(tmp_path, config))
        (family,) = summaries
        assert family.label == "base scenario"
        (point,) = family.policies
        assert point.loss is None
        assert point.on_front

    def test_missing_rows_drop_out(self):
        config = _tiny_config()
        summaries = summarize_pareto(config, [])
        assert summaries == []

    def _synthetic_rows(self, config, metrics_by_name):
        """Hand-built rows keyed exactly as the sweep would key them."""
        rows = []
        for scenario in config.scenario_grid():
            for seed in config.seeds:
                seeded = scenario.with_changes(seed=seed)
                for variant in config.policies:
                    rows.append(SweepRow(
                        cell_key=cell_key(
                            seeded, variant.name, variant.policy
                        ),
                        campaign_key="c",
                        scenario_json=canonical_json(seeded),
                        policy_name=variant.name,
                        policy_json=canonical_json(variant.policy),
                        seed=seed,
                        metrics_json=canonical_json(
                            metrics_by_name[variant.name]
                        ),
                    ))
        return rows

    def test_zero_read_baseline_yields_zero_loss(self):
        """A baseline that read nothing (``online_read == 0``) defines
        loss as 0.0 for every policy — no division by zero, and waste
        alone decides the front."""
        config = _tiny_config(axes=())
        rows = self._synthetic_rows(config, {
            "online": {"waste": 1.0, "mean_read_age": 0.0,
                       "forwarded": 5, "messages_read": 0},
            "unified": {"waste": 0.25, "mean_read_age": 0.0,
                        "forwarded": 2, "messages_read": 0},
        })
        (family,) = summarize_pareto(config, rows)
        by_name = {p.name: p for p in family.policies}
        assert by_name["online"].loss == 0.0
        assert by_name["unified"].loss == 0.0
        assert by_name["unified"].on_front
        assert not by_name["online"].on_front  # dominated on waste

    def test_identical_points_all_on_front(self):
        """Pareto dominance is strict: coincident (waste, loss) points
        do not dominate each other, so an all-tied family keeps every
        policy on the front."""
        config = _tiny_config(axes=())
        same = {"waste": 0.5, "mean_read_age": 10.0,
                "forwarded": 3, "messages_read": 3}
        rows = self._synthetic_rows(
            config, {"online": same, "unified": same}
        )
        (family,) = summarize_pareto(config, rows)
        assert all(p.on_front for p in family.policies)

    def test_single_policy_family_is_trivially_on_front(self):
        config = _tiny_config(
            policies=(parse_policy_token("online"),), axes=()
        )
        rows = self._synthetic_rows(config, {
            "online": {"waste": 1.0, "mean_read_age": 0.0,
                       "forwarded": 5, "messages_read": 5},
        })
        (family,) = summarize_pareto(config, rows)
        (point,) = family.policies
        assert point.on_front
        assert point.loss == 0.0  # it is its own baseline


class TestSweepCli:
    def _argv(self, store, extra=()):
        return [
            "--store", str(store),
            "--devices", "12",
            "--axis", "devices=12,24",
            "--policies", "online,unified",
            "--seeds", "0", "1",
            "--quiet",
            *extra,
        ]

    def test_end_to_end_text_summary(self, tmp_path, capsys):
        rc = fleet_sweep_cli.main(self._argv(tmp_path / "s.sqlite"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "scenario family: devices=12" in out
        assert "waste%" in out and "loss%" in out

    def test_json_summary(self, tmp_path, capsys):
        rc = fleet_sweep_cli.main(
            self._argv(tmp_path / "s.sqlite", ["--format", "json"])
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        names = {p["name"] for p in payload[0]["policies"]}
        assert names == {"online", "unified"}

    def test_kill_and_resume_dumps_identical_rows(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.sqlite"
        rc = fleet_sweep_cli.main(self._argv(fresh, ["--dump-rows"]))
        assert rc == 0
        fresh_dump = capsys.readouterr().out
        resumed = tmp_path / "resumed.sqlite"
        rc = fleet_sweep_cli.main(self._argv(resumed, ["--max-cells", "3"]))
        assert rc == 0
        capsys.readouterr()
        rc = fleet_sweep_cli.main(
            self._argv(resumed, ["--resume", "--dump-rows"])
        )
        assert rc == 0
        assert capsys.readouterr().out == fresh_dump

    def test_unresumed_rerun_fails_cleanly(self, tmp_path, capsys):
        store = tmp_path / "s.sqlite"
        assert fleet_sweep_cli.main(self._argv(store)) == 0
        capsys.readouterr()
        rc = fleet_sweep_cli.main(self._argv(store))
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--resume" in err

    def test_routed_from_fleet_cli(self, tmp_path, capsys):
        rc = fleet_cli.main(
            ["sweep", "--store", str(tmp_path / "s.sqlite"),
             "--devices", "8", "--policies", "online", "--quiet"]
        )
        assert rc == 0
        assert "base scenario" in capsys.readouterr().out

    def test_routed_from_main_cli(self, tmp_path, capsys):
        rc = main_cli.main(
            ["fleet", "sweep", "--store", str(tmp_path / "s.sqlite"),
             "--devices", "8", "--policies", "online", "--quiet"]
        )
        assert rc == 0
        assert "base scenario" in capsys.readouterr().out

    def test_faults_flag_sets_no_process_state(self, tmp_path, capsys):
        rc = fleet_sweep_cli.main(
            self._argv(tmp_path / "s.sqlite", ["--faults", "lossy"])
        )
        assert rc == 0
        assert faults.active_spec() is None

    def test_faults_flag_keys_cells_like_explicit_spec(self, tmp_path, capsys):
        rc = fleet_sweep_cli.main(
            self._argv(tmp_path / "cli.sqlite", ["--faults", "lossy", "--dump-rows"])
        )
        assert rc == 0
        config = FleetSweepConfig(
            base=FleetScenarioConfig(devices=12),
            policies=(parse_policy_token("online"), parse_policy_token("unified")),
            seeds=(0, 1),
            axes=(("devices", (12, 24)),),
            faults=FaultSpec.parse("lossy"),
        )
        with SweepStore(tmp_path / "api.sqlite") as store:
            outcome = run_fleet_sweep(config, store)
        assert capsys.readouterr().out == dump_rows(outcome.rows) + "\n"

    @pytest.mark.parametrize(
        "grid, axis, key",
        [
            ({"axes": [["devices"]]}, None, "axes"),
            ({"axes": 5}, None, "axes"),
            ({"axes": [["devices", 5]]}, None, "devices"),
            ({"seeds": ["x"]}, None, "seeds"),
            ({"seeds": 3}, None, "seeds"),
            ({"base": {"devices": "10"}}, None, "devices"),
            ({"base": {"devices": 8.5}}, None, "devices"),
            ({"policies": "online"}, None, "policies"),
            (None, 'devices="8"', "devices"),
            (None, "devices=8.5", "devices"),
            (None, "threshold=true", "threshold"),
        ],
    )
    def test_malformed_grid_or_axis_is_typed_error(
        self, tmp_path, capsys, grid, axis, key
    ):
        store = tmp_path / "s.sqlite"
        argv = ["--store", str(store), "--quiet"]
        if grid is not None:
            path = tmp_path / "grid.json"
            path.write_text(json.dumps(grid), encoding="utf-8")
            argv += ["--grid", str(path)]
        if axis is not None:
            argv += ["--axis", axis]
        args = fleet_sweep_cli.build_parser().parse_args(argv)
        with pytest.raises(ConfigurationError, match=key):
            fleet_sweep_cli.build_sweep_config(args).validate()
        with pytest.raises(SystemExit) as excinfo:
            fleet_sweep_cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err and "Traceback" not in err
        assert not store.exists()

    def test_grid_file(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "base": {"devices": 8},
            "axes": [["volume_limits", [[4, 8], [8, 16]]]],
            "policies": ["online",
                         {"name": "u-delay", "preset": "unified",
                          "params": {"delay": 60.0}}],
            "seeds": [0],
        }), encoding="utf-8")
        rc = fleet_sweep_cli.main(
            ["--store", str(tmp_path / "s.sqlite"), "--grid", str(grid),
             "--format", "json", "--quiet"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [f["family"] for f in payload] == [
            "volume_limits=(4, 8)", "volume_limits=(8, 16)"
        ]
        assert {p["name"] for p in payload[0]["policies"]} == {
            "online", "u-delay"
        }

    @pytest.mark.parametrize(
        "extra",
        [
            ["--devices", "0"],
            ["--days", "0"],
            ["--shards", "0"],
            ["--jobs", "-1"],
            ["--max-cells", "0"],
            ["--policies", "no-such-policy"],
            ["--axis", "no_such_field=1"],
            ["--axis", "devices"],
            ["--axis", "devices=not-json"],
            ["--faults", "no-such-preset"],
        ],
    )
    def test_rejects_bad_flags(self, tmp_path, extra):
        argv = ["--store", str(tmp_path / "s.sqlite"), "--quiet", *extra]
        with pytest.raises(SystemExit) as excinfo:
            fleet_sweep_cli.main(argv)
        assert excinfo.value.code == 2

    def test_unopenable_store_is_typed_error(self, tmp_path, capsys):
        rc = fleet_sweep_cli.main(
            ["--store", str(tmp_path / "no-dir" / "s.sqlite"),
             "--devices", "8", "--policies", "online", "--quiet"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: cannot open sweep store" in err
        assert "Traceback" not in err

    def test_unwritable_output_is_typed_error(self, tmp_path, capsys):
        rc = fleet_sweep_cli.main(
            self._argv(
                tmp_path / "s.sqlite",
                ["--output", str(tmp_path / "no-dir" / "out.txt")],
            )
        )
        assert rc == 2
        assert "error: cannot write output" in capsys.readouterr().err
