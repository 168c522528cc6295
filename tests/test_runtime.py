"""Tests for the ``repro.runtime`` engine: specs, registry, runner.

The headline acceptance test lives in ``TestToyPolicyEndToEnd``: a
brand-new policy registered here — without editing a single module
under ``experiments/`` — runs head-to-head against the built-ins via
``policy-eval``, both through the Python API and through
``repro-bench run`` with a spec JSON file.
"""

import json
import warnings

import numpy as np
import pytest

from repro.baselines.hierarchical import HierarchicalSearch
from repro.channel.environment import conference_room
from repro.core import ProbeMeasurement
from repro.core.selector import SelectionResult
from repro.experiments.common import build_testbed, record_directions
from repro.runtime import (
    PolicyContext,
    PolicySpec,
    ScenarioRunner,
    ScenarioSpec,
    available_policies,
    available_scenarios,
    build_policy,
    register_policy,
    scenario_spec,
)
from repro.runtime import TestbedSpec as _TestbedSpec  # alias: not a test class


class TestScenarioSpec:
    def _spec(self):
        return ScenarioSpec(
            scenario="fig9",
            seed=5,
            policies=(PolicySpec("css", {"n_probes": 10}),),
            params={"azimuth_step_deg": 20.0},
        )

    def test_json_round_trip(self):
        spec = self._spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_save_load_round_trip(self, tmp_path):
        spec = self._spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ScenarioSpec.load(path) == spec

    def test_digest_is_stable_and_sensitive(self):
        spec = self._spec()
        assert spec.digest() == self._spec().digest()
        assert spec.digest() != spec.with_seed(6).digest()

    def test_with_seed(self):
        spec = self._spec()
        assert spec.with_seed(None) is spec
        reseeded = spec.with_seed(42)
        assert reseeded.seed == 42
        assert reseeded.params == spec.params

    def test_testbed_spec_defaults_build_the_shared_testbed(self):
        # Memoized per spec, and content-identical to the default build
        # (the disk-memoized campaign makes both deterministic).
        built = _TestbedSpec().build()
        assert built is _TestbedSpec().build()
        default = build_testbed()
        assert built.tx_sector_ids == default.tx_sector_ids
        assert np.array_equal(
            built.pattern_table.pattern(1), default.pattern_table.pattern(1)
        )


class TestRegistry:
    def test_builtin_policies_present(self):
        assert {"css", "full-sweep", "hierarchical", "oracle", "random-beams"} <= set(
            available_policies()
        )

    def test_builtin_scenarios_present(self):
        assert {"fig7", "fig8", "fig9", "fig10", "fig11", "policy-eval"} <= set(
            available_scenarios()
        )

    def test_unknown_names_raise_with_inventory(self):
        context = PolicyContext(testbed=None)
        with pytest.raises(KeyError, match="unknown policy 'nope'"):
            build_policy(PolicySpec("nope"), context)
        with pytest.raises(KeyError, match="unknown scenario 'nope'"):
            scenario_spec("nope")

    def test_default_spec_lookup(self):
        spec = scenario_spec("fig9")
        assert spec.scenario == "fig9"
        assert spec.testbed == _TestbedSpec()


@register_policy("toy-loudest")
class ToyLoudestPolicy:
    """Probe the first ``n_probes`` sectors, keep the loudest one."""

    multi_round = False

    def __init__(self, context, n_probes=8):
        self.name = "toy-loudest"
        self.n_probes = int(n_probes)
        self._last = None

    def reset(self):
        self._last = None

    def probes_for_round(self, round_index, pool, rng):
        if round_index > 0:
            return None
        return list(pool)[: self.n_probes]

    def select(self, measurements):
        if not measurements:
            return SelectionResult(sector_id=self._last or 1, fallback=True)
        best = max(measurements, key=lambda m: m.snr_db)
        self._last = best.sector_id
        return SelectionResult(sector_id=best.sector_id)

    def training_time_us(self, probes_used, n_rounds=1):
        return 2.0 * probes_used * 18.0 + n_rounds * 49.1


class TestToyPolicyEndToEnd:
    def _spec(self):
        return ScenarioSpec(
            scenario="policy-eval",
            seed=3,
            policies=(
                PolicySpec("toy-loudest", {"n_probes": 6}),
                PolicySpec("full-sweep", {}),
            ),
            params={"azimuth_step_deg": 40.0, "n_sweeps": 2},
        )

    def test_runs_against_builtins_without_touching_experiments(self):
        with ScenarioRunner() as runner:
            outcome = runner.run(self._spec())
        rows = outcome.result.by_policy()
        assert set(rows) == {"toy-loudest", "full-sweep"}
        toy = rows["toy-loudest"]
        assert toy.mean_training_time_us > 0
        assert 0.0 <= toy.stability <= 1.0
        # Probing 6 fixed sectors can't beat the exhaustive sweep.
        assert toy.mean_loss_db >= rows["full-sweep"].mean_loss_db
        assert "toy-loudest" in outcome.manifest.policy_timings_s

    def test_runs_through_the_cli_from_a_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "toy.json"
        self._spec().save(path)
        assert main(["run", str(path)]) == 0
        output = capsys.readouterr().out
        assert "toy-loudest" in output
        assert "manifest: scenario=policy-eval" in output


class TestExecuteBatchScalarIdentity:
    class _ScalarOnly:
        """Proxy hiding ``select_batch`` to force per-row ``select`` calls."""

        def __init__(self, inner):
            object.__setattr__(self, "_inner", inner)

        def __getattr__(self, name):
            if name == "select_batch":
                raise AttributeError(name)
            return getattr(self._inner, name)

    def test_fallback_path_matches_batched_path(self):
        testbed = build_testbed()
        with ScenarioRunner() as runner:
            context = runner.context(testbed)
            policy = build_policy(PolicySpec("css", {"n_probes": 10}), context)
            recordings = record_directions(
                testbed,
                conference_room(6.0),
                [-30.0, 15.0],
                [0.0],
                2,
                np.random.default_rng(13),
            )
            blocks = runner.plan_trials(
                policy, recordings, testbed.tx_sector_ids, np.random.default_rng(14)
            )
            batched = runner.execute(policy, blocks, reset="recording")
            scalar = runner.execute(
                self._ScalarOnly(policy), blocks, reset="recording"
            )
        assert [r.result for r in scalar] == [r.result for r in batched]
        assert [r.sweep_index for r in scalar] == [r.sweep_index for r in batched]


class TestRunInteractive:
    def test_matches_hierarchical_search_run(self):
        testbed = build_testbed()
        runner = ScenarioRunner()  # interactive path: no pool to manage
        policy = build_policy(
            PolicySpec("hierarchical", {"n_groups": 6}), runner.context(testbed)
        )
        search = HierarchicalSearch(testbed.pattern_table, n_groups=6)
        table = testbed.pattern_table

        def measure(sector_ids, rng):
            return [
                ProbeMeasurement(
                    s,
                    float(table.gain(s, -20.0, 0.0)),
                    float(table.gain(s, -20.0, 0.0)) - 71.5,
                )
                for s in sector_ids
            ]

        ours = runner.run_interactive(
            policy, testbed.tx_sector_ids, measure, np.random.default_rng(0)
        )
        legacy = search.run(measure, np.random.default_rng(0))
        assert ours.result.sector_id == legacy.result.sector_id
        assert ours.probes_used == legacy.probes_used
        assert ours.n_rounds == legacy.n_rounds
        assert ours.training_time_us == pytest.approx(legacy.training_time_us)


class TestManifest:
    def test_run_emits_a_complete_manifest(self, tmp_path):
        spec = scenario_spec("fig10")
        with ScenarioRunner() as runner:
            outcome = runner.run(spec)
        manifest = outcome.manifest
        assert manifest.scenario == "fig10"
        assert manifest.spec_digest == spec.digest()
        assert manifest.seed == spec.seed
        assert manifest.jobs == 1
        assert manifest.wall_time_s >= 0.0
        assert manifest.git_rev
        path = tmp_path / "manifest.json"
        manifest.save(path)
        data = json.loads(path.read_text())
        assert data["spec_digest"] == spec.digest()


class TestCorrelationWarningClean:
    def test_degenerate_patterns_raise_no_runtime_warning(self):
        """A zero-variance pattern column used to emit 'invalid value
        encountered in divide' from the unit-normalization; the math is
        well-defined (the column simply never wins), so the path must
        stay silent."""
        from repro.core.correlation import correlation_map

        probes = np.array([3.0, 1.0, 2.0])
        patterns = np.zeros((3, 4))
        patterns[:, 1] = [3.0, 1.0, 2.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = correlation_map(probes, patterns)
        assert np.isfinite(scores[1])
