"""Pinned-output regression tests for the ScenarioRunner rewrite.

Every experiment module was rewritten from a hand-rolled trial loop to
a declarative ScenarioSpec + the shared ScenarioRunner.  These tests
pin exact floats produced by the *legacy* loops (captured before the
rewrite, at reduced configs that run in seconds) so the engine is
provably bit-identical — the acceptance criterion of the refactor.

They also pin the parallel path: ``jobs=4`` must reproduce ``jobs=1``
exactly, because workers rebuild their world from the spec and the
per-trial draws are planned before sharding.
"""

from dataclasses import asdict

import pytest

from repro.experiments import (
    DriftConfig,
    Fig7Config,
    Fig8Config,
    Fig9Config,
    Fig11Config,
    TransferConfig,
    run_3d_ablation,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig11,
    run_fusion_ablation,
    run_pattern_ablation,
    run_pattern_drift,
    run_pattern_transfer,
    run_probe_set_ablation,
    run_random_beam_ablation,
)
from repro.runtime import ScenarioRunner, scenario_spec

FIG7_CONFIG = Fig7Config(
    probe_counts=(8, 20),
    lab_azimuth_step_deg=20.0,
    lab_elevation_step_deg=15.0,
    conference_azimuth_step_deg=15.0,
    n_sweeps=1,
    subsamples_per_sweep=1,
)
FIG9_CONFIG = Fig9Config(probe_counts=(6, 14), azimuth_step_deg=20.0, n_sweeps=6)


class TestPinnedFigures:
    def test_fig7_pinned(self):
        result = run_fig7(FIG7_CONFIG)
        assert [s.median for s in result.lab.azimuth_stats] == [4.0, 4.0]
        assert [s.median for s in result.lab.elevation_stats] == [3.0, 3.0]
        assert [s.whisker_high for s in result.lab.azimuth_stats] == [
            76.39999999999995,
            15.399999999999991,
        ]
        assert [s.median for s in result.conference.azimuth_stats] == [11.0, 2.0]
        assert [s.n_samples for s in result.conference.azimuth_stats] == [9, 9]

    def test_fig8_pinned(self):
        result = run_fig8(
            Fig8Config(probe_counts=(6, 14), azimuth_step_deg=20.0, n_sweeps=8)
        )
        assert result.css_stability == [0.35714285714285715, 0.75]
        assert result.ssw_stability == 0.8571428571428571

    def test_fig9_pinned(self):
        result = run_fig9(FIG9_CONFIG)
        assert result.css_loss_db == [7.210022775933676, 0.3270535227363838]
        assert result.ssw_loss_db == 0.6411294753018227

    def test_fig11_pinned(self):
        result = run_fig11(Fig11Config(n_intervals=6))
        assert result.css_gbps == [1.4403070919520833, 1.79900442, 1.79900442]
        assert result.ssw_gbps == [
            1.696490569706562,
            1.79770842,
            1.7677466129999997,
        ]


class TestPinnedExtensions:
    def test_transfer_pinned(self):
        result = run_pattern_transfer(
            TransferConfig(azimuth_step_deg=30.0, n_sweeps=2)
        )
        assert result.azimuth_error_deg == {
            "own (device B)": 1.8,
            "foreign (device A)": 8.0,
        }
        assert result.snr_loss_db == {
            "own (device B)": 1.7941552033267492,
            "foreign (device A)": 2.4600962173416905,
        }

    def test_drift_pinned(self):
        result = run_pattern_drift(
            DriftConfig(drift_levels_rad=(0.0, 0.4), azimuth_step_deg=30.0, n_sweeps=2)
        )
        assert result.snr_loss_db == [0.5310617986713723, 2.052545998698789]
        assert result.fallback_rate == [0.0, 0.0]


class TestPinnedAblations:
    """Values and variant order (the order the CLI prints) are pinned."""

    def test_fusion_pinned(self):
        result = run_fusion_ablation()
        assert list(result.variants.items()) == [
            ("fusion=snr", 7.4068627450980395),
            ("fusion=rssi", 8.387254901960784),
            ("fusion=product", 5.122549019607843),
        ]

    def test_patterns_pinned(self):
        result = run_pattern_ablation()
        assert list(result.variants.items()) == [
            ("measured patterns", 4.514705882352941),
            ("theoretical patterns", 6.612745098039215),
        ]

    def test_probe_set_pinned(self):
        result = run_probe_set_ablation()
        assert list(result.variants.items()) == [
            ("random subsets", 7.264705882352941),
            ("gain-diverse (greedy)", 5.0588235294117645),
        ]

    def test_3d_pinned(self):
        result = run_3d_ablation()
        assert list(result.variants.items()) == [
            ("3D search grid", 1.7276792510238987),
            ("2D (azimuth-only) grid", 8.957683358603218),
        ]

    def test_random_beams_pinned(self):
        result = run_random_beam_ablation()
        assert list(result.variants.items()) == [
            ("sectors: best-beam SNR", 13.473381073086406),
            ("random beams: best-beam SNR", 4.802193945956963),
            ("sectors: az error", 2.7142857142857144),
            ("random beams: az error", 14.857142857142858),
        ]


class TestParallelBitExactness:
    """``--jobs 4`` shards recordings across processes; results must not move."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_fig9_jobs_equal(self, jobs):
        assert asdict(run_fig9(FIG9_CONFIG, jobs=jobs)) == asdict(run_fig9(FIG9_CONFIG))

    def test_fig7_jobs_equal(self):
        assert asdict(run_fig7(FIG7_CONFIG, jobs=4)) == asdict(run_fig7(FIG7_CONFIG))

    @pytest.mark.parametrize(
        "name", ["ablate-fusion", "ablate-patterns", "ablate-probe-set", "ablate-3d"]
    )
    def test_knob_ablations_jobs_equal(self, name):
        # At jobs=2 a knob ablation's variants are execute calls in flight.
        def variants(jobs):
            with ScenarioRunner(jobs=jobs) as runner:
                result = runner.run(scenario_spec(name)).result
            return result.title, list(result.variants.items())

        assert variants(2) == variants(1)
