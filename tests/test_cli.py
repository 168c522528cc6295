"""Tests for the repro-bench command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


_SEED, _PAPER, _JSON = ["--seed", "7"], ["--paper"], ["--json", "r.json"]

#: Every shared flag a legacy subcommand would ignore.
_IGNORED_FLAGS = [
    *(
        [*command, *flag]
        for command in (["ablations"], ["extensions"], ["perf"], ["artifacts", "verify"])
        for flag in (_SEED, _PAPER, _JSON)
    ),
    *([command, *flag] for command in ("fig10", "summary") for flag in (_SEED, _PAPER)),
    ["table1", *_PAPER],
    ["patterns", "out.npz", *_JSON],
]


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions if action.dest == "command"
        )
        assert set(subparsers.choices) == {
            "table1",
            "patterns",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "summary",
            "ablations",
            "extensions",
            "artifacts",
            "perf",
            "run",
            "report",
            "diff",
            "serve",
            "load",
            "runs",
        }

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_perf_repeats_below_one_is_a_usage_error(self):
        # Zero passes would time nothing and report NaN medians.
        for value in ("0", "-3"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["perf", "--check", "--repeats", value])
            assert excinfo.value.code == 2
        assert build_parser().parse_args(["perf", "--repeats", "1"]).repeats == 1

    def test_plain_perf_leaves_the_committed_trajectory_alone(self, tmp_path, monkeypatch):
        import json
        import shutil
        from pathlib import Path

        committed = Path(__file__).resolve().parents[1] / "BENCH_core.json"
        shutil.copy(committed, tmp_path / "BENCH_core.json")
        before = (tmp_path / "BENCH_core.json").read_bytes()
        monkeypatch.chdir(tmp_path)
        assert main(["perf", "--repeats", "1"]) == 0
        assert (tmp_path / "BENCH_core.json").read_bytes() == before
        shutil.copy(committed, tmp_path / "f.json")
        assert main(["perf", "--repeats", "1", "--output", "f.json"]) == 0
        points = json.loads((tmp_path / "f.json").read_text())["points"]
        assert len(points) == len(json.loads(before)["points"]) + 1
        assert (tmp_path / "BENCH_core.json").read_bytes() == before

    def test_run_rejects_the_retired_cprofile_flag(self):
        # --profile must not prefix-match --profile-sampling.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "fig10", "--profile", "p.pstats"])
        assert excinfo.value.code == 2

    def test_seed_and_paper_flags(self):
        args = build_parser().parse_args(["fig8", "--seed", "7", "--paper"])
        assert args.seed == 7
        assert args.paper is True

    @pytest.mark.parametrize("argv", _IGNORED_FLAGS, ids=" ".join)
    def test_a_flag_the_subcommand_ignores_exits_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


class TestCommands:
    def test_fig10_prints_headline_timing(self, capsys):
        assert main(["fig10"]) == 0
        output = capsys.readouterr().out
        assert "1.27 ms" in output
        assert "2.3x speed-up" in output

    def test_table1_prints_consistent_capture(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "consistent=True" in output
        assert "Beacon" in output and "Sweep" in output

    def test_patterns_writes_npz(self, tmp_path, capsys):
        from repro.measurement import PatternTable

        path = tmp_path / "patterns.npz"
        assert main(["patterns", str(path)]) == 0
        table = PatternTable.load(str(path))
        assert table.n_sectors == 35
        assert "saved 35 sector patterns" in capsys.readouterr().out

    def test_artifacts_verify_ok_on_intact_install(self, capsys):
        assert main(["artifacts", "verify"]) == 0
        assert "talon_sector_patterns_3d.npz: ok" in capsys.readouterr().out

    def test_artifacts_info_reports_manifest_and_cache(self, capsys):
        assert main(["artifacts", "info", "talon_sector_patterns_3d.npz"]) == 0
        output = capsys.readouterr().out
        assert "sha256:" in output
        assert "cache:" in output
        assert "status: ok" in output

    def test_artifacts_verify_flags_corruption_and_rebuild_heals(
        self, tmp_path, capsys, monkeypatch
    ):
        """The acceptance loop: corrupt -> verify fails -> rebuild -> ok."""
        import shutil

        from repro.measurement import artifacts as registry

        name = "talon_sector_patterns_3d.npz"
        damaged = tmp_path / name
        shutil.copy(registry.artifact_path(name), damaged)
        with open(damaged, "r+b") as handle:
            handle.truncate(10000)

        real_artifact_path = registry.artifact_path
        monkeypatch.setattr(
            registry,
            "artifact_path",
            lambda resource: damaged if resource == name else real_artifact_path(resource),
        )
        assert main(["artifacts", "verify"]) == 1
        assert "digest-mismatch" in capsys.readouterr().out

        assert main(["artifacts", "rebuild", name]) == 0
        assert "manifest digest verified" in capsys.readouterr().out
        assert main(["artifacts", "verify"]) == 0
