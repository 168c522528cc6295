"""Command-line interface: regenerate any paper artefact from a shell.

The original release shipped shell tools around the router; this CLI
is their simulator-side counterpart::

    repro-bench table1              # Table 1 schedule capture
    repro-bench patterns out.npz    # chamber campaign -> .npz tables
    repro-bench fig7 [--paper]      # estimation-error experiment
    repro-bench fig8 / fig9 / fig10 / fig11
    repro-bench summary             # the §6.5 headline numbers
    repro-bench ablations           # all design-choice ablations
    repro-bench extensions          # blockage / dense / fine-codebook
    repro-bench artifacts verify    # shipped-data integrity check
    repro-bench artifacts rebuild   # regenerate damaged data in place
    repro-bench artifacts info      # manifest + cache status
    repro-bench perf                # hot-kernel timings (printed only)
    repro-bench perf --output f.json  # ... appended to a trajectory file
    repro-bench perf --check        # fail on >2x latency regression
    repro-bench run --list          # registered scenarios
    repro-bench run fig9 --jobs 4   # any scenario, by name ...
    repro-bench run spec.json       # ... or from a pinned spec file
    repro-bench run fig7 --trace t.jsonl   # record a span trace
    repro-bench run fig7 --profile-sampling p.collapsed  # sampling profiler
    repro-bench run fig7 --trace t.jsonl --quality  # quality telemetry
    repro-bench report t.jsonl      # per-stage latency breakdown
    repro-bench diff a.json b.json  # rank what changed between two runs
    repro-bench serve --port 8780   # HTTP spec-submission service
    repro-bench load                # service saturation load harness
    repro-bench runs gc             # sweep orphaned checkpoint journals

``--paper`` switches experiments from the fast default profile to the
paper's full resolutions (minutes instead of seconds).  Every
subcommand takes ``--log-level`` (or the ``REPRO_LOG_LEVEL``
environment variable) to surface the library's diagnostic logging.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _print_rows(rows: List[str]) -> None:
    print("\n".join(rows))


def _emit(result, args: argparse.Namespace) -> None:
    """Print the rows and honor --json archiving when requested."""
    _print_rows(result.format_rows())
    json_path = getattr(args, "json", None)
    if json_path:
        from .experiments.io import dump_result_json

        dump_result_json(result, json_path)
        print(f"archived result JSON to {json_path}")


def _cmd_table1(args: argparse.Namespace) -> None:
    from .experiments import Table1Config, run_table1

    result = run_table1(Table1Config(seed=args.seed))
    _emit(result, args)


def _cmd_patterns(args: argparse.Namespace) -> None:
    from .measurement import PatternMeasurementCampaign, measure_3d_patterns
    from .phased_array import PhasedArray, talon_codebook

    rng = np.random.default_rng(args.seed)
    antenna = PhasedArray.talon(np.random.default_rng(args.seed + 1))
    campaign = PatternMeasurementCampaign(antenna, talon_codebook(antenna))
    azimuth_step = 1.8 if args.paper else 3.6
    elevation_step = 3.6 if args.paper else 7.2
    table = measure_3d_patterns(
        campaign, rng, azimuth_step_deg=azimuth_step, elevation_step_deg=elevation_step
    )
    table.save(args.output)
    print(
        f"saved {table.n_sectors} sector patterns "
        f"({table.grid.n_elevation}x{table.grid.n_azimuth} grid) to {args.output}"
    )


def _cmd_fig7(args: argparse.Namespace) -> None:
    from .experiments import Fig7Config, run_fig7

    if args.paper:
        config = Fig7Config(
            seed=args.seed,
            lab_azimuth_step_deg=2.25,
            lab_elevation_step_deg=2.0,
            conference_azimuth_step_deg=1.3,
            n_sweeps=3,
        )
    else:
        config = Fig7Config(seed=args.seed)
    _emit(run_fig7(config), args)


def _cmd_fig8(args: argparse.Namespace) -> None:
    from .experiments import Fig8Config, run_fig8

    n_sweeps = 60 if args.paper else 25
    step = 2.5 if args.paper else 7.5
    config = Fig8Config(seed=args.seed, azimuth_step_deg=step, n_sweeps=n_sweeps)
    _emit(run_fig8(config), args)


def _cmd_fig9(args: argparse.Namespace) -> None:
    from .experiments import Fig9Config, run_fig9

    n_sweeps = 40 if args.paper else 15
    step = 2.5 if args.paper else 7.5
    config = Fig9Config(seed=args.seed, azimuth_step_deg=step, n_sweeps=n_sweeps)
    _emit(run_fig9(config), args)


def _cmd_fig10(args: argparse.Namespace) -> None:
    from .experiments import Fig10Config, run_fig10

    _emit(run_fig10(Fig10Config()), args)


def _cmd_fig11(args: argparse.Namespace) -> None:
    from .experiments import Fig11Config, run_fig11

    config = Fig11Config(seed=args.seed, n_intervals=120 if args.paper else 40)
    _emit(run_fig11(config), args)


def _cmd_summary(args: argparse.Namespace) -> None:
    from .experiments import run_summary

    _emit(run_summary(), args)


def _cmd_ablations(args: argparse.Namespace) -> None:
    from .experiments import (
        run_3d_ablation,
        run_adaptive_ablation,
        run_fusion_ablation,
        run_oob_prior_ablation,
        run_pattern_ablation,
        run_probe_set_ablation,
        run_random_beam_ablation,
        run_refinement_ablation,
    )

    for runner in (
        run_fusion_ablation,
        run_pattern_ablation,
        run_probe_set_ablation,
        run_3d_ablation,
        run_random_beam_ablation,
        run_adaptive_ablation,
        run_oob_prior_ablation,
        run_refinement_ablation,
    ):
        _print_rows(runner().format_rows())
        print()


def _cmd_extensions(args: argparse.Namespace) -> None:
    from .experiments import (
        run_blockage_recovery,
        run_dense_deployment,
        run_pattern_transfer,
    )
    from .experiments.fine import run_fine_codebook

    for runner in (
        run_blockage_recovery,
        run_dense_deployment,
        run_fine_codebook,
        run_pattern_transfer,
    ):
        _print_rows(runner().format_rows())
        print()


def _cmd_artifacts(args: argparse.Namespace) -> int:
    """Verify, rebuild or describe the shipped data artifacts."""
    from .measurement import artifacts as registry
    from .measurement.errors import ArtifactError

    try:
        return _run_artifacts(args, registry)
    except ArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _run_artifacts(args: argparse.Namespace, registry) -> int:
    names = [args.name] if args.name else sorted(registry.load_manifest()["artifacts"])

    if args.action == "verify":
        failures = 0
        for name in names:
            status = registry.verify_artifact(name)
            detail = ""
            if status.status == "digest-mismatch":
                detail = f" (expected {status.expected_sha256[:12]}…, got {status.actual_sha256[:12]}…)"
            print(f"{status.name}: {status.status}{detail}")
            failures += 0 if status.ok else 1
        if failures:
            print(
                f"{failures} artifact(s) failed verification; run "
                f"'repro-bench artifacts rebuild' to regenerate them"
            )
        return 1 if failures else 0

    if args.action == "rebuild":
        for name in names:
            path = registry.rebuild_artifact(name)
            print(f"{name}: rebuilt at {path} (manifest digest verified)")
        return 0

    # info
    for name in names:
        entry = registry.manifest_entry(name)
        status = registry.verify_artifact(name)
        spec = registry.ARTIFACTS.get(name)
        cached = registry.cached_artifact_path(name)
        print(f"{name}:")
        print(f"  status: {status.status}")
        print(f"  path: {status.path}")
        print(f"  sha256: {entry['sha256']}")
        for field in ("size_bytes", "pipeline"):
            if field in entry:
                print(f"  {field}: {entry[field]}")
        if spec is not None:
            print(f"  description: {spec.description}")
        print(f"  cache: {cached} ({'present' if cached.is_file() else 'absent'})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """Run any registered scenario (by name or from a spec JSON file)."""
    from pathlib import Path

    from .runtime import (
        FaultPlan,
        RetryExhaustedError,
        RetryPolicy,
        RunAbortedError,
        ScenarioRunner,
        ScenarioSpec,
        get_scenario,
        scenario_spec,
    )
    from .runtime.registry import available_scenarios

    if args.list:
        for name in available_scenarios():
            print(f"{name:22s} {get_scenario(name).description}")
        return 0
    if args.target is None:
        print("error: provide a scenario name or spec JSON path (or --list)",
              file=sys.stderr)
        return 2

    if args.target.endswith(".json") or Path(args.target).is_file():
        spec = ScenarioSpec.load(args.target)
    else:
        spec = scenario_spec(args.target)
    spec = spec.with_seed(args.seed)

    faults = None
    if args.inject:
        try:
            faults = FaultPlan.parse(args.inject, hang_s=args.hang_s)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    retry = RetryPolicy(
        max_attempts=args.max_attempts,
        backoff_base_s=args.backoff,
        timeout_s=args.timeout,
        seed=spec.seed,
    )
    checkpoint = args.checkpoint if args.checkpoint else (True if args.resume else None)
    session = None
    if args.trace or args.quality:
        from .obs import ObsSession

        # --quality implies a session even without --trace: the
        # telemetry lands in the manifest's metric snapshot.
        session = ObsSession(trace_path=args.trace, quality=args.quality)

    sampling = None
    if args.profile_sampling:
        # The sampling profiler is fork-aware (worker aggregates ship
        # home with the obs payloads), so it covers every --jobs.
        from .obs import profile as sampling

        sampling.start_profiling()
    try:
        with ScenarioRunner(
            jobs=args.jobs,
            retry=retry,
            faults=faults,
            checkpoint=checkpoint,
            resume=args.resume,
            obs=session,
        ) as runner:
            outcome = runner.run(spec, deadline_s=args.deadline)
    except RunAbortedError as error:
        # BaseException on purpose (it must pierce the supervision
        # layers), so it needs its own clause to exit cleanly.
        print(
            f"error: {error.reason}: spec={spec.digest()[:16]}",
            file=sys.stderr,
        )
        return 1
    except RetryExhaustedError as error:
        print(
            f"error: retries exhausted: spec={spec.digest()[:16]} "
            f"policy={error.label} block={error.block_index} "
            f"attempts={error.attempts} last={type(error.cause).__name__}",
            file=sys.stderr,
        )
        return 1
    except FileExistsError as error:
        # --checkpoint without --resume on a journal this run could
        # have resumed: refuse rather than destroy it.
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        # Stop after the manifest is finalized (the hotspot summary
        # embeds there) but on every exit path, so the itimer never
        # outlives the command.
        sampled_profile = (
            sampling.stop_profiling() if sampling is not None else None
        )
    result = outcome.result
    if hasattr(result, "format_rows"):
        _print_rows(result.format_rows())
    else:
        print(result)
    _print_rows(outcome.manifest.format_rows())
    if args.trace:
        print(f"wrote trace to {args.trace} (inspect with 'repro-bench report')")
    if sampled_profile is not None:
        sampling.write_collapsed(
            args.profile_sampling,
            sampled_profile,
            header={"scenario": spec.scenario, "spec_digest": spec.digest(),
                    "seed": spec.seed, "jobs": args.jobs},
        )
        summary = sampling.profile_summary(sampled_profile)
        leaders = "; ".join(
            f"{entry['function']} {entry['self_pct']:.0f}%"
            for entry in summary["hotspots"][:5]
        )
        print(
            f"wrote sampled profile to {args.profile_sampling} "
            f"({summary['samples']} samples; top self-time: {leaders})"
        )
    if args.manifest:
        outcome.manifest.save(args.manifest)
        print(f"wrote run manifest to {args.manifest}")
    if args.json:
        from .experiments.io import dump_result_json

        dump_result_json(result, args.json)
        print(f"archived result JSON to {args.json}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render the latency breakdown of a traced run (trace or manifest)."""
    from .obs.report import format_report_rows, load_report_target

    try:
        payload = load_report_target(args.target)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_rows(format_report_rows(payload, top=args.top))
    if args.metrics:
        snapshot = payload.get("metrics")
        if snapshot:
            from .obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            registry.merge(snapshot)
            print()
            print(registry.render_prometheus(), end="")
        else:
            print(
                "(no metric snapshot in this target — metrics live in the "
                "run manifest of a traced run, not in the trace file)"
            )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """Attribute what changed between two runs (traces, manifests, BENCH points)."""
    from .obs.diff import diff_targets, format_diff_rows, load_diff_target

    try:
        before = load_diff_target(args.target_a)
        after = load_diff_target(args.target_b)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    diff = diff_targets(before, after, noise_pct=args.noise_pct)
    _print_rows(format_diff_rows(diff, top=args.top))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve ScenarioSpec submissions over HTTP (see DESIGN.md §11)."""
    import asyncio

    from .service.server import ServiceConfig, serve

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_depth=args.queue_depth,
            jobs=args.jobs,
            durable=not args.no_durable,
            checkpoint_dir=args.checkpoint_dir,
            state_dir=args.state_dir,
            drain_timeout_s=args.drain_timeout,
            history_limit=args.history_limit,
            trace_path=args.trace,
            trace_max_mb=args.trace_max_mb,
            profile_path=args.profile,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:
        print("service stopped")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    """Operate on durable service state ('gc' sweeps orphans offline)."""
    from pathlib import Path

    from .runtime.checkpoint import sweep_orphaned_journals
    from .service.registry import RunRegistry

    if args.state_dir:
        state_dir = Path(args.state_dir)
    else:
        from .measurement.artifacts import cache_dir

        state_dir = cache_dir() / "service"
    if not state_dir.is_dir():
        print(f"error: no state dir at {state_dir}", file=sys.stderr)
        return 2
    registry_path = state_dir / "registry.jsonl"
    referenced = set()
    if registry_path.is_file():
        registry = RunRegistry(registry_path, durable=False)
        try:
            referenced = {
                str(state.get("checkpoint_path", ""))
                for state in registry.replay().values()
            }
        finally:
            registry.close()
    swept = sweep_orphaned_journals(state_dir, referenced)
    for path in swept:
        print(f"gc: reclaimed orphaned checkpoint journal {path}")
    print(f"gc: reclaimed {len(swept)} journal(s)")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    """Drive the service to saturation; report and optionally gate on latency."""
    from .service.load import LoadConfig, run_load

    try:
        levels = tuple(int(part) for part in args.levels.split(",") if part.strip())
    except ValueError:
        print(f"error: --levels must be comma-separated integers: {args.levels!r}",
              file=sys.stderr)
        return 2
    if not levels or any(level <= 0 for level in levels):
        print("error: --levels needs at least one positive burst size",
              file=sys.stderr)
        return 2
    config = LoadConfig(
        scenario=args.scenario,
        levels=levels,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        gate_p99_ms=args.gate_p99_ms,
    )
    return run_load(config, output=args.output, label=args.label)


def _cmd_perf(args: argparse.Namespace) -> int:
    """Time the hot kernels; append a datapoint to ``--output`` if named."""
    from .perf import run_perf

    return run_perf(
        label=args.label,
        output=args.output,
        check=args.check,
        repeats=args.repeats,
    )


_COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    "table1": _cmd_table1,
    "patterns": _cmd_patterns,
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
    "fig9": _cmd_fig9,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "summary": _cmd_summary,
    "ablations": _cmd_ablations,
    "extensions": _cmd_extensions,
    "artifacts": _cmd_artifacts,
    "perf": _cmd_perf,
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the CoNEXT'17 compressive-sector-selection results.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_log_level(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--log-level", default=None, metavar="LEVEL",
            help="logging verbosity (debug|info|warning|error|critical; "
            "default: $REPRO_LOG_LEVEL or warning)",
        )

    for name, handler in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=handler.__doc__)
        add_log_level(sub)
        sub.add_argument("--seed", type=int, default=2017, help="experiment seed")
        sub.add_argument(
            "--paper",
            action="store_true",
            help="use the paper's full resolutions (slow)",
        )
        sub.add_argument(
            "--json", metavar="PATH", help="also archive the result as JSON"
        )
        if name == "patterns":
            sub.add_argument("output", help="output .npz path")
        if name == "artifacts":
            sub.add_argument(
                "action",
                choices=("verify", "rebuild", "info"),
                help="integrity check, deterministic regeneration, or status",
            )
            sub.add_argument(
                "name", nargs="?", help="artifact name (default: every manifest entry)"
            )
        if name == "perf":
            sub.add_argument(
                "--label", default="dev", help="trajectory point label"
            )
            sub.add_argument(
                "--output",
                default=None,
                help="trajectory file to append to (default: append nowhere); "
                "with --check, the baseline to read (default: ./BENCH_core.json)",
            )
            sub.add_argument(
                "--check",
                action="store_true",
                help="compare against the committed baseline instead of appending; "
                "exit nonzero on a >2x latency regression",
            )
            sub.add_argument(
                "--repeats", type=_positive_int, default=20,
                help="timing passes per kernel (at least 1)",
            )
        sub.set_defaults(handler=handler)

    # "run" speaks spec language: its --seed must default to None so a
    # spec file's pinned seed survives, hence it skips the common loop.
    # No prefix matching: the removed --profile flag must be rejected,
    # not silently read as --profile-sampling.
    run_sub = subparsers.add_parser(
        "run", help=_cmd_run.__doc__, allow_abbrev=False
    )
    add_log_level(run_sub)
    run_sub.add_argument(
        "target", nargs="?", help="registered scenario name or spec JSON path"
    )
    run_sub.add_argument(
        "--list", action="store_true", help="list the registered scenarios"
    )
    run_sub.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's seed (default: keep the spec's own)",
    )
    run_sub.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for batched recording-parallel scenarios",
    )
    run_sub.add_argument(
        "--manifest", metavar="PATH", help="also write the run manifest JSON"
    )
    run_sub.add_argument(
        "--json", metavar="PATH", help="also archive the result as JSON"
    )
    run_sub.add_argument(
        "--max-attempts", type=int, default=3,
        help="supervised attempts per trial block (1 = fail fast)",
    )
    run_sub.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-block wall-clock budget; a hung worker is replaced "
        "and the block retried (pool mode only)",
    )
    run_sub.add_argument(
        "--backoff", type=float, default=0.05, metavar="S",
        help="base backoff before a retry (exponential, seeded jitter)",
    )
    run_sub.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="journal completed blocks to PATH (default with --resume: "
        "a digest-keyed file under the cache dir)",
    )
    run_sub.add_argument(
        "--resume", action="store_true",
        help="restore completed blocks from an existing checkpoint "
        "instead of re-executing them",
    )
    run_sub.add_argument(
        "--inject", action="append", default=[], metavar="FAULT",
        help="inject a deterministic fault: kind@block[,block...][*times] "
        "with kind one of crash|hang|exception|cache-corrupt "
        "(repeatable)",
    )
    run_sub.add_argument(
        "--hang-s", type=float, default=30.0, metavar="S",
        help="how long an injected hang sleeps (pair with --timeout)",
    )
    run_sub.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="wall-clock budget for the whole run; no block attempt is "
        "scheduled past it (exceeded -> exit 1)",
    )
    run_sub.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span trace of the run to PATH (JSONL; inspect "
        "with 'repro-bench report')",
    )
    run_sub.add_argument(
        "--profile-sampling", metavar="PATH", default=None,
        help="continuously sample stacks (SIGPROF, ~200 Hz CPU time) "
        "across all threads and pool workers; write a collapsed-stack "
        "flamegraph file to PATH (works at any --jobs)",
    )
    run_sub.add_argument(
        "--quality", action="store_true",
        help="record estimation-quality telemetry (correlation peak "
        "ratios, selection margins, designer diagnostics) into the "
        "run's metric snapshot",
    )
    run_sub.set_defaults(handler=_cmd_run)

    report_sub = subparsers.add_parser("report", help=_cmd_report.__doc__)
    add_log_level(report_sub)
    report_sub.add_argument(
        "target", help="a trace JSONL (run --trace) or a traced run-manifest JSON"
    )
    report_sub.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="how many slowest blocks to list (default: 5)",
    )
    report_sub.add_argument(
        "--metrics", action="store_true",
        help="also print the metric snapshot in Prometheus text format "
        "(manifest targets only)",
    )
    report_sub.set_defaults(handler=_cmd_report)

    diff_sub = subparsers.add_parser("diff", help=_cmd_diff.__doc__)
    add_log_level(diff_sub)
    diff_sub.add_argument(
        "target_a",
        help="baseline: trace JSONL, traced manifest, or BENCH file "
        "(address a point as file.json#label or file.json#index; "
        "bare path = last point)",
    )
    diff_sub.add_argument(
        "target_b", help="candidate: same target grammar as the baseline"
    )
    diff_sub.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows per section in the attribution table (default: 10)",
    )
    diff_sub.add_argument(
        "--noise-pct", type=float, default=None, metavar="PCT",
        help="significance threshold in percent (default: 5%%)",
    )
    diff_sub.set_defaults(handler=_cmd_diff)

    serve_sub = subparsers.add_parser("serve", help=_cmd_serve.__doc__)
    add_log_level(serve_sub)
    serve_sub.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve_sub.add_argument(
        "--port", type=int, default=8780,
        help="TCP port (0 = pick an ephemeral port and print it)",
    )
    serve_sub.add_argument(
        "--workers", type=int, default=2,
        help="workers, each running runs in one run process that reuses "
        "one ScenarioRunner (>= 1)",
    )
    serve_sub.add_argument(
        "--queue-depth", type=int, default=64,
        help="admission-control bound; submissions past it get 429",
    )
    serve_sub.add_argument(
        "--jobs", type=int, default=1,
        help="fork-pool processes per worker for batched scenarios",
    )
    serve_sub.add_argument(
        "--no-durable", action="store_true",
        help="skip fsync on checkpoint writes (faster, weaker crash story)",
    )
    serve_sub.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="journal directory (default: <cache>/service)",
    )
    serve_sub.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="durable service state (run-registry WAL + journals); "
        "restarting with the same dir recovers queued and in-flight "
        "runs (default: <cache>/service)",
    )
    serve_sub.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="S",
        help="graceful-shutdown budget for in-flight runs; stragglers "
        "are cancelled back to queued (resumed on next start)",
    )
    serve_sub.add_argument(
        "--history-limit", type=int, default=512,
        help="finished runs retained in memory before eviction",
    )
    serve_sub.add_argument(
        "--trace", metavar="PATH", default=None,
        help="append every run's span events to a rotating trace sink "
        "at PATH (each segment is a valid repro-trace file; inspect "
        "with 'repro-bench report')",
    )
    serve_sub.add_argument(
        "--trace-max-mb", type=float, default=64.0, metavar="MB",
        help="rotate the --trace sink when a segment exceeds this size "
        "(default: 64)",
    )
    serve_sub.add_argument(
        "--profile", metavar="PATH", default=None,
        help="run the sampling profiler for the service's lifetime and "
        "write the collapsed-stack aggregate to PATH at shutdown",
    )
    serve_sub.set_defaults(handler=_cmd_serve)

    runs_sub = subparsers.add_parser("runs", help=_cmd_runs.__doc__)
    add_log_level(runs_sub)
    runs_sub.add_argument(
        "action", choices=("gc",),
        help="gc: sweep orphaned checkpoint journals from a state dir",
    )
    runs_sub.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="service state dir to sweep (default: <cache>/service)",
    )
    runs_sub.set_defaults(handler=_cmd_runs)

    load_sub = subparsers.add_parser("load", help=_cmd_load.__doc__)
    add_log_level(load_sub)
    load_sub.add_argument(
        "--scenario", default="fig10", help="registered scenario to submit"
    )
    load_sub.add_argument(
        "--levels", default="4,8,16,32,64,100,128",
        help="comma-separated burst sizes, tried in order",
    )
    load_sub.add_argument(
        "--host", default=None,
        help="target an already-running service (default: self-host)",
    )
    load_sub.add_argument(
        "--port", type=int, default=8780, help="target port (with --host)"
    )
    load_sub.add_argument(
        "--workers", type=int, default=4,
        help="serve workers (one run process each) for the self-hosted service",
    )
    load_sub.add_argument(
        "--queue-depth", type=int, default=256,
        help="queue bound for the self-hosted service",
    )
    load_sub.add_argument(
        "--gate-p99-ms", type=float, default=None, metavar="MS",
        help="fail (exit 1) if submit p99 exceeds this budget",
    )
    load_sub.add_argument(
        "--output", metavar="PATH", default=None,
        help="append the headline numbers to this BENCH trajectory file",
    )
    load_sub.add_argument(
        "--label", default="service-load", help="trajectory point label"
    )
    load_sub.set_defaults(handler=_cmd_load)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-bench`` console script."""
    args = build_parser().parse_args(argv)
    from .obs import logging_setup

    try:
        logging_setup(getattr(args, "log_level", None))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    status = args.handler(args)
    return int(status) if status else 0


if __name__ == "__main__":
    sys.exit(main())
