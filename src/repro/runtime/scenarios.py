"""Generic scenarios that exercise policies head-to-head.

The figure-specific scenarios live next to their post-processing in
``experiments/``; this module hosts the policy-agnostic workloads.
``policy-eval`` is the extension point the registry contract promises:
register a policy, name it in a spec, and it runs against the built-in
strategies without touching a single ``experiments/`` module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .registry import register_scenario
from .spec import PolicySpec, ScenarioSpec

__all__ = ["PolicyEvalRow", "PolicyEvalResult", "run_policy_eval"]


@dataclass(frozen=True)
class PolicyEvalRow:
    """One policy's aggregate scores over the evaluation arc."""

    policy: str
    mean_loss_db: float
    stability: float
    mean_training_time_us: float
    fallback_rate: float


@dataclass
class PolicyEvalResult:
    """Head-to-head comparison across every policy in the spec."""

    rows: List[PolicyEvalRow]

    def by_policy(self) -> Dict[str, PolicyEvalRow]:
        return {row.policy: row for row in self.rows}

    def format_rows(self) -> List[str]:
        out = [
            "policy-eval: mean SNR loss vs oracle / selection stability"
            " / training airtime"
        ]
        for row in self.rows:
            out.append(
                f"  {row.policy:16s} loss {row.mean_loss_db:6.2f} dB"
                f"  stability {row.stability:5.2f}"
                f"  training {row.mean_training_time_us:8.1f} us"
                f"  fallback {row.fallback_rate:5.2f}"
            )
        return out


def _modal_share(selections: Sequence[int]) -> float:
    """Share of trials that picked the most common sector."""
    if not selections:
        return 0.0
    (_, count), = Counter(selections).most_common(1)
    return count / len(selections)


def policy_eval_spec() -> ScenarioSpec:
    """The canonical head-to-head spec (`repro-bench run policy-eval`)."""
    return ScenarioSpec(
        scenario="policy-eval",
        seed=2017,
        policies=(
            PolicySpec("css", {"n_probes": 14}),
            PolicySpec("full-sweep", {}),
            PolicySpec("hierarchical", {}),
            PolicySpec("oracle", {}),
        ),
        params={"azimuth_step_deg": 15.0, "distance_m": 6.0, "n_sweeps": 3},
    )


def _block_eligible(policy) -> bool:
    """Can this policy take the planned (shardable, supervised) path?

    Planned policies draw every trial's probes up front
    (``probe_positions``, one draw per recording × sweep, the stream
    the interactive loop would consume) while evaluation stays pure —
    so routing them through ``plan_trials``/``execute`` changes nothing
    in the records but makes them shardable, checkpointable and
    fault-injectable.  Interactive policies run round by round.
    """
    return hasattr(policy, "probe_positions")


@register_scenario("policy-eval", default_spec=policy_eval_spec)
def run_policy_eval(spec: ScenarioSpec, runner) -> PolicyEvalResult:
    """Compare registered policies on one conference-room arc."""
    from ..channel.environment import conference_room
    from ..experiments.common import modal_counts, record_directions, snr_losses

    testbed = spec.testbed.build()
    context = runner.context(testbed)
    params = dict(spec.params)
    step = float(params.get("azimuth_step_deg", 15.0))
    distance = float(params.get("distance_m", 6.0))
    n_sweeps = int(params.get("n_sweeps", 3))

    environment = conference_room(distance)
    azimuths = np.arange(-60.0, 60.0 + 1e-9, step)
    recordings = record_directions(
        testbed,
        environment,
        azimuths,
        [0.0],
        n_sweeps,
        np.random.default_rng(spec.seed),
    )
    tx_ids = testbed.tx_sector_ids
    column_of = {sector_id: column for column, sector_id in enumerate(tx_ids)}

    rows: List[PolicyEvalRow] = []
    for policy_spec in spec.policies:
        policy = runner.build_policy(policy_spec, context)
        rng = np.random.default_rng(spec.seed + 1)

        if _block_eligible(policy):
            blocks = runner.plan_trials(policy, recordings, tx_ids, rng)
            records = runner.execute(
                policy,
                blocks,
                policy_spec=policy_spec,
                testbed_spec=spec.testbed,
                label=policy_spec.name,
            )
            losses = snr_losses(records, recordings, tx_ids)
            # One airtime per distinct probe count, spread to the rows.
            counts, row_count = np.unique(records.probes_requested, return_inverse=True)
            trainings = np.array(
                [policy.training_time_us(int(count), 1) for count in counts.tolist()]
            )[row_count]
            fallbacks = records.fallback
            modal, sizes = modal_counts(records, len(recordings))
            # A recording without trials counts as stability 0.
            stabilities = np.where(sizes > 0, modal / np.maximum(sizes, 1), 0.0)
            rows.append(
                PolicyEvalRow(
                    policy=policy_spec.name,
                    mean_loss_db=float(np.mean(losses)),
                    stability=float(np.mean(stabilities)),
                    mean_training_time_us=float(np.mean(trainings)),
                    fallback_rate=float(np.mean(fallbacks)),
                )
            )
            continue

        losses: List[float] = []
        trainings: List[float] = []
        fallbacks: List[bool] = []
        stabilities: List[float] = []
        for recording in recordings:
            policy.reset()
            if getattr(policy, "needs_truth", False):
                policy.set_truth(recording.true_snr_db)
            selections: List[int] = []
            for sweep in recording.sweeps:

                def measure(ids, generator, _sweep=sweep):
                    return [_sweep[sector_id] for sector_id in ids if sector_id in _sweep]

                outcome = runner.run_interactive(policy, tx_ids, measure, rng)
                sector_id = outcome.result.sector_id
                achieved = float(recording.true_snr_db[column_of[sector_id]])
                losses.append(recording.optimal_snr_db() - achieved)
                trainings.append(outcome.training_time_us)
                fallbacks.append(bool(outcome.result.fallback))
                selections.append(sector_id)
            stabilities.append(_modal_share(selections))
        rows.append(
            PolicyEvalRow(
                policy=policy_spec.name,
                mean_loss_db=float(np.mean(losses)),
                stability=float(np.mean(stabilities)),
                mean_training_time_us=float(np.mean(trainings)),
                fallback_rate=float(np.mean(fallbacks)),
            )
        )
    return PolicyEvalResult(rows=rows)
