"""Fault model for the scenario runtime: what breaks, what recovers.

The paper's selling point is robustness under degraded *input* — M=14
noisy probes match the exhaustive sweep (§6.3) — and the execution
layer that reproduces those numbers holds itself to the same standard
for degraded *infrastructure*.  This module is the vocabulary:

* :class:`RetryPolicy` — how the runner supervises every dispatched
  :class:`~.runner.TrialBlock`: bounded attempts, exponential backoff
  with *deterministic* seeded jitter (two runs of the same spec retry
  at the same instants), and an optional per-block wall-clock timeout.
* :class:`FaultSpec` / :class:`FaultPlan` — declarative, seed-stable
  fault injection: worker crashes, block hangs, transient exceptions
  and corrupted testbed-cache reads, each at chosen block indices and
  for a chosen number of attempts.  A plan rides on a
  :class:`~.spec.ScenarioSpec` (``repro-bench run --inject``) so every
  degradation path is exercised in CI, not just claimed.
* :class:`RunHealth` — the observable outcome: attempts, retries,
  timeouts, pool replacements and checkpoint hits,
  surfaced through :class:`~.manifest.RunManifest`.

Invariant (pinned in tests): because randomness is consumed only during
planning and block evaluation is pure, recovery — retries, pool
replacement, checkpoint resume — is **bit-invisible**
in the records.  A fault plan changes a run's health section, never its
results, which is why :meth:`~.spec.ScenarioSpec.digest` excludes it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .. import obs as _obs

__all__ = [
    "FAULT_KINDS",
    "FaultInjectionError",
    "BlockTimeoutError",
    "RetryExhaustedError",
    "RunAbortedError",
    "RunCancelledError",
    "DeadlineExceededError",
    "RetryPolicy",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "RunHealth",
]

#: The degradation paths the harness can inject.
FAULT_KINDS = ("crash", "hang", "exception", "cache-corrupt")


class FaultInjectionError(RuntimeError):
    """A transient failure raised by the fault-injection harness."""


class BlockTimeoutError(RuntimeError):
    """A block exceeded its supervised wall-clock budget."""


class RetryExhaustedError(RuntimeError):
    """A block failed on every allowed attempt.

    Attributes:
        label: the execute-call label (usually the policy name).
        block_index: which block gave up.
        attempts: how many attempts were made.
        cause: the last failure.
    """

    def __init__(self, label: str, block_index: int, attempts: int, cause: BaseException):
        super().__init__(
            f"block {block_index} of '{label}' failed on all {attempts} "
            f"attempt(s); last error: {type(cause).__name__}: {cause}"
        )
        self.label = label
        self.block_index = int(block_index)
        self.attempts = int(attempts)
        self.cause = cause


class RunAbortedError(BaseException):
    """A run was stopped on purpose, not by a fault.

    Subclasses ``BaseException`` deliberately: the runner's supervision
    layers absorb ``Exception`` (retry, pool replacement — that is
    their job), but an abort is an *instruction*,
    not a failure, and must pierce every retry loop the way
    ``KeyboardInterrupt`` does.  Nothing is charged to health counters
    on the way out; completed blocks stay journaled so a later
    retry-resume picks up exactly where the abort landed.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class RunCancelledError(RunAbortedError):
    """The run was cooperatively cancelled (``ScenarioRunner.cancel``)."""

    def __init__(self, reason: str = "run cancelled"):
        super().__init__(reason)


class DeadlineExceededError(RunAbortedError):
    """The run's wall-clock deadline passed before it finished.

    Raised *between* block attempts — no attempt is ever scheduled
    past the deadline — so the journal holds only whole, verified
    blocks when the abort surfaces.
    """

    def __init__(self, reason: str = "run deadline exceeded"):
        super().__init__(reason)


def _unit_fraction(*parts: object) -> float:
    """Deterministic hash of ``parts`` mapped into [0, 1)."""
    digest = hashlib.sha256(":".join(str(part) for part in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision parameters for every dispatched trial block.

    Attributes:
        max_attempts: total tries per block (1 = fail fast).
        backoff_base_s: sleep before the second attempt.
        backoff_factor: multiplier per further attempt.
        jitter: fractional spread added on top of the exponential
            backoff.  The jitter is *seeded* — a pure function of
            ``(seed, block, attempt)`` — so recovery timing is as
            reproducible as the results.
        timeout_s: per-block wall-clock budget.  Enforced on the
            process-pool path (a hung worker is terminated and the
            block retried on a fresh pool); ``None`` disables it.
        seed: jitter seed.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    timeout_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_factor < 1 or self.jitter < 0:
            raise ValueError("backoff parameters must be non-negative (factor >= 1)")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")

    def backoff_s(self, block_index: int, attempt: int) -> float:
        """Sleep before re-dispatching ``block_index`` after ``attempt``."""
        base = self.backoff_base_s * self.backoff_factor ** max(attempt - 1, 0)
        return base * (1.0 + self.jitter * _unit_fraction(self.seed, block_index, attempt))

    def to_json(self) -> Dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base_s": self.backoff_base_s,
            "backoff_factor": self.backoff_factor,
            "jitter": self.jitter,
            "timeout_s": self.timeout_s,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "RetryPolicy":
        return cls(**dict(data))


@dataclass(frozen=True)
class FaultSpec:
    """One injection: ``kind`` fired at ``block`` for ``times`` attempts.

    ``times`` is the number of *consecutive leading attempts* that see
    the fault — ``times=2`` means attempts 1 and 2 fail and attempt 3
    runs clean, which is exactly the shape a retry policy must absorb.
    """

    kind: str
    block: int
    times: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind '{self.kind}'; known: {', '.join(FAULT_KINDS)}"
            )
        if self.block < 0 or self.times < 1:
            raise ValueError("block must be >= 0 and times >= 1")

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "block": self.block, "times": self.times}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FaultSpec":
        return cls(
            kind=str(data["kind"]),
            block=int(data["block"]),
            times=int(data.get("times", 1)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of injections for one run.

    Attributes:
        faults: the injections; a block index matches every
            supervised ``execute()`` call of the run (so a plan wired
            through a multi-policy scenario exercises every policy).
        hang_s: how long an injected hang sleeps.  Pair it with a
            smaller :attr:`RetryPolicy.timeout_s` to exercise the
            timeout + retry path.
    """

    faults: Tuple[FaultSpec, ...] = ()
    hang_s: float = 30.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "faults": [fault.to_json() for fault in self.faults],
            "hang_s": self.hang_s,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            faults=tuple(FaultSpec.from_json(entry) for entry in data.get("faults", ())),
            hang_s=float(data.get("hang_s", 30.0)),
        )

    @classmethod
    def parse(cls, tokens: List[str], hang_s: float = 30.0) -> "FaultPlan":
        """Build a plan from CLI tokens like ``crash@1`` / ``exception@0,2*2``.

        Grammar: ``kind@block[,block...][*times]`` with ``kind`` one of
        :data:`FAULT_KINDS`.
        """
        faults: List[FaultSpec] = []
        for token in tokens:
            kind, separator, rest = token.partition("@")
            if not separator or not rest:
                raise ValueError(
                    f"bad --inject token '{token}'; expected kind@block[,block...][*times]"
                )
            times = 1
            if "*" in rest:
                rest, _, times_text = rest.rpartition("*")
                times = int(times_text)
            for block_text in rest.split(","):
                faults.append(FaultSpec(kind=kind, block=int(block_text), times=times))
        return cls(faults=tuple(faults), hang_s=hang_s)


class FaultInjector:
    """Resolves a :class:`FaultPlan` into per-dispatch directives.

    Stateless by design: the supervisor passes the attempt number, so
    whether a fault fires is a pure function of ``(block, attempt)`` —
    re-dispatching a block lost collaterally (its pool died for another
    block's sins) replays the identical decision.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    def directive(self, block_index: int, attempt: int) -> Optional[Dict[str, Any]]:
        """The injection for this dispatch, or None to run clean."""
        for fault in self.plan.faults:
            if fault.block == block_index and attempt <= fault.times:
                out: Dict[str, Any] = {"kind": fault.kind}
                if fault.kind == "hang":
                    out["hang_s"] = self.plan.hang_s
                return out
        return None


@dataclass
class RunHealth:
    """Observable execution health of one run (manifest ``health``).

    Attributes:
        blocks: trial blocks requested through supervised execution.
        executed: blocks actually evaluated this run (rest were
            restored from a checkpoint).
        checkpoint_hits: blocks skipped because a checkpoint already
            held their results.
        retries: block re-dispatches after an own failure.
        timeouts: per-block wall-clock budget violations.
        pool_replacements: process pools torn down and rebuilt after a
            worker death or a hung block.
        injected: fault-plan directives issued.
        attempts: attempts per block that needed more than one, keyed
            ``"label[index]"``.
    """

    blocks: int = 0
    executed: int = 0
    checkpoint_hits: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_replacements: int = 0
    injected: int = 0
    attempts: Dict[str, int] = field(default_factory=dict)

    # The note_* methods below are the one place supervision outcomes
    # are accounted: each bumps its health counter *and* mirrors the
    # occurrence into the observability layer (a trace event plus a
    # metric), so the manifest's health section and a run's trace can
    # never drift apart.  With no active obs session the mirroring is
    # a no-op.

    def note_attempts(self, label: str, block_index: int, attempts: int) -> None:
        if attempts > 1:
            key = f"{label}[{block_index}]"
            self.attempts[key] = max(self.attempts.get(key, 0), attempts)

    def note_retry(self, label: str, block_index: int, error: BaseException) -> None:
        """A block is being re-dispatched after its own failure."""
        self.retries += 1
        _obs.event(
            "retry",
            policy=label,
            block=int(block_index),
            error=type(error).__name__,
        )
        _obs.inc("runner_retries_total")

    def note_timeout(self, label: str, block_index: int, budget_s: float) -> None:
        """A block exceeded its supervised wall-clock budget."""
        self.timeouts += 1
        _obs.event(
            "timeout", policy=label, block=int(block_index), budget_s=float(budget_s)
        )
        _obs.inc("runner_timeouts_total")

    def note_pool_replacement(self) -> None:
        """A broken or hung process pool was torn down and rebuilt."""
        self.pool_replacements += 1
        _obs.event("pool.replaced")
        _obs.inc("runner_pool_replacements_total")

    def note_checkpoint_hit(self, label: str, block_index: int, call_index: int) -> None:
        """A block was restored from the checkpoint journal, not executed."""
        self.checkpoint_hits += 1
        _obs.event(
            "checkpoint.hit",
            policy=label,
            call=int(call_index),
            block=int(block_index),
        )
        _obs.inc("checkpoint_hits_total")

    def note_injected(
        self, label: str, block_index: int, attempt: int, kind: str
    ) -> None:
        """A fault-plan directive was issued for this dispatch.

        The trace event is tagged ``injected=True`` so a faulty run's
        trace is distinguishable from organic failures (and the tag
        survives the jobs>1 merge — it is recorded runner-side, keyed
        by the same dispatch the directive rode on).
        """
        self.injected += 1
        _obs.event(
            "fault.injected",
            injected=True,
            kind=str(kind),
            policy=label,
            block=int(block_index),
            attempt=int(attempt),
        )
        _obs.inc("runner_injected_total", kind=str(kind))

    def to_json(self) -> Dict[str, Any]:
        return {
            "blocks": self.blocks,
            "executed": self.executed,
            "checkpoint_hits": self.checkpoint_hits,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_replacements": self.pool_replacements,
            "injected": self.injected,
            "attempts": dict(self.attempts),
        }
