"""Structured run manifests: provenance for every scenario run.

A manifest records *which* configuration produced a result (the spec's
SHA-256 digest and seed), *where* (git revision), and *how long* each
policy took — enough to reproduce or audit a run from the manifest
alone (``repro-bench run spec.json`` with the same digest).
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict

__all__ = ["RunManifest", "git_revision", "result_digest"]


def git_revision() -> str:
    """The current git commit hash, or 'unknown' outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    revision = proc.stdout.strip()
    return revision if proc.returncode == 0 and revision else "unknown"


def result_digest(result: Any) -> str:
    """SHA-256 of a result's canonical JSON form, or "" if unserializable.

    The digest covers exactly the payload ``dump_result_json`` writes
    (experiment class name + sanitized data), canonically encoded — two
    runs of the same spec+seed produce the same digest if and only if
    their results are bit-identical, no matter which front-end (CLI or
    service) executed them.
    """
    from ..experiments.io import result_to_dict

    try:
        payload = {
            "experiment": type(result).__name__,
            "data": result_to_dict(result),
        }
    except TypeError:
        return ""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class RunManifest:
    """Provenance of one :class:`~.runner.ScenarioRunner` run."""

    scenario: str
    spec_digest: str
    seed: int
    jobs: int
    git_rev: str
    started: str
    wall_time_s: float
    policy_timings_s: Dict[str, float] = field(default_factory=dict)
    health: Dict = field(default_factory=dict)
    #: SHA-256 over the result's canonical JSON (see :func:`result_digest`);
    #: "" when the result type is not JSON-serializable.  This is the
    #: field the service's digest-equality contract compares.
    result_sha256: str = ""
    #: Trace/metric rollup of an observed run (``repro.obs``); empty
    #: when the runner had no ObsSession.  ``repro-bench report`` can
    #: render a saved manifest from this section alone.
    observability: Dict = field(default_factory=dict)

    def to_json(self) -> Dict:
        return {
            "scenario": self.scenario,
            "spec_digest": self.spec_digest,
            "seed": self.seed,
            "jobs": self.jobs,
            "git_rev": self.git_rev,
            "started": self.started,
            "wall_time_s": self.wall_time_s,
            "policy_timings_s": dict(self.policy_timings_s),
            "health": dict(self.health),
            "result_sha256": self.result_sha256,
            "observability": dict(self.observability),
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")

    def format_rows(self):
        rows = [
            f"manifest: scenario={self.scenario} seed={self.seed} jobs={self.jobs}",
            f"  spec sha256 {self.spec_digest[:16]}…  git {self.git_rev[:12]}",
            f"  started {self.started}  wall {self.wall_time_s:.2f} s",
        ]
        if self.result_sha256:
            rows.insert(2, f"  result sha256 {self.result_sha256[:16]}…")
        for name in sorted(self.policy_timings_s):
            rows.append(f"  policy {name:20s} {self.policy_timings_s[name]:8.3f} s")
        # A run with an empty, absent or all-zero health dict is simply
        # clean — render that as one row, never as empty counter rows
        # (and tolerate attempts: null from hand-edited manifests).
        health = dict(self.health or {})
        counters = " ".join(
            f"{key}={health[key]}"
            for key in (
                "blocks",
                "executed",
                "checkpoint_hits",
                "retries",
                "timeouts",
                "pool_replacements",
                "injected",
            )
            if health.get(key)
        )
        rows.append(f"  health {counters or 'clean'}")
        attempts = health.get("attempts") or {}
        for key in sorted(attempts):
            rows.append(f"    {key} took {attempts[key]} attempts")
        if self.observability.get("enabled"):
            spans = self.observability.get("spans", {})
            total = sum(int(entry.get("count", 0)) for entry in spans.values())
            rows.append(
                f"  observability {total} span(s) in {len(spans)} stage(s)"
                f" — see `repro-bench report`"
            )
        return rows
