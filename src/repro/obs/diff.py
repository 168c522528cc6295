"""Regression attribution: diff two runs and rank *what changed*.

``repro-bench diff A B`` compares two observability artifacts — trace
JSONL files, run manifests, or points out of a BENCH trajectory file —
and emits a deterministic ranked report:

* **Per-stage wall-time deltas** with a significance threshold: a
  stage's relative change only counts as significant when it clears
  ``noise_pct`` (:data:`DEFAULT_NOISE_PCT` unless overridden).  The
  threshold is fixed, never widened by noise a point recorded, so a
  noisy historical point cannot hide real drift.
* **Metric drift** — counters and scalar metrics present on both
  sides, ranked by relative change; count mismatches on supposedly
  deterministic counters are flagged outright.
* **Quality-histogram drift** — distribution distance between the
  labeled quality histograms (L1 over normalized bucket mass), which
  localizes *physical-layer* changes (a designer got less coherent, a
  policy's margins collapsed) separately from mechanical ones.
* **First-divergent-stage localization** — the earliest stage, in
  pipeline order, whose timing or count significantly moved; the CI
  perf gate prints it so a failure names a suspect instead of a
  number.

Targets address BENCH points as ``path#selector`` where ``selector``
is a point label (last match wins) or an integer index; a bare BENCH
path takes the last point.  Everything is pure-function over the
loaded JSON, so the same inputs always produce the same report.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "load_diff_target",
    "diff_targets",
    "format_diff_rows",
    "DEFAULT_NOISE_PCT",
]

#: Significance threshold unless the caller overrides it.
DEFAULT_NOISE_PCT = 5.0

#: Pipeline order for first-divergence localization; stages absent
#: from the list rank after the known ones, alphabetically.
_STAGE_ORDER = (
    "scenario.run",
    "plan.trials",
    "probe.design",
    "execute.policy",
    "execute.block",
)


def _stage_rank(name: str) -> Tuple[int, str]:
    try:
        return (_STAGE_ORDER.index(name), name)
    except ValueError:
        return (len(_STAGE_ORDER), name)


# ----------------------------------------------------------------------
# Target loading.
# ----------------------------------------------------------------------


def _is_bench_payload(payload: Any) -> bool:
    return isinstance(payload, dict) and isinstance(payload.get("points"), list)


def _select_bench_point(points: List[dict], selector: Optional[str]) -> dict:
    if not points:
        raise ValueError("BENCH file has no points")
    if selector is None or selector == "":
        return points[-1]
    try:
        index = int(selector)
    except ValueError:
        labeled = [p for p in points if p.get("label") == selector]
        if not labeled:
            raise ValueError(f"no BENCH point labeled {selector!r}")
        return labeled[-1]
    try:
        return points[index]
    except IndexError:
        raise ValueError(f"BENCH point index {index} out of range") from None


def _from_bench_point(path: str, point: dict) -> Dict[str, Any]:
    metrics = {
        key: float(value)
        for key, value in point.get("metrics", {}).items()
        if isinstance(value, (int, float))
    }
    return {
        "kind": "bench",
        "identity": {
            "source": path,
            "label": point.get("label"),
            "timestamp": point.get("timestamp"),
            "environment": point.get("environment", {}),
        },
        "stages": {},
        "counters": {},
        "metrics": metrics,
        "histograms": {},
    }


def _from_report_payload(path: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
    rollup = payload.get("rollup", {})
    stages = {
        name: {
            "total_s": float(stats.get("total_s", 0.0)),
            "count": int(stats.get("count", 0)),
            "max_s": float(stats.get("max_s", 0.0)),
        }
        for name, stats in rollup.get("spans", {}).items()
    }
    metrics_section = payload.get("metrics", {}) or {}
    counters = {
        key: float(value)
        for key, value in metrics_section.get("counters", {}).items()
    }
    histograms = dict(metrics_section.get("histograms", {}))
    return {
        "kind": payload.get("source", "report"),
        "identity": dict(payload.get("identity", {}), source=path),
        "stages": stages,
        "counters": counters,
        "metrics": {},
        "histograms": histograms,
    }


def load_diff_target(spec: str) -> Dict[str, Any]:
    """Load one side of a diff from a ``path`` or ``path#selector``.

    Accepts trace JSONL files, run manifests (via the report loader)
    and BENCH trajectory files; raises ``ValueError`` with a
    actionable message otherwise.
    """
    path_part, _, selector = str(spec).partition("#")
    path = Path(path_part)
    if not path.exists():
        raise ValueError(f"{path}: no such file")
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError):
        payload = None
    if _is_bench_payload(payload):
        target = _from_bench_point(
            str(path), _select_bench_point(payload["points"], selector or None)
        )
        return target
    if selector:
        raise ValueError(f"{path}: '#{selector}' selectors only address BENCH files")
    from .report import load_report_target

    return _from_report_payload(str(path), load_report_target(path))


# ----------------------------------------------------------------------
# The diff proper.
# ----------------------------------------------------------------------


def _relative_pct(before: float, after: float) -> float:
    if before == 0.0:
        return 0.0 if after == 0.0 else float("inf")
    return 100.0 * (after - before) / before


def _histogram_drift(a: Mapping[str, Any], b: Mapping[str, Any]) -> Optional[float]:
    """L1 distance between normalized bucket distributions, or None."""
    if list(a.get("le", [])) != list(b.get("le", [])):
        return None
    counts_a = [float(c) for c in a.get("counts", [])]
    counts_b = [float(c) for c in b.get("counts", [])]
    if len(counts_a) != len(counts_b):
        return None
    total_a, total_b = sum(counts_a), sum(counts_b)
    if total_a <= 0.0 or total_b <= 0.0:
        return None
    return 0.5 * sum(
        abs(ca / total_a - cb / total_b) for ca, cb in zip(counts_a, counts_b)
    )


def diff_targets(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    noise_pct: Optional[float] = None,
) -> Dict[str, Any]:
    """Rank everything that changed between two loaded targets.

    A relative change counts as significant above ``noise_pct``
    percent, :data:`DEFAULT_NOISE_PCT` when not given.
    """
    threshold = DEFAULT_NOISE_PCT if noise_pct is None else float(noise_pct)

    stage_rows: List[Dict[str, Any]] = []
    stages_a, stages_b = a.get("stages", {}), b.get("stages", {})
    for name in sorted(set(stages_a) | set(stages_b), key=_stage_rank):
        sa = stages_a.get(name, {"total_s": 0.0, "count": 0})
        sb = stages_b.get(name, {"total_s": 0.0, "count": 0})
        pct = _relative_pct(sa["total_s"], sb["total_s"])
        count_changed = sa["count"] != sb["count"]
        stage_rows.append(
            {
                "stage": name,
                "before_s": sa["total_s"],
                "after_s": sb["total_s"],
                "delta_s": sb["total_s"] - sa["total_s"],
                "pct": pct,
                "count_before": sa["count"],
                "count_after": sb["count"],
                "significant": count_changed or abs(pct) > threshold,
            }
        )
    first_divergent = next(
        (row["stage"] for row in stage_rows if row["significant"]), None
    )
    # Rank by |delta| for the report; the pipeline-ordered pass above
    # already extracted the localization.
    stage_rows.sort(key=lambda row: (-abs(row["delta_s"]), row["stage"]))

    metric_rows: List[Dict[str, Any]] = []
    for section in ("metrics", "counters"):
        values_a = a.get(section, {})
        values_b = b.get(section, {})
        for name in sorted(set(values_a) | set(values_b)):
            va, vb = values_a.get(name), values_b.get(name)
            if va is None or vb is None:
                metric_rows.append(
                    {
                        "metric": name,
                        "before": va,
                        "after": vb,
                        "pct": float("inf"),
                        "significant": True,
                        "kind": section,
                    }
                )
                continue
            pct = _relative_pct(float(va), float(vb))
            if pct == 0.0:
                continue
            metric_rows.append(
                {
                    "metric": name,
                    "before": float(va),
                    "after": float(vb),
                    "pct": pct,
                    "significant": abs(pct) > threshold,
                    "kind": section,
                }
            )
    metric_rows.sort(
        key=lambda row: (
            -(abs(row["pct"]) if row["pct"] != float("inf") else 1e18),
            row["metric"],
        )
    )

    quality_rows: List[Dict[str, Any]] = []
    hists_a, hists_b = a.get("histograms", {}), b.get("histograms", {})
    for name in sorted(set(hists_a) & set(hists_b)):
        drift = _histogram_drift(hists_a[name], hists_b[name])
        if drift is None or drift == 0.0:
            continue
        quality_rows.append(
            {
                "histogram": name,
                "drift": drift,
                "quality": name.startswith("quality_"),
            }
        )
    quality_rows.sort(key=lambda row: (-row["drift"], row["histogram"]))

    return {
        "threshold_pct": threshold,
        "identity": {"a": a.get("identity", {}), "b": b.get("identity", {})},
        "stages": stage_rows,
        "metrics": metric_rows,
        "histograms": quality_rows,
        "first_divergent_stage": first_divergent,
    }


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------


def _fmt_pct(pct: float) -> str:
    if pct == float("inf"):
        return "new"
    return f"{pct:+.1f}%"


def format_diff_rows(diff: Mapping[str, Any], top: int = 10) -> List[str]:
    """Human-readable attribution table (stable for a given diff)."""
    rows: List[str] = []
    rows.append(
        "diff: regression attribution "
        f"(significance > {diff['threshold_pct']:.1f}%)"
    )
    divergent = diff.get("first_divergent_stage")
    if divergent:
        rows.append(f"  first divergent stage: {divergent}")
    stages = [s for s in diff.get("stages", []) if s["before_s"] or s["after_s"]]
    if stages:
        rows.append("  stage                   before_s   after_s     delta      flag")
        for row in stages[:top]:
            flag = "SIGNIFICANT" if row["significant"] else ""
            rows.append(
                f"  {row['stage']:<22} {row['before_s']:>9.4f} {row['after_s']:>9.4f} "
                f"{_fmt_pct(row['pct']):>9}  {flag}"
            )
    metrics = diff.get("metrics", [])
    if metrics:
        rows.append("  metric drift (ranked by relative change)")
        for row in metrics[:top]:
            flag = "SIGNIFICANT" if row["significant"] else ""
            before = "-" if row["before"] is None else f"{row['before']:g}"
            after = "-" if row["after"] is None else f"{row['after']:g}"
            rows.append(
                f"    {row['metric']:<46} {before:>12} -> {after:<12} "
                f"{_fmt_pct(row['pct']):>9}  {flag}"
            )
    histograms = diff.get("histograms", [])
    if histograms:
        rows.append("  histogram drift (L1 distribution distance)")
        for row in histograms[:top]:
            tag = "quality" if row["quality"] else "latency"
            rows.append(f"    {row['histogram']:<54} {row['drift']:.4f}  [{tag}]")
    if len(rows) == 1 + (1 if divergent else 0):
        rows.append("  no differences above the noise floor")
    return rows
