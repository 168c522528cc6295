"""Run-wide metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is a process-local accumulator.  Metric
identity is ``name`` plus an optional sorted label set, rendered into a
Prometheus-style key (``runner_kernel_path_total{path="batched"}``), so
snapshots from different processes merge by plain string keys — the
cross-process aggregation path piggybacks worker snapshots on block
results and folds them into the run's registry in deterministic block
order.

Histograms use *fixed* buckets resolved from the metric name
(:data:`BUCKETS_BY_METRIC`, falling back to :data:`DEFAULT_BUCKETS`),
never from observed data: every process of a run therefore bins into
identical edges and snapshots merge by elementwise addition.

Two exports exist for every registry: :meth:`MetricsRegistry.snapshot`
(JSON, embedded in the run manifest's ``observability`` section) and
:meth:`MetricsRegistry.render_prometheus` (text exposition for the
future service front-end and for ``repro-bench report --metrics``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "BUCKETS_BY_METRIC",
    "MetricsRegistry",
    "buckets_for",
    "escape_label_value",
    "unescape_label_value",
]

#: Latency-shaped default bucket edges (seconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Fixed bucket edges per histogram family.  Fixed (and resolved from
#: the name alone) so every process of a run bins identically and
#: cross-process merges stay an elementwise sum.
BUCKETS_BY_METRIC: Dict[str, Tuple[float, ...]] = {
    "runner_retry_wait_seconds": (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5),
    "planner_probes_requested": (2, 4, 8, 12, 16, 20, 24, 28, 34),
    # Whole-run service latency: runs span milliseconds (tiny smoke
    # specs) to minutes (fig7-scale campaigns).
    "service_run_seconds": (
        0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0, 1200.0,
    ),
    # Estimation-quality exemplars (obs/quality.py).  Ratio-, dB- and
    # conditioning-shaped edges — NOT the latency defaults — fixed so
    # the jobs=N merge stays an elementwise bucket sum.
    # Correlation peak over runner-up: 1.0 = ambiguous, >2 = decisive.
    "quality_peak_ratio": (
        1.0, 1.01, 1.02, 1.05, 1.1, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0,
    ),
    # Eq. 4 gain gap between the chosen sector and the runner-up (dB).
    "quality_selection_margin_db": (
        0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
    ),
    # Mutual coherence of a designed sensing matrix (unit-norm rows).
    "quality_design_coherence": (
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0,
    ),
    # 2-norm condition number of the designed subset matrix.
    "quality_design_condition": (
        1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0, 10000.0,
    ),
}


def buckets_for(name: str) -> Tuple[float, ...]:
    """The fixed bucket edges of a histogram family."""
    return BUCKETS_BY_METRIC.get(name, DEFAULT_BUCKETS)


def escape_label_value(value: Any) -> str:
    """Escape a label value per the Prometheus text-format spec.

    Inside a label value, backslash, double-quote and newline must be
    written as ``\\\\``, ``\\"`` and ``\\n`` — an unescaped value like
    ``fig7"x`` would terminate the quoted string early and produce an
    exposition no scraper can parse.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def unescape_label_value(value: str) -> str:
    """Inverse of :func:`escape_label_value` (round-trip tests, parsers)."""
    out: List[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            follower = value[index + 1]
            if follower == "n":
                out.append("\n")
                index += 2
                continue
            if follower in ('"', "\\"):
                out.append(follower)
                index += 2
                continue
        out.append(char)
        index += 1
    return "".join(out)


def _metric_key(name: str, labels: Mapping[str, Any]) -> str:
    """Prometheus-style series key: ``name{a="x",b="y"}`` (sorted).

    Label values are escaped at key-construction time, so every export
    (snapshot keys included) carries the already-valid exposition form
    and cross-process merges keep matching on identical strings.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{escape_label_value(labels[key])}"' for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def _family_of(key: str) -> str:
    """The metric name of a series key (labels stripped)."""
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


class MetricsRegistry:
    """Process-local counters, gauges and fixed-bucket histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        # key -> {"le": [...edges...], "counts": [per-bucket + overflow], "sum": x}
        self._histograms: Dict[str, Dict[str, Any]] = {}

    # -- recording ------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        """Add ``value`` to a (monotonic) counter series."""
        key = _metric_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge series to its latest value."""
        self._gauges[_metric_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation into the family's fixed buckets."""
        key = _metric_key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            edges = buckets_for(name)
            histogram = {
                "le": list(edges),
                "counts": [0] * (len(edges) + 1),
                "sum": 0.0,
            }
            self._histograms[key] = histogram
        slot = len(histogram["le"])
        for index, edge in enumerate(histogram["le"]):
            if value <= edge:
                slot = index
                break
        histogram["counts"][slot] += 1
        histogram["sum"] += float(value)

    # -- export / aggregation -------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able copy of every series (sorted, deterministic)."""
        return {
            "counters": {key: self._counters[key] for key in sorted(self._counters)},
            "gauges": {key: self._gauges[key] for key in sorted(self._gauges)},
            "histograms": {
                key: {
                    "le": list(value["le"]),
                    "counts": list(value["counts"]),
                    "sum": value["sum"],
                    "count": int(sum(value["counts"])),
                }
                for key, value in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram buckets add; gauges take the incoming
        value (callers merge in deterministic order, so "last write
        wins" is reproducible).  A histogram whose edges disagree with
        this process's fixed edges is skipped rather than corrupted —
        that can only happen across code versions.
        """
        for key, value in snapshot.get("counters", {}).items():
            self._counters[key] = self._counters.get(key, 0) + value
        for key, value in snapshot.get("gauges", {}).items():
            self._gauges[key] = float(value)
        for key, incoming in snapshot.get("histograms", {}).items():
            mine = self._histograms.get(key)
            if mine is None:
                self._histograms[key] = {
                    "le": list(incoming["le"]),
                    "counts": list(incoming["counts"]),
                    "sum": float(incoming["sum"]),
                }
                continue
            if list(incoming["le"]) != list(mine["le"]):
                continue
            mine["counts"] = [
                a + b for a, b in zip(mine["counts"], incoming["counts"])
            ]
            mine["sum"] += float(incoming["sum"])

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every series."""
        lines: List[str] = []
        typed: set = set()

        def type_line(key: str, kind: str) -> None:
            family = _family_of(key)
            if family not in typed:
                typed.add(family)
                lines.append(f"# TYPE {family} {kind}")

        for key in sorted(self._counters):
            type_line(key, "counter")
            lines.append(f"{key} {_format_value(self._counters[key])}")
        for key in sorted(self._gauges):
            type_line(key, "gauge")
            lines.append(f"{key} {_format_value(self._gauges[key])}")
        for key in sorted(self._histograms):
            histogram = self._histograms[key]
            type_line(key, "histogram")
            family, labels = _split_key(key)
            cumulative = 0
            for edge, count in zip(histogram["le"], histogram["counts"]):
                cumulative += count
                lines.append(
                    f"{family}_bucket{_with_le(labels, _format_value(edge))} {cumulative}"
                )
            cumulative += histogram["counts"][-1]
            lines.append(f"{family}_bucket{_with_le(labels, '+Inf')} {cumulative}")
            lines.append(f"{family}_sum{labels} {_format_value(histogram['sum'])}")
            lines.append(f"{family}_count{labels} {cumulative}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


def _format_value(value: float) -> str:
    """Integers render bare (Prometheus accepts both; diffs stay clean)."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _split_key(key: str) -> Tuple[str, str]:
    """Split a series key into (family, "{labels}" or "")."""
    brace = key.find("{")
    return (key, "") if brace < 0 else (key[:brace], key[brace:])


def _with_le(labels: str, le: str) -> str:
    """Insert the ``le`` label into an existing label block."""
    if not labels:
        return f'{{le="{le}"}}'
    return f'{labels[:-1]},le="{le}"}}'
