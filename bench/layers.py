"""The program's layers: which public calls are timed, and the metrics.

Layer names follow the modules.  :func:`targets` lists the public calls
wrapped for each layer; :func:`batch_layers` and :func:`service_layers`
turn the recorded spans of a traced run into the per-layer metrics that
``BENCHMARK.json`` declares.  Every ``<layer>.self_ms`` and every count
is per operation: per pass for the batch workloads, per completed run
for the service workloads.

Self times of the spans on an operation's critical path — the workload
process for batch workloads; for the service, the client's submit
round trip, the queue wait and the serve process's spans of that run —
plus ``unattributed`` add up to the operation's traced wall time.  Pool
workers run beside that path, so their spans are reported as
``pool.busy_frac`` and in the kernel counts, never in a ``self_ms``.
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from .spans import Target

#: Layers whose self time is measured by wrapping program calls, in
#: pipeline order.
WRAPPED_LAYERS = (
    "testbed", "observe", "policy", "plan", "design", "execute", "shm",
    "kernel", "journal", "registry", "result", "obs", "scenario",
)

KERNEL_ENTRIES = ("select", "select_batch", "select_fused_batch", "select_fused_stacked")

#: For every layer: the end-to-end metric and workloads it should move.
MOVES: Dict[str, str] = {
    "wall": "op_p50_ms and ops_per_s: the same times before host-speed scaling",
    "host": "nothing: the host speed that the timing metrics are scaled by",
    "testbed": "setup_s on every workload",
    "observe": "op_p50_ms on paper-suite and fig7-sharded (serial part); ~0 on service-tiny",
    "policy": "op_p50_ms on paper-suite and service-fig7",
    "plan": "op_p50_ms on paper-suite and fig7-sharded",
    "design": "op_p50_ms on paper-suite (fig7_probe_design); 0 elsewhere",
    "execute": "op_p50_ms on fig7-sharded (dispatch, supervision, wait on the pool)",
    "shm": "op_p50_ms on fig7-sharded only",
    "kernel": "op_p50_ms on the batch workloads, ops_per_s on service-fig7; ~0 on service-tiny",
    "journal": "ops_per_s and op_p50_ms on service-tiny; 0 on the batch workloads",
    "registry": "ops_per_s and op_p50_ms on service-tiny; 0 on the batch workloads",
    "result": "op_p50_ms on service-*",
    "obs": "op_p50_ms on service-* (the service traces every run)",
    "scenario": "every workload (executor code outside the other layers)",
    "queue": "op_p50_ms on service-*",
    "http": "op_p50_ms and ops_per_s on service-tiny",
    "unattributed": "every workload (time in no layer)",
    "traced": "the traced operation time the layer self times add up to",
    "worker": "ops_per_s on service-*; op_p50_ms on the batch workloads",
    "pool": "op_p50_ms on fig7-sharded",
    "health": "failed_frac on every workload",
    "failed": "the run's correctness",
    "trace": "nothing: the cost of the wrappers",
}


def _shm_publish(args: tuple, kwargs: dict) -> Dict[str, Any]:
    publisher, key = args[0], args[1]
    arrays = args[2] if len(args) > 2 else kwargs["arrays"]
    if publisher.manifest(key) is not None:
        return {"reused": True, "bytes": 0}
    return {"reused": False, "bytes": int(sum(array.nbytes for array in arrays.values()))}


def _rows_of(args: tuple, kwargs: dict) -> Dict[str, Any]:
    ids = args[1] if len(args) > 1 else kwargs["sector_ids"]
    return {"rows": int(ids.shape[0])}


def _rows_stacked(args: tuple, kwargs: dict) -> Dict[str, Any]:
    parts = args[1] if len(args) > 1 else kwargs["parts"]
    return {"rows": int(sum(part[0].shape[0] for part in parts))}


def _one_row(args: tuple, kwargs: dict) -> Dict[str, Any]:
    return {"rows": 1}


def _planned_trials(result: Any, attrs: Dict[str, Any]) -> Dict[str, Any]:
    return {"trials": int(sum(block.n_trials for block in result))}


def _scenario_run(args: tuple, kwargs: dict) -> Dict[str, Any]:
    """Label a run by its checkpoint path's stem: the service's run id."""
    attrs: Dict[str, Any] = {"scenario": args[1].scenario}
    checkpoint = kwargs.get("checkpoint")
    if isinstance(checkpoint, (str, os.PathLike)) and str(checkpoint):
        attrs["run"] = Path(checkpoint).stem
    return attrs


def _registry_record(args: tuple, kwargs: dict) -> Dict[str, Any]:
    run_id = args[1] if len(args) > 1 else kwargs["run_id"]
    return {"run": str(run_id), "to": args[2] if len(args) > 2 else kwargs.get("to")}


def targets() -> List[Target]:
    """Every wrapped call.  Needs ``repro`` importable and loaded."""
    from repro.core import probes
    from repro.runtime.registry import available_probe_designers

    designers = set(available_probe_designers())
    designer_classes = sorted(
        name
        for name, value in vars(probes).items()
        if isinstance(value, type)
        and getattr(value, "name", None) in designers
        and callable(getattr(value, "design", None))
    )
    found = [
        Target("testbed", "repro.experiments.common", "build_testbed"),
        Target("testbed", "repro.runtime.spec", "TestbedSpec.build"),
        Target("observe", "repro.experiments.common", "record_directions"),
        Target("policy", "repro.runtime.runner", "ScenarioRunner.build_policy"),
        Target("plan", "repro.runtime.runner", "ScenarioRunner.plan_trials",
               finish=_planned_trials),
        *(Target("design", "repro.core.probes", f"{name}.design") for name in designer_classes),
        Target("execute", "repro.runtime.runner", "ScenarioRunner.execute"),
        Target("shm", "repro.runtime.shm", "KernelPublisher.publish", annotate=_shm_publish),
        Target("kernel", "repro.core.compressive", "CompressiveSectorSelector.select",
               annotate=_one_row),
        Target("kernel", "repro.core.compressive", "CompressiveSectorSelector.select_batch",
               annotate=_rows_of),
        Target("kernel", "repro.core.compressive",
               "CompressiveSectorSelector.select_fused_batch", annotate=_rows_of),
        Target("kernel", "repro.core.compressive",
               "CompressiveSectorSelector.select_fused_stacked", annotate=_rows_stacked),
        Target("journal", "repro.runtime.checkpoint", "CheckpointStore.__init__"),
        Target("journal", "repro.runtime.checkpoint", "CheckpointStore.put"),
        Target("registry", "repro.service.registry", "RunRegistry.record",
               annotate=_registry_record),
        Target("result", "repro.experiments.io", "result_to_dict"),
        Target("result", "repro.runtime.manifest", "result_digest"),
        Target("obs", "repro.obs", "ObsSession.finalize"),
        Target("scenario", "repro.runtime.runner", "ScenarioRunner.run",
               annotate=_scenario_run),
    ]
    return found


def install_program_wrappers(recorder):
    """Load every program module, then wrap :func:`targets` and count fsyncs."""
    import repro.service.server  # noqa: F401  (loads the service modules)
    from repro.runtime import load_builtin

    from .spans import install

    load_builtin()
    return install(recorder, targets(), counters=[(os, "fsync", "fsync")])


# ----------------------------------------------------------------------
# Aggregation.
# ----------------------------------------------------------------------


def _inside(span: Mapping[str, Any], start: float, end: float) -> bool:
    return span["start"] >= start and span["start"] + span["duration_s"] <= end


def _common(
    layer_self_s: Mapping[str, float],
    spans: Sequence[Mapping[str, Any]],
    n_ops: int,
) -> Dict[str, float]:
    """Self times and counts of the wrapped layers, per operation."""
    metrics: Dict[str, float] = {}
    for layer in WRAPPED_LAYERS:
        metrics[f"{layer}.self_ms"] = 1e3 * layer_self_s.get(layer, 0.0) / n_ops
        if layer != "kernel":  # counted per entry point below
            metrics[f"{layer}.calls"] = sum(1 for s in spans if s["layer"] == layer) / n_ops
    plan = [s for s in spans if s["layer"] == "plan"]
    metrics["plan.trials"] = sum(s["attrs"].get("trials", 0) for s in plan) / n_ops
    publishes = [s for s in spans if s["layer"] == "shm"]
    metrics["shm.bytes"] = sum(s["attrs"].get("bytes", 0) for s in publishes) / n_ops
    metrics["shm.reuse_frac"] = (
        sum(1 for s in publishes if s["attrs"].get("reused")) / len(publishes)
        if publishes else 0.0
    )
    kernel = [s for s in spans if s["layer"] == "kernel"]
    rows = sum(s["attrs"].get("rows", 0) for s in kernel)
    busy = sum(s["self_s"] for s in kernel)
    metrics["kernel.rows"] = rows / n_ops
    metrics["kernel.rows_per_s"] = rows / busy if busy > 0 else 0.0
    for entry in KERNEL_ENTRIES:
        suffix = f".{entry}"
        metrics[f"kernel.calls.{entry}"] = (
            sum(1 for s in kernel if s["fn"].endswith(suffix)) / n_ops
        )
    for layer in ("journal", "registry"):
        metrics[f"{layer}.fsync.calls"] = sum(
            s["attrs"].get("fsync", 0) for s in spans if s["layer"] == layer
        ) / n_ops
    return metrics


def batch_layers(
    spans: Sequence[Mapping[str, Any]],
    main_pid: int,
    ops: Sequence[Sequence[Tuple[float, float]]],
    lanes: int,
) -> Dict[str, float]:
    """Per-pass layer metrics of a batch workload's traced passes.

    Each pass is a list of ``(start, end)`` monotonic intervals (the
    reference job runs between them); ``lanes`` is the pool width that
    ``pool.busy_frac`` divides by.
    """
    n_ops = len(ops)
    intervals = [interval for op in ops for interval in op]
    in_ops = [s for s in spans if any(_inside(s, a, b) for a, b in intervals)]
    main = [s for s in in_ops if s["pid"] == main_pid]
    workers = [s for s in in_ops if s["pid"] != main_pid]
    layer_self: Dict[str, float] = {}
    for span in main:
        layer_self[span["layer"]] = layer_self.get(span["layer"], 0.0) + span["self_s"]
    metrics = _common(layer_self, in_ops, n_ops)
    op_s = sum(b - a for a, b in intervals)
    attributed = sum(layer_self.values())
    metrics["traced.op_ms"] = 1e3 * op_s / n_ops
    metrics["unattributed_frac"] = (op_s - attributed) / op_s
    metrics["queue.self_ms"] = 0.0
    metrics["http.self_ms"] = 0.0
    roots = sum(s["duration_s"] for s in main if s["layer"] == "scenario" and s["parent"] is None)
    metrics["worker.busy_frac"] = roots / op_s
    metrics["pool.busy_frac"] = (
        sum(s["self_s"] for s in workers if s["layer"] == "kernel") / (lanes * op_s)
    )
    return metrics


def _roots(spans: Sequence[Mapping[str, Any]]) -> Dict[str, Mapping[str, Any]]:
    """Map each span id to the top-level span of its tree."""
    by_id = {span["id"]: span for span in spans}

    def root(span: Mapping[str, Any]) -> Mapping[str, Any]:
        while span["parent"] in by_id:
            span = by_id[span["parent"]]
        return span

    return {span["id"]: root(span) for span in spans}


def service_layers(
    spans: Sequence[Mapping[str, Any]],
    serve_pid: int,
    runs: Sequence[Mapping[str, Any]],
    periods: Sequence[Tuple[float, float]],
    workers: int,
) -> Dict[str, float]:
    """Per-run layer metrics of a service workload's traced segments.

    ``runs`` are the client's records of the runs that completed in the
    measuring ``periods`` (``(start, end)`` of each segment): ``id``,
    ``t_submit``, ``t_accepted``, ``t_done``, ``polls``.
    Each run's time splits into the client's submit round trip, the
    queue wait, the serve process's spans of that run, and the
    unattributed rest (mostly the poll that notices completion).
    """
    n_ops = len(runs)
    window_s = sum(b - a for a, b in periods)
    serve = [s for s in spans if s["pid"] == serve_pid]
    root_of = _roots(serve)
    by_run: Dict[str, List[Mapping[str, Any]]] = {}
    for span in serve:
        run = root_of[span["id"]]["attrs"].get("run")
        if run is not None:
            by_run.setdefault(run, []).append(span)
    layer_self: Dict[str, float] = {}
    counted: List[Mapping[str, Any]] = []
    http_self = queue_self = unattributed = total = 0.0
    waits = []
    for run in runs:
        own = by_run.get(run["id"], [])
        counted.extend(own)
        tops = [s for s in own if s["parent"] is None]
        entered = min(
            (s["start"] for s in tops if s["layer"] == "scenario"), default=run["t_done"]
        )

        def covered(start: float, end: float) -> float:
            return sum(s["duration_s"] for s in tops if _inside(s, start, end))

        submit_self = (run["t_accepted"] - run["t_submit"]) - covered(
            run["t_submit"], run["t_accepted"]
        )
        wait = entered - run["t_accepted"]
        wait_self = wait - covered(run["t_accepted"], entered)
        own_self = sum(s["self_s"] for s in own)
        for span in own:
            layer_self[span["layer"]] = layer_self.get(span["layer"], 0.0) + span["self_s"]
        elapsed = run["t_done"] - run["t_submit"]
        http_self += submit_self
        queue_self += wait_self
        unattributed += elapsed - submit_self - wait_self - own_self
        total += elapsed
        waits.append(wait)
    metrics = _common(layer_self, counted, n_ops)
    metrics["traced.op_ms"] = 1e3 * total / n_ops
    metrics["unattributed_frac"] = unattributed / total
    metrics["queue.self_ms"] = 1e3 * queue_self / n_ops
    metrics["queue.wait_ms_p50"] = 1e3 * statistics.median(waits)
    metrics["http.self_ms"] = 1e3 * http_self / n_ops
    roots = sum(
        s["duration_s"] for s in serve
        if s["layer"] == "scenario" and s["parent"] is None
        and any(_inside(s, a, b) for a, b in periods)
    )
    metrics["worker.busy_frac"] = roots / (workers * window_s)
    metrics["pool.busy_frac"] = 0.0
    return metrics


def trace_events(
    spans: Iterable[Mapping[str, Any]], origin: float
) -> List[Dict[str, Any]]:
    """Spans as ``repro-trace`` records (``repro-bench report`` reads them)."""
    events = []
    for span in sorted(spans, key=lambda s: (s["start"], s["id"])):
        attrs = dict(span["attrs"])
        attrs.update(fn=span["fn"], pid=span["pid"], self_s=span["self_s"])
        events.append({
            "type": "span",
            "name": span["layer"],
            "id": span["id"],
            "parent": span["parent"],
            "start_s": span["start"] - origin,
            "duration_s": span["duration_s"],
            "attrs": attrs,
        })
    return events


def sum_check(metrics: Mapping[str, float]) -> Dict[str, float]:
    """Layer self times plus the unattributed share against the op time.

    ``error_frac`` is the relative gap between the two sides; a negative
    ``unattributed_ms`` would mean spans were counted twice.
    """
    layers = list(WRAPPED_LAYERS) + ["queue", "http"]
    attributed = sum(metrics[f"{layer}.self_ms"] for layer in layers)
    op_ms = metrics["traced.op_ms"]
    unattributed_ms = metrics["unattributed_frac"] * op_ms
    return {
        "op_ms": op_ms,
        "attributed_ms": attributed,
        "unattributed_ms": unattributed_ms,
        "error_frac": abs(attributed + unattributed_ms - op_ms) / op_ms,
    }
