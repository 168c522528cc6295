"""Name → factory registries for policies and scenarios.

The registry is what makes specs *resolvable*: a
:class:`~.spec.PolicySpec` names a policy factory, a
:class:`~.spec.ScenarioSpec` names a scenario executor, and both sides
are plain dict lookups so a new policy or workload is one
``@register_policy`` / ``@register_scenario`` away — no edits to any
``experiments/`` module (the acceptance test registers a toy policy
exactly this way).

Registration contract:

* A **policy factory** has signature ``factory(context, **kwargs)``
  where ``context`` is a :class:`~.policy.PolicyContext` and
  ``kwargs`` are the spec's JSON kwargs.  It returns an object
  satisfying :class:`~.policy.SelectionPolicy`.
* A **scenario executor** has signature ``executor(spec, runner)`` and
  returns the experiment's result object.  ``default_spec`` (optional)
  builds the canonical spec for ``repro-bench run <name>``.

A third registry covers **probe designers** (the DESIGN.md §13 stage):
a ``probe_design`` block on a :class:`~.spec.PolicySpec` names a
designer factory with signature ``factory(pattern_table, **params)``
returning a :class:`~repro.core.probes.ProbeDesigner`.

Built-in registrations live next to the code they adapt
(``core/policy.py``, ``baselines/policy.py``, the experiment modules)
and are imported lazily by :func:`load_builtin` to keep import cycles
out of the package graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from .policy import PolicyContext
from .spec import PolicySpec, ScenarioSpec

__all__ = [
    "ScenarioEntry",
    "register_policy",
    "register_scenario",
    "register_probe_designer",
    "build_policy",
    "build_probe_designer",
    "get_scenario",
    "scenario_spec",
    "available_policies",
    "available_scenarios",
    "available_probe_designers",
    "load_builtin",
]

PolicyFactory = Callable[..., Any]
DesignerFactory = Callable[..., Any]

_POLICIES: Dict[str, PolicyFactory] = {}
_SCENARIOS: Dict[str, "ScenarioEntry"] = {}
_PROBE_DESIGNERS: Dict[str, DesignerFactory] = {}
_BUILTIN_LOADED = False


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario."""

    name: str
    executor: Callable[[ScenarioSpec, Any], Any]
    default_spec: Optional[Callable[[], ScenarioSpec]] = None
    description: str = ""


def register_policy(name: str) -> Callable[[PolicyFactory], PolicyFactory]:
    """Register a policy factory under ``name`` (decorator)."""

    def decorator(factory: PolicyFactory) -> PolicyFactory:
        _POLICIES[name] = factory
        return factory

    return decorator


def register_scenario(
    name: str,
    default_spec: Optional[Callable[[], ScenarioSpec]] = None,
    description: str = "",
) -> Callable[[Callable], Callable]:
    """Register a scenario executor under ``name`` (decorator)."""

    def decorator(executor: Callable) -> Callable:
        summary = description
        if not summary and executor.__doc__:
            summary = executor.__doc__.strip().splitlines()[0]
        _SCENARIOS[name] = ScenarioEntry(
            name=name,
            executor=executor,
            default_spec=default_spec,
            description=summary,
        )
        return executor

    return decorator


def register_probe_designer(
    name: str,
) -> Callable[[DesignerFactory], DesignerFactory]:
    """Register a probe-designer factory under ``name`` (decorator)."""

    def decorator(factory: DesignerFactory) -> DesignerFactory:
        _PROBE_DESIGNERS[name] = factory
        return factory

    return decorator


def build_policy(spec: PolicySpec, context: PolicyContext, **extra: Any):
    """Resolve a policy spec to a live policy instance.

    A spec carrying a ``probe_design`` block forwards it as the
    ``probe_design`` kwarg — factories that do not take the stage
    (e.g. ``full-sweep``) reject it with the usual ``TypeError``.
    ``extra`` kwargs reach the factory without being part of the spec
    (a pool worker's kernel reader).
    """
    load_builtin()
    factory = _POLICIES.get(spec.name)
    if factory is None:
        raise KeyError(
            f"unknown policy '{spec.name}'; registered: {available_policies()}"
        )
    kwargs = dict(spec.kwargs)
    if spec.probe_design is not None:
        kwargs["probe_design"] = dict(spec.probe_design)
    return factory(context, **kwargs, **extra)


def build_probe_designer(
    design: Union[str, Mapping[str, Any]], pattern_table
):
    """Resolve a ``probe_design`` block (or bare name) to a designer.

    ``design`` is either a registry name or a mapping
    ``{"designer": name, "params": {...}}`` — the canonical JSON form a
    :class:`~.spec.PolicySpec` carries.
    """
    load_builtin()
    if isinstance(design, str):
        name, params = design, {}
    else:
        data = dict(design)
        try:
            name = str(data.pop("designer"))
        except KeyError:
            raise ValueError(
                "a probe_design block must carry a 'designer' name"
            ) from None
        params = dict(data.pop("params", {}))
        if data:
            raise ValueError(
                f"unknown probe_design keys: {sorted(data)} "
                "(expected 'designer' and optional 'params')"
            )
    factory = _PROBE_DESIGNERS.get(name)
    if factory is None:
        raise KeyError(
            f"unknown probe designer '{name}'; "
            f"registered: {available_probe_designers()}"
        )
    return factory(pattern_table, **params)


def get_scenario(name: str) -> ScenarioEntry:
    """Look up a registered scenario by name."""
    load_builtin()
    entry = _SCENARIOS.get(name)
    if entry is None:
        raise KeyError(
            f"unknown scenario '{name}'; registered: {available_scenarios()}"
        )
    return entry


def scenario_spec(name: str) -> ScenarioSpec:
    """The canonical (default-config) spec of a named scenario."""
    entry = get_scenario(name)
    if entry.default_spec is None:
        raise KeyError(f"scenario '{name}' has no default spec; provide a JSON file")
    return entry.default_spec()


def available_policies() -> List[str]:
    load_builtin()
    return sorted(_POLICIES)


def available_scenarios() -> List[str]:
    load_builtin()
    return sorted(_SCENARIOS)


def available_probe_designers() -> List[str]:
    load_builtin()
    return sorted(_PROBE_DESIGNERS)


def load_builtin() -> None:
    """Import the modules that carry built-in registrations (idempotent)."""
    global _BUILTIN_LOADED
    if _BUILTIN_LOADED:
        return
    _BUILTIN_LOADED = True
    # Policies adapt code in core/ and baselines/; scenarios live in the
    # experiment modules and runtime/scenarios.py.  Imported here (not at
    # module top) so runtime <-> experiments never cycle at import time.
    from ..core import policy as _core_policy  # noqa: F401
    from ..baselines import policy as _baseline_policy  # noqa: F401
    from .. import experiments as _experiments  # noqa: F401
    from . import scenarios as _scenarios  # noqa: F401
