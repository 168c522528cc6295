"""The compressive correlation kernel (paper Eq. 2).

Given the received signal-strength vector over the probed sectors and
the expected per-direction pattern vectors, the correlation map is::

    W(φ, θ) = ⟨ p/‖p‖ , x(φ,θ)/‖x(φ,θ)‖ ⟩²

Correlation is computed in the **linear power domain** by default:
signal strengths in dB shift additively with link distance, which would
break the scale-invariant normalized inner product, whereas in linear
power the shift becomes a pure scale that normalization removes.  The
dB domain remains available for the ablation study.

Two callers share one arithmetic core (:func:`_correlate_core`):
:func:`correlation_map`, the public reference helper, which transforms
probes and patterns on every call, and the selection kernel
(:meth:`repro.core.estimator.AngleEstimator.estimate_fused_arrays`),
which converts the fixed pattern matrix once at construction and
correlates every row of a padded batch against it.  The domain
transform is elementwise (transform-then-gather equals
gather-then-transform), so both produce the same bits.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "to_linear_power",
    "normalize_rows",
    "correlation_map",
]

_EPSILON = 1e-12

_DOMAINS = ("linear", "db")


def to_linear_power(values_db: np.ndarray) -> np.ndarray:
    """Convert dB values to linear power.

    Inputs are clamped to ±200 dB — far beyond any physical signal —
    so that corrupted readings cannot overflow the float range.
    ``minimum(maximum(x, lo), hi)`` is elementwise identical to
    ``np.clip`` (NaN propagates through both) without the dispatch
    overhead, which matters for the per-probe-vector calls on the hot
    selection path.
    """
    values = np.asarray(values_db, dtype=float)
    clamped = np.minimum(np.maximum(values, -200.0), 200.0)
    return 10.0 ** (clamped / 10.0)


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Scale each row of a matrix to unit Euclidean norm."""
    matrix = np.asarray(matrix, dtype=float)
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    return matrix / np.maximum(norms, _EPSILON)


def _check_domain(domain: str) -> None:
    if domain not in _DOMAINS:
        raise ValueError("domain must be 'linear' or 'db'")


def _to_domain(values_db: np.ndarray, domain: str) -> np.ndarray:
    """Elementwise transform into the correlation domain."""
    if domain == "linear":
        return to_linear_power(values_db)
    return np.asarray(values_db, dtype=float)


def _unit_columns(patterns: np.ndarray) -> np.ndarray:
    """Normalize each grid point's pattern vector (a column) to unit norm.

    ``sqrt(add.reduce(x*x, axis=0))`` is exactly what
    ``np.linalg.norm(x, axis=0)`` computes for real input; calling the
    ufuncs directly skips the wrapper overhead that dominates the
    per-trial batch loop.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        column_norms = np.sqrt(np.add.reduce(patterns * patterns, axis=0))
        return patterns / np.maximum(column_norms, _EPSILON)


def _correlate_core(probes: np.ndarray, pattern_unit: np.ndarray) -> np.ndarray:
    """Eq. 2 on domain-transformed probes and unit-column patterns.

    ``sqrt(x.dot(x))`` is ``np.linalg.norm``'s own 1-D real-input
    branch, inlined for the same reason as in :func:`_unit_columns`.
    No ``np.errstate`` guard of its own: NaN-padded or zero-norm
    operands propagate NaN by design, and callers enter one guard
    around their whole loop (the guard only masks warnings — it never
    changes a computed value).
    """
    probe_unit = probes / max(np.sqrt(probes.dot(probes)), _EPSILON)
    correlation = probe_unit @ pattern_unit
    return correlation**2


def correlation_map(
    probe_values_db: np.ndarray,
    pattern_matrix_db: np.ndarray,
    domain: str = "linear",
) -> np.ndarray:
    """Eq. 2 evaluated on every grid point at once.

    Args:
        probe_values_db: received signal strengths, shape ``(M,)`` — one
            per probed sector that produced a report.
        pattern_matrix_db: expected patterns of those same sectors on
            the search grid, shape ``(M, K)``.
        domain: ``"linear"`` (default, offset-invariant) or ``"db"``.

    Returns:
        Correlation ``W`` per grid point, shape ``(K,)``, in ``[0, 1]``.
    """
    probes = np.asarray(probe_values_db, dtype=float)
    patterns = np.asarray(pattern_matrix_db, dtype=float)
    if probes.ndim != 1:
        raise ValueError("probe values must be a 1-D vector")
    if patterns.ndim != 2 or patterns.shape[0] != probes.size:
        raise ValueError(
            f"pattern matrix shape {patterns.shape} does not match "
            f"{probes.size} probe values"
        )
    _check_domain(domain)
    with np.errstate(invalid="ignore", divide="ignore"):
        return _correlate_core(
            _to_domain(probes, domain), _unit_columns(_to_domain(patterns, domain))
        )
