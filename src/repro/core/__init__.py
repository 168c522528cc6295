"""The paper's contribution: compressive sector selection and friends."""

from .adaptive import AdaptiveProbeController
from .compressive import CompressiveSectorSelector
from .correlation import correlation_map, normalize_rows, to_linear_power
from .estimator import AngleEstimate, AngleEstimator
from .measurements import ProbeMeasurement, from_sweep_reports
from .oob import OutOfBandPrior, PriorAidedEstimator
from .paths import MultipathSelector, PathEstimate, extract_paths
from .refinement import BeamRefiner, RefinementResult, RefinementStep
from .probes import GainDiverseDesigner, ProbeDesigner, RandomProbeDesigner
from .selector import SectorSelector, SectorSweepSelector, SelectionResult
from .tracking import MeasureFn, SectorTracker, TrackStep

__all__ = [
    "AdaptiveProbeController",
    "CompressiveSectorSelector",
    "correlation_map",
    "normalize_rows",
    "to_linear_power",
    "AngleEstimate",
    "AngleEstimator",
    "ProbeMeasurement",
    "from_sweep_reports",
    "MultipathSelector",
    "PathEstimate",
    "extract_paths",
    "OutOfBandPrior",
    "PriorAidedEstimator",
    "BeamRefiner",
    "RefinementResult",
    "RefinementStep",
    "GainDiverseDesigner",
    "ProbeDesigner",
    "RandomProbeDesigner",
    "SectorSelector",
    "SectorSweepSelector",
    "SelectionResult",
    "MeasureFn",
    "SectorTracker",
    "TrackStep",
]
