"""Order-by-order parameterization of invariant manifolds attached to
parabolic invariant tori, with numerical validation helpers."""

from paratori.errors import (BoundViolated, CNotInvertible, ConfigError,
                             ContractViolated, DimensionMismatch, Diverged,
                             EnergyBelowThreshold, FlowLeftSector,
                             HypothesisViolated, NonPositiveLeadingCoefficient,
                             NonZeroAverage,
                             ParatoriError, SingularSystem,
                             SmallDivisorUnderflow, StructureViolation,
                             TailNotConverged, TruncationTooLow,
                             ZeroLeadingCoefficient)
from paratori.fourier import (FourierSeries, diophantine_margin, reciprocal,
                              solve_sd_flow, solve_sd_map)
from paratori.jets import TFJet, UPoly
from paratori.mapdata import (NormalizationRecord, TaylorFourierMap, XYPoly,
                              reduce_general_field, reduce_general_map,
                              validate_shear_field)
from paratori.pairs import (ManifoldPair, ResidualReport, compare_pairs,
                            residual_report)
from paratori.map_solver import default_trunc, solve_to_order
from paratori.flow_solver import solve_flow_to_order, solve_helicoure
from paratori.operators import (Sector, contraction_probe, flow_inverse,
                                flow_inverse_norm_limit, flow_orbit_integral,
                                map_inverse_norm_limit, orbit_sum_inverse,
                                sector_iterate_check)
from paratori.applications import (HeCuParams, OscillatorParams,
                                   build_hecu_field, build_oscillator_field,
                                   hecu_manifolds)

__version__ = "0.1.0"

__all__ = [
    "BoundViolated", "CNotInvertible", "ConfigError", "ContractViolated",
    "DimensionMismatch", "Diverged", "EnergyBelowThreshold", "FlowLeftSector",
    "HypothesisViolated",
    "NonPositiveLeadingCoefficient", "NonZeroAverage", "ParatoriError",
    "SingularSystem", "SmallDivisorUnderflow", "StructureViolation",
    "TailNotConverged", "TruncationTooLow", "ZeroLeadingCoefficient",
    "FourierSeries", "diophantine_margin", "reciprocal", "solve_sd_flow",
    "solve_sd_map",
    "TFJet", "UPoly",
    "NormalizationRecord", "TaylorFourierMap", "XYPoly",
    "reduce_general_field", "reduce_general_map", "validate_shear_field",
    "ManifoldPair", "ResidualReport", "compare_pairs", "residual_report",
    "default_trunc", "solve_to_order",
    "solve_flow_to_order", "solve_helicoure",
    "Sector", "contraction_probe", "flow_inverse", "flow_inverse_norm_limit",
    "flow_orbit_integral", "map_inverse_norm_limit", "orbit_sum_inverse",
    "sector_iterate_check",
    "HeCuParams", "OscillatorParams", "build_hecu_field",
    "build_oscillator_field", "hecu_manifolds",
]
