"""Lifshitz-theory Casimir pressure with spatially dispersive metals.

Response models live in :mod:`nlcasimir.response`, reflection amplitudes
in :mod:`nlcasimir.reflection`, the pressure engine in
:mod:`nlcasimir.lifshitz`, sphere-plate conversion in
:mod:`nlcasimir.sphere_plate`, causality verification in
:mod:`nlcasimir.kramers_kronig`, and tabulated-data handling in
:mod:`nlcasimir.optical_data`.
"""

from .constants import CONSTANTS, MatsubaraPoint, matsubara_xi, pressure_to_pascal
from .errors import (ConvergenceError, DomainError, ParseError,
                     UnsupportedOperationError)
from .kramers_kronig import (RELATIONS, KKReport, PVSettings, pv_integral,
                             verify_kk)
from .lifshitz import (PressureQuery, PressureResult, casimir_pressure,
                       casimir_pressures, classical_limit_pressure,
                       ideal_metal_pressure_zero_t)
from .optical_data import (CoreTable, InterbandImEps, OpticalTable,
                           build_core_table, core_imag_axis, drude_im_eps,
                           interband_im_eps, parse_optical_table)
from .reflection import (ImpedancePair, ReflectanceDeviation, ReflectionPair,
                         coeffs_from_impedance, fresnel, impedance_closed,
                         impedance_numeric, nonlocal_coeffs, real_axis_coeffs,
                         reflectance_deviation, reflection_pair, zero_freq_limit)
from .response import (Drude, DrudeParams, EpsPair, NonlocalAlt,
                       NonlocalParams, PerfectReflector, Plasma, PRESETS,
                       ResponseModel, WithCore, eval_imag_axis,
                       eval_real_axis, gold_default,
                       static_transverse_conductivity)
from .sphere_plate import SpherePlateConfig, force_gradient, parse_experiment_csv

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS", "MatsubaraPoint", "matsubara_xi", "pressure_to_pascal",
    "ConvergenceError", "DomainError", "ParseError", "UnsupportedOperationError",
    "RELATIONS", "KKReport", "PVSettings", "pv_integral", "verify_kk",
    "PressureQuery", "PressureResult", "casimir_pressure",
    "casimir_pressures", "classical_limit_pressure",
    "ideal_metal_pressure_zero_t",
    "CoreTable", "InterbandImEps", "OpticalTable", "build_core_table",
    "core_imag_axis", "drude_im_eps", "interband_im_eps", "parse_optical_table",
    "ImpedancePair", "ReflectanceDeviation", "ReflectionPair",
    "coeffs_from_impedance", "fresnel", "impedance_closed", "impedance_numeric",
    "nonlocal_coeffs", "real_axis_coeffs", "reflectance_deviation",
    "reflection_pair", "zero_freq_limit",
    "Drude", "DrudeParams", "EpsPair", "NonlocalAlt", "NonlocalParams",
    "PerfectReflector", "Plasma", "PRESETS", "ResponseModel", "WithCore",
    "eval_imag_axis", "eval_real_axis", "gold_default",
    "static_transverse_conductivity",
    "SpherePlateConfig", "force_gradient", "parse_experiment_csv",
    "__version__",
]
