"""Security analysis for unidimensional continuous-variable QKD.

The worst-case key rate for squeezed, coherent, and antisqueezed signal
states, parameter-space sweeps of it that emit machine-readable figure
data, and the covariance-matrix oracle the tests compare it against.
Each public name is imported from its module on first use (PEP 562), so
importing the package loads nothing, and numpy loads only with the
covariance-matrix oracle or a region map.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "ConfigError", "DomainError", "NoPositiveRate", "NoRoot", "NonPositiveDefinite",
        "NumericalDegeneracy", "SingularConditioning", "ToolkitError",
        "UnphysicalObservation", "UnphysicalState",
    ),
    "gaussian": (
        "CovMatrix", "Quadrature", "QuadratureSelector", "apply_channel", "build_eb_state",
        "condition_on_homodyne", "is_physical", "symplectic_eigenvalues", "symplectic_form",
        "von_neumann_entropy",
    ),
    "protocol": (
        "ChannelParams", "ProtocolParams", "ReconciliationDirection", "SecurityAssessment",
        "asymptotic_key_rate_dr", "asymptotic_key_rate_rr", "entropy_g", "holevo_bound",
        "key_rate", "mutual_information", "physicality_interval", "physicality_parabola",
        "symmetric_vpB",
    ),
    "sweeps": (
        "Curve", "RegionClass", "RegionMap", "RegionMode", "SweepConfig", "curve_to_csv",
        "curve_to_json", "db_grid", "db_to_eta", "eta_to_db", "keyrate_vs_attenuation",
        "max_attenuation", "max_tolerable_noise", "noise_frontier", "region_to_json",
        "scan_region", "write_curve_csv", "write_region_json",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
