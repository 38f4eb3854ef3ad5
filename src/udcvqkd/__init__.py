"""Security analysis for unidimensional continuous-variable QKD.

The worst-case key rate for squeezed, coherent, and antisqueezed signal
states, and parameter-space sweeps of it that emit machine-readable
figure data.  Each public name is imported from its module on first use
(PEP 562), so importing the package, or all its names, loads nothing,
and numpy loads only with a region map.  The covariance-matrix oracle
the tests compare the key rate against is udcvqkd.gaussian; none of its
names are exported here.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "ConfigError", "DomainError", "NoPositiveRate", "NoRoot", "ToolkitError",
        "UnphysicalObservation", "UnphysicalState",
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
