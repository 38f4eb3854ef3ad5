"""Parameter-space sweeps: region maps, loss curves, noise frontiers.

Region maps are classified row by row with numpy over the closed-form
two-mode kernel; curves and root searches call key_rate point by point.
Everything runs on the calling thread, so output is deterministic; the
threads settings are accepted for compatibility and have no effect.
Region maps serialize to JSON and curves to CSV, schemas documented in the
README.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, NoPositiveRate, NoRoot, UnphysicalObservation
from .gaussian import PHYSICALITY_TOL
from .protocol import (
    ChannelParams,
    ProtocolParams,
    ReconciliationDirection,
    _conditional_nu,
    _g,
    _g_array,
    _physical,
    _symplectic_pair,
    _x_moments,
    key_rate,
    mutual_information,
    symmetric_vpB,
)

NOISE_CAP = 10.0
DB_CAP = 60.0


def db_to_eta(db: float) -> float:
    """Channel attenuation in dB to linear transmittance."""
    return 10.0 ** (-db / 10.0)


def eta_to_db(eta: float) -> float:
    """Linear transmittance to channel attenuation in dB."""
    return -10.0 * math.log10(eta) + 0.0


def db_grid(start: float, stop: float, step: float) -> list[float]:
    """Inclusive dB grid start, start+step, ... up to stop (within rounding)."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError("dB grid bounds and step must be finite")
    if step <= 0:
        raise ConfigError("step must be positive")
    if stop < start:
        raise ConfigError("stop must not precede start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


class RegionClass(enum.IntEnum):
    """Cell classification codes used in region maps (and their JSON files)."""

    UNPHYSICAL = 0
    PHYSICAL_INSECURE = 1
    SECURE_DR = 2
    SECURE_RR = 3
    SECURE_BOTH = 4


class RegionMode(enum.Enum):
    """What the region map's first axis scans."""

    FREE_VPB = "vpb"
    SYMMETRIC_NOISE = "eps-p"


@dataclass(frozen=True)
class SweepConfig:
    """Grid ranges, resolutions, tolerances, and convention flags.

    x ranges cover V_p_B (FREE_VPB mode) or eps_p (SYMMETRIC_NOISE mode);
    cp ranges cover the unknown p correlation.  threads is validated but
    has no effect: sweeps run on the calling thread.
    """

    x_min: float
    x_max: float
    cp_min: float
    cp_max: float
    x_points: int = 400
    cp_points: int = 400
    bisect_tol_eps: float = 1e-6
    bisect_tol_db: float = 1e-4
    strict_paper_vpb: bool = False
    threads: int = 1
    output: str | None = None

    def __post_init__(self):
        if self.x_points < 2 or self.cp_points < 2:
            raise ConfigError("grid resolutions must be at least 2")
        if not all(math.isfinite(v) for v in (self.x_min, self.x_max, self.cp_min, self.cp_max)):
            raise ConfigError("axis ranges must be finite")
        if not (self.x_max > self.x_min and self.cp_max > self.cp_min):
            raise ConfigError("axis ranges must be nonempty")
        if self.bisect_tol_eps <= 0 or self.bisect_tol_db <= 0:
            raise ConfigError("bisection tolerances must be positive")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")


@dataclass(frozen=True)
class RegionMap:
    """Classified 2-D grid: x axis (V_p_B or eps_p) by C_p axis.

    cells[i, j] is the RegionClass code at (x_axis[i], cp_axis[j]).
    """

    x_axis: np.ndarray
    cp_axis: np.ndarray
    cells: np.ndarray
    mode: RegionMode
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.x_axis) <= 0) or np.any(np.diff(self.cp_axis) <= 0):
            raise ConfigError("region axes must be strictly increasing")
        if self.cells.shape != (len(self.x_axis), len(self.cp_axis)):
            raise ConfigError("cell grid does not match the axes")


@dataclass(frozen=True)
class Curve:
    """Sampled 1-D sweep with enough metadata to be self-describing."""

    abscissa: tuple[float, ...]
    ordinate: tuple[float, ...]
    x_name: str
    y_name: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.abscissa) != len(self.ordinate):
            raise ConfigError("abscissa and ordinate lengths differ")
        if any(b <= a for a, b in zip(self.abscissa, self.abscissa[1:])):
            raise ConfigError("abscissa must be strictly increasing")


def scan_region(
    params: ProtocolParams,
    chan_x: tuple[float, float],
    grid: SweepConfig,
    mode: RegionMode,
    physicality_tol: float = PHYSICALITY_TOL,
) -> RegionMap:
    """Classify every grid cell by physicality and pointwise key-rate signs.

    chan_x is (eta_x, eps_x).  In FREE_VPB mode the first axis is Bob's
    unmodulated-quadrature variance itself; in SYMMETRIC_NOISE mode it is
    the excess noise eps_p of a channel with eta_p = eta_x, and V_p_B
    follows the symmetric-channel convention (honoring strict_paper_vpb).
    Secure cells are decided by the sign of the key rate at that exact
    (V_p_B or eps_p, C_p), with no smoothing of boundary cells.
    """
    eta_x, eps_x = chan_x
    chan = ChannelParams(eta_x=eta_x, eta_p=eta_x, eps_x=eps_x, eps_p=eps_x)
    x_axis = np.linspace(grid.x_min, grid.x_max, grid.x_points)
    cp_axis = np.linspace(grid.cp_min, grid.cp_max, grid.cp_points)

    if mode is RegionMode.FREE_VPB:
        if grid.x_min <= 0:
            raise ConfigError("V_p_B axis must be strictly positive")
        vpb_of = lambda x: x
    elif mode is RegionMode.SYMMETRIC_NOISE:
        if grid.x_min < 0:
            raise ConfigError("excess-noise axis must be nonnegative")
        vpb_of = lambda x: symmetric_vpB(params, eta_x, x, grid.strict_paper_vpb)
    else:
        raise ConfigError(f"unknown region mode {mode!r}")

    mi = mutual_information(params, chan)
    xm = _x_moments(params, eta_x, eps_x)
    s_cond_rr = _g(_conditional_nu(xm, 1.0, ReconciliationDirection.REVERSE))

    def classify_row(i: int) -> np.ndarray:
        v_p_b = float(vpb_of(x_axis[i]))
        row = np.zeros(grid.cp_points, dtype=np.int8)
        if v_p_b <= 0:
            return row
        physical = _physical(xm, cp_axis, v_p_b, physicality_tol)
        if not physical.any():
            return row
        nu_plus, nu_minus = _symplectic_pair(xm, cp_axis[physical], v_p_b)
        s_ab = _g_array(nu_plus) + _g_array(nu_minus)
        nu_dr = _conditional_nu(xm, v_p_b, ReconciliationDirection.DIRECT)
        k_dr = params.beta * mi - (s_ab - _g(nu_dr))
        k_rr = params.beta * mi - (s_ab - s_cond_rr)
        secure_dr = k_dr > 0.0
        secure_rr = k_rr > 0.0
        codes = np.where(
            secure_dr & secure_rr,
            RegionClass.SECURE_BOTH,
            np.where(
                secure_dr,
                RegionClass.SECURE_DR,
                np.where(secure_rr, RegionClass.SECURE_RR, RegionClass.PHYSICAL_INSECURE),
            ),
        )
        row[physical] = codes.astype(np.int8)
        return row

    cells = np.stack([classify_row(i) for i in range(grid.x_points)], axis=0)
    metadata = {
        "V_S": params.V_S,
        "V_M": params.V_M,
        "beta": params.beta,
        "eta_x": eta_x,
        "eps_x": eps_x,
        "mode": mode.value,
        "strict_paper_vpb": grid.strict_paper_vpb,
        "physicality_tol": physicality_tol,
    }
    return RegionMap(x_axis=x_axis, cp_axis=cp_axis, cells=cells, mode=mode, metadata=metadata)


def _worst_case_rate(
    params: ProtocolParams,
    eta: float,
    eps: float,
    direction: ReconciliationDirection,
    strict_paper_vpb: bool,
) -> float | None:
    """Worst-case key rate on a symmetric channel, None when the observed
    p variance admits no physical state (possible in strict-paper mode)."""
    chan = ChannelParams.symmetric(eta, eps)
    v_p_b = symmetric_vpB(params, eta, eps, strict_paper_vpb)
    try:
        return key_rate(params, chan, v_p_b, direction).key_rate
    except UnphysicalObservation:
        return None


def keyrate_vs_attenuation(
    params: ProtocolParams,
    eps: float,
    db_values,
    direction: ReconciliationDirection,
    strict_paper_vpb: bool = False,
    threads: int = 1,
) -> Curve:
    """Worst-case key rate along a grid of channel attenuations (dB).

    The channel is symmetric with excess noise eps in both quadratures.
    Grid points whose observed p variance admits no physical state are
    left out of the curve.  threads must be at least 1 and has no effect.
    """
    if threads < 1:
        raise ConfigError("threads must be at least 1")
    db_values = [float(v) for v in db_values]
    if any(b <= a for a, b in zip(db_values, db_values[1:])):
        raise ConfigError("dB grid must be strictly increasing")

    rates = [
        _worst_case_rate(params, db_to_eta(db), eps, direction, strict_paper_vpb)
        for db in db_values
    ]
    kept = [(db, k) for db, k in zip(db_values, rates) if k is not None]
    metadata = {
        "V_S": params.V_S,
        "V_M": params.V_M,
        "beta": params.beta,
        "eps": eps,
        "direction": direction.value,
        "strict_paper_vpb": strict_paper_vpb,
    }
    return Curve(
        abscissa=tuple(db for db, _ in kept),
        ordinate=tuple(k for _, k in kept),
        x_name="attenuation_db",
        y_name="key_rate_bits",
        metadata=metadata,
    )


def max_tolerable_noise(
    params: ProtocolParams,
    dB: float,
    direction: ReconciliationDirection,
    tol: float = 1e-6,
    strict_paper_vpb: bool = False,
) -> float:
    """Largest symmetric excess noise with a positive worst-case key rate.

    Bisection for the root of K(eps) = 0 at fixed attenuation; the upper
    bracket doubles from 0.1 up to a cap of 10 shot-noise units.

    Raises NoPositiveRate when K(0) <= 0 and NoRoot when the cap is
    reached without a sign change.
    """
    if not 0.0 < tol < math.inf:
        raise ConfigError("tolerance must be positive and finite")
    eta = db_to_eta(dB)

    def rate(eps: float) -> float | None:
        return _worst_case_rate(params, eta, eps, direction, strict_paper_vpb)

    k0 = rate(0.0)
    if k0 is None or k0 <= 0.0:
        raise NoPositiveRate(f"key rate at eps=0 is {k0!r} for {dB} dB")
    hi = 0.1
    while (k := rate(hi)) is not None and k >= 0.0:
        if hi >= NOISE_CAP:
            raise NoRoot(f"key rate still positive at eps={NOISE_CAP}")
        hi = min(hi * 2.0, NOISE_CAP)
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        k = rate(mid)
        if k is None or k < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def max_attenuation(
    params: ProtocolParams,
    eps: float,
    direction: ReconciliationDirection,
    tol: float = 1e-4,
    strict_paper_vpb: bool = False,
) -> float:
    """Attenuation (dB) at which the worst-case key rate crosses zero.

    Bisection on a symmetric channel with fixed excess noise; the upper
    bracket doubles from 0.5 dB up to a 60 dB cap.  Observations with no
    physical state (strict-paper mode) count as insecure.

    Raises NoPositiveRate when K <= 0 already at 0 dB and NoRoot when the
    rate is still positive at the cap.
    """
    if not 0.0 < tol < math.inf:
        raise ConfigError("tolerance must be positive and finite")

    def rate(db: float) -> float | None:
        return _worst_case_rate(params, db_to_eta(db), eps, direction, strict_paper_vpb)

    k0 = rate(0.0)
    if k0 is None or k0 <= 0.0:
        raise NoPositiveRate(f"key rate at 0 dB is {k0!r}")
    hi = 0.5
    while (k := rate(hi)) is not None and k >= 0.0:
        if hi >= DB_CAP:
            raise NoRoot(f"key rate still positive at {DB_CAP} dB")
        hi = min(hi * 2.0, DB_CAP)
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        k = rate(mid)
        if k is None or k < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _provenance_lines(metadata: dict) -> list[str]:
    lines = [f"# tool=udcvqkd {__version__}"]
    for key in sorted(metadata):
        lines.append(f"# {key}={_fmt(metadata[key])}")
    return lines


def curve_to_csv(curve: Curve) -> str:
    """CSV text: provenance header comments, column header, one row per point.

    Comma separator, decimal point, 12 significant digits.
    """
    lines = _provenance_lines(curve.metadata)
    lines.append(f"{curve.x_name},{curve.y_name}")
    for x, y in zip(curve.abscissa, curve.ordinate):
        lines.append(f"{_fmt(float(x))},{_fmt(float(y))}")
    return "\n".join(lines) + "\n"


def write_curve_csv(curve: Curve, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(curve_to_csv(curve))


def curve_to_json(curve: Curve) -> str:
    obj = {
        "tool": f"udcvqkd {__version__}",
        "metadata": curve.metadata,
        "x_name": curve.x_name,
        "y_name": curve.y_name,
        "abscissa": list(curve.abscissa),
        "ordinate": list(curve.ordinate),
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_curve_json(curve: Curve, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(curve_to_json(curve))


def region_to_json(region: RegionMap) -> str:
    """JSON text: axes arrays plus row-major cell codes 0-4.

    cells[i][j] classifies (x_axis[i], cp_axis[j]); the legend maps codes
    to names.
    """
    obj = {
        "tool": f"udcvqkd {__version__}",
        "mode": region.mode.value,
        "metadata": region.metadata,
        "x_axis": [float(v) for v in region.x_axis],
        "cp_axis": [float(v) for v in region.cp_axis],
        "legend": {str(int(c)): c.name.lower() for c in RegionClass},
        "cells": region.cells.astype(int).tolist(),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_region_json(region: RegionMap, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(region_to_json(region))
