"""Parameter-space sweeps: region maps, loss curves, noise frontiers.

Region maps take each row's run of physical C_p cells from the parabola
that physicality_interval and key_rate use, by two binary searches on the
C_p axis, then run the closed-form two-mode kernel, broadcast, over the
box around the runs of each block of REGION_BLOCK_ROWS rows, and write
cell codes to JSON two bytes at a time; curves and root searches call
key_rate point by point, the root searches by regula falsi through the
bracketing helper that the worst-case C_p search uses.
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
from .protocol import (
    LOG2E,
    VERTEX_SLACK,
    ChannelParams,
    ProtocolParams,
    ReconciliationDirection,
    _bracket_sign_change,
    _conditional_nu,
    _g,
    _parabola,
    _symplectic_pair,
    _x_moments,
    key_rate,
    mutual_information,
    symmetric_vpB,
)

NOISE_CAP = 10.0
DB_CAP = 60.0
# Region maps are classified this many rows at a time: one numpy pass per
# block instead of per row, with temporaries that stay small at any grid size.
REGION_BLOCK_ROWS = 32


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
    strict_paper_vpb: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.x_points < 2 or self.cp_points < 2:
            raise ConfigError("grid resolutions must be at least 2")
        if not all(math.isfinite(v) for v in (self.x_min, self.x_max, self.cp_min, self.cp_max)):
            raise ConfigError("axis ranges must be finite")
        if not (self.x_max > self.x_min and self.cp_max > self.cp_min):
            raise ConfigError("axis ranges must be nonempty")
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
        if self.cells.size and not 0 <= self.cells.min() <= self.cells.max() <= max(RegionClass):
            raise ConfigError("cells must hold RegionClass codes")


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


def _g_array(nu: np.ndarray) -> np.ndarray:
    """protocol._g over a numpy array; nu <= 1 or NaN gives 0, without warnings."""
    m = 0.5 * (nu - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(m > 0.0, (np.log1p(m) + m * np.log1p(1.0 / m)) * LOG2E, 0.0)


def scan_region(
    params: ProtocolParams,
    chan_x: tuple[float, float],
    grid: SweepConfig,
    mode: RegionMode,
) -> RegionMap:
    """Classify every grid cell by physicality and pointwise key-rate signs.

    chan_x is (eta_x, eps_x).  In FREE_VPB mode the first axis is Bob's
    unmodulated-quadrature variance itself; in SYMMETRIC_NOISE mode it is
    the excess noise eps_p of a channel with eta_p = eta_x, and V_p_B
    follows the symmetric-channel convention (honoring strict_paper_vpb).
    A cell is physical exactly when its C_p lies in
    physicality_interval(params, chan, V_p_B) for its row, the definition
    key_rate uses.  Secure cells are decided by the sign of the key rate at
    that exact (V_p_B or eps_p, C_p), with no smoothing of boundary cells.
    """
    eta_x, eps_x = chan_x
    chan = ChannelParams(eta_x=eta_x, eta_p=eta_x, eps_x=eps_x, eps_p=eps_x)
    x_axis = np.linspace(grid.x_min, grid.x_max, grid.x_points)
    cp_axis = np.linspace(grid.cp_min, grid.cp_max, grid.cp_points)

    if mode is RegionMode.FREE_VPB:
        if grid.x_min <= 0:
            raise ConfigError("V_p_B axis must be strictly positive")
        vpb_of = float
    elif mode is RegionMode.SYMMETRIC_NOISE:
        if grid.x_min < 0:
            raise ConfigError("excess-noise axis must be nonnegative")
        vpb_of = lambda x: symmetric_vpB(params, eta_x, x, grid.strict_paper_vpb)
    else:
        raise ConfigError(f"unknown region mode {mode!r}")

    key_mi = params.beta * mutual_information(params, chan)
    xm = _x_moments(params, eta_x, eps_x)
    s_cond_rr = _g(_conditional_nu(xm, 1.0, ReconciliationDirection.REVERSE))
    vpb_rows = np.array([vpb_of(x) for x in x_axis.tolist()])
    # _conditional_nu's DIRECT sqrt(b V_p_B) in one pass; _g stays scalar,
    # as np.log1p need not round like math.log1p.
    s_cond_dr = np.array([_g(nu) for nu in np.sqrt(xm.b * vpb_rows).tolist()])
    # physicality_interval for every row at once, as columns [first, stop)
    v0, c0, coeff = _parabola(xm, params, chan)
    dv = vpb_rows - v0
    half = np.sqrt(max(coeff, 0.0) * np.maximum(dv, 0.0))
    first = np.searchsorted(cp_axis, c0 - half, "left")
    stop = np.searchsorted(cp_axis, c0 + half, "right")
    stop[dv < -VERTEX_SLACK * max(1.0, abs(v0))] = 0
    col = np.arange(grid.cp_points)

    cells = np.zeros((grid.x_points, grid.cp_points), dtype=np.int8)
    for start in range(0, grid.x_points, REGION_BLOCK_ROWS):
        rows = slice(start, start + REGION_BLOCK_ROWS)
        occupied = stop[rows] > first[rows]
        if not occupied.any():
            continue
        # the box around the block's runs; its cells past a run can be
        # unphysical (sqrt of a negative det, nu_plus = 0) and are masked
        box = slice(first[rows][occupied].min(), stop[rows][occupied].max())
        with np.errstate(divide="ignore", invalid="ignore"):
            nu_plus, nu_minus = _symplectic_pair(xm, cp_axis[box], vpb_rows[rows, None])
        s_ab = _g_array(nu_plus) + _g_array(nu_minus)
        secure_dr = key_mi - (s_ab - s_cond_dr[rows, None]) > 0.0
        secure_rr = key_mi - (s_ab - s_cond_rr) > 0.0
        inside = (first[rows, None] <= col[box]) & (col[box] < stop[rows, None])
        # PHYSICAL_INSECURE, SECURE_DR, SECURE_RR, SECURE_BOTH are 1 + dr + 2 rr
        cells[rows, box] = inside * (1 + secure_dr + 2 * secure_rr)

    metadata = {
        "V_S": params.V_S,
        "V_M": params.V_M,
        "beta": params.beta,
        "eta_x": eta_x,
        "eps_x": eps_x,
        "mode": mode.value,
        "strict_paper_vpb": grid.strict_paper_vpb,
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


def _zero_crossing(rate, first: float, cap: float, tol: float, label) -> float:
    """A zero crossing of rate(x) on [0, cap], by regula falsi.

    rate returns None for observations with no physical state, which count
    as negative (-inf to the search); label(x) names the point x in error
    messages.  The upper bracket doubles from first up to cap, and the
    last probe with a positive rate is the lower end.  _bracket_sign_change
    then closes the bracket until it is at most tol wide, or until its
    ends are adjacent floats (a tol below their spacing).  Returns its
    midpoint.

    Raises NoPositiveRate when rate(0) <= 0 and NoRoot when rate(cap) is
    still nonnegative.
    """
    if not 0.0 < tol < math.inf:
        raise ConfigError("tolerance must be positive and finite")

    def signed(x: float) -> float:
        k = rate(x)
        return -math.inf if k is None else k

    k0 = rate(0.0)
    if k0 is None or k0 <= 0.0:
        raise NoPositiveRate(f"key rate at {label(0.0)} is {k0!r}")
    lo, k_lo = 0.0, k0
    hi = first
    while (k := signed(hi)) >= 0.0:
        if hi >= cap:
            raise NoRoot(f"key rate still positive at {label(cap)}")
        if k > 0.0:
            lo, k_lo = hi, k
        hi = min(hi * 2.0, cap)
    lo, hi = _bracket_sign_change(signed, lo, k_lo, hi, k, tol)
    return 0.5 * (lo + hi)


def max_tolerable_noise(
    params: ProtocolParams,
    dB: float,
    direction: ReconciliationDirection,
    tol: float = 1e-6,
    strict_paper_vpb: bool = False,
) -> float:
    """Largest symmetric excess noise with a positive worst-case key rate.

    Regula falsi (_zero_crossing) for the root of K(eps) = 0 at fixed
    attenuation; the upper bracket doubles from 0.1 up to a cap of 10
    shot-noise units.  The result lies within tol of the crossing.

    Raises NoPositiveRate when K(0) <= 0 and NoRoot when the cap is
    reached without a sign change.
    """
    eta = db_to_eta(dB)

    def rate(eps: float) -> float | None:
        return _worst_case_rate(params, eta, eps, direction, strict_paper_vpb)

    return _zero_crossing(rate, 0.1, NOISE_CAP, tol, lambda eps: f"eps={eps} for {dB} dB")


def max_attenuation(
    params: ProtocolParams,
    eps: float,
    direction: ReconciliationDirection,
    tol: float = 1e-4,
    strict_paper_vpb: bool = False,
) -> float:
    """Attenuation (dB) at which the worst-case key rate crosses zero.

    Regula falsi (_zero_crossing) on a symmetric channel with fixed excess
    noise; the upper bracket doubles from 0.5 dB up to a 60 dB cap, and
    the result lies within tol of the crossing.  Observations with no
    physical state (strict-paper mode) count as insecure.

    Raises NoPositiveRate when K <= 0 already at 0 dB and NoRoot when the
    rate is still positive at the cap.
    """

    def rate(db: float) -> float | None:
        return _worst_case_rate(params, db_to_eta(db), eps, direction, strict_paper_vpb)

    return _zero_crossing(rate, 0.5, DB_CAP, tol, lambda db: f"{db} dB")


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
        "x_axis": region.x_axis.tolist(),
        "cp_axis": region.cp_axis.tolist(),
        "legend": {str(int(c)): c.name.lower() for c in RegionClass},
    }
    # "cells" sorts first among the keys, so its text goes right after "{".
    rest = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return "".join(('{"cells":[', _cells_json(region.cells), ",", rest[1:], "\n"))


def _cells_json(cells: np.ndarray) -> str:
    """Compact JSON of a grid of single-digit codes but for its opening "[",
    built two bytes at a time: each row is the words "[d", ",d", ..., ",d",
    "],", and the last row ends in "]]", which closes the grid."""
    rows, cols = cells.shape
    words = np.empty((rows, cols + 1), dtype="<u2")
    words[:, :cols] = (cells.astype("<u2") << 8) + (ord(",") | ord("0") << 8)
    words[:, 0] += ord("[") - ord(",")
    words[:, cols] = ord("]") | ord(",") << 8
    words[-1, cols] = ord("]") | ord("]") << 8
    return str(memoryview(words), "ascii")


def write_region_json(region: RegionMap, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(region_to_json(region))
