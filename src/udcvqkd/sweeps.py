"""Parameter-space sweeps: region maps, loss curves, noise frontiers.

Region maps take each row's run of physical C_p cells, and the Holevo
bounds of the cells they classify, from protocol._map_rows, which uses the
parabola that physicality_interval and key_rate use and key_rate's
closed-form two-mode kernel.  That kernel runs in two passes over flat
arrays of cells: a coarse pass classifies every REGION_STRIDE-th
cell of each run and its last cell, and a refine pass only the cells
between two samples whose class the concavity of S_AB in C_p leaves open:
a chord bounds it from below and the neighbouring secants' lines from
above.  The other cells take their samples' class.  Cells are classified
as int8 codes, and the JSON text is written into one byte buffer, cell
codes two bytes at a time.  Curves
call key_rate's core, protocol._key_rate, point by point.  Root searches
probe it by regula falsi (_bracket_sign_change, beside _zero_crossing,
its one caller), and each probe's C_p search starts at the place of the
last probe's worst case.
Everything runs on the calling thread, so output is deterministic.  Only
the region-map code imports numpy, inside its functions, so curves and
roots run without loading it.  Region maps serialize to JSON and curves
to CSV, schemas documented in the README.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConfigError, DomainError, NoPositiveRate, NoRoot
from .protocol import (
    ChannelParams,
    ProtocolParams,
    ReconciliationDirection,
    _key_rate,
    _map_rows,
    _vpb,
    key_rate,  # not called here: perfbench's tracer wraps sweeps.key_rate by name
    mutual_information,
)

if TYPE_CHECKING:
    import numpy as np

_TOOL = f"udcvqkd {__version__}"
NOISE_CAP = 10.0
DB_CAP = 60.0
DB_GRID_CAP = 10**6  # db_grid's most points; a figure grid has up to 151
# SweepConfig's most cells: a 10 000 x 10 000 map, 100 MB of cells and
# 200 MB of JSON; a figure map has 160 000
REGION_CELL_CAP = 10**8
# SweepConfig's most points on either axis: scan_region keeps about 113
# bytes per row, 11 MB at the cap, and region_to_json writes each axis as
# a list of floats
REGION_AXIS_CAP = 10**5
# Region maps sample each row's run of physical cells every REGION_STRIDE
# cells.  Between two samples whose classes differ, that border the row's
# largest joint entropy, or one of which lies within REGION_MARGIN bits of
# a key-rate threshold, the kernel runs only at the cells that the chord
# and the neighbouring secants do not settle by REGION_MARGIN
# (scan_region), a few per interval, so samples can be this sparse: of
# strides 16, 20, 24 and 32, 20 and 24 scanned the figure maps fastest.
REGION_STRIDE = 24
REGION_MARGIN = 1e-9
# Cells per block of whole rows: one block on a 400x400 map, and each
# kernel pass over a block takes at most its cells, so temporaries stay
# bounded at any grid size.  A row holds at most REGION_AXIS_CAP cells,
# fewer than this, so a block of one row, taken where a row holds more,
# happens only when a test shrinks this size.
REGION_BLOCK_CELLS = 1 << 18


def db_to_eta(db: float) -> float:
    """Channel attenuation in dB to linear transmittance."""
    return 10.0 ** (-db / 10.0)


def eta_to_db(eta: float) -> float:
    """Linear transmittance to channel attenuation in dB.

    Raises DomainError unless eta is positive.
    """
    if not eta > 0.0:
        raise DomainError(f"transmittance must be positive, got {eta!r}")
    return -10.0 * math.log10(eta) + 0.0


def db_grid(start: float, stop: float, step: float) -> list[float]:
    """Inclusive dB grid start, start+step, ... up to stop (within rounding)."""
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError("dB grid bounds and step must be finite")
    if step <= 0:
        raise ConfigError("step must be positive")
    if stop < start:
        raise ConfigError("stop must not precede start")
    steps = (stop - start) / step + 1e-9
    if not steps < DB_GRID_CAP:
        raise ConfigError(f"dB grid must hold at most {DB_GRID_CAP} points")
    return [start + i * step for i in range(int(steps) + 1)]


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
    """Region-map grid: axis ranges and resolutions.

    x ranges cover V_p_B (FREE_VPB mode) or eps_p (SYMMETRIC_NOISE mode);
    cp ranges cover the unknown p correlation.  A grid holds at most
    REGION_CELL_CAP cells and REGION_AXIS_CAP points on either axis, so a
    larger one is refused before scan_region allocates it.  threads has
    no effect, as sweeps run on the calling thread; it stays, validated,
    only because perfbench/workloads.py still passes it.
    """

    x_min: float
    x_max: float
    cp_min: float
    cp_max: float
    x_points: int = 400
    cp_points: int = 400
    threads: int = 1

    def __post_init__(self):
        if self.x_points < 2 or self.cp_points < 2:
            raise ConfigError("grid resolutions must be at least 2")
        if self.x_points * self.cp_points > REGION_CELL_CAP:
            raise ConfigError(f"region grid must hold at most {REGION_CELL_CAP} cells")
        if max(self.x_points, self.cp_points) > REGION_AXIS_CAP:
            raise ConfigError(f"region axes must hold at most {REGION_AXIS_CAP} points")
        if not all(math.isfinite(v) for v in (self.x_max - self.x_min, self.cp_max - self.cp_min)):
            raise ConfigError("axis ranges and their spans must be finite")
        if not (self.x_max > self.x_min and self.cp_max > self.cp_min):
            raise ConfigError("axis ranges must be nonempty")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")


@dataclass(frozen=True)
class RegionMap:
    """Classified 2-D grid: x axis (V_p_B or eps_p) by C_p axis.

    cells, an integer array, holds at [i, j] the RegionClass code at
    (x_axis[i], cp_axis[j]).
    """

    x_axis: np.ndarray
    cp_axis: np.ndarray
    cells: np.ndarray
    mode: RegionMode
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        import numpy as np

        if np.any(np.diff(self.x_axis) <= 0) or np.any(np.diff(self.cp_axis) <= 0):
            raise ConfigError("region axes must be strictly increasing")
        if not (len(self.x_axis) and len(self.cp_axis)):
            raise ConfigError("region axes must be nonempty")
        if self.cells.shape != (len(self.x_axis), len(self.cp_axis)):
            raise ConfigError("cell grid does not match the axes")
        if not np.issubdtype(self.cells.dtype, np.integer):
            raise ConfigError("cells must be an integer array")
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


def scan_region(
    params: ProtocolParams,
    chan_x: tuple[float, float],
    grid: SweepConfig,
    mode: RegionMode,
) -> RegionMap:
    """Classify every grid cell by physicality and pointwise key-rate signs.

    chan_x is (eta_x, eps_x), the ChannelParams fields.  In FREE_VPB mode
    the first axis is Bob's unmodulated-quadrature variance V_p_B itself;
    in SYMMETRIC_NOISE mode it is the p excess noise eps_p, and V_p_B is
    symmetric_vpB(params, eta_x, eps_p), vacuum term included.
    A cell is physical exactly when its C_p lies in
    physicality_interval(params, chan, V_p_B) for its row, the definition
    key_rate uses.  Secure cells are decided by the sign of the key rate at
    that exact (V_p_B or eps_p, C_p), with no smoothing of boundary cells,
    through key_rate's kernel with dv and h per row and delta = C_p - C0
    per cell (protocol._map_rows).

    The kernel runs at few of the cells.  S_AB is concave in C_p (Wolf,
    Giedke & Cirac, PRL 96, 080502 (2006)) and the conditional entropies
    are constant along a row, so each direction's insecure cells are one
    run inside the row's physical run.  A coarse pass classifies the cells
    every REGION_STRIDE columns from the run's first cell, and its last
    cell, over blocks of whole rows of up to REGION_BLOCK_CELLS cells.
    Between two samples S_AB is monotone, except in the two intervals next
    to the row's largest sample, so an interval's inner cells take its
    samples' code when the two codes agree, the interval does not border
    that sample, and neither sample lies within REGION_MARGIN bits of a
    threshold.  Every other interval is refined, in delta = C_p - C0: a
    concave function lies above each chord, and below each secant's line
    outside the secant's span.  So chi lies above the chord of the
    interval's samples k and k + 1, and below the lines of the secants
    (k - 1, k) and (k + 1, k + 2) of its row.  Where the chord lies more
    than REGION_MARGIN above key_mi a cell is insecure, and where a secant
    line lies more than REGION_MARGIN below it, secure.  In each
    direction the cells that neither settles form one interval of delta,
    and as the chord lies below the secant lines, no delta is settled both
    ways, so the cells before that interval take sample k's class and
    those after it sample k + 1's.  The kernel runs only at the inner
    cells in the hull of the two directions' intervals; the cells before
    the hull keep sample k's code and sample k + 1's code runs from the
    hull's end, by one run-length repeat per block.  REGION_MARGIN, 1e-9 bits, is far above the rounding of the
    kernel's samples and of the lines through them; a line meets its
    threshold at a rounded delta, and a cell's delta, a float strictly
    beyond it, lies beyond the exact meeting point too.  The cells are
    those of running the kernel at every physical cell, bit for bit.
    """
    import numpy as np

    eta_x, eps_x = chan_x
    chan = ChannelParams(eta_x, eps_x)
    x_axis = np.linspace(grid.x_min, grid.x_max, grid.x_points)
    cp_axis = np.linspace(grid.cp_min, grid.cp_max, grid.cp_points)

    if mode is RegionMode.FREE_VPB:
        if grid.x_min <= 0:
            raise ConfigError("V_p_B axis must be strictly positive")
        vpb_rows = x_axis
    elif mode is RegionMode.SYMMETRIC_NOISE:
        if grid.x_min < 0:
            raise ConfigError("excess-noise axis must be nonnegative")
        # symmetric_vpB for every row; chan has checked eta_x
        vpb_rows = _vpb(params, eta_x, x_axis)
    else:
        raise ConfigError(f"unknown region mode {mode!r}")

    key_mi = params.beta * mutual_information(params, chan)
    first, stop, delta, holevo = _map_rows(params, eta_x, eps_x, vpb_rows, cp_axis)
    physical = stop > first

    def classify(rows, cols):
        """The codes of the cells (rows[k], cols[k]) and their Holevo
        bounds (protocol._map_rows), DR's in the first row of a 2-row
        array and RR's in the second."""
        chi = holevo(rows, cols)
        # the key rate key_mi - max(chi, 0), with holevo_bound's clamp, is
        # > 0 exactly when max(chi, 0) < key_mi, as key_mi is finite and a
        # difference of finite floats is 0 only when they are equal.
        # PHYSICAL_INSECURE, SECURE_DR, SECURE_RR, SECURE_BOTH are
        # 1 + dr + 2 rr
        dr, rr = np.maximum(chi, 0.0) < key_mi
        code = dr.view(np.int8) + 2 * rr.view(np.int8) + 1
        return code, chi

    cells = np.zeros((grid.x_points, grid.cp_points), dtype=np.int8)
    # coarse samples of each row's run [first, stop): every REGION_STRIDE
    # cells from first, and always at stop - 1
    count = np.where(physical, (stop - first + REGION_STRIDE - 2) // REGION_STRIDE + 1, 0)
    insecure_above, secure_below = key_mi + REGION_MARGIN, key_mi - REGION_MARGIN
    block = max(1, REGION_BLOCK_CELLS // grid.cp_points)
    flat = cells.reshape(-1)
    for start in range(0, grid.x_points, block):
        held = start + np.flatnonzero(physical[start:start + block])
        if not held.size:
            continue
        sizes = count[held]
        rows = held.repeat(sizes)
        # each row's first sample in the block and the one after its last,
        # and each sample's column
        ends = np.cumsum(sizes)
        starts = ends - sizes
        place = np.arange(rows.size) - starts.repeat(sizes)
        cols = np.minimum(first[rows] + place * REGION_STRIDE, stop[rows] - 1)
        code, chi = classify(rows, cols)
        chi_dr, chi_rr = chi

        # S_AB is concave along a row: between two samples it is monotone,
        # except next to the row's largest sample (chi_rr is S_AB less a
        # constant), so an interval between two samples of one code keeps
        # that code throughout unless it borders that peak, or one of its
        # samples lies within REGION_MARGIN of a threshold, where rounding
        # can decide.  Those intervals, and the ones whose codes differ,
        # are refined, each within its row.
        flag = chi_rr == np.maximum.reduceat(chi_rr, starts).repeat(sizes)
        flag |= np.abs(chi_dr - key_mi) <= REGION_MARGIN
        flag |= np.abs(chi_rr - key_mi) <= REGION_MARGIN
        refine = code[1:] != code[:-1]
        refine |= flag[1:]
        refine |= flag[:-1]
        refine &= rows[1:] == rows[:-1]

        # On a refined interval (k, k + 1), chi lies above the chord of its
        # two samples and below the lines of the secants (k - 1, k) and
        # (k + 1, k + 2) beside it, in delta.  Each direction's cells that
        # neither bound puts REGION_MARGIN beyond key_mi form one interval
        # of delta, [lo, hi], empty where the bounds settle every cell.
        # run is each secant's d delta / d chi, from chi_rr, which differs
        # from chi_dr by a constant along a row.  It is NaN, so that it
        # bounds nothing, where the secant's samples lie in two rows, and
        # past the last sample, where run[k - 1] of the first sample wraps.
        k = np.flatnonzero(refine)
        after = k + 1
        x = delta[cols]
        run = np.empty(rows.size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(x[1:] - x[:-1], chi_rr[1:] - chi_rr[:-1], out=run[:-1])
            run[ends - 1] = np.nan
            x0, x1, f0, f1 = x[k], x[after], chi.take(k, 1), chi.take(after, 1)
            chord, left, right = run[k], run[k - 1], run[after]
            # where each line meets its threshold: a falling chord bounds
            # [lo, hi] from below, a falling secant from above
            meet = x0 + (insecure_above - f0) * chord
            falls = np.signbit(chord)
            lo = np.fmax(x0, np.where(falls, meet, -np.inf))
            hi = np.fmin(x1, np.where(falls, np.inf, meet))
            for meet, slope in ((x0 + (secure_below - f0) * left, left),
                                (x1 + (secure_below - f1) * right, right)):
                falls = np.signbit(slope)
                lo = np.fmax(lo, np.where(falls, -np.inf, meet))
                hi = np.fmin(hi, np.where(falls, meet, np.inf))
        # the kernel runs at the inner cells in the hull of the two
        # directions' intervals, [fine, cut), to which an empty one adds
        # nothing; the cells before it keep sample k's code, and sample
        # k + 1's run starts at cut
        kept = lo <= hi
        lo = np.minimum(*np.where(kept, lo, np.inf))
        hi = np.maximum(*np.where(kept, hi, -np.inf))
        inner_first = cols[k] + 1
        fine = np.maximum(np.searchsorted(delta, lo), inner_first)
        cut = np.minimum(np.maximum(np.searchsorted(delta, hi, "right"), inner_first), cols[after])

        # each sample's code runs to the next sample's cut, and a 0 from the
        # row's stop on: one repeat into the flat cells
        row = rows[k]
        at = rows * grid.cp_points + cols
        at[after] = row * grid.cp_points + cut
        at = np.insert(at, ends, held * grid.cp_points + stop[held])
        flat[at[0]:at[-1]] = np.insert(code, ends, 0)[:-1].repeat(np.diff(at))

        # the cells of each hull, through the kernel
        inner = np.maximum(cut - fine, 0)
        fine_rows = row.repeat(inner)
        fine_cols = (fine - np.cumsum(inner) + inner).repeat(inner)
        fine_cols += np.arange(fine_cols.size)
        cells[fine_rows, fine_cols] = classify(fine_rows, fine_cols)[0]

    return RegionMap(x_axis=x_axis, cp_axis=cp_axis, cells=cells, mode=mode,
                     metadata=_inputs(params, eta_x=eta_x, eps_x=eps_x, mode=mode.value))


def _symmetric_rate(
    params: ProtocolParams,
    eta: float,
    eps: float,
    direction: ReconciliationDirection,
    start: float | None = None,
) -> tuple[float, float | None]:
    """Worst-case key rate on a symmetric channel whose eta and eps are
    checked, and where its worst case lies: t = (worst_Cp - lo)/(hi - lo)
    in its C_p interval, None when the interval is a point.

    Its observed p variance, vacuum term included, is never below the
    parabola vertex: V_p_B b = (1 - eta + eta/V_S + eta eps)
    (1 - eta + eta V_S + eta eps) >= 1 by Cauchy-Schwarz.
    """
    # symmetric_vpB, whose checks the caller has made
    mi, chi, worst_cp, (lo, hi) = _key_rate(params, eta, eps, _vpb(params, eta, eps),
                                            direction, start)
    return params.beta * mi - chi, (worst_cp - lo) / (hi - lo) if hi > lo else None


def _db_axis(db_values) -> list[float]:
    db_values = [float(v) for v in db_values]
    if any(b <= a for a, b in zip(db_values, db_values[1:])):
        raise ConfigError("dB grid must be strictly increasing")
    return db_values


def _inputs(params: ProtocolParams, **extra) -> dict:
    """The parameter echo of every output: params' fields, then extra."""
    return {"V_S": params.V_S, "V_M": params.V_M, "beta": params.beta, **extra}


def keyrate_vs_attenuation(
    params: ProtocolParams,
    eps: float,
    db_values,
    direction: ReconciliationDirection,
) -> Curve:
    """Worst-case key rate along a grid of channel attenuations (dB).

    The channel is symmetric with excess noise eps in both quadratures;
    every grid point is kept.  Points run in order on the calling thread.
    """
    db_values = _db_axis(db_values)
    rates = []
    for db in db_values:
        eta = db_to_eta(db)
        ChannelParams.symmetric(eta, eps)  # key_rate's checks
        rates.append(_symmetric_rate(params, eta, eps, direction)[0])
    return Curve(tuple(db_values), tuple(rates), "attenuation_db", "key_rate_bits",
                 _inputs(params, direction=direction.value, eps=eps))


def noise_frontier(
    params: ProtocolParams,
    db_values,
    direction: ReconciliationDirection,
    tol: float,
) -> Curve:
    """max_tolerable_noise along a grid of channel attenuations (dB).

    Grid points where the rate is not positive even at eps = 0
    (NoPositiveRate) or is still positive at the noise cap (NoRoot) are
    left out of the curve.
    """
    kept = []
    for db in _db_axis(db_values):
        try:
            kept.append((db, max_tolerable_noise(params, db, direction, tol)))
        except (NoPositiveRate, NoRoot):
            continue
    return Curve(tuple(db for db, _ in kept), tuple(eps for _, eps in kept),
                 "attenuation_db", "eps_max", _inputs(params, direction=direction.value, tol=tol))


def _bracket_sign_change(f, a: float, fa: float, b: float, fb: float,
                         xtol: float) -> tuple[float, float]:
    """Shrink a sign-change bracket of f until it is at most xtol wide.

    Takes finite fa = f(a) > 0 > f(b) = fb, or a = b, and returns the
    final (a, b); _zero_crossing, its one caller, passes key rates, which
    _key_rate returns finite or raises.  Regula falsi with the
    Anderson-Bjorck end scaling (Illinois, Dowell & Jarratt, BIT 11, 168
    (1971), with the adaptive factor of Anderson & Bjorck, BIT 13, 423
    (1973)): a point on the same side as the last one scales the kept
    end's value by 1 - f(x)/f(replaced), or by 1/2 when that is not
    positive, so a convex f cannot pin one end.  It keeps interpolated
    points xtol/2 inside the bracket, so a step next to the zero closes
    it.  An exact zero closes the bracket on that point.  When neither
    that point nor the midpoint lies strictly inside (the ends are
    adjacent floats, an xtol below their spacing) it stops there.

    Where f is nearly flat the scaling factor nears 0 and the next point
    lands beside the kept end, so a bracket reaching far into a flat tail
    can take more steps than bisection.  The root finders' doubling
    brackets are a factor of two wide.
    """
    half = 0.5 * xtol
    side = 0
    while b - a > xtol:
        x = a + (b - a) * (fa / (fa - fb))
        if x < a + half:
            x = a + half
        elif x > b - half:
            x = b - half
        if not a < x < b:
            x = 0.5 * (a + b)
            if not a < x < b:
                break
        fx = f(x)
        if fx > 0.0:
            if side > 0:
                m = 1.0 - fx / fa
                fb *= m if m > 0.0 else 0.5
            a, fa, side = x, fx, 1
        elif fx < 0.0:
            if side < 0:
                m = 1.0 - fx / fb
                fa *= m if m > 0.0 else 0.5
            b, fb, side = x, fx, -1
        else:
            a = b = x
    return a, b


def _zero_crossing(params: ProtocolParams, direction: ReconciliationDirection, channel,
                   first: float, cap: float, tol: float, label) -> float:
    """A zero crossing on [0, cap] of the worst-case key rate at
    channel(x) = (eta, eps), by regula falsi.

    channel(0) is checked as ChannelParams.symmetric does, and every
    channel(x) with x in [0, cap] must then be valid.  Each probe's C_p
    search starts at the place t where the last probe's worst case lay
    (protocol._worst_case_correlation); the first probe, and any after a
    point interval, search cold.  label(x) names the point x in error messages.
    The upper bracket doubles from first up to cap, and the last probe
    with a positive rate is the lower end.  _bracket_sign_change, above,
    then closes the bracket, whose end values are finite key rates, until
    it is at most tol wide, or until its ends are adjacent floats (a tol
    below their spacing).  Returns its midpoint.

    Raises NoPositiveRate when the rate at 0 is not positive and NoRoot
    when the rate at cap is still nonnegative.
    """
    if not 0.0 < tol < math.inf:
        raise ConfigError("tolerance must be positive and finite")
    ChannelParams.symmetric(*channel(0.0))
    t = None

    def rate(x: float) -> float:
        nonlocal t
        k, t = _symmetric_rate(params, *channel(x), direction, t)
        return k

    k0 = rate(0.0)
    if k0 <= 0.0:
        raise NoPositiveRate(f"key rate at {label(0.0)} is {k0!r}")
    lo, k_lo = 0.0, k0
    hi = first
    while (k := rate(hi)) >= 0.0:
        if hi >= cap:
            raise NoRoot(f"key rate still positive at {label(cap)}")
        if k > 0.0:
            lo, k_lo = hi, k
        hi = min(hi * 2.0, cap)
    lo, hi = _bracket_sign_change(rate, lo, k_lo, hi, k, tol)
    return 0.5 * (lo + hi)


def max_tolerable_noise(
    params: ProtocolParams,
    dB: float,
    direction: ReconciliationDirection,
    tol: float = 1e-6,
) -> float:
    """Largest symmetric excess noise with a positive worst-case key rate.

    Regula falsi (_zero_crossing) for the root of K(eps) = 0 at fixed
    attenuation; the upper bracket doubles from 0.1 up to a cap of 10
    shot-noise units.  The result lies within tol of the crossing.  Each
    probe's C_p search starts at the last probe's worst case, so the
    result can move within tol of a search whose probes all start cold.

    Raises NoPositiveRate when K(0) <= 0 and NoRoot when the cap is
    reached without a sign change.
    """
    return _noise_root(params, db_to_eta(dB), direction, tol, dB)


def _noise_root(params: ProtocolParams, eta: float, direction: ReconciliationDirection,
                tol: float, dB: float) -> float:
    """max_tolerable_noise at transmittance eta, named dB in errors."""
    return _zero_crossing(params, direction, lambda eps: (eta, eps), 0.1, NOISE_CAP, tol,
                          lambda eps: f"eps={eps} for {dB} dB")


def max_attenuation(
    params: ProtocolParams,
    eps: float,
    direction: ReconciliationDirection,
    tol: float = 1e-4,
) -> float:
    """Attenuation (dB) at which the worst-case key rate crosses zero.

    Regula falsi (_zero_crossing) on a symmetric channel with fixed excess
    noise; the upper bracket doubles from 0.5 dB up to a 60 dB cap, and
    the result lies within tol of the crossing.  Each probe's C_p search
    starts at the last probe's worst case, so the result can move within
    tol of a search whose probes all start cold.

    Raises NoPositiveRate when K <= 0 already at 0 dB and NoRoot when the
    rate is still positive at the cap.
    """
    return _zero_crossing(params, direction, lambda db: (db_to_eta(db), eps), 0.5, DB_CAP,
                          tol, lambda db: f"{db} dB")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_text(obj: dict) -> str:
    """JSON text of a record and the tool stamp, as curves and CLI results
    are written."""
    return json.dumps({"tool": _TOOL, **obj}, sort_keys=True, indent=2) + "\n"


def _provenance_lines(metadata: dict) -> list[str]:
    lines = [f"# tool={_TOOL}"]
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
    return _json_text({
        "metadata": curve.metadata,
        "x_name": curve.x_name,
        "y_name": curve.y_name,
        "abscissa": list(curve.abscissa),
        "ordinate": list(curve.ordinate),
    })


def region_to_json(region: RegionMap) -> str:
    """JSON text: axes arrays plus row-major cell codes 0-4.

    cells[i][j] classifies (x_axis[i], cp_axis[j]); the legend maps codes
    to names.  The text is _region_json_bytes decoded once.
    """
    return str(_region_json_bytes(region), "ascii")


def _region_json_bytes(region: RegionMap) -> memoryview:
    """region_to_json's text as ASCII bytes, written into one buffer:
    '{"cells":[', each row as "[d,d,...,d]," two bytes a cell (the last row
    ends in "]]", which closes the grid), then "," and the other keys,
    which sort after "cells", as json.dumps writes them.
    """
    import numpy as np

    obj = {
        "tool": _TOOL,
        "mode": region.mode.value,
        "metadata": region.metadata,
        "x_axis": region.x_axis.tolist(),
        "cp_axis": region.cp_axis.tolist(),
        "legend": {str(int(c)): c.name.lower() for c in RegionClass},
    }
    rest = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")
    head = b'{"cells":['
    rows, cols = region.cells.shape
    end = len(head) + rows * (2 * cols + 2)
    text = np.empty(end + len(rest) + 1, dtype=np.uint8)
    text[:len(head)] = np.frombuffer(head, dtype=np.uint8)
    # a cell's "," or "[" and its digit as one little-endian word
    words = text[len(head):end].view("<u2").reshape(rows, cols + 1)
    np.left_shift(region.cells, 8, out=words[:, :cols], dtype="<u2", casting="unsafe")
    words[:, :cols] += ord(",") | ord("0") << 8
    words[:, 0] += ord("[") - ord(",")
    words[:, cols] = ord("]") | ord(",") << 8
    words[-1, cols] = ord("]") | ord("]") << 8
    text[end] = ord(",")
    text[end + 1:-1] = np.frombuffer(rest, dtype=np.uint8, offset=1)
    text[-1] = ord("\n")
    return memoryview(text)


def write_region_json(region: RegionMap, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_region_json_bytes(region))
