"""Unidimensional CV QKD protocol: states, channels, bounds, key rates.

The sender Gaussian-modulates a single quadrature (x) of a squeezed,
coherent, or antisqueezed signal state; the receiver homodynes the same
quadrature.  The correlation of the unmodulated p quadrature across the
channel is unknown to the trusted parties, so security is evaluated at the
value of that correlation, allowed by the uncertainty principle, that
maximizes the eavesdropper's Holevo information.

The shared state is two modes with decoupled quadratures, six scalars,
so everything here is closed-form arithmetic: the scalar paths use the
math module only, and the region-map functions, _g_mu_array and
_map_rows, import numpy inside themselves, as sweeps' do.  The
covariance-matrix oracle in gaussian, which the tests compare against,
is built on this module and not used by it.  All operations are pure
functions with no shared state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, UnphysicalObservation, UnphysicalState

LOG2E = math.log2(math.e)
# Symplectic eigenvalues this far below 1 are a pure mode to rounding.
NU_CLAMP_TOL = 1e-9

# Numerical policy for the worst-case correlation search: the final
# bracket is WORST_CASE_XTOL wide, or that fraction of a narrower interval.
WORST_CASE_XTOL = 1e-10
# Observations this close below the parabola vertex are treated as sitting
# on it, so that exactly-critical channels (e.g. pure loss on a coherent
# state) survive floating-point rounding.
VERTEX_SLACK = 1e-12
# The smallest normal float: 1/m overflows below it, and a mode with
# m = (nu - 1)/2 below it holds under 1e-304 bits, so it counts as pure.
M_MIN = 2.0 ** -1022


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def _not_finite(what: str) -> DomainError:
    """The error for finite inputs that gave a non-finite result: some
    intermediate value left the double-precision range."""
    return DomainError(f"{what} is not finite for these inputs: an "
                       "intermediate value overflowed or underflowed")


@dataclass(frozen=True)
class ProtocolParams:
    """Source and modulation settings.

    V_S is the signal variance of the modulated quadrature (squeezed < 1,
    coherent = 1, antisqueezed > 1), V_M the Gaussian modulation variance,
    beta the reconciliation efficiency in (0, 1].
    """

    V_S: float
    V_M: float
    beta: float = 1.0

    def __post_init__(self):
        # the links of this chain are the checks below, which run only to
        # name the failing field
        if 0.0 < self.V_S < math.inf > self.V_M >= 0.0 < self.beta <= 1.0:
            return
        _check_finite(V_S=self.V_S, V_M=self.V_M, beta=self.beta)
        if not self.V_S > 0.0:
            raise DomainError("V_S must be positive")
        if not self.V_M >= 0.0:
            raise DomainError("V_M must be nonnegative")
        if not 0.0 < self.beta <= 1.0:
            raise DomainError("beta must lie in (0, 1]")

    @property
    def tmsv_variance(self) -> float:
        """Variance of the two-mode squeezed vacuum purifying the modulation."""
        return math.sqrt(1.0 + self.V_M / self.V_S)


def _check_channel(eta_name: str, eta: float, eps_name: str, eps: float) -> None:
    """Check a transmittance and an excess noise, naming the caller's fields."""
    _check_finite(**{eta_name: eta, eps_name: eps})
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"{eta_name} must lie in (0, 1]")
    if not eps >= 0.0:
        raise DomainError(f"{eps_name} must be nonnegative")


@dataclass(frozen=True)
class ChannelParams:
    """The modulated (x) quadrature's channel: transmittance in (0, 1], zero
    excluded, and input-referred excess noise in shot-noise units.  The p
    channel is unknown to the trusted parties, who see only Bob's p
    variance V_p_B, which key_rate and the bounds take on its own.
    """

    eta_x: float
    eps_x: float = 0.0

    def __post_init__(self):
        # _check_channel runs only to name the failing field
        if 0.0 < self.eta_x <= 1.0 and 0.0 <= self.eps_x < math.inf:
            return
        _check_channel("eta_x", self.eta_x, "eps_x", self.eps_x)

    @classmethod
    def symmetric(cls, eta: float, eps: float = 0.0) -> "ChannelParams":
        """x side of a phase-insensitive channel; the p side is symmetric_vpB."""
        return cls(eta, eps)


class ReconciliationDirection(enum.Enum):
    """Which party's data the error correction is referenced to."""

    DIRECT = "dr"
    REVERSE = "rr"


@dataclass(frozen=True)
class SecurityAssessment:
    """Worst-case security figures for one parameter point.

    key_rate equals beta * mutual_info - holevo; worst_Cp is the
    correlation inside Cp_interval at which the Holevo bound peaks.
    """

    mutual_info: float
    holevo: float
    key_rate: float
    worst_Cp: float
    Cp_interval: tuple[float, float]


class _XMoments(NamedTuple):
    """x-side second moments of the shared state, and its physicality parabola.

    v is Alice's variance (both quadratures), c_x the x correlation, v_x_b
    Bob's x variance, and b = 1 - eta_x + eta_x (V_S + eps_x).  v_x_b is
    built as b + eta_x V_M, so det X = v v_x_b - c_x**2 = v b holds by
    construction, and the kernel below uses v b in place of that
    cancelling difference.  v0, c0 and coeff are physicality_parabola's
    V0, C0 and coeff; _x_moments raises DomainError where one is not finite.
    """

    v: float
    c_x: float
    v_x_b: float
    b: float
    v0: float
    c0: float
    coeff: float


def _x_moments(params: ProtocolParams, eta_x: float, eps_x: float) -> _XMoments:
    v = params.tmsv_variance
    b = _x_noise(params.V_S, eta_x, eps_x)
    c_x = math.sqrt(eta_x * params.V_M) * math.sqrt(v)
    n11 = params.V_M * ((1.0 - eta_x) + eta_x * eps_x) / params.V_S
    v0, c0, coeff = 1.0 / b, -c_x / (v * b), n11 / (v * b)
    if not (math.isfinite(v0) and math.isfinite(c0) and math.isfinite(coeff)):
        raise _not_finite("physicality parabola")
    return _XMoments(v, c_x, b + eta_x * params.V_M, b, v0, c0, coeff)


def _x_noise(V_S: float, eta_x: float, eps_x: float) -> float:
    """b = 1 - eta_x + eta_x (V_S + eps_x), Bob's x variance given Alice's
    data.

    Both terms are nonnegative, so b keeps its relative precision, and
    stays positive, when eta_x is near 1 and V_S + eps_x is small; written
    as eta_x (V_S + eps_x - 1) + 1 it cancels there, and the conditional
    entropy, with g's infinite slope at 1, then overshoots the joint one.
    """
    return (1.0 - eta_x) + eta_x * (V_S + eps_x)


def _observe(xm: _XMoments, dv, h, sqrt=math.sqrt):
    """The delta-free terms of the two-mode kernel at one observation.

    The kernel works in the physicality margins N = P - X^-1 =
    [[coeff, delta], [delta, dv]] (physicality_parabola): delta = C_p - C0,
    dv = V_p_B - V0 clamped at 0 and h = sqrt(coeff dv) (_margin_terms).
    dv cancels within a few ulps of the vertex, where V0's rounding is of
    dv's own size (ROADMAP item 2).  Built once per worst-case search, or
    once per region map (_map_rows) with dv and h arrays over its rows and
    sqrt np.sqrt.  The plain tuple, which CPython unpacks faster than a
    NamedTuple, holds h; t0 / 2, where
    t0 = (sqrt(v coeff) - sqrt(v_x_b dv))**2 + 2 v b h / (sqrt(v v_x_b) + c_x),
    so that tr(X N) = v coeff + 2 c_x delta + v_x_b dv is
    t0 + 2 c_x (h + delta), a sum of terms >= 0 on the interval; c_x; v b;
    (v coeff - v_x_b dv)**2 / 4; v; c_x dv; c_x coeff; and v_x_b.
    """
    v, c_x, v_x_b, b, _, _, coeff = xm
    vb = v * b
    root_diff = math.sqrt(v * coeff) - sqrt(v_x_b * dv)
    half_t0 = 0.5 * root_diff * root_diff + vb * h / (math.sqrt(v * v_x_b) + c_x)
    diff = 0.5 * (v * coeff - v_x_b * dv)
    return (h, half_t0, c_x, vb, diff * diff, v, c_x * dv, c_x * coeff, v_x_b)


def _symplectic_pair(ob: tuple, delta, sqrt=math.sqrt):
    """(mu_plus, mu_minus) = nu**2 - 1 for the shared state's symplectic
    eigenvalues at C_p = C0 + delta, delta in [-h, h].

    With decoupled quadratures nu**2 are the eigenvalues of X P (Serafini,
    Illuminati & De Siena, J. Phys. B 37, L21 (2004)), and X P = I + X N:
    mu sum to tr(X N) (_observe), their product is
    det X det N = v b (h - delta)(h + delta), 0 at the interval's ends,
    and their split comes from X N's entries, (a - d)**2 + 4 b c with
    a - d = v coeff - v_x_b dv and b c = (v delta + c_x dv)(c_x coeff +
    v_x_b delta); mu_plus is half their sum and half the split's square
    root, and mu_minus is det / mu_plus.  No term of size V_M cancels,
    so a pure state (N = 0) gives mu_plus = det = 0 exactly, and mu_minus
    is 0/0: NaN in an array, an entropy of 0 in the map, and
    ZeroDivisionError for floats, which _joint_entropy does not reach.
    delta is a float, or with sqrt np.sqrt an array that broadcasts
    against ob's columns; both take the same correctly rounded
    operations, so a float and a 1-element array agree to the bit.
    """
    h, half_t0, c_x, vb, quarter_diff_sq, v, cx_dv, cx_coeff, v_x_b = ob
    plus = h + delta
    det = (h - delta) * vb * plus
    s = (plus * c_x + half_t0) + sqrt(
        abs(quarter_diff_sq + (v * delta + cx_dv) * (cx_coeff + v_x_b * delta)))
    return s, det / s


def _entropy_slope(ob: tuple, z: float) -> tuple[float, float]:
    """(F, dF/dz): the slope F = dS/d delta of the joint entropy
    S = G(s) + G(t) in bits, s, t = mu_plus, mu_minus, and its derivative
    in the rapidity z, at delta = h tanh z.

    The search evaluates it only for z >= 0, as _worst_case_correlation
    probes only points above C0.  There h + delta = 2 h/(1 + e^-2z) and
    h - delta = (h + delta) e^-2z, so neither cancels next to the upper
    end; s and t follow as in _symplectic_pair.  s + t = tr and s t = det
    give s' = 2 (s c_x + v b delta)/(s - t) and t' = -2 (t c_x + v b delta)/(s - t),
    as tr' = 2 c_x and det' = -2 v b delta (t' taken as tr' - s' would
    cancel under strong modulation), and s'' = -t'' = 2 (s' t' + v b)/(s - t),
    taken as 8 v b (diff**2/(s - t)**2)/(s - t) with _observe's
    diff**2 = (v coeff - v_x_b dv)**2/4, which does not cancel; the ratio
    is formed first, as (s - t)**3 and v b diff**2 overflow from V_M about
    1e102 and 1e124 (V_S 1, eta_x 0.1, V_p_B 100).
    F = G'(s) s' + G'(t) t' and dF/dz = S'' (h + delta)(h - delta)/h, with
    S'' = G''(s) s'**2 + G''(t) t'**2 + (G'(s) - G'(t)) s'' a sum of terms
    <= 0.  G'(mu) = log2(e) log1p(2 (nu + 1)/mu)/(4 nu), nu = sqrt(1 + mu),
    and G''(mu) = -(log2(e)/mu + 2 G'(mu))/(4 (1 + mu)) takes the same log1p.
    Where s - t is below 1e-5 t (they meet at v_p_b = v**2/v_x_b,
    c_p = -c_x v/v_x_b, below C0) F is G'(t) tr' + D (s tr' - det'), with
    D = (G'(s) - G'(t))/(s - t) taken as G'' at the midpoint; above C0,
    (s - t)/t >= 2 sqrt(eta_x V_M/b), so the search reaches this branch
    only where eta_x V_M/b < 2.5e-11.  Where t is below M_MIN (det
    underflowed, or s overflowed) F is its limit, +inf at z = 0 and -inf
    above, the sign det' gives it; both give dF/dz NaN.
    """
    h, half_t0, c_x, vb, quarter_diff_sq, v, cx_dv, cx_coeff, v_x_b = ob
    e = math.exp(-2.0 * z)
    plus = 2.0 * h / (1.0 + e)
    minus, delta = plus * e, plus - h
    s = (plus * c_x + half_t0) + math.sqrt(
        abs(quarter_diff_sq + (v * delta + cx_dv) * (cx_coeff + v_x_b * delta)))
    t = minus * vb * plus / s
    if t < M_MIN:
        return math.inf if z <= 0.0 else -math.inf, math.nan
    vb_delta = vb * delta
    nu_t = math.sqrt(1.0 + t)
    df_t = math.log1p(2.0 * (nu_t + 1.0) / t) * LOG2E / (4.0 * nu_t)
    gap = s - t
    if gap > 1e-5 * t:
        nu_s = math.sqrt(1.0 + s)
        df_s = math.log1p(2.0 * (nu_s + 1.0) / s) * LOG2E / (4.0 * nu_s)
        ds, dt = 2.0 * (s * c_x + vb_delta) / gap, -2.0 * (t * c_x + vb_delta) / gap
        curvature = (-(LOG2E / s + 2.0 * df_s) / (4.0 * (1.0 + s)) * ds * ds
                     - (LOG2E / t + 2.0 * df_t) / (4.0 * (1.0 + t)) * dt * dt
                     + (df_s - df_t) / gap * (8.0 * vb * (quarter_diff_sq / gap / gap)))
        return df_s * ds + df_t * dt, curvature * plus * minus / h
    x = 0.5 * (s + t)
    nu = math.sqrt(1.0 + x)
    d2f = -LOG2E * (nu / x + 0.5 * math.log1p(2.0 * (nu + 1.0) / x)) / (4.0 * nu * (1.0 + x))
    return 2.0 * (df_t * c_x + d2f * (s * c_x + vb_delta)), math.nan


def _g_mu(mu: float) -> float:
    """G(mu) = g(sqrt(1 + mu)) in bits, with m = (nu - 1)/2 taken as
    mu / (2 (nu + 1)), which keeps mu's relative precision near a pure
    mode, where nu - 1 would round it away."""
    return _g_m(mu / (2.0 * (math.sqrt(1.0 + mu) + 1.0)))


def _g_mu_array(mu):
    """_g_mu over a float64 array, for region maps; an element whose m is
    below M_MIN, or NaN, gives 0, without warnings.

    Each element takes _g_mu's operations in _g_mu's order, but through
    np.log1p, which need not round like math.log1p.
    """
    import numpy as np

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m = mu / (2.0 * (np.sqrt(mu + 1.0) + 1.0))
        g = (np.log1p(m) + m * np.log1p(1.0 / m)) * LOG2E
        g[~(m >= M_MIN)] = 0.0
    return g


def _g_m(m: float) -> float:
    """Bosonic entropy in bits of a mode with m = (nu - 1)/2, 0 for m
    below M_MIN.

    log2(1 + m) + m log2(1 + 1/m): the usual
    ((nu+1)/2) log2((nu+1)/2) - m log2(m) without its cancellation at
    large nu.
    """
    if m < M_MIN:
        return 0.0
    return (math.log1p(m) + m * math.log1p(1.0 / m)) * LOG2E


def entropy_g(nu: float) -> float:
    """Entropy in bits of one bosonic mode with symplectic eigenvalue nu.

    _g_m((nu - 1)/2), exactly 0 at nu = 1.  Values within NU_CLAMP_TOL
    below 1 are a pure mode; lower ones raise DomainError.
    """
    if nu < 1.0 - NU_CLAMP_TOL:
        raise DomainError(f"symplectic eigenvalue {nu!r} is below 1")
    return _g_m(0.5 * (nu - 1.0))


def _joint_entropy(ob: tuple, c0: float, C_p: float) -> float:
    """Entropy in bits of the shared two-mode state at C_p, from _observe's
    tuple ob, at delta = C_p - C0 clipped to [-h, h]; 0 where h and t0
    are, so that tr(X N) is 0 at the one point: N = 0, a pure state."""
    h, half_t0 = ob[:2]
    if not (h or half_t0):
        return 0.0
    mu_plus, mu_minus = _symplectic_pair(ob, min(max(C_p - c0, -h), h))
    return _g_mu(mu_plus) + _g_mu(mu_minus)


def mutual_information(params: ProtocolParams, chan: ChannelParams) -> float:
    """Classical mutual information (bits) of the modulated quadrature.

    (1/2) log2[1 + eta_x V_M / (1 + eta_x (V_S + eps_x - 1))], by log1p so
    that a small ratio keeps its digits; the same for DR and RR.
    """
    return _mutual_information(params, chan.eta_x, _x_noise(params.V_S, chan.eta_x, chan.eps_x))


def _mutual_information(params: ProtocolParams, eta_x: float, b: float) -> float:
    """mutual_information from Bob's x variance b given Alice's data."""
    mi = 0.5 * math.log1p(eta_x * params.V_M / b) * LOG2E
    if not math.isfinite(mi):
        raise _not_finite("mutual information")
    return mi


def physicality_parabola(
    params: ProtocolParams, chan: ChannelParams
) -> tuple[float, float, float]:
    """Vertex and curvature of the physicality bound on the p correlation.

    Returns (V0, C0, coeff): the unknown correlation C_p is compatible
    with the uncertainty principle iff

        (C_p - C0)**2 <= coeff * (V_p_B - V0).

    With X and P the x and p blocks of the shared state, gamma + i.Omega >= 0
    is exactly N = P - X^-1 >= 0, a 2x2 test, and
    N = [[coeff, C_p - C0], [C_p - C0, V_p_B - V0]]: V0 = 1/b,
    C0 = -c_x/(v b) and coeff = n11/(v b) with n11 = v**2 b - v_x_b.  n11
    is written as V_M ((1 - eta_x) + eta_x eps_x) / V_S, which does not
    cancel (0 on a lossless, noiseless channel).  Only the x-quadrature
    channel parameters enter.
    """
    return _x_moments(params, chan.eta_x, chan.eps_x)[-3:]


def physicality_interval(
    params: ProtocolParams, chan: ChannelParams, V_p_B: float
) -> tuple[float, float] | None:
    """Allowed range of the unknown p correlation for an observed V_p_B.

    Returns (lo, hi) = C0 -+ h, a degenerate point when the observation
    sits on the parabola vertex or the curvature vanishes, or None when no
    physical state is compatible (V_p_B below the vertex).
    """
    xm = _x_moments(params, chan.eta_x, chan.eps_x)
    margins = _margins(xm, V_p_B)
    return None if margins is None else (xm.c0 - margins[1], xm.c0 + margins[1])


def _margins(xm: _XMoments, V_p_B: float):
    """(dv, h) of _margin_terms for a positive, finite V_p_B; None below
    the vertex beyond VERTEX_SLACK.  The interval is C0 -+ h, and the
    kernel takes C_p as C0 + delta with delta in [-h, h]."""
    if not 0.0 < V_p_B < math.inf:
        _check_finite(V_p_B=V_p_B)
        raise DomainError("V_p_B must be positive")
    dv, h, below = _margin_terms(xm, V_p_B)
    if below:
        return None
    if not math.isfinite(h):
        raise _not_finite("physicality interval")
    return dv, h


def _margin_terms(xm: _XMoments, V_p_B, maximum=max, sqrt=math.sqrt):
    """(dv, h, below): V_p_B's margin dv = V_p_B - V0 over xm's parabola
    vertex, clamped at 0, the C_p interval's half-width h = sqrt(coeff dv),
    and whether V_p_B lies below the vertex by more than VERTEX_SLACK
    (relative, or absolute where |V0| < 1).

    The one statement of these rules: _margins takes them for key_rate and
    holevo_bound, and _map_rows, with maximum np.maximum and sqrt
    np.sqrt, for a region map's array of rows' V_p_B.  dv cancels within a few ulps of
    the vertex: the subtraction is exact there, but V0 = 1/b carries about
    an ulp of rounding, which is then of dv's own size, and h, whose slope
    in dv is infinite at 0, magnifies it (ROADMAP item 2).
    """
    dv = V_p_B - xm.v0
    below = dv < -VERTEX_SLACK * max(1.0, abs(xm.v0))
    dv = maximum(dv, 0.0)
    return dv, sqrt(xm.coeff * dv), below


def _conditional_entropy(
    xm: _XMoments, dv: float, direction: ReconciliationDirection, g=_g_mu
) -> float:
    """Entropy in bits of the state left after the reference side's
    homodyne measurement: single-mode and diagonal, with nu**2 = b V_p_B
    (DR) or v**2 b / v_x_b (RR), so mu is b dv or
    n11 / v_x_b = coeff v b / v_x_b.  dv's clamp at 0 (_margin_terms)
    makes an observation up to VERTEX_SLACK below the vertex a pure mode.
    g is the entropy G(mu), _g_mu, or _g_mu_array for an array of dv."""
    if direction is ReconciliationDirection.DIRECT:
        return g(xm.b * dv)
    return g(xm.coeff * (xm.v * xm.b) / xm.v_x_b)


def _floor_holevo(chi: float) -> float:
    """chi clamped at 0, as rounding can leave a Holevo quantity a few ulps
    below it; DomainError where chi is not finite."""
    if not math.isfinite(chi):
        raise _not_finite("Holevo bound")
    return max(chi, 0.0)


def holevo_bound(
    params: ProtocolParams,
    chan: ChannelParams,
    C_p: float,
    V_p_B: float,
    direction: ReconciliationDirection,
) -> float:
    """Eavesdropper's Holevo information (bits) at a specific p correlation.

    Difference between the entropy of the shared two-mode state and the
    entropy conditioned on the reference side's homodyne outcome, both
    from the closed-form kernel that key_rate searches over, at
    delta = C_p - C0 clipped to [-h, h]; at key_rate's worst_Cp it is
    key_rate's holevo to the bit.  A value that rounding leaves below zero
    is clamped to zero.

    C_p is physical when it lies in physicality_interval, up to rounding:
    boundary states computed another way (pure loss, or the source state
    on a lossless channel) land a few ulps off an end, so C_p is accepted
    8 ulps beyond the interval at V_p_B + 8 ulps, and the clip moves it to
    the nearer end.  An observation up to VERTEX_SLACK below the vertex is
    on it, as in key_rate and region maps.  Raises UnphysicalState for any
    other C_p and DomainError when V_p_B is not positive and finite.
    """
    xm = _x_moments(params, chan.eta_x, chan.eps_x)
    margins = _margins(xm, V_p_B)
    if margins is not None:
        reach = _margins(xm, V_p_B + 8.0 * math.ulp(V_p_B))[1]
        reach += 8.0 * math.ulp(abs(xm.c0) + reach)
    if margins is None or not abs(C_p - xm.c0) <= reach:
        raise UnphysicalState(f"two-mode state with C_p={C_p!r}, V_p_B={V_p_B!r} is unphysical")
    dv, h = margins
    return _floor_holevo(_joint_entropy(_observe(xm, dv, h), xm.c0, C_p)
                         - _conditional_entropy(xm, dv, direction))


def _worst_case_correlation(
    ob: tuple, c0: float, start: float | None = None
) -> tuple[float, float]:
    """Maximize the joint entropy over the physical correlation interval;
    returns (worst_Cp, S_AB there).

    The conditional entropy does not depend on C_p, so this maximum is the
    Holevo bound's.  The joint entropy is concave in delta = C_p - C0 on
    [-h, h], as the Gaussian entropy is concave in the covariance matrix
    (Wolf, Giedke & Cirac, PRL 96, 080502 (2006)), so its slope F
    (_entropy_slope) falls across it, to -inf at h.  F >= 0 at delta = 0:
    there F = 2 c_x (s G'(s) - t G'(t))/(s - t), and mu G'(mu) increases,
    as with nu = coth(y/2) it is log2(e) (y/2)/sinh y, whose derivative in
    mu has the sign of y - tanh y > 0.  So [0, h] brackets F's sign change
    with no call.  Safeguarded Newton steps on F in the rapidity
    z = atanh(delta/h) (rtsafe, Press et al., Numerical Recipes, 3rd ed.,
    sec. 9.4), where F's logarithmic tail is nearly linear, shrink the
    bracket until a Newton point lies inside it within xtol/2 of the point
    it was taken from (rtsafe's |dx| < xacc exit; a step that leaves z as
    it is, F being 0 to z's rounding, is one), or until the bracket is at
    most xtol wide; xtol is WORST_CASE_XTOL times min(1, 2 h) and at least
    8 ulps of h.  A step that leaves the z bracket, or one from a point
    without dF/dz, bisects it, and each point is kept xtol/2 inside the
    bracket in delta, so a step next to the zero closes it.  While no
    point had F > 0, the slope's limit -inf (t < M_MIN above C0: det
    underflowed, or mu_plus overflowed) is followed by a point xtol/2
    above 0 instead, as the zero lies below the limit's point: at a
    subnormal V_M every point takes the limit, and that second one closes
    the bracket.  A cold search starts at the upper end, h - xtol/2 (F can
    be 0/0 on an end), and one started at the place t = start in the C_p
    interval at (2 t - 1) h; a step past the upper end probes it.  The
    refined point is that converged Newton point, or the last one where it
    lies in the final bracket, or else the bracket's midpoint.

    The upper end hi = C0 + h is a candidate only while no point had
    F < 0: one at b < h gives S(h) <= S(b) + F(b) (h - b) < S(b).  The
    lower one never is: mu_minus = 0 at both, and
    mu_plus = t0 + 2 c_x (h + delta) is smaller at the lower.  Where hi
    is not taken, mu_plus there is still formed, as _map_rows forms it
    for a region map, and where it is, its entropy is checked, so that an
    overflow there raises the two-mode kernel's DomainError in both.  Each
    candidate's entropy is taken once, as holevo_bound takes it, from its
    C_p, so holevo_bound repeats it to the bit.
    """
    h = ob[0]
    hi = c0 + h
    xtol = max(WORST_CASE_XTOL * min(1.0, 2.0 * h), 8.0 * math.ulp(h))
    half = 0.5 * xtol
    end, refined, zb = h - half, 0.0, math.inf
    if end > 0.0:
        # the bracket [a, b] in delta and [za, zb] in z, and the point x
        # at z; f = 0 before the first call
        a, za, b, f = 0.0, 0.0, h, 0.0
        z = zb if start is None else math.atanh(min(max(2.0 * start - 1.0, 0.0), end / h))
        x = h * math.tanh(z)
        while b - a > xtol:
            if not za < z < zb:
                z = za if f == -math.inf and za == 0.0 else 0.5 * (za + zb)
                x = h * math.tanh(z)
            if not a + half <= x <= b - half:
                x = min(max(x, a + half), b - half)
                z = math.atanh(x / h)
            f, df = _entropy_slope(ob, z)
            if f > 0.0:
                a, za = x, z
            elif f < 0.0:
                b, zb = x, z
            else:
                a = b = x
            z = z - f / df if df < 0.0 else math.nan
            if za <= z <= zb:
                x, x_last = h * math.tanh(z), x
                if abs(x - x_last) <= half:
                    break
        refined = x if za <= z <= zb else 0.5 * (a + b)

    cp = c0 + refined
    if zb < math.inf:
        # a point had F < 0, so hi is no candidate; _symplectic_pair's
        # mu_plus at delta = h must still be finite
        h, half_t0, c_x, _, quarter_diff_sq, v, cx_dv, cx_coeff, v_x_b = ob
        if not (2.0 * h * c_x + half_t0) + math.sqrt(
                abs(quarter_diff_sq + (v * h + cx_dv) * (cx_coeff + v_x_b * h))) < math.inf:
            raise _not_finite("two-mode kernel")
        return cp, _joint_entropy(ob, c0, cp)
    # the first of the candidates hi, cp whose entropy is larger
    s_ab = _joint_entropy(ob, c0, hi)
    if not s_ab < math.inf:
        raise _not_finite("two-mode kernel")
    if cp != hi:
        s_refined = _joint_entropy(ob, c0, cp)
        if s_refined > s_ab:
            return cp, s_refined
    return hi, s_ab


def key_rate(
    params: ProtocolParams,
    chan: ChannelParams,
    V_p_B: float,
    direction: ReconciliationDirection,
) -> SecurityAssessment:
    """Worst-case asymptotic key rate for an observed p variance.

    K = beta * I - max over physical C_p of the Holevo bound.  May be
    negative.  holevo equals holevo_bound at worst_Cp, to the bit.  Raises
    UnphysicalObservation when no physical state matches the observed
    V_p_B.  The sweeps call its core, _key_rate, which builds no records.
    """
    mi, chi, worst_cp, interval = _key_rate(params, chan.eta_x, chan.eps_x, V_p_B, direction)
    return SecurityAssessment(mi, chi, params.beta * mi - chi, worst_cp, interval)


def _key_rate(
    params: ProtocolParams,
    eta_x: float,
    eps_x: float,
    V_p_B: float,
    direction: ReconciliationDirection,
    start: float | None = None,
) -> tuple[float, float, float, tuple[float, float]]:
    """key_rate's checks and search, on an (eta_x, eps_x) that the caller
    has checked as ChannelParams does.

    Returns (mutual_info, holevo, worst_Cp, Cp_interval); start goes to
    _worst_case_correlation, and without it the result is key_rate's.
    """
    xm = _x_moments(params, eta_x, eps_x)
    margins = _margins(xm, V_p_B)
    if margins is None:
        raise UnphysicalObservation(
            f"V_p_B={V_p_B!r} lies below the physicality parabola vertex"
        )
    dv, h = margins
    mi = _mutual_information(params, eta_x, xm.b)
    worst_cp, s_ab = _worst_case_correlation(_observe(xm, dv, h), xm.c0, start)
    chi = _floor_holevo(s_ab - _conditional_entropy(xm, dv, direction))
    return mi, chi, worst_cp, (xm.c0 - h, xm.c0 + h)


def _map_rows(params: ProtocolParams, eta_x: float, eps_x: float, V_p_B, cp_axis):
    """The kernel of a region map whose rows observe the array V_p_B and
    whose columns take the increasing array cp_axis of C_p, on an
    (eta_x, eps_x) that the caller has checked.

    Returns (first, stop, delta, holevo).  Each row's physical cells are
    the columns [first, stop) in physicality_interval at its V_p_B, by
    _margin_terms and two binary searches (the interval's ends count as
    inside), and none below the vertex.  delta is cp_axis - C0, and
    holevo(rows, cols) the Holevo bounds S_AB - S_cond of the cells
    (rows[k], cols[k]) by key_rate's kernel, DR's in the first row of a
    2-row array and RR's in the second, not clamped at 0.  key_rate
    forms mu_plus at the interval's upper end, delta = h, and raises
    where it overflows there; over a row's interval mu_plus and every
    term of the kernel are largest at that end, so this raises
    DomainError where a row holding a physical cell overflows there, and
    the terms of rows without one may overflow unused.  Before that it
    raises physicality_interval's DomainError where a row not below the
    vertex has an infinite h, a row whose cells are all physical.
    """
    import numpy as np

    xm = _x_moments(params, eta_x, eps_x)
    delta = cp_axis - xm.c0
    s_cond_rr = _conditional_entropy(xm, 0.0, ReconciliationDirection.REVERSE)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dv, h, below = _margin_terms(xm, V_p_B, np.maximum, np.sqrt)
        if not (np.isfinite(h) | below).all():
            raise _not_finite("physicality interval")
        first = np.searchsorted(cp_axis, xm.c0 - h, "left")
        stop = np.searchsorted(cp_axis, xm.c0 + h, "right")
        stop[below] = 0
        s_cond_dr = _conditional_entropy(xm, dv, ReconciliationDirection.DIRECT, _g_mu_array)
        ob = _observe(xm, dv, h, np.sqrt)
        if not np.isfinite(_symplectic_pair(ob, h, np.sqrt)[0][stop > first]).all():
            raise _not_finite("two-mode kernel")

    def holevo(rows, cols):
        cell_ob = tuple(term[rows] if np.ndim(term) else term for term in ob)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            mu_plus, mu_minus = _symplectic_pair(cell_ob, delta[cols], np.sqrt)
        s_ab = _g_mu_array(mu_plus) + _g_mu_array(mu_minus)
        chi = np.empty((2, s_ab.size))
        np.subtract(s_ab, s_cond_dr[rows], out=chi[0])
        np.subtract(s_ab, s_cond_rr, out=chi[1])
        return chi

    return first, stop, delta, holevo


def symmetric_vpB(
    params: ProtocolParams,
    eta: float,
    eps_p: float,
    strict_paper: bool = False,
) -> float:
    """Bob's p variance through a channel with symmetric transmittance.

    Default restores the channel's vacuum contribution:
    eta (1/V_S + eps_p) + 1 - eta.  With strict_paper the vacuum term is
    dropped, which can yield a sub-vacuum variance for a lossy noiseless
    channel; it is provided for comparison at single points only, and the
    sweeps always keep the vacuum term.  Raises DomainError where it
    overflows, as 1/V_S does for V_S below about 5.6e-309.
    """
    _check_channel("eta", eta, "eps_p", eps_p)
    v_p_b = eta * (1.0 / params.V_S + eps_p) if strict_paper else _vpb(params, eta, eps_p)
    if not math.isfinite(v_p_b):
        raise _not_finite("Bob's p variance")
    return v_p_b


def _vpb(params: ProtocolParams, eta: float, eps_p):
    """symmetric_vpB with the vacuum term and without its checks, for a
    float or an array of eps_p."""
    return eta * (1.0 / params.V_S + eps_p) + (1.0 - eta)


def _check_asymptotic(V_S: float, eta: float) -> None:
    if not 0.0 < eta < 1.0:
        raise DomainError("eta must lie strictly inside (0, 1)")
    _check_finite(V_S=V_S)
    if not V_S > 0.0:
        raise DomainError("V_S must be positive")


# 1/17, 1/15, ..., 1/3: Horner coefficients of atanh(r)/r - 1, which is
# sum_k r^(2k) / (2k + 1) for k >= 1.
_ATANH_EXCESS = tuple(1.0 / (2 * k + 1) for k in range(8, 0, -1))


def _atanh_excess(r2: float) -> float:
    """atanh(r)/r - 1 for r**2 = r2 < 0.01, where the logarithm would
    cancel: eight terms of its series, by Horner's rule."""
    excess = 0.0
    for coef in _ATANH_EXCESS:
        excess = (excess + coef) * r2
    return excess


def asymptotic_key_rate_dr(V_S: float, eta: float) -> float:
    """Strong-modulation limit of the direct-reconciliation key rate with
    C_p pinned at the upper end of the physical interval.

    Closed form for a symmetric noiseless channel and any signal state.
    It is an upper bound on the strong-modulation limit of the worst-case
    key_rate, which maximizes the Holevo bound over the whole interval;
    the two approach each other as V_S -> 1 and as eta -> 1, and are equal
    at V_S = 1, where the interval is degenerate.  For a coherent source
    (V_S = 1) it is log2(2 eta) - log2(eta (1 - eta)) / 2 - log2(e).
    """
    _check_asymptotic(V_S, eta)
    # With c = sqrt(1 + u), u = eta (1 - eta) (V_S - 1)**2 / V_S and
    # s = eta |1 - V_S|, the rate is log2(e) (c atanh(1/c) - 1) + log2(s / (1 + s)).
    # Where r**2 = 1/c**2 < 0.01 that is log2(e) (atanh(r)/r - 1 - log1p(1/s)),
    # two small terms (about 1/(3u) and 1/s at large V_S) summed directly.
    # Elsewhere c atanh(1/c) and log2(s) diverge as u -> 0 (eta -> 0, or
    # V_S -> 1) and cancel: atanh(1/c) + ln s = ln(1 + c) + ln(eta V_S / (1 - eta)) / 2.
    # What is left, (c - 1) atanh(1/c), vanishes with u.  Below V_S and s
    # of about 5.6e-309, 1/V_S and 1/s overflow: u is then formed without
    # 1/V_S, and log1p(1/s) is taken as log1p(s) - log(s).
    u = eta * (1.0 - eta) * (V_S - 1.0) * (1.0 - 1.0 / V_S)
    if u == math.inf:
        u = eta * (1.0 - eta) * (V_S - 1.0) * (V_S - 1.0) / V_S
    r2 = 1.0 / (1.0 + u)
    if r2 < 0.01:
        s = eta * abs(1.0 - V_S)
        log1p_inv_s = math.log1p(1.0 / s) if 1.0 / s < math.inf else math.log1p(s) - math.log(s)
        return LOG2E * (_atanh_excess(r2) - log1p_inv_s)
    c = math.sqrt(1.0 + u)
    c_minus_1 = u / (1.0 + c)
    rest = 0.5 * c_minus_1 * math.log1p(2.0 / c_minus_1) if c_minus_1 > 1e-300 else 0.0
    diverging = math.log1p(c) + 0.5 * (math.log(eta) + math.log(V_S) - math.log1p(-eta))
    return LOG2E * (diverging + rest - 1.0 - math.log1p(eta * abs(1.0 - V_S)))


def asymptotic_key_rate_rr(V_S: float, eta: float) -> float:
    """Strong-modulation limit of the reverse-reconciliation key rate with
    C_p pinned at the upper end of the physical interval.

    Closed form for a symmetric noiseless channel and any signal state.
    It is an upper bound on the strong-modulation limit of the worst-case
    key_rate, which maximizes the Holevo bound over the whole interval;
    the two approach each other as V_S -> 1 and as eta -> 1, and are equal
    at V_S = 1, where the interval is degenerate.  It grows without bound
    as eta -> 1, where the conditional eigenvalue D approaches 1.  For a
    coherent source (V_S = 1) it is (atanh(sqrt(eta)) / sqrt(eta) - 1) / ln 2,
    about eta log2(e) / 3 for small eta.
    """
    _check_asymptotic(V_S, eta)
    # D = sqrt((1 + eta (V_S - 1)) / (eta V_S)) overflows as eta V_S -> 0,
    # so work with r = 1/D: (D/2) ln((D + 1)/(D - 1)) is atanh(r) / r,
    # which tends to 1 as r -> 0.  Below r^2 = 0.01 the excess over 1 is
    # summed as its series, where the logarithm would cancel; above it,
    # 2 atanh(r) = log1p(2r / (1 - r)) with 1 - r = (1 - eta) / (den (1 + r)),
    # which does not cancel as r -> 1.
    den = (1.0 - eta) + eta * V_S
    r = math.sqrt(eta * V_S / den)
    r2 = r * r
    if r2 < 0.01:
        excess = _atanh_excess(r2)
    else:
        x = 2.0 * r * (1.0 + r) * den / (1.0 - eta)
        # x overflows for V_S of about 5e291 and more as eta -> 1, where
        # log1p(x) = log(x) to rounding is taken as a sum of logs
        log1p_x = math.log1p(x) if x < math.inf else (
            math.log(2.0 * r * (1.0 + r)) + math.log(den) - math.log1p(-eta))
        excess = log1p_x / (2.0 * r) - 1.0
    # every term is finite for any finite V_S > 0 and eta in (0, 1)
    return LOG2E * excess - math.log2(1.0 + eta * abs(1.0 - V_S))
