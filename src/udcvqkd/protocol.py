"""Unidimensional CV QKD protocol: states, channels, bounds, key rates.

The sender Gaussian-modulates a single quadrature (x) of a squeezed,
coherent, or antisqueezed signal state; the receiver homodynes the same
quadrature.  The correlation of the unmodulated p quadrature across the
channel is unknown to the trusted parties, so security is evaluated at the
value of that correlation, allowed by the uncertainty principle, that
maximizes the eavesdropper's Holevo information.

The shared state is two modes with decoupled quadratures, six scalars,
so everything here is closed-form arithmetic with the math module; the
covariance-matrix oracle in gaussian, which the tests compare against,
is built on this module and not used by it.  All operations are pure
functions with no shared state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .errors import (
    DomainError,
    NonPositiveDefinite,
    UnphysicalObservation,
    UnphysicalState,
)

LOG2E = math.log2(math.e)
# Symplectic eigenvalues this far below 1 are a pure mode to rounding.
NU_CLAMP_TOL = 1e-9

# Numerical policy for the worst-case correlation search: the final
# bracket is WORST_CASE_XTOL wide, or that fraction of a narrower interval.
WORST_CASE_XTOL = 1e-10
HOLEVO_FLOOR_TOL = 1e-9
# Observations this close below the parabola vertex are treated as sitting
# on it, so that exactly-critical channels (e.g. pure loss on a coherent
# state) survive floating-point rounding.
VERTEX_SLACK = 1e-12


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
    """x-side second moments of the state shared after the channel.

    v is Alice's variance (both quadratures), c_x the x correlation, v_x_b
    Bob's x variance, and b = 1 - eta_x + eta_x (V_S + eps_x).  v_x_b is
    built as b + eta_x V_M, so v * v_x_b - c_x**2 = v * b holds by
    construction, and the kernel below uses v * b in place of that
    cancelling difference.
    """

    v: float
    c_x: float
    v_x_b: float
    b: float


def _x_moments(params: ProtocolParams, eta_x: float, eps_x: float) -> _XMoments:
    v = params.tmsv_variance
    b = _x_noise(params.V_S, eta_x, eps_x)
    return _XMoments(v, math.sqrt(eta_x * params.V_M) * math.sqrt(v), b + eta_x * params.V_M, b)


def _x_noise(V_S: float, eta_x: float, eps_x: float) -> float:
    """b = 1 - eta_x + eta_x (V_S + eps_x), Bob's x variance given Alice's
    data.

    Both terms are nonnegative, so b keeps its relative precision, and
    stays positive, when eta_x is near 1 and V_S + eps_x is small; written
    as eta_x (V_S + eps_x - 1) + 1 it cancels there, and the conditional
    entropy, with g's infinite slope at 1, then overshoots the joint one.
    """
    return (1.0 - eta_x) + eta_x * (V_S + eps_x)


def _observe(xm: _XMoments, V_p_B):
    """The C_p-free products of the two-mode invariants at V_p_B.

    Built once per worst-case search, or once per block of map rows with
    V_p_B a (rows, 1) column; _symplectic_pair and _entropy_slope add the
    C_p terms.  The tuple holds v, v_x_b, v**2 + v_x_b V_p_B (Delta
    without its 2 c_x C_p), v V_p_B, v b, (v**2 - v_x_b V_p_B)**2,
    c_x V_p_B, c_x v, 2 c_x (dDelta/dC_p) and -2 v b (d det/dC_p is
    -2 v b C_p).  Each is rounded in the order the kernels formed it in
    line, so their results do not change by a bit.  It is a plain tuple
    because the kernels unpack it, and CPython unpacks an exact tuple
    faster than a NamedTuple.
    """
    v, c_x, v_x_b, b = xm
    diag = v * v - v_x_b * V_p_B
    return (v, v_x_b, v * v + v_x_b * V_p_B, v * V_p_B, v * b, diag * diag,
            c_x * V_p_B, c_x * v, 2.0 * c_x, -2.0 * v * b)


def _symplectic_pair(ob: tuple, c_p):
    """Symplectic eigenvalues (nu_plus, nu_minus) of the shared state.

    Closed form for two modes (Serafini, Illuminati & De Siena, J. Phys. B
    37, L21 (2004)).  With decoupled quadratures, nu**2 are the
    eigenvalues of X P, the product of the x and p blocks, whose trace and
    determinant are the two symplectic invariants
    Delta = v**2 + v_x_b v_p_b + 2 c_x c_p and det = v b (v v_p_b - c_p**2).
    Their split nu_plus**2 - nu_minus**2 is taken from the entries of X P,
    (a - d)**2 + 4 b c, not from Delta**2 - 4 det, which cancels to
    sqrt(rounding) on near-pure states; nu_minus**2 is det / nu_plus**2,
    which does not cancel under strong modulation.  ob is _observe's
    tuple of the products without c_p; c_p is a float or a numpy array
    that broadcasts against its V_p_B.  The state must be positive
    definite.

    Every step but abs is an augmented assignment, so arrays of the
    broadcast shape are allocated four times and otherwise updated in
    place.  Floats take the operations of vb * (v_vpb - c_p**2),
    0.5 * (delta + split) and (det / nu_plus**2) ** 0.5 in the same order,
    with operands swapped, which leaves a product or sum of two floats
    unchanged.  But a float's ** 0.5 is libm's pow, which need not round
    like the sqrt numpy takes for an array's, so nu_plus and nu_minus can
    differ by an ulp between the two.
    """
    v, v_x_b, delta0, v_vpb, vb, diag_sq, cx_vpb, cx_v, d_delta, _ = ob
    det = v_vpb - c_p * c_p
    det *= vb
    split = v * c_p + cx_vpb
    split *= cx_v + v_x_b * c_p
    split *= 4.0
    split += diag_sq
    split = abs(split)
    split **= 0.5
    split += delta0 + d_delta * c_p
    split *= 0.5
    det /= split
    det **= 0.5
    split **= 0.5
    return split, det


def _entropy_slope(ob: tuple, c_p: float) -> float:
    """d/dC_p of the joint entropy g(nu_plus) + g(nu_minus), in bits.

    With s, t = nu_plus**2, nu_minus**2 and f(x) = g(sqrt(x)), the slope is
    f'(s) ds + f'(t) dt.  s + t = Delta and s t = det give
    ds = (s dDelta - d det)/(s - t) and dt = (d det - t dDelta)/(s - t),
    with dDelta = 2 c_x and d det = -2 v b c_p; taking dt as dDelta - ds
    instead cancels under strong modulation, where ds is about dDelta.
    Where s and t meet (v_p_b = v**2/v_x_b, c_p = -c_x v/v_x_b) the slope
    is written f'(t) dDelta + D (s dDelta - d det), with the divided
    difference D = (f'(s) - f'(t))/(s - t) taken as f'' at the midpoint
    while s - t is below 1e-5 (t - 1), so it stays finite there.
    f'(x) = log2(e) log1p(2/(nu - 1)) / (4 nu).  A mode at nu <= 1 has
    unbounded slope with the sign of its d(nu**2); with both modes there
    the state is pure to rounding and the slope is 0.  s and t come from
    _observe's tuple ob as in _symplectic_pair, written out here because
    this runs about ten times per key_rate.
    """
    v, v_x_b, delta0, v_vpb, vb, diag_sq, cx_vpb, cx_v, d_delta, minus_2vb = ob
    delta = delta0 + d_delta * c_p
    det = vb * (v_vpb - c_p * c_p)
    off = (v * c_p + cx_vpb) * (cx_v + v_x_b * c_p)
    s = 0.5 * (delta + abs(diag_sq + 4.0 * off) ** 0.5)
    t = det / s
    d_det = minus_2vb * c_p
    if t <= 1.0:
        return 0.0 if s <= 1.0 else math.copysign(math.inf, d_det - t * d_delta)
    nu_t = t ** 0.5
    df_t = math.log1p(2.0 * (nu_t + 1.0) / (t - 1.0)) * LOG2E / (4.0 * nu_t)
    if s - t > 1e-5 * (t - 1.0):
        nu_s = s ** 0.5
        df_s = math.log1p(2.0 * (nu_s + 1.0) / (s - 1.0)) * LOG2E / (4.0 * nu_s)
        return (df_s * (s * d_delta - d_det) + df_t * (d_det - t * d_delta)) / (s - t)
    x = 0.5 * (s + t)
    nu = x ** 0.5
    d2f = -LOG2E * (nu / (x - 1.0) + 0.5 * math.log1p(2.0 * (nu + 1.0) / (x - 1.0))) / (
        4.0 * nu * x)
    return df_t * d_delta + d2f * (s * d_delta - d_det)


def _g(nu: float) -> float:
    """Bosonic entropy in bits, 0 for nu <= 1.

    log2(1 + m) + m log2(1 + 1/m) with m = (nu - 1)/2: the usual
    ((nu+1)/2) log2((nu+1)/2) - m log2(m) without its cancellation at
    large nu.
    """
    if nu <= 1.0:
        return 0.0
    m = 0.5 * (nu - 1.0)
    return (math.log1p(m) + m * math.log1p(1.0 / m)) * LOG2E


def entropy_g(nu: float) -> float:
    """Entropy in bits of one bosonic mode with symplectic eigenvalue nu.

    _g(nu), exactly 0 at nu = 1.  Values within NU_CLAMP_TOL below 1 are
    a pure mode; lower ones raise DomainError.
    """
    if nu < 1.0 - NU_CLAMP_TOL:
        raise DomainError(f"symplectic eigenvalue {nu!r} is below 1")
    return _g(nu)


def _joint_entropy(ob: tuple, c_p: float) -> float:
    """Entropy in bits of the shared two-mode state at c_p, from _observe's
    tuple ob; a mode at nu <= 1 counts as pure."""
    nu_plus, nu_minus = _symplectic_pair(ob, c_p)
    return _g(nu_plus) + _g(nu_minus)


def mutual_information(params: ProtocolParams, chan: ChannelParams) -> float:
    """Classical mutual information (bits) of the modulated quadrature.

    (1/2) log2[1 + eta_x V_M / (1 + eta_x (V_S + eps_x - 1))]; identical
    for direct and reverse reconciliation.
    """
    return _mutual_information(params, chan.eta_x, _x_noise(params.V_S, chan.eta_x, chan.eps_x))


def _mutual_information(params: ProtocolParams, eta_x: float, b: float) -> float:
    """mutual_information from Bob's x variance b given Alice's data."""
    mi = 0.5 * math.log2(1.0 + eta_x * params.V_M / b)
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
    is exactly P - X^-1 >= 0, a 2x2 test; multiplied through by
    det X = v b, it reads n12**2 <= n11 n22 with n11 = v**2 b - v_x_b,
    n22 = V_p_B v b - v and n12 = C_p v b + c_x, and this is that test over
    (v b)**2.  n11 is written as V_M ((1 - eta_x) + eta_x eps_x) / V_S,
    which does not cancel (0 on a lossless, noiseless channel).  Only the
    x-quadrature channel parameters enter.
    """
    return _parabola(_x_moments(params, chan.eta_x, chan.eps_x), params, chan.eta_x, chan.eps_x)


def _parabola(xm: _XMoments, params: ProtocolParams, eta_x: float, eps_x: float):
    vb = xm.v * xm.b
    n11 = params.V_M * ((1.0 - eta_x) + eta_x * eps_x) / params.V_S
    v0, c0, coeff = 1.0 / xm.b, -xm.c_x / vb, n11 / vb
    if not (math.isfinite(v0) and math.isfinite(c0) and math.isfinite(coeff)):
        raise _not_finite("physicality parabola")
    return v0, c0, coeff


def physicality_interval(
    params: ProtocolParams, chan: ChannelParams, V_p_B: float
) -> tuple[float, float] | None:
    """Allowed range of the unknown p correlation for an observed V_p_B.

    Returns (lo, hi), a degenerate point when the observation sits on the
    parabola vertex or the curvature vanishes, or None when no physical
    state is compatible (V_p_B below the vertex).
    """
    return _interval(physicality_parabola(params, chan), V_p_B)


def _interval(parabola, V_p_B: float):
    """physicality_interval from its parabola."""
    if not 0.0 < V_p_B < math.inf:
        _check_finite(V_p_B=V_p_B)
        raise DomainError("V_p_B must be positive")
    v0, c0, coeff = parabola
    dv = V_p_B - v0
    if dv < -VERTEX_SLACK * max(1.0, abs(v0)):
        return None
    half = math.sqrt(max(coeff, 0.0) * max(dv, 0.0))
    if not math.isfinite(half):
        raise _not_finite("physicality interval")
    return (c0 - half, c0 + half)


def _conditional_nu(
    xm: _XMoments, V_p_B: float, direction: ReconciliationDirection
) -> float:
    """Symplectic eigenvalue of the state left after the reference side's
    homodyne measurement; both conditional states are single-mode and
    diagonal, so nu is the square root of the determinant."""
    if direction is ReconciliationDirection.DIRECT:
        return math.sqrt(xm.b * V_p_B)
    return xm.v * math.sqrt(xm.b / xm.v_x_b)


def _conditional_entropy(
    xm: _XMoments, V_p_B: float, direction: ReconciliationDirection
) -> float:
    """Entropy in bits of the state left after the reference side's
    homodyne measurement; an eigenvalue rounded below 1 counts as a pure
    mode, so this is _g of _conditional_nu, bit for bit."""
    # entropy_g is looked up in this module's globals: perfbench traces
    # protocol.entropy_g, which gaussian.entropy_g is, by name
    return entropy_g(max(_conditional_nu(xm, V_p_B, direction), 1.0))


def _floor_holevo(chi: float) -> float:
    """Clamp rounding below zero; beyond HOLEVO_FLOOR_TOL the inputs are
    past double precision (g has infinite slope at 1, so rounding in a
    near-pure mode is amplified)."""
    if chi < -HOLEVO_FLOOR_TOL:
        raise DomainError(
            f"Holevo bound evaluated to {chi!r}; conditioning exceeded the "
            "joint entropy beyond numerical tolerance"
        )
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
    from the closed-form symplectic eigenvalues that key_rate searches
    over.  Small negative values (within 1e-9) are clamped to zero.

    C_p is physical when it lies in physicality_interval, up to rounding:
    boundary states computed another way (pure loss, or the source state
    on a lossless channel) land a few ulps off an end, so C_p is accepted
    8 ulps beyond the interval at V_p_B + 8 ulps and moved to the nearer
    end.  A symplectic eigenvalue there about 1e-8 below 1 (V_M >= 1e7)
    counts as a pure mode, and so does a conditional eigenvalue rounded
    below 1 (V_p_B up to VERTEX_SLACK below the vertex), the rule key_rate
    and region maps share.  Raises UnphysicalState for any other C_p,
    NonPositiveDefinite for a singular state and DomainError when V_p_B
    is not positive and finite.
    """
    xm = _x_moments(params, chan.eta_x, chan.eps_x)
    parabola = _parabola(xm, params, chan.eta_x, chan.eps_x)
    interval = _interval(parabola, V_p_B)
    if interval is not None:
        lo, hi = _interval(parabola, V_p_B + 8.0 * math.ulp(V_p_B))
        reach = 8.0 * math.ulp(max(abs(lo), abs(hi)))
    if interval is None or not lo - reach <= C_p <= hi + reach:
        raise UnphysicalState(f"two-mode state with C_p={C_p!r}, V_p_B={V_p_B!r} is unphysical")
    C_p = min(max(C_p, interval[0]), interval[1])
    if not xm.v * V_p_B > C_p * C_p:
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    chi = _floor_holevo(_joint_entropy(_observe(xm, V_p_B), C_p)
                        - _conditional_entropy(xm, V_p_B, direction))
    if not math.isfinite(chi):
        raise _not_finite("Holevo bound")
    return chi


def _bracket_sign_change(f, a: float, fa: float, b: float, fb: float,
                         xtol: float) -> tuple[float, float]:
    """Shrink a sign-change bracket of f until it is at most xtol wide.

    Takes fa = f(a) > 0 > f(b) = fb and returns the final (a, b).  Regula
    falsi with the Anderson-Bjorck end scaling (Illinois, Dowell & Jarratt,
    BIT 11, 168 (1971), with the adaptive factor of Anderson & Bjorck,
    BIT 13, 423 (1973)): a point on the same side as the last one scales
    the kept end's value by 1 - f(x)/f(replaced), or by 1/2 when that is
    not positive, so a convex f cannot pin one end.  It bisects while an
    end's value is infinite, and keeps interpolated points xtol/2 inside
    the bracket, so a step next to the zero closes it.  An exact zero
    closes the bracket on that point.  When neither that point nor the
    midpoint lies strictly inside (the ends are adjacent floats, an xtol
    below their spacing) it stops there.

    Where f is nearly flat the scaling factor nears 0 and the next point
    lands beside the kept end, so a bracket reaching far into a flat tail
    can take more steps than bisection.  The root finders' doubling
    brackets are a factor of two wide.
    """
    half = 0.5 * xtol
    side = 0
    while b - a > xtol:
        if fa < math.inf and fb > -math.inf:
            x = a + (b - a) * (fa / (fa - fb))
        else:
            x = 0.5 * (a + b)
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


def _warm_bracket(f, a: float, b: float, c: float, w: float):
    """A bracket of the decreasing f's sign change in [a, b], from a probe
    at c in [a, b].

    The sign of f(c) tells which side holds the change: the search steps w
    toward it and, if the sign holds there too, goes to the end of [a, b]
    on that side.  Returns (l, fl, r, fr) for the cold search's end rules:
    l is a or fl > 0, and r is b or fr < 0.  A point where f is 0 or NaN
    closes the search on itself, as in _bracket_sign_change, and is
    returned as l and r.  c = a with w = inf probes a, then b.
    """
    fc = f(c)
    s, end = (1.0, b) if fc > 0.0 else (-1.0, a)
    if c == end or not s * fc > 0.0:
        return c, fc, c, fc
    x = c + s * w
    if not s * (end - x) > 0.0:
        x = end
    fx = f(x)
    if s * fx > 0.0 and x != end:
        c, fc, x = x, fx, end
        fx = f(x)
    if not (fx > 0.0 or fx < 0.0):
        return x, fx, x, fx
    return (c, fc, x, fx) if s > 0.0 else (x, fx, c, fc)


def _worst_case_correlation(
    xm: _XMoments,
    V_p_B: float,
    direction: ReconciliationDirection,
    lo: float,
    hi: float,
    start: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Maximize the Holevo bound over the physical correlation interval.

    The conditional entropy does not depend on the correlation, so only
    the joint entropy is searched.  It is concave in the correlation on
    the interval (the tests check the result against a dense grid), so its
    slope (_entropy_slope) falls from positive to negative across it.  The
    slope is taken xtol/2 inside each end; if it already points outward
    there, the maximum lies within xtol of that end.  Otherwise
    _bracket_sign_change closes on the slope's zero.  xtol is
    WORST_CASE_XTOL times min(1, hi - lo), but not below a few ulps of
    C_p: near a pure state the entropy can vary by 5e-11 across an
    interval 1e-11 wide.  hi stays a candidate, lo does not: at both ends
    of the interval C0 -+ h, nu_minus = 1 and the entropy is g(nu_plus),
    nu_plus**2 = v b (v V_p_B - C_p**2), where C0 = -c_x/(v b) < 0 makes
    lo**2 - hi**2 = -4 C0 h > 0, so lo holds less entropy than hi.

    _warm_bracket finds the sign change from a probe at c: cold, c is
    lo + xtol/2 and w is inf, so both ends are probed.  start = (t, step)
    puts c at lo + t (hi - lo) with w = max(min(step, 0.25) (hi - lo),
    2 xtol); the result can then differ from the cold search's in the last
    digits, within the final bracket.
    """
    s_cond = _conditional_entropy(xm, V_p_B, direction)
    ob = _observe(xm, V_p_B)
    ulp = math.ulp(max(abs(lo), abs(hi)))
    xtol = max(WORST_CASE_XTOL * min(1.0, hi - lo), 8.0 * ulp)
    half = 0.5 * xtol
    a, b = lo + half, hi - half
    refined = 0.5 * (lo + hi)
    if a < b:
        slope = partial(_entropy_slope, ob)
        c, w = a, math.inf
        if start is not None:
            t, step = start
            c = min(max(lo + t * (hi - lo), a), b)
            w = max(min(step, 0.25) * (hi - lo), 2.0 * xtol)
        a, fa, b, fb = _warm_bracket(slope, a, b, c, w)
        if not fa > 0.0:
            refined = a
        elif not fb < 0.0:
            refined = b
        else:
            a, b = _bracket_sign_change(slope, a, fa, b, fb, xtol)
            refined = 0.5 * (a + b)

    # the first of the candidates hi, refined whose entropy is larger
    cp, s_ab = hi, _joint_entropy(ob, hi)
    s_refined = _joint_entropy(ob, refined)
    if s_refined > s_ab:
        cp, s_ab = refined, s_refined
    return cp, _floor_holevo(s_ab - s_cond)


def key_rate(
    params: ProtocolParams,
    chan: ChannelParams,
    V_p_B: float,
    direction: ReconciliationDirection,
) -> SecurityAssessment:
    """Worst-case asymptotic key rate for an observed p variance.

    K = beta * I - max over physical C_p of the Holevo bound.  May be
    negative.  holevo equals holevo_bound at worst_Cp: the conditional
    entropy takes an eigenvalue rounded below 1 (V_p_B up to VERTEX_SLACK
    below the vertex) as a pure mode.  Raises UnphysicalObservation when no
    physical state matches the observed V_p_B.  The sweeps call its core,
    _key_rate, which builds no records.
    """
    mi, chi, worst_cp, interval = _key_rate(params, chan.eta_x, chan.eps_x, V_p_B, direction)
    return SecurityAssessment(mi, chi, params.beta * mi - chi, worst_cp, interval)


def _key_rate(
    params: ProtocolParams,
    eta_x: float,
    eps_x: float,
    V_p_B: float,
    direction: ReconciliationDirection,
    start: tuple[float, float] | None = None,
) -> tuple[float, float, float, tuple[float, float]]:
    """key_rate's checks and search, on an (eta_x, eps_x) that the caller
    has checked as ChannelParams does.

    Returns (mutual_info, holevo, worst_Cp, Cp_interval); start goes to
    _worst_case_correlation, and without it the result is key_rate's.
    """
    xm = _x_moments(params, eta_x, eps_x)
    interval = _interval(_parabola(xm, params, eta_x, eps_x), V_p_B)
    if interval is None:
        raise UnphysicalObservation(
            f"V_p_B={V_p_B!r} lies below the physicality parabola vertex"
        )
    mi = _mutual_information(params, eta_x, xm.b)
    try:
        worst_cp, chi = _worst_case_correlation(xm, V_p_B, direction, *interval, start)
    except (ZeroDivisionError, TypeError) as exc:
        # a zero nu_plus**2, or a complex nu_minus from a determinant that
        # rounding made negative: the inputs are beyond double precision
        raise DomainError(
            f"the two-mode kernel lost all precision at V_p_B={V_p_B!r}: {exc}"
        ) from exc
    if not math.isfinite(chi):
        raise _not_finite("worst-case Holevo bound")
    return mi, chi, worst_cp, interval


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
