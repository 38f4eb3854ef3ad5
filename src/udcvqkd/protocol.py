"""Unidimensional CV QKD protocol: states, channels, bounds, key rates.

The sender Gaussian-modulates a single quadrature (x) of a squeezed,
coherent, or antisqueezed signal state; the receiver homodynes the same
quadrature.  The correlation of the unmodulated p quadrature across the
channel is unknown to the trusted parties, so security is evaluated at the
value of that correlation, allowed by the uncertainty principle, that
maximizes the eavesdropper's Holevo information.

All operations are pure functions with no shared state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    NonPositiveDefinite,
    UnphysicalObservation,
    UnphysicalState,
)
from .gaussian import CovMatrix, entropy_g

LOG2E = math.log2(math.e)

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


@dataclass(frozen=True)
class ChannelParams:
    """Per-quadrature transmittances and input-referred excess noises.

    Transmittances must lie in (0, 1]; the zero-transmittance limit is
    excluded.  Excess noise is in shot-noise units.
    """

    eta_x: float
    eta_p: float
    eps_x: float = 0.0
    eps_p: float = 0.0

    def __post_init__(self):
        _check_finite(eta_x=self.eta_x, eta_p=self.eta_p, eps_x=self.eps_x, eps_p=self.eps_p)
        for name in ("eta_x", "eta_p"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise DomainError(f"{name} must lie in (0, 1]")
        for name in ("eps_x", "eps_p"):
            if not getattr(self, name) >= 0.0:
                raise DomainError(f"{name} must be nonnegative")

    @classmethod
    def symmetric(cls, eta: float, eps: float = 0.0) -> "ChannelParams":
        """Phase-insensitive channel: same transmittance and noise in x and p."""
        return cls(eta_x=eta, eta_p=eta, eps_x=eps, eps_p=eps)


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
    physical: bool


def build_eb_state(params: ProtocolParams) -> CovMatrix:
    """Entanglement-based two-mode state equivalent to the modulated source.

    A two-mode squeezed vacuum of variance V = sqrt(1 + V_M/V_S) with one
    mode squeezed so that homodyning x on mode A conditionally prepares
    diag(V_S, 1/V_S) in mode B, while mode B alone carries
    diag(V_S + V_M, 1/V_S), the modulated signal sent into the channel.
    The state is pure by construction.
    """
    v = params.tmsv_variance
    c_x = math.sqrt(v * params.V_M)
    c_p = -math.sqrt(params.V_M / v) / params.V_S
    mat = np.array(
        [
            [v, 0.0, c_x, 0.0],
            [0.0, v, 0.0, c_p],
            [c_x, 0.0, params.V_S + params.V_M, 0.0],
            [0.0, c_p, 0.0, 1.0 / params.V_S],
        ]
    )
    return CovMatrix(mat)


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
    return _XMoments(
        v=v,
        c_x=math.sqrt(eta_x * params.V_M) * math.sqrt(v),
        v_x_b=b + eta_x * params.V_M,
        b=b,
    )


def _x_noise(V_S: float, eta_x: float, eps_x: float) -> float:
    """b = 1 - eta_x + eta_x (V_S + eps_x), Bob's x variance given Alice's
    data.

    Both terms are nonnegative, so b keeps its relative precision, and
    stays positive, when eta_x is near 1 and V_S + eps_x is small; written
    as eta_x (V_S + eps_x - 1) + 1 it cancels there, and the conditional
    entropy, with g's infinite slope at 1, then overshoots the joint one.
    """
    return (1.0 - eta_x) + eta_x * (V_S + eps_x)


def _symplectic_pair(xm: _XMoments, c_p, v_p_b: float):
    """Symplectic eigenvalues (nu_plus, nu_minus) of the shared state.

    Closed form for two modes (Serafini, Illuminati & De Siena, J. Phys. B
    37, L21 (2004)).  With decoupled quadratures, nu**2 are the
    eigenvalues of X P, the product of the x and p blocks, whose trace and
    determinant are the two symplectic invariants
    Delta = v**2 + v_x_b v_p_b + 2 c_x c_p and det = v b (v v_p_b - c_p**2).
    Their split nu_plus**2 - nu_minus**2 is taken from the entries of X P,
    (a - d)**2 + 4 b c, not from Delta**2 - 4 det, which cancels to
    sqrt(rounding) on near-pure states; nu_minus**2 is det / nu_plus**2,
    which does not cancel under strong modulation.  c_p is a float or a
    numpy array; the state must be positive definite.
    """
    v, c_x, v_x_b, b = xm
    delta = v * v + v_x_b * v_p_b + 2.0 * c_x * c_p
    det = v * b * (v * v_p_b - c_p * c_p)
    diag = v * v - v_x_b * v_p_b
    off = (v * c_p + c_x * v_p_b) * (c_x * v + v_x_b * c_p)
    split = abs(diag * diag + 4.0 * off) ** 0.5
    nu_plus_sq = 0.5 * (delta + split)
    return nu_plus_sq ** 0.5, (det / nu_plus_sq) ** 0.5


def _entropy_slope(xm: _XMoments, c_p: float, v_p_b: float) -> float:
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
    the same invariants as in _symplectic_pair, written out here because
    this runs about ten times per key_rate.
    """
    v, c_x, v_x_b, b = xm
    delta = v * v + v_x_b * v_p_b + 2.0 * c_x * c_p
    det = v * b * (v * v_p_b - c_p * c_p)
    diag = v * v - v_x_b * v_p_b
    off = (v * c_p + c_x * v_p_b) * (c_x * v + v_x_b * c_p)
    s = 0.5 * (delta + abs(diag * diag + 4.0 * off) ** 0.5)
    t = det / s
    d_delta = 2.0 * c_x
    d_det = -2.0 * v * b * c_p
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


def apply_channel(
    params: ProtocolParams, chan: ChannelParams, C_p: float
) -> CovMatrix:
    """State shared between the parties after the phase-sensitive channel.

    The x side is fixed by the channel; the p correlation C_p is supplied
    by the caller because the trusted parties cannot measure it
    (physicality of the result is tested separately, not here).  Bob's p
    variance is modeled as eta_p (1/V_S + eps_p) + 1 - eta_p, i.e. with
    the channel's vacuum contribution included.
    """
    xm = _x_moments(params, chan.eta_x, chan.eps_x)
    v_p_b = chan.eta_p * (1.0 / params.V_S + chan.eps_p) + 1.0 - chan.eta_p
    return CovMatrix(
        np.array(
            [
                [xm.v, 0.0, xm.c_x, 0.0],
                [0.0, xm.v, 0.0, C_p],
                [xm.c_x, 0.0, xm.v_x_b, 0.0],
                [0.0, C_p, 0.0, v_p_b],
            ]
        )
    )


def mutual_information(params: ProtocolParams, chan: ChannelParams) -> float:
    """Classical mutual information (bits) of the modulated quadrature.

    (1/2) log2[1 + eta_x V_M / (1 + eta_x (V_S + eps_x - 1))]; identical
    for direct and reverse reconciliation.
    """
    snr = chan.eta_x * params.V_M / _x_noise(params.V_S, chan.eta_x, chan.eps_x)
    mi = 0.5 * math.log2(1.0 + snr)
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
    return _parabola(_x_moments(params, chan.eta_x, chan.eps_x), params, chan)


def _parabola(xm: _XMoments, params: ProtocolParams, chan: ChannelParams):
    vb = xm.v * xm.b
    n11 = params.V_M * ((1.0 - chan.eta_x) + chan.eta_x * chan.eps_x) / params.V_S
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
    _check_finite(V_p_B=V_p_B)
    if not V_p_B > 0.0:
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
    counts as a pure mode.  Raises UnphysicalState for any other C_p,
    NonPositiveDefinite for a singular state and DomainError when V_p_B
    is not positive and finite.
    """
    xm = _x_moments(params, chan.eta_x, chan.eps_x)
    parabola = _parabola(xm, params, chan)
    interval = _interval(parabola, V_p_B)
    if interval is not None:
        lo, hi = _interval(parabola, V_p_B + 8.0 * math.ulp(V_p_B))
        reach = 8.0 * math.ulp(max(abs(lo), abs(hi)))
    if interval is None or not lo - reach <= C_p <= hi + reach:
        raise UnphysicalState(f"two-mode state with C_p={C_p!r}, V_p_B={V_p_B!r} is unphysical")
    C_p = min(max(C_p, interval[0]), interval[1])
    if not xm.v * V_p_B > C_p * C_p:
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    nu_plus, nu_minus = _symplectic_pair(xm, C_p, V_p_B)
    nu_cond = _conditional_nu(xm, V_p_B, direction)
    s_cond = entropy_g(max(nu_cond, 1.0))
    chi = _floor_holevo(_g(nu_plus) + _g(nu_minus) - s_cond)
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


def _worst_case_correlation(
    xm: _XMoments,
    V_p_B: float,
    direction: ReconciliationDirection,
    lo: float,
    hi: float,
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
    interval 1e-11 wide.  Both endpoints stay candidates.
    """
    s_cond = entropy_g(_conditional_nu(xm, V_p_B, direction))

    def joint_entropy(cp: float) -> float:
        nu_plus, nu_minus = _symplectic_pair(xm, cp, V_p_B)
        return _g(nu_plus) + _g(nu_minus)

    ulp = math.ulp(max(abs(lo), abs(hi)))
    xtol = max(WORST_CASE_XTOL * min(1.0, hi - lo), 8.0 * ulp)
    half = 0.5 * xtol
    a, b = lo + half, hi - half
    refined = 0.5 * (lo + hi)
    if a < b:
        fa = _entropy_slope(xm, a, V_p_B)
        fb = _entropy_slope(xm, b, V_p_B)
        if not fa > 0.0:
            refined = a
        elif not fb < 0.0:
            refined = b
        else:
            a, b = _bracket_sign_change(lambda cp: _entropy_slope(xm, cp, V_p_B),
                                        a, fa, b, fb, xtol)
            refined = 0.5 * (a + b)

    candidates = [
        (lo, joint_entropy(lo)),
        (hi, joint_entropy(hi)),
        (refined, joint_entropy(refined)),
    ]
    cp, s_ab = max(candidates, key=lambda pair: pair[1])
    return cp, _floor_holevo(s_ab - s_cond)


def key_rate(
    params: ProtocolParams,
    chan: ChannelParams,
    V_p_B: float,
    direction: ReconciliationDirection,
) -> SecurityAssessment:
    """Worst-case asymptotic key rate for an observed p variance.

    K = beta * I - max over physical C_p of the Holevo bound.  May be
    negative.  Raises UnphysicalObservation when no physical state matches
    the observed V_p_B.
    """
    xm = _x_moments(params, chan.eta_x, chan.eps_x)
    interval = _interval(_parabola(xm, params, chan), V_p_B)
    if interval is None:
        raise UnphysicalObservation(
            f"V_p_B={V_p_B!r} lies below the physicality parabola vertex"
        )
    mi = mutual_information(params, chan)
    try:
        worst_cp, chi = _worst_case_correlation(xm, V_p_B, direction, *interval)
    except (ZeroDivisionError, TypeError) as exc:
        # a zero nu_plus**2, or a complex nu_minus from a determinant that
        # rounding made negative: the inputs are beyond double precision
        raise DomainError(
            f"the two-mode kernel lost all precision at V_p_B={V_p_B!r}: {exc}"
        ) from exc
    if not math.isfinite(chi):
        raise _not_finite("worst-case Holevo bound")
    return SecurityAssessment(
        mutual_info=mi,
        holevo=chi,
        key_rate=params.beta * mi - chi,
        worst_Cp=worst_cp,
        Cp_interval=interval,
        physical=True,
    )


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
    channel; it is provided for comparison only.
    """
    _check_finite(eta=eta, eps_p=eps_p)
    if not 0.0 < eta <= 1.0:
        raise DomainError("eta must lie in (0, 1]")
    if not eps_p >= 0.0:
        raise DomainError("eps_p must be nonnegative")
    out = eta * (1.0 / params.V_S + eps_p)
    return out if strict_paper else out + (1.0 - eta)


def _check_eta_open(eta: float) -> None:
    if not 0.0 < eta < 1.0:
        raise DomainError("eta must lie strictly inside (0, 1)")


def asymptotic_key_rate_dr(V_S: float, eta: float) -> float:
    """Strong-modulation limit of the direct-reconciliation key rate with
    C_p pinned at the upper end of the physical interval.

    Closed form for a symmetric noiseless channel.  It is an upper bound on
    the strong-modulation limit of the worst-case key_rate, which maximizes
    the Holevo bound over the whole interval; the two approach each other
    as V_S -> 1 (degenerate interval) and as eta -> 1.  Diverges at
    V_S = 1; use the coherent variant there.
    """
    _check_eta_open(eta)
    _check_finite(V_S=V_S)
    if not V_S > 0.0:
        raise DomainError("V_S must be positive")
    if V_S == 1.0:
        raise DomainError("V_S = 1 has a separate closed form (coherent variant)")
    # With c = sqrt(1 + u), u = eta (1 - eta) (V_S - 1)**2 / V_S and
    # s = eta |1 - V_S|, the rate is log2(e) (c atanh(1/c) - 1) + log2(s / (1 + s)).
    # c atanh(1/c) and log2(s) diverge as u -> 0 (eta -> 0, or V_S -> 1)
    # and cancel: atanh(1/c) + ln s = ln(1 + c) + ln(eta V_S / (1 - eta)) / 2.
    # What is left, (c - 1) atanh(1/c), vanishes with u.
    u = eta * (1.0 - eta) * (V_S - 1.0) * (1.0 - 1.0 / V_S)
    c = math.sqrt(1.0 + u)
    c_minus_1 = u / (1.0 + c)
    rest = 0.5 * c_minus_1 * math.log1p(2.0 / c_minus_1) if c_minus_1 > 1e-300 else 0.0
    diverging = math.log1p(c) + 0.5 * (math.log(eta) + math.log(V_S) - math.log1p(-eta))
    return LOG2E * (diverging + rest - 1.0 - math.log1p(eta * abs(1.0 - V_S)))


def asymptotic_key_rate_dr_coherent(eta: float) -> float:
    """Strong-modulation direct-reconciliation limit for coherent states
    with C_p pinned at the upper end of the physical interval.

    An upper bound on the strong-modulation limit of the worst-case
    key_rate on a symmetric noiseless channel, and equal to it: at V_S = 1
    the interval is degenerate.
    """
    _check_eta_open(eta)
    return math.log2(2.0 * eta) - 0.5 * math.log2(eta * (1.0 - eta)) - LOG2E


def asymptotic_key_rate_rr(V_S: float, eta: float) -> float:
    """Strong-modulation limit of the reverse-reconciliation key rate with
    C_p pinned at the upper end of the physical interval.

    Closed form for a symmetric noiseless channel.  It is an upper bound on
    the strong-modulation limit of the worst-case key_rate, which maximizes
    the Holevo bound over the whole interval; the two approach each other
    as V_S -> 1 (degenerate interval) and as eta -> 1.  Diverges at
    V_S = 1 (the |1 - V_S| term) and as the conditional eigenvalue D
    approaches 1; use the coherent variant at V_S = 1.
    """
    _check_eta_open(eta)
    _check_finite(V_S=V_S)
    if not V_S > 0.0:
        raise DomainError("V_S must be positive")
    if V_S == 1.0:
        raise DomainError("V_S = 1 has a separate closed form (coherent variant)")
    # D = sqrt((1 + eta (V_S - 1)) / (eta V_S)) overflows as eta V_S -> 0,
    # so work with r = 1/D: (D/2) log2((D + 1)/(D - 1)) is
    # log2(e) log1p(2r / (1 - r)) / (2r), which tends to log2(e) as r -> 0.
    # 1 - r = (1 - eta) / (den (1 + r)) does not cancel as r -> 1.
    den = (1.0 - eta) + eta * V_S
    r = math.sqrt(eta * V_S / den)
    if r >= 1.0 / (1.0 + 1e-12):
        raise DomainError(f"conditional eigenvalue D={1.0 / r!r} too close to 1")
    x = 2.0 * r * (1.0 + r) * den / (1.0 - eta)
    half_d_log = math.log1p(x) / (2.0 * r) if r > 0.0 else 1.0
    return LOG2E * (half_d_log - 1.0) - math.log2(1.0 + eta * abs(1.0 - V_S))


def asymptotic_key_rate_rr_coherent(eta: float) -> float:
    """Strong-modulation reverse-reconciliation limit for coherent states
    with C_p pinned at the upper end of the physical interval.

    An upper bound on the strong-modulation limit of the worst-case
    key_rate on a symmetric noiseless channel, and equal to it: at V_S = 1
    the interval is degenerate.  (1/ln 2) [arctanh(sqrt(eta))/sqrt(eta) - 1];
    approaches eta * log2(e) / 3 for small eta and diverges as eta -> 1.
    """
    _check_eta_open(eta)
    root = math.sqrt(eta)
    return (math.atanh(root) / root - 1.0) / math.log(2.0)
