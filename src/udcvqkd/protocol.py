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
from .gaussian import CovMatrix, PHYSICALITY_TOL, entropy_g

LOG2E = math.log2(math.e)

# Numerical policy for the worst-case correlation search: the final
# bracket is WORST_CASE_XTOL wide, or that fraction of a narrower interval.
WORST_CASE_XTOL = 1e-10
HOLEVO_FLOOR_TOL = 1e-9
# Observations this close below the parabola vertex are treated as sitting
# on it, so that exactly-critical channels (e.g. pure loss on a coherent
# state) survive floating-point rounding.
VERTEX_SLACK = 1e-12
# A symplectic eigenvalue this far below 1 in a state that passed the
# physicality test is rounding on the boundary; entries of order V_M put
# it about V_M * 1e-16 below 1.
BOUNDARY_NU_TOL = 1e-7

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


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


@dataclass(frozen=True)
class ObservedStats:
    """Second moments the trusted parties can estimate.

    The x-quadrature correlation C_x is known from the modulation data;
    the p-quadrature correlation is deliberately absent because it cannot
    be estimated without modulating p.
    """

    V_x_B: float
    V_p_B: float
    C_x: float

    def __post_init__(self):
        if not (self.V_x_B > 0.0 and self.V_p_B > 0.0):
            raise DomainError("observed variances must be positive")

    @classmethod
    def from_parameters(
        cls,
        params: ProtocolParams,
        chan: ChannelParams,
        strict_paper_vpb: bool = False,
    ) -> "ObservedStats":
        xm = _x_moments(params, chan.eta_x, chan.eps_x)
        v_p = chan.eta_p * (1.0 / params.V_S + chan.eps_p)
        if not strict_paper_vpb:
            v_p += 1.0 - chan.eta_p
        return cls(V_x_B=xm.v_x_b, V_p_B=v_p, C_x=xm.c_x)


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
    Bob's x variance, and b = eta_x (V_S + eps_x - 1) + 1.  They satisfy
    v * v_x_b - c_x**2 = v * b exactly, which the kernel below uses in
    place of that cancelling difference.
    """

    v: float
    c_x: float
    v_x_b: float
    b: float


def _x_moments(params: ProtocolParams, eta_x: float, eps_x: float) -> _XMoments:
    v = params.tmsv_variance
    return _XMoments(
        v=v,
        c_x=math.sqrt(eta_x * params.V_M) * math.sqrt(v),
        v_x_b=eta_x * (params.V_S + params.V_M + eps_x) + 1.0 - eta_x,
        b=eta_x * (params.V_S + eps_x - 1.0) + 1.0,
    )


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


def _g_array(nu: np.ndarray) -> np.ndarray:
    """_g over a numpy array."""
    m = 0.5 * (nu - 1.0)
    out = np.zeros_like(m)
    above = m > 0.0
    m = m[above]
    out[above] = (np.log1p(m) + m * np.log1p(1.0 / m)) * LOG2E
    return out


def _physical(xm: _XMoments, c_p, v_p_b: float, tol: float):
    """Uncertainty-principle test of the shared state: gamma + i.Omega >= -tol.

    With X and P the x and p blocks of gamma this is exactly
    (P + tol) - (X + tol)^-1 >= 0, a 2x2 test, done here multiplied through
    by det(X + tol) = v b + tol (v + v_x_b + tol).  c_p is a float or a
    numpy array.
    """
    v, c_x, v_x_b, b = xm
    det_x = v * b + tol * (v + v_x_b + tol)
    n11 = (v + tol) * det_x - (v_x_b + tol)
    n22 = (v_p_b + tol) * det_x - (v + tol)
    n12 = c_p * det_x + c_x
    return (n11 >= 0.0) & (n22 >= 0.0) & (n12 * n12 <= n11 * n22)


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
    snr = chan.eta_x * params.V_M / (1.0 + chan.eta_x * (params.V_S + chan.eps_x - 1.0))
    return 0.5 * math.log2(1.0 + snr)


def physicality_parabola(
    params: ProtocolParams, chan: ChannelParams
) -> tuple[float, float, float]:
    """Vertex and curvature of the physicality bound on the p correlation.

    Returns (V0, C0, coeff): the unknown correlation C_p is compatible
    with the uncertainty principle iff

        (C_p - C0)**2 <= coeff * (V_p_B - V0).

    Only the x-quadrature channel parameters enter.
    """
    v0 = 1.0 / (1.0 + chan.eta_x * (params.V_S + chan.eps_x - 1.0))
    c0 = (
        -v0
        * math.sqrt(chan.eta_x * params.V_M)
        / (params.V_M / params.V_S + 1.0) ** 0.25
    )
    coeff = (
        params.V_M
        / math.sqrt(params.V_S * (params.V_S + params.V_M))
        * (1.0 - chan.eta_x * params.V_S * v0)
    )
    return v0, c0, coeff


def physicality_interval(
    params: ProtocolParams, chan: ChannelParams, V_p_B: float
) -> tuple[float, float] | None:
    """Allowed range of the unknown p correlation for an observed V_p_B.

    Returns (lo, hi), a degenerate point when the observation sits on the
    parabola vertex or the curvature vanishes, or None when no physical
    state is compatible (V_p_B below the vertex).
    """
    _check_finite(V_p_B=V_p_B)
    if not V_p_B > 0.0:
        raise DomainError("V_p_B must be positive")
    v0, c0, coeff = physicality_parabola(params, chan)
    dv = V_p_B - v0
    if dv < -VERTEX_SLACK * max(1.0, abs(v0)):
        return None
    half = math.sqrt(max(coeff, 0.0) * max(dv, 0.0))
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
    if chi < -HOLEVO_FLOOR_TOL:
        raise RuntimeError(
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
    tol: float = PHYSICALITY_TOL,
) -> float:
    """Eavesdropper's Holevo information (bits) at a specific p correlation.

    Difference between the entropy of the shared two-mode state and the
    entropy conditioned on the reference side's homodyne outcome, both
    from the closed-form symplectic eigenvalues that key_rate searches
    over.  Small negative values (within 1e-9) are clamped to zero.

    Once the state has passed the physicality test, a symplectic eigenvalue
    within 1e-7 below 1 is rounding on a boundary state and counts as a
    pure mode: at the ends of the physicality interval with V_M around 1e7
    or more it lands about 1e-8 below 1.

    Raises UnphysicalState when the two-mode state at (C_p, V_p_B) violates
    the uncertainty principle beyond tol, or beyond that rounding, and
    NonPositiveDefinite when a large tol admits a singular state.
    """
    xm = _x_moments(params, chan.eta_x, chan.eps_x)
    if not _physical(xm, C_p, V_p_B, tol):
        raise UnphysicalState(
            f"two-mode state with C_p={C_p!r}, V_p_B={V_p_B!r} is unphysical"
        )
    if not xm.v * V_p_B > C_p * C_p:
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    nu_plus, nu_minus = _symplectic_pair(xm, C_p, V_p_B)
    nu_cond = _conditional_nu(xm, V_p_B, direction)
    nu_min = min(nu_minus, nu_cond)
    if nu_min < 1.0 - BOUNDARY_NU_TOL:
        raise UnphysicalState(
            f"two-mode state with C_p={C_p!r}, V_p_B={V_p_B!r} has a "
            f"symplectic eigenvalue {nu_min!r} below 1"
        )
    s_cond = entropy_g(max(nu_cond, 1.0))
    return _floor_holevo(_g(nu_plus) + _g(nu_minus) - s_cond)


def _worst_case_correlation(
    xm: _XMoments,
    V_p_B: float,
    direction: ReconciliationDirection,
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """Maximize the Holevo bound over the physical correlation interval.

    The joint entropy is concave in the correlation on the interval (the
    tests check the result against a dense grid): golden-section search
    over the whole interval, keeping both endpoints as candidates.  The
    bracket shrinks to WORST_CASE_XTOL times min(1, hi - lo), but not
    below a few ulps of C_p: near a pure state the entropy can vary by
    5e-11 across an interval 1e-11 wide.  The conditional entropy does not
    depend on the correlation, so only the joint entropy is searched.
    """
    s_cond = entropy_g(_conditional_nu(xm, V_p_B, direction))

    def joint_entropy(cp: float) -> float:
        nu_plus, nu_minus = _symplectic_pair(xm, cp, V_p_B)
        return _g(nu_plus) + _g(nu_minus)

    ulp = math.ulp(max(abs(lo), abs(hi)))
    xtol = max(WORST_CASE_XTOL * min(1.0, hi - lo), 8.0 * ulp)
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc = joint_entropy(c)
    fd = joint_entropy(d)
    while b - a > xtol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = joint_entropy(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = joint_entropy(c)
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
    interval = physicality_interval(params, chan, V_p_B)
    if interval is None:
        raise UnphysicalObservation(
            f"V_p_B={V_p_B!r} lies below the physicality parabola vertex"
        )
    mi = mutual_information(params, chan)
    worst_cp, chi = _worst_case_correlation(
        _x_moments(params, chan.eta_x, chan.eps_x),
        V_p_B,
        direction,
        interval[0],
        interval[1],
    )
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
    c = math.sqrt((1.0 + eta * (1.0 / V_S - 1.0)) * (1.0 + eta * (V_S - 1.0)))
    s = eta * abs(1.0 - V_S)
    return LOG2E * (c * math.atanh(1.0 / c) - 1.0) + math.log2(s / (1.0 + s))


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
    d = math.sqrt((1.0 + eta * (V_S - 1.0)) / (eta * V_S))
    if d <= 1.0 + 1e-12:
        raise DomainError(f"conditional eigenvalue D={d!r} too close to 1")
    return (
        (d / 2.0) * (math.log2((d + 1.0) / 2.0) - math.log2((d - 1.0) / 2.0))
        - math.log2(1.0 + eta * abs(1.0 - V_S))
        - LOG2E
    )


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
