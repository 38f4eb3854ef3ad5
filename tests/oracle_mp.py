"""The tests' independent references for the worst-case key rate.

- _mp_*: the shared state's entropies and the key rate at 60 digits from
  the float inputs, the rate's maximum over C_p by golden section;
- grid_holevo: the Holevo bound on a dense float C_p grid through the
  array kernel, as region maps take it;
- strong_modulation_rate: the worst-case rate's V_M -> oo limit;
- independent_dr_rate: the DR rate rebuilt from the generic Gaussian
  functions, sharing no code with protocol.py.

golden_max is the one golden-section search behind them.  The module is
not named oracle.py: pytest imports tests/ first, and that cached module
would shadow perfbench/oracle.py.
"""

import math

import mpmath
import numpy as np

from udcvqkd import ReconciliationDirection, entropy_g
from udcvqkd.gaussian import (
    CovMatrix,
    Quadrature,
    QuadratureSelector,
    condition_on_homodyne,
    symplectic_eigenvalues,
    symplectic_form,
)
from udcvqkd.protocol import (
    _conditional_entropy,
    _g_mu,
    _g_mu_array,
    _margins,
    _observe,
    _symplectic_pair,
    _x_moments,
)

DR = ReconciliationDirection.DIRECT


def golden_max(f, a, b, steps):
    """(x, f(x)) at the better of the two inner points after steps
    golden-section steps on [a, b], for f unimodal there; each step
    evaluates f once.  It computes in the arithmetic of a and b: mpf ends
    keep the working precision, and float ends stay floats."""
    sqrt = mpmath.sqrt if isinstance(a, mpmath.mpf) else math.sqrt
    inv_golden = (sqrt(5) - 1) / 2
    c, d = b - inv_golden * (b - a), a + inv_golden * (b - a)
    f_c, f_d = f(c), f(d)
    for _ in range(steps):
        if f_c < f_d:
            a, c, f_c = c, d, f_d
            d = a + inv_golden * (b - a)
            f_d = f(d)
        else:
            b, d, f_d = d, c, f_c
            c = b - inv_golden * (b - a)
            f_c = f(c)
    return (c, f_c) if f_c >= f_d else (d, f_d)


def observed(params, eta, eps, v_p_b):
    """The kernel's inputs as key_rate builds them for a physical
    observation: _observe's tuple, C0, and the conditional entropy's
    (xm, dv)."""
    xm = _x_moments(params, eta, eps)
    dv, h = _margins(xm, v_p_b)
    return _observe(xm, dv, h), xm.c0, (xm, dv)


def _mp_g(nu):
    if nu <= 1:
        return mpmath.mpf(0)
    a, b = (nu + 1) / 2, (nu - 1) / 2
    return a * mpmath.log(a, 2) - b * mpmath.log(b, 2)


def _mp_joint_entropy(params, chan, c_p, v_p_b):
    """g(nu_+) + g(nu_-) at the working precision, with nu_+-**2 the roots
    of x**2 - Delta x + det(gamma) for the shared state gamma."""
    v, cx, vxb = _mp_moments(params, chan)
    vpb = mpmath.mpf(v_p_b)
    delta = v**2 + vxb * vpb + 2 * cx * c_p
    det = (v * vxb - cx**2) * (v * vpb - c_p**2)
    # the eigenvalues are real, so only rounding makes this negative, where
    # they meet (a pure state)
    split = mpmath.sqrt(abs(delta**2 - 4 * det))
    return _mp_g(mpmath.sqrt((delta + split) / 2)) + _mp_g(mpmath.sqrt((delta - split) / 2))


def _mp_moments(params, chan):
    """v, c_x and v_x_b at the working precision from the float inputs."""
    v_s, v_m, eta, eps = (mpmath.mpf(x) for x in (params.V_S, params.V_M, chan.eta_x, chan.eps_x))
    v = mpmath.sqrt(1 + v_m / v_s)
    return v, mpmath.sqrt(eta * v_m * v), eta * (v_s + v_m + eps) + 1 - eta


def _mp_conditional_entropy(params, chan, v_p_b, direction):
    """Entropy of the state left after the reference side's homodyne, at
    the working precision."""
    v, cx, vxb = _mp_moments(params, chan)
    if direction is DR:
        return _mp_g(mpmath.sqrt((vxb - cx**2 / v) * mpmath.mpf(v_p_b)))
    return _mp_g(mpmath.sqrt((v - cx**2 / vxb) * v))


def _mp_holevo(params, chan, c_p, v_p_b, direction):
    """Holevo information at 50 digits from the float inputs, with the
    symplectic spectrum taken from the eigenvalues of i.Omega.gamma."""
    with mpmath.workdps(50):
        v, cx, vxb = _mp_moments(params, chan)
        cp, vpb = mpmath.mpf(c_p), mpmath.mpf(v_p_b)
        gamma = mpmath.matrix([[v, 0, cx, 0], [0, v, 0, cp], [cx, 0, vxb, 0], [0, cp, 0, vpb]])
        omega = mpmath.matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        spectrum = mpmath.eig(mpmath.mpc(0, 1) * omega * gamma, left=False, right=False)
        nus = sorted(abs(ev) for ev in spectrum)  # (nu_-, nu_-, nu_+, nu_+)
        return (_mp_g(nus[0]) + _mp_g(nus[2])
                - _mp_conditional_entropy(params, chan, v_p_b, direction))


def _mp_key_rate(params, chan, v_p_b, direction, delta=None, interval=None):
    """The key rate at 60 digits: at C_p = C0 + delta, with C0 exact and
    the float delta, or at the joint entropy's maximum over the float
    interval, taken by a 110-step golden section (the entropy is concave
    in C_p) with both ends as candidates."""
    with mpmath.workdps(60):
        v, cx, vxb = _mp_moments(params, chan)
        mutual_info = mpmath.log(vxb / (vxb - cx**2 / v), 2) / 2
        if delta is not None:
            s_ab = _mp_joint_entropy(params, chan, mpmath.mpf(delta) - cx / (v * vxb - cx**2),
                                     v_p_b)
        else:
            def joint(c_p):
                return _mp_joint_entropy(params, chan, c_p, v_p_b)

            inner = golden_max(joint, *(mpmath.mpf(x) for x in interval), 110)[1]
            s_ab = max(inner, *(joint(x) for x in interval))
        chi = s_ab - _mp_conditional_entropy(params, chan, v_p_b, direction)
        return params.beta * mutual_info - chi


def grid_holevo(params, eta, eps, v_p_b, direction):
    """The Holevo bound on 1001 float C_p across the interval, through the
    kernel on arrays, as region maps take it: delta = C_p - C0, clipped to
    [-h, h] as key_rate clips it.  The top point is then key_rate's hi
    candidate, which fl(C0 + h) - C0 can move off h."""
    ob, c0, (xm, dv) = observed(params, eta, eps, v_p_b)
    h = ob[0]
    delta = np.clip(np.linspace(c0 - h, c0 + h, 1001) - c0, -h, h)
    rows = _observe(xm, np.array([[dv]]), np.array([[h]]), np.sqrt)
    with np.errstate(invalid="ignore"):  # a pure state's 0/0, which counts as 0
        mu_plus, mu_minus = _symplectic_pair(rows, delta, np.sqrt)
    return (_g_mu_array(mu_plus) + _g_mu_array(mu_minus)
            - _conditional_entropy(xm, dv, direction))


def strong_modulation_rate(v_s, eta, eps, v_p_b, direction, u=None):
    """The worst-case key rate as V_M -> oo at fixed (V_S, eta, eps, V_p_B),
    beta 1, with C_p at u = delta/h in [-1, 1], or at the worst u.

    With a = 1 - eta + eta eps, b = a + eta V_S and dv = V_p_B - 1/b
    clamped at 0, mu_plus -> V_M T(u) with T(u) = p**2 + 2 u p q + q**2,
    p**2 = a/(V_S b), q**2 = eta dv, and mu_minus -> (a dv/V_S)(1 - u**2)/T(u).
    I -> log2(eta V_M/b)/2 and G(mu_plus) -> log2(V_M T(u))/2 + log2(e/2),
    so V_M drops out:
    K = log2(eta/b)/2 - log2(e/2) + S_cond - max over u of
    [log2(T(u))/2 + G(mu_minus(u))], with S_cond G(b dv) for DR and
    G(a/(eta V_S)) for RR.  The bracket is concave in u, the limit of the
    concave S_AB less its V_M terms, so an 80-step golden section with
    u = 1 as a candidate finds its maximum.
    """
    a = (1.0 - eta) + eta * eps
    b = a + eta * v_s
    dv = max(v_p_b - 1.0 / b, 0.0)
    p2, q2 = a / (v_s * b), eta * dv
    pq = math.sqrt(p2 * q2)

    def bracket(u):
        t = p2 + 2.0 * u * pq + q2
        return 0.5 * math.log2(t) + _g_mu(a * dv / v_s * (1.0 - u * u) / t)

    if u is not None:
        top = bracket(u)
    else:
        top = max(golden_max(bracket, -1.0, 1.0, 80)[1], bracket(1.0))
    s_cond = _g_mu(b * dv) if direction is DR else _g_mu(a / (eta * v_s))
    return 0.5 * math.log2(eta / b) - math.log2(math.e / 2.0) + s_cond - top


def independent_dr_rate(v_s, v_m, eta, eps, grid_points=201):
    """Worst-case DR key rate rebuilt from the generic Gaussian functions.

    Shares no code with protocol.py: the state is a squeezed two-mode
    squeezed vacuum sent through the symmetric channel, the physical C_p
    interval comes from the uncertainty principle, the mutual information
    from homodyne conditioning, and the worst case is a dense grid maximum.
    """
    omega = 1j * symplectic_form(2)

    def state(c_p):
        v = np.sqrt(1.0 + v_m / v_s)
        c = np.sqrt(v * v - 1.0)
        tmsv = np.array([[v, 0, c, 0], [0, v, 0, -c], [c, 0, v, 0], [0, -c, 0, v]])
        s = np.sqrt((v_s + v_m) / v)
        squeeze = np.diag([1.0, 1.0, s, 1.0 / s])
        g = squeeze @ tmsv @ squeeze
        g[0, 2] = g[2, 0] = np.sqrt(eta) * g[0, 2]
        g[2, 2] = eta * (g[2, 2] + eps) + 1.0 - eta
        g[3, 3] = eta * (g[3, 3] + eps) + 1.0 - eta
        g[1, 3] = g[3, 1] = c_p
        return g

    def slack(c_p):
        return np.linalg.eigvalsh(state(c_p) + omega)[0]

    def entropy(g):
        return sum(entropy_g(max(nu, 1.0)) for nu in symplectic_eigenvalues(CovMatrix(g)))

    # slack is concave in C_p: golden-section its maximum inside the
    # positive-definite range, then bisect each edge from the inside
    bound = np.sqrt(state(0.0)[1, 1] * state(0.0)[3, 3])
    centre, top = golden_max(slack, -bound, bound, 100)
    assert top >= 0.0
    edges = []
    for outside in (-bound, bound):
        inside = centre
        for _ in range(60):
            mid = 0.5 * (inside + outside)
            if slack(mid) >= 0.0:
                inside = mid
            else:
                outside = mid
        edges.append(inside)

    joint = CovMatrix(state(centre))
    after_alice = condition_on_homodyne(joint, QuadratureSelector(Quadrature.X, 0))
    mutual_info = 0.5 * np.log2(joint.mat[2, 2] / after_alice.mat[0, 0])
    chi = max(entropy(state(c_p)) for c_p in np.linspace(*edges, grid_points))
    return mutual_info - (chi - entropy(after_alice.mat))
