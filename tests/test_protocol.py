import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udcvqkd import (
    ChannelParams,
    CovMatrix,
    DomainError,
    NoPositiveRate,
    ProtocolParams,
    Quadrature,
    QuadratureSelector,
    ReconciliationDirection,
    SecurityAssessment,
    ToolkitError,
    UnphysicalObservation,
    UnphysicalState,
    apply_channel,
    asymptotic_key_rate_dr,
    asymptotic_key_rate_dr_coherent,
    asymptotic_key_rate_rr,
    asymptotic_key_rate_rr_coherent,
    build_eb_state,
    condition_on_homodyne,
    entropy_g,
    holevo_bound,
    key_rate,
    keyrate_vs_attenuation,
    max_attenuation,
    max_tolerable_noise,
    mutual_information,
    physicality_interval,
    physicality_parabola,
    symmetric_vpB,
    symplectic_eigenvalues,
    von_neumann_entropy,
)
from udcvqkd import protocol
from udcvqkd.protocol import (
    _bracket_sign_change,
    _conditional_nu,
    _entropy_slope,
    _symplectic_pair,
    _x_moments,
)
from udcvqkd.sweeps import _g_array

DR = ReconciliationDirection.DIRECT
RR = ReconciliationDirection.REVERSE

LOG2E = math.log2(math.e)


def pure_cp(params: ProtocolParams) -> float:
    """p correlation of the lossless shared state, read off the state itself."""
    return float(build_eb_state(params).mat[1, 3])


def closed_form_conditionals(params, chan, v_p_b):
    """Single-mode conditional covariances after the reference homodyne."""
    b = chan.eta_x * (params.V_S + chan.eps_x - 1.0) + 1.0
    v = params.tmsv_variance
    v_x_b = chan.eta_x * (params.V_S + params.V_M + chan.eps_x) + 1.0 - chan.eta_x
    after_alice = np.diag([b, v_p_b])
    after_bob = np.diag([v * b / v_x_b, v])
    return after_alice, after_bob


class TestParams:
    def test_rejects_bad_protocol_params(self):
        with pytest.raises(DomainError):
            ProtocolParams(V_S=0.0, V_M=1.0)
        with pytest.raises(DomainError):
            ProtocolParams(V_S=1.0, V_M=-0.1)
        with pytest.raises(DomainError):
            ProtocolParams(V_S=1.0, V_M=1.0, beta=0.0)
        with pytest.raises(DomainError):
            ProtocolParams(V_S=1.0, V_M=1.0, beta=1.1)

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.0, max_value=200.0),
    )
    def test_tmsv_variance_at_least_one(self, v_s, v_m):
        assert ProtocolParams(V_S=v_s, V_M=v_m).tmsv_variance >= 1.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(DomainError):
            ProtocolParams(V_S=bad, V_M=1.0)
        with pytest.raises(DomainError):
            ProtocolParams(V_S=1.0, V_M=bad)
        with pytest.raises(DomainError):
            ProtocolParams(V_S=1.0, V_M=1.0, beta=bad)
        for name in ("eta_x", "eta_p", "eps_x", "eps_p"):
            kwargs = {"eta_x": 0.5, "eta_p": 0.5, "eps_x": 0.0, "eps_p": 0.0, name: bad}
            with pytest.raises(DomainError):
                ChannelParams(**kwargs)
        params = ProtocolParams(V_S=1.0, V_M=1.0)
        with pytest.raises(DomainError):
            symmetric_vpB(params, bad, 0.0)
        with pytest.raises(DomainError):
            symmetric_vpB(params, 0.5, bad)
        with pytest.raises(DomainError):
            physicality_interval(params, ChannelParams.symmetric(0.5, 0.0), bad)

    def test_zero_transmittance_excluded(self):
        with pytest.raises(DomainError):
            ChannelParams(eta_x=0.0, eta_p=0.5)
        with pytest.raises(DomainError):
            ChannelParams(eta_x=1.2, eta_p=0.5)
        with pytest.raises(DomainError):
            ChannelParams(eta_x=0.5, eta_p=0.5, eps_x=-0.01)

    def test_symmetric_constructor(self):
        chan = ChannelParams.symmetric(0.8, 0.05)
        assert (chan.eta_x, chan.eta_p, chan.eps_x, chan.eps_p) == (0.8, 0.8, 0.05, 0.05)

    def test_observed_stats_consistency(self):
        params = ProtocolParams(V_S=0.7, V_M=12.0)
        chan = ChannelParams(eta_x=0.85, eta_p=0.6, eps_x=0.04, eps_p=0.02)
        v_x_b = _x_moments(params, chan.eta_x, chan.eps_x).v_x_b
        expected = chan.eta_x * (params.V_S + params.V_M + chan.eps_x) + 1 - chan.eta_x
        assert v_x_b == pytest.approx(expected, abs=1e-12)
        v_p_b = symmetric_vpB(params, chan.eta_p, chan.eps_p)
        strict = symmetric_vpB(params, chan.eta_p, chan.eps_p, strict_paper=True)
        assert v_p_b - strict == pytest.approx(1 - chan.eta_p, abs=1e-12)


class TestBuildEbState:
    def test_no_modulation_coherent_source_is_vacuum(self):
        state = build_eb_state(ProtocolParams(V_S=1.0, V_M=0.0))
        assert np.array_equal(state.mat, np.eye(4))

    def test_signal_mode_variances(self):
        state = build_eb_state(ProtocolParams(V_S=0.5, V_M=2.0))
        assert state.mat[2, 2] == pytest.approx(2.5, abs=1e-12)
        assert state.mat[3, 3] == pytest.approx(2.0, abs=1e-12)

    def test_pure_for_random_parameters(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            params = ProtocolParams(V_S=rng.uniform(0.1, 10), V_M=rng.uniform(0, 100))
            assert von_neumann_entropy(build_eb_state(params)) <= 1e-9

    def test_homodyne_on_idler_prepares_signal_state(self):
        rng = np.random.default_rng(43)
        sel = QuadratureSelector(Quadrature.X, 0)
        for _ in range(200):
            params = ProtocolParams(V_S=rng.uniform(0.1, 10), V_M=rng.uniform(0, 100))
            out = condition_on_homodyne(build_eb_state(params), sel)
            target = np.diag([params.V_S, 1.0 / params.V_S])
            assert out.mat == pytest.approx(target, abs=1e-12)


class TestApplyChannel:
    def test_received_x_variance(self):
        # 0.9 * (1 + 10 + 0.03) + 0.1
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        chan = ChannelParams.symmetric(0.9, 0.03)
        state = apply_channel(params, chan, C_p=-1.0)
        assert state.mat[2, 2] == pytest.approx(10.027, abs=1e-9)
        assert state.mat[1, 3] == -1.0

    def test_identity_channel_reproduces_source_state(self):
        params = ProtocolParams(V_S=0.6, V_M=7.0)
        chan = ChannelParams.symmetric(1.0, 0.0)
        eb = build_eb_state(params)
        out = apply_channel(params, chan, C_p=pure_cp(params))
        assert out.mat == pytest.approx(eb.mat, abs=1e-12)


class TestMutualInformation:
    def test_zero_without_modulation(self):
        params = ProtocolParams(V_S=0.8, V_M=0.0)
        assert mutual_information(params, ChannelParams.symmetric(0.7, 0.1)) == 0.0

    def test_lossless_coherent_snr3_is_one_bit(self):
        params = ProtocolParams(V_S=1.0, V_M=3.0)
        assert mutual_information(params, ChannelParams.symmetric(1.0, 0.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_reference_point(self):
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        chan = ChannelParams.symmetric(0.9, 0.03)
        assert mutual_information(params, chan) == pytest.approx(
            1.643690970332313, abs=1e-12
        )


class TestPhysicalityBound:
    def test_vertex_reference_point(self):
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        chan = ChannelParams.symmetric(0.9, 0.03)
        v0, c0, coeff = physicality_parabola(params, chan)
        assert v0 == pytest.approx(0.973709834469328, abs=1e-9)
        assert c0 == pytest.approx(-1.6039936322573878, abs=1e-9)
        assert coeff == pytest.approx(0.37285239300268735, abs=1e-9)

    def test_vertex_ordering_with_signal_squeezing(self):
        chan = ChannelParams.symmetric(0.9, 0.03)
        v0 = {
            v_s: physicality_parabola(ProtocolParams(V_S=v_s, V_M=10.0), chan)[0]
            for v_s in (0.9, 1.0, 1.1)
        }
        assert v0[0.9] > v0[1.0] > v0[1.1]

    def test_empty_below_vertex(self):
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        chan = ChannelParams.symmetric(0.9, 0.03)
        v0 = physicality_parabola(params, chan)[0]
        assert physicality_interval(params, chan, v0 - 0.01) is None

    def test_interval_is_symmetric_around_vertex_correlation(self):
        params = ProtocolParams(V_S=0.8, V_M=5.0)
        chan = ChannelParams.symmetric(0.7, 0.05)
        v0, c0, coeff = physicality_parabola(params, chan)
        lo, hi = physicality_interval(params, chan, v0 + 0.3)
        assert lo + hi == pytest.approx(2 * c0, abs=1e-12)
        assert hi - lo == pytest.approx(2 * math.sqrt(coeff * 0.3), abs=1e-10)

    def test_lossless_noiseless_interval_collapses_to_pure_correlation(self):
        # the curvature is exactly 0 here, so the interval is one point at
        # the observed V_p_B and above it alike
        rng = np.random.default_rng(47)
        chan = ChannelParams.symmetric(1.0, 0.0)
        for _ in range(100):
            params = ProtocolParams(V_S=rng.uniform(0.2, 5), V_M=rng.uniform(0.1, 50))
            v_p_b = symmetric_vpB(params, 1.0, 0.0)
            for extra in (0.0, rng.uniform(0.0, 1e-6), rng.uniform(0.0, 10.0)):
                lo, hi = physicality_interval(params, chan, v_p_b + extra)
                assert hi == lo
                assert lo == pytest.approx(pure_cp(params), abs=1e-10)

    def test_parabola_matches_50_digit_invariants(self):
        # V0 = 1/b, C0 = -c_x/(v b) and coeff = (v**2 b - v_x_b)/(v b) from
        # the float inputs; 1 - eta V_S/b in place of the uncancelled n11
        # loses up to 7e-8 of coeff, relative, at eta = 1 and eps near 1e-8
        rng = np.random.default_rng(131)
        for i in range(400):
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-1.0, 1.0),
                                    V_M=10.0 ** rng.uniform(0.0, 8.0))
            eta = 1.0 if i % 4 == 0 else rng.uniform(0.05, 1.0)
            chan = ChannelParams.symmetric(eta, 10.0 ** rng.uniform(-8.0, -1.0))
            got = physicality_parabola(params, chan)
            with mpmath.workdps(50):
                v_s, v_m, eta, eps = (mpmath.mpf(x) for x in (params.V_S, params.V_M,
                                                              chan.eta_x, chan.eps_x))
                v = mpmath.sqrt(1 + v_m / v_s)
                b = 1 - eta + eta * (v_s + eps)
                c_x = mpmath.sqrt(eta * v_m * v)
                v_x_b = b + eta * v_m
                want = (1 / b, -c_x / (v * b), (v**2 * b - v_x_b) / (v * b))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-14 * abs(w)

    def test_rejects_nonpositive_observation(self):
        params = ProtocolParams(V_S=1.0, V_M=1.0)
        with pytest.raises(DomainError):
            physicality_interval(params, ChannelParams.symmetric(0.9, 0.0), 0.0)

    @pytest.mark.parametrize("v_s", [1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-12, 1.0 + 1e-12,
                                     1.0 - 1e-15, 1.0 + 1e-15])
    def test_pure_loss_near_coherent_keeps_its_interval(self, v_s):
        # pure loss puts V_p_B about eta (1 - eta) (V_S - 1)**2 above the
        # vertex, below rounding here; VERTEX_SLACK keeps these observations
        # physical (without it, rounding puts some just below the vertex)
        rng = np.random.default_rng(137)
        for _ in range(200):
            params = ProtocolParams(V_S=v_s, V_M=10.0 ** rng.uniform(0.0, 8.0))
            eta = rng.uniform(0.05, 1.0)
            chan = ChannelParams.symmetric(eta, 0.0)
            v_p_b = symmetric_vpB(params, eta, 0.0)
            assert physicality_interval(params, chan, v_p_b) is not None
            for direction in (DR, RR):
                key_rate(params, chan, v_p_b, direction)

    @staticmethod
    def uncertainty_2x2(xm, c_p, v_p_b):
        """gamma + i.Omega >= 0 as P - X^-1 >= 0 for the x and p blocks X
        and P, multiplied through by det X = v b."""
        v, c_x, v_x_b, b = xm
        n11 = v * v * b - v_x_b
        n22 = v_p_b * v * b - v
        n12 = c_p * v * b + c_x
        return n11 >= 0.0 and n22 >= 0.0 and n12 * n12 <= n11 * n22

    def test_interval_is_the_exact_uncertainty_test(self):
        # the 2x2 uncertainty test holds at the interval midpoint and fails
        # just beyond either end: the parabola is that test, not an
        # approximation.
        # holevo_bound, checked in every tenth draw, accepts exactly the
        # interval.
        rng = np.random.default_rng(139)
        for i in range(20000):
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-1.0, 1.0),
                                    V_M=10.0 ** rng.uniform(0.0, 8.0))
            eta, eps = rng.uniform(0.05, 1.0), 10.0 ** rng.uniform(-4.0, -1.0)
            chan = ChannelParams.symmetric(eta, eps)
            v0 = physicality_parabola(params, chan)[0]
            v_p_b = v0 * (1.0 + 10.0 ** rng.uniform(-4.0, 0.0))
            lo, hi = physicality_interval(params, chan, v_p_b)
            xm = _x_moments(params, eta, eps)
            step = 1e-6 * (hi - lo)
            assert self.uncertainty_2x2(xm, 0.5 * (lo + hi), v_p_b)
            assert not self.uncertainty_2x2(xm, lo - step, v_p_b)
            assert not self.uncertainty_2x2(xm, hi + step, v_p_b)
            if i % 10:
                continue
            direction = DR if i % 20 else RR
            for c_p in (lo, hi):
                assert holevo_bound(params, chan, c_p, v_p_b, direction) >= 0.0
            for c_p in (lo - step, hi + step):
                with pytest.raises(UnphysicalState):
                    holevo_bound(params, chan, c_p, v_p_b, direction)


class TestConditionalStates:
    def test_closed_forms_match_generic_conditioning(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            params = ProtocolParams(
                V_S=math.exp(rng.uniform(math.log(0.2), math.log(5))),
                V_M=rng.uniform(0.1, 100),
            )
            chan = ChannelParams(
                eta_x=rng.uniform(0.1, 1.0),
                eta_p=rng.uniform(0.1, 1.0),
                eps_x=rng.uniform(0.0, 0.3),
                eps_p=rng.uniform(0.0, 0.3),
            )
            v_p_b = symmetric_vpB(params, chan.eta_p, chan.eps_p)
            interval = physicality_interval(params, chan, v_p_b)
            if interval is None:
                continue
            c_p = rng.uniform(*interval) if interval[1] > interval[0] else interval[0]
            state = apply_channel(params, chan, c_p)
            after_alice, after_bob = closed_form_conditionals(params, chan, v_p_b)
            got_dr = condition_on_homodyne(state, QuadratureSelector(Quadrature.X, 0))
            got_rr = condition_on_homodyne(state, QuadratureSelector(Quadrature.X, 1))
            assert got_dr.mat == pytest.approx(after_alice, abs=1e-10)
            assert got_rr.mat == pytest.approx(after_bob, abs=1e-10)


class TestHolevoBound:
    def test_identity_channel_leaks_nothing(self):
        params = ProtocolParams(V_S=0.5, V_M=20.0)
        chan = ChannelParams.symmetric(1.0, 0.0)
        v_p_b = symmetric_vpB(params, 1.0, 0.0)
        for direction in (DR, RR):
            assert holevo_bound(params, chan, pure_cp(params), v_p_b, direction) <= 1e-9

    @pytest.mark.parametrize("lossy", [False, True])
    def test_true_boundary_state_is_accepted(self, lossy):
        # the source state on a lossless, noiseless channel and the true
        # state after pure loss lie on an interval end, but their C_p and
        # V_p_B are computed another way than the interval and land a few
        # ulps to either side of it; every fourth source is near-coherent
        rng = np.random.default_rng(151)
        for i in range(2000):
            v_s = 1.0 + rng.uniform(-1e-6, 1e-6) if i % 4 == 0 else rng.uniform(0.2, 5.0)
            params = ProtocolParams(V_S=v_s, V_M=rng.uniform(0.1, 50.0))
            eta = rng.uniform(0.05, 1.0) if lossy else 1.0
            chan = ChannelParams.symmetric(eta, 0.0)
            c_p = math.sqrt(eta) * pure_cp(params)
            v_p_b = symmetric_vpB(params, eta, 0.0)
            for direction in (DR, RR):
                chi = holevo_bound(params, chan, c_p, v_p_b, direction)
                if lossy:
                    assert chi <= key_rate(params, chan, v_p_b, direction).holevo + 1e-9
                else:
                    assert chi <= 1e-9

    def test_direct_conditional_eigenvalue_identity(self):
        # nu of the post-measurement state equals sqrt(det) of the generic
        # conditioning result
        rng = np.random.default_rng(59)
        for _ in range(50):
            params = ProtocolParams(V_S=rng.uniform(0.3, 3), V_M=rng.uniform(0.5, 50))
            chan = ChannelParams.symmetric(rng.uniform(0.2, 1.0), rng.uniform(0, 0.2))
            v_p_b = symmetric_vpB(params, chan.eta_x, chan.eps_x)
            b = chan.eta_x * (params.V_S + chan.eps_x - 1.0) + 1.0
            nu = math.sqrt(b * v_p_b)
            interval = physicality_interval(params, chan, v_p_b)
            c_p = 0.5 * (interval[0] + interval[1])
            state = apply_channel(params, chan, c_p)
            cond = condition_on_homodyne(state, QuadratureSelector(Quadrature.X, 0))
            assert nu == pytest.approx(math.sqrt(np.linalg.det(cond.mat)), abs=1e-10)
            assert entropy_g(nu) == pytest.approx(von_neumann_entropy(cond), abs=1e-10)

    def test_regression_anchor_at_parabola_vertex(self):
        # frozen from the covariance-only pipeline below
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        chan = ChannelParams.symmetric(0.9, 0.03)
        c0 = physicality_parabola(params, chan)[1]
        v_p_b = symmetric_vpB(params, 0.9, 0.03)
        chi_dr = holevo_bound(params, chan, c0, v_p_b, DR)
        chi_rr = holevo_bound(params, chan, c0, v_p_b, RR)
        assert chi_dr == pytest.approx(1.0431150330421377, abs=1e-9)
        assert chi_rr == pytest.approx(0.9472140584539660, abs=1e-9)

        mat = apply_channel(params, chan, c0).mat.copy()
        mat[3, 3] = v_p_b
        joint = CovMatrix(mat)
        s_ab = von_neumann_entropy(joint)
        brute_dr = s_ab - von_neumann_entropy(
            condition_on_homodyne(joint, QuadratureSelector(Quadrature.X, 0))
        )
        brute_rr = s_ab - von_neumann_entropy(
            condition_on_homodyne(joint, QuadratureSelector(Quadrature.X, 1))
        )
        assert chi_dr == pytest.approx(brute_dr, abs=1e-10)
        assert chi_rr == pytest.approx(brute_rr, abs=1e-10)

    @pytest.mark.parametrize("v_m", [1e6, 1e7, 1e8])
    def test_finite_at_interval_endpoints_under_strong_modulation(self, v_m):
        # with V_M >= 1e7 the smallest symplectic eigenvalue at an endpoint
        # rounds to about 1 - 6e-9, e.g. at (V_S, eta) = (0.5, 0.9) for
        # V_M = 1e7 and (2.0, 0.3), (2.0, 0.6) for V_M = 1e8
        closed = {DR: asymptotic_key_rate_dr, RR: asymptotic_key_rate_rr}
        coherent = {DR: asymptotic_key_rate_dr_coherent, RR: asymptotic_key_rate_rr_coherent}
        for v_s in (0.5, 1.0, 2.0):
            for eta in (0.3, 0.6, 0.9):
                params = ProtocolParams(V_S=v_s, V_M=v_m)
                chan = ChannelParams.symmetric(eta, 0.0)
                v_p_b = symmetric_vpB(params, eta, 0.0)
                lo, hi = physicality_interval(params, chan, v_p_b)
                mi = mutual_information(params, chan)
                for direction in (DR, RR):
                    chi_lo = holevo_bound(params, chan, lo, v_p_b, direction)
                    chi_hi = holevo_bound(params, chan, hi, v_p_b, direction)
                    assert math.isfinite(chi_lo) and chi_lo >= 0.0
                    # the closed forms are the strong-modulation rate at hi
                    limit = (
                        coherent[direction](eta)
                        if v_s == 1.0
                        else closed[direction](v_s, eta)
                    )
                    assert mi - chi_hi == pytest.approx(limit, abs=1e-5)

    def test_boundary_rounding_allowance_does_not_admit_outside_points(self):
        # 0.1% beyond the degenerate coherent interval passes the absolute
        # 1e-9 eigenvalue test at V_M = 1e8, but its symplectic eigenvalue
        # is 4e-6 below 1, far beyond rounding
        params = ProtocolParams(V_S=1.0, V_M=1e8)
        chan = ChannelParams.symmetric(0.9, 0.0)
        v_p_b = symmetric_vpB(params, 0.9, 0.0)
        hi = physicality_interval(params, chan, v_p_b)[1]
        for direction in (DR, RR):
            with pytest.raises(UnphysicalState):
                holevo_bound(params, chan, hi * 0.999, v_p_b, direction)

    def test_unphysical_correlation_rejected(self):
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        chan = ChannelParams.symmetric(0.9, 0.03)
        v_p_b = symmetric_vpB(params, 0.9, 0.03)
        hi = physicality_interval(params, chan, v_p_b)[1]
        with pytest.raises(UnphysicalState):
            holevo_bound(params, chan, hi + 1e-2, v_p_b, DR)


def _mp_g(nu):
    if nu <= 1:
        return mpmath.mpf(0)
    a, b = (nu + 1) / 2, (nu - 1) / 2
    return a * mpmath.log(a, 2) - b * mpmath.log(b, 2)


def _mp_joint_entropy(params, chan, c_p, v_p_b):
    """g(nu_+) + g(nu_-) at the working precision, with nu_+-**2 the roots
    of x**2 - Delta x + det(gamma) for the shared state gamma."""
    v_s, v_m, eta, eps, vpb = (
        mpmath.mpf(x) for x in (params.V_S, params.V_M, chan.eta_x, chan.eps_x, v_p_b)
    )
    v = mpmath.sqrt(1 + v_m / v_s)
    cx = mpmath.sqrt(eta * v_m * v)
    vxb = eta * (v_s + v_m + eps) + 1 - eta
    delta = v**2 + vxb * vpb + 2 * cx * c_p
    det = (v * vxb - cx**2) * (v * vpb - c_p**2)
    split = mpmath.sqrt(delta**2 - 4 * det)
    return _mp_g(mpmath.sqrt((delta + split) / 2)) + _mp_g(mpmath.sqrt((delta - split) / 2))


def _mp_holevo(params, chan, c_p, v_p_b, direction):
    """Holevo information at 50 digits from the float inputs, with the
    symplectic spectrum taken from the eigenvalues of i.Omega.gamma."""
    with mpmath.workdps(50):
        v_s, v_m, eta, eps, cp, vpb = (
            mpmath.mpf(x) for x in (params.V_S, params.V_M, chan.eta_x, chan.eps_x, c_p, v_p_b)
        )
        v = mpmath.sqrt(1 + v_m / v_s)
        cx = mpmath.sqrt(eta * v_m * v)
        vxb = eta * (v_s + v_m + eps) + 1 - eta
        gamma = mpmath.matrix([[v, 0, cx, 0], [0, v, 0, cp], [cx, 0, vxb, 0], [0, cp, 0, vpb]])
        omega = mpmath.matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        spectrum = mpmath.eig(mpmath.mpc(0, 1) * omega * gamma, left=False, right=False)
        nus = sorted(abs(ev) for ev in spectrum)  # (nu_-, nu_-, nu_+, nu_+)
        if direction is DR:
            nu_cond = mpmath.sqrt((vxb - cx**2 / v) * vpb)
        else:
            nu_cond = mpmath.sqrt((v - cx**2 / vxb) * v)
        return _mp_g(nus[0]) + _mp_g(nus[2]) - _mp_g(nu_cond)


class TestTwoModeKernel:
    def test_matches_generic_symplectic_eigenvalues(self):
        rng = np.random.default_rng(71)
        checked = 0
        while checked < 600:
            params = ProtocolParams(
                V_S=math.exp(rng.uniform(math.log(0.1), math.log(10.0))),
                V_M=10.0 ** rng.uniform(-2.0, 4.0),
            )
            eta, eps = rng.uniform(0.05, 1.0), rng.uniform(0.0, 0.2)
            chan = ChannelParams.symmetric(eta, eps)
            v_p_b = symmetric_vpB(params, eta, eps) + rng.uniform(0.0, 0.5)
            interval = physicality_interval(params, chan, v_p_b)
            if interval is None:
                continue
            c_p = rng.uniform(*interval)
            mat = apply_channel(params, chan, c_p).mat.copy()
            mat[3, 3] = v_p_b
            want = symplectic_eigenvalues(CovMatrix(mat))
            got = _symplectic_pair(_x_moments(params, eta, eps), c_p, v_p_b)
            assert got == pytest.approx(tuple(want), rel=1e-9)
            checked += 1

    def test_pure_state_is_exact_to_rounding(self):
        # on a lossless noiseless channel nu_+ = nu_- = 1; the error stays
        # at a few ulps of the largest entry (about V_M / V_S), where the
        # discriminant Delta**2 - 4 det would leave sqrt(rounding) instead
        for v_s in (0.2, 0.6, 3.0):
            for v_m in (1.0, 20.0, 1e4, 1e6):
                params = ProtocolParams(V_S=v_s, V_M=v_m)
                v_p_b = symmetric_vpB(params, 1.0, 0.0)
                nus = _symplectic_pair(_x_moments(params, 1.0, 0.0), pure_cp(params), v_p_b)
                scale = 1e-15 * params.tmsv_variance**2
                assert nus == pytest.approx((1.0, 1.0), abs=scale)

    @pytest.mark.parametrize("v_m", [1e2, 1e6, 1e8])
    def test_holevo_matches_50_digit_oracle(self, v_m):
        for v_s, eta in ((0.5, 0.3), (1.0, 0.6), (2.0, 0.9)):
            for eps in (0.0, 0.02):
                params = ProtocolParams(V_S=v_s, V_M=v_m)
                chan = ChannelParams.symmetric(eta, eps)
                v_p_b = symmetric_vpB(params, eta, eps)
                for direction in (DR, RR):
                    a = key_rate(params, chan, v_p_b, direction)
                    want = float(_mp_holevo(params, chan, a.worst_Cp, v_p_b, direction))
                    assert a.holevo == pytest.approx(want, abs=1e-10)
                    assert holevo_bound(params, chan, a.worst_Cp, v_p_b, direction) == (
                        pytest.approx(want, abs=1e-10)
                    )

    @settings(deadline=None)
    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.1),
        st.floats(min_value=0.0, max_value=0.5),
        st.sampled_from([DR, RR]),
    )
    def test_worst_case_dominates_dense_grid(self, log_vs, log_vm, eta, eps, extra, direction):
        params = ProtocolParams(V_S=10.0**log_vs, V_M=10.0**log_vm)
        chan = ChannelParams.symmetric(eta, eps)
        v_p_b = symmetric_vpB(params, eta, eps) + extra
        a = key_rate(params, chan, v_p_b, direction)
        xm = _x_moments(params, eta, eps)
        nu_plus, nu_minus = _symplectic_pair(xm, np.linspace(*a.Cp_interval, 1001), v_p_b)
        s_cond = entropy_g(_conditional_nu(xm, v_p_b, direction))
        chi = _g_array(nu_plus) + _g_array(nu_minus) - s_cond
        assert a.holevo >= chi.max() - 1e-12

    @pytest.mark.parametrize("v_m", [1e2, 1e6, 1e8])
    def test_slope_matches_50_digit_derivative(self, v_m):
        for v_s, eta, eps, extra in ((0.5, 0.3, 0.0, 0.0), (1.0, 0.6, 0.02, 0.3),
                                     (2.0, 0.9, 0.0, 0.1), (0.7, 0.95, 0.05, 0.0)):
            params = ProtocolParams(V_S=v_s, V_M=v_m)
            chan = ChannelParams.symmetric(eta, eps)
            v_p_b = symmetric_vpB(params, eta, eps) + extra
            lo, hi = physicality_interval(params, chan, v_p_b)
            xm = _x_moments(params, eta, eps)
            for frac in (0.1, 0.5, 0.9):
                c_p = lo + frac * (hi - lo)
                with mpmath.workdps(50):
                    want = mpmath.diff(
                        lambda c: _mp_joint_entropy(params, chan, c, v_p_b), mpmath.mpf(c_p))
                assert _entropy_slope(xm, c_p, v_p_b) == pytest.approx(float(want), rel=1e-8)

    def test_slope_is_finite_where_the_eigenvalues_meet(self):
        # nu_+ = nu_- at v_p_b = v**2/v_x_b, c_p = -c_x v/v_x_b, where the
        # split s - t of the squared eigenvalues is 0
        params = ProtocolParams(V_S=0.5, V_M=10.0)
        chan = ChannelParams.symmetric(0.7, 0.0)
        xm = _x_moments(params, 0.7, 0.0)
        v_p_b = xm.v**2 / xm.v_x_b
        c_star = -xm.c_x * xm.v / xm.v_x_b
        lo, hi = physicality_interval(params, chan, v_p_b)
        assert lo < c_star < hi
        nu_plus, nu_minus = _symplectic_pair(xm, c_star, v_p_b)
        assert nu_plus == pytest.approx(nu_minus, rel=1e-12)
        slope = _entropy_slope(xm, c_star, v_p_b)
        with mpmath.workdps(50):
            want = mpmath.diff(
                lambda c: _mp_joint_entropy(params, chan, c, v_p_b), mpmath.mpf(c_star))
        assert math.isfinite(slope)
        assert slope == pytest.approx(float(want), rel=1e-8)
        # the golden-section search over the whole interval gave these
        for direction, golden in ((DR, 2.4297904129126633), (RR, 2.4297904129126637)):
            a = key_rate(params, chan, v_p_b, direction)
            assert a.holevo == pytest.approx(golden, abs=1e-12)

    @pytest.mark.parametrize("direction", [DR, RR])
    def test_worst_case_at_interval_end(self, direction):
        params = ProtocolParams(V_S=0.8, V_M=100.0)
        chan = ChannelParams.symmetric(0.9, 0.0)
        v_p_b = symmetric_vpB(params, 0.9, 0.0)
        a = key_rate(params, chan, v_p_b, direction)
        lo, hi = a.Cp_interval
        assert a.worst_Cp == hi
        assert a.holevo == holevo_bound(params, chan, hi, v_p_b, direction)
        xm = _x_moments(params, 0.9, 0.0)
        nu_plus, nu_minus = _symplectic_pair(xm, np.linspace(lo, hi, 1001), v_p_b)
        s_cond = entropy_g(_conditional_nu(xm, v_p_b, direction))
        chi = _g_array(nu_plus) + _g_array(nu_minus) - s_cond
        assert a.holevo >= chi.max() - 1e-12

    def test_slope_evaluations_per_search(self, monkeypatch):
        # a golden section over the same grid takes about 53 kernel calls;
        # the zero search takes its slope calls plus 3 candidate values
        slopes, kernels = [], []
        slope, kernel = protocol._entropy_slope, protocol._symplectic_pair

        def counted_slope(*args):
            slopes[-1] += 1
            return slope(*args)

        def counted_kernel(*args):
            kernels[-1] += 1
            return kernel(*args)

        monkeypatch.setattr(protocol, "_entropy_slope", counted_slope)
        monkeypatch.setattr(protocol, "_symplectic_pair", counted_kernel)
        rng = np.random.default_rng(97)
        for _ in range(400):
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-1.0, 1.0),
                                    V_M=10.0 ** rng.uniform(0.0, 8.0))
            eta, eps = rng.uniform(0.05, 1.0), rng.choice([0.0, rng.uniform(0.0, 0.1)])
            chan = ChannelParams.symmetric(eta, eps)
            v_p_b = symmetric_vpB(params, eta, eps) + rng.choice([0.0, rng.uniform(0.0, 1.0)])
            slopes.append(0)
            kernels.append(0)
            key_rate(params, chan, v_p_b, DR if rng.uniform() < 0.5 else RR)
        assert np.mean(slopes) <= 20
        assert max(slopes) <= 60
        assert max(kernels) <= 3


def recorded(f):
    """f and the list of points it is called at; a runaway loop stops at
    1000 calls."""
    points = []

    def wrapped(x):
        points.append(x)
        assert len(points) <= 1000, "search did not terminate"
        return f(x)

    return wrapped, points


class TestBracketSignChange:
    @pytest.mark.parametrize("a,b", [(0.0, 4.0), (2.0, 4.0)])
    def test_convex_decay_closes_faster_than_bisection(self, a, b):
        # exp(-x) - c is convex and flattens, like K(dB); the brackets are
        # the shapes the root finders' doubling gives, [0, first probe] and
        # [probe, 2 probe]
        c = math.exp(-3.0)
        g = lambda x: math.exp(-x) - c
        f, points = recorded(g)
        lo, hi = _bracket_sign_change(f, a, g(a), b, g(b), 1e-4)
        assert lo <= 3.0 <= hi and hi - lo <= 1e-4
        assert len(points) < math.ceil(math.log2((b - a) / 1e-4))

    def test_infinite_end_forces_bisection_and_still_closes(self):
        f, points = recorded(lambda x: 0.3 - x if x < 0.4 else -math.inf)
        lo, hi = _bracket_sign_change(f, 0.0, 0.3, 1.0, -math.inf, 1e-9)
        # midpoints while the upper end's value is -inf: 0.5 (-inf again),
        # 0.25 (positive), then 0.375, the first finite negative end
        assert points[:3] == [0.5, 0.25, 0.375]
        assert lo <= 0.3 <= hi and hi - lo <= 1e-9

    def test_tolerance_below_float_spacing_stops_at_adjacent_floats(self):
        # a step function has no zero, so only the adjacent-float stop ends it
        f, points = recorded(lambda x: 1.0 if x < 0.3 else -1.0)
        lo, hi = _bracket_sign_change(f, 0.0, 1.0, 1.0, -1.0, 1e-300)
        assert lo < 0.3 <= hi == math.nextafter(lo, math.inf)
        assert len(points) < 100

    def test_exact_zero_returns_that_point(self):
        f, points = recorded(lambda x: 0.25 - x)
        assert _bracket_sign_change(f, 0.0, 0.25, 1.0, -0.75, 1e-12) == (0.25, 0.25)
        assert points == [0.25]


class TestKeyRate:
    def test_identity_channel_keeps_all_mutual_information(self):
        params = ProtocolParams(V_S=1.0, V_M=100.0, beta=0.95)
        chan = ChannelParams.symmetric(1.0, 0.0)
        v_p_b = symmetric_vpB(params, 1.0, 0.0)
        for direction in (DR, RR):
            a = key_rate(params, chan, v_p_b, direction)
            assert a.holevo <= 1e-9
            assert a.key_rate == pytest.approx(
                0.95 * mutual_information(params, chan), abs=1e-9
            )

    def test_assessment_invariants(self):
        params = ProtocolParams(V_S=2.0, V_M=100.0, beta=0.9)
        chan = ChannelParams.symmetric(0.8, 0.03)
        v_p_b = symmetric_vpB(params, 0.8, 0.03)
        a = key_rate(params, chan, v_p_b, DR)
        assert a.physical
        assert abs(a.key_rate - (0.9 * a.mutual_info - a.holevo)) <= 1e-12
        lo, hi = a.Cp_interval
        assert lo <= a.worst_Cp <= hi

    def test_worst_case_dominates_interior_samples(self):
        rng = np.random.default_rng(61)
        params = ProtocolParams(V_S=0.7, V_M=30.0)
        chan = ChannelParams.symmetric(0.6, 0.05)
        v_p_b = symmetric_vpB(params, 0.6, 0.05)
        for direction in (DR, RR):
            a = key_rate(params, chan, v_p_b, direction)
            lo, hi = a.Cp_interval
            for c_p in rng.uniform(lo, hi, size=100):
                assert holevo_bound(params, chan, c_p, v_p_b, direction) <= a.holevo + 1e-9

    def test_coherent_limit_is_continuous(self):
        chan = ChannelParams.symmetric(0.8, 0.02)
        rates = {}
        for v_s in (1.0 - 1e-6, 1.0, 1.0 + 1e-6):
            params = ProtocolParams(V_S=v_s, V_M=50.0)
            v_p_b = symmetric_vpB(params, 0.8, 0.02)
            for direction in (DR, RR):
                rates[(v_s, direction)] = key_rate(params, chan, v_p_b, direction).key_rate
        for direction in (DR, RR):
            center = rates[(1.0, direction)]
            assert rates[(1.0 - 1e-6, direction)] == pytest.approx(center, abs=1e-4)
            assert rates[(1.0 + 1e-6, direction)] == pytest.approx(center, abs=1e-4)

    def test_unphysical_observation_raises(self):
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        chan = ChannelParams.symmetric(0.9, 0.0)
        v_p_b = symmetric_vpB(params, 0.9, 0.0, strict_paper=True)
        with pytest.raises(UnphysicalObservation):
            key_rate(params, chan, v_p_b, DR)

    def test_lossless_channel_with_tiny_signal_variance(self):
        # b = 1 - eta + eta V_S and v_x_b = b + eta V_M keep V_S = 1e-8 at
        # eta = 1; written as eta (V_S - 1) + 1 they cancel, and the RR
        # conditional entropy then exceeded the joint one by 4.4e-8 bits
        params = ProtocolParams(V_S=1e-8, V_M=0.0)
        chan = ChannelParams.symmetric(1.0, 0.0)
        a = key_rate(params, chan, symmetric_vpB(params, 1.0, 0.0), RR)
        assert a.holevo == 0.0
        with pytest.raises(NoPositiveRate):
            max_attenuation(params, 0.0, RR)


class TestSymmetricVpB:
    def test_conventions_agree_without_loss(self):
        params = ProtocolParams(V_S=0.5, V_M=1.0)
        assert symmetric_vpB(params, 1.0, 0.07) == symmetric_vpB(
            params, 1.0, 0.07, strict_paper=True
        )

    def test_vacuum_term_restored_by_default(self):
        params = ProtocolParams(V_S=1.0, V_M=1.0)
        assert symmetric_vpB(params, 0.9, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert symmetric_vpB(params, 0.9, 0.0, strict_paper=True) == pytest.approx(
            0.9, abs=1e-12
        )

    def test_squeezed_reference_point(self):
        params = ProtocolParams(V_S=0.5, V_M=1.0)
        assert symmetric_vpB(params, 0.9, 0.03) == pytest.approx(1.927, abs=1e-12)

    def test_rejects_bad_arguments(self):
        params = ProtocolParams(V_S=1.0, V_M=1.0)
        with pytest.raises(DomainError):
            symmetric_vpB(params, 0.0, 0.0)
        with pytest.raises(DomainError):
            symmetric_vpB(params, 0.5, -0.1)


class TestAsymptoticRates:
    def test_coherent_reference_values(self):
        assert asymptotic_key_rate_dr_coherent(0.5) == pytest.approx(
            1.0 - LOG2E, abs=1e-12
        )
        assert asymptotic_key_rate_dr_coherent(0.9) == pytest.approx(
            1.1422674598321931, abs=1e-12
        )
        assert asymptotic_key_rate_rr_coherent(0.5) == pytest.approx(
            0.35555288572532473, abs=1e-12
        )

    def test_low_transmittance_reverse_approximation(self):
        eta = 1e-3
        approx = eta * LOG2E / 3.0
        assert abs(asymptotic_key_rate_rr_coherent(eta) / approx - 1.0) <= 0.05

    def test_reverse_coherent_increases_toward_unit_transmittance(self):
        etas = np.linspace(0.05, 0.999, 40)
        vals = [asymptotic_key_rate_rr_coherent(e) for e in etas]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_direct_rate_monotone_in_transmittance(self):
        etas = np.linspace(0.5, 0.99, 30)
        vals = [asymptotic_key_rate_dr(2.0, e) for e in etas]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_coherent_point_rejected_by_general_forms(self):
        with pytest.raises(DomainError):
            asymptotic_key_rate_dr(1.0, 0.5)
        with pytest.raises(DomainError):
            asymptotic_key_rate_rr(1.0, 0.5)

    @pytest.mark.parametrize("v_s", [math.inf, math.nan, 0.0, -1.0])
    def test_signal_variance_must_be_positive_and_finite(self, v_s):
        for func in (asymptotic_key_rate_dr, asymptotic_key_rate_rr):
            with pytest.raises(DomainError):
                func(v_s, 0.5)

    def test_transmittance_domain_is_open(self):
        for func in (asymptotic_key_rate_dr_coherent, asymptotic_key_rate_rr_coherent):
            with pytest.raises(DomainError):
                func(0.0)
            with pytest.raises(DomainError):
                func(1.0)

    @pytest.mark.parametrize("v_s", [1e-300, 1e-100, 1e-17, 1e-3, 0.5, 1.0 - 1e-9, 1.0 + 1e-9,
                                     2.0, 1e3, 1e17, 1e100, 1e200, 1e300])
    def test_extreme_inputs_match_high_precision_or_raise(self, v_s):
        # c -> 1 in the direct form and D -> infinity in the reverse form
        # used to end in math domain errors, divisions by zero and NaN
        mpmath.mp.dps = 700
        log2 = mpmath.log(2)
        for eta in (5e-324, 1e-300, 1e-100, 1e-17, 1e-6, 0.3, 0.9, 1.0 - 1e-9, 1.0 - 1e-16):
            vs, e = mpmath.mpf(v_s), mpmath.mpf(eta)
            c = mpmath.sqrt((1 + e * (1 / vs - 1)) * (1 + e * (vs - 1)))
            s = e * abs(1 - vs)
            want_dr = (c * mpmath.atanh(1 / c) - 1 + mpmath.log(s / (1 + s))) / log2
            got_dr = asymptotic_key_rate_dr(v_s, eta)
            assert abs(got_dr - want_dr) <= 1e-12 * max(1.0, abs(want_dr)), (v_s, eta)

            d = mpmath.sqrt((1 + e * (vs - 1)) / (e * vs))
            if d - 1 <= 2e-12:
                with pytest.raises(DomainError):
                    asymptotic_key_rate_rr(v_s, eta)
                continue
            want_rr = (d / 2 * mpmath.log((d + 1) / (d - 1)) - mpmath.log(1 + s) - 1) / log2
            got_rr = asymptotic_key_rate_rr(v_s, eta)
            assert abs(got_rr - want_rr) <= 1e-12 * max(1.0, abs(want_rr)), (v_s, eta)
        mpmath.mp.dps = 15

    def test_reverse_rate_diverges_near_unit_transmittance(self):
        with pytest.raises(DomainError):
            asymptotic_key_rate_rr(2.0, 1.0 - 1e-15)

    def test_general_forms_reduce_to_coherent_in_the_limit(self):
        for v_s in (1.0 - 1e-5, 1.0 + 1e-5):
            for eta in (0.3, 0.6, 0.9):
                assert asymptotic_key_rate_dr(v_s, eta) == pytest.approx(
                    asymptotic_key_rate_dr_coherent(eta), abs=1e-4
                )
                assert asymptotic_key_rate_rr(v_s, eta) == pytest.approx(
                    asymptotic_key_rate_rr_coherent(eta), abs=1e-4
                )

    @pytest.mark.parametrize(
        "v_s,eta",
        [(0.5, 0.9), (2.0, 0.6), (2.0, 0.9)],
    )
    def test_pipeline_converges_to_closed_forms(self, v_s, eta):
        # the closed forms pin C_p at the upper interval endpoint; in these
        # cells the worst case sits within 1e-3 bits of that endpoint rate.
        # At lower transmittance (V_S=0.5 with eta<=0.6, V_S=2 with eta=0.3)
        # the worst case moves inside the interval and more than 1e-3 bits
        # below the closed form; acceptance 4 checks both facts there.
        params = ProtocolParams(V_S=v_s, V_M=1e6)
        chan = ChannelParams.symmetric(eta, 0.0)
        v_p_b = symmetric_vpB(params, eta, 0.0)
        k_dr = key_rate(params, chan, v_p_b, DR).key_rate
        k_rr = key_rate(params, chan, v_p_b, RR).key_rate
        assert k_dr == pytest.approx(asymptotic_key_rate_dr(v_s, eta), abs=1e-3)
        assert k_rr == pytest.approx(asymptotic_key_rate_rr(v_s, eta), abs=1e-3)

    @pytest.mark.parametrize("eta", [0.3, 0.6, 0.9])
    def test_pipeline_converges_to_coherent_closed_forms(self, eta):
        params = ProtocolParams(V_S=1.0, V_M=1e6)
        chan = ChannelParams.symmetric(eta, 0.0)
        v_p_b = symmetric_vpB(params, eta, 0.0)
        k_dr = key_rate(params, chan, v_p_b, DR).key_rate
        k_rr = key_rate(params, chan, v_p_b, RR).key_rate
        assert k_dr == pytest.approx(asymptotic_key_rate_dr_coherent(eta), abs=1e-3)
        assert k_rr == pytest.approx(asymptotic_key_rate_rr_coherent(eta), abs=1e-3)


# Log-uniform magnitudes across the double range, and transmittances near
# both ends of (0, 1].
MAGNITUDE = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e)
TRANSMITTANCE = st.floats(min_value=-300.0, max_value=0.0).flatmap(
    lambda e: st.sampled_from([10.0 ** e, 1.0 - 10.0 ** e]))


def _entry_points(v_s, v_m, eta, eps, v_p_b, c_p, direction):
    params = ProtocolParams(V_S=v_s, V_M=v_m)
    chan = ChannelParams.symmetric(eta, eps)
    db = -10.0 * math.log10(eta)
    return {
        "mutual_information": lambda: mutual_information(params, chan),
        "physicality_parabola": lambda: physicality_parabola(params, chan),
        "physicality_interval": lambda: physicality_interval(params, chan, v_p_b),
        "symmetric_vpB": lambda: symmetric_vpB(params, eta, eps),
        "key_rate": lambda: key_rate(params, chan, v_p_b, direction),
        "key_rate_symmetric": lambda: key_rate(
            params, chan, symmetric_vpB(params, eta, eps), direction),
        "holevo_bound": lambda: holevo_bound(params, chan, c_p, v_p_b, direction),
        "asymptotic_key_rate_dr": lambda: asymptotic_key_rate_dr(v_s, eta),
        "asymptotic_key_rate_rr": lambda: asymptotic_key_rate_rr(v_s, eta),
        "asymptotic_key_rate_dr_coherent": lambda: asymptotic_key_rate_dr_coherent(eta),
        "asymptotic_key_rate_rr_coherent": lambda: asymptotic_key_rate_rr_coherent(eta),
        "keyrate_vs_attenuation": lambda: keyrate_vs_attenuation(
            params, eps, [0.0, db], direction).ordinate,
        "max_attenuation": lambda: max_attenuation(params, eps, direction, tol=1e-2),
        "max_tolerable_noise": lambda: max_tolerable_noise(params, db, direction, tol=1e-3),
    }


@pytest.mark.parametrize("name", sorted(_entry_points(1.0, 1.0, 0.5, 0.0, 1.0, 0.0, DR)))
@settings(deadline=None, max_examples=100)
@given(
    v_s=MAGNITUDE,
    v_m=st.one_of(st.just(0.0), MAGNITUDE),
    eta=TRANSMITTANCE,
    eps=st.one_of(st.just(0.0), MAGNITUDE),
    v_p_b=MAGNITUDE,
    c_p=st.one_of(st.just(0.0), MAGNITUDE, MAGNITUDE.map(lambda x: -x)),
    direction=st.sampled_from([DR, RR]),
)
def test_entry_points_return_finite_numbers_or_raise_toolkit_errors(
    name, v_s, v_m, eta, eps, v_p_b, c_p, direction
):
    try:
        result = _entry_points(v_s, v_m, eta, eps, v_p_b, c_p, direction)[name]()
    except ToolkitError:
        return
    if isinstance(result, SecurityAssessment):
        result = (result.mutual_info, result.holevo, result.key_rate, result.worst_Cp,
                  *result.Cp_interval)
    if result is None:  # physicality_interval: no physical state
        return
    values = result if isinstance(result, tuple) else (result,)
    assert all(math.isfinite(value) for value in values), values
