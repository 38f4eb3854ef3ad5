import math
import random
import struct
import warnings
from functools import lru_cache, partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udcvqkd import (
    ChannelParams,
    DomainError,
    NoPositiveRate,
    ProtocolParams,
    ReconciliationDirection,
    RegionMode,
    SecurityAssessment,
    SweepConfig,
    ToolkitError,
    UnphysicalObservation,
    UnphysicalState,
    asymptotic_key_rate_dr,
    asymptotic_key_rate_rr,
    entropy_g,
    holevo_bound,
    key_rate,
    keyrate_vs_attenuation,
    max_attenuation,
    max_tolerable_noise,
    mutual_information,
    noise_frontier,
    physicality_interval,
    physicality_parabola,
    scan_region,
    symmetric_vpB,
)
from udcvqkd import protocol
from udcvqkd.gaussian import (
    Quadrature,
    QuadratureSelector,
    apply_channel,
    build_eb_state,
    condition_on_homodyne,
    symplectic_eigenvalues,
    von_neumann_entropy,
)
from udcvqkd.protocol import (
    VERTEX_SLACK,
    _conditional_entropy,
    _entropy_slope,
    _g_mu,
    _joint_entropy,
    _key_rate,
    _margin_terms,
    _margins,
    _observe,
    _symplectic_pair,
    _worst_case_correlation,
    _x_moments,
)

from conftest import broad_draw
from oracle_mp import (
    _mp_conditional_entropy,
    _mp_holevo,
    _mp_joint_entropy,
    _mp_key_rate,
    _mp_moments,
    grid_holevo,
    observed,
    strong_modulation_rate,
)

DR = ReconciliationDirection.DIRECT
RR = ReconciliationDirection.REVERSE
NON_FINITE = [math.nan, math.inf, -math.inf]

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
        for name in ("eta_x", "eps_x"):
            kwargs = {"eta_x": 0.5, "eps_x": 0.0, name: bad}
            with pytest.raises(DomainError):
                ChannelParams(**kwargs)
        params = ProtocolParams(V_S=1.0, V_M=1.0)
        with pytest.raises(DomainError):
            symmetric_vpB(params, bad, 0.0)
        with pytest.raises(DomainError):
            symmetric_vpB(params, 0.5, bad)
        with pytest.raises(DomainError):
            physicality_interval(params, ChannelParams.symmetric(0.5, 0.0), bad)

    @pytest.mark.parametrize("make,fields,message", [
        *[(ProtocolParams, {name: bad}, f"{name} must be finite, got {bad!r}")
          for name in ("V_S", "V_M", "beta") for bad in NON_FINITE],
        (ProtocolParams, {"V_S": 0.0}, "V_S must be positive"),
        (ProtocolParams, {"V_S": -0.5}, "V_S must be positive"),
        (ProtocolParams, {"V_M": -0.5}, "V_M must be nonnegative"),
        (ProtocolParams, {"beta": 0.0}, "beta must lie in (0, 1]"),
        (ProtocolParams, {"beta": -0.5}, "beta must lie in (0, 1]"),
        (ProtocolParams, {"beta": 1.5}, "beta must lie in (0, 1]"),
        # every field is checked for finiteness before any range
        (ProtocolParams, {"V_S": 0.0, "beta": math.nan}, "beta must be finite, got nan"),
        # the x channel is ChannelParams, the p channel symmetric_vpB's
        # (eta, eps_p); each checks its fields as ChannelParams once did all four
        *[(make, {name: bad}, f"{name} must be finite, got {bad!r}")
          for make, name in ((ChannelParams, "eta_x"), (symmetric_vpB, "eta"),
                             (ChannelParams, "eps_x"), (symmetric_vpB, "eps_p"))
          for bad in NON_FINITE],
        *[(make, {name: bad}, f"{name} must lie in (0, 1]")
          for make, name in ((ChannelParams, "eta_x"), (symmetric_vpB, "eta"))
          for bad in (0.0, -0.5, 1.5)],
        (ChannelParams, {"eps_x": -0.5}, "eps_x must be nonnegative"),
        (symmetric_vpB, {"eps_p": -0.5}, "eps_p must be nonnegative"),
        (ChannelParams, {"eta_x": 1.5, "eps_x": math.inf}, "eps_x must be finite, got inf"),
        # transmittance before excess noise
        (symmetric_vpB, {"eta": 0.0, "eps_p": -0.5}, "eta must lie in (0, 1]"),
        (ChannelParams, {"eta_x": 0.0, "eps_x": -0.5}, "eta_x must lie in (0, 1]"),
    ])
    def test_rejection_messages(self, make, fields, message):
        valid = {
            ProtocolParams: {"V_S": 1.0, "V_M": 10.0, "beta": 1.0},
            ChannelParams: {"eta_x": 0.5, "eps_x": 0.0},
            symmetric_vpB: {"params": ProtocolParams(V_S=1.0, V_M=10.0), "eta": 0.5, "eps_p": 0.0},
        }[make]
        with pytest.raises(DomainError) as info:
            make(**{**valid, **fields})
        assert str(info.value) == message

    @pytest.mark.parametrize("bad,message", [
        *[(bad, f"V_p_B must be finite, got {bad!r}") for bad in NON_FINITE],
        (0.0, "V_p_B must be positive"),
        (-0.0, "V_p_B must be positive"),
        (-1.0, "V_p_B must be positive"),
    ])
    def test_observation_rejection_messages(self, bad, message):
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        chan = ChannelParams.symmetric(0.5, 0.0)
        for call in (lambda: physicality_interval(params, chan, bad),
                     lambda: key_rate(params, chan, bad, DR),
                     lambda: holevo_bound(params, chan, 0.0, bad, RR)):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == message

    def test_accepts_the_edges_of_each_range(self):
        ProtocolParams(V_S=5e-324, V_M=0.0, beta=1.0)
        ProtocolParams(V_S=1e308, V_M=1e308, beta=5e-324)
        ChannelParams(eta_x=1.0, eps_x=0.0)
        ChannelParams(eta_x=5e-324, eps_x=1e308)
        ChannelParams.symmetric(1.0, 0.0)

    def test_zero_transmittance_excluded(self):
        with pytest.raises(DomainError):
            ChannelParams(eta_x=0.0)
        with pytest.raises(DomainError):
            ChannelParams(eta_x=1.2)
        with pytest.raises(DomainError):
            ChannelParams(eta_x=0.5, eps_x=-0.01)

    def test_symmetric_constructor(self):
        chan = ChannelParams.symmetric(0.8, 0.05)
        assert (chan.eta_x, chan.eps_x) == (0.8, 0.05)
        assert chan == ChannelParams(0.8, 0.05)

    def test_observed_stats_consistency(self):
        params = ProtocolParams(V_S=0.7, V_M=12.0)
        chan = ChannelParams(eta_x=0.85, eps_x=0.04)
        eta_p, eps_p = 0.6, 0.02
        v_x_b = _x_moments(params, chan.eta_x, chan.eps_x).v_x_b
        expected = chan.eta_x * (params.V_S + params.V_M + chan.eps_x) + 1 - chan.eta_x
        assert v_x_b == pytest.approx(expected, abs=1e-12)
        v_p_b = symmetric_vpB(params, eta_p, eps_p)
        strict = symmetric_vpB(params, eta_p, eps_p, strict_paper=True)
        assert v_p_b - strict == pytest.approx(1 - eta_p, abs=1e-12)


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
        state = apply_channel(params, chan, C_p=-1.0, V_p_B=1.5)
        assert state.mat[2, 2] == pytest.approx(10.027, abs=1e-9)
        assert state.mat[1, 3] == -1.0
        assert state.mat[3, 3] == 1.5

    def test_identity_channel_reproduces_source_state(self):
        params = ProtocolParams(V_S=0.6, V_M=7.0)
        chan = ChannelParams.symmetric(1.0, 0.0)
        eb = build_eb_state(params)
        out = apply_channel(params, chan, C_p=pure_cp(params),
                            V_p_B=symmetric_vpB(params, 1.0, 0.0))
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

    def test_matches_50_digit_value_down_to_tiny_modulation(self):
        # 1 + eta V_M / b rounds away the low digits of a small ratio: at
        # V_S 1, eta 0.5 and eps 0 that gave a relative error of 6.1e-9 at
        # V_M 1e-8, 2.1e-2 at 1e-14, and 0 bits at 1e-17.  log1p keeps
        # them; the largest error on these draws is 3.5e-16
        rng = random.Random(331)
        points = [(1.0, v_m, 0.5, 0.0) for v_m in (1e-8, 1e-10, 1e-14, 1e-17, 1e-300, 1e6)]
        points += [(10.0 ** rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-300.0, 6.0),
                    rng.uniform(0.01, 1.0), rng.choice([0.0, rng.uniform(0.0, 0.2)]))
                   for _ in range(2000)]
        for v_s, v_m, eta, eps in points:
            got = mutual_information(ProtocolParams(V_S=v_s, V_M=v_m), ChannelParams(eta, eps))
            with mpmath.workdps(50):
                v_s, v_m, eta, eps = (mpmath.mpf(x) for x in (v_s, v_m, eta, eps))
                want = mpmath.log1p(eta * v_m / ((1 - eta) + eta * (v_s + eps))) / 2 / mpmath.ln2
                assert abs(got - want) <= 1e-15 * want, (v_s, v_m, eta, eps)

    def test_overflow_is_a_domain_error(self):
        # the signal-to-noise ratio V_M/V_S on the identity channel overflows
        with pytest.raises(DomainError, match="mutual information is not finite"):
            mutual_information(ProtocolParams(V_S=1e-10, V_M=1.7e308), ChannelParams(1.0))


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

    def test_margin_terms_agree_on_floats_and_arrays(self):
        # key_rate takes _margin_terms at one V_p_B with max and math.sqrt,
        # scan_region over its rows with np.maximum and np.sqrt: (dv, h,
        # below) agree bit for bit below the vertex by more than
        # VERTEX_SLACK and by less, on it and above it
        xm = _x_moments(ProtocolParams(V_S=0.8, V_M=5.0), 0.7, 0.05)
        slack = VERTEX_SLACK * max(1.0, abs(xm.v0))
        rows = [xm.v0 - 4.0 * slack, xm.v0 - 0.5 * slack, xm.v0, xm.v0 + 0.3]
        dv, h, below = _margin_terms(xm, np.array(rows), np.maximum, np.sqrt)
        assert below.tolist() == [True, False, False, False]
        for i, v_p_b in enumerate(rows):
            want_dv, want_h, want_below = _margin_terms(xm, v_p_b)
            assert float(dv[i]).hex() == want_dv.hex()
            assert float(h[i]).hex() == want_h.hex()
            assert bool(below[i]) is want_below
        assert dv[:3].tolist() == [0.0, 0.0, 0.0] and h[3] > 0.0

    def test_rejects_nonpositive_observation(self):
        params = ProtocolParams(V_S=1.0, V_M=1.0)
        with pytest.raises(DomainError):
            physicality_interval(params, ChannelParams.symmetric(0.9, 0.0), 0.0)

    def test_overflowing_half_width_is_a_domain_error(self):
        # coeff is 1e10 here, so coeff dv overflows at V_p_B = 1e300, where
        # the interval would be (-inf, inf)
        params = ProtocolParams(V_S=1e-10, V_M=1e10)
        chan = ChannelParams.symmetric(0.5, 0.0)
        for observe in (physicality_interval, partial(key_rate, direction=DR)):
            with pytest.raises(DomainError, match="physicality interval"):
                observe(params, chan, 1e300)

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
        v, c_x, v_x_b, b = xm[:4]
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
            eta_x, eta_p, eps_x, eps_p = (rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0),
                                          rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3))
            chan = ChannelParams(eta_x, eps_x)
            v_p_b = symmetric_vpB(params, eta_p, eps_p)
            interval = physicality_interval(params, chan, v_p_b)
            if interval is None:
                continue
            c_p = rng.uniform(*interval) if interval[1] > interval[0] else interval[0]
            state = apply_channel(params, chan, c_p, v_p_b)
            after_alice, after_bob = closed_form_conditionals(params, chan, v_p_b)
            got_dr = condition_on_homodyne(state, QuadratureSelector(Quadrature.X, 0))
            got_rr = condition_on_homodyne(state, QuadratureSelector(Quadrature.X, 1))
            assert got_dr.mat == pytest.approx(after_alice, abs=1e-10)
            assert got_rr.mat == pytest.approx(after_bob, abs=1e-10)


class TestConditionalEntropy:
    @staticmethod
    def bits(x: float) -> bytes:
        return struct.pack("<d", x)

    def test_g_mu_within_three_ulps_of_50_digit_value(self):
        # the kernel's entropy G(mu) = g(sqrt(1 + mu)) with m = (nu - 1)/2
        # taken as mu / (2 (nu + 1)), which keeps mu's relative precision
        # near a pure mode; special values and mu <= 0 give 0
        rng = np.random.default_rng(349)
        mus = ([1e-300, 2.0**-52, 1e-16, 0.5, 1.0, 3.0, 1e300, 1.7e308]
               + (10.0 ** rng.uniform(-300.0, 300.0, 20000)).tolist()
               + (10.0 ** rng.uniform(-16.0, 1.0, 5000)).tolist())
        with mpmath.workdps(50):
            for mu in mus:
                x = mpmath.mpf(mu)
                m = x / (2 * (mpmath.sqrt(1 + x) + 1))
                exact = (mpmath.log1p(m) + m * mpmath.log1p(1 / m)) / mpmath.log(2)
                assert abs(_g_mu(mu) - exact) <= 3 * 2.0 ** -52 * exact, mu
        for mu in (0.0, -0.0, -1e-300, -0.5, 2.0**-1074):
            assert _g_mu(mu) == 0.0, mu

    def test_entropy_g_within_two_ulps_of_50_digit_value(self):
        # the one scalar formula, against the log1p form at 50 digits;
        # m = (nu - 1)/2 is exact in both, so only g's own rounding shows
        rng = np.random.default_rng(347)
        nus = [1.0 + 2.0 ** -52, 1.5, 2.0, 3.0] + (
            1.0 + 10.0 ** rng.uniform(-15.0, 300.0, 20000)).tolist()
        with mpmath.workdps(50):
            for nu in nus:
                m = (mpmath.mpf(nu) - 1) / 2
                exact = (mpmath.log1p(m) + m * mpmath.log1p(1 / m)) / mpmath.log(2)
                assert abs(entropy_g(nu) - exact) <= 2.0 ** -51 * exact, nu

    def test_conditional_entropy_matches_50_digit_value(self):
        # G(b dv) and G(n11 / v_x_b) from the margins; an observation in
        # the slack below the vertex is a pure mode, as at 50 digits
        rng = np.random.default_rng(337)
        for _ in range(2000):
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-2.0, 4.0),
                                    V_M=10.0 ** rng.uniform(-1.0, 8.0))
            eta, eps = rng.uniform(0.01, 1.0), rng.choice([0.0, rng.uniform(0.0, 0.5)])
            xm = _x_moments(params, eta, eps)
            v_p_b = (1.0 + rng.uniform(-1e-8, 1.0)) / xm.b
            margins = _margins(xm, v_p_b)
            if margins is None:
                continue
            for direction in (DR, RR):
                got = _conditional_entropy(xm, margins[0], direction)
                with mpmath.workdps(50):
                    want = _mp_conditional_entropy(params, ChannelParams(eta, eps), v_p_b,
                                                   direction)
                assert abs(got - want) <= 1e-14 * max(1.0, want), (params, eta, eps, v_p_b)


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
            state = apply_channel(params, chan, c_p, v_p_b)
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

        joint = apply_channel(params, chan, c0, v_p_b)
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
                    limit = closed[direction](v_s, eta)
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
            want = symplectic_eigenvalues(apply_channel(params, chan, c_p, v_p_b))
            ob, c0, _ = observed(params, eta, eps, v_p_b)
            got = tuple(math.sqrt(1.0 + mu) for mu in _symplectic_pair(ob, c_p - c0))
            assert got == pytest.approx(tuple(want), rel=1e-9, abs=0.0)
            checked += 1

    def test_floats_and_arrays_round_alike(self):
        # the kernel gives the same bits on floats (key_rate) and on
        # 1-element arrays with a (1, 1) row column (region maps), inside
        # the interval and past its ends, where map cells are masked:
        # every step is correctly rounded in both, sqrt included, where a
        # float's ** 0.5 is libm's pow
        rng = random.Random(2024)
        draws = 0
        while draws < 20000:
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-2.0, 2.0),
                                    V_M=10.0 ** rng.uniform(-1.0, 9.0))
            eta, eps = rng.uniform(0.0, 1.0) or 1.0, rng.choice([0.0, rng.uniform(0.0, 0.2)])
            v_p_b = symmetric_vpB(params, eta, eps) + rng.choice([0.0, 10.0 ** rng.uniform(-6, 0)])
            xm = _x_moments(params, eta, eps)
            dv, h = _margins(xm, v_p_b)
            delta = h * rng.uniform(-1.5, 1.5)
            want = _symplectic_pair(_observe(xm, dv, h), delta)
            rows = _observe(xm, np.array([[dv]]), np.array([[h]]), np.sqrt)
            got = _symplectic_pair(rows, np.array([delta]), np.sqrt)
            assert [float(x[0, 0]) for x in got] == list(want), (params, eta, eps, v_p_b, delta)
            draws += 1

    def test_pure_state_is_exact(self):
        # on a lossless noiseless channel N = P - X^-1 = 0: h and t0, so
        # tr(X N) and mu_+, are 0 exactly at any modulation, where terms
        # of size V_M / V_S used to leave their rounding, and the joint
        # entropy is 0
        for v_s in (0.2, 0.6, 1.0, 3.0):
            for v_m in (1.0, 20.0, 1e4, 1e6, 1e8):
                params = ProtocolParams(V_S=v_s, V_M=v_m)
                v_p_b = symmetric_vpB(params, 1.0, 0.0)
                ob, c0, _ = observed(params, 1.0, 0.0, v_p_b)
                assert ob[:2] == (0.0, 0.0)
                with np.errstate(invalid="ignore"):
                    mu_plus, _ = _symplectic_pair(ob, np.zeros(1), np.sqrt)
                assert mu_plus[0] == 0.0
                assert _joint_entropy(ob, c0, c0) == 0.0

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
    # C0 is -31.6 and h 3.2e-8, so fl(C0 + h) - C0 is off h, and the
    # entropy's edge turns that into 4e-12 between delta = h and hi
    @example(-1.0, 3.0, 1.0, 1e-10, 0.0, DR)
    @example(-1.0, 3.0, 1.0, 1e-10, 0.0, RR)
    def test_worst_case_dominates_dense_grid(self, log_vs, log_vm, eta, eps, extra, direction):
        params = ProtocolParams(V_S=10.0**log_vs, V_M=10.0**log_vm)
        chan = ChannelParams.symmetric(eta, eps)
        v_p_b = symmetric_vpB(params, eta, eps) + extra
        a = key_rate(params, chan, v_p_b, direction)
        assert a.holevo >= grid_holevo(params, eta, eps, v_p_b, direction).max() - 1e-12

    @pytest.mark.parametrize("v_m", [1e2, 1e6, 1e8, 1e120])
    def test_slope_matches_50_digit_derivative(self, v_m):
        # the last point is V_p_B 100 on a coherent source at eta 0.1, where
        # (s - t)**3 and v b diff**2 overflow from V_M about 1e102 and 1e124
        for v_s, eta, eps, extra in ((0.5, 0.3, 0.0, 0.0), (1.0, 0.6, 0.02, 0.3),
                                     (2.0, 0.9, 0.0, 0.1), (0.7, 0.95, 0.05, 0.0),
                                     (1.0, 0.1, 0.0, 99.0)):
            params = ProtocolParams(V_S=v_s, V_M=v_m)
            chan = ChannelParams.symmetric(eta, eps)
            v_p_b = symmetric_vpB(params, eta, eps) + extra
            lo, hi = physicality_interval(params, chan, v_p_b)
            ob, c0, _ = observed(params, eta, eps, v_p_b)
            h = ob[0]
            for frac in (0.1, 0.5, 0.9):
                c_p = lo + frac * (hi - lo)
                # the slope and its derivative in z = atanh(delta/h), where
                # d delta/dz = (h**2 - delta**2)/h
                slope, d_slope = _entropy_slope(ob, math.atanh((c_p - c0) / h))
                # 50 digits past those that the oracle's det X =
                # v v_x_b - c_x**2 and its difference quotients cancel,
                # about 3 log10(V_M) at V_M 1e120
                with mpmath.workdps(50 + 3 * int(math.log10(v_m))):
                    want, curvature = (mpmath.diff(
                        lambda c: _mp_joint_entropy(params, chan, c, v_p_b), mpmath.mpf(c_p), n)
                        for n in (1, 2))
                    d_delta = (h**2 - (mpmath.mpf(c_p) - c0) ** 2) / h
                # relative only: at V_M 1e120 both are about 1e-31
                assert slope == pytest.approx(float(want), rel=1e-8, abs=0.0)
                assert d_slope == pytest.approx(float(curvature * d_delta), rel=1e-8, abs=0.0)

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
        ob, c0, _ = observed(params, 0.7, 0.0, v_p_b)
        nu_plus, nu_minus = (math.sqrt(1.0 + mu) for mu in _symplectic_pair(ob, c_star - c0))
        assert nu_plus == pytest.approx(nu_minus, rel=1e-12, abs=0.0)
        # the divided difference gives the slope there, and no derivative,
        # so the search bisects
        slope, d_slope = _entropy_slope(ob, math.atanh((c_star - c0) / ob[0]))
        assert math.isnan(d_slope)
        with mpmath.workdps(50):
            want = mpmath.diff(
                lambda c: _mp_joint_entropy(params, chan, c, v_p_b), mpmath.mpf(c_star))
        assert math.isfinite(slope)
        assert slope == pytest.approx(float(want), rel=1e-8, abs=0.0)
        # the golden-section search over the whole interval gave these
        for direction, golden in ((DR, 2.4297904129126633), (RR, 2.4297904129126637)):
            a = key_rate(params, chan, v_p_b, direction)
            assert a.holevo == pytest.approx(golden, abs=1e-12)

    def test_search_reaches_the_divided_difference_at_tiny_modulation(self, monkeypatch):
        # above C0, (s - t)/t >= 2 sqrt(eta_x V_M/b), so the search meets
        # the divided difference only where eta_x V_M/b < 2.5e-11: here
        # V_M below 1e-14, with V_p_B where v coeff = v_x_b dv.  It gives a
        # finite F and no derivative, 5-11 times in each search, and the
        # worst case matches the 60-digit maximum over the float interval
        slope = protocol._entropy_slope
        divided = []

        def recorded(ob, z):
            f, df = slope(ob, z)
            divided.append(math.isfinite(f) and math.isnan(df))
            return f, df

        monkeypatch.setattr(protocol, "_entropy_slope", recorded)
        rng = random.Random(3701)
        for _ in range(10):
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-8.0, -6.0),
                                    V_M=10.0 ** rng.uniform(-18.0, -14.0))
            eta = rng.uniform(0.05, 0.95)
            chan = ChannelParams.symmetric(eta, 0.0)
            xm = _x_moments(params, eta, 0.0)
            v_p_b = xm.v0 + xm.v * xm.coeff / xm.v_x_b
            for direction in (DR, RR):
                divided.clear()
                a = key_rate(params, chan, v_p_b, direction)
                assert any(divided), (params, eta, direction)
                want = _mp_key_rate(params, chan, v_p_b, direction, interval=a.Cp_interval)
                assert abs(a.key_rate - want) <= 1e-12 * max(1.0, abs(a.key_rate)), float(want)

    def test_slope_takes_its_limit_where_mu_minus_is_subnormal(self):
        # at V_M = 1e-315 mu_minus is 2.7e-316 at C0, subnormal, so
        # 2 (nu + 1)/mu_minus overflows and mu_minus c_x underflows; the
        # formula gave inf * 0 = NaN there, and the limit rule now takes
        # the slope's limit, which at C0 is nonnegative, as at V_M = 1e-300
        params = ProtocolParams(V_S=2.0, V_M=1e-315)
        v_p_b = 1.5 * symmetric_vpB(params, 0.3, 0.0)
        ob = observed(params, 0.3, 0.0, v_p_b)[0]
        assert 0.0 < _symplectic_pair(ob, 0.0)[1] < protocol.M_MIN
        assert _entropy_slope(ob, 0.0)[0] >= 0.0
        params = ProtocolParams(V_S=2.0, V_M=1e-300)
        ob = observed(params, 0.3, 0.0, 1.5 * symmetric_vpB(params, 0.3, 0.0))[0]
        assert _entropy_slope(ob, 0.0)[0] == pytest.approx(6.365376710075173e-151,
                                                           rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("direction", [DR, RR])
    def test_worst_case_at_interval_end(self, direction):
        params = ProtocolParams(V_S=0.8, V_M=100.0)
        chan = ChannelParams.symmetric(0.9, 0.0)
        v_p_b = symmetric_vpB(params, 0.9, 0.0)
        a = key_rate(params, chan, v_p_b, direction)
        lo, hi = a.Cp_interval
        assert a.worst_Cp == hi
        assert a.holevo == holevo_bound(params, chan, hi, v_p_b, direction)
        assert a.holevo >= grid_holevo(params, 0.9, 0.0, v_p_b, direction).max() - 1e-12

    def test_slope_evaluations_per_search(self, monkeypatch):
        # a golden section over the same grid takes about 53 kernel calls;
        # the zero search takes its slope calls plus 1 or 2 candidate
        # values: the refined point, and hi while no point had F < 0.  A
        # third of the draws have 1 - eta in 1e-9 to 1e-3, near a pure
        # state, where the slope computed from nu_minus**2 - 1 used to round
        # to an unbounded band next to an end, and a search took up to 41
        # calls.  Regula falsi took a mean of 9.7 slope calls here and at
        # most 22; Newton steps that closed the bracket took 5.5 and at most
        # 10 with 2 candidates each, and with the converged-step exit they
        # take 4.8 and at most 9, with 1.02 candidates.  Every point lies
        # above C0, z > 0, where _entropy_slope has its one formula
        slopes, kernels, entropies = [], [], []
        slope, kernel = protocol._entropy_slope, protocol._symplectic_pair
        entropy = protocol._joint_entropy

        def counted_slope(ob, z):
            assert z > 0.0, z
            slopes[-1] += 1
            return slope(ob, z)

        def counted_kernel(*args):
            kernels[-1] += 1
            return kernel(*args)

        def counted_entropy(*args):
            entropies[-1] += 1
            return entropy(*args)

        monkeypatch.setattr(protocol, "_entropy_slope", counted_slope)
        monkeypatch.setattr(protocol, "_symplectic_pair", counted_kernel)
        monkeypatch.setattr(protocol, "_joint_entropy", counted_entropy)
        rng = np.random.default_rng(97)
        for _ in range(5000):
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-2.0, 2.0),
                                    V_M=10.0 ** rng.uniform(-1.0, 9.0))
            eta = (1.0 - 10.0 ** rng.uniform(-9.0, -3.0) if rng.uniform() < 0.3
                   else rng.uniform(0.05, 1.0))
            eps = rng.choice([0.0, rng.uniform(0.0, 0.1)])
            chan = ChannelParams.symmetric(eta, eps)
            v_p_b = symmetric_vpB(params, eta, eps) + rng.choice([0.0, rng.uniform(0.0, 1.0)])
            slopes.append(0)
            kernels.append(0)
            entropies.append(0)
            key_rate(params, chan, v_p_b, DR if rng.uniform() < 0.5 else RR)
        # the patched names are the ones the search calls
        assert sum(slopes) > 0 and sum(kernels) > 0
        assert np.mean(slopes) <= 5
        assert max(slopes) <= 10
        assert np.mean(entropies) <= 1.1
        assert max(kernels) <= 2

    def test_strong_modulation_keeps_the_slope_derivative(self, monkeypatch):
        # at V_S 1, eta 0.1, V_p_B 100, (s - t)**3 overflows from V_M about
        # 1e102, which dropped s'' from dF/dz, and v b diff**2 from about
        # 1e124, which made dF/dz NaN, so the search bisected: 55 to 69
        # slope calls per key_rate from 1e105 on, against 7 at 1e100.  The
        # ratio diff**2/(s - t)**2, formed first, keeps 7 up to 1e153, below
        # the kernel's overflow at 2e153
        slopes = []
        slope = protocol._entropy_slope

        def counted_slope(ob, z):
            slopes[-1] += 1
            return slope(ob, z)

        monkeypatch.setattr(protocol, "_entropy_slope", counted_slope)
        chan = ChannelParams(0.1, 0.0)
        for exponent in (*range(100, 151, 5), 153):
            slopes.append(0)
            key_rate(ProtocolParams(V_S=1.0, V_M=10.0**exponent), chan, 100.0, DR)
        assert max(slopes) <= 10, slopes


class TestWorstCaseSearch:
    @settings(deadline=None, max_examples=150, derandomize=True)
    # a pure state under strong modulation: the Holevo bound is 0
    @example(log_vs=0.0, log_vm=4.0, eta=1.0, eps=0.0, extra=0.0, direction=DR, t=0.5)
    # V_M = 1e9, where rounding makes the slope infinite next to an end
    @example(log_vs=0.3, log_vm=9.0, eta=0.7, eps=0.02, extra=0.1, direction=DR, t=0.5)
    # on the vertex: pure loss on a coherent source, a point interval
    @example(log_vs=0.0, log_vm=2.0, eta=0.6, eps=0.0, extra=0.0, direction=RR, t=0.0)
    # the worst case at the upper end, searched from the lower one
    @example(log_vs=math.log10(0.8), log_vm=2.0, eta=0.9, eps=0.0, extra=0.0, direction=DR,
             t=0.0)
    @given(
        log_vs=st.floats(min_value=-1.0, max_value=1.0),
        log_vm=st.floats(min_value=-1.0, max_value=12.0),
        eta=st.floats(min_value=0.05, max_value=1.0),
        eps=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.1)),
        extra=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
        direction=st.sampled_from([DR, RR]),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_worst_case_matches_60_digit_maximum(self, log_vs, log_vm, eta, eps, extra,
                                                 direction, t):
        # the cold search and one started at the place t: an interior worst
        # case against the 60-digit maximum over the float interval, an
        # endpoint one against the 60-digit rate at the point the kernel
        # takes, C0 + delta with C0 exact, as the entropy's square-root
        # edge amplifies the rounding of C0 there.  It amplifies that of
        # V0 = 1/b as well: an observation whose margin dv over the vertex
        # the kernel takes as 0 is compared at the exact vertex, a pure
        # state on a lossless noiseless channel (test_pure_state_is_exact);
        # at V_S = 0.1, eta = 1 the float V_p_B lies 5.6e-16 above it
        params = ProtocolParams(V_S=10.0**log_vs, V_M=10.0**log_vm)
        chan = ChannelParams.symmetric(eta, eps)
        v_p_b = symmetric_vpB(params, eta, eps) + extra
        cold = key_rate(params, chan, v_p_b, direction)
        mi, chi, worst_cp, interval = _key_rate(params, eta, eps, v_p_b, direction, t)
        ob, c0, (_, dv) = observed(params, eta, eps, v_p_b)
        at_vertex = v_p_b
        if dv == 0.0:
            with mpmath.workdps(60):
                eta_mp, v_s, eps_mp = (mpmath.mpf(x) for x in (eta, params.V_S, eps))
                at_vertex = 1 / ((1 - eta_mp) + eta_mp * (v_s + eps_mp))
        maximum = None
        for rate, worst in ((cold.key_rate, cold.worst_Cp), (params.beta * mi - chi, worst_cp)):
            if worst in interval:
                delta = min(max(worst - c0, -ob[0]), ob[0])
                want = _mp_key_rate(params, chan, at_vertex, direction, delta=delta)
            else:
                if maximum is None:
                    maximum = _mp_key_rate(params, chan, v_p_b, direction, interval=interval)
                want = maximum
            assert abs(rate - want) <= 1e-12 * max(1.0, abs(rate)), (rate, float(want))

    def test_search_bisects_where_the_kernel_gives_no_derivative(self, monkeypatch):
        # dF/dz is NaN where the eigenvalues meet and where the slope takes
        # its infinite limit, and the search bisects in z there; with no
        # derivative anywhere it closes on the same worst case
        slope = protocol._entropy_slope
        calls = []

        def without_derivative(ob, z):
            calls.append(z)
            assert len(calls) <= 100, "search did not terminate"
            return slope(ob, z)[0], math.nan

        rng = random.Random(2741)
        for _ in range(40):
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-1.0, 1.0),
                                    V_M=10.0 ** rng.uniform(0.0, 6.0))
            eta, eps = rng.uniform(0.1, 0.95), rng.uniform(0.0, 0.1)
            v_p_b = symmetric_vpB(params, eta, eps) + rng.uniform(0.0, 1.0)
            ob, c0, _ = observed(params, eta, eps, v_p_b)
            cp, s_ab = _worst_case_correlation(ob, c0)
            calls.clear()
            with monkeypatch.context() as patched:
                patched.setattr(protocol, "_entropy_slope", without_derivative)
                cp_bisected, s_ab_bisected = _worst_case_correlation(ob, c0)
            xtol = max(protocol.WORST_CASE_XTOL * min(1.0, 2.0 * ob[0]), 8.0 * math.ulp(ob[0]))
            assert abs(cp_bisected - cp) <= xtol, (params, eta, eps, v_p_b)
            assert s_ab_bisected == pytest.approx(s_ab, rel=1e-14, abs=0.0)

    def test_worst_case_beside_an_end_matches_60_digit_maximum(self):
        # a worst case 3.7e-11 inside the upper end (xtol 6.2e-11), where
        # the joint entropy has a square-root edge: the midpoint of regula
        # falsi's final bracket lay 1.8e-13 below the 60-digit maximum,
        # and the last Newton point lies within 1e-15 of it
        params = ProtocolParams(V_S=0.4730716428388796, V_M=57.009004351213825)
        chan = ChannelParams.symmetric(0.9362880487256804, 0.0)
        v_p_b = 2.0428869609897964
        a = key_rate(params, chan, v_p_b, RR)
        lo, hi = a.Cp_interval
        assert lo < a.worst_Cp < hi
        want = _mp_key_rate(params, chan, v_p_b, RR, interval=a.Cp_interval)
        assert abs(a.key_rate - want) <= 1e-13 * max(1.0, abs(a.key_rate)), float(want)

    def test_slope_at_the_vertex_correlation_is_positive(self):
        # the premise that the search's lower end takes without a call
        # (_worst_case_correlation): at delta = 0 the slope is
        # 2 c_x (s G'(s) - t G'(t))/(s - t), and mu G'(mu) increases, as
        # its derivative, ((4 + 2 mu) G'(mu) - log2(e))/(4 (1 + mu)), is
        # log2(e) (y - tanh y)/(4 (1 + mu) tanh y) with
        # y = log((nu + 1)/(nu - 1)) > 0.  At 60 digits, with the digits
        # that y - tanh y ~ y**3/3 cancels added where mu is large, and
        # log((nu + 1)/(nu - 1)) taken as log1p(2 (nu + 1)/mu)
        def dg(mu):
            nu = mpmath.sqrt(1 + mu)
            return mpmath.log1p(2 * (nu + 1) / mu) / (mpmath.ln2 * 4 * nu)

        for k in range(-1200, 1201, 3):
            with mpmath.workdps(65 + max(0, k // 4)):
                mu = mpmath.mpf(10) ** (mpmath.mpf(k) / 4)
                derivative = ((4 + 2 * mu) * dg(mu) - 1 / mpmath.ln2) / (4 * (1 + mu))
                nu = mpmath.sqrt(1 + mu)
                y = mpmath.log1p(2 * (nu + 1) / mu)
                excess = y - mpmath.tanh(y)
                assert excess > 0 and derivative > 0, k
                closed = excess / (mpmath.ln2 * 4 * (1 + mu) * mpmath.tanh(y))
                assert abs(derivative / closed - 1) < mpmath.mpf(10) ** -50, k
                if -40 <= k <= 40:
                    step = mu * mpmath.mpf(10) ** -20
                    difference = ((mu + step) * dg(mu + step) - (mu - step) * dg(mu - step))
                    assert abs(difference / (2 * step) / derivative - 1) < 1e-30, k

        # s and t at delta = 0 from the float inputs: the eigenvalues of
        # X N = [[v coeff, c_x dv], [c_x coeff, v_x_b dv]], with
        # det X = v b and coeff = V_M ((1 - eta) + eta eps)/(V_S v b)
        rng = random.Random(2039)
        draws = [broad_draw(rng) for _ in range(2000)]
        params = ProtocolParams(V_S=2.0, V_M=1e-315)
        chan = ChannelParams.symmetric(0.3, 0.0)
        draws.append((params, chan, 1.5 * symmetric_vpB(params, 0.3, 0.0), DR))
        checked = 0
        for params, chan, v_p_b, _ in draws:
            with mpmath.workdps(60):
                v_s, v_m, eta, eps = (mpmath.mpf(x)
                                      for x in (params.V_S, params.V_M, chan.eta_x, chan.eps_x))
                v, c_x, v_x_b = _mp_moments(params, chan)
                b = (1 - eta) + eta * (v_s + eps)
                coeff = v_m * ((1 - eta) + eta * eps) / (v_s * v * b)
                dv = mpmath.mpf(v_p_b) - 1 / b
                if not (coeff > 0 and dv > 0):
                    continue
                half_tr = (v * coeff + v_x_b * dv) / 2
                s = half_tr + mpmath.sqrt(half_tr**2 - v * b * coeff * dv)
                t = v * b * coeff * dv / s
                assert s > t and s * dg(s) > t * dg(t), (params, chan, v_p_b)
            ob = observed(params, chan.eta_x, chan.eps_x, v_p_b)[0]
            if ob[0]:
                assert _entropy_slope(ob, 0.0)[0] >= 0.0, (params, chan, v_p_b)
            checked += 1
        assert checked > 1000

    def test_lower_end_holds_less_entropy_than_the_upper(self):
        # the search's reason to drop lo as a candidate: at both ends
        # nu_minus = 1 and nu_plus**2 = v b (v V_p_B - C_p**2), and C0 < 0
        # gives lo the larger C_p**2; checked at 60 digits at the float ends
        rng = random.Random(1911)
        checked = 0
        while checked < 200:
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-1.0, 1.0),
                                    V_M=10.0 ** rng.uniform(-1.0, 9.0))
            eta, eps = rng.uniform(0.05, 1.0), rng.choice([0.0, rng.uniform(0.0, 0.1)])
            chan = ChannelParams.symmetric(eta, eps)
            v_p_b = symmetric_vpB(params, eta, eps) + rng.choice([0.0, rng.uniform(0.0, 1.0)])
            lo, hi = physicality_interval(params, chan, v_p_b)
            if not hi > lo:
                continue
            with mpmath.workdps(60):
                s_lo, s_hi = (_mp_joint_entropy(params, chan, mpmath.mpf(x), v_p_b)
                              for x in (lo, hi))
                assert s_lo < s_hi, (params, eta, eps, v_p_b)
            checked += 1

    def test_started_search_matches_the_cold_one(self, monkeypatch):
        # starts anywhere, at the wrong end and on the cold worst case.  The
        # bound is the cold search's own error near an end: with the final
        # bracket's midpoint, a worst case 3.7e-11 inside an interval end,
        # with xtol 6.2e-11, lay 1.8e-13 below the 60-digit maximum cold
        # and 4.1e-14 below it started (such draws are about 1 in 30 000);
        # both searches now return a converged Newton point, and differ
        # here by at most 3.6e-15.  A start on the worst case takes that
        # point alone: its Newton step has converged (a closing point was
        # taken after it before the converged-step exit)
        calls = [0]
        slope = protocol._entropy_slope

        def counted_slope(*args):
            calls[0] += 1
            return slope(*args)

        def search(*args):
            calls[0] = 0
            return (*_worst_case_correlation(*args), calls[0])

        monkeypatch.setattr(protocol, "_entropy_slope", counted_slope)
        rng = random.Random(1709)
        cold_calls, started_calls = [], []
        while len(cold_calls) < 4000:
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-2.0, 2.0),
                                    V_M=10.0 ** rng.uniform(-2.0, 9.0))
            eta, eps = rng.uniform(0.0, 1.0) or 1.0, rng.choice([0.0, rng.uniform(0.0, 0.2)])
            v_p_b = symmetric_vpB(params, eta, eps) + rng.choice([0.0, 10.0 ** rng.uniform(-6, 0)])
            direction = rng.choice([DR, RR])
            lo, hi = physicality_interval(params, ChannelParams.symmetric(eta, eps), v_p_b)
            if not hi > lo:
                continue
            ob, c0, (xm, dv) = observed(params, eta, eps, v_p_b)
            s_cond = _conditional_entropy(xm, dv, direction)
            cp, s_ab, count = search(ob, c0)
            chi = s_ab - s_cond
            cold_calls.append(count)
            scale = max(1.0, abs(mutual_information(params, ChannelParams.symmetric(eta, eps))
                                 - chi))
            t = (cp - lo) / (hi - lo)
            for start in (rng.uniform(0.0, 1.0), 1.0 - round(t), t):
                cp_started, s_ab_started, count = search(ob, c0, start)
                chi_started = s_ab_started - s_cond
                started_calls.append(count)
                assert abs(chi_started - chi) <= 2e-13 * scale, (params, eta, eps, v_p_b, start)
                if cp in (lo, hi) or cp_started in (lo, hi):
                    assert cp_started == cp, (params, eta, eps, v_p_b, start)
                if start == t:
                    assert count == 1, (params, eta, eps, v_p_b)
        assert max(started_calls) <= max(cold_calls) + 2
        assert np.mean(started_calls) <= np.mean(cold_calls) - 1.5

    def test_started_search_probes_no_point_twice(self, monkeypatch):
        # a root walk starts each C_p search at the last probe's place t,
        # which can be the worst case itself.  No slope value is taken
        # twice, the result repeats the cold one, and a start on an
        # interior worst case takes that point alone, where the cold
        # search, which starts at the upper end, takes more
        probes = []
        slope = protocol._entropy_slope

        def recorded_slope(ob, z):
            probes.append(z)
            return slope(ob, z)

        monkeypatch.setattr(protocol, "_entropy_slope", recorded_slope)
        rng = random.Random(2711)
        for _ in range(20):
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-1.0, 1.0),
                                    V_M=10.0 ** rng.uniform(0.0, 6.0))
            eta, eps = rng.uniform(0.1, 0.95), rng.uniform(0.0, 0.1)
            v_p_b = symmetric_vpB(params, eta, eps) + rng.uniform(0.0, 1.0)
            lo, hi = physicality_interval(params, ChannelParams.symmetric(eta, eps), v_p_b)
            ob, c0, _ = observed(params, eta, eps, v_p_b)
            probes.clear()
            cp, s_ab = _worst_case_correlation(ob, c0)
            cold = len(probes)
            assert lo < cp < hi
            for t in ((cp - lo) / (hi - lo), 1.0, 0.0):
                probes.clear()
                started = _worst_case_correlation(ob, c0, t)
                assert len(set(probes)) == len(probes), (params, eta, eps, v_p_b, t)
                assert started[1] == pytest.approx(s_ab, rel=1e-15, abs=0.0)
                if t not in (0.0, 1.0):
                    assert len(probes) == 1 < cold, (params, eta, eps, v_p_b)

    def test_search_where_the_slope_takes_its_limit_takes_few_calls(self, monkeypatch):
        # at a subnormal V_M det underflows, and on 417 of these draws every
        # point above C0 takes the slope's limit -inf; bisecting z down to
        # delta = 0 took 37 calls there, the largest count of all
        slope = protocol._entropy_slope
        values = []

        def recorded_slope(ob, z):
            value = slope(ob, z)
            values[-1].append(value[0])
            return value

        monkeypatch.setattr(protocol, "_entropy_slope", recorded_slope)
        for params, chan, v_p_b, direction in seeded_broad_draws():
            values.append([])
            key_rate(params, chan, v_p_b, direction)
        limited = [len(v) for v in values if v and all(f == -math.inf for f in v)]
        assert len(limited) > 300
        assert max(limited) <= 3
        assert max(len(v) for v in values) <= 12

    def test_upper_end_holds_no_more_entropy_than_the_worst_case(self):
        # hi is no candidate once a point had F < 0, by concavity; the
        # Holevo bound there exceeds key_rate's by at most rounding, which
        # reached 2 ulps of the joint entropy on these draws, where the
        # worst case lies within xtol of hi
        for params, chan, v_p_b, direction in seeded_broad_draws():
            a = key_rate(params, chan, v_p_b, direction)
            xm = _x_moments(params, chan.eta_x, chan.eps_x)
            s_ab = a.holevo + _conditional_entropy(xm, _margins(xm, v_p_b)[0], direction)
            at_hi = holevo_bound(params, chan, a.Cp_interval[1], v_p_b, direction)
            assert at_hi <= a.holevo + 4.0 * math.ulp(s_ab), (params, chan, v_p_b, direction)


@lru_cache(maxsize=1)
def seeded_broad_draws() -> tuple:
    """20 000 broad_draws from seed 5, 5% of them at a subnormal V_M."""
    rng = random.Random(5)
    return tuple(broad_draw(rng) for _ in range(20_000))


def log_slope(h: float, r: float):
    """slope(z) = (F, dF/dz) for F(delta) = log((h - delta)/(h - r)), which
    falls from log(h/(h - r)) > 0 at 0 through 0 at r to -inf at h, like
    the entropy slope; dF/dz = -(h + delta)/h.  h - delta is formed from
    z as _entropy_slope forms it, so F is about log(2 h/(h - r)) - 2 z,
    linear in z, next to h."""
    def slope(z):
        e = math.exp(-2.0 * z)
        minus = 2.0 * h * e / (1.0 + e)
        return math.log(minus / (h - r)), -(2.0 * h - minus) / h

    return slope


def log_entropy(h: float, r: float):
    """The concave entropy whose slope log_slope gives, 0 at h."""
    def entropy(delta):
        minus = h - delta
        return minus * (1.0 - math.log(minus / (h - r))) if minus > 0.0 else 0.0

    return entropy


def synthetic_search(monkeypatch, h, slope, entropy, start=None):
    """_worst_case_correlation on C0 = 0 and an ob of h and zeros, whose
    mu_plus at hi is finite, with slope(z) in place of _entropy_slope and
    entropy(delta) in place of the joint entropy; returns (worst C_p, the
    slope's points z, the entropy's points delta).  A runaway loop stops
    at 200 slope calls."""
    probes, points = [], []

    def recorded_slope(ob, z):
        probes.append(z)
        assert len(probes) <= 200, "search did not terminate"
        return slope(z)

    def recorded_entropy(ob, c0, c_p):
        points.append(c_p)
        return entropy(c_p)

    with monkeypatch.context() as patched:
        patched.setattr(protocol, "_entropy_slope", recorded_slope)
        patched.setattr(protocol, "_joint_entropy", recorded_entropy)
        cp, _ = _worst_case_correlation((h,) + (0.0,) * 8, 0.0, start)
    return cp, probes, points


def search_xtol(h: float) -> float:
    return max(protocol.WORST_CASE_XTOL * min(1.0, 2.0 * h), 8.0 * math.ulp(h))


class TestNewtonSearch:
    """The worst-case search's steps on synthetic slopes whose zero is known."""

    @pytest.mark.parametrize("h", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("place", [1e-3, 0.3, 0.9, 1.0 - 1e-9])
    def test_logarithmic_slope_closes_on_its_zero(self, monkeypatch, h, place):
        # from a cold start and from starts on either side of the zero:
        # each point lies xtol/2 inside the bracket that the earlier ones
        # left, none repeats, and the worst case lies within xtol of the
        # zero.  Newton steps from one side, where F rounds to -1e-16 at
        # the zero, stopped moving z there; bisecting the z bracket then
        # took up to 33 calls (h = 1e-6, place 0.9, start 0.75)
        r = place * h
        slope = log_slope(h, r)
        xtol = search_xtol(h)
        half = 0.5 * xtol
        for start in (None, 0.25, 0.75, 0.9999):
            cp, probes, points = synthetic_search(monkeypatch, h, slope, log_entropy(h, r), start)
            assert abs(cp - r) <= xtol, (start, cp, r)
            assert len(set(probes)) == len(probes), start
            assert len(probes) <= 8, (start, len(probes))
            # hi is a candidate only while no point had F < 0
            below = any(slope(z)[0] < 0.0 for z in probes)
            assert points == ([cp] if below else [h, cp]), start
            a, b = 0.0, h
            for z in probes:
                x = h * math.tanh(z)
                assert a + half - 2.0 * math.ulp(h) <= x <= b - half + 2.0 * math.ulp(h), start
                if slope(z)[0] > 0.0:
                    a = x
                else:
                    b = x

    @pytest.mark.parametrize("start", [-1.0, 0.0, 0.3, 0.5, 1.0, 2.0])
    def test_start_without_an_interior_place_searches_cold(self, monkeypatch, start):
        # a place at or below the middle of the C_p interval lies at or
        # below C0, where the slope is known to be nonnegative, and one at
        # or past the upper end lies on the cold search's first point
        slope, entropy = log_slope(1.0, 0.3), log_entropy(1.0, 0.3)
        cold = synthetic_search(monkeypatch, 1.0, slope, entropy)
        assert synthetic_search(monkeypatch, 1.0, slope, entropy, start) == cold

    @pytest.mark.parametrize("value", [0.0, 1.0, math.inf])
    def test_slope_not_negative_at_the_upper_end_takes_one_call(self, monkeypatch, value):
        # the worst case then lies within xtol of hi, which stays the
        # first candidate, as no point had F < 0, and is kept where the
        # entropy rises to it
        h = 2.0
        cp, probes, points = synthetic_search(
            monkeypatch, h, lambda z: (value, math.nan), lambda delta: delta)
        assert probes == [math.atanh((h - 0.5 * search_xtol(h)) / h)]
        assert len(points) == 2 and points[0] == h
        assert h - points[1] <= search_xtol(h)
        assert cp == h

    @pytest.mark.parametrize("value", [0.0, math.nan])
    @pytest.mark.parametrize("start,k", [(None, 0), (0.75, 0), (None, 1)])
    def test_zero_or_nan_slope_closes_on_that_point(self, monkeypatch, value, start, k):
        # a slope of 0 is the zero, and NaN, which orders with nothing,
        # stops the search where it is rather than looping.  The cold
        # search's first point has F < 0 here, after which hi is no
        # candidate
        h, r = 1.0, 0.3
        slope = log_slope(h, r)
        calls = []

        def slope_with_value(z):
            calls.append(z)
            f, df = slope(z)
            return (value, df) if len(calls) == k + 1 else (f, df)

        _, probes, points = synthetic_search(
            monkeypatch, h, slope_with_value, log_entropy(h, r), start)
        assert len(probes) == k + 1
        assert points[:-1] == ([] if k else [h])
        assert abs(points[-1] - h * math.tanh(probes[k])) <= 2.0 * math.ulp(h)

    @pytest.mark.parametrize("df", [math.nan, 0.0, 1.0, -1e-300])
    def test_step_without_a_usable_derivative_bisects_in_z(self, monkeypatch, df):
        # no derivative, one that does not fall, and one whose step leaves
        # the bracket: the next point halves [0, z] and the search still
        # closes on the zero
        h, r = 1.0, 0.3
        slope = log_slope(h, r)

        def first_without_derivative(z):
            f, good = slope(z)
            return (f, df) if z == first else (f, good)

        first = math.atanh((h - 0.5 * search_xtol(h)) / h)
        cp, probes, _ = synthetic_search(
            monkeypatch, h, first_without_derivative, log_entropy(h, r))
        assert probes[:2] == [first, 0.5 * first]
        assert abs(cp - r) <= search_xtol(h)

    @pytest.mark.parametrize("h", [0.0, 5e-324])
    def test_interval_within_xtol_takes_no_slope_call(self, monkeypatch, h):
        # a point interval, and one narrower than xtol/2: the candidates
        # are hi and C0, which are one C_p on the point interval and are
        # then evaluated once, and hi holds the larger entropy here
        cp, probes, points = synthetic_search(
            monkeypatch, h, log_slope(1.0, 0.3), lambda delta: delta)
        assert probes == []
        assert points == ([h, 0.0] if h else [0.0])
        assert cp == h

    @pytest.mark.parametrize("h", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("place", [0.3, 0.9])
    def test_converged_newton_step_ends_the_search(self, monkeypatch, h, place):
        # once the Newton point from the last point lies inside the
        # bracket and within xtol/2 of that point, it is the refined point
        # (rtsafe's |dx| < xacc exit), with no point taken to close the
        # bracket, which is still wider than xtol
        r = place * h
        slope = log_slope(h, r)
        xtol = search_xtol(h)
        cp, probes, points = synthetic_search(monkeypatch, h, slope, log_entropy(h, r))
        f, df = slope(probes[-1])
        newton = h * math.tanh(probes[-1] - f / df)
        assert cp == newton and points == [cp]
        assert abs(newton - h * math.tanh(probes[-1])) <= 0.5 * xtol
        a, b = 0.0, h
        for z in probes:
            if slope(z)[0] > 0.0:
                a = h * math.tanh(z)
            else:
                b = h * math.tanh(z)
        assert a <= newton <= b and b - a > xtol, (a, b)
        assert abs(cp - r) <= max(1e-3 * xtol, 2.0 * math.ulp(h))

    @pytest.mark.parametrize("h", [1e-160, 1.0])
    def test_slope_limit_above_c0_probes_beside_the_lower_end(self, monkeypatch, h):
        # where det underflows, as at a subnormal V_M, every point above C0
        # takes the slope's limit -inf; the zero then lies below the first
        # point and above 0, so the second point is xtol/2 above 0, and
        # its limit closes the bracket [0, xtol/2] on its midpoint.
        # Bisecting z took 37 calls here
        half = 0.5 * search_xtol(h)
        cp, probes, points = synthetic_search(
            monkeypatch, h, lambda z: (-math.inf, math.nan), lambda delta: 0.0)
        assert probes == [math.atanh((h - half) / h), math.atanh(half / h)]
        assert points == [cp] and cp == 0.5 * half

    def test_slope_limit_after_a_positive_slope_bisects_in_z(self, monkeypatch):
        # once a point had F > 0, the limit is a negative slope like any
        # other, and the search bisects in z as on a finite one, with the
        # point xtol/2 above 0 taken once before; that point taken after
        # every limit halved the bisection's pace
        h, r = 1.0, 0.5

        def step(below):
            return lambda z: (1.0, math.nan) if math.tanh(z) < r else (below, math.nan)

        _, finite, _ = synthetic_search(monkeypatch, h, step(-1.0), lambda delta: 0.0)
        cp, limit, _ = synthetic_search(monkeypatch, h, step(-math.inf), lambda delta: 0.0)
        assert limit[1] == math.atanh(0.5 * search_xtol(h) / h)
        assert len(limit) <= len(finite) + 1, (len(limit), len(finite))
        assert abs(cp - r) <= search_xtol(h)

    def test_slope_limit_then_finite_slope_closes_on_the_zero(self, monkeypatch):
        # a limit at the upper end only: the point xtol/2 above 0 has
        # F > 0, and Newton steps from there close on the zero
        h, r = 1.0, 0.3
        slope = log_slope(h, r)
        half = 0.5 * search_xtol(h)
        cp, probes, _ = synthetic_search(
            monkeypatch, h, lambda z: (-math.inf, math.nan) if z > 3.0 else slope(z),
            log_entropy(h, r))
        assert probes[1] == math.atanh(half / h)
        assert abs(cp - r) <= search_xtol(h)
        assert len(probes) <= 8


class TestKeyRate:
    @pytest.mark.parametrize("v_m", [1e2, 1e4, 1e6, 1e8])
    def test_identity_channel_keeps_all_mutual_information(self, v_m):
        # the shared state is pure, so the eavesdropper learns nothing, at
        # any modulation: the kernel's margins are all 0 there, where
        # products of size V_M used to leave a Holevo bound of 7.9e-14
        # (V_M = 1e2) to 2.5e-7 (V_M = 1e8)
        params = ProtocolParams(V_S=1.0, V_M=v_m, beta=0.95)
        chan = ChannelParams.symmetric(1.0, 0.0)
        v_p_b = symmetric_vpB(params, 1.0, 0.0)
        for direction in (DR, RR):
            a = key_rate(params, chan, v_p_b, direction)
            assert a.holevo == 0.0
            assert a.key_rate == 0.95 * mutual_information(params, chan)

    def test_assessment_invariants(self):
        params = ProtocolParams(V_S=2.0, V_M=100.0, beta=0.9)
        chan = ChannelParams.symmetric(0.8, 0.03)
        v_p_b = symmetric_vpB(params, 0.8, 0.03)
        a = key_rate(params, chan, v_p_b, DR)
        assert abs(a.key_rate - (0.9 * a.mutual_info - a.holevo)) <= 1e-12
        lo, hi = a.Cp_interval
        assert lo <= a.worst_Cp <= hi

    def test_holevo_bound_at_the_worst_correlation_is_the_reported_holevo(self):
        # holevo_bound reads the same observation and kernel as the search,
        # so at worst_Cp it gives the reported figure to the last bit
        rng = np.random.default_rng(211)
        checked = 0
        for _ in range(4000):
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-1.0, 1.0),
                                    V_M=10.0 ** rng.uniform(-2.0, 8.0))
            eta_x, eta_p = rng.uniform(0.02, 1.0, size=2)
            eps_x, eps_p = rng.choice([0.0, rng.uniform(0.0, 0.2)], size=2)
            if rng.uniform() < 0.5:  # a symmetric channel
                eta_p, eps_p = eta_x, eps_x
            chan = ChannelParams(eta_x, eps_x)
            v_p_b = (symmetric_vpB(params, eta_p, eps_p)
                     + rng.choice([0.0, 10.0 ** rng.uniform(-9.0, 1.0)]))
            direction = DR if rng.uniform() < 0.5 else RR
            try:
                a = key_rate(params, chan, v_p_b, direction)
            except UnphysicalObservation:
                continue
            assert holevo_bound(params, chan, a.worst_Cp, v_p_b, direction) == a.holevo
            checked += 1
        assert checked > 3000

    def test_subnormal_modulation_computes(self):
        # with V_M subnormal, det = v b (h - delta)(h + delta) underflows
        # inside the interval, so mu_minus rounds to 0 where the search
        # probes the slope; the slope takes its infinite limit there, and
        # key_rate computes as holevo_bound and region maps do
        rng = random.Random(1323)
        for _ in range(40):
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-1.0, 1.0),
                                    V_M=10.0 ** rng.uniform(-323.0, -280.0))
            eta, eps = rng.uniform(0.02, 1.0), rng.choice([0.0, rng.uniform(0.0, 0.2)])
            chan = ChannelParams.symmetric(eta, eps)
            v_p_b = symmetric_vpB(params, eta, eps) + rng.choice([0.0, 10.0 ** rng.uniform(-9, 1)])
            direction = rng.choice([DR, RR])
            a = key_rate(params, chan, v_p_b, direction)
            assert all(math.isfinite(x) for x in (a.mutual_info, a.holevo, a.key_rate,
                                                  a.worst_Cp, *a.Cp_interval)), a
            assert a.holevo == holevo_bound(params, chan, a.worst_Cp, v_p_b, direction)
            lo, hi = a.Cp_interval
            pad = max(hi - lo, 1e-300)
            grid = SweepConfig(x_min=0.5 * v_p_b, x_max=2.0 * v_p_b, cp_min=lo - pad,
                               cp_max=hi + pad, x_points=5, cp_points=41)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scan_region(params, (eta, eps), grid, RegionMode.FREE_VPB)

    def test_overflow_at_the_upper_end_raises(self, monkeypatch):
        # at V_M = 2e153 mu_plus overflows in the upper part of the
        # interval, hi included, where the region map raises, but not at the
        # worst case; a point below hi has F < 0, so the search takes no
        # entropy at hi, and key_rate raises from mu_plus there before it
        # takes the worst case's.  At 1e153 it computes
        chan = ChannelParams.symmetric(0.1, 0.0)
        ob = observed(ProtocolParams(V_S=1.0, V_M=2e153), 0.1, 0.0, 100.0)[0]
        assert _symplectic_pair(ob, ob[0])[0] == math.inf
        assert math.isfinite(_symplectic_pair(ob, 0.01 * ob[0])[0])
        entropies = []
        monkeypatch.setattr(protocol, "_joint_entropy",
                            lambda *args: entropies.append(args[2]) or 0.0)
        with pytest.raises(DomainError, match="two-mode kernel is not finite"):
            key_rate(ProtocolParams(V_S=1.0, V_M=2e153), chan, 100.0, DR)
        assert entropies == []
        monkeypatch.undo()
        assert math.isfinite(key_rate(ProtocolParams(V_S=1.0, V_M=1e153), chan, 100.0, DR).holevo)

    def test_raw_holevo_is_at_most_rounding_below_zero(self):
        # chi = S_AB - S_cond is a Holevo quantity, never negative, so
        # key_rate only clamps rounding: the raw difference at the worst
        # case lies within 8 ulps of max(1, S_AB) below 0.  A bound relative
        # to S_AB alone fails at subnormal V_M, where a probe found S_AB
        # 4.8e-299 and chi -4.76e-299; the worst elsewhere was 3 ulps of
        # S_AB = 1.88
        rng = random.Random(2027)
        negative = 0
        for _ in range(20000):
            params, chan, v_p_b, direction = broad_draw(rng)
            ob, c0, (xm, dv) = observed(params, chan.eta_x, chan.eps_x, v_p_b)
            s_ab = _worst_case_correlation(ob, c0)[1]
            chi = s_ab - _conditional_entropy(xm, dv, direction)
            assert chi >= -8.0 * math.ulp(max(1.0, s_ab)), (params, chan, v_p_b, direction)
            assert key_rate(params, chan, v_p_b, direction).holevo == max(chi, 0.0)
            negative += chi < 0.0
        # the clamp has rounding to clamp
        assert negative > 0

    def test_worst_case_lies_at_or_above_the_vertex_correlation(self):
        # the joint entropy's slope at C0 is >= 0: there it is
        # 2 c_x (mu_plus f'(mu_plus) - mu_minus f'(mu_minus))/(mu_plus - mu_minus),
        # and mu f'(mu) increases with mu.  It is concave, so the worst case
        # lies in [C0, hi], within the search's xtol, on broad draws; the
        # smallest (worst_Cp - C0)/h on these was 0.0092
        rng = random.Random(2029)
        for _ in range(10000):
            params, chan, v_p_b, direction = broad_draw(rng)
            worst_cp = key_rate(params, chan, v_p_b, direction).worst_Cp
            ob, c0, _ = observed(params, chan.eta_x, chan.eps_x, v_p_b)
            xtol = max(protocol.WORST_CASE_XTOL * min(1.0, 2.0 * ob[0]), 8.0 * math.ulp(ob[0]))
            assert worst_cp >= c0 - xtol, (params, chan, v_p_b, direction)

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

    @pytest.mark.parametrize("v_s", [3e3, 1e4])
    @pytest.mark.parametrize("eta", [1.0, 0.9])
    @pytest.mark.parametrize("eps", [0.0, 0.01])
    def test_observation_in_the_slack_below_a_small_vertex(self, v_s, eta, eps):
        # V0 = 1/b is below 1, so VERTEX_SLACK is absolute there, and with
        # b above about 2000 it puts the DR conditional eigenvalue
        # sqrt(b V_p_B) more than 1e-9 below 1.  physicality_interval
        # accepts the observation; the eigenvalue counts as a pure mode, as
        # in holevo_bound and region maps, where it used to raise DomainError
        params = ProtocolParams(V_S=v_s, V_M=10.0)
        chan = ChannelParams.symmetric(eta, eps)
        v0 = physicality_parabola(params, chan)[0]
        v_p_b = v0 - 0.9 * VERTEX_SLACK * max(1.0, abs(v0))
        assert physicality_interval(params, chan, v_p_b) is not None
        assert math.sqrt(_x_moments(params, eta, eps).b * v_p_b) < 1.0 - 1e-9
        a = key_rate(params, chan, v_p_b, DR)
        assert math.isfinite(a.key_rate)
        assert a.holevo == holevo_bound(params, chan, a.worst_Cp, v_p_b, DR)

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

    @settings(deadline=None, max_examples=500)
    @given(
        v_s=st.floats(min_value=1e-8, max_value=1e8),
        v_m=st.floats(min_value=0.0, max_value=1e14),
        eta=st.floats(min_value=1e-12, max_value=1.0),
        eps=st.floats(min_value=0.0, max_value=10.0),
    )
    # on the vertex: V_p_B = b = 1 at every eta
    @example(v_s=1.0, v_m=10.0, eta=1.0, eps=0.0)
    @example(v_s=1.0, v_m=1e14, eta=0.3, eps=0.0)
    @example(v_s=1.0, v_m=0.0, eta=1e-12, eps=0.0)
    def test_vacuum_term_keeps_the_observation_physical(self, v_s, v_m, eta, eps):
        # V_p_B b = (1 - eta + eta/V_S + eta eps)(1 - eta + eta V_S + eta eps)
        # >= 1 by Cauchy-Schwarz, so no symmetric observation lies below the
        # parabola vertex V0 = 1/b, and the sweeps never meet one
        params = ProtocolParams(V_S=v_s, V_M=v_m)
        chan = ChannelParams.symmetric(eta, eps)
        assert physicality_interval(params, chan, symmetric_vpB(params, eta, eps)) is not None


class TestAsymptoticRates:
    def test_coherent_reference_values(self):
        assert asymptotic_key_rate_dr(1.0, 0.5) == pytest.approx(
            1.0 - LOG2E, abs=1e-12
        )
        assert asymptotic_key_rate_dr(1.0, 0.9) == pytest.approx(
            1.1422674598321931, abs=1e-12
        )
        assert asymptotic_key_rate_rr(1.0, 0.5) == pytest.approx(
            0.35555288572532473, abs=1e-12
        )

    def test_low_transmittance_reverse_approximation(self):
        eta = 1e-3
        approx = eta * LOG2E / 3.0
        assert abs(asymptotic_key_rate_rr(1.0, eta) / approx - 1.0) <= 0.05

    def test_reverse_coherent_increases_toward_unit_transmittance(self):
        etas = np.linspace(0.05, 0.999, 40)
        vals = [asymptotic_key_rate_rr(1.0, e) for e in etas]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_direct_rate_monotone_in_transmittance(self):
        etas = np.linspace(0.5, 0.99, 30)
        vals = [asymptotic_key_rate_dr(2.0, e) for e in etas]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_general_forms_meet_the_coherent_ones_at_unit_signal_variance(self):
        # the forms are continuous at V_S = 1
        for eta in np.linspace(0.01, 0.99, 50):
            for v_s in (1.0 - 1e-9, 1.0 + 1e-9):
                assert asymptotic_key_rate_dr(v_s, eta) == pytest.approx(
                    asymptotic_key_rate_dr(1.0, eta), rel=1e-7, abs=1e-7)
                assert asymptotic_key_rate_rr(v_s, eta) == pytest.approx(
                    asymptotic_key_rate_rr(1.0, eta), rel=1e-7, abs=1e-7)

    def test_unit_signal_variance_matches_high_precision(self):
        # at V_S = 1 the reverse form is (atanh(r)/r - 1) / ln 2 with
        # r = sqrt(eta), which cancels as eta -> 0 unless summed as a series.
        # The direct form changes sign at eta of about 0.649, where a float
        # sum of its order-one terms has no relative accuracy, so its error
        # is measured against at least 1e-2
        rng = random.Random(40)
        etas = [10.0 ** rng.uniform(-300.0, math.log10(0.5)) for _ in range(300)]
        etas += [1.0 - 10.0 ** rng.uniform(-16.0, math.log10(0.5)) for _ in range(300)]
        for eta in etas:
            # atanh(r)/r - 1 is about eta/3: keep 40 digits past the cancellation
            with mpmath.workdps(40 - int(math.log10(eta))):
                e = mpmath.mpf(eta)
                root = mpmath.sqrt(e)
                want_dr = (mpmath.log(2 * e) - mpmath.log(e * (1 - e)) / 2 - 1) / mpmath.log(2)
                want_rr = (mpmath.atanh(root) / root - 1) / mpmath.log(2)
                err_dr = abs(asymptotic_key_rate_dr(1.0, eta) - want_dr)
                err_rr = abs(asymptotic_key_rate_rr(1.0, eta) - want_rr)
                assert err_dr <= 1e-13 * max(abs(want_dr), 1e-2), eta
                assert err_rr <= 1e-13 * abs(want_rr), eta
        for eta in (5e-324, 1e-320, 1e-310, 2.0 ** -1023):  # subnormal
            assert math.isfinite(asymptotic_key_rate_dr(1.0, eta))
            assert math.isfinite(asymptotic_key_rate_rr(1.0, eta))

    def test_unit_signal_variance_follows_the_nearby_domain(self):
        # near eta = 1 the conditional eigenvalue D of the reverse form tends
        # to 1; V_S = 1 and its neighbours return the same finite rate there
        for eta in (1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15, 1.0 - 1e-16):
            for func in (asymptotic_key_rate_dr, asymptotic_key_rate_rr):
                at_one = func(1.0, eta)
                assert math.isfinite(at_one), (func, eta)
                near = pytest.approx(at_one, rel=1e-9, abs=0.0)
                for v_s in (1.0 - 1e-9, 1.0 + 1e-9):
                    assert func(v_s, eta) == near, (func, v_s, eta)

    @pytest.mark.parametrize("v_s", [math.inf, math.nan, 0.0, -1.0])
    def test_signal_variance_must_be_positive_and_finite(self, v_s):
        for func in (asymptotic_key_rate_dr, asymptotic_key_rate_rr):
            with pytest.raises(DomainError):
                func(v_s, 0.5)

    def test_transmittance_domain_is_open(self):
        for func in (asymptotic_key_rate_dr, asymptotic_key_rate_rr):
            with pytest.raises(DomainError):
                func(1.0, 0.0)
            with pytest.raises(DomainError):
                func(1.0, 1.0)

    @pytest.mark.parametrize("v_s", [5e-324, 1e-320, 4e-309, 1e-300, 1e-100, 1e-17, 1e-3, 0.5,
                                     1.0 - 1e-9, 1.0 + 1e-9, 2.0, 1e3, 1e17, 1e100, 1e200,
                                     1e292, 1e300])
    def test_extreme_inputs_match_high_precision(self, v_s):
        # c -> 1 in the direct form and D -> infinity in the reverse form
        # used to end in math domain errors, divisions by zero and NaN, and
        # the reverse form's x overflows from V_S of about 5e291 as eta -> 1.
        # Below V_S of about 5.6e-309 1/V_S overflows, and in the direct
        # form so does 1/s for s = eta |1 - V_S| below about 5.6e-309
        with mpmath.workdps(700):
            log2 = mpmath.log(2)
            for eta in (5e-324, 1e-300, 1e-100, 1e-17, 1e-6, 0.3, 0.9, 1.0 - 1e-9, 1.0 - 1e-16):
                vs, e = mpmath.mpf(v_s), mpmath.mpf(eta)
                c = mpmath.sqrt((1 + e * (1 / vs - 1)) * (1 + e * (vs - 1)))
                s = e * abs(1 - vs)
                want_dr = (c * mpmath.atanh(1 / c) - 1 + mpmath.log(s / (1 + s))) / log2
                got_dr = asymptotic_key_rate_dr(v_s, eta)
                assert abs(got_dr - want_dr) <= 1e-12 * max(1.0, abs(want_dr)), (v_s, eta)

                d = mpmath.sqrt((1 + e * (vs - 1)) / (e * vs))
                want_rr = (d / 2 * mpmath.log((d + 1) / (d - 1)) - mpmath.log(1 + s) - 1) / log2
                got_rr = asymptotic_key_rate_rr(v_s, eta)
                assert abs(got_rr - want_rr) <= 1e-12 * max(1.0, abs(want_rr)), (v_s, eta)

    def test_direct_rate_at_large_u_is_relatively_accurate(self):
        # where r**2 = 1/(1 + u) < 0.01 the direct rate is a difference of
        # two small terms, about 1/(3u) and 1/s; the logarithms of size
        # ln V_S that the form used there left 4.1e-14 at (1e100, 0.3),
        # where the rate is -2.5e-100.  At large V_S the rate changes sign
        # at eta = 2/3, where one ulp of eta moves it by its own size, so
        # the grid keeps away from there.
        checked = 0
        with mpmath.workdps(700):
            log2 = mpmath.log(2)
            for v_s in (1e-300, 1e-100, 1e-17, 1e-5, 1e5, 1e17, 1e100, 1e200, 1e300):
                for eta in (1e-300, 1e-100, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-9,
                            1.0 - 1e-16):
                    vs, e = mpmath.mpf(v_s), mpmath.mpf(eta)
                    c2 = (1 + e * (1 / vs - 1)) * (1 + e * (vs - 1))
                    if not c2 > 100:
                        continue
                    c, s = mpmath.sqrt(c2), e * abs(1 - vs)
                    want = (c * mpmath.atanh(1 / c) - 1 + mpmath.log(s / (1 + s))) / log2
                    got = asymptotic_key_rate_dr(v_s, eta)
                    assert abs(got - want) <= 1e-13 * abs(want), (v_s, eta, got, float(want))
                    checked += 1
        assert checked >= 50

    def test_reverse_rate_near_unit_transmittance_matches_high_precision(self):
        # D - 1 is about 2.5e-16 here; the form does not cancel as D -> 1
        with mpmath.workdps(60):
            e, vs = mpmath.mpf(1.0 - 1e-15), mpmath.mpf(2.0)
            d = mpmath.sqrt((1 + e * (vs - 1)) / (e * vs))
            want = (d / 2 * mpmath.log((d + 1) / (d - 1)) - mpmath.log(1 + e) - 1) / mpmath.log(2)
            assert abs(asymptotic_key_rate_rr(2.0, 1.0 - 1e-15) - want) <= 1e-13 * want

    def test_general_forms_reduce_to_coherent_in_the_limit(self):
        for v_s in (1.0 - 1e-5, 1.0 + 1e-5):
            for eta in (0.3, 0.6, 0.9):
                assert asymptotic_key_rate_dr(v_s, eta) == pytest.approx(
                    asymptotic_key_rate_dr(1.0, eta), abs=1e-4
                )
                assert asymptotic_key_rate_rr(v_s, eta) == pytest.approx(
                    asymptotic_key_rate_rr(1.0, eta), abs=1e-4
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
        assert k_dr == pytest.approx(asymptotic_key_rate_dr(1.0, eta), abs=1e-3)
        assert k_rr == pytest.approx(asymptotic_key_rate_rr(1.0, eta), abs=1e-3)


# acceptance 4's cells: a symmetric noiseless channel, V_S and eta
STRONG_MODULATION_CELLS = [(v_s, eta, direction) for v_s in (0.5, 1.0, 2.0)
                           for eta in (0.3, 0.6, 0.9) for direction in (DR, RR)]


class TestStrongModulationWorstCase:
    # |key_rate - K| <= STRONG_MODULATION_C max(1, |K|) / V_M.  The largest
    # measured constant is 4.1 on acceptance 4's cells, 11.5 on the noisy
    # draws below, and 13.6 on 3 000 draws with seeds 1-3, most of it the
    # mutual information's b/(2 ln 2 eta V_M)
    STRONG_MODULATION_C = 32.0

    def test_key_rate_approaches_the_limit_as_one_over_modulation(self):
        rng = random.Random(23)
        points = [(v_s, eta, 0.0, 0.0, direction)
                  for v_s, eta, direction in STRONG_MODULATION_CELLS]
        # noisy channels, with V_p_B up to 1 above the symmetric value
        points += [(10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(0.05, 1.0),
                    rng.uniform(0.0, 0.1), rng.uniform(0.0, 1.0), rng.choice([DR, RR]))
                   for _ in range(240)]
        for v_s, eta, eps, extra, direction in points:
            v_p_b = symmetric_vpB(ProtocolParams(V_S=v_s, V_M=1.0), eta, eps) + extra
            limit = strong_modulation_rate(v_s, eta, eps, v_p_b, direction)
            for v_m in (1e6, 1e8, 1e10):
                params = ProtocolParams(V_S=v_s, V_M=v_m)
                k = key_rate(params, ChannelParams(eta, eps), v_p_b, direction).key_rate
                bound = self.STRONG_MODULATION_C * max(1.0, abs(limit)) / v_m
                assert abs(k - limit) <= bound, (v_s, eta, eps, extra, direction, v_m)

    @pytest.mark.parametrize("v_s,eta,direction", STRONG_MODULATION_CELLS)
    def test_upper_end_is_the_closed_form(self, v_s, eta, direction):
        # the closed forms pin C_p at hi, u = 1
        closed = asymptotic_key_rate_dr if direction is DR else asymptotic_key_rate_rr
        end = strong_modulation_rate(v_s, eta, 0.0, eta / v_s + 1.0 - eta, direction, u=1.0)
        assert abs(end - closed(v_s, eta)) <= 1e-13 * max(1.0, abs(end))


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
        "keyrate_vs_attenuation": lambda: keyrate_vs_attenuation(
            params, eps, [0.0, db], direction).ordinate,
        "max_attenuation": lambda: max_attenuation(params, eps, direction, tol=1e-2),
        "max_tolerable_noise": lambda: max_tolerable_noise(params, db, direction, tol=1e-3),
        "noise_frontier": lambda: noise_frontier(params, [db], direction, tol=1e-3).ordinate,
    }


@pytest.mark.parametrize("name", sorted(_entry_points(1.0, 1.0, 0.5, 0.0, 1.0, 0.0, DR)))
@settings(deadline=None, max_examples=100)
# a log-uniform V_S never draws the coherent source exactly
@example(v_s=1.0, v_m=1.0, eta=1e-12, eps=0.0, v_p_b=1.0, c_p=0.0, direction=DR)
@example(v_s=1.0, v_m=1e6, eta=1.0 - 1e-15, eps=0.0, v_p_b=1.0, c_p=0.0, direction=RR)
# 1/V_S and 1/(eta |1 - V_S|) overflow
@example(v_s=1e-320, v_m=1.0, eta=1e-318, eps=0.0, v_p_b=1.0, c_p=0.0, direction=DR)
# the kernel's split overflows near an interval end, so mu_minus rounds to 0
@example(v_s=1.0, v_m=2e153, eta=0.1, eps=0.0, v_p_b=100.0, c_p=0.0, direction=DR)
# mu_minus = det / mu_plus underflows to 0 at the search's end probe
@example(v_s=2.0, v_m=1e-315, eta=0.3, eps=0.0, v_p_b=0.85, c_p=0.0, direction=DR)
# h is 1.6e51 and the split is 0 at the interval's ends, where the slope is
# 0/0: the search's end probes lie 8 ulps of h inside them
@example(v_s=1.0, v_m=1e206, eta=1.0, eps=1.0, v_p_b=1.0, c_p=0.0, direction=DR)
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
