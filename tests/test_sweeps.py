import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import INSECURE_CODES, load_script, split_insecure_rows
from oracle_mp import _mp_key_rate, independent_dr_rate
from udcvqkd import (
    ChannelParams,
    ConfigError,
    Curve,
    DomainError,
    NoPositiveRate,
    NoRoot,
    ProtocolParams,
    ReconciliationDirection,
    RegionClass,
    RegionMap,
    RegionMode,
    SweepConfig,
    UnphysicalObservation,
    UnphysicalState,
    curve_to_csv,
    db_grid,
    db_to_eta,
    eta_to_db,
    holevo_bound,
    key_rate,
    keyrate_vs_attenuation,
    max_attenuation,
    max_tolerable_noise,
    mutual_information,
    noise_frontier,
    physicality_interval,
    physicality_parabola,
    region_to_json,
    scan_region,
    symmetric_vpB,
    write_curve_csv,
    write_region_json,
)
from udcvqkd import __version__, protocol, sweeps
from udcvqkd.gaussian import apply_channel, symplectic_form
from udcvqkd.protocol import (
    LOG2E,
    _conditional_entropy,
    _g_mu,
    _g_mu_array,
    _margins,
    _observe,
    _symplectic_pair,
    _vpb,
    _x_moments,
)
from udcvqkd.sweeps import _bracket_sign_change

DR = ReconciliationDirection.DIRECT
RR = ReconciliationDirection.REVERSE


def region_grid(x_min, x_max, points=40, cp_min=-2.4, cp_max=-0.8, **kw):
    kw.setdefault("x_points", points)
    kw.setdefault("cp_points", points)
    return SweepConfig(x_min=x_min, x_max=x_max, cp_min=cp_min, cp_max=cp_max, **kw)


class TestHelpers:
    def test_db_eta_roundtrip(self):
        for db in (0.0, 0.3, 3.0, 20.0):
            assert eta_to_db(db_to_eta(db)) == pytest.approx(db, abs=1e-12)

    def test_lossless_channel_is_positive_zero_db(self):
        # -10 log10(1) is -0.0, which JSON writes as "-0.0"
        assert math.copysign(1.0, eta_to_db(1.0)) == 1.0

    @pytest.mark.parametrize("eta", [0.0, -0.5, math.nan])
    def test_eta_to_db_needs_positive_transmittance(self, eta):
        with pytest.raises(DomainError):
            eta_to_db(eta)

    def test_db_grid_is_inclusive(self):
        grid = db_grid(0.0, 3.0, 0.01)
        assert len(grid) == 301
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(3.0, abs=1e-12)

    def test_db_grid_rejects_bad_steps(self):
        with pytest.raises(ConfigError):
            db_grid(0.0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            db_grid(1.0, 0.0, 0.1)

    def test_db_grid_caps_its_point_count(self, monkeypatch):
        # a finite grid of 3e300 points is refused before any list is built
        def no_list(*args):
            raise AssertionError("db_grid built its list")

        monkeypatch.setattr(sweeps, "range", no_list, raising=False)
        with pytest.raises(ConfigError, match="at most"):
            db_grid(0.0, 3.0, 1e-300)
        monkeypatch.undo()
        monkeypatch.setattr(sweeps, "DB_GRID_CAP", 4)
        assert db_grid(0.0, 3.0, 1.0) == [0.0, 1.0, 2.0, 3.0]
        with pytest.raises(ConfigError):
            db_grid(0.0, 4.0, 1.0)


def scalar_g_mu_with_np_log1p(mu: float) -> float:
    """protocol._g_mu's arithmetic, element by element, through np.log1p."""
    m = mu / (2.0 * (math.sqrt(1.0 + mu) + 1.0))
    if m < 2.0 ** -1022:
        return 0.0
    return float((np.log1p(m) + m * np.log1p(1.0 / m)) * LOG2E)


class TestGArray:
    @staticmethod
    def fuzzed_mu(seed):
        rng = np.random.default_rng(seed)
        special = [-1.0, -0.5, -2.0**-52, 0.0, 5e-324, 2.0**-1022, 2.0**-1020, 2.0**-52,
                   0.5, 1.0, math.nan, math.inf, 1e300, np.finfo(float).max]
        mu = np.concatenate([special, 10.0 ** rng.uniform(-320.0, 300.0, 2000),
                             10.0 ** rng.uniform(-16.0, 0.0, 1000),
                             rng.uniform(-1.0, 0.0, 200)])
        rng.shuffle(mu)
        return mu.reshape(2, -1)

    @pytest.mark.parametrize("seed", [3, 5])
    def test_equal_to_scalar_g_mu(self, seed):
        mu = self.fuzzed_mu(seed)
        values = mu.ravel().tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _g_mu_array(mu)
        assert mu.tobytes() == np.array(values).tobytes()  # mu is left as it was
        got = out.ravel().tolist()
        for x, g in zip(values, got):
            if math.isnan(x) or math.isinf(x):
                # m is NaN for both, which the array counts as 0 and the
                # scalar carries through
                assert g == 0.0 and math.isnan(_g_mu(x))
            else:
                # bit for bit the scalar arithmetic, with numpy's log1p,
                # which may round an ulp away from math.log1p
                want = scalar_g_mu_with_np_log1p(x)
                assert g == want and math.copysign(1.0, g) == math.copysign(1.0, want)
                assert g == pytest.approx(_g_mu(x), rel=4e-16, abs=0.0)


class TestConfigValidation:
    def test_resolution_floor(self):
        with pytest.raises(ConfigError):
            region_grid(1.0, 2.0, points=1)

    def test_empty_ranges_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(x_min=2.0, x_max=1.0, cp_min=-1.0, cp_max=0.0)
        with pytest.raises(ConfigError):
            SweepConfig(x_min=1.0, x_max=2.0, cp_min=0.0, cp_max=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_settings_rejected(self, bad):
        for args in ((0.0, bad, 0.1), (bad, 1.0, 0.1), (0.0, 1.0, bad)):
            with pytest.raises(ConfigError):
                db_grid(*args)
        with pytest.raises(ConfigError):
            region_grid(1.0, bad)
        with pytest.raises(ConfigError):
            region_grid(1.0, 2.0, cp_min=-bad)
        # finite settings whose span, or span over step, overflows
        for args in ((0.0, 3.0, 5e-324), (-1e308, 1e308, 1.0)):
            with pytest.raises(ConfigError):
                db_grid(*args)
        with pytest.raises(ConfigError):
            region_grid(-1e308, 1e308)
        with pytest.raises(ConfigError):
            region_grid(1.0, 2.0, cp_min=-1e308, cp_max=1e308)
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        with pytest.raises(ConfigError):
            max_tolerable_noise(params, 0.2, DR, tol=bad)
        with pytest.raises(ConfigError):
            max_attenuation(params, 0.03, DR, tol=bad)

    def test_grid_caps_its_cell_count(self, monkeypatch):
        # a grid of 1e14 cells is refused before scan_region allocates it
        with pytest.raises(ConfigError, match="at most 100000000 cells"):
            region_grid(1.0, 2.0, x_points=1000, cp_points=10**11)
        monkeypatch.setattr(sweeps, "REGION_CELL_CAP", 12)
        assert region_grid(1.0, 2.0, x_points=3, cp_points=4).cp_points == 4
        for x_points, cp_points in ((3, 5), (13, 2)):
            with pytest.raises(ConfigError, match="at most 12 cells"):
                region_grid(1.0, 2.0, x_points=x_points, cp_points=cp_points)

    def test_grid_caps_its_axis_length(self, monkeypatch):
        # 2e5 x 2 cells are under the cell cap, but scan_region's per-row
        # arrays and region_to_json's axis lists grow with each axis; the
        # cell cap is checked first, so its message is unchanged
        for x_points, cp_points in ((200_000, 2), (2, 200_000)):
            with pytest.raises(ConfigError, match="at most 100000 points"):
                region_grid(1.0, 2.0, x_points=x_points, cp_points=cp_points)
        with pytest.raises(ConfigError, match="at most 100000000 cells"):
            region_grid(1.0, 2.0, x_points=200_000, cp_points=1000)
        monkeypatch.setattr(sweeps, "REGION_AXIS_CAP", 4)
        assert region_grid(1.0, 2.0, x_points=4, cp_points=4).x_points == 4
        for x_points, cp_points in ((5, 2), (2, 5)):
            with pytest.raises(ConfigError, match="at most 4 points"):
                region_grid(1.0, 2.0, x_points=x_points, cp_points=cp_points)

    def test_threads_must_be_positive(self):
        # threads has no effect, but stays a validated setting
        with pytest.raises(ConfigError):
            region_grid(1.0, 2.0, threads=0)

    def test_curve_invariants(self):
        with pytest.raises(ConfigError):
            Curve(abscissa=(0.0, 1.0), ordinate=(1.0,), x_name="x", y_name="y")
        with pytest.raises(ConfigError):
            Curve(abscissa=(1.0, 1.0), ordinate=(0.0, 0.0), x_name="x", y_name="y")


class TestScanRegion:
    params = ProtocolParams(V_S=1.0, V_M=10.0)
    chan_x = (0.9, 0.03)

    @pytest.mark.parametrize("params,grid", [
        (params, region_grid(0.9, 1.8)),
        # no modulation: the mutual information is 0, the one physical C_p
        # is 0, and the raw chi of 4 of the 82 physical cells rounds below
        # 0, where holevo_bound and the key rate are 0
        (ProtocolParams(V_S=1.0, V_M=0.0),
         region_grid(0.05, 5.0, x_points=101, cp_points=3, cp_min=-1.0, cp_max=1.0)),
    ])
    def test_cells_match_pointwise_library_calls(self, params, grid):
        region = scan_region(params, self.chan_x, grid, RegionMode.FREE_VPB)
        chan = ChannelParams.symmetric(*self.chan_x)
        mi = mutual_information(params, chan)
        for i, j in np.ndindex(region.cells.shape):
            v_p_b = float(region.x_axis[i])
            c_p = float(region.cp_axis[j])
            interval = physicality_interval(params, chan, v_p_b)
            if interval is None or not interval[0] <= c_p <= interval[1]:
                expected = RegionClass.UNPHYSICAL
            else:
                k_dr = mi - holevo_bound(params, chan, c_p, v_p_b, DR)
                k_rr = mi - holevo_bound(params, chan, c_p, v_p_b, RR)
                if k_dr > 0 and k_rr > 0:
                    expected = RegionClass.SECURE_BOTH
                elif k_dr > 0:
                    expected = RegionClass.SECURE_DR
                elif k_rr > 0:
                    expected = RegionClass.SECURE_RR
                else:
                    expected = RegionClass.PHYSICAL_INSECURE
            assert region.cells[i, j] == expected

    def test_cell_just_beyond_the_interval_is_unphysical_in_the_map_too(self):
        # the map, key_rate and holevo_bound share one definition of
        # physical: a cell at the interval end is physical, and a cell 1e-9
        # beyond it is unphysical in the map and pointwise alike
        chan = ChannelParams.symmetric(*self.chan_x)
        v_p_b = 1.5
        hi = physicality_interval(self.params, chan, v_p_b)[1]
        at_end = scan_region(self.params, self.chan_x,
                             region_grid(v_p_b, v_p_b + 0.1, points=2, cp_min=hi, cp_max=hi + 1.0),
                             RegionMode.FREE_VPB)
        assert at_end.cp_axis[0] == hi and at_end.cells[0, 0] != RegionClass.UNPHYSICAL
        grid = region_grid(v_p_b, v_p_b + 0.1, points=2, cp_min=hi + 1e-9, cp_max=hi + 1.0)
        region = scan_region(self.params, self.chan_x, grid, RegionMode.FREE_VPB)
        assert region.cp_axis[0] > hi
        assert (region.cells[0] == RegionClass.UNPHYSICAL).all()
        with pytest.raises(UnphysicalState):
            holevo_bound(self.params, chan, float(region.cp_axis[0]), v_p_b, DR)

    @pytest.mark.parametrize("v_s,v_m", [(1.0, 10.0), (0.5, 1e4)])
    def test_physicality_mask_matches_uncertainty_eigenvalue(self, v_s, v_m):
        # the map's interval runs against the smallest eigenvalue of
        # gamma + i.Omega, on a wide grid and on a zoom around the parabola
        # vertex
        params = ProtocolParams(V_S=v_s, V_M=v_m)
        chan = ChannelParams.symmetric(*self.chan_x)
        v0, c0, _ = physicality_parabola(params, chan)
        grids = [
            region_grid(0.5 * v0, 2.0 * v0, points=90, cp_min=2.0 * c0, cp_max=0.2 * c0),
            region_grid(v0 - 2e-6, v0 + 2e-6, points=60,
                        cp_min=c0 - 2e-3, cp_max=c0 + 2e-3),
        ]
        for grid in grids:
            region = scan_region(params, self.chan_x, grid, RegionMode.FREE_VPB)
            mats = np.empty((grid.x_points, grid.cp_points, 4, 4))
            mats[:] = apply_channel(params, chan, 0.0, v0).mat
            mats[:, :, 3, 3] = region.x_axis[:, np.newaxis]
            mats[:, :, 1, 3] = mats[:, :, 3, 1] = region.cp_axis[np.newaxis, :]
            want = np.linalg.eigvalsh(mats + 1j * symplectic_form(2))[..., 0] >= 0.0
            assert np.array_equal(region.cells != RegionClass.UNPHYSICAL, want)
            assert want.any() and not want.all()

    @pytest.mark.parametrize("v_m,chan_x,grid_of", [
        (10.0, (0.9, 0.03), lambda v0, c0: region_grid(0.5, v0 - 1e-3)),
        # the x block's smallest eigenvalue is about 6e-9 here, so an
        # absolute tolerance of 1e-9 on gamma + i.Omega admitted 202 of
        # these 303 cells
        (1e17, (0.5, 0.0), lambda v0, c0: region_grid(
            0.85 * v0, 0.95 * v0, x_points=3, cp_points=101, cp_min=c0 - 0.5, cp_max=c0 + 0.5)),
        # rows just below the vertex, beyond VERTEX_SLACK, with a cell at C0
        (10.0, (0.9, 0.03), lambda v0, c0: region_grid(
            v0 - 1e-6, v0 - 1e-9, points=3, cp_min=c0, cp_max=c0 + 1.0)),
    ], ids=["vm10", "vm1e17", "c0-under-vertex"])
    def test_everything_below_vertex_is_unphysical(self, v_m, chan_x, grid_of):
        params = ProtocolParams(V_S=1.0, V_M=v_m)
        chan = ChannelParams.symmetric(*chan_x)
        v0, c0, _ = physicality_parabola(params, chan)
        region = scan_region(params, chan_x, grid_of(v0, c0), RegionMode.FREE_VPB)
        assert (region.cells == RegionClass.UNPHYSICAL).all()
        with pytest.raises(UnphysicalObservation):
            key_rate(params, chan, float(region.x_axis[-1]), DR)

    def test_row_in_the_slack_below_the_vertex_is_physical(self):
        # an observation up to VERTEX_SLACK below the vertex sits on it, as
        # in key_rate: its interval is the point C0, which the C_p axis holds
        chan = ChannelParams.symmetric(*self.chan_x)
        v0, c0, _ = physicality_parabola(self.params, chan)
        grid = region_grid(v0 * (1.0 - 1e-13), v0 + 1.0, points=3, cp_min=c0, cp_max=c0 + 1.0)
        region = scan_region(self.params, self.chan_x, grid, RegionMode.FREE_VPB)
        v_p_b = float(region.x_axis[0])
        assert v_p_b < v0 and region.cp_axis[0] == c0
        assert physicality_interval(self.params, chan, v_p_b) == (c0, c0)
        mi = mutual_information(self.params, chan)
        dr, rr = (mi > holevo_bound(self.params, chan, c0, v_p_b, d) for d in (DR, RR))
        assert list(region.cells[0]) == [1 + dr + 2 * rr, 0, 0]

    def test_overflowing_rows_raise_like_key_rate(self):
        # (v coeff - v_x_b dv)**2 in the kernel overflows from V_p_B of
        # about 1e154 here, where key_rate raises DomainError; the map
        # raises it too, and no numpy RuntimeWarning leaks
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        chan_x = (0.9, 0.03)
        chan = ChannelParams.symmetric(*chan_x)
        grid = region_grid(1.0, 1e300, points=5, cp_min=-5.0, cp_max=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="two-mode kernel is not finite"):
                scan_region(params, chan_x, grid, RegionMode.FREE_VPB)
            with pytest.raises(DomainError):
                key_rate(params, chan, 2.5e299, DR)
            below = scan_region(params, chan_x, region_grid(1.0, 1e153, points=5, cp_min=-5.0,
                                                            cp_max=5.0), RegionMode.FREE_VPB)
        assert (below.cells[1:] != RegionClass.UNPHYSICAL).all()
        key_rate(params, chan, 1e153, DR)
        # at V_M = 2e153 the kernel's split overflows at the upper end of
        # the interval at V_p_B = 100, though its terms are finite, and
        # key_rate raises; so does the map, where a mu_plus of inf used to
        # give a joint entropy of 0 and cells marked secure.  At 1e153 both
        # compute.
        chan = ChannelParams.symmetric(0.1, 0.0)
        for v_m in (1e153, 2e153):
            params = ProtocolParams(V_S=1.0, V_M=v_m)
            lo, hi = physicality_interval(params, chan, 100.0)
            grid = region_grid(99.0, 101.0, points=5, cp_min=1.1 * lo, cp_max=1.1 * hi)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if v_m > 1e153:
                    with pytest.raises(DomainError, match="two-mode kernel is not finite"):
                        scan_region(params, (0.1, 0.0), grid, RegionMode.FREE_VPB)
                    with pytest.raises(DomainError):
                        key_rate(params, chan, 100.0, DR)
                else:
                    region = scan_region(params, (0.1, 0.0), grid, RegionMode.FREE_VPB)
                    assert (region.cells[:, 1:-1] == RegionClass.PHYSICAL_INSECURE).all()
                    assert key_rate(params, chan, 100.0, DR).key_rate < 0.0

    def test_secure_cells_are_physical(self):
        grid = region_grid(0.9, 1.8)
        region = scan_region(self.params, self.chan_x, grid, RegionMode.FREE_VPB)
        secure = np.isin(region.cells, (RegionClass.SECURE_DR, RegionClass.SECURE_RR,
                                        RegionClass.SECURE_BOTH))
        assert (region.cells[secure] != RegionClass.UNPHYSICAL).all()
        assert {int(c) for c in np.unique(region.cells)} <= {0, 1, 2, 3, 4}

    def test_squeezed_region_sits_at_higher_noise_and_is_wider(self):
        grid = region_grid(0.85, 2.0, points=120, cp_min=-2.8, cp_max=-0.5)
        physical_width = {}
        first_physical_x = {}
        for v_s in (0.9, 1.1):
            region = scan_region(
                ProtocolParams(V_S=v_s, V_M=10.0), self.chan_x, grid, RegionMode.FREE_VPB
            )
            occupied = region.cells != RegionClass.UNPHYSICAL
            first_physical_x[v_s] = region.x_axis[occupied.any(axis=1)].min()
            physical_width[v_s] = occupied[-1].sum()  # widest row, at x_max
        assert first_physical_x[0.9] > first_physical_x[1.1]
        assert physical_width[0.9] > physical_width[1.1]

    def test_symmetric_noise_mode_tracks_vpb_convention(self):
        grid = region_grid(0.0, 0.4)
        region = scan_region(self.params, self.chan_x, grid, RegionMode.SYMMETRIC_NOISE)
        chan = ChannelParams.symmetric(*self.chan_x)
        mi = mutual_information(self.params, chan)
        i, j = 20, 25
        eps_p = float(region.x_axis[i])
        c_p = float(region.cp_axis[j])
        v_p_b = symmetric_vpB(self.params, self.chan_x[0], eps_p)
        interval = physicality_interval(self.params, chan, v_p_b)
        if interval is None or not interval[0] <= c_p <= interval[1]:
            expected = RegionClass.UNPHYSICAL
        else:
            k_dr = mi - holevo_bound(self.params, chan, c_p, v_p_b, DR)
            k_rr = mi - holevo_bound(self.params, chan, c_p, v_p_b, RR)
            expected = (
                RegionClass.SECURE_BOTH if (k_dr > 0 and k_rr > 0)
                else RegionClass.SECURE_DR if k_dr > 0
                else RegionClass.SECURE_RR if k_rr > 0
                else RegionClass.PHYSICAL_INSECURE
            )
        assert region.cells[i, j] == expected

    def test_symmetric_noise_security_thresholds(self):
        # worst-case security along the noise axis: reverse reconciliation
        # dies first at these parameters, and squeezing the modulated
        # quadrature lowers the direct-reconciliation threshold
        def thresholds(v_s):
            params = ProtocolParams(V_S=v_s, V_M=10.0)
            grid = region_grid(0.0, 0.6, points=61, cp_min=-2.8, cp_max=-0.5,
                               cp_points=201)
            region = scan_region(params, self.chan_x, grid, RegionMode.SYMMETRIC_NOISE)
            out = {}
            for direction, codes in (
                ("dr", (RegionClass.SECURE_DR, RegionClass.SECURE_BOTH)),
                ("rr", (RegionClass.SECURE_RR, RegionClass.SECURE_BOTH)),
            ):
                # last eps_p whose whole physical row is secure for this direction
                last = -1.0
                for i in range(grid.x_points):
                    row = region.cells[i]
                    physical = row != RegionClass.UNPHYSICAL
                    if not physical.any():
                        continue
                    if np.isin(row[physical], codes).all():
                        last = float(region.x_axis[i])
                out[direction] = last
            return out

        t = {v_s: thresholds(v_s) for v_s in (0.9, 1.0, 1.1)}
        for v_s in (0.9, 1.0, 1.1):
            assert t[v_s]["rr"] < t[v_s]["dr"]
        assert t[0.9]["dr"] < t[1.0]["dr"] < t[1.1]["dr"]

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            scan_region(self.params, self.chan_x, region_grid(0.0, 1.0), RegionMode.FREE_VPB)
        with pytest.raises(ConfigError):
            scan_region(self.params, self.chan_x, region_grid(-0.1, 0.4),
                        RegionMode.SYMMETRIC_NOISE)
        # the enum's value is not the enum
        with pytest.raises(ConfigError, match="unknown region mode 'vpb'"):
            scan_region(self.params, self.chan_x, region_grid(0.5, 1.5), "vpb")

    @pytest.mark.parametrize("x_points", [2, 31, 32, 33, 97])
    @pytest.mark.parametrize("mode,x_range", [
        (RegionMode.FREE_VPB, (0.7, 2.2)),
        (RegionMode.SYMMETRIC_NOISE, (0.0, 0.5)),
    ])
    def test_blocked_scan_matches_row_by_row_evaluation(self, monkeypatch, x_points, mode,
                                                        x_range):
        # rows are classified from coarse samples, in blocks of whole rows;
        # one row at a time with a float V_p_B, and the kernel at every
        # physical cell, must give the same cells.  Blocks of 32 rows of 45
        # cells put 31, 32 and 33 rows on either side of a block edge, and
        # 97 across three edges
        monkeypatch.setattr(sweeps, "REGION_BLOCK_CELLS", 32 * 45)
        params = ProtocolParams(V_S=0.8, V_M=30.0)
        grid = region_grid(*x_range, cp_min=-5.0, cp_max=0.0, x_points=x_points,
                           cp_points=45)
        region = scan_region(params, self.chan_x, grid, mode)
        assert np.array_equal(region.cells, full_scan_cells(params, self.chan_x, grid, mode))
        assert region.cells.dtype == np.int8
        assert len(np.unique(region.cells)) >= 3

    @settings(deadline=None, max_examples=25)
    @given(
        st.sampled_from(list(RegionMode)),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=0.5, max_value=0.95),
        st.integers(min_value=2, max_value=75),
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=-6.0, max_value=0.0),
        st.floats(min_value=0.1, max_value=6.0),
        st.floats(min_value=-1.0, max_value=17.0),
    )
    @example(RegionMode.SYMMETRIC_NOISE, 0.8, 0.9, 33, 7, -3.0, 2.0, math.log10(30.0))
    @example(RegionMode.FREE_VPB, 1.0, 0.5, 33, 40, -4.0, 4.0, 17.0)
    def test_scan_matches_row_by_row_evaluation_anywhere(
            self, mode, v_s, eta, x_points, cp_points, cp_min, cp_width, log_vm):
        # both modes, FREE_VPB rows below the vertex (empty rows), row
        # counts off the block size, V_M from 0.1 to 1e17, and C_p ranges
        # that clip the parabola on either side or hold it whole: C0 and the
        # interval widths grow as V_M**0.25, so the C_p axis is scaled by
        # (V_M / 30)**0.25.  A cell is nonzero exactly when its C_p lies in
        # its row's physicality_interval.
        v_m = 10.0**log_vm
        params = ProtocolParams(V_S=v_s, V_M=v_m)
        chan_x = (eta, 0.03)
        x_range = (0.7, 2.2) if mode is RegionMode.FREE_VPB else (0.0, 0.5)
        scale = (v_m / 30.0) ** 0.25
        grid = region_grid(*x_range, cp_min=cp_min * scale, cp_max=(cp_min + cp_width) * scale,
                           x_points=x_points, cp_points=cp_points)
        region = scan_region(params, chan_x, grid, mode)
        assert np.array_equal(region.cells, full_scan_cells(params, chan_x, grid, mode))

    @pytest.mark.parametrize("mode", list(RegionMode))
    def test_cells_are_nonzero_exactly_inside_the_row_interval(self, mode):
        # one definition of physical: over fuzzed maps, V_M from 0.1 to
        # 1e17, a cell is nonzero exactly when its C_p lies in
        # physicality_interval at its row's V_p_B
        rng = np.random.default_rng(149 if mode is RegionMode.FREE_VPB else 151)
        for _ in range(200):
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-1.0, 1.0),
                                    V_M=10.0 ** rng.uniform(-1.0, 17.0))
            eta, eps = rng.uniform(0.05, 1.0), 10.0 ** rng.uniform(-4.0, -1.0)
            chan = ChannelParams.symmetric(eta, eps)
            v0, c0, coeff = physicality_parabola(params, chan)
            half = max(math.sqrt(coeff * v0), 1e-9 * abs(c0))
            x_range = (0.5 * v0, 2.5 * v0) if mode is RegionMode.FREE_VPB else (0.0, 1.0)
            grid = region_grid(*x_range, x_points=int(rng.integers(2, 70)),
                               cp_points=int(rng.integers(2, 50)),
                               cp_min=c0 - half * rng.uniform(-1.0, 2.0),
                               cp_max=c0 + half * rng.uniform(1.0, 2.0))
            region = scan_region(params, (eta, eps), grid, mode)
            for x, row in zip(region.x_axis.tolist(), region.cells):
                v_p_b = x if mode is RegionMode.FREE_VPB else symmetric_vpB(params, eta, x)
                interval = physicality_interval(params, chan, v_p_b)
                inside = (np.zeros(len(row), dtype=bool) if interval is None
                          else (interval[0] <= region.cp_axis) & (region.cp_axis <= interval[1]))
                assert np.array_equal(row != RegionClass.UNPHYSICAL, inside)

    @pytest.mark.parametrize("mode", list(RegionMode))
    def test_insecure_cells_form_one_run_per_row(self, mode):
        # S_AB is concave in C_p: over fuzzed maps, V_M from 0.1 to 1e12,
        # whose C_p axis spans the widest row's interval, each direction's
        # insecure cells form one run in every row
        rng = np.random.default_rng(163 if mode is RegionMode.FREE_VPB else 167)
        insecure = 0
        for _ in range(100):
            params = ProtocolParams(V_S=10.0 ** rng.uniform(-1.0, 1.0),
                                    V_M=10.0 ** rng.uniform(-1.0, 12.0))
            eta, eps = rng.uniform(0.05, 1.0), 10.0 ** rng.uniform(-4.0, -1.0)
            chan = ChannelParams.symmetric(eta, eps)
            v0 = physicality_parabola(params, chan)[0]
            if mode is RegionMode.FREE_VPB:
                x_range, top = (0.5 * v0, 2.5 * v0), 2.5 * v0
            else:
                x_range, top = (0.0, 1.0), symmetric_vpB(params, eta, 1.0)
            lo, hi = physicality_interval(params, chan, top)
            grid = region_grid(*x_range, points=60, cp_min=lo - 0.1 * (hi - lo),
                               cp_max=hi + 0.1 * (hi - lo))
            cells = scan_region(params, (eta, eps), grid, mode).cells
            insecure += (cells == RegionClass.PHYSICAL_INSECURE).sum()
            assert split_insecure_rows(cells) == [], (params, eta, eps)
        assert insecure > 10_000

    @pytest.mark.parametrize("v_m", [10.0, 1e8, 1e17])
    def test_interval_ends_are_the_run_ends(self, v_m):
        # both ends of the interval are physical cells, and the next float
        # beyond either end is not
        params = ProtocolParams(V_S=0.7, V_M=v_m)
        chan = ChannelParams.symmetric(*self.chan_x)
        v_p_b = 1.5 * physicality_parabola(params, chan)[0]
        lo, hi = physicality_interval(params, chan, v_p_b)
        ends = region_grid(v_p_b, 2.0 * v_p_b, points=9, cp_min=lo, cp_max=hi)
        row = scan_region(params, self.chan_x, ends, RegionMode.FREE_VPB).cells[0]
        assert (row != RegionClass.UNPHYSICAL).all()
        beyond = region_grid(v_p_b, 2.0 * v_p_b, points=9,
                             cp_min=math.nextafter(lo, -math.inf),
                             cp_max=math.nextafter(hi, math.inf))
        row = scan_region(params, self.chan_x, beyond, RegionMode.FREE_VPB).cells[0]
        assert list(row != RegionClass.UNPHYSICAL) == [False] + [True] * 7 + [False]

    def test_scan_leaks_no_floating_point_warnings(self):
        # the kernel's delta-free terms are formed for every row, rows
        # without a physical cell included, and only physical cells go
        # through the kernel
        params = ProtocolParams(V_S=0.8, V_M=30.0)
        for mode, x_range in ((RegionMode.FREE_VPB, (0.7, 2.2)),
                              (RegionMode.SYMMETRIC_NOISE, (0.0, 0.5))):
            grid = region_grid(*x_range, cp_min=-5.0, cp_max=0.0, x_points=97, cp_points=45)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                region = scan_region(params, self.chan_x, grid, mode)
            physical = region.cells != RegionClass.UNPHYSICAL
            assert physical.any() and not physical[:, 0].all()
        # the DR conditional entropy's b dv overflows on every row but the
        # first; coeff is 0, so each row's interval is the point C0, about
        # -1e-200, which no cell holds
        grid = region_grid(1.0, 1e300, points=5, cp_min=-5.0, cp_max=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            region = scan_region(ProtocolParams(V_S=1e200, V_M=1.0), self.chan_x, grid,
                                 RegionMode.FREE_VPB)
        assert (region.cells == RegionClass.UNPHYSICAL).all()

    def test_thread_count_does_not_change_cells(self):
        grid1 = region_grid(0.9, 1.8)
        grid4 = region_grid(0.9, 1.8, threads=4)
        r1 = scan_region(self.params, self.chan_x, grid1, RegionMode.FREE_VPB)
        r4 = scan_region(self.params, self.chan_x, grid4, RegionMode.FREE_VPB)
        assert np.array_equal(r1.cells, r4.cells)
        assert region_to_json(r1) == region_to_json(r4)


def full_scan_cells(params, chan_x, grid, mode):
    """scan_region's cells by the evaluation that the two-pass scan
    replaced: each row's physical cells are those in physicality_interval
    at its float V_p_B, and blocks of 32 rows each take one broadcast pass
    of the kernel over the box around the block's physical cells, so every
    physical cell goes through the kernel.  Rows whose kernel overflows are
    left to scan_region to reject."""
    eta_x, eps_x = chan_x
    chan = ChannelParams.symmetric(eta_x, eps_x)
    cp_axis = np.linspace(grid.cp_min, grid.cp_max, grid.cp_points)
    x_axis = np.linspace(grid.x_min, grid.x_max, grid.x_points)
    key_mi = params.beta * mutual_information(params, chan)
    xm = _x_moments(params, eta_x, eps_x)
    inside = np.zeros((grid.x_points, grid.cp_points), dtype=bool)
    dv, half = np.zeros(grid.x_points), np.zeros(grid.x_points)
    for i, x in enumerate(x_axis.tolist()):
        v_p_b = x if mode is RegionMode.FREE_VPB else _vpb(params, eta_x, x)
        interval = physicality_interval(params, chan, v_p_b)
        if interval is not None:
            inside[i] = (interval[0] <= cp_axis) & (cp_axis <= interval[1])
            dv[i], half[i] = _margins(xm, v_p_b)
    s_cond_rr = _conditional_entropy(xm, 0.0, RR)
    s_cond_dr = _g_mu_array(xm.b * dv)
    delta = cp_axis - xm.c0
    cells = np.zeros((grid.x_points, grid.cp_points), dtype=np.int8)
    for start in range(0, grid.x_points, 32):
        rows = slice(start, start + 32)
        occupied = np.flatnonzero(inside[rows].any(axis=0))
        if not occupied.size:
            continue
        box = slice(occupied[0], occupied[-1] + 1)
        ob = _observe(xm, dv[rows, None], half[rows, None], np.sqrt)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            mu_plus, mu_minus = _symplectic_pair(ob, delta[box], np.sqrt)
        s_ab = _g_mu_array(mu_plus) + _g_mu_array(mu_minus)
        # secure where the key rate, key_mi - max(chi, 0), is positive
        dr = np.maximum(s_ab - s_cond_dr[rows, None], 0.0) < key_mi
        code = 1 + dr + 2 * (np.maximum(s_ab - s_cond_rr, 0.0) < key_mi)
        cells[rows, box] = code * inside[rows, box]
    return cells


def figure_maps():
    """(params, chan_x, grid, mode) of reproduce_figures' six 400x400 region
    maps."""
    script = load_script("reproduce_figures")
    chan_x = (script.REGION_ETA_X, script.REGION_EPS_X)
    maps = []
    for v_s in script.REGION_VS:
        params = ProtocolParams(V_S=v_s, V_M=script.REGION_VM)
        for mode, x_range in ((RegionMode.FREE_VPB, (0.85, 2.0)),
                              (RegionMode.SYMMETRIC_NOISE, (0.0, 0.6))):
            grid = region_grid(*x_range, cp_min=-2.8, cp_max=-0.5, points=400)
            maps.append((params, chan_x, grid, mode))
    return maps


class TestTwoPassScan:
    """scan_region samples each row's run every REGION_STRIDE cells and
    evaluates only the cells between samples whose class can differ; its
    cells must equal those of full_scan_cells, which evaluates them all."""

    def test_figure_maps_match_full_evaluation(self):
        for params, chan_x, grid, mode in figure_maps():
            region = scan_region(params, chan_x, grid, mode)
            assert region.cells.dtype == np.int8
            assert np.array_equal(region.cells, full_scan_cells(params, chan_x, grid, mode))

    @staticmethod
    def crossing(params, chan_x, v_p_b, lo, hi, direction):
        """A C_p in [lo, hi] within an ulp of where the key rate in
        direction changes sign, by bisection on holevo_bound; lo and hi
        are physical and have rates of opposite signs."""
        chan = ChannelParams.symmetric(*chan_x)
        key_mi = params.beta * mutual_information(params, chan)

        def secure(c_p):
            return key_mi - holevo_bound(params, chan, c_p, v_p_b, direction) > 0.0

        lo_secure = secure(lo)
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if secure(mid) == lo_secure:
                lo = mid
            else:
                hi = mid
        return lo

    def fuzzed_maps(self, mode, rng, rounds):
        """Maps with V_M from 0.1 to 1e17, each round up to three:

        - a broad map over the axis ranges of
          test_scan_matches_row_by_row_evaluation_anywhere, up to 120 x 400
          cells, whose C_p range clips the parabola or holds it whole;
        - a two-row map whose C_p axis is 400 ulps around a threshold
          crossing in a row of the broad map, where rounding decides the
          cells' classes;
        - a 60 x 400 map whose rows lie within 0.1% of the observation at
          which the key rate crosses 0 (max_tolerable_noise), so that its
          insecure runs are short and lie around the row's largest S_AB.
        """
        x_range = (0.7, 2.2) if mode is RegionMode.FREE_VPB else (0.0, 0.5)
        for _ in range(rounds):
            v_m = 10.0 ** rng.uniform(-1.0, 17.0)
            params = ProtocolParams(V_S=rng.uniform(0.5, 2.0), V_M=v_m)
            chan_x = (rng.uniform(0.5, 0.95), 0.03)
            scale = (v_m / 30.0) ** 0.25
            cp_min = rng.uniform(-6.0, 0.0)
            grid = region_grid(*x_range, cp_min=cp_min * scale,
                               cp_max=(cp_min + rng.uniform(0.1, 6.0)) * scale,
                               x_points=int(rng.integers(2, 121)),
                               cp_points=int(rng.choice([rng.integers(2, 40),
                                                         rng.integers(40, 401)])))
            yield params, chan_x, grid

            direction = DR if rng.uniform() < 0.5 else RR
            cells = full_scan_cells(params, chan_x, grid, mode)
            insecure = np.isin(cells, INSECURE_CODES[direction.value])
            changes = np.argwhere((cells[:, 1:] != 0) & (cells[:, :-1] != 0)
                                  & (insecure[:, 1:] != insecure[:, :-1]))
            if len(changes):
                i, j = changes[rng.integers(len(changes))]
                x = float(np.linspace(*x_range, grid.x_points)[i])
                cp_axis = np.linspace(grid.cp_min, grid.cp_max, grid.cp_points)
                c_p = self.crossing(params, chan_x, self.vpb(params, chan_x, x, mode),
                                    float(cp_axis[j]), float(cp_axis[j + 1]), direction)
                ulp = math.ulp(c_p)
                yield params, chan_x, region_grid(x, x + 1e-12 * max(x, 1.0),
                                                  cp_min=c_p - 200 * ulp,
                                                  cp_max=c_p + 200 * ulp,
                                                  x_points=2, cp_points=401)

            params = ProtocolParams(V_S=10.0 ** rng.uniform(-1.0, 1.0), V_M=v_m)
            eta = rng.uniform(0.3, 0.99)
            try:
                eps = max_tolerable_noise(params, eta_to_db(eta), direction, tol=1e-12)
            except (NoPositiveRate, NoRoot):
                continue
            x = symmetric_vpB(params, eta, eps) if mode is RegionMode.FREE_VPB else eps
            lo, hi = physicality_interval(params, ChannelParams.symmetric(eta, eps),
                                          self.vpb(params, (eta, eps), 1.001 * x, mode))
            yield params, (eta, eps), region_grid(0.999 * x, 1.001 * x, cp_min=lo, cp_max=hi,
                                                  x_points=60, cp_points=400)

    @staticmethod
    def vpb(params, chan_x, x, mode):
        return x if mode is RegionMode.FREE_VPB else symmetric_vpB(params, chan_x[0], x)

    @staticmethod
    def fine_columns(params, chan_x, grid, mode, monkeypatch):
        """scan_region's cells, and for each physical row of a map of one
        block the columns at which its refine pass ran the kernel.

        The kernel then runs three times: at every row's upper end, delta =
        h, at the samples, and at the refined cells.  A cell's row is the
        one whose h it got, and its column the one whose delta it got; the
        columns are left out where the physical rows' h or the C_p axis's
        deltas repeat, as on C_p axes a few hundred ulps wide."""
        calls = []
        kernel = sweeps._symplectic_pair

        def recorded(ob, delta, sqrt):
            calls.append((np.array(ob[0]), np.array(delta)))
            return kernel(ob, delta, sqrt)

        with monkeypatch.context() as patch:
            patch.setattr(sweeps, "_symplectic_pair", recorded)
            cells = scan_region(params, chan_x, grid, mode).cells
        physical = np.flatnonzero(cells.any(axis=1))
        cp_axis = np.linspace(grid.cp_min, grid.cp_max, grid.cp_points)
        delta = cp_axis - _x_moments(params, *chan_x).c0
        h = calls[0][0][physical]
        if not len(physical) or len(np.unique(h)) < len(h) or not (np.diff(delta) > 0).all():
            return cells, {}
        _, _, (fine_h, fine_delta) = calls
        order = np.argsort(h)
        at = np.searchsorted(h[order], fine_h)
        assert np.array_equal(h[order][at], fine_h)
        rows, cols = physical[order][at], np.searchsorted(delta, fine_delta)
        return cells, {i: cols[rows == i] for i in physical.tolist()}

    @pytest.mark.parametrize("mode", list(RegionMode))
    def test_fuzzed_maps_match_full_evaluation(self, mode, monkeypatch):
        # the fuzz reaches each rule that sends cells to the kernel: runs
        # of one cell and runs shorter than the stride; an insecure run
        # shorter than the stride with no sample in it, which only the
        # window around the row's largest sample finds; and rows where
        # rounding splits a direction's insecure cells, which only
        # REGION_MARGIN finds.  It also reaches each way the concavity
        # bounds settle cells between two samples: a crossing whose
        # uncertain cells are none, so that the run of the later sample's
        # code starts at the crossing with no kernel call; a bump inside an
        # interval of one code, next to the row's largest sample, whose
        # kernel cells are fewer than the interval's; and a refined
        # interval at the end of its row, whose secant beyond that end
        # pairs it with another row's sample and is masked out.
        rng = np.random.default_rng(181 if mode is RegionMode.FREE_VPB else 191)
        stride = sweeps.REGION_STRIDE
        single = short = hidden = split = crossed = narrowed = masked = 0
        for params, chan_x, grid in self.fuzzed_maps(mode, rng, 100):
            want = full_scan_cells(params, chan_x, grid, mode)
            got, fine = self.fine_columns(params, chan_x, grid, mode, monkeypatch)
            assert np.array_equal(got, want), (params, chan_x, grid)
            split += len(split_insecure_rows(want))
            for row in want:
                run = np.flatnonzero(row)
                if not len(run):
                    continue
                single += len(run) == 1
                short += len(run) < stride
                sampled = np.zeros(len(row), dtype=bool)
                sampled[run[::stride]] = sampled[run[-1]] = True
                for codes in INSECURE_CODES.values():
                    insecure = np.isin(row, codes)
                    hidden += insecure.any() and not (insecure & sampled).any()
            physical = sorted(fine)
            for i, evaluated in fine.items():
                row = want[i]
                run = np.flatnonzero(row)
                samples = np.unique(np.append(run[::stride], run[-1]))
                c0, c1 = samples[:-1], samples[1:]
                kernel = np.searchsorted(evaluated, c1) - np.searchsorted(evaluated, c0, "right")
                differ = row[c0] != row[c1]
                crossed += np.sum(differ & (c1 - c0 > 1) & (kernel == 0))
                part = ~differ & (0 < kernel) & (kernel < c1 - c0 - 1)
                narrowed += sum((row[a + 1:b] != row[a]).any() for a, b in zip(c0[part], c1[part]))
                refined = differ | (kernel > 0)
                if len(refined):
                    masked += refined[0] and i != physical[0]
                    masked += refined[-1] and i != physical[-1]
        counts = single, short, hidden, split, crossed, narrowed, masked
        assert min(counts) > 0, counts

    def test_maps_in_many_blocks_match_full_evaluation(self, monkeypatch):
        # a 400x400 map is one block; here blocks of one row (at block
        # sizes below, at and just above a row's cells), two and ten rows.
        # Besides the figure maps: a 57-row map whose first 33 rows lie
        # below the vertex, so its first blocks hold no physical row and
        # its last block is short; and the same rows with a C_p axis above
        # every row's interval, so no block holds one.  (The rows'
        # intervals nest, so only leading blocks can be empty otherwise.)
        params, chan_x = ProtocolParams(V_S=1.0, V_M=10.0), (0.9, 0.03)
        v0 = physicality_parabola(params, ChannelParams.symmetric(*chan_x))[0]
        below = region_grid(0.3 * v0, 1.5 * v0, x_points=57, cp_points=400,
                            cp_min=-2.2, cp_max=-1.0)
        above = region_grid(0.3 * v0, 1.5 * v0, x_points=57, cp_points=400,
                            cp_min=0.0, cp_max=1.0)
        for params, chan_x, grid, mode in figure_maps() + [
                (params, chan_x, below, RegionMode.FREE_VPB),
                (params, chan_x, above, RegionMode.FREE_VPB)]:
            want = full_scan_cells(params, chan_x, grid, mode)
            if grid is below:
                assert not want[:33].any() and want[33:].any(axis=1).all()
            if grid is above:
                assert not want.any()
            for block_cells in (1, grid.cp_points, grid.cp_points + 1, 2 * grid.cp_points, 4_000):
                monkeypatch.setattr(sweeps, "REGION_BLOCK_CELLS", block_cells)
                got = scan_region(params, chan_x, grid, mode).cells
                assert np.array_equal(got, want), (grid, mode, block_cells)

    def test_figure_maps_run_the_kernel_at_few_cells(self, monkeypatch):
        # the kernel at every physical cell of a figure map takes 43k-57k
        # cells (full_scan_cells's boxes); the two-pass scan, whose refine
        # pass runs it only where the concavity bounds leave a cell
        # unsettled, takes 3.9k-4.9k, the upper-end check included
        evaluated = []
        kernel = sweeps._symplectic_pair

        def counted_kernel(ob, delta, sqrt):
            evaluated[-1] += np.broadcast(ob[0], delta).size
            return kernel(ob, delta, sqrt)

        monkeypatch.setattr(sweeps, "_symplectic_pair", counted_kernel)
        for params, chan_x, grid, mode in figure_maps():
            evaluated.append(0)
            scan_region(params, chan_x, grid, mode)
        assert max(evaluated) <= 5_500, evaluated


class TestKeyrateVsAttenuation:
    def test_lossless_noiseless_point_keeps_mutual_information(self):
        params = ProtocolParams(V_S=1.0, V_M=20.0)
        curve = keyrate_vs_attenuation(params, 0.0, [0.0, 0.5, 1.0], DR)
        mi = mutual_information(params, ChannelParams.symmetric(1.0, 0.0))
        assert curve.abscissa[0] == 0.0
        assert curve.ordinate[0] == pytest.approx(mi, abs=1e-9)
        assert curve.ordinate[0] > 0

    def test_matches_pointwise_key_rate(self):
        params = ProtocolParams(V_S=2.0, V_M=100.0)
        grid = [0.5, 1.0, 1.5]
        curve = keyrate_vs_attenuation(params, 0.03, grid, DR)
        for db, k in zip(curve.abscissa, curve.ordinate):
            eta = db_to_eta(db)
            chan = ChannelParams.symmetric(eta, 0.03)
            v_p_b = symmetric_vpB(params, eta, 0.03)
            assert k == key_rate(params, chan, v_p_b, DR).key_rate

    def test_coherent_pure_loss_curve_keeps_every_point(self):
        # V_S = 1 and eps = 0 put V_p_B on the parabola vertex at every
        # attenuation, where the physical interval is one point
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        grid = db_grid(0.0, 30.0, 0.5)
        for direction in (DR, RR):
            curve = keyrate_vs_attenuation(params, 0.0, grid, direction)
            assert curve.abscissa == tuple(grid)
            assert all(math.isfinite(k) for k in curve.ordinate)
        for db in grid:
            eta = db_to_eta(db)
            v0 = physicality_parabola(params, ChannelParams.symmetric(eta, 0.0))[0]
            assert symmetric_vpB(params, eta, 0.0) == pytest.approx(v0, rel=1e-15, abs=0.0)

    def test_rejects_unsorted_grid(self):
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        with pytest.raises(ConfigError):
            keyrate_vs_attenuation(params, 0.0, [1.0, 0.5], DR)


class TestMaxTolerableNoise:
    def test_reference_values_at_low_attenuation(self):
        eps_2 = max_tolerable_noise(ProtocolParams(V_S=2.0, V_M=100.0), 0.2, DR)
        eps_1 = max_tolerable_noise(ProtocolParams(V_S=1.0, V_M=100.0), 0.2, DR)
        assert eps_2 == pytest.approx(0.194519, abs=5e-4)
        assert eps_1 == pytest.approx(0.128610, abs=5e-4)

    def test_root_brackets_a_sign_change(self):
        params = ProtocolParams(V_S=1.0, V_M=100.0)
        tol = 1e-6
        eps_max = max_tolerable_noise(params, 0.2, DR, tol=tol)

        def rate(eps):
            eta = db_to_eta(0.2)
            chan = ChannelParams.symmetric(eta, eps)
            return key_rate(params, chan, symmetric_vpB(params, eta, eps), DR).key_rate

        assert rate(eps_max - 5 * tol) > 0 > rate(eps_max + 5 * tol)
        slope = abs(rate(eps_max + 5 * tol) - rate(eps_max - 5 * tol)) / (10 * tol)
        assert abs(rate(eps_max)) <= 10 * tol * slope

    def test_monotone_in_attenuation(self):
        params = ProtocolParams(V_S=2.0, V_M=100.0)
        values = [max_tolerable_noise(params, db, DR, tol=1e-5) for db in (0.2, 0.6, 1.0)]
        assert values[0] > values[1] > values[2]

    def test_no_positive_rate_at_high_loss(self):
        with pytest.raises(NoPositiveRate):
            max_tolerable_noise(ProtocolParams(V_S=0.5, V_M=100.0), 1.0, DR)


class TestNoiseFrontier:
    def test_matches_pointwise_roots_and_skips_points_without_one(self, monkeypatch):
        # 2 dB has no positive DR rate even at eps = 0 (NoPositiveRate);
        # 0.5 dB is made to end at the noise cap (NoRoot)
        params = ProtocolParams(V_S=1.0, V_M=100.0)
        find = sweeps.max_tolerable_noise

        def stubbed(params, db, direction, tol):
            if db == 0.5:
                raise NoRoot("stub")
            return find(params, db, direction, tol)

        monkeypatch.setattr(sweeps, "max_tolerable_noise", stubbed)
        curve = noise_frontier(params, [0.2, 0.5, 1.0, 2.0], DR, tol=1e-5)
        assert curve.abscissa == (0.2, 1.0)
        assert curve.ordinate == tuple(find(params, db, DR, tol=1e-5) for db in (0.2, 1.0))
        assert (curve.x_name, curve.y_name) == ("attenuation_db", "eps_max")
        assert curve.metadata == {"V_S": 1.0, "V_M": 100.0, "beta": 1.0,
                                  "direction": "dr", "tol": 1e-5}

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ConfigError):
            noise_frontier(ProtocolParams(V_S=1.0, V_M=100.0), [1.0, 0.5], DR, 1e-6)
        # a repeated point is refused before its search, which at 40 dB
        # finds no positive rate and would leave no curve point to check
        with pytest.raises(ConfigError, match="strictly increasing"):
            noise_frontier(ProtocolParams(V_S=1.0, V_M=100.0), [40.0, 40.0], DR, 1e-6)


def count_key_rate_calls(monkeypatch, limit=2000):
    """Count the root finders' key-rate probes, the calls of key_rate's core
    sweeps._key_rate; stop a runaway loop at limit."""
    calls = []
    probe = sweeps._key_rate

    def counted(*args, **kwargs):
        calls.append(None)
        assert len(calls) <= limit, "root search did not terminate"
        return probe(*args, **kwargs)

    monkeypatch.setattr(sweeps, "_key_rate", counted)
    return calls


def figure_set_roots(counter: list) -> list[tuple]:
    """(params, direction, find, fixed, tol, root, count) for each root of
    the figure set that exists, with count the growth of counter during
    its search."""
    roots = []
    for direction in ReconciliationDirection:
        for v_s in (0.5, 1.0, 2.0):
            params = ProtocolParams(V_S=v_s, V_M=100.0)
            searches = [(max_tolerable_noise, db, 1e-6) for db in db_grid(0.1, 1.2, 0.1)]
            searches += [(max_attenuation, eps, 1e-4) for eps in (0.0, 0.01, 0.03, 0.05)]
            for find, fixed, tol in searches:
                start = len(counter)
                try:
                    root = find(params, fixed, direction, tol=tol)
                except (NoPositiveRate, NoRoot):
                    continue
                roots.append((params, direction, find, fixed, tol, root, len(counter) - start))
    return roots


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

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_point_kept_inside_the_bracket_closes_it(self, mirrored):
        # 0.1 - x**10 is flat left of its zero and steep right of it, so
        # the interpolated points reach the zero from one side; kept xtol/2
        # inside the bracket, the point beside it lands past it and closes
        # the bracket in 21 calls, where points left where they fall take
        # 31.  Mirrored, the rule at the other end does the same
        def g(x):
            return -(0.1 - (1.0 - x) ** 10) if mirrored else 0.1 - x**10

        f, points = recorded(g)
        lo, hi = _bracket_sign_change(f, 0.0, g(0.0), 1.0, g(1.0), 1e-9)
        assert g(lo) >= 0.0 >= g(hi) and hi - lo <= 1e-9
        assert len(points) <= 21

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_rising_value_on_the_same_side_halves_the_kept_end(self, mirrored):
        # f is not monotone: the second point, on the same side as the
        # first, holds the larger value, so 1 - f(x)/f(replaced) is -1/3
        # and the kept end's value is halved instead, which keeps its sign.
        # K can rise with dB where it is negative (RR).  Mirrored, the
        # same happens on the negative side, to the other end
        def g(x):
            if mirrored:
                return -g0(1.0 - x)
            return g0(x)

        def g0(x):
            # g0(0) = 1, g0(1/2) = 1/2, g0(2/3) = 2/3, g0(1) = -1
            return 1.0 - x if x <= 0.5 else (x if x < 0.7 else 4.0 * (0.75 - x))

        f, points = recorded(g)
        lo, hi = _bracket_sign_change(f, 0.0, g(0.0), 1.0, g(1.0), 1e-12)
        x1, x2, x3 = points[:3]
        assert g(x1) * g(x2) > 0.0 and abs(g(x2)) > abs(g(x1))
        # the secant through x2 and the kept end at half its value
        if mirrored:
            assert x3 == pytest.approx(x2 * 0.5 / (0.5 - g(x2)), rel=1e-12, abs=0.0)
        else:
            assert x3 == pytest.approx(x2 + (1.0 - x2) * g(x2) / (g(x2) + 0.5), rel=1e-12, abs=0.0)
        assert g(lo) >= 0.0 >= g(hi) and hi - lo <= 1e-12
        assert lo == pytest.approx(0.25 if mirrored else 0.75, abs=1e-12)


class TestZeroCrossing:
    @pytest.mark.parametrize("find,fixed,direction", [
        (max_tolerable_noise, 0.4575749056067512, RR),
        (max_tolerable_noise, 0.2, DR),
        (max_attenuation, 0.03, DR),
    ])
    def test_tolerance_below_float_spacing_terminates(self, monkeypatch, find, fixed,
                                                      direction):
        # once the bracket ends are adjacent floats the midpoint equals one
        # of them; the search stops there instead of looping forever
        params = ProtocolParams(V_S=1.0 if direction is RR else 2.0,
                                V_M=10.0 if direction is RR else 100.0)
        coarse = find(params, fixed, direction)
        calls = count_key_rate_calls(monkeypatch)
        fine = find(params, fixed, direction, tol=1e-300)
        assert len(calls) < 100
        assert fine == pytest.approx(coarse, abs=1e-4)
        assert math.nextafter(fine, math.inf) > fine

    def test_probes_start_at_the_last_worst_case_from_the_second_on(self, monkeypatch):
        # the first probe searches cold; each later one starts at the last
        # worst case's place t
        calls = []
        probe = sweeps._symmetric_rate

        def recorded(params, eta, eps, direction, start=None):
            k, t = probe(params, eta, eps, direction, start)
            calls.append((start, t))
            return k, t

        monkeypatch.setattr(sweeps, "_symmetric_rate", recorded)
        max_tolerable_noise(ProtocolParams(V_S=2.0, V_M=100.0), 0.2, DR)
        starts, places = zip(*calls)
        assert len(calls) > 3 and None not in places
        assert starts[0] is None
        assert list(starts[1:]) == list(places[:-1])

    def test_zero_rate_probe_is_not_the_lower_end(self, monkeypatch):
        # a probe below the cap whose rate is exactly 0 is no sign change's
        # positive end: the bracket keeps the last positive probe
        rates = {0.0: 1.0, 0.1: 0.5, 0.2: 0.0, 0.4: -1.0}
        brackets = []

        def scripted(params, eta, eps, direction, start=None):
            return rates[eps], 0.5

        def spy(f, a, fa, b, fb, xtol):
            brackets.append((a, fa, b, fb))
            return a, b

        monkeypatch.setattr(sweeps, "_symmetric_rate", scripted)
        monkeypatch.setattr(sweeps, "_bracket_sign_change", spy)
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        assert max_tolerable_noise(params, 1.0, DR) == pytest.approx(0.25)
        assert brackets == [(0.1, 0.5, 0.4, -1.0)]

    @pytest.mark.parametrize("tol,expected", [(1e-6, 7), (1e-3, 7), (0.3, 3)])
    def test_calls_follow_the_tolerance(self, monkeypatch, tol, expected):
        # one key_rate call at 0, two upper-bracket probes (0.1 is secure,
        # 0.2 is not), then the regula falsi steps; bisection from 0 would
        # make 21, 11 and 3 calls
        params = ProtocolParams(V_S=2.0, V_M=100.0)
        calls = count_key_rate_calls(monkeypatch)
        eps_max = max_tolerable_noise(params, 0.2, DR, tol=tol)
        assert len(calls) == expected
        assert eps_max == pytest.approx(0.194519, abs=max(tol, 5e-4))

    def test_figure_set_roots_within_call_budget(self, monkeypatch):
        # the figure set's roots: noise frontiers over 0.1-1.2 dB and
        # attenuation limits at four noise levels, for every source and
        # both directions; bisection needs 19.5 key_rate calls per root
        calls = count_key_rate_calls(monkeypatch)
        roots = figure_set_roots(calls)
        assert len(roots) == 88
        assert sum(r[-1] for r in roots) / len(roots) <= 10
        monkeypatch.undo()

        def rate(params, direction, find, fixed, x):
            db, eps = (fixed, x) if find is max_tolerable_noise else (x, fixed)
            eta = db_to_eta(db)
            chan = ChannelParams.symmetric(eta, eps)
            return key_rate(params, chan, symmetric_vpB(params, eta, eps), direction).key_rate

        for params, direction, find, fixed, tol, root, _ in roots:
            below = rate(params, direction, find, fixed, max(root - tol, 0.0))
            above = rate(params, direction, find, fixed, root + tol)
            assert below >= 0.0 > above, (params, direction, find.__name__, fixed, root)

    def test_sampled_roots_bracket_the_60_digit_crossing(self):
        # every eleventh figure-set root, which covers both searches, both
        # directions and all three sources: the 60-digit worst-case rate,
        # the maximum over the float C_p interval, is >= 0 at root - tol
        # and < 0 at root + tol
        sample = figure_set_roots([])[::11]
        assert len(sample) == 8
        assert {(r[1], r[2]) for r in sample} == {
            (d, f) for d in (DR, RR) for f in (max_tolerable_noise, max_attenuation)}
        assert {r[0].V_S for r in sample} == {0.5, 1.0, 2.0}

        def rate(params, direction, find, fixed, x):
            db, eps = (fixed, x) if find is max_tolerable_noise else (x, fixed)
            eta = db_to_eta(db)
            chan = ChannelParams.symmetric(eta, eps)
            v_p_b = symmetric_vpB(params, eta, eps)
            interval = physicality_interval(params, chan, v_p_b)
            return _mp_key_rate(params, chan, v_p_b, direction, interval=interval)

        for params, direction, find, fixed, tol, root, _ in sample:
            below = rate(params, direction, find, fixed, max(root - tol, 0.0))
            above = rate(params, direction, find, fixed, root + tol)
            assert below >= 0 > above, (params, direction, find.__name__, fixed, root)

    def test_figure_set_roots_within_slope_budget(self, monkeypatch):
        # each probe's C_p search starts at the last probe's worst case;
        # with every search cold the figure set takes 26.4 slope calls per
        # root, and started 21.8 (32.9 and 28.3 when the last point closed
        # the bracket; 78.8 and 59.3 by regula falsi), and the key_rate
        # probes per root do not change.  Every point lies above C0,
        # z > 0, where _entropy_slope has its one formula
        slopes = []
        slope = protocol._entropy_slope

        def counted(ob, z):
            assert z > 0.0, z
            slopes.append(None)
            return slope(ob, z)

        monkeypatch.setattr(protocol, "_entropy_slope", counted)
        roots = figure_set_roots(slopes)
        assert len(roots) == 88
        assert sum(r[-1] for r in roots) / len(roots) <= 23

    def test_figure_set_roots_move_within_tolerance_of_cold_probes(self, monkeypatch):
        # a started C_p search ends on another last Newton point, so the
        # probes' rates and the roots move, but by less than tol
        started = figure_set_roots([])
        probe = sweeps._key_rate

        def cold(params, eta, eps, v_p_b, direction, start=None):
            return probe(params, eta, eps, v_p_b, direction)

        monkeypatch.setattr(sweeps, "_key_rate", cold)
        for warm, want in zip(started, figure_set_roots([]), strict=True):
            params, direction, find, fixed, tol, root, _ = warm
            assert want[:5] == warm[:5]
            assert abs(root - want[5]) <= tol, (params, direction, find.__name__, fixed)


class TestMaxAttenuation:
    def test_coherent_direct_crossing_matches_independent_model(self):
        # the 1.108 dB crossing that acceptance 5 expects at 0.9 dB is a
        # property of the modelled key rate, not of the root finder
        params = ProtocolParams(V_S=1.0, V_M=100.0)
        db = max_attenuation(params, 0.03, DR)

        def rate(d):
            return independent_dr_rate(1.0, 100.0, db_to_eta(d), 0.03)

        lo, hi = 0.0, 2.0
        assert rate(lo) > 0.0 > rate(hi)
        while hi - lo > 1e-5:
            mid = 0.5 * (lo + hi)
            if rate(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert db == pytest.approx(0.5 * (lo + hi), abs=1e-3)

    def test_antisqueezed_direct_crossing(self):
        db = max_attenuation(ProtocolParams(V_S=2.0, V_M=100.0), 0.03, DR)
        assert db == pytest.approx(1.498383, abs=2e-3)

    def test_coherent_direct_crossing(self):
        db = max_attenuation(ProtocolParams(V_S=1.0, V_M=100.0), 0.03, DR)
        assert db == pytest.approx(1.108185, abs=2e-3)

    def test_reverse_noiseless_coherent_never_crosses_below_cap(self, monkeypatch):
        # probes at 0 dB and 0.5, 1, ..., 32 dB, then the 60 dB cap
        calls = count_key_rate_calls(monkeypatch, limit=100)
        with pytest.raises(NoRoot):
            max_attenuation(ProtocolParams(V_S=1.0, V_M=100.0), 0.0, RR)
        assert len(calls) == 9

    def test_no_positive_rate_under_heavy_noise(self):
        with pytest.raises(NoPositiveRate):
            max_attenuation(ProtocolParams(V_S=0.5, V_M=100.0), 0.5, RR)

    def test_root_is_a_sign_change(self):
        params = ProtocolParams(V_S=2.0, V_M=100.0)
        tol = 1e-4
        db = max_attenuation(params, 0.03, DR, tol=tol)

        def rate(d):
            eta = db_to_eta(d)
            chan = ChannelParams.symmetric(eta, 0.03)
            return key_rate(params, chan, symmetric_vpB(params, eta, 0.03), DR).key_rate

        assert rate(db - 5 * tol) > 0 > rate(db + 5 * tol)


class TestWriters:
    def make_curve(self):
        params = ProtocolParams(V_S=2.0, V_M=100.0)
        return keyrate_vs_attenuation(params, 0.03, [0.0, 0.5, 1.0], DR)

    def test_csv_layout(self):
        text = curve_to_csv(self.make_curve())
        lines = text.splitlines()
        header_rows = [ln for ln in lines if ln.startswith("#")]
        assert header_rows[0].startswith("# tool=udcvqkd")
        assert "# direction=dr" in header_rows
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "attenuation_db,key_rate_bits"
        assert len(body) == 1 + 3
        first = body[1].split(",")
        assert float(first[0]) == 0.0

    def test_csv_uses_12_significant_digits(self):
        curve = Curve(
            abscissa=(0.0, 1.0),
            ordinate=(1.0 / 3.0, 2.0 / 3.0),
            x_name="x", y_name="y", metadata={},
        )
        text = curve_to_csv(curve)
        assert "0.333333333333" in text
        assert "0.666666666667" in text

    def test_csv_file_written_byte_stable(self, tmp_path):
        curve = self.make_curve()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curve_csv(curve, p1)
        write_curve_csv(self.make_curve(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_region_file_holds_the_json_text(self, tmp_path):
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        region = scan_region(params, (0.9, 0.03), region_grid(0.9, 1.8, points=16),
                             RegionMode.FREE_VPB)
        path = tmp_path / "region.json"
        write_region_json(region, path)
        assert path.read_bytes() == region_to_json(region).encode("ascii")

    def test_region_json_schema(self, tmp_path):
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        grid = region_grid(0.9, 1.8, points=16)
        region = scan_region(params, (0.9, 0.03), grid, RegionMode.FREE_VPB)
        path = tmp_path / "region.json"
        write_region_json(region, path)
        obj = json.loads(path.read_text())
        assert obj["mode"] == "vpb"
        assert len(obj["x_axis"]) == 16
        assert len(obj["cp_axis"]) == 16
        assert len(obj["cells"]) == 16
        assert all(len(row) == 16 for row in obj["cells"])
        assert set(obj["legend"]) == {"0", "1", "2", "3", "4"}
        codes = {c for row in obj["cells"] for c in row}
        assert codes <= {0, 1, 2, 3, 4}
        assert obj["metadata"]["V_M"] == 10.0

    @staticmethod
    def reference_region_json(region):
        """The encoder region_to_json replaced: json.dumps over Python ints."""
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

    @pytest.mark.parametrize("shape", [(2, 2), (33, 7), (64, 5), (401, 3), (1, 1)])
    def test_region_json_matches_reference_encoder(self, shape):
        rng = np.random.default_rng(shape[0])
        cells = rng.integers(0, 5, size=shape).astype(np.int8)
        cells.flat[:min(cells.size, 5)] = np.arange(min(cells.size, 5))
        region = RegionMap(
            x_axis=np.linspace(0.5, 2.0, shape[0]),
            cp_axis=np.linspace(-3.0, 1.0 / 3.0, shape[1]),
            cells=cells,
            mode=RegionMode.SYMMETRIC_NOISE,
            metadata={"V_S": 0.5, "eta_x": 0.1, "zeta": [1, 2]},
        )
        assert len(np.unique(cells)) == min(cells.size, 5)
        assert region_to_json(region) == self.reference_region_json(region)

    def test_scanned_region_json_matches_reference_encoder(self):
        grid = region_grid(0.7, 2.2, points=70, cp_min=-5.0, cp_max=0.0)
        region = scan_region(ProtocolParams(V_S=0.8, V_M=30.0), (0.9, 0.03), grid,
                             RegionMode.FREE_VPB)
        assert len(np.unique(region.cells)) >= 3
        assert region_to_json(region) == self.reference_region_json(region)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_region_map_rejects_empty_axes(self, shape):
        # unchecked, a (0, 3) map makes region_to_json raise IndexError
        # and a (3, 0) map encodes to invalid JSON
        with pytest.raises(ConfigError, match="nonempty"):
            RegionMap(x_axis=np.arange(float(shape[0])), cp_axis=np.arange(float(shape[1])),
                      cells=np.zeros(shape, dtype=np.int8), mode=RegionMode.FREE_VPB)

    @pytest.mark.parametrize("x_axis,cp_axis,shape,message", [
        ([0.0, 2.0, 1.0], [0.0, 1.0], (3, 2), "strictly increasing"),
        ([0.0, 1.0, 2.0], [1.0, 1.0], (3, 2), "strictly increasing"),
        ([0.0, 1.0, 2.0], [0.0, 1.0], (2, 3), "does not match the axes"),
    ])
    def test_region_map_rejects_bad_axes(self, x_axis, cp_axis, shape, message):
        with pytest.raises(ConfigError, match=message):
            RegionMap(x_axis=np.array(x_axis), cp_axis=np.array(cp_axis),
                      cells=np.zeros(shape, dtype=np.int8), mode=RegionMode.FREE_VPB)

    @pytest.mark.parametrize("code", [-1, 5, 10])
    def test_region_map_rejects_unknown_codes(self, code):
        cells = np.zeros((3, 2), dtype=np.int8)
        cells[1, 1] = code
        with pytest.raises(ConfigError):
            RegionMap(x_axis=np.arange(3.0), cp_axis=np.arange(2.0), cells=cells,
                             mode=RegionMode.FREE_VPB)

    def test_region_map_rejects_non_integer_cells(self):
        # a float 2.5 lies in the code range, and region_to_json would
        # write it as code 2
        cells = np.zeros((3, 2))
        cells[1, 1] = 2.5
        with pytest.raises(ConfigError, match="integer array"):
            RegionMap(x_axis=np.arange(3.0), cp_axis=np.arange(2.0), cells=cells,
                      mode=RegionMode.FREE_VPB)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_region_map_accepts_integer_cells(self, dtype):
        cells = np.arange(6, dtype=dtype).reshape(3, 2) % 5
        region = RegionMap(x_axis=np.arange(3.0), cp_axis=np.arange(2.0), cells=cells,
                           mode=RegionMode.FREE_VPB)
        assert region.cells.dtype == dtype
        assert '"cells":[[0,1],[2,3],[4,0]]' in region_to_json(region)

    def test_repeated_scans_are_byte_identical(self, tmp_path):
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        texts = []
        for _ in range(2):
            grid = region_grid(0.9, 1.8, points=24)
            region = scan_region(params, (0.9, 0.03), grid, RegionMode.FREE_VPB)
            texts.append(region_to_json(region))
        assert texts[0] == texts[1]
