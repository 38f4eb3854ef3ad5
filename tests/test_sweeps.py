import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udcvqkd import (
    ChannelParams,
    ConfigError,
    CovMatrix,
    Curve,
    NoPositiveRate,
    NoRoot,
    ProtocolParams,
    Quadrature,
    QuadratureSelector,
    ReconciliationDirection,
    RegionClass,
    RegionMap,
    RegionMode,
    SweepConfig,
    UnphysicalObservation,
    UnphysicalState,
    apply_channel,
    condition_on_homodyne,
    curve_to_csv,
    db_grid,
    db_to_eta,
    entropy_g,
    eta_to_db,
    holevo_bound,
    key_rate,
    keyrate_vs_attenuation,
    max_attenuation,
    max_tolerable_noise,
    mutual_information,
    physicality_interval,
    physicality_parabola,
    region_to_json,
    scan_region,
    symmetric_vpB,
    symplectic_eigenvalues,
    symplectic_form,
    write_curve_csv,
    write_region_json,
)
from udcvqkd import __version__, sweeps
from udcvqkd.gaussian import _min_uncertainty_eig
from udcvqkd.protocol import (
    _conditional_nu,
    _g,
    _symplectic_pair,
    _x_moments,
)
from udcvqkd.sweeps import _g_array

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
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        with pytest.raises(ConfigError):
            max_tolerable_noise(params, 0.2, DR, tol=bad)
        with pytest.raises(ConfigError):
            max_attenuation(params, 0.03, DR, tol=bad)

    def test_threads_must_be_positive(self):
        # threads has no effect, but stays a validated setting
        with pytest.raises(ConfigError):
            keyrate_vs_attenuation(ProtocolParams(V_S=2.0, V_M=100.0), 0.03, [0.0], DR,
                                   threads=0)
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

    def test_cells_match_pointwise_library_calls(self):
        grid = region_grid(0.9, 1.8)
        region = scan_region(self.params, self.chan_x, grid, RegionMode.FREE_VPB)
        chan = ChannelParams.symmetric(*self.chan_x)
        mi = mutual_information(self.params, chan)
        rng = np.random.default_rng(67)
        for _ in range(60):
            i = int(rng.integers(0, grid.x_points))
            j = int(rng.integers(0, grid.cp_points))
            v_p_b = float(region.x_axis[i])
            c_p = float(region.cp_axis[j])
            interval = physicality_interval(self.params, chan, v_p_b)
            if interval is None or not interval[0] <= c_p <= interval[1]:
                expected = RegionClass.UNPHYSICAL
            else:
                k_dr = mi - holevo_bound(self.params, chan, c_p, v_p_b, DR)
                k_rr = mi - holevo_bound(self.params, chan, c_p, v_p_b, RR)
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
            mats[:] = apply_channel(params, chan, 0.0).mat
            mats[:, :, 3, 3] = region.x_axis[:, np.newaxis]
            mats[:, :, 1, 3] = mats[:, :, 3, 1] = region.cp_axis[np.newaxis, :]
            want = _min_uncertainty_eig(mats) >= 0.0
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

    @staticmethod
    def row_by_row_cells(params, chan_x, region, mode, strict=False):
        """The cells of region, one row at a time with a float V_p_B and its
        physicality_interval, and one cell at a time through the kernel."""
        eta, eps = chan_x
        chan = ChannelParams.symmetric(eta, eps)
        xm = _x_moments(params, eta, eps)
        key_mi = mutual_information(params, chan)
        s_cond_rr = _g(_conditional_nu(xm, 1.0, RR))
        want = np.zeros_like(region.cells)
        for i, x in enumerate(region.x_axis):
            v_p_b = (float(x) if mode is RegionMode.FREE_VPB
                     else symmetric_vpB(params, eta, float(x), strict))
            interval = physicality_interval(params, chan, v_p_b)
            if interval is None:
                continue
            lo, hi = interval
            for j in np.flatnonzero((lo <= region.cp_axis) & (region.cp_axis <= hi)):
                nu_plus, nu_minus = _symplectic_pair(xm, region.cp_axis[j:j + 1], v_p_b)
                s_ab = float(_g_array(nu_plus)[0] + _g_array(nu_minus)[0])
                k_dr = key_mi - (s_ab - _g(_conditional_nu(xm, v_p_b, DR)))
                k_rr = key_mi - (s_ab - s_cond_rr)
                want[i, j] = (
                    RegionClass.SECURE_BOTH if (k_dr > 0 and k_rr > 0)
                    else RegionClass.SECURE_DR if k_dr > 0
                    else RegionClass.SECURE_RR if k_rr > 0
                    else RegionClass.PHYSICAL_INSECURE
                )
        return want

    @pytest.mark.parametrize("x_points", [2, 31, 32, 33, 97])
    @pytest.mark.parametrize("mode,x_range", [
        (RegionMode.FREE_VPB, (0.7, 2.2)),
        (RegionMode.SYMMETRIC_NOISE, (0.0, 0.5)),
    ])
    def test_blocked_scan_matches_row_by_row_evaluation(self, x_points, mode, x_range):
        # rows are classified REGION_BLOCK_ROWS at a time; one row at a time
        # with a float V_p_B must give the same cells, block edges included
        params = ProtocolParams(V_S=0.8, V_M=30.0)
        grid = region_grid(*x_range, cp_min=-5.0, cp_max=0.0, x_points=x_points,
                           cp_points=45)
        region = scan_region(params, self.chan_x, grid, mode)
        assert np.array_equal(region.cells,
                              self.row_by_row_cells(params, self.chan_x, region, mode))
        assert region.cells.dtype == np.int8
        assert len(np.unique(region.cells)) >= 3

    @settings(deadline=None, max_examples=25)
    @given(
        st.sampled_from(list(RegionMode)),
        st.booleans(),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=0.5, max_value=0.95),
        st.integers(min_value=2, max_value=75),
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=-6.0, max_value=0.0),
        st.floats(min_value=0.1, max_value=6.0),
        st.floats(min_value=-1.0, max_value=17.0),
    )
    @example(RegionMode.SYMMETRIC_NOISE, True, 0.8, 0.9, 33, 7, -3.0, 2.0, math.log10(30.0))
    @example(RegionMode.FREE_VPB, False, 1.0, 0.5, 33, 40, -4.0, 4.0, 17.0)
    def test_scan_matches_row_by_row_evaluation_anywhere(
            self, mode, strict, v_s, eta, x_points, cp_points, cp_min, cp_width, log_vm):
        # both modes, the strict-paper V_p_B (sub-vacuum rows are empty), row
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
                           x_points=x_points, cp_points=cp_points, strict_paper_vpb=strict)
        region = scan_region(params, chan_x, grid, mode)
        want = self.row_by_row_cells(params, chan_x, region, mode, strict)
        assert np.array_equal(region.cells, want)

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
            strict = bool(rng.integers(2))
            chan = ChannelParams.symmetric(eta, eps)
            v0, c0, coeff = physicality_parabola(params, chan)
            half = max(math.sqrt(coeff * v0), 1e-9 * abs(c0))
            x_range = (0.5 * v0, 2.5 * v0) if mode is RegionMode.FREE_VPB else (0.0, 1.0)
            grid = region_grid(*x_range, x_points=int(rng.integers(2, 70)),
                               cp_points=int(rng.integers(2, 50)), strict_paper_vpb=strict,
                               cp_min=c0 - half * rng.uniform(-1.0, 2.0),
                               cp_max=c0 + half * rng.uniform(1.0, 2.0))
            region = scan_region(params, (eta, eps), grid, mode)
            for x, row in zip(region.x_axis.tolist(), region.cells):
                v_p_b = x if mode is RegionMode.FREE_VPB else symmetric_vpB(params, eta, x, strict)
                interval = physicality_interval(params, chan, v_p_b)
                inside = (np.zeros(len(row), dtype=bool) if interval is None
                          else (interval[0] <= region.cp_axis) & (region.cp_axis <= interval[1]))
                assert np.array_equal(row != RegionClass.UNPHYSICAL, inside)

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
        # the kernel runs over each block's bounding box, whose cells past a
        # row's run take the square root of a negative det
        params = ProtocolParams(V_S=0.8, V_M=30.0)
        for mode, x_range in ((RegionMode.FREE_VPB, (0.7, 2.2)),
                              (RegionMode.SYMMETRIC_NOISE, (0.0, 0.5))):
            grid = region_grid(*x_range, cp_min=-5.0, cp_max=0.0, x_points=97, cp_points=45)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                region = scan_region(params, self.chan_x, grid, mode)
            physical = region.cells != RegionClass.UNPHYSICAL
            assert physical.any() and not physical[:, 0].all()

    def test_thread_count_does_not_change_cells(self):
        grid1 = region_grid(0.9, 1.8)
        grid4 = region_grid(0.9, 1.8, threads=4)
        r1 = scan_region(self.params, self.chan_x, grid1, RegionMode.FREE_VPB)
        r4 = scan_region(self.params, self.chan_x, grid4, RegionMode.FREE_VPB)
        assert np.array_equal(r1.cells, r4.cells)
        assert region_to_json(r1) == region_to_json(r4)


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
        curve = keyrate_vs_attenuation(params, 0.03, grid, DR, threads=2)
        for db, k in zip(curve.abscissa, curve.ordinate):
            eta = db_to_eta(db)
            chan = ChannelParams.symmetric(eta, 0.03)
            v_p_b = symmetric_vpB(params, eta, 0.03)
            assert k == key_rate(params, chan, v_p_b, DR).key_rate

    def test_unphysical_points_are_left_out(self):
        # strict-paper p variance is unphysical for any lossy coherent run
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        curve = keyrate_vs_attenuation(
            params, 0.0, [0.0, 0.5, 1.0], DR, strict_paper_vpb=True
        )
        assert curve.abscissa == (0.0,)

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
    a, b = -bound, bound
    inv_golden = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        c, d = b - inv_golden * (b - a), a + inv_golden * (b - a)
        if slack(c) < slack(d):
            a = c
        else:
            b = d
    centre = 0.5 * (a + b)
    assert slack(centre) >= 0.0
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


def count_key_rate_calls(monkeypatch, limit=2000):
    """Count the root finders' key_rate calls; stop a runaway loop at limit."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        assert len(calls) <= limit, "root search did not terminate"
        return key_rate(*args, **kwargs)

    monkeypatch.setattr(sweeps, "key_rate", counted)
    return calls


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
        roots = []
        for direction in ReconciliationDirection:
            for v_s in (0.5, 1.0, 2.0):
                params = ProtocolParams(V_S=v_s, V_M=100.0)
                searches = [(max_tolerable_noise, db, 1e-6) for db in db_grid(0.1, 1.2, 0.1)]
                searches += [(max_attenuation, eps, 1e-4) for eps in (0.0, 0.01, 0.03, 0.05)]
                for find, fixed, tol in searches:
                    start = len(calls)
                    try:
                        root = find(params, fixed, direction, tol=tol)
                    except (NoPositiveRate, NoRoot):
                        continue
                    roots.append((params, direction, find, fixed, tol, root, len(calls) - start))
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

    def test_reverse_noiseless_coherent_never_crosses_below_cap(self):
        with pytest.raises(NoRoot):
            max_attenuation(ProtocolParams(V_S=1.0, V_M=100.0), 0.0, RR)

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

    @pytest.mark.parametrize("shape", [(2, 2), (33, 7), (64, 5), (401, 3)])
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

    @pytest.mark.parametrize("code", [-1, 5, 10])
    def test_region_map_rejects_unknown_codes(self, code):
        cells = np.zeros((3, 2), dtype=np.int8)
        cells[1, 1] = code
        with pytest.raises(ConfigError):
            RegionMap(x_axis=np.arange(3.0), cp_axis=np.arange(2.0), cells=cells,
                             mode=RegionMode.FREE_VPB)

    def test_repeated_scans_are_byte_identical(self, tmp_path):
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        texts = []
        for threads in (1, 3):
            grid = region_grid(0.9, 1.8, points=24, threads=threads)
            region = scan_region(params, (0.9, 0.03), grid, RegionMode.FREE_VPB)
            texts.append(region_to_json(region))
        assert texts[0] == texts[1]
