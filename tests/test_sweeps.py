import json
import math

import numpy as np
import pytest

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
    RegionMode,
    SweepConfig,
    apply_channel,
    condition_on_homodyne,
    curve_to_csv,
    db_grid,
    db_to_eta,
    entropy_g,
    eta_to_db,
    holevo_bound,
    is_physical,
    key_rate,
    keyrate_vs_attenuation,
    max_attenuation,
    max_tolerable_noise,
    mutual_information,
    physicality_parabola,
    region_to_json,
    scan_region,
    symmetric_vpB,
    symplectic_eigenvalues,
    symplectic_form,
    write_curve_csv,
    write_region_json,
)
from udcvqkd.gaussian import _min_uncertainty_eig

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

    def test_tolerances_positive(self):
        with pytest.raises(ConfigError):
            region_grid(1.0, 2.0, bisect_tol_eps=0.0)

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
            mat = apply_channel(self.params, chan, c_p).mat.copy()
            mat[3, 3] = v_p_b
            if not is_physical(CovMatrix(mat)):
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

    @pytest.mark.parametrize("v_s,v_m", [(1.0, 10.0), (0.5, 1e4)])
    def test_physicality_mask_matches_uncertainty_eigenvalue(self, v_s, v_m):
        # the map's 2x2 block test against the smallest eigenvalue of
        # gamma + i.Omega, on a wide grid and on a zoom around the parabola
        # vertex, where the tolerance decides a band of cells
        params = ProtocolParams(V_S=v_s, V_M=v_m)
        chan = ChannelParams.symmetric(*self.chan_x)
        v0, c0, _ = physicality_parabola(params, chan)
        grids = [
            region_grid(0.5 * v0, 2.0 * v0, points=90, cp_min=2.0 * c0, cp_max=0.2 * c0),
            region_grid(v0 - 2e-6, v0 + 2e-6, points=60,
                        cp_min=c0 - 2e-3, cp_max=c0 + 2e-3),
        ]
        for grid in grids:
            masks = []
            for tol in (0.0, 1e-9, 1e-6):
                region = scan_region(params, self.chan_x, grid, RegionMode.FREE_VPB,
                                     physicality_tol=tol)
                mats = np.empty((grid.x_points, grid.cp_points, 4, 4))
                mats[:] = apply_channel(params, chan, 0.0).mat
                mats[:, :, 3, 3] = region.x_axis[:, np.newaxis]
                mats[:, :, 1, 3] = mats[:, :, 3, 1] = region.cp_axis[np.newaxis, :]
                want = _min_uncertainty_eig(mats) >= -tol
                assert np.array_equal(region.cells != RegionClass.UNPHYSICAL, want)
                masks.append(want)
            assert masks[0].any() and not masks[0].all()
        assert masks[0].sum() < masks[1].sum() < masks[2].sum()

    def test_everything_below_vertex_is_unphysical(self):
        v0 = physicality_parabola(self.params, ChannelParams.symmetric(*self.chan_x))[0]
        grid = region_grid(0.5, v0 - 1e-3)
        region = scan_region(self.params, self.chan_x, grid, RegionMode.FREE_VPB)
        assert (region.cells == RegionClass.UNPHYSICAL).all()

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
        mat = apply_channel(self.params, chan, c_p).mat.copy()
        mat[3, 3] = v_p_b
        if not is_physical(CovMatrix(mat)):
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

    def test_repeated_scans_are_byte_identical(self, tmp_path):
        params = ProtocolParams(V_S=1.0, V_M=10.0)
        texts = []
        for threads in (1, 3):
            grid = region_grid(0.9, 1.8, points=24, threads=threads)
            region = scan_region(params, (0.9, 0.03), grid, RegionMode.FREE_VPB)
            texts.append(region_to_json(region))
        assert texts[0] == texts[1]
