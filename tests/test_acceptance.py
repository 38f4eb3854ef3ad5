"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints
a single ``ACCEPTANCE n (<name>): PASS|FAIL`` line (use ``pytest -rA`` or
``-s`` to see the lines for passing criteria too).  Failing sub-checks are
listed in the assertion message.
"""

import math
import time

import numpy as np

from udcvqkd import (
    ChannelParams,
    NoRoot,
    ProtocolParams,
    ReconciliationDirection,
    RegionMode,
    SweepConfig,
    asymptotic_key_rate_dr,
    asymptotic_key_rate_rr,
    holevo_bound,
    key_rate,
    keyrate_vs_attenuation,
    max_attenuation,
    max_tolerable_noise,
    physicality_interval,
    physicality_parabola,
    region_to_json,
    scan_region,
    symmetric_vpB,
    write_region_json,
)
from udcvqkd.gaussian import (
    Quadrature,
    QuadratureSelector,
    apply_channel,
    build_eb_state,
    condition_on_homodyne,
    is_physical,
    von_neumann_entropy,
)
from udcvqkd.sweeps import curve_to_csv

DR = ReconciliationDirection.DIRECT
RR = ReconciliationDirection.REVERSE

LOG2E = math.log2(math.e)


def _report(number: int, name: str, failures: list, elapsed: float | None = None):
    status = "FAIL" if failures else "PASS"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    line = f"ACCEPTANCE {number} ({name}): {status}{timing}"
    print(line)
    assert not failures, line + " :: " + " | ".join(failures)


def test_acceptance_1_purity_and_conditioning():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    failures = []
    sel = QuadratureSelector(Quadrature.X, 0)
    for i in range(1000):
        params = ProtocolParams(
            V_S=rng.uniform(0.1, 10.0), V_M=rng.uniform(0.0, 100.0)
        )
        state = build_eb_state(params)
        entropy = von_neumann_entropy(state)
        if abs(entropy) > 1e-9:
            failures.append(f"draw {i}: source-state entropy {entropy:.3e} > 1e-9")
            continue
        conditioned = condition_on_homodyne(state, sel).mat
        target = np.diag([params.V_S, 1.0 / params.V_S])
        if np.max(np.abs(conditioned - target)) > 1e-12:
            failures.append(
                f"draw {i}: conditioned state off by "
                f"{np.max(np.abs(conditioned - target)):.3e} > 1e-12"
            )
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _report(1, "purity & conditioning, 1000 draws", failures, elapsed)


def test_acceptance_2_conditional_state_closed_forms():
    rng = np.random.default_rng(102)
    failures = []
    for i in range(500):
        params = ProtocolParams(
            V_S=math.exp(rng.uniform(math.log(0.2), math.log(5.0))),
            V_M=rng.uniform(0.1, 100.0),
        )
        eta_x, eta_p, eps_x, eps_p = (rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0),
                                      rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3))
        chan = ChannelParams(eta_x, eps_x)
        v_p_b = eta_p * (1.0 / params.V_S + eps_p) + 1.0 - eta_p
        interval = physicality_interval(params, chan, v_p_b)
        if interval is not None and interval[1] > interval[0]:
            c_p = rng.uniform(interval[0], interval[1])
        else:
            c_p = physicality_parabola(params, chan)[1]
        state = apply_channel(params, chan, c_p, v_p_b)

        b = chan.eta_x * (params.V_S + chan.eps_x - 1.0) + 1.0
        v = params.tmsv_variance
        v_x_b = chan.eta_x * (params.V_S + params.V_M + chan.eps_x) + 1.0 - chan.eta_x
        closed_dr = np.diag([b, v_p_b])
        closed_rr = np.diag([v * b / v_x_b, v])

        got_dr = condition_on_homodyne(state, QuadratureSelector(Quadrature.X, 0)).mat
        got_rr = condition_on_homodyne(state, QuadratureSelector(Quadrature.X, 1)).mat
        err_dr = np.max(np.abs(got_dr - closed_dr))
        err_rr = np.max(np.abs(got_rr - closed_rr))
        if err_dr > 1e-10 or err_rr > 1e-10:
            failures.append(f"draw {i}: conditional mismatch {max(err_dr, err_rr):.3e}")
    _report(2, "conditional states match generic conditioning, 500 draws", failures)


def test_acceptance_3_physicality_parabola():
    rng = np.random.default_rng(103)
    failures = []
    for i in range(500):
        params = ProtocolParams(
            V_S=math.exp(rng.uniform(math.log(0.2), math.log(5.0))),
            V_M=math.exp(rng.uniform(math.log(0.1), math.log(1000.0))),
        )
        chan = ChannelParams.symmetric(rng.uniform(0.05, 0.999), rng.uniform(0.0, 0.3))
        v0 = physicality_parabola(params, chan)[0]
        v_p_b = v0 + rng.uniform(0.01, 3.0)
        lo, hi = physicality_interval(params, chan, v_p_b)

        def state_at(c_p):
            return apply_channel(params, chan, c_p, v_p_b)

        if not (is_physical(state_at(lo)) and is_physical(state_at(hi))):
            failures.append(f"draw {i}: interval endpoint flagged unphysical")
        if is_physical(state_at(lo - 1e-3)) or is_physical(state_at(hi + 1e-3)):
            failures.append(f"draw {i}: point 1e-3 outside passed the physicality test")

    lossless = ChannelParams.symmetric(1.0, 0.0)
    for i in range(100):
        params = ProtocolParams(
            V_S=rng.uniform(0.2, 5.0), V_M=rng.uniform(0.1, 50.0)
        )
        v_p_b = symmetric_vpB(params, 1.0, 0.0)
        lo, hi = physicality_interval(params, lossless, v_p_b)
        pure_cp = float(build_eb_state(params).mat[1, 3])
        if abs(0.5 * (lo + hi) - pure_cp) > 1e-10:
            failures.append(
                f"lossless draw {i}: degenerate point off the pure-state "
                f"correlation by {abs(0.5 * (lo + hi) - pure_cp):.3e}"
            )
    _report(3, "physicality parabola is the exact boundary, 500+100 draws", failures)


def test_acceptance_4_asymptotic_oracle():
    # The closed forms are the strong-modulation key rate with C_p pinned at
    # the upper end of the physical interval, so they are checked against
    # the pipeline's rate at that endpoint.  The worst case can only lie
    # below it; at low transmittance with a squeezed or antisqueezed source
    # it sits strictly inside the interval and more than 1e-3 bits below.
    failures = []
    detached = {(0.5, 0.3), (0.5, 0.6), (2.0, 0.3)}

    def pipeline(v_s, eta, direction):
        params = ProtocolParams(V_S=v_s, V_M=1e6)
        chan = ChannelParams.symmetric(eta, 0.0)
        v_p_b = symmetric_vpB(params, eta, 0.0)
        worst = key_rate(params, chan, v_p_b, direction)
        chi_hi = holevo_bound(params, chan, worst.Cp_interval[1], v_p_b, direction)
        return worst, params.beta * worst.mutual_info - chi_hi

    def check(v_s, eta, direction, closed):
        worst, endpoint = pipeline(v_s, eta, direction)
        cell = f"{direction.value} V_S={v_s} eta={eta}"
        if abs(endpoint - closed) > 1e-3:
            failures.append(
                f"{cell}: endpoint |{endpoint:.6f} - {closed:.6f}| = "
                f"{abs(endpoint - closed):.2e} > 1e-3"
            )
        if worst.key_rate > endpoint + 1e-9:
            failures.append(
                f"{cell}: worst case {worst.key_rate:.9f} above endpoint {endpoint:.9f}"
            )
        if (v_s, eta) in detached:
            lo, hi = worst.Cp_interval
            if not lo < worst.worst_Cp < hi:
                failures.append(
                    f"{cell}: worst C_p {worst.worst_Cp!r} not inside ({lo!r}, {hi!r})"
                )
            if not closed - worst.key_rate > 1e-3:
                failures.append(
                    f"{cell}: closed form {closed:.6f} within 1e-3 of worst case "
                    f"{worst.key_rate:.6f}"
                )

    for v_s in (0.5, 1.0, 2.0):
        for eta in (0.3, 0.6, 0.9):
            check(v_s, eta, DR, asymptotic_key_rate_dr(v_s, eta))
            check(v_s, eta, RR, asymptotic_key_rate_rr(v_s, eta))

    eta = 1e-3
    low_eta_ratio = asymptotic_key_rate_rr(1.0, eta) / (eta * LOG2E / 3.0)
    if abs(low_eta_ratio - 1.0) > 0.05:
        failures.append(f"low-eta reverse-coherent ratio {low_eta_ratio:.4f} off by > 5%")

    _report(4, "strong-modulation closed forms vs pipeline at the C_p endpoint", failures)


def test_acceptance_5_keyrate_crossings():
    t0 = time.perf_counter()
    failures = []
    cross_anti = max_attenuation(ProtocolParams(V_S=2.0, V_M=100.0), 0.03, DR)
    cross_coh = max_attenuation(ProtocolParams(V_S=1.0, V_M=100.0), 0.03, DR)
    try:
        cross_rr = max_attenuation(ProtocolParams(V_S=1.0, V_M=100.0), 0.03, RR)
    except NoRoot:
        cross_rr = math.inf
    if abs(cross_anti - 1.5) > 0.1:
        failures.append(f"antisqueezed DR crossing {cross_anti:.4f} dB not within 1.5 +- 0.1")
    if abs(cross_coh - 0.9) > 0.1:
        failures.append(f"coherent DR crossing {cross_coh:.4f} dB not within 0.9 +- 0.1")
    if not (cross_rr > cross_anti and cross_rr > cross_coh):
        failures.append(
            f"coherent RR crossing {cross_rr} does not exceed DR crossings "
            f"({cross_coh:.4f}, {cross_anti:.4f})"
        )
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(5, "key-rate zero crossings vs attenuation", failures, elapsed)


def test_acceptance_6_noise_tolerance_frontier():
    failures = []
    eps_dr = {
        v_s: max_tolerable_noise(ProtocolParams(V_S=v_s, V_M=100.0), 0.2, DR)
        for v_s in (1.0, 2.0)
    }
    ratio = eps_dr[2.0] / eps_dr[1.0]
    if not 1.3 <= ratio <= 1.7:
        failures.append(f"DR noise-tolerance ratio {ratio:.4f} outside [1.3, 1.7]")
    eps_rr = {
        v_s: max_tolerable_noise(ProtocolParams(V_S=v_s, V_M=100.0), 0.2, RR)
        for v_s in (0.5, 1.0, 2.0)
    }
    if not (eps_rr[1.0] > eps_rr[0.5] and eps_rr[1.0] > eps_rr[2.0]):
        failures.append(
            "RR noise tolerance not maximal for the coherent protocol: "
            f"{eps_rr}"
        )
    _report(6, "maximal tolerable noise ratios and ordering", failures)


def test_acceptance_7_region_structure_and_speed():
    failures = []
    chan = ChannelParams.symmetric(0.9, 0.03)
    vertices = {}
    for v_s in (0.9, 1.0, 1.1):
        params = ProtocolParams(V_S=v_s, V_M=10.0)
        v0, c0, _ = physicality_parabola(params, chan)
        direct_v0 = 1.0 / (1.0 + 0.9 * (v_s + 0.03 - 1.0))
        direct_c0 = -direct_v0 * math.sqrt(0.9 * 10.0) / (10.0 / v_s + 1.0) ** 0.25
        if abs(v0 - direct_v0) > 1e-9 or abs(c0 - direct_c0) > 1e-9:
            failures.append(f"vertex for V_S={v_s} deviates from the direct evaluation")
        vertices[v_s] = v0
    if not vertices[0.9] > vertices[1.0] > vertices[1.1]:
        failures.append(f"vertex ordering violated: {vertices}")

    t0 = time.perf_counter()
    grid = SweepConfig(
        x_min=0.85, x_max=2.0, cp_min=-2.8, cp_max=-0.5,
        x_points=400, cp_points=400,
    )
    region = scan_region(ProtocolParams(V_S=1.0, V_M=10.0), (0.9, 0.03), grid,
                         RegionMode.FREE_VPB)
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"400x400 region scan took {elapsed:.1f}s >= 60s")
    if region.cells.shape != (400, 400):
        failures.append("region grid has the wrong shape")
    _report(7, "parabola vertices and 400x400 region scan", failures, elapsed)


def test_acceptance_8_deterministic_outputs(tmp_path):
    failures = []
    params = ProtocolParams(V_S=1.0, V_M=10.0)

    region_texts = []
    for _ in range(4):
        grid = SweepConfig(
            x_min=0.9, x_max=1.8, cp_min=-2.4, cp_max=-0.8,
            x_points=120, cp_points=120,
        )
        region = scan_region(params, (0.9, 0.03), grid, RegionMode.FREE_VPB)
        region_texts.append(region_to_json(region))
    if len(set(region_texts)) != 1:
        failures.append("region JSON differs across repeats")

    noise_texts = []
    for _ in range(4):
        grid = SweepConfig(
            x_min=0.0, x_max=0.4, cp_min=-2.4, cp_max=-0.8,
            x_points=80, cp_points=80,
        )
        region = scan_region(params, (0.9, 0.03), grid, RegionMode.SYMMETRIC_NOISE)
        noise_texts.append(region_to_json(region))
    if len(set(noise_texts)) != 1:
        failures.append("symmetric-noise region JSON differs across runs")

    curve_texts = []
    for _ in range(4):
        curve = keyrate_vs_attenuation(
            ProtocolParams(V_S=2.0, V_M=100.0), 0.03,
            [0.0, 0.5, 1.0, 1.5, 2.0], DR,
        )
        curve_texts.append(curve_to_csv(curve))
    if len(set(curve_texts)) != 1:
        failures.append("attenuation curve CSV differs across runs")

    frontier = [
        max_tolerable_noise(ProtocolParams(V_S=2.0, V_M=100.0), 0.2, DR)
        for _ in range(2)
    ]
    if frontier[0] != frontier[1]:
        failures.append("noise frontier differs across repeated runs")

    paths = []
    for run in (1, 2):
        path = tmp_path / f"region_run{run}.json"
        grid = SweepConfig(
            x_min=0.9, x_max=1.8, cp_min=-2.4, cp_max=-0.8,
            x_points=64, cp_points=64,
        )
        write_region_json(scan_region(params, (0.9, 0.03), grid, RegionMode.FREE_VPB), path)
        paths.append(path.read_bytes())
    if paths[0] != paths[1]:
        failures.append("region files on disk are not byte-identical")

    _report(8, "byte-identical sweep outputs", failures)
