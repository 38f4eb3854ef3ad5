"""Independent correctness oracle for the benchmark.

Everything here is rebuilt from the physics with the generic n-mode
functions of ``udcvqkd.gaussian`` only (covariance matrices, symplectic
spectra, homodyne conditioning, the uncertainty principle).  Nothing is
taken from ``udcvqkd.protocol`` or ``udcvqkd.sweeps``: the shared state is
assembled from a two-mode squeezed vacuum, the physical ``C_p`` interval
is found by bisection on the smallest eigenvalue of ``gamma + i Omega``,
and the worst case is a sampled search over that interval.

Each ``check_*`` function returns a list of problems; an empty list means
the output agrees with the oracle.  Decisions that sit within
``DECISION_MARGIN`` of their threshold are skipped, not failed.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from udcvqkd.errors import DomainError
from udcvqkd.gaussian import (
    CovMatrix,
    Quadrature,
    QuadratureSelector,
    condition_on_homodyne,
    entropy_g,
    symplectic_eigenvalues,
    symplectic_form,
)

CHI_TOL = 1e-9
DECISION_MARGIN = 1e-9
MI_TOL = 1e-9
INTERVAL_TOL = 1e-7
# Symplectic eigenvalues this far below 1 are rounding on a boundary state.
NU_ROUNDING = 1e-7
CURVE_TOL = 1e-9
REGION_PHYSICALITY_TOL = 1e-9

_OMEGA = 1j * symplectic_form(2)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Point:
    """One operating point: source, symmetric channel, observed p variance."""

    V_S: float
    V_M: float
    eta: float
    eps: float
    V_p_B: float
    direction: str  # "dr" or "rr"
    beta: float = 1.0


def db_to_eta(db: float) -> float:
    return 10.0 ** (-db / 10.0)


def symmetric_vpb(V_S: float, eta: float, eps: float, strict: bool = False) -> float:
    """Bob's p variance through a symmetric channel (vacuum term unless strict)."""
    out = eta * (1.0 / V_S + eps)
    return out if strict else out + 1.0 - eta


def shared_state(pt: Point, c_p: float) -> np.ndarray:
    """Covariance of Alice's and Bob's modes for a trial p correlation.

    A two-mode squeezed vacuum of variance V, with mode B squeezed so that
    B alone carries diag(V_S + V_M, 1/V_S); B's x quadrature then passes
    the lossy, noisy channel, and B's p block is the observed V_p_B with
    the unknown correlation c_p.
    """
    v = math.sqrt(1.0 + pt.V_M / pt.V_S)
    c = math.sqrt(v * v - 1.0)
    s = math.sqrt((pt.V_S + pt.V_M) / v)
    tmsv = np.array(
        [[v, 0.0, c, 0.0], [0.0, v, 0.0, -c], [c, 0.0, v, 0.0], [0.0, -c, 0.0, v]]
    )
    squeeze = np.diag([1.0, 1.0, s, 1.0 / s])
    gamma = squeeze @ tmsv @ squeeze
    gamma[0, 2] = gamma[2, 0] = math.sqrt(pt.eta) * gamma[0, 2]
    gamma[2, 2] = pt.eta * gamma[2, 2] + pt.eta * pt.eps + 1.0 - pt.eta
    gamma[1, 3] = gamma[3, 1] = c_p
    gamma[3, 3] = pt.V_p_B
    return gamma


def min_uncertainty_eig(gamma: np.ndarray) -> float:
    """Smallest eigenvalue of gamma + i Omega: >= 0 iff the state is physical."""
    return float(np.linalg.eigvalsh(gamma + _OMEGA)[0])


def entropy(gamma: np.ndarray) -> float:
    """Von Neumann entropy in bits, tolerating boundary states rounded below nu = 1."""
    total = 0.0
    for nu in symplectic_eigenvalues(CovMatrix(gamma)):
        if nu < 1.0 - NU_ROUNDING:
            raise DomainError(f"symplectic eigenvalue {nu!r} below 1")
        total += entropy_g(max(float(nu), 1.0))
    return total


def _reference(direction: str) -> QuadratureSelector:
    # DR: Alice (mode 0) is the reference; RR: Bob (mode 1).
    return QuadratureSelector(Quadrature.X, 0 if direction == "dr" else 1)


def conditional_entropy(pt: Point) -> float:
    """Entropy left after the reference side's x homodyne (independent of C_p)."""
    cond = condition_on_homodyne(CovMatrix(shared_state(pt, 0.0)), _reference(pt.direction))
    return entropy(cond.mat)


def mutual_information(pt: Point) -> float:
    """I_AB = 1/2 log2(Var(x_B) / Var(x_B | x_A)) from the shared covariance."""
    gamma = shared_state(pt, 0.0)
    cond = condition_on_homodyne(CovMatrix(gamma), QuadratureSelector(Quadrature.X, 0))
    return 0.5 * math.log2(gamma[2, 2] / cond.mat[0, 0])


def _golden_max(f, a: float, b: float, xtol: float) -> tuple[float, float]:
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
    x = 0.5 * (a + b)
    return x, f(x)


def _bisect_boundary(f, inside: float, outside: float) -> float:
    """Last point with f >= 0 on the segment from inside to outside."""
    for _ in range(200):
        mid = 0.5 * (inside + outside)
        if mid in (inside, outside):
            break
        if f(mid) >= 0.0:
            inside = mid
        else:
            outside = mid
    return inside


@dataclass(frozen=True)
class Physicality:
    """Outcome of the independent physicality search for one point."""

    best_cp: float
    best_margin: float  # max over C_p of the smallest eigenvalue of gamma + i Omega
    interval: tuple[float, float] | None  # physical C_p range, None if unphysical

    @property
    def ambiguous(self) -> bool:
        return abs(self.best_margin) <= DECISION_MARGIN


def physicality(pt: Point) -> Physicality:
    """Physical C_p range found from the uncertainty principle alone.

    The smallest eigenvalue of gamma(C_p) + i Omega is concave in C_p (the
    minimum eigenvalue of an affine Hermitian family), so a golden search
    finds its peak and two bisections find where it crosses zero.  Any
    physical C_p satisfies |C_p| < sqrt(V V_p_B), which brackets the search.
    """
    v = math.sqrt(1.0 + pt.V_M / pt.V_S)
    bound = math.sqrt(v * pt.V_p_B)
    margin = lambda cp: min_uncertainty_eig(shared_state(pt, cp))
    best, peak = _golden_max(margin, -bound, bound, 1e-13 * bound)
    if peak < -DECISION_MARGIN:
        return Physicality(best, peak, None)
    if peak <= 0.0:
        return Physicality(best, peak, (best, best))
    lo = _bisect_boundary(margin, best, -bound)
    hi = _bisect_boundary(margin, best, bound)
    return Physicality(best, peak, (lo, hi))


def worst_chi(pt: Point, interval: tuple[float, float], samples: int = 9) -> tuple[float, float]:
    """(C_p, chi) maximising the Holevo information over the interval.

    Evenly spaced samples, then a golden refinement between the best
    sample's neighbours to 1e-10 of the interval.  The peak can sit close
    to an endpoint, where chi is steep, so a looser tolerance leaves
    errors of order CHI_TOL.
    """
    s_cond = conditional_entropy(pt)
    chi = lambda cp: entropy(shared_state(pt, cp)) - s_cond
    lo, hi = interval
    if hi <= lo:
        return lo, chi(lo)
    grid = np.linspace(lo, hi, samples)
    values = [chi(cp) for cp in grid]
    k = int(np.argmax(values))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, samples - 1)]
    cp, best = _golden_max(chi, a, b, 1e-10 * (hi - lo))
    if values[k] > best:
        cp, best = grid[k], values[k]
    return float(cp), float(best)


def key_rate(pt: Point) -> float | None:
    """Oracle worst-case key rate; None when no physical state matches."""
    phys = physicality(pt)
    if phys.interval is None:
        return None
    _, chi = worst_chi(pt, phys.interval)
    return pt.beta * mutual_information(pt) - max(chi, 0.0)


# --------------------------------------------------------------------------
# Checks on outputs of the system under test.


@dataclass(frozen=True)
class KeyRateOutput:
    """The numbers a key-rate computation reported (API object or CLI JSON)."""

    mutual_info: float
    holevo: float
    key_rate: float
    worst_Cp: float
    Cp_interval: tuple[float, float]


def check_key_rate(pt: Point, out: KeyRateOutput | None) -> list[str]:
    """out is None when the system raised UnphysicalObservation."""
    phys = physicality(pt)
    if out is None:
        if phys.best_margin > DECISION_MARGIN:
            return [f"raised UnphysicalObservation, but C_p={phys.best_cp!r} is physical "
                    f"(margin {phys.best_margin:.3e})"]
        return []
    if phys.interval is None:
        return [f"returned a key rate, but no C_p is physical (margin {phys.best_margin:.3e})"]
    problems = []
    mi = mutual_information(pt)
    if abs(out.mutual_info - mi) > MI_TOL:
        problems.append(f"mutual_info {out.mutual_info!r} != oracle {mi!r}")
    if abs(out.key_rate - (pt.beta * out.mutual_info - out.holevo)) > 1e-12:
        problems.append("key_rate != beta * mutual_info - holevo")
    s_cond = conditional_entropy(pt)
    chi_at_worst = max(entropy(shared_state(pt, out.worst_Cp)) - s_cond, 0.0)
    if abs(chi_at_worst - out.holevo) > CHI_TOL:
        problems.append(f"holevo {out.holevo!r} != chi(worst_Cp) {chi_at_worst!r}")
    if phys.ambiguous:
        # On the parabola vertex the C_p range is a rounding-sized sliver
        # and chi has unbounded slope across it: only chi(worst_Cp) is firm.
        return problems
    lo, hi = phys.interval
    for got, want in zip(out.Cp_interval, phys.interval):
        if abs(got - want) > INTERVAL_TOL * (1.0 + abs(want)):
            problems.append(f"Cp_interval {out.Cp_interval!r} != oracle {phys.interval!r}")
            break
    slack = INTERVAL_TOL * (1.0 + abs(out.worst_Cp))
    if not lo - slack <= out.worst_Cp <= hi + slack:
        problems.append(f"worst_Cp {out.worst_Cp!r} outside physical range {phys.interval!r}")
    # chi has a square-root edge at the boundary, so endpoints that agree
    # to 1e-11 can still move chi there by 1e-9: search the shared range.
    shared = (max(lo, out.Cp_interval[0]), min(hi, out.Cp_interval[1]))
    cp, chi = worst_chi(pt, shared if shared[0] <= shared[1] else phys.interval)
    if chi > out.holevo + CHI_TOL:
        problems.append(f"chi(C_p={cp!r}) = {chi!r} exceeds reported holevo {out.holevo!r}")
    return problems


def _sign_problem(label: str, rate: float | None, want_positive: bool) -> list[str]:
    """Problem text if the oracle rate at one side of a root has the wrong sign."""
    if rate is not None and abs(rate) <= DECISION_MARGIN:
        return []
    positive = rate is not None and rate > 0.0
    if positive != want_positive:
        want = "> 0" if want_positive else "< 0 or unphysical"
        return [f"{label}: oracle key rate {rate!r}, expected {want}"]
    return []


def check_root(kind: str, V_S: float, V_M: float, direction: str, fixed: float,
               tol: float, cap: float, outcome) -> list[str]:
    """Check a root search by the sign of the oracle key rate either side.

    kind is "max_attenuation" (root in dB, fixed eps) or
    "max_tolerable_noise" (root in eps, fixed dB).  outcome is the returned
    root, or the name of the domain error raised.
    """
    def rate(x: float) -> float | None:
        if kind == "max_attenuation":
            eta, eps = db_to_eta(x), fixed
        else:
            eta, eps = db_to_eta(fixed), x
        pt = Point(V_S, V_M, eta, eps, symmetric_vpb(V_S, eta, eps), direction)
        return key_rate(pt)

    if outcome == "NoPositiveRate":
        return _sign_problem("NoPositiveRate at 0", rate(0.0), False)
    if outcome == "NoRoot":
        return _sign_problem(f"NoRoot at cap {cap}", rate(cap), True)
    if not isinstance(outcome, float):
        return [f"unexpected outcome {outcome!r}"]
    return (_sign_problem(f"root {outcome!r} - tol", rate(max(outcome - tol, 0.0)), True)
            + _sign_problem(f"root {outcome!r} + tol", rate(outcome + tol), False))


def parse_curve_csv(text: str) -> tuple[dict, list[tuple[float, float]]]:
    """Provenance header dict and (x, y) rows of a curve CSV."""
    header, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            header[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    if rows[0] != ["attenuation_db", "key_rate_bits"]:
        raise ValueError(f"unexpected CSV column header {rows[0]!r}")
    return header, [(float(x), float(y)) for x, y in rows[1:]]


def check_curve(V_S: float, V_M: float, eps: float, direction: str,
                db_values: list[float], text: str, sample: list[int]) -> list[str]:
    """Loss-curve CSV: header, abscissa, and the sampled points' key rates."""
    header, rows = parse_curve_csv(text)
    problems = []
    if header.get("direction") != direction or float(header.get("V_S", "nan")) != float(format(V_S, ".12g")):
        problems.append(f"provenance header {header!r} does not echo the inputs")
    if len(rows) != len(db_values):
        return problems + [f"{len(rows)} rows for {len(db_values)} grid points"]
    for i in sample:
        x, y = rows[i]
        if abs(x - db_values[i]) > 1e-11 * (1.0 + abs(db_values[i])):
            problems.append(f"row {i}: abscissa {x!r} != {db_values[i]!r}")
            continue
        eta = db_to_eta(db_values[i])
        want = key_rate(Point(V_S, V_M, eta, eps, symmetric_vpb(V_S, eta, eps), direction))
        if want is None or abs(y - want) > CURVE_TOL + 1e-11 * abs(want):
            problems.append(f"row {i}: key rate {y!r} != oracle {want!r} at {x} dB")
    return problems


def region_cell_code(base: Point, c_p: float, row_terms) -> int | None:
    """Region code 0-4 for one cell, or None within DECISION_MARGIN of a decision.

    base carries the cell's V_p_B.  row_terms() gives (I_AB, DR and RR
    conditional entropies), which depend on the row only; it is called
    for physical cells alone, since below the parabola the conditional
    state itself can be unphysical.
    """
    gamma = shared_state(base, c_p)
    margin = min_uncertainty_eig(gamma) + REGION_PHYSICALITY_TOL
    if abs(margin) <= DECISION_MARGIN:
        return None
    if margin < 0.0:
        return 0
    try:
        s_ab = entropy(gamma)
    except DomainError:
        return None
    mi, s_cond_dr, s_cond_rr = row_terms()
    k_dr, k_rr = mi - (s_ab - s_cond_dr), mi - (s_ab - s_cond_rr)
    if min(abs(k_dr), abs(k_rr)) <= DECISION_MARGIN:
        return None
    dr, rr = k_dr > 0.0, k_rr > 0.0
    return 4 if dr and rr else 2 if dr else 3 if rr else 1


def region_sample(rng, x_points: int, cp_points: int, rows: int = 6, cells: int = 256) -> list[tuple[int, int]]:
    """Cells the region check looks at: a few whole rows plus scattered cells."""
    picked = {(i, j) for i in rng.sample(range(x_points), rows) for j in range(cp_points)}
    while len(picked) < rows * cp_points + cells:
        picked.add((rng.randrange(x_points), rng.randrange(cp_points)))
    return sorted(picked)


def check_region(V_S: float, V_M: float, eta: float, eps: float, mode: str,
                 axes: tuple[tuple[float, float, int], tuple[float, float, int]],
                 text: str, cells: list[tuple[int, int]]) -> list[str]:
    """Region JSON: axes, legend, and the sampled cells' codes."""
    obj = json.loads(text)
    problems = []
    (x_lo, x_hi, nx), (c_lo, c_hi, nc) = axes
    x_axis, cp_axis, grid = obj["x_axis"], obj["cp_axis"], obj["cells"]
    if obj["mode"] != mode:
        problems.append(f"mode {obj['mode']!r} != {mode!r}")
    for name, got, want in (("x_axis", x_axis, np.linspace(x_lo, x_hi, nx)),
                            ("cp_axis", cp_axis, np.linspace(c_lo, c_hi, nc))):
        if len(got) != len(want) or np.max(np.abs(np.asarray(got) - want)) > 1e-12:
            problems.append(f"{name} does not match the requested range")
    if len(grid) != nx or any(len(row) != nc for row in grid):
        return problems + [f"cells are not {nx}x{nc}"]
    if obj["legend"] != {"0": "unphysical", "1": "physical_insecure", "2": "secure_dr",
                         "3": "secure_rr", "4": "secure_both"}:
        problems.append(f"unexpected legend {obj['legend']!r}")
    rows = {}
    for i, j in cells:
        if i not in rows:
            x = x_axis[i]
            v_p_b = x if mode == "vpb" else symmetric_vpb(V_S, eta, x)
            base = Point(V_S, V_M, eta, eps, v_p_b, "dr")
            rows[i] = (base, functools.cache(lambda base=base: (
                mutual_information(base), conditional_entropy(base),
                conditional_entropy(Point(**{**base.__dict__, "direction": "rr"})))))
        base, row_terms = rows[i]
        want = 0 if base.V_p_B <= 0.0 else region_cell_code(base, cp_axis[j], row_terms)
        if want is not None and grid[i][j] != want:
            problems.append(f"cell ({i},{j}) at x={x_axis[i]!r}, C_p={cp_axis[j]!r}: "
                            f"code {grid[i][j]} != oracle {want}")
    return problems
