"""The benchmark's workloads.

Each workload draws its inputs from a seed into a pool of distinct items
and runs one op per item through the toolkit's public API.  The runner
makes several passes over the pool; the first output for each item is
checked with the independent oracle, and every later pass must
reproduce it exactly.

Why each workload exists (README.md has the full table):

- keyrate-points: independent ``key_rate`` calls; all time is the
  worst-case C_p search and its entropy kernel, no sweep or writer runs.
- figures: a sample of the ``reproduce_figures`` set.  Root searches
  and loss curves are sequential, dependent ``key_rate`` calls whose
  number the bracketing and bisection decide; region maps are
  ``scan_region`` + ``region_to_json``, batched eigvalsh/eigvals over
  cell stacks that never call ``key_rate``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import oracle

import udcvqkd
from udcvqkd import cli, protocol, sweeps
from udcvqkd.errors import NoPositiveRate, NoRoot, UnphysicalObservation
from udcvqkd.protocol import ChannelParams, ProtocolParams, ReconciliationDirection
from udcvqkd.sweeps import RegionMode, SweepConfig


@dataclass(frozen=True)
class Raised:
    """An expected domain error, recorded as the op's output."""

    error: str


@dataclass
class Measure:
    """What one op is: its kind (the workload-specific metrics are taken
    per kind) and how many items (key rates, roots, cells, curve points)
    it produces."""

    kind: str
    items: int


def _draw_points(rng: random.Random, count: int) -> list[dict]:
    """keyrate-points draws, stratified.

    Each continuous variate is a Latin-hypercube sample and each category
    has a fixed count, so pools from different seeds have the same mix of
    easy and hard inputs and differ only in where inside each stratum a
    point falls.
    """
    def strata() -> list[float]:
        u = [(k + rng.random()) / count for k in range(count)]
        rng.shuffle(u)
        return u

    def flags(share: float) -> list[bool]:
        picked = [k < round(share * count) for k in range(count)]
        rng.shuffle(picked)
        return picked

    lo, hi = math.log10(0.3), math.log10(3.0)
    v_s, v_m, db, eps = strata(), strata(), strata(), strata()
    coherent, noiseless, strict, rr = flags(0.15), flags(0.3), flags(0.1), flags(0.5)
    return [{
        "V_S": 1.0 if coherent[k] else 10 ** (lo + (hi - lo) * v_s[k]),
        "V_M": 10 ** (4.0 * v_m[k]),
        "db": 3.0 * db[k],
        "eps": 0.0 if noiseless[k] else 0.1 * eps[k],
        "direction": "rr" if rr[k] else "dr",
        "strict": strict[k],
    } for k in range(count)]


def _oracle_point(draw: dict, v_p_b: float) -> oracle.Point:
    return oracle.Point(draw["V_S"], draw["V_M"], oracle.db_to_eta(draw["db"]),
                        draw["eps"], v_p_b, draw["direction"])


@dataclass(frozen=True)
class KeyRateItem:
    draw: dict
    params: ProtocolParams
    chan: ChannelParams
    v_p_b: float
    direction: ReconciliationDirection


def _keyrate_item(draw: dict) -> KeyRateItem:
    params = ProtocolParams(V_S=draw["V_S"], V_M=draw["V_M"])
    eta = sweeps.db_to_eta(draw["db"])
    v_p_b = protocol.symmetric_vpB(params, eta, draw["eps"], draw["strict"])
    return KeyRateItem(draw, params, ChannelParams.symmetric(eta, draw["eps"]), v_p_b,
                       ReconciliationDirection(draw["direction"]))


def _assessment_digest(output):
    """The numbers of a ``key_rate`` result, or the Raised in its place."""
    if isinstance(output, Raised):
        return output
    return (output.mutual_info, output.holevo, output.key_rate, output.worst_Cp,
            tuple(output.Cp_interval))


def _key_rate(item: KeyRateItem):
    """``key_rate`` for one item, an UnphysicalObservation as Raised."""
    try:
        return protocol.key_rate(item.params, item.chan, item.v_p_b, item.direction)
    except UnphysicalObservation as exc:
        return Raised(type(exc).__name__)


CLI_INPUTS = 12


def cli_argv(draw: dict) -> list[str]:
    """The ``udcvqkd keyrate`` command line for one draw."""
    argv = ["keyrate", "--vs", repr(draw["V_S"]), "--vm", repr(draw["V_M"]),
            "--eta-db", repr(draw["db"]), "--eps", repr(draw["eps"]), "--dir", draw["direction"]]
    return argv + (["--strict-paper-vpb"] if draw["strict"] else [])


def cli_layer(draws: list[dict]) -> tuple[dict, list[str]]:
    """The cli layer: interpreter start, package import, warm main.

    ``cli.main`` runs in-process on each draw's argv, 3 times, and must
    print ``key_rate``'s numbers bit for bit, or exit 1 with
    UnphysicalObservation where ``key_rate`` raises it.
    """
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(udcvqkd.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def child_ms(code: str) -> float:
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    main_s, problems = [], []
    for draw in draws:
        argv = cli_argv(draw)
        for _ in range(3):
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
            main_s.append(time.perf_counter() - t0)
        want = _key_rate(_keyrate_item(draw))
        if isinstance(want, Raised):
            agrees = code == 1 and buf.getvalue().startswith("UnphysicalObservation:")
        else:
            obj = json.loads(buf.getvalue()) if code == 0 else {}
            agrees = code == 0 and _assessment_digest(want) == (
                obj["mutual_info_bits"], obj["holevo_bits"], obj["key_rate_bits"],
                obj["worst_Cp"], tuple(obj["Cp_interval"]))
        if not agrees:
            problems.append(f"cli {' '.join(argv)} -> {code}: {buf.getvalue()[:200]!r} "
                            "disagrees with key_rate")
    bare = child_ms("pass")
    return {"cli.interpreter_ms": bare,
            "cli.import_ms": child_ms("import udcvqkd.cli") - bare,
            "cli.main_ms": statistics.median(main_s) * 1e3}, problems


REGION_VM, REGION_ETA, REGION_EPS = 10.0, 0.9, 0.03
REGION_POINTS = 400


@dataclass(frozen=True)
class RegionItem:
    V_S: float
    mode: RegionMode
    x_range: tuple[float, float]
    cp_range: tuple[float, float]
    checked_cells: tuple[tuple[int, int], ...]  # cells the oracle recomputes


def scan_map(item: RegionItem, points: int, threads: int) -> str:
    """One region map and its JSON."""
    grid = SweepConfig(x_min=item.x_range[0], x_max=item.x_range[1],
                       cp_min=item.cp_range[0], cp_max=item.cp_range[1],
                       x_points=points, cp_points=points, threads=threads)
    region = sweeps.scan_region(ProtocolParams(V_S=item.V_S, V_M=REGION_VM),
                                (REGION_ETA, REGION_EPS), grid, item.mode)
    return sweeps.region_to_json(region)


class Workload:
    name = ""
    expected: tuple[type[BaseException], ...] = ()
    threads = 1

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.nproc = nproc
        self.pool: list = []
        self.cli_draws = _draw_points(random.Random(f"cli:{seed}"), CLI_INPUTS)

    def warm_up(self) -> None:
        for item in self.pool[:3]:
            try:
                self.run(item)
            except self.expected:
                pass

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> list[str]:
        raise NotImplementedError

    def digest(self, output):
        return output

    def measure(self, item) -> Measure:
        raise NotImplementedError

    def trace_extras(self, digests: dict) -> tuple[dict, list[str]]:
        """Per-layer metrics the traced passes cannot give, and any
        problems found: the cli layer, and the pool's region maps at
        threads=1, the plain single-thread baseline, which must be
        byte-identical to the threaded maps.

        digests maps pool index to the first output's digest."""
        metrics, problems = cli_layer(self.cli_draws)
        spent = 0.0
        for index, item in enumerate(self.pool):
            if isinstance(item, RegionItem):
                t0 = time.perf_counter()
                text = scan_map(item, REGION_POINTS, 1)
                spent += time.perf_counter() - t0
                if self.digest(text) != digests[index]:
                    problems.append(f"{item}: threads=1 map differs from threads={self.threads}")
        metrics["sweeps.scan_region.threads1_s"] = spent / len(self.pool)
        return metrics, problems


class KeyratePoints(Workload):
    name = "keyrate-points"
    expected = (UnphysicalObservation,)
    POOL = 100

    def __init__(self, seed, nproc):
        super().__init__(seed, nproc)
        self.pool = [_keyrate_item(draw) for draw in _draw_points(self.rng, self.POOL)]

    def run(self, item):
        return protocol.key_rate(item.params, item.chan, item.v_p_b, item.direction)

    def check(self, item, output):
        pt = _oracle_point(item.draw, item.v_p_b)
        if abs(item.v_p_b - oracle.symmetric_vpb(pt.V_S, pt.eta, pt.eps, item.draw["strict"])) > 1e-12:
            return [f"symmetric_vpB gave {item.v_p_b!r}"]
        if isinstance(output, Raised):
            return oracle.check_key_rate(pt, None)
        return oracle.check_key_rate(pt, oracle.KeyRateOutput(
            output.mutual_info, output.holevo, output.key_rate, output.worst_Cp,
            tuple(output.Cp_interval)))

    def digest(self, output):
        return _assessment_digest(output)

    def measure(self, item):
        return Measure("keyrate", 1)


FRONTIER_VM = 100.0
ATTENUATION_TOL, NOISE_TOL = 1e-4, 1e-6
DB_CAP, NOISE_CAP = 60.0, 10.0
# (V_S, direction, root search) of the figures pool: every source, both
# directions and both searches.  The first is the squeezed DR noise
# frontier past its zero-rate crossing.
FIGURE_ROOTS = (
    (0.5, "dr", "max_tolerable_noise"), (0.5, "rr", "max_attenuation"),
    (1.0, "dr", "max_attenuation"), (1.0, "rr", "max_tolerable_noise"),
    (2.0, "dr", "max_tolerable_noise"),
)
FIGURE_CURVES = ((0.5, "rr"), (2.0, "dr"))


@dataclass(frozen=True)
class FrontierItem:
    kind: str  # "max_attenuation", "max_tolerable_noise" or "curve"
    V_S: float
    direction: str
    value: float  # eps for max_attenuation and curves, dB for max_tolerable_noise
    db_values: tuple[float, ...] = ()
    checked_rows: tuple[int, ...] = ()  # curve rows the oracle recomputes


class Figures(Workload):
    name = "figures"
    expected = (NoPositiveRate, NoRoot)

    def __init__(self, seed, nproc):
        super().__init__(seed, nproc)
        # The CLI default thread count is the machine's; keep it at nproc so
        # the region pool's threads never outnumber the cores.
        self.threads = nproc
        # The pool is a sample of the figure set whose kinds and counts do not
        # depend on the seed, small enough for a pass to take about 3.5 s, so a
        # run makes a dozen passes: each input's best of a dozen is steady on
        # a shared host, its best of four was not.
        eps = 0.03 * (1.0 + self.rng.uniform(-0.05, 0.05))
        curve_db = tuple(sweeps.db_grid(0.0, 3.0, 0.5))
        for v_s, d, kind in FIGURE_ROOTS:
            if kind == "max_attenuation":
                self.pool.append(FrontierItem(kind, v_s, d, eps))
            else:
                # The squeezed source's noise frontier point lies past its DR
                # zero-rate crossing, where NoPositiveRate is raised; the
                # others lie below 0.5 dB.
                db = self.rng.uniform(0.9, 1.3) if v_s < 1.0 else self.rng.uniform(0.1, 0.5)
                self.pool.append(FrontierItem(kind, v_s, d, db))
        for v_s, d in FIGURE_CURVES:
            self.pool.append(FrontierItem("curve", v_s, d, eps, curve_db,
                                          tuple(sorted(self.rng.sample(range(len(curve_db)), 4)))))
        # A coherent source on a noiseless channel sits on the parabola
        # vertex; under RR its rate stays positive to the 60 dB cap (NoRoot).
        self.pool.append(FrontierItem("max_attenuation", 1.0, "rr", 0.0))
        # One map per RegionMode, at a V_S the seed picks from the figure
        # set's 0.9, 1.0 and 1.1.
        jitter = lambda x, scale: x + self.rng.uniform(-scale, scale)
        for mode, x_range in (
                (RegionMode.FREE_VPB, (jitter(0.85, 0.005), jitter(2.0, 0.01))),
                (RegionMode.SYMMETRIC_NOISE, (self.rng.uniform(0.0, 0.005), jitter(0.6, 0.005)))):
            v_s = jitter(self.rng.choice((0.9, 1.0, 1.1)), 0.005)
            cp = (jitter(-2.8, 0.01), jitter(-0.5, 0.01))
            cells = oracle.region_sample(self.rng, REGION_POINTS, REGION_POINTS)
            self.pool.append(RegionItem(v_s, mode, x_range, cp, tuple(cells)))

    def warm_up(self):
        params = ProtocolParams(V_S=1.0, V_M=FRONTIER_VM)
        curve = sweeps.keyrate_vs_attenuation(params, 0.03, [0.0, 1.0], ReconciliationDirection.DIRECT)
        sweeps.curve_to_csv(curve)
        region = next(item for item in self.pool if isinstance(item, RegionItem))
        scan_map(region, 40, self.threads)

    def run(self, item):
        if isinstance(item, RegionItem):
            return scan_map(item, REGION_POINTS, self.threads)
        params = ProtocolParams(V_S=item.V_S, V_M=FRONTIER_VM)
        direction = ReconciliationDirection(item.direction)
        if item.kind == "max_attenuation":
            return sweeps.max_attenuation(params, item.value, direction, tol=ATTENUATION_TOL)
        if item.kind == "max_tolerable_noise":
            return sweeps.max_tolerable_noise(params, item.value, direction, tol=NOISE_TOL)
        curve = sweeps.keyrate_vs_attenuation(params, item.value, item.db_values, direction)
        return sweeps.curve_to_csv(curve)

    def check(self, item, output):
        if isinstance(item, RegionItem):
            if not isinstance(output, str):
                return [f"region map returned {output!r}"]
            axes = ((*item.x_range, REGION_POINTS), (*item.cp_range, REGION_POINTS))
            return oracle.check_region(item.V_S, REGION_VM, REGION_ETA, REGION_EPS,
                                       item.mode.value, axes, output, list(item.checked_cells))
        outcome = output.error if isinstance(output, Raised) else output
        if item.kind == "curve":
            if not isinstance(output, str):
                return [f"curve returned {output!r}"]
            return oracle.check_curve(item.V_S, FRONTIER_VM, item.value, item.direction,
                                      list(item.db_values), output, list(item.checked_rows))
        if item.kind == "max_attenuation":
            return oracle.check_root(item.kind, item.V_S, FRONTIER_VM, item.direction,
                                     item.value, ATTENUATION_TOL, DB_CAP, outcome)
        return oracle.check_root(item.kind, item.V_S, FRONTIER_VM, item.direction,
                                 item.value, NOISE_TOL, NOISE_CAP, outcome)

    def digest(self, output):
        if isinstance(output, str):  # region JSON and curve CSV
            return hashlib.sha256(output.encode()).hexdigest()
        return output

    def measure(self, item):
        if isinstance(item, RegionItem):
            return Measure("region", REGION_POINTS * REGION_POINTS)
        if item.kind == "curve":
            return Measure("curve", len(item.db_values))
        return Measure("root", 1)


WORKLOADS = {cls.name: cls for cls in (KeyratePoints, Figures)}


def make(name: str, seed: int, nproc: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    return WORKLOADS[name](seed, nproc)
