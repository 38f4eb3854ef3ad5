#!/usr/bin/env python3
"""Benchmark for the udcvqkd toolkit.

    python3 perfbench/run.py --workload keyrate-points --seed 1 --seconds 55 --trace 0

Runs one workload (keyrate-points, figures) as a closed loop with a
single caller against the sources in ``src/``, checks every distinct
output with the independent oracle, and prints one JSON object
as its last line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a traced run with ``--trace 1``.  The lines before
it carry the run's provenance and the workload's metrics under the names
used in README.md.  Full results and traced spans go to ``perfbench/out/``.
"""

import os

# One BLAS/OpenMP thread per caller thread: with the region thread pool at
# nproc, the process never runs more threads than cores.  Must precede the
# first numpy import, here and in every child process.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES, MAX_PASSES = 3, 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
}

PER_LAYER_UNITS = {
    "gaussian.eigvals.calls": "count/op",
    "gaussian.eigvals.matrices": "count/op",
    "gaussian.eigvals.s": "s/op",
    "gaussian.eigvalsh.calls": "count/op",
    "gaussian.eigvalsh.matrices": "count/op",
    "gaussian.eigvalsh.s": "s/op",
    "gaussian.entropy_g.calls": "count/op",
    "protocol.key_rate.calls": "count/op",
    "protocol.key_rate.self_s": "s/op",
    "protocol.key_rate.eigvals_per_call": "count/call",
    "protocol.key_rate.kernel_share": "ratio",
    "protocol.physicality_interval.s": "s/op",
    "protocol.unphysical_obs": "count/op",
    "sweeps.scan_region.self_s": "s/op",
    "sweeps.scan_region.threads1_s": "s/op",
    "sweeps.region_to_json.s": "s/op",
    "sweeps.region_to_json.bytes": "bytes/op",
    "sweeps.root.key_rate_calls": "count/root",
    "sweeps.root.self_s": "s/root",
    "sweeps.root.no_root": "count/root",
    "sweeps.keyrate_vs_attenuation.self_s": "s/op",
    "sweeps.curve_to_csv.s": "s/op",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_pct": "%",
}

# Workload-specific metric names, per workload, as (name, kind of op,
# statistic over that kind's inputs).  They are reported, not gated.
NAMED = {
    "keyrate-points": [("keyrate_per_s", "keyrate", "ops_per_s"),
                       ("keyrate_p50_ms", "keyrate", "p50_ms"),
                       ("keyrate_p90_ms", "keyrate", "p90_ms")],
    "figures": [("root_per_s", "root", "ops_per_s"), ("root_p50_ms", "root", "p50_ms"),
                ("curve_points_per_s", "curve", "items_per_s"),
                ("region_cells_per_s", "region", "items_per_s"),
                ("region_map_p50_ms", "region", "p50_ms")],
}


class Failed:
    """An op that raised an exception its workload does not expect."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception(exc)).strip()


class Checker:
    """Checks the first output per pool item with the oracle, and every
    repeat against that first output."""

    MAX_REPORTED = 10

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[int, tuple[object, bool]] = {}
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, index: int, problems: list[str]) -> None:
        self.failed += 1
        for text in problems:
            if len(self.problems) < self.MAX_REPORTED:
                self.problems.append(f"[{self.workload.name} item {index}] {text}")
                print(self.problems[-1], file=sys.stderr)

    def verify(self, index: int, item, output) -> None:
        if isinstance(output, Failed):
            self.fail(index, [output.text])
            return
        digest = self.workload.digest(output)
        if index not in self.first:
            try:
                problems = self.workload.check(item, output)
            except Exception as exc:  # an oracle crash is a failed check, not a lost run
                problems = ["oracle raised: " + Failed(exc).text]
            self.first[index] = (digest, bool(problems))
            if problems:
                self.fail(index, problems)
        elif digest != self.first[index][0]:
            self.fail(index, ["output differs from the first run on the same input"])
        elif self.first[index][1]:
            self.failed += 1

    @property
    def digests(self) -> dict:
        return {index: digest for index, (digest, _) in self.first.items()}


def call(workload, item):
    """Run one op; expected domain errors and failures become its output."""
    from workloads import Raised

    try:
        return workload.run(item)
    except workload.expected as exc:
        return Raised(type(exc).__name__)
    except Exception as exc:  # counted in failed_frac, the run goes on
        return Failed(exc)


def set_up(name: str, seed: int, nproc: int):
    """Import, input generation and warm-up; returns (workload, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (part of the import cost being measured)
    import udcvqkd

    if Path(udcvqkd.__file__).resolve().parent != SRC / "udcvqkd":
        raise SystemExit(f"imported udcvqkd from {udcvqkd.__file__}, not from {SRC}")
    import workloads

    workload = workloads.make(name, seed, nproc)
    workload.warm_up()
    return workload, time.perf_counter() - t0


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(workload, setup_s: float, trace: int) -> dict:
    """One pass over the pool, in a worker process of its own; traced
    when `trace` is 1, with one span per pool input around its op."""
    from tracing import Tracer, install_layers

    tracer = Tracer()
    if trace:
        install_layers(tracer)
    ops = []
    try:
        for item in workload.pool:
            span = tracer.begin_op(f"op.{workload.name}") if trace else None
            t0 = time.perf_counter()
            output = call(workload, item)
            ops.append((time.perf_counter() - t0, output))
            if span is not None:
                tracer.close(span)
    finally:
        tracer.unwrap()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": setup_s, "ops": ops, "rss_kb": rss_kb, "spans": tracer.spans}


def spawn_pass(name: str, seed: int, trace: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--trace", str(trace), "--pass-worker"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=170, check=True)
    return pickle.loads(done.stdout)


def more_passes(done: int, least: int, start: float, seconds: float) -> bool:
    """Whether another pass (or pair of passes) is due: at least `least`,
    at most MAX_PASSES, and while the next one, its checks included, is
    expected to end within `seconds` of `start`."""
    spent = time.perf_counter() - start
    return done < least or (done < MAX_PASSES and spent * (1 + 1 / done) <= seconds)


def kind_stats(workload, best: list[float]) -> dict[str, dict[str, float]]:
    """Per kind of op: p50 and p90 of the inputs' best times, ops and
    items per second of their sum."""
    kinds: dict[str, tuple[list[float], list[int]]] = {}
    for item, elapsed in zip(workload.pool, best):
        measure = workload.measure(item)
        times, items = kinds.setdefault(measure.kind, ([], []))
        times.append(elapsed)
        items.append(measure.items)
    return {kind: {"p50_ms": statistics.median(times) * 1e3,
                   "p90_ms": quantile(times, 90) * 1e3,
                   "ops_per_s": len(times) / sum(times),
                   "items_per_s": sum(items) / sum(times)}
            for kind, (times, items) in kinds.items()}


def timed_run(workload, seconds: float) -> tuple[dict, dict, Checker, int, dict]:
    """Passes over the whole pool, each in a fresh worker process.

    A fresh process per pass means nothing one pass computes can be reused
    by the next, so every pass pays the full cost of every input.  Each
    input's time is the best of its passes, which filters out other load
    on the machine; percentiles and rates are taken over the pool's
    inputs.  Passes, process start and checks included, go on while the
    next one is expected to end within `seconds`, within [MIN_PASSES,
    MAX_PASSES].
    """
    checker = Checker(workload)
    best = [math.inf] * len(workload.pool)
    setup_times, pass_op_s, rss_kb, start = [], [], 0, time.perf_counter()
    while more_passes(len(setup_times), MIN_PASSES, start, seconds):
        result = spawn_pass(workload.name, workload.seed)
        setup_times.append(result["setup_s"])
        pass_op_s.append(sum(elapsed for elapsed, _ in result["ops"]))
        rss_kb = max(rss_kb, result["rss_kb"])
        for index, (elapsed, output) in enumerate(result["ops"]):
            checker.verify(index, workload.pool[index], output)
            best[index] = min(best[index], elapsed)
    passes = len(setup_times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_kb / 1024.0,
        "op_p50_ms": statistics.median(best) * 1e3,
        "ops_per_s": len(best) / sum(best),
    }
    samples = {"passes": passes, "inputs": len(workload.pool), "setup_s": setup_times,
               "pass_op_s": pass_op_s, "best_s": best}
    return metrics, kind_stats(workload, best), checker, passes * len(workload.pool), samples


def traced_run(workload, seconds: float) -> tuple[dict, Checker, int, list]:
    """Pairs of passes over the whole pool, one untraced and one traced,
    each in a fresh worker process like the timed run's.

    At least one pair; more while the next pair is expected to end within
    `seconds`.  The traced passes give the per-layer metrics; the overhead
    compares each input's best traced and best untraced time.
    """
    from tracing import layer_metrics

    checker = Checker(workload)
    untraced, traced = [math.inf] * len(workload.pool), [math.inf] * len(workload.pool)
    spans, pairs, start = [], 0, time.perf_counter()
    while more_passes(pairs, 1, start, seconds):
        for trace, best in ((0, untraced), (1, traced)):
            result = spawn_pass(workload.name, workload.seed, trace)
            for index, (elapsed, output) in enumerate(result["ops"]):
                checker.verify(index, workload.pool[index], output)
                best[index] = min(best[index], elapsed)
        # Span and op ids restart in every worker; shift them past the
        # ones already collected.
        id_base = 1 + max((s.id for s in spans), default=-1)
        op_base = pairs * len(workload.pool)
        for s in result["spans"]:
            s.id += id_base
            s.parent = None if s.parent is None else s.parent + id_base
            s.op += op_base
        spans += result["spans"]
        pairs += 1
    ops = pairs * len(workload.pool)
    metrics = layer_metrics(spans, ops)
    extras, problems = workload.trace_extras(checker.digests)
    metrics.update(extras)
    if problems:
        checker.fail(-1, problems)
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(untraced) - 1.0)
    return metrics, checker, 2 * ops, spans


def provenance(workload, seed: int, seconds: float, trace: int, nproc: int) -> dict:
    import numpy
    import udcvqkd

    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "udcvqkd").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "threads": workload.threads,
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "udcvqkd": udcvqkd.__version__,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["keyrate-points", "figures"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pass-worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "udcvqkd" / "__init__.py").is_file():
        print(f"error: no udcvqkd sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    workload, setup_s = set_up(args.workload, args.seed, nproc)
    if args.pass_worker:
        sys.stdout.buffer.write(pickle.dumps(run_pass(workload, setup_s, args.trace)))
        return 0

    spans = None
    if args.trace:
        metrics, checker, attempted, spans = traced_run(workload, args.seconds)
        units, samples = PER_LAYER_UNITS, {}
    else:
        metrics, kinds, checker, attempted, samples = timed_run(workload, args.seconds)
        units = END_TO_END_UNITS
    named = {"failed_frac": checker.failed / attempted}
    if not args.trace:
        named.update({name: kinds[kind][stat] for name, kind, stat in NAMED[args.workload]})
        named.update(setup_s=metrics["setup_s"], peak_rss_mb=metrics["peak_rss_mb"],
                     inputs=samples["inputs"], passes=samples["passes"])
    elif set(metrics) != set(PER_LAYER_UNITS):
        raise RuntimeError(f"traced run gave {sorted(set(metrics) ^ set(PER_LAYER_UNITS))}")

    prov = provenance(workload, args.seed, args.seconds, args.trace, nproc)
    result = {
        "correct": checker.failed == 0,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"provenance": prov, "named_metrics": named, "samples": samples,
                   "problems": checker.problems, **result}, fh, indent=2)
    if spans is not None:
        with open(OUT / f"{stem}_spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s.__dict__) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"named_metrics": named}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
