"""Span tracer that wraps the toolkit's layer boundaries from outside.

Each wrapped function records a span (name, start, end, parent span, op
id, size) while tracing is on.  Functions are wrapped where the calling
module looks them up: ``sweeps.key_rate`` and ``protocol.key_rate`` are
separate lookups of one function, and ``numpy.linalg.eigvals`` is looked
up at call time by ``gaussian``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    size: int = 1
    error: str | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: list[Span] = []
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # Worker threads (the region thread pool) start with an empty stack;
        # their spans belong to whatever the op's thread has open.
        parent_stack = stack or self._op_stack
        parent = parent_stack[-1].id if parent_stack else None
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, parent, self._op)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def begin_op(self, name: str) -> Span:
        self._op += 1
        self._op_stack = self._stack()
        return self.open(name)

    def wrap(self, name: str, lookups, size=None) -> None:
        """Wrap the function found at every (module, attribute) in lookups.

        size(args, result) gives the span's size (matrices, bytes); the
        default is 1.  All lookups must resolve to the same function.
        """
        original = getattr(*lookups[0])

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self.close(span)
            if size is not None:
                span.size = size(args, result)
            return result

        for module, attr in lookups:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not {original!r}")
            setattr(module, attr, traced)
            self._patches.append((module, attr, original, traced))

    def unwrap(self) -> None:
        for module, attr, original, traced in reversed(self._patches):
            if getattr(module, attr) is not traced:
                raise RuntimeError(f"{module.__name__}.{attr} was replaced while traced")
            setattr(module, attr, original)
        self._patches.clear()


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    import numpy
    from udcvqkd import gaussian, protocol, sweeps

    def stack_size(args, _result):
        shape = numpy.shape(args[0])
        return int(numpy.prod(shape[:-2])) if len(shape) > 2 else 1

    tracer.wrap("gaussian.eigvals", [(numpy.linalg, "eigvals")], stack_size)
    tracer.wrap("gaussian.eigvalsh", [(numpy.linalg, "eigvalsh")], stack_size)
    tracer.wrap("gaussian.entropy_g", [(gaussian, "entropy_g"), (protocol, "entropy_g")])
    tracer.wrap("protocol.physicality_interval", [(protocol, "physicality_interval")])
    tracer.wrap("protocol.key_rate", [(protocol, "key_rate"), (sweeps, "key_rate")])
    tracer.wrap("sweeps.scan_region", [(sweeps, "scan_region")])
    tracer.wrap("sweeps.region_to_json", [(sweeps, "region_to_json")],
                lambda _args, text: len(text.encode()))
    tracer.wrap("sweeps.root", [(sweeps, "max_attenuation")])
    tracer.wrap("sweeps.root", [(sweeps, "max_tolerable_noise")])
    tracer.wrap("sweeps.keyrate_vs_attenuation", [(sweeps, "keyrate_vs_attenuation")])
    tracer.wrap("sweeps.curve_to_csv", [(sweeps, "curve_to_csv")])


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer counts and times from a traced run of ``ops`` workload ops.

    Counts and times are per op unless the name says per call or per
    root.  Self time is a span's duration minus the union of its
    children's intervals (children can overlap under the thread pool).
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_time(s: Span) -> float:
        inner = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        return (s.end - s.start) - _covered([iv for iv in inner if iv[1] > iv[0]])

    def under(s: Span, name: str) -> bool:
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    def total(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    key_rates = by_name["protocol.key_rate"]
    roots = by_name["sweeps.root"]
    eigvals_in_kr = [s for s in by_name["gaussian.eigvals"] if under(s, "protocol.key_rate")]
    kr_in_roots = [s for s in key_rates if under(s, "sweeps.root")]
    out = {}
    for layer in ("eigvals", "eigvalsh"):
        found = by_name[f"gaussian.{layer}"]
        out[f"gaussian.{layer}.calls"] = ratio(len(found), ops)
        out[f"gaussian.{layer}.matrices"] = ratio(sum(s.size for s in found), ops)
        out[f"gaussian.{layer}.s"] = ratio(total(f"gaussian.{layer}"), ops)
    out["gaussian.entropy_g.calls"] = ratio(len(by_name["gaussian.entropy_g"]), ops)
    out["protocol.key_rate.calls"] = ratio(len(key_rates), ops)
    out["protocol.key_rate.self_s"] = ratio(sum(self_time(s) for s in key_rates), ops)
    out["protocol.key_rate.eigvals_per_call"] = ratio(len(eigvals_in_kr), len(key_rates))
    out["protocol.key_rate.kernel_share"] = ratio(
        sum(s.end - s.start for s in eigvals_in_kr), total("protocol.key_rate"))
    out["protocol.physicality_interval.s"] = ratio(total("protocol.physicality_interval"), ops)
    out["protocol.unphysical_obs"] = ratio(
        sum(s.error == "UnphysicalObservation" for s in key_rates), ops)
    out["sweeps.scan_region.self_s"] = ratio(
        sum(self_time(s) for s in by_name["sweeps.scan_region"]), ops)
    out["sweeps.region_to_json.s"] = ratio(total("sweeps.region_to_json"), ops)
    out["sweeps.region_to_json.bytes"] = ratio(
        sum(s.size for s in by_name["sweeps.region_to_json"]), ops)
    out["sweeps.root.key_rate_calls"] = ratio(len(kr_in_roots), len(roots))
    out["sweeps.root.self_s"] = ratio(sum(self_time(s) for s in roots), len(roots))
    out["sweeps.root.no_root"] = ratio(sum(s.error == "NoRoot" for s in roots), len(roots))
    out["sweeps.keyrate_vs_attenuation.self_s"] = ratio(
        sum(self_time(s) for s in by_name["sweeps.keyrate_vs_attenuation"]), ops)
    out["sweeps.curve_to_csv.s"] = ratio(total("sweeps.curve_to_csv"), ops)
    return out
