"""Tests of the benchmark itself: every oracle check can fail.

Run with ``python -m pytest perfbench`` from the repository root.  Each
negative control perturbs one real output the way a defect would and
asserts the runner's checker counts exactly that op as failed.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, install_layers, layer_metrics  # noqa: E402

from udcvqkd import protocol  # noqa: E402


def _verify(workload, index, output) -> run.Checker:
    checker = run.Checker(workload)
    checker.verify(index, workload.pool[index], output)
    return checker


def _first(workload, accept):
    """(index, output) of the first pool item whose output passes accept."""
    for index, item in enumerate(workload.pool):
        output = run.call(workload, item)
        if accept(item, output):
            return index, output
    raise AssertionError("no suitable pool item")


def test_keyrate_chi_lowered_by_1e7_is_counted_failed():
    workload = workloads.KeyratePoints(seed=7, nproc=1)

    def interior(item, output):
        return (isinstance(output, protocol.SecurityAssessment)
                and output.Cp_interval[1] - output.Cp_interval[0] > 1e-3)

    index, output = _first(workload, interior)
    assert _verify(workload, index, output).failed == 0
    lowered = dataclasses.replace(output, holevo=output.holevo - 1e-7,
                                  key_rate=output.key_rate + 1e-7)
    assert _verify(workload, index, lowered).failed == 1


def test_wrong_unphysical_verdict_is_counted_failed():
    workload = workloads.KeyratePoints(seed=7, nproc=1)
    index, _ = _first(workload, lambda item, out: isinstance(out, protocol.SecurityAssessment))
    assert _verify(workload, index, workloads.Raised("UnphysicalObservation")).failed == 1


def test_region_flipped_cell_is_counted_failed():
    workload = workloads.Figures(seed=7, nproc=1)
    index = next(k for k, item in enumerate(workload.pool)
                 if isinstance(item, workloads.RegionItem))
    text = workload.run(workload.pool[index])
    assert _verify(workload, index, text).failed == 0
    obj = json.loads(text)
    cells = obj["cells"]
    # A physical cell inside a run of equal codes, so no decision is near it.
    i, j = next((i, j) for i, j in workload.pool[index].checked_cells
                if 0 < j < len(cells[i]) - 1 and cells[i][j] != 0
                and cells[i][j - 1] == cells[i][j] == cells[i][j + 1])
    cells[i][j] = 0
    flipped = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    checker = _verify(workload, index, flipped)
    assert checker.failed == 1
    assert f"cell ({i},{j})" in checker.problems[0]


@pytest.mark.parametrize("kind", ["max_attenuation", "max_tolerable_noise"])
@pytest.mark.parametrize("direction", [-1, 1])
def test_root_moved_by_10_tol_is_counted_failed(kind, direction):
    workload = workloads.Figures(seed=7, nproc=1)
    index, root = _first(workload, lambda item, out: item.kind == kind and isinstance(out, float))
    tol = workloads.ATTENUATION_TOL if kind == "max_attenuation" else workloads.NOISE_TOL
    assert _verify(workload, index, root).failed == 0
    assert _verify(workload, index, root + direction * 10 * tol).failed == 1


def test_curve_point_off_by_1e7_is_counted_failed():
    workload = workloads.Figures(seed=7, nproc=1)
    index, text = _first(workload, lambda item, out: item.kind == "curve")
    assert _verify(workload, index, text).failed == 0
    row = workload.pool[index].checked_rows[0]
    lines = text.splitlines()
    body = [k for k, line in enumerate(lines) if not line.startswith("#")][1:]
    x, y = lines[body[row]].split(",")
    lines[body[row]] = f"{x},{float(y) + 1e-7:.12g}"
    assert _verify(workload, index, "\n".join(lines) + "\n").failed == 1


def test_repeat_that_differs_from_first_output_is_counted_failed():
    workload = workloads.Figures(seed=7, nproc=1)
    index, root = _first(workload, lambda item, out: isinstance(out, float))
    checker = run.Checker(workload)
    checker.verify(index, workload.pool[index], root)
    checker.verify(index, workload.pool[index], root)
    assert checker.failed == 0
    checker.verify(index, workload.pool[index], root + 1e-12)
    assert checker.failed == 1


def test_worst_case_on_a_steep_endpoint_passes():
    # The worst C_p is the interval's upper end, where chi is steepest; the
    # oracle's bisected endpoint lies 6e-11 beyond the parabola's.
    draw = {"V_S": 0.7689567200079415, "V_M": 5974.841767838874, "db": 0.013444559913621403,
            "eps": 0.0, "direction": "rr", "strict": False}
    params = protocol.ProtocolParams(V_S=draw["V_S"], V_M=draw["V_M"])
    eta = oracle.db_to_eta(draw["db"])
    v_p_b = protocol.symmetric_vpB(params, eta, 0.0)
    out = protocol.key_rate(params, protocol.ChannelParams.symmetric(eta, 0.0), v_p_b,
                            protocol.ReconciliationDirection.REVERSE)
    assert out.worst_Cp == out.Cp_interval[1]
    reported = oracle.KeyRateOutput(out.mutual_info, out.holevo, out.key_rate, out.worst_Cp,
                                    out.Cp_interval)
    pt = oracle.Point(draw["V_S"], draw["V_M"], eta, 0.0, v_p_b, "rr")
    assert oracle.check_key_rate(pt, reported) == []


def test_oracle_physicality_matches_vertex_decision():
    # Coherent source, pure loss: the observation sits on the parabola vertex.
    eta = 0.5
    pt = oracle.Point(1.0, 100.0, eta, 0.0, oracle.symmetric_vpb(1.0, eta, 0.0), "rr")
    assert oracle.physicality(pt).ambiguous
    strict = dataclasses.replace(pt, V_p_B=oracle.symmetric_vpb(1.0, eta, 0.0, strict=True))
    assert oracle.physicality(strict).interval is None


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span(0, "sweeps.scan_region", 0.0, 10.0, None, 0),
        Span(1, "gaussian.eigvals", 1.0, 4.0, 0, 0),
        Span(2, "gaussian.eigvals", 3.0, 6.0, 0, 0),  # overlaps span 1 (thread pool)
    ]
    metrics = layer_metrics(spans, ops=1)
    assert metrics["sweeps.scan_region.self_s"] == pytest.approx(5.0)
    assert metrics["gaussian.eigvals.calls"] == 2


def test_tracer_restores_every_wrapped_lookup():
    from udcvqkd import sweeps

    before = (protocol.key_rate, sweeps.key_rate)
    tracer = Tracer()
    install_layers(tracer)
    assert sweeps.key_rate is not before[1]
    tracer.unwrap()
    assert (protocol.key_rate, sweeps.key_rate) == before


def test_run_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "keyrate-points", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
