#!/usr/bin/env python3
"""Regenerate the toolkit's reference figure data as CSV/JSON files.

Produces, under --outdir, one file per direction and V_S:
  region_vpb_vs{V_S}.json          physicality/security maps over (V_p_B, C_p)
  region_epsp_vs{V_S}.json         maps over (eps_p, C_p), symmetric transmittance
  keyrate_vs_loss_{dir}_vs{V_S}.csv
                                   worst-case key rate versus attenuation
  max_noise_{dir}_vs{V_S}.csv      maximal tolerable symmetric noise versus attenuation

Run `python scripts/reproduce_figures.py --fast` for a quick smoke pass.
Everything runs on the calling thread.
"""

import argparse
import pathlib
import sys

from udcvqkd import (
    ProtocolParams,
    ReconciliationDirection,
    RegionMode,
    SweepConfig,
    db_grid,
    keyrate_vs_attenuation,
    noise_frontier,
    scan_region,
    write_curve_csv,
    write_region_json,
)

REGION_VM = 10.0
REGION_ETA_X = 0.9
REGION_EPS_X = 0.03
REGION_VS = (0.9, 1.0, 1.1)

SWEEP_VM = 100.0
SWEEP_EPS = 0.03
SWEEP_VS = (0.5, 1.0, 2.0)
# width of the final root bracket of each frontier point, in shot-noise units
FRONTIER_TOL = 1e-6


def region_maps(outdir: pathlib.Path, points: int) -> None:
    for v_s in REGION_VS:
        params = ProtocolParams(V_S=v_s, V_M=REGION_VM)
        grid = SweepConfig(
            x_min=0.85, x_max=2.0, cp_min=-2.8, cp_max=-0.5,
            x_points=points, cp_points=points,
        )
        region = scan_region(params, (REGION_ETA_X, REGION_EPS_X), grid, RegionMode.FREE_VPB)
        write_region_json(region, outdir / f"region_vpb_vs{v_s:g}.json")

        grid = SweepConfig(
            x_min=0.0, x_max=0.6, cp_min=-2.8, cp_max=-0.5,
            x_points=points, cp_points=points,
        )
        region = scan_region(params, (REGION_ETA_X, REGION_EPS_X), grid, RegionMode.SYMMETRIC_NOISE)
        write_region_json(region, outdir / f"region_epsp_vs{v_s:g}.json")


def loss_curves(outdir: pathlib.Path, step: float) -> None:
    grid = db_grid(0.0, 3.0, step)
    for direction in ReconciliationDirection:
        for v_s in SWEEP_VS:
            params = ProtocolParams(V_S=v_s, V_M=SWEEP_VM)
            curve = keyrate_vs_attenuation(params, SWEEP_EPS, grid, direction)
            write_curve_csv(curve, outdir / f"keyrate_vs_loss_{direction.value}_vs{v_s:g}.csv")


def noise_frontiers(outdir: pathlib.Path, step: float) -> None:
    db_values = db_grid(0.1, 1.2, step)
    for direction in ReconciliationDirection:
        for v_s in SWEEP_VS:
            params = ProtocolParams(V_S=v_s, V_M=SWEEP_VM)
            curve = noise_frontier(params, db_values, direction, tol=FRONTIER_TOL)
            write_curve_csv(curve, outdir / f"max_noise_{direction.value}_vs{v_s:g}.csv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figure_data")
    parser.add_argument("--fast", action="store_true",
                        help="coarse grids for a quick smoke pass")
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    points = 120 if args.fast else 400
    curve_step = 0.1 if args.fast else 0.02
    frontier_step = 0.25 if args.fast else 0.1

    region_maps(outdir, points)
    print(f"wrote region maps for V_S in {REGION_VS}")
    loss_curves(outdir, curve_step)
    print(f"wrote key-rate curves for V_S in {SWEEP_VS}")
    noise_frontiers(outdir, frontier_step)
    print(f"wrote noise frontiers for V_S in {SWEEP_VS}")
    print(f"all files under {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
