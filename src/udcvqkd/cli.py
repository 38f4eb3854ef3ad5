"""Command-line frontend.

Thin dispatch over the library: every number printed or written comes
straight from a library call, so CLI results match direct API use
bit for bit.  Exit codes: 0 success, 1 domain error (error name on
stderr), 2 argument or configuration error (usage on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import ConfigError, ToolkitError
from .protocol import (
    ChannelParams,
    ProtocolParams,
    ReconciliationDirection,
    asymptotic_key_rate_dr,
    asymptotic_key_rate_dr_coherent,
    asymptotic_key_rate_rr,
    asymptotic_key_rate_rr_coherent,
    key_rate,
    symmetric_vpB,
)
from .sweeps import (
    RegionMode,
    SweepConfig,
    curve_to_csv,
    curve_to_json,
    db_grid,
    db_to_eta,
    eta_to_db,
    keyrate_vs_attenuation,
    max_tolerable_noise,
    region_to_json,
    scan_region,
)

_TOOL = f"udcvqkd {__version__}"


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


# Option name -> (converter, default). Defaults of None mean "required if
# the subcommand uses it"; argparse stores None for everything so values
# from --config can fill the gaps before defaults apply.
_CONVERTERS = {
    "vs": float,
    "vm": float,
    "beta": float,
    "eta": float,
    "eta_db": float,
    "eps": float,
    "dir": str,
    "db": str,
    "mode": str,
    "x_range": str,
    "cp_range": str,
    "output": str,
    "format": str,
    "threads": int,
    "tol": float,
    "strict_paper_vpb": _parse_bool,
}

_SUBCOMMAND_OPTIONS = {
    "keyrate": ["vs", "vm", "beta", "eta", "eta_db", "eps", "dir",
                "strict_paper_vpb", "output"],
    "region": ["vs", "vm", "beta", "eta", "eta_db", "eps", "mode",
               "x_range", "cp_range", "strict_paper_vpb", "threads", "output"],
    "sweep-loss": ["vs", "vm", "beta", "eps", "dir", "db",
                   "strict_paper_vpb", "threads", "output", "format"],
    "max-noise": ["vs", "vm", "beta", "eta", "eta_db", "dir", "tol",
                  "strict_paper_vpb", "output"],
    "asymptotic": ["vs", "eta", "eta_db", "output"],
}

_DEFAULTS = {
    "beta": 1.0,
    "eps": 0.0,
    "format": "csv",
    "threads": os.cpu_count() or 1,
    "tol": 1e-6,
    "strict_paper_vpb": False,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udcvqkd",
        description="Key rates, physicality and security regions, and "
        "parameter sweeps for unidimensional CV QKD.",
    )
    parser.add_argument("--version", action="version", version=_TOOL)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value file; flags override it")
        options = _SUBCOMMAND_OPTIONS[name]
        if "vs" in options:
            p.add_argument("--vs", type=float, help="signal variance V_S")
        if "vm" in options:
            p.add_argument("--vm", type=float, help="modulation variance V_M")
        if "beta" in options:
            p.add_argument("--beta", type=float, help="reconciliation efficiency (default 1)")
        if "eta" in options:
            p.add_argument("--eta", type=float, help="channel transmittance (linear)")
            p.add_argument("--eta-db", type=float, dest="eta_db",
                           help="channel attenuation in dB (primary form)")
        if "eps" in options:
            p.add_argument("--eps", type=float, help="symmetric excess noise (default 0)")
        if "dir" in options:
            p.add_argument("--dir", choices=["dr", "rr"], help="reconciliation direction")
        if "db" in options:
            p.add_argument("--db", help="attenuation grid start:stop:step in dB")
        if "mode" in options:
            p.add_argument("--mode", choices=["vpb", "eps-p"],
                           help="first region axis: V_p_B itself or symmetric eps_p")
        if "x_range" in options:
            p.add_argument("--x-range", dest="x_range",
                           help="first axis lo:hi[:points] (points default 400)")
        if "cp_range" in options:
            p.add_argument("--cp-range", dest="cp_range",
                           help="C_p axis lo:hi[:points]; use --cp-range=-2:-1 "
                           "for negative bounds (points default 400)")
        if "tol" in options:
            p.add_argument("--tol", type=float, help="bisection tolerance")
        if "strict_paper_vpb" in options:
            p.add_argument("--strict-paper-vpb", dest="strict_paper_vpb",
                           action="store_const", const=True,
                           help="drop the vacuum term from Bob's p variance")
        if "threads" in options:
            p.add_argument("--threads", type=int,
                           help="accepted for compatibility; has no effect")
        if "output" in options:
            p.add_argument("--output", help="write result to this path")
        if "format" in options:
            p.add_argument("--format", choices=["csv", "json"], help="curve format")
        return p

    add("keyrate", "worst-case key rate at one parameter point (JSON)")
    add("region", "2-D physicality/security classification map (JSON)")
    add("sweep-loss", "key rate versus channel attenuation (CSV/JSON)")
    add("max-noise", "maximal tolerable symmetric excess noise (JSON)")
    add("asymptotic", "strong-modulation closed-form key rates (JSON)")
    return parser


def _load_config(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in _CONVERTERS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _CONVERTERS[key](value.strip())
                except ConfigError:
                    raise
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def _merge(args: argparse.Namespace) -> dict:
    config = _load_config(args.config) if args.config else {}
    merged = {}
    for name in _SUBCOMMAND_OPTIONS[args.command]:
        value = getattr(args, name, None)
        if value is None:
            value = config.get(name)
        if value is None:
            value = _DEFAULTS.get(name)
        merged[name] = value
    return merged


def _require(opts: dict, *names: str) -> None:
    missing = [n for n in names if opts.get(n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ConfigError(f"missing required option(s): {flags}")


def _resolve_eta(opts: dict) -> float:
    eta, eta_db = opts.get("eta"), opts.get("eta_db")
    if (eta is None) == (eta_db is None):
        raise ConfigError("exactly one of --eta or --eta-db is required")
    return eta if eta is not None else db_to_eta(eta_db)


def _parse_axis(text: str, default_points: int = 400) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"expected lo:hi[:points], got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2]) if len(parts) == 3 else default_points
    except ValueError as exc:
        raise ConfigError(f"bad axis range {text!r}: {exc}") from exc
    return lo, hi, points


def _parse_db_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad dB grid {text!r}: {exc}") from exc
    return db_grid(start, stop, step)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cmd_keyrate(opts: dict) -> int:
    _require(opts, "vs", "vm", "dir")
    eta = _resolve_eta(opts)
    params = ProtocolParams(V_S=opts["vs"], V_M=opts["vm"], beta=opts["beta"])
    chan = ChannelParams.symmetric(eta, opts["eps"])
    v_p_b = symmetric_vpB(params, eta, opts["eps"], opts["strict_paper_vpb"])
    assessment = key_rate(params, chan, v_p_b, ReconciliationDirection(opts["dir"]))
    obj = {
        "tool": _TOOL,
        "params": {
            "V_S": params.V_S,
            "V_M": params.V_M,
            "beta": params.beta,
            "eta": eta,
            "attenuation_db": eta_to_db(eta),
            "eps": opts["eps"],
            "direction": opts["dir"],
            "strict_paper_vpb": opts["strict_paper_vpb"],
            "V_p_B": v_p_b,
        },
        "mutual_info_bits": assessment.mutual_info,
        "holevo_bits": assessment.holevo,
        "key_rate_bits": assessment.key_rate,
        "worst_Cp": assessment.worst_Cp,
        "Cp_interval": list(assessment.Cp_interval),
        "physical": assessment.physical,
    }
    _emit(_json_text(obj), opts.get("output"))
    return 0


def _cmd_region(opts: dict) -> int:
    _require(opts, "vs", "vm", "mode", "x_range", "cp_range")
    eta = _resolve_eta(opts)
    params = ProtocolParams(V_S=opts["vs"], V_M=opts["vm"], beta=opts["beta"])
    x_lo, x_hi, x_points = _parse_axis(opts["x_range"])
    cp_lo, cp_hi, cp_points = _parse_axis(opts["cp_range"])
    grid = SweepConfig(
        x_min=x_lo,
        x_max=x_hi,
        cp_min=cp_lo,
        cp_max=cp_hi,
        x_points=x_points,
        cp_points=cp_points,
        strict_paper_vpb=opts["strict_paper_vpb"],
        threads=opts["threads"],
    )
    region = scan_region(params, (eta, opts["eps"]), grid, RegionMode(opts["mode"]))
    _emit(region_to_json(region), opts.get("output"))
    return 0


def _cmd_sweep_loss(opts: dict) -> int:
    _require(opts, "vs", "vm", "dir", "db")
    params = ProtocolParams(V_S=opts["vs"], V_M=opts["vm"], beta=opts["beta"])
    curve = keyrate_vs_attenuation(
        params,
        opts["eps"],
        _parse_db_grid(opts["db"]),
        ReconciliationDirection(opts["dir"]),
        strict_paper_vpb=opts["strict_paper_vpb"],
        threads=opts["threads"],
    )
    text = curve_to_csv(curve) if opts["format"] == "csv" else curve_to_json(curve)
    _emit(text, opts.get("output"))
    return 0


def _cmd_max_noise(opts: dict) -> int:
    _require(opts, "vs", "vm", "dir")
    eta = _resolve_eta(opts)
    params = ProtocolParams(V_S=opts["vs"], V_M=opts["vm"], beta=opts["beta"])
    eps_max = max_tolerable_noise(
        params,
        eta_to_db(eta),
        ReconciliationDirection(opts["dir"]),
        tol=opts["tol"],
        strict_paper_vpb=opts["strict_paper_vpb"],
    )
    obj = {
        "tool": _TOOL,
        "params": {
            "V_S": params.V_S,
            "V_M": params.V_M,
            "beta": params.beta,
            "attenuation_db": eta_to_db(eta),
            "direction": opts["dir"],
            "tol": opts["tol"],
            "strict_paper_vpb": opts["strict_paper_vpb"],
        },
        "eps_max": eps_max,
    }
    _emit(_json_text(obj), opts.get("output"))
    return 0


def _cmd_asymptotic(opts: dict) -> int:
    _require(opts, "vs")
    eta = _resolve_eta(opts)
    vs = opts["vs"]
    coherent = vs == 1.0
    obj = {
        "tool": _TOOL,
        "params": {"V_S": vs, "eta": eta, "attenuation_db": eta_to_db(eta)},
        "dr": asymptotic_key_rate_dr_coherent(eta) if coherent else asymptotic_key_rate_dr(vs, eta),
        "rr": asymptotic_key_rate_rr_coherent(eta) if coherent else asymptotic_key_rate_rr(vs, eta),
        "dr_coherent": asymptotic_key_rate_dr_coherent(eta),
        "rr_coherent": asymptotic_key_rate_rr_coherent(eta),
    }
    _emit(_json_text(obj), opts.get("output"))
    return 0


_DISPATCH = {
    "keyrate": _cmd_keyrate,
    "region": _cmd_region,
    "sweep-loss": _cmd_sweep_loss,
    "max-noise": _cmd_max_noise,
    "asymptotic": _cmd_asymptotic,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = _merge(args)
        return _DISPATCH[args.command](opts)
    except ConfigError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
