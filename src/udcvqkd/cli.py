"""Command-line frontend.

Thin dispatch over the library: every number printed or written comes
straight from a library call or is an input echoed as given, so CLI
results match direct API use bit for bit.  Each subcommand returns its
text, and main writes it to --output or to stdout.  Exit codes: 0
success, 1 domain error (error name on stderr), 2 argument or
configuration error, or a config or output file that cannot be read or
written (usage on stderr).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, ToolkitError
from .protocol import (
    ChannelParams,
    ProtocolParams,
    ReconciliationDirection,
    asymptotic_key_rate_dr,
    asymptotic_key_rate_rr,
    key_rate,
    symmetric_vpB,
)
from .sweeps import (
    _TOOL,
    RegionMode,
    SweepConfig,
    _inputs,
    _json_text,
    _noise_root,
    curve_to_csv,
    curve_to_json,
    db_grid,
    db_to_eta,
    eta_to_db,
    keyrate_vs_attenuation,
    region_to_json,
    scan_region,
)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


class _Choice(tuple):
    """Converter that accepts only the names it holds."""

    def __call__(self, text: str) -> str:
        if text not in self:
            raise ConfigError(f"invalid choice {text!r} (choose from {', '.join(self)})")
        return text


def _parse_axis(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"expected lo:hi[:points], got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2]) if len(parts) == 3 else 400
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


# Option name -> (converter, default, argparse keywords), one row per
# option; the flag is "--" + name with "-" for "_".  A default of None
# means "no default": each subcommand's _require call names the options
# it needs, _resolve_eta asks for exactly one of eta and eta_db, and an
# unset output means stdout.  argparse stores every flag as its text, or
# None, so values from --config can fill the gaps before defaults apply;
# _convert turns flag and config text alike into values.
_OPTIONS = {
    "vs": (float, None, {"help": "signal variance V_S"}),
    "vm": (float, None, {"help": "modulation variance V_M"}),
    "beta": (float, 1.0, {"help": "reconciliation efficiency (default 1)"}),
    "eta": (float, None, {"help": "channel transmittance (linear)"}),
    "eta_db": (float, None, {"help": "channel attenuation in dB (primary form)"}),
    "eps": (float, 0.0, {"help": "symmetric excess noise (default 0)"}),
    "dir": (_Choice(d.value for d in ReconciliationDirection), None,
            {"help": "reconciliation direction"}),
    "db": (_parse_db_grid, None, {"help": "attenuation grid start:stop:step in dB"}),
    "mode": (_Choice(m.value for m in RegionMode), None,
             {"help": "first region axis: V_p_B itself or symmetric eps_p"}),
    "x_range": (_parse_axis, None, {"help": "first axis lo:hi[:points] (points default 400)"}),
    "cp_range": (_parse_axis, None, {"help": "C_p axis lo:hi[:points]; use --cp-range=-2:-1 "
                                             "for negative bounds (points default 400)"}),
    "tol": (float, 1e-6, {"help": "root tolerance: width of the final regula falsi bracket"}),
    "strict_paper_vpb": (_parse_bool, False, {
        "action": "store_const", "const": "true",
        "help": "drop the vacuum term from Bob's p variance"}),
    "output": (str, None, {"help": "write result to this path"}),
    "format": (_Choice(("csv", "json")), "csv", {"help": "curve format"}),
}

def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udcvqkd",
        description="Key rates, physicality and security regions, and "
        "parameter sweeps for unidimensional CV QKD.",
    )
    parser.add_argument("--version", action="version", version=_TOOL)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(usage=p.format_usage, run=handler)
        p.add_argument("--config", help="key=value file; flags override it")
        for option in options:
            convert, _, keywords = _OPTIONS[option]
            if isinstance(convert, _Choice):
                keywords = {"metavar": "{" + ",".join(convert) + "}", **keywords}
            p.add_argument(_flag(option), dest=option, **keywords)
    return parser


def _load_config(path: str, command: str) -> dict:
    """key=value lines of the options that command takes."""
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
                if key not in _OPTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                if key not in _COMMANDS[command][2]:
                    raise ConfigError(f"{path}:{lineno}: {command} does not take key {key!r}")
                values[key] = _convert(key, value.strip(), f"{path}:{lineno}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def _convert(name: str, text: str, where: str):
    """Option name's value from its text; a bad value is a ConfigError that
    begins with where the text came from, FILE:LINE or the flag."""
    try:
        return _OPTIONS[name][0](text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _merge(args: argparse.Namespace) -> dict:
    """Flags over config values over defaults; a bad config line fails even under a flag."""
    names = _COMMANDS[args.command][2]
    merged = {name: _OPTIONS[name][1] for name in names}
    merged.update(_load_config(args.config, args.command) if args.config else {})
    for name in names:
        if getattr(args, name) is not None:
            merged[name] = _convert(name, getattr(args, name), _flag(name))
    return merged


def _require(opts: dict, *names: str) -> None:
    missing = [n for n in names if opts.get(n) is None]
    if missing:
        flags = ", ".join(_flag(n) for n in missing)
        raise ConfigError(f"missing required option(s): {flags}")


def _resolve_eta(opts: dict) -> tuple[float, float | None]:
    """The transmittance, and the dB value as given (None for --eta)."""
    eta, eta_db = opts.get("eta"), opts.get("eta_db")
    if (eta is None) == (eta_db is None):
        raise ConfigError("exactly one of --eta or --eta-db is required")
    return (eta, None) if eta_db is None else (db_to_eta(eta_db), eta_db)


def _db(eta: float, eta_db: float | None) -> float:
    """The dB value as given, not round-tripped through eta, else eta's."""
    return eta_to_db(eta) if eta_db is None else eta_db


def _cmd_keyrate(opts: dict) -> str:
    _require(opts, "vs", "vm", "dir")
    eta, eta_db = _resolve_eta(opts)
    params = ProtocolParams(V_S=opts["vs"], V_M=opts["vm"], beta=opts["beta"])
    chan = ChannelParams.symmetric(eta, opts["eps"])
    v_p_b = symmetric_vpB(params, eta, opts["eps"], opts["strict_paper_vpb"])
    assessment = key_rate(params, chan, v_p_b, ReconciliationDirection(opts["dir"]))
    return _json_text({
        "params": _inputs(params, eta=eta, attenuation_db=_db(eta, eta_db), eps=opts["eps"],
                          direction=opts["dir"], strict_paper_vpb=opts["strict_paper_vpb"],
                          V_p_B=v_p_b),
        "mutual_info_bits": assessment.mutual_info,
        "holevo_bits": assessment.holevo,
        "key_rate_bits": assessment.key_rate,
        "worst_Cp": assessment.worst_Cp,
        "Cp_interval": list(assessment.Cp_interval),
    })


def _cmd_region(opts: dict) -> str:
    _require(opts, "vs", "vm", "mode", "x_range", "cp_range")
    eta, _ = _resolve_eta(opts)
    params = ProtocolParams(V_S=opts["vs"], V_M=opts["vm"], beta=opts["beta"])
    (x_lo, x_hi, x_points), (cp_lo, cp_hi, cp_points) = opts["x_range"], opts["cp_range"]
    grid = SweepConfig(x_min=x_lo, x_max=x_hi, cp_min=cp_lo, cp_max=cp_hi,
                       x_points=x_points, cp_points=cp_points)
    return region_to_json(scan_region(params, (eta, opts["eps"]), grid, RegionMode(opts["mode"])))


def _cmd_sweep_loss(opts: dict) -> str:
    _require(opts, "vs", "vm", "dir", "db")
    params = ProtocolParams(V_S=opts["vs"], V_M=opts["vm"], beta=opts["beta"])
    curve = keyrate_vs_attenuation(params, opts["eps"], opts["db"],
                                   ReconciliationDirection(opts["dir"]))
    return curve_to_csv(curve) if opts["format"] == "csv" else curve_to_json(curve)


def _cmd_max_noise(opts: dict) -> str:
    _require(opts, "vs", "vm", "dir")
    eta, eta_db = _resolve_eta(opts)
    params = ProtocolParams(V_S=opts["vs"], V_M=opts["vm"], beta=opts["beta"])
    db = _db(eta, eta_db)
    # at eta itself: --eta taken to dB and back can move by an ulp
    eps_max = _noise_root(params, eta, ReconciliationDirection(opts["dir"]), opts["tol"], db)
    return _json_text({
        "params": _inputs(params, attenuation_db=db, direction=opts["dir"], tol=opts["tol"]),
        "eps_max": eps_max,
    })


def _cmd_asymptotic(opts: dict) -> str:
    _require(opts, "vs")
    eta, eta_db = _resolve_eta(opts)
    vs = opts["vs"]
    return _json_text({
        "params": {"V_S": vs, "eta": eta, "attenuation_db": _db(eta, eta_db)},
        "dr": asymptotic_key_rate_dr(vs, eta),
        "rr": asymptotic_key_rate_rr(vs, eta),
        "dr_coherent": asymptotic_key_rate_dr(1.0, eta),
        "rr_coherent": asymptotic_key_rate_rr(1.0, eta),
    })


# Subcommand -> (help, handler, options), in --help order; each option
# names an _OPTIONS row.
_COMMANDS = {
    "keyrate": ("worst-case key rate at one parameter point (JSON)", _cmd_keyrate,
                ("vs", "vm", "beta", "eta", "eta_db", "eps", "dir", "strict_paper_vpb",
                 "output")),
    "region": ("2-D physicality/security classification map (JSON)", _cmd_region,
               ("vs", "vm", "beta", "eta", "eta_db", "eps", "mode", "x_range", "cp_range",
                "output")),
    "sweep-loss": ("key rate versus channel attenuation (CSV/JSON)", _cmd_sweep_loss,
                   ("vs", "vm", "beta", "eps", "dir", "db", "output", "format")),
    "max-noise": ("maximal tolerable symmetric excess noise (JSON)", _cmd_max_noise,
                  ("vs", "vm", "beta", "eta", "eta_db", "dir", "tol", "output")),
    "asymptotic": ("strong-modulation closed-form key rates (JSON)", _cmd_asymptotic,
                   ("vs", "eta", "eta_db", "output")),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        opts = _merge(args)
        text = args.run(opts)
        if not opts["output"]:
            sys.stdout.write(text)
        else:
            try:
                with open(opts["output"], "w", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output file: {exc}") from exc
        return 0
    except ConfigError as exc:
        print(args.usage(), file=sys.stderr, end="")
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
