#!/usr/bin/env python3
"""SHA-256 fingerprints of the package's outputs, for a characterization test.

Four digests, each over length-prefixed chunks of bytes:

  figures_full, figures_fast
      (name, bytes) of every file that scripts/reproduce_figures.py writes,
      full and with --fast, run in process into a temporary directory,
      sorted by name;
  cli
      exit code, stdout and stderr of each argv in CLI_RUNS through
      udcvqkd.cli.main, and the file that OUTPUT_RUN writes with --output;
  key_rate
      protocol._key_rate's five doubles, packed '<d', or the error class
      name, in DR and in RR, at KEY_RATE_DRAWS seeded draws of
      tests/conftest.py's broad_draw.

The float bits come from libm and from numpy's own loops, so another
Python, numpy or machine can differ in the last ulp: each digest is
recorded with the environment that produced it.

    python scripts/fingerprint.py            # print the digests as JSON
    python scripts/fingerprint.py --update   # rewrite tests/fingerprints.json

tests/test_fingerprint.py compares the digests with tests/fingerprints.json
where the environment matches.  A change whose outputs move on purpose runs
--update and names the digests that moved, and why.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import platform
import struct
import sys
import tempfile

import numpy as np

from udcvqkd import cli
from udcvqkd.errors import ToolkitError
from udcvqkd.protocol import ReconciliationDirection, _key_rate

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMITTED = ROOT / "tests" / "fingerprints.json"
KEY_RATE_DRAWS = 20_000
KEY_RATE_SEED = 3131
DIRECTIONS = tuple(ReconciliationDirection)

CLI_RUNS = [
    ["keyrate", "--vs", "2", "--vm", "100", "--eta-db", "0.5", "--eps", "0.03", "--dir", "dr"],
    ["keyrate", "--vs", "0.5", "--vm", "100", "--eta-db", "0.5", "--eps", "0.03", "--dir", "rr",
     "--strict-paper-vpb"],
    ["keyrate", "--vs", "1", "--vm", "1e-8", "--eta", "0.5", "--dir", "dr"],
    ["max-noise", "--vs", "2", "--vm", "100", "--eta-db", "0.2", "--dir", "dr"],
    ["max-noise", "--vs", "1", "--vm", "5", "--eta", "0.52", "--dir", "rr", "--tol", "1e-9"],
    ["sweep-loss", "--vs", "1", "--vm", "100", "--eps", "0.03", "--dir", "rr", "--db", "0:3:0.1"],
    ["sweep-loss", "--vs", "2", "--vm", "100", "--eps", "0.03", "--dir", "dr", "--db",
     "0:2:0.25", "--format", "json"],
    ["asymptotic", "--vs", "0.5", "--eta-db", "3"],
    ["asymptotic", "--vs", "1", "--eta", "0.5"],
    ["region", "--vs", "1", "--vm", "10", "--eta", "0.9", "--eps", "0.03", "--mode", "vpb",
     "--x-range", "0.85:2:40", "--cp-range=-2.8:-0.5:40"],
    ["region", "--vs", "0.9", "--vm", "10", "--eta-db", "0.5", "--eps", "0.03", "--mode",
     "eps-p", "--x-range", "0:0.6:40", "--cp-range=-2.8:-0.5:40"],
    # exit 1: an unphysical observation, and no positive rate
    ["keyrate", "--vs", "1", "--vm", "10", "--eta-db", "1", "--dir", "dr", "--strict-paper-vpb"],
    ["max-noise", "--vs", "0.5", "--vm", "100", "--eta-db", "1", "--dir", "dr"],
    # exit 2: a missing option, and a malformed dB grid
    ["keyrate", "--vs", "1", "--vm", "10", "--eta-db", "1"],
    ["sweep-loss", "--vs", "1", "--vm", "10", "--dir", "dr", "--db", "0-3-1"],
]
OUTPUT_RUN = ["keyrate", "--vs", "2", "--vm", "100", "--eta-db", "1", "--eps", "0.01",
              "--dir", "rr", "--output"]


def _load(path: pathlib.Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _figures(argv: list[str]) -> str:
    script = _load(ROOT / "scripts" / "reproduce_figures.py", "reproduce_figures")
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            script.main([*argv, "--outdir", tmp])
        files = sorted(pathlib.Path(tmp).iterdir())
        return _digest(chunk for f in files for chunk in (f.name.encode(), f.read_bytes()))


def _cli_run(argv: list[str]) -> list[bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]


def _cli() -> str:
    chunks = [chunk for argv in CLI_RUNS for chunk in _cli_run(argv)]
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "keyrate.json"
        chunks += _cli_run([*OUTPUT_RUN, str(path)]) + [path.read_bytes()]
    return _digest(chunks)


def _key_rate_digest() -> str:
    if str(ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(ROOT / "tests"))
    from conftest import broad_draw

    rng = np.random.default_rng(KEY_RATE_SEED)
    chunks = []
    for _ in range(KEY_RATE_DRAWS):
        params, chan, v_p_b, _ = broad_draw(rng)
        for direction in DIRECTIONS:
            try:
                mi, chi, worst_cp, (lo, hi) = _key_rate(params, chan.eta_x, chan.eps_x, v_p_b,
                                                        direction)
                chunks.append(struct.pack("<5d", mi, chi, worst_cp, lo, hi))
            except ToolkitError as exc:
                chunks.append(type(exc).__name__.encode())
    return _digest(chunks)


def environment() -> dict:
    """What the float bits of the digests depend on."""
    return {"python": sys.version, "numpy": np.__version__, "machine": platform.machine()}


def fingerprints() -> dict:
    return {
        "figures_full": _figures([]),
        "figures_fast": _figures(["--fast"]),
        "cli": _cli(),
        "key_rate": _key_rate_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {COMMITTED.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    text = json.dumps({"environment": environment(), "digests": fingerprints()},
                      sort_keys=True, indent=2) + "\n"
    if args.update:
        COMMITTED.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
