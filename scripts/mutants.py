#!/usr/bin/env python3
"""Mutation check of the guards, clamps and fallbacks in the package.

Each MUTANTS entry (path, old, new) replaces the one occurrence of old in
path with new: a guard, clamp or fallback deleted or bent, as a competent
programmer's slip would (DeMillo, Lipton & Sayward, Computer 11(4), 34
(1978)).  The runner copies the repository, without .git, into a
temporary directory and applies one mutant at a time there.  For each it
runs the tests in one sequential subprocess, with a timeout and a fixed
hypothesis seed, without acceptance 5, which fails on the unmutated
code, without tests/test_mutants.py, which any applied mutant fails, and
without tests/test_fingerprint.py, which fails whenever an output moves,
so that a kill names the test that states the guard's property.
The unmutated tests run first, and must pass.  Under a mutant the
mutated module's own test file runs before the others: its tests are the
likeliest to kill it, and they bound their loops, so a mutant that would
hang a later test dies in seconds.  A protocol mutant runs
test_protocol.py's TestNewtonSearch before that file (FIRST): a mutant of
the worst-case search's safeguards can loop forever in the file's first
key_rate test, while the class's synthetic searches stop at 200 calls.
A mutant is killed
when a test fails or the run times out.  It prints killed or survived
for each, with the first failing test, and exits 1 if any survives.

    python scripts/mutants.py               # every mutant, one at a time
    python scripts/mutants.py 3 17          # only mutants 3 and 17
    python scripts/mutants.py --check       # each old matches exactly once

A run takes a few seconds to a minute per mutant.  --check runs no test;
the test suite calls it, so a refactor that moves a mutant's target
shows up as a stale mutant.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROTOCOL = "src/udcvqkd/protocol.py"
SWEEPS = "src/udcvqkd/sweeps.py"
CLI = "src/udcvqkd/cli.py"
GAUSSIAN = "src/udcvqkd/gaussian.py"
ACCEPTANCE_5 = "tests/test_acceptance.py::test_acceptance_5_keyrate_crossings"
STALE_CHECK = "tests/test_mutants.py"
FINGERPRINT = "tests/test_fingerprint.py"
TIMEOUT_S = 300.0
# the tests run ahead of a module's own test file under its mutants
FIRST = {PROTOCOL: ["tests/test_protocol.py::TestNewtonSearch"]}

MUTANTS = [
    # parameter and observation checks
    (PROTOCOL, "        if not self.V_S > 0.0:", "        if not self.V_S >= 0.0:"),
    (PROTOCOL, "        if not self.V_M >= 0.0:", "        if not self.V_M >= -1.0:"),
    (PROTOCOL, "        if not 0.0 < self.beta <= 1.0:", "        if not 0.0 <= self.beta <= 1.0:"),
    (PROTOCOL, "    if not 0.0 < eta <= 1.0:", "    if not 0.0 <= eta <= 1.0:"),
    (PROTOCOL, "    if not eps >= 0.0:", "    if not eps >= -1.0:"),
    (PROTOCOL, "    if not (math.isfinite(v0) and math.isfinite(c0) and math.isfinite(coeff)):",
     "    if False:"),
    (PROTOCOL, "    if not 0.0 < V_p_B < math.inf:", "    if not 0.0 <= V_p_B < math.inf:"),
    (PROTOCOL, "    below = dv < -VERTEX_SLACK * max(1.0, abs(xm.v0))", "    below = dv < 0.0"),
    (PROTOCOL, "-VERTEX_SLACK * max(1.0, abs(xm.v0))", "-VERTEX_SLACK * abs(xm.v0)"),
    (PROTOCOL, "    dv = maximum(dv, 0.0)", "    dv = dv"),
    (PROTOCOL, "    if not math.isfinite(h):", "    if False:"),
    (PROTOCOL, "    if not math.isfinite(mi):", "    if False:"),
    (PROTOCOL, "    if not math.isfinite(v_p_b):", "    if False:"),
    (PROTOCOL, "    if not 0.0 < eta < 1.0:", "    if not 0.0 < eta <= 1.0:"),
    (PROTOCOL, "    _check_finite(V_S=V_S)\n    if not V_S > 0.0:",
     "    _check_finite(V_S=V_S)\n    if not V_S >= 0.0:"),
    # the entropy kernel and its slope
    (PROTOCOL, "    if t < M_MIN:", "    if not t:"),
    (PROTOCOL, "return math.inf if z <= 0.0 else -math.inf, math.nan",
     "return math.inf if z < 0.0 else -math.inf, math.nan"),
    (PROTOCOL, "    if gap > 1e-5 * t:", "    if gap > 0.0:"),
    (PROTOCOL, "    if m < M_MIN:", "    if m <= 0.0:"),
    (PROTOCOL, "    if nu < 1.0 - NU_CLAMP_TOL:", "    if nu < 0.0:"),
    (PROTOCOL, "    if not (h or half_t0):", "    if False:"),
    (PROTOCOL, "_symplectic_pair(ob, min(max(C_p - c0, -h), h))", "_symplectic_pair(ob, C_p - c0)"),
    # the Holevo bound
    (PROTOCOL, "    if not math.isfinite(chi):", "    if False:"),
    (PROTOCOL, "    return max(chi, 0.0)", "    return chi"),
    (PROTOCOL, "        reach = _margins(xm, V_p_B + 8.0 * math.ulp(V_p_B))[1]",
     "        reach = margins[1]"),
    (PROTOCOL, "        reach += 8.0 * math.ulp(abs(xm.c0) + reach)", "        reach += 0.0"),
    (PROTOCOL, "    if margins is None or not abs(C_p - xm.c0) <= reach:",
     "    if margins is None:"),
    # the root finders' bracketing search
    (SWEEPS, "        if x < a + half:", "        if x < a:"),
    (SWEEPS, "        elif x > b - half:", "        elif x > b:"),
    (SWEEPS, "                break\n        fx = f(x)",
     "                pass\n        fx = f(x)"),
    (SWEEPS, "                fb *= m if m > 0.0 else 0.5", "                fb *= m"),
    (SWEEPS, "                fa *= m if m > 0.0 else 0.5", "                fa *= m"),
    (SWEEPS, "            a = b = x\n    return a, b", "            a = x\n    return a, b"),
    # the worst-case C_p search and key_rate
    (PROTOCOL, "    if end > 0.0:", "    if True:"),
    (PROTOCOL, "math.atanh(min(max(2.0 * start - 1.0, 0.0), end / h))",
     "math.atanh(2.0 * start - 1.0)"),
    (PROTOCOL, "            if not za < z < zb:", "            if False:"),
    (PROTOCOL, "            if not a + half <= x <= b - half:", "            if False:"),
    (PROTOCOL, "                if abs(x - x_last) <= half:", "                if False:"),
    (PROTOCOL, "z = za if f == -math.inf and za == 0.0 else 0.5 * (za + zb)",
     "z = 0.5 * (za + zb)"),
    (PROTOCOL, "if f == -math.inf and za == 0.0 else", "if f == -math.inf else"),
    (PROTOCOL, "refined = x if za <= z <= zb else 0.5 * (a + b)", "refined = x"),
    (PROTOCOL, "    xtol = max(WORST_CASE_XTOL * min(1.0, 2.0 * h), 8.0 * math.ulp(h))",
     "    xtol = WORST_CASE_XTOL * min(1.0, 2.0 * h)"),
    (PROTOCOL, "    if zb < math.inf:", "    if False:"),
    (PROTOCOL, "        if not (2.0 * h * c_x + half_t0) + math.sqrt(",
     "        if False and (2.0 * h * c_x + half_t0) + math.sqrt("),
    (PROTOCOL, "    s_ab = _joint_entropy(ob, c0, hi)", "    s_ab = -math.inf"),
    (PROTOCOL, "    if cp != hi:", "    if True:"),
    (PROTOCOL, "    if margins is None:\n        raise UnphysicalObservation(",
     "    if False:\n        raise UnphysicalObservation("),
    # the strong-modulation closed forms
    (PROTOCOL, "    if u == math.inf:", "    if False:"),
    (PROTOCOL, "    if r2 < 0.01:\n        s = eta", "    if r2 < 0.0:\n        s = eta"),
    (PROTOCOL, "math.log1p(1.0 / s) if 1.0 / s < math.inf else", "math.log1p(1.0 / s) if True else"),
    (PROTOCOL, "if c_minus_1 > 1e-300 else 0.0", "if True else 0.0"),
    (PROTOCOL, "    if r2 < 0.01:\n        excess", "    if r2 < 0.0:\n        excess"),
    (PROTOCOL, "math.log1p(x) if x < math.inf else (", "math.log1p(x) if True else ("),
    # grids and records
    (SWEEPS, "    if not eta > 0.0:", "    if not eta >= 0.0:"),
    (SWEEPS, "-10.0 * math.log10(eta) + 0.0", "-10.0 * math.log10(eta)"),
    (SWEEPS, "    if not all(math.isfinite(v) for v in (start, stop, step)):", "    if False:"),
    (SWEEPS, "    if step <= 0:", "    if step < 0:"),
    (SWEEPS, "    if stop < start:", "    if False:"),
    (SWEEPS, "    if not steps < DB_GRID_CAP:", "    if not steps < math.inf:"),
    (SWEEPS, "        if self.x_points < 2 or self.cp_points < 2:",
     "        if self.x_points < 1 or self.cp_points < 1:"),
    (SWEEPS, "        if self.x_points * self.cp_points > REGION_CELL_CAP:",
     "        if self.x_points * self.cp_points >= REGION_CELL_CAP:"),
    (SWEEPS, "        if max(self.x_points, self.cp_points) > REGION_AXIS_CAP:",
     "        if max(self.x_points, self.cp_points) >= REGION_AXIS_CAP:"),
    (SWEEPS, "        if not all(math.isfinite(v) for v in (self.x_max - self.x_min, "
     "self.cp_max - self.cp_min)):", "        if False:"),
    (SWEEPS, "        if not (self.x_max > self.x_min and self.cp_max > self.cp_min):",
     "        if not (self.x_max >= self.x_min and self.cp_max >= self.cp_min):"),
    (SWEEPS, "        if self.threads < 1:", "        if self.threads < 0:"),
    (SWEEPS, "        if np.any(np.diff(self.x_axis) <= 0) or np.any(np.diff(self.cp_axis) <= 0):",
     "        if np.any(np.diff(self.x_axis) < 0) or np.any(np.diff(self.cp_axis) < 0):"),
    (SWEEPS, "        if not (len(self.x_axis) and len(self.cp_axis)):", "        if False:"),
    (SWEEPS, "        if self.cells.shape != (len(self.x_axis), len(self.cp_axis)):",
     "        if False:"),
    (SWEEPS, "        if not np.issubdtype(self.cells.dtype, np.integer):", "        if False:"),
    (SWEEPS, "self.cells.max() <= max(RegionClass):", "self.cells.max() <= 5:"),
    (SWEEPS, "        if len(self.abscissa) != len(self.ordinate):", "        if False:"),
    (SWEEPS, "        if any(b <= a for a, b in zip(self.abscissa, self.abscissa[1:])):",
     "        if any(b < a for a, b in zip(self.abscissa, self.abscissa[1:])):"),
    (SWEEPS, "    if any(b <= a for a, b in zip(db_values, db_values[1:])):",
     "    if any(b < a for a, b in zip(db_values, db_values[1:])):"),
    # region maps
    (PROTOCOL, "        g[~(m >= M_MIN)] = 0.0", "        pass"),
    (SWEEPS, "        if grid.x_min <= 0:", "        if grid.x_min < 0:"),
    (SWEEPS, "        if grid.x_min < 0:", "        if grid.x_min < -1:"),
    (SWEEPS, '        raise ConfigError(f"unknown region mode {mode!r}")', "        pass"),
    (SWEEPS, "    stop[below] = 0", "    pass"),
    (SWEEPS, "        if not np.isfinite(_symplectic_pair(ob, half, np.sqrt)[0][physical]).all():",
     "        if False:"),
    (SWEEPS, "        flag |= np.abs(chi_dr - key_mi) <= REGION_MARGIN", "        pass"),
    (SWEEPS, "        flag |= np.abs(chi_rr - key_mi) <= REGION_MARGIN", "        pass"),
    (SWEEPS, "        refine &= rows[1:] == rows[:-1]", "        pass"),
    (SWEEPS, "insecure_above, secure_below = key_mi + REGION_MARGIN,",
     "insecure_above, secure_below = key_mi,"),
    (SWEEPS, "= key_mi + REGION_MARGIN, key_mi - REGION_MARGIN\n", "= key_mi + REGION_MARGIN, key_mi\n"),
    (SWEEPS, "            run[ends - 1] = np.nan", "            pass"),
    (SWEEPS, "        kept = lo <= hi", "        kept = True"),
    (SWEEPS, 'np.minimum(np.maximum(np.searchsorted(delta, hi, "right"), inner_first), cols[after])',
     'np.minimum(np.searchsorted(delta, hi, "right"), cols[after])'),
    (SWEEPS, "        if not held.size:", "        if False:"),
    # curves and root searches
    (SWEEPS, "(worst_cp - lo) / (hi - lo) if hi > lo else None", "(worst_cp - lo) / (hi - lo)"),
    (SWEEPS, "        k, t = _symmetric_rate(params, *channel(x), direction, t)",
     "        k, t = _symmetric_rate(params, *channel(x), direction, None)"),
    (SWEEPS, "        except (NoPositiveRate, NoRoot):", "        except NoPositiveRate:"),
    (SWEEPS, "    if not 0.0 < tol < math.inf:", "    if not 0.0 < tol:"),
    (SWEEPS, "    if k0 <= 0.0:", "    if k0 < 0.0:"),
    (SWEEPS, "        if hi >= cap:", "        if hi > cap:"),
    (SWEEPS, "        if k > 0.0:\n            lo, k_lo = hi, k",
     "        if True:\n            lo, k_lo = hi, k"),
    # the map's clamp of chi, and the mutual information's log1p
    (SWEEPS, "dr, rr = np.maximum(chi, 0.0) < key_mi", "dr, rr = chi < key_mi"),
    (PROTOCOL, "math.log1p(eta_x * params.V_M / b) * LOG2E",
     "math.log2(1.0 + eta_x * params.V_M / b)"),
    # the CLI's exit-2 paths
    (CLI, "            except OSError as exc:\n                raise ConfigError(f\"cannot write",
     "            except FileNotFoundError as exc:\n                raise ConfigError(f\"cannot write"),
    (CLI, "    except OSError as exc:\n        raise ConfigError(f\"cannot read",
     "    except FileNotFoundError as exc:\n        raise ConfigError(f\"cannot read"),
    (CLI, '    _require(opts, "vs")\n', "    pass\n"),
    (CLI, "    if len(parts) != 3:", "    if len(parts) < 2:"),
    # the covariance-matrix oracle
    (GAUSSIAN, "    if np.any(mismatch > PAIRING_TOL):", "    if False:"),
    (GAUSSIAN, "        if not np.isfinite(m).all():", "        if False:"),
]


def stale(root: pathlib.Path = ROOT) -> list[str]:
    """A line for each mutant whose old text does not occur exactly once
    in its file, or equals its new text."""
    problems = []
    for i, (path, old, new) in enumerate(MUTANTS):
        count = (root / path).read_text().count(old)
        if count != 1 or old == new:
            problems.append(f"mutant {i} ({path}): old text occurs {count} times: {old!r}")
    return problems


def _test_files(mutated: str | None = None) -> list[str]:
    """The test files without STALE_CHECK and FINGERPRINT, in directory
    order but with the mutated module's own, tests/test_<module>.py, first,
    and its FIRST tests before that.

    pytest runs the files in the order given; each is named, because a file
    given before its directory goes back into directory order.  FIRST's
    tests run again in their file, as the runner keeps duplicates: without
    that, pytest folds them into the file, in the file's order."""
    own = mutated and f"tests/test_{pathlib.PurePath(mutated).stem}.py"
    files = sorted(f"tests/{p.name}" for p in (ROOT / "tests").glob("test_*.py"))
    files.remove(STALE_CHECK)
    files.remove(FINGERPRINT)
    return FIRST.get(mutated, []) + sorted(files, key=lambda f: f != own)


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return output.strip().splitlines()[-1] if output.strip() else "no output"


def run(indices: list[int]) -> int:
    """Run the given mutants one at a time; the number that survive."""
    survived = 0
    with tempfile.TemporaryDirectory(prefix="udcvqkd-mutants-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "figure_data"))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--keep-duplicates", "--hypothesis-seed=0", "--deselect", ACCEPTANCE_5]
        baseline = subprocess.run(command + _test_files(), cwd=copy, env=env,
                                  capture_output=True, text=True)
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
        if baseline.returncode:
            raise SystemExit(f"the unmutated tests fail: {_first_failure(baseline.stdout)}")
        for i in indices:
            path, old, new = MUTANTS[i]
            target = copy / path
            original = target.read_text()
            line = original[:original.index(old)].count("\n") + 1
            target.write_text(original.replace(old, new, 1))
            try:
                proc = subprocess.run(command + _test_files(path), cwd=copy, env=env,
                                      capture_output=True, text=True, timeout=TIMEOUT_S)
                killed, detail = proc.returncode != 0, _first_failure(proc.stdout)
            except subprocess.TimeoutExpired:
                killed, detail = True, f"timed out after {TIMEOUT_S:g} s"
            finally:
                target.write_text(original)
                shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
            survived += not killed
            status = "killed" if killed else "SURVIVED"
            print(f"{i:3d} {status:8s} {path}:{line}  {old.strip()!r} -> {new.strip()!r}"
                  f"{'  by ' + detail if killed else ''}", flush=True)
    return survived


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("indices", nargs="*", type=int, help="mutants to run (default all)")
    parser.add_argument("--check", action="store_true",
                        help="only check that each mutant's old text matches exactly once")
    args = parser.parse_args(argv)
    problems = stale()
    for problem in problems:
        print(problem, file=sys.stderr)
    if args.check or problems:
        return 1 if problems else 0
    survived = run(args.indices or list(range(len(MUTANTS))))
    print(f"{survived} of {len(args.indices or MUTANTS)} mutants survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
