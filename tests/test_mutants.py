import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"


def test_every_mutant_matches_its_target_exactly_once():
    # the mutants run outside the suite, a few seconds to a minute each;
    # this only keeps their targets current
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.stale() == []
    assert script.main(["--check"]) == 0
