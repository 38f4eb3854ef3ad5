from conftest import load_script


def test_every_mutant_matches_its_target_exactly_once():
    # the mutants run outside the suite, a few seconds to a minute each;
    # this only keeps their targets current
    script = load_script("mutants")
    assert script.stale() == []
    assert script.main(["--check"]) == 0
