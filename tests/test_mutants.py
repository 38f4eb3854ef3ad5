from conftest import load_script


def test_every_mutant_matches_its_target_exactly_once():
    # the mutants run outside the suite, a few seconds to a minute each;
    # this only keeps their targets current
    script = load_script("mutants")
    assert script.stale() == []
    assert script.main(["--check"]) == 0


def hunk(path, start, count):
    """A git diff -U0 of one hunk in path, at its new lines [start, start + count)."""
    return (f"diff --git a/{path} b/{path}\n--- a/{path}\n+++ b/{path}\n"
            f"@@ -{start},{count} +{start},{count} @@\n")


def test_since_runs_the_mutants_in_the_hunks_of_one_module():
    # the selection only; no mutant runs
    script = load_script("mutants")
    everything = list(range(len(script.MUTANTS)))
    # a mutant whose target spans lines, in the module with the most mutants
    i = next(k for k, (path, _, _) in enumerate(script.MUTANTS)
             if path == script.PROTOCOL and len(script.target_lines(k)) == 2)
    first, last = script.target_lines(i)
    assert script.changed_lines(hunk(script.PROTOCOL, last, 1)) == {script.PROTOCOL: {last}}
    for start, count in ((first, 1), (last, 1), (first - 3, 4), (last, 0), (first - 1, 0)):
        chosen = script.select(hunk(script.PROTOCOL, start, count))
        assert i in chosen and chosen != everything
        changed = set(range(start, start + (count or 2)))
        assert all(script.MUTANTS[k][0] == script.PROTOCOL
                   and not changed.isdisjoint(script.target_lines(k)) for k in chosen)
    for start, count in ((first - 1, 1), (last + 1, 3), (first - 2, 0), (last + 1, 0)):
        assert i not in script.select(hunk(script.PROTOCOL, start, count))
    # only tests, or two modules: the full set
    assert script.select("") == everything
    assert script.select(hunk("tests/test_protocol.py", first, 1)) == everything
    assert script.select(hunk(script.PROTOCOL, first, 1) + hunk(script.SWEEPS, 1, 1)) == everything
    # a hunk in a test file beside one module still selects in that module
    assert script.select(hunk(script.PROTOCOL, first, 1)
                         + hunk("tests/test_protocol.py", 1, 1)) == script.select(
                             hunk(script.PROTOCOL, first, 1))
