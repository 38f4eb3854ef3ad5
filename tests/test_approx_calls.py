import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def rel_without_abs(source: str) -> list[int]:
    """The lines of the approx(...) calls in source that pass rel= and no
    abs=."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keywords = {keyword.arg for keyword in node.keywords}
        if name == "approx" and "rel" in keywords and "abs" not in keywords:
            lines.append(node.lineno)
    return lines


def test_every_relative_approx_states_its_absolute_tolerance():
    # pytest.approx(want, rel=r) still passes anything within its default
    # abs=1e-12 of want, so a rel= finer than 1e-12/|want| checks nothing
    # beyond that: approx(6.4e-151, rel=1e-12) accepts 0.0
    files = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert len(files) > 10
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in files for line in rel_without_abs(path.read_text())]
    assert found == []


def test_the_check_finds_a_relative_approx_without_abs():
    source = ("import pytest\n"
              "from pytest import approx\n"
              "x = pytest.approx(1.0, rel=1e-9)\n"
              "y = approx(2.0, rel=1e-9)\n"
              "z = pytest.approx(3.0, rel=1e-9, abs=0.0)\n"
              "w = pytest.approx(4.0, abs=1e-3)\n"
              "v = pytest.approx(5.0)\n")
    assert rel_without_abs(source) == [3, 4]
