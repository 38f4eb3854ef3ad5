import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"


def test_fast_run_writes_every_figure_file(tmp_path):
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--fast", "--outdir", str(tmp_path)]) == 0

    files = sorted(tmp_path.iterdir())
    assert len(files) == 18
    regions = [f for f in files if f.suffix == ".json"]
    curves = [f for f in files if f.suffix == ".csv"]
    assert len(regions) == 6 and len(curves) == 12
    for path in regions:
        cells = json.loads(path.read_text())["cells"]
        assert len(cells) == 120
        assert all(len(row) == 120 for row in cells)
    for path in curves:
        assert path.read_text().startswith("# tool=")
