import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_threads_flag_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--threads", "1", "--fast", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_fast_run_writes_every_figure_file(tmp_path):
    script = load_script()
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
