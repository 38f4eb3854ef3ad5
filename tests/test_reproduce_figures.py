import json

import numpy as np
import pytest

from conftest import load_script, split_insecure_rows
from udcvqkd import RegionClass


def test_threads_flag_is_rejected(tmp_path):
    script = load_script("reproduce_figures")
    with pytest.raises(SystemExit) as exc:
        script.main(["--threads", "1", "--fast", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("figures")
    assert load_script("reproduce_figures").main(["--fast", "--outdir", str(outdir)]) == 0
    return outdir


def test_fast_run_writes_every_figure_file(fast_run):
    files = sorted(fast_run.iterdir())
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


def test_insecure_cells_form_one_run_per_row(fast_run):
    # every row of the six maps, with insecure cells in most of them
    maps = sorted(fast_run.glob("region_*.json"))
    assert len(maps) == 6
    for path in maps:
        cells = np.array(json.loads(path.read_text())["cells"])
        assert (cells == RegionClass.PHYSICAL_INSECURE).sum() > 100, path.name
        assert split_insecure_rows(cells) == [], path.name
