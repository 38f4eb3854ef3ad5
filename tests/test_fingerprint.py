import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"


def test_outputs_match_committed_fingerprints():
    # figure files, CLI runs and key_rate on seeded draws, hashed; a change
    # whose outputs move on purpose reruns the script with --update
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    committed = json.loads(script.COMMITTED.read_text())
    here = script.environment()
    differ = {key: (committed["environment"].get(key), value)
              for key, value in here.items() if committed["environment"].get(key) != value}
    if differ:
        pytest.skip(f"digests were made elsewhere, (committed, here): {differ}")
    assert script.fingerprints() == committed["digests"]
