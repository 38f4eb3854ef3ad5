import json

import pytest

from conftest import load_script


def test_outputs_match_committed_fingerprints():
    # figure files, CLI runs and key_rate on seeded draws, hashed; a change
    # whose outputs move on purpose reruns the script with --update
    script = load_script("fingerprint")
    committed = json.loads(script.COMMITTED.read_text())
    here = script.environment()
    differ = {key: (committed["environment"].get(key), value)
              for key, value in here.items() if committed["environment"].get(key) != value}
    if differ:
        pytest.skip(f"digests were made elsewhere, (committed, here): {differ}")
    assert script.fingerprints() == committed["digests"]
