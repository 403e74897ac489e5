"""Smoke test: the demos run and print exactly what they printed when
their digests were pinned (with numpy 2.4.6; 04_empirical_probes.py
prints numbers drawn with numpy's generator)."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_properties_and_verifiers.py":
        "84442b1d20aeaec0820ef9f9c58795dbdf6133a2524217d74cbdbc5af961156e",
    "02_subdivision_walkthrough.py":
        "7018292ddbfbdbd7d6b5e0bb8de9b117ce8a397a2e80d11489a80d066a1373fb",
    "03_exponential_spindle.py":
        "f313452197f4fc7f6c11ad313e9dd883bed1ca67fc7d0ec53a35eeeba3d21b86",
    "04_empirical_probes.py":
        "2c92eec954013fc204fb653fb1b6ad103cf3af57b9fcd49f6bdca0159384b6df",
}


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout(name):
    done = subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[name]
