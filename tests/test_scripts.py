"""Smoke runs of the scripts under scripts/: exit 0 and the CSVs they write."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wickbell

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, written",
    [
        (
            "scan_bell_decay.py",
            ["--scales", "1", "2", "--n-samples", "33"],
            ["decay_curves.csv", "crossing_summary.csv"],
        ),
        (
            "run_all_experiments.py",
            ["--only", "chsh", "--only", "chsh-decay"],
            ["chsh/chsh.csv", "chsh-decay/chsh_decay.csv", "chsh-decay/chsh_control.csv"],
        ),
    ],
)
def test_script_runs(tmp_path, script, args, written):
    # the package is importable from the subprocess the same way it is here
    package_root = str(Path(wickbell.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    argv = [sys.executable, str(SCRIPTS / script), *args, "--out", str(tmp_path)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for name in written:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) >= 2  # a header and at least one row
