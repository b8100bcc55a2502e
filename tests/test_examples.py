"""Smoke tests: every example script runs, and the public surface is pinned."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.simulate

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_deleted_extras_stay_gone():
    assert "SequenceCollection" not in repro.__all__
    assert "simulate_read_pairs" not in repro.simulate.__all__
    for name in ("repro.mapping", "repro.collection", "repro.analysis",
                 "repro.strings.boyer_moore"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)
