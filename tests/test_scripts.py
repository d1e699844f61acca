"""Smoke tests of the example scripts: each runs end to end on tiny inputs
and prints its table."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# each script's tiny arguments, how many lines it prints and what they hold
SCRIPTS = [
    # a header and one row per policy
    ("compare_policies.py", ["--prompts", "1", "--tokens", "16"], 6,
     ["policy", "mean eTPL", "speedup", "vanilla", "ls", "fs", "dv", "del"]),
    # a header, one row per omega and the spread
    ("omega_sensitivity.py", ["--prompts", "1", "--tokens", "16", "--omegas", "0.5,1.0"], 4,
     ["omega", "eTPL", "exit switches", "0.50", "1.00", "spread:"]),
    ("regime_adaptation.py", ["--half", "16"], 6,
     ["regime A best static cell", "regime B best static cell", "static A-tuned",
      "static B-tuned", "dynamic policy", "rounds to adapt"]),
]


def test_every_script_is_covered():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(s[0] for s in SCRIPTS)


@pytest.mark.parametrize("script, args, n_lines, expected", SCRIPTS)
def test_script_runs_and_prints_its_table(script, args, n_lines, expected):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == n_lines, proc.stdout
    for text in expected:
        assert any(text in line for line in lines), (text, proc.stdout)
