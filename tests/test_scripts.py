"""Smoke runs of the scripts in scripts/, each in its own interpreter."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from snnkit.generators import cartoon_fixture
from snnkit.ppm import load_ppm

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_lowerbound_sweep_prints_exact_rows():
    out = run_script("run_lowerbound_sweep.py", "--ks", "4,6", "--budget", "100000")
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [(r[0], r[5], r[6]) for r in rows] == [("4", "1.3636", "exact"),
                                                  ("6", "1.4211", "exact")]


def test_make_fixture_image_writes_clean_and_noisy_copies(tmp_path):
    out = run_script("make_fixture_image.py", str(tmp_path / "cartoon.ppm"),
                     "--noisy", "--width", "16", "--height", "16")
    clean = load_ppm(tmp_path / "cartoon.ppm")
    assert np.array_equal(clean, cartoon_fixture(16, 16))
    for tag in ("sp05", "sp10", "g10"):
        path = tmp_path / f"cartoon-{tag}.ppm"
        assert f"wrote {path}" in out
        assert load_ppm(path).shape == (16, 16, 3)
