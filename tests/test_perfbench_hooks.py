"""The benchmark's tracer wraps rckit's functions by their module attribute
names, so removing one of those names must fail here, not only in a traced
benchmark run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_patch_point():
    # -B: leave no bytecode cache in perfbench/
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import tracer; tracer.install()"],
        cwd=ROOT / "perfbench",
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
