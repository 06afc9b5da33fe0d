"""The benchmark's span tracer still finds every layer boundary it wraps.

bench/spans.py patches module globals by name, so a rename in the package
would silently zero a per-layer metric; it reports each missing target on
stderr instead, and this test keeps that report empty.
"""
from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_span_targets_all_resolve():
    code = "import spans; spans.install(spans.Tracer())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "not found" not in proc.stderr and "not importable" not in proc.stderr, proc.stderr
