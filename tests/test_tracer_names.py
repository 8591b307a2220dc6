"""The benchmark's tracer can still find every name it wraps.

``perfbench/tracer.py`` replaces module attributes and methods of gridfair
by name before a traced sweep; a name that is renamed or removed makes
``run.py --trace 1`` fail with ``AttributeError`` before the sweep starts.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_over_the_package():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); "
        "import tracer; tracer.Tracer().install()"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
