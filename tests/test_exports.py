import os
import subprocess
import sys
from pathlib import Path

import boundprop


def test_every_export_resolves():
    assert len(set(boundprop.__all__)) == len(boundprop.__all__)
    missing = [name for name in boundprop.__all__ if not hasattr(boundprop, name)]
    assert not missing


def test_import_leaves_numpy_unloaded():
    # Only the exact-inference oracle uses NumPy, and imports it when called.
    src = Path(boundprop.__file__).resolve().parent.parent
    code = "import sys, boundprop, boundprop.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
