"""Builds the compiled kernels in place before the test modules import rturan,
so that wherever a C compiler exists the suite runs both kernel backends."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pytest_sessionstart(session):
    # the extension is optional, so a failed compile still exits 0; the
    # kernel tests then report the missing library
    if shutil.which("cc"):
        subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                       cwd=ROOT, capture_output=True)
