"""A fresh interpreter on the source tree under test, for checks that need a
process no earlier test has imported anything into."""

import os
import subprocess
import sys
from pathlib import Path

import splitio

SRC = Path(splitio.__file__).resolve().parents[1]


def source_env() -> dict[str, str]:
    """This process's environment with the package's source tree first on
    PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code with `python -c` in a fresh interpreter; args follow it in
    sys.argv."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=source_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
