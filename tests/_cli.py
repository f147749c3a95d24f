"""Run the tree's own CLI in a child process.

The child is ``python -m flagtor`` with this tree's ``src`` first on
``PYTHONPATH``, so the tests exercise the source under test whatever the
working directory and whatever ``flagtor`` is installed or on PATH.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _env():
    """The environment with the tree's ``src`` first on the path."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([SRC, rest]) if rest else SRC
    return env


def python(*args):
    """Run this interpreter on args with the tree's ``src`` first on the path."""
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=_env())


def flagtor(*args):
    return python("-m", "flagtor", *args)


def spawn_flagtor(*args):
    """Start the CLI on args, with its stdout and stderr on pipes."""
    return subprocess.Popen([sys.executable, "-m", "flagtor", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
