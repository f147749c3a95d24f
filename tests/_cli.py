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


# the CLI in a child that prints its own peak RSS, VmHWM in KB, as the
# last line of its stderr.  A child's RUSAGE_SELF and os.wait4 both keep
# the high-water mark of the process that forked it across exec, and
# RUSAGE_CHILDREN the largest of every earlier child.
_PEAK_RSS_CHILD = """
import sys
from flagtor import cli
code = cli.run(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")),
          file=sys.stderr)
sys.exit(code)
"""


def flagtor_peak_rss(*args):
    """Run the CLI on args in a child; the completed child, which must
    exit 0, and its own peak RSS in KB."""
    r = python("-c", _PEAK_RSS_CHILD, *args)
    assert r.returncode == 0, r.stderr
    return r, int(r.stderr.split()[-1])
