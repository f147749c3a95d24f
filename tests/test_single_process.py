"""Every sweep runs in the calling process.

No module of the package may import a process or thread pool, and no
function may take a ``threads`` parameter.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flagtor"
POOLS = {"multiprocessing", "concurrent"}


def _offences(module, tree):
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        for name in names:
            if name.split(".")[0] in POOLS:
                out.append(f"{module}.py:{node.lineno} imports {name}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            if any(p.arg == "threads"
                   for p in a.posonlyargs + a.args + a.kwonlyargs):
                out.append(f"{module}.py:{node.lineno} {node.name} "
                           "takes threads")
    return out


def test_no_pools_and_no_threads_parameter():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10  # the scan did find the package
    offences = []
    for path in modules:
        offences += _offences(path.stem, ast.parse(path.read_text()))
    assert not offences, offences
