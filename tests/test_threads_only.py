"""No module of the package starts a process: its workers are threads.

Sweeps and Weil audits share one interpreter's towers and contexts, so a
forked copy of the interpreter would only cost memory and start-up time.
This scan keeps multiprocessing and os.fork from coming back unnoticed.
"""

import ast
import glob
import os

import ffpn

SRC = os.path.dirname(ffpn.__file__)


def _process_uses(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        hits = [n for n in names if n.split(".")[0] == "multiprocessing" or n == "os.fork"]
        if hits:
            yield f"{os.path.basename(path)}:{node.lineno}: {hits[0]}"


def test_no_module_imports_multiprocessing_or_forks():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    assert [use for path in paths for use in _process_uses(path)] == []


def test_the_scan_sees_each_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import multiprocessing\n"
        "import multiprocessing.pool as mpp\n"
        "from multiprocessing import Pool\n"
        "from os import fork\n"
        "import os\n"
        "os.fork()\n",
        encoding="utf-8",
    )
    assert [use.split(": ")[0] for use in _process_uses(str(path))] == [
        "probe.py:1", "probe.py:2", "probe.py:3", "probe.py:4", "probe.py:6"
    ]
