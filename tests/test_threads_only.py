"""No module of the package starts a process, and only the sweep starts threads.

Sweeps share one interpreter's towers and contexts, so a forked copy of the
interpreter would only cost memory and start-up time, and the Weil audit
runs in the calling thread.  This scan keeps multiprocessing and os.fork
from coming back unnoticed, and keeps search.py the one module that may
import concurrent.futures or use threading.Thread.
"""

import ast
import glob
import os

import ffpn

SRC = os.path.dirname(ffpn.__file__)
PROCESS = ("multiprocessing", "os.fork")
POOL = ("concurrent.futures", "threading.Thread")


def _uses(path, banned):
    """file:line: name for each import or attribute that names a banned module or name."""
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
        hits = [n for n in names if any(n == b or n.startswith(b + ".") for b in banned)]
        if hits:
            yield f"{os.path.basename(path)}:{node.lineno}: {hits[0]}"


def _paths():
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths
    return paths


def test_no_module_imports_multiprocessing_or_forks():
    assert [use for path in _paths() for use in _uses(path, PROCESS)] == []


def test_only_the_sweep_starts_a_thread_pool():
    uses = [use for path in _paths() for use in _uses(path, POOL)]
    assert [use for use in uses if not use.startswith("search.py:")] == []
    assert [use.split(": ")[1] for use in uses] == ["concurrent.futures"]


def test_the_scan_sees_each_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import multiprocessing\n"
        "import multiprocessing.pool as mpp\n"
        "from multiprocessing import Pool\n"
        "from os import fork\n"
        "import os\n"
        "os.fork()\n"
        "import concurrent.futures\n"
        "from concurrent import futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import threading\n"
        "threading.Thread(target=print)\n"
        "from threading import Thread\n"
        "threading.Lock()\n",
        encoding="utf-8",
    )
    uses = [use.split(": ")[0] for use in _uses(str(path), PROCESS + POOL)]
    assert sorted(uses, key=lambda use: int(use.split(":")[1])) == [
        "probe.py:1", "probe.py:2", "probe.py:3", "probe.py:4", "probe.py:6",
        "probe.py:7", "probe.py:8", "probe.py:9", "probe.py:11", "probe.py:12",
    ]
