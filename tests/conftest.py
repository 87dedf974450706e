import os
import subprocess
import sys
from pathlib import Path

import pytest

import subbandeq

SRC = str(Path(subbandeq.__file__).resolve().parents[1])


def _run_python(*args, threads=None, timeout=120):
    """python *args in a fresh process that imports this checkout's subbandeq.

    threads, when given, sets OPENBLAS_NUM_THREADS and OMP_NUM_THREADS.
    Raises CalledProcessError on a nonzero exit; stdout and stderr are text.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, timeout=timeout)


@pytest.fixture(scope="session")
def run_python():
    return _run_python
