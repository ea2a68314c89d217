"""The package's export list and what importing it does to the process."""

import os
import subprocess
import sys

import pytest

import eisencount


def test_every_export_resolves():
    missing = [name for name in eisencount.__all__
               if not hasattr(eisencount, name)]
    assert missing == []
    assert len(set(eisencount.__all__)) == len(eisencount.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from eisencount import *", namespace)
    assert set(eisencount.__all__) <= set(namespace)


def _after_import(code, **env):
    """Run ``import eisencount`` then ``code`` in a fresh interpreter whose
    environment lacks OPENBLAS_NUM_THREADS unless given; return stdout."""
    src = os.path.dirname(os.path.dirname(eisencount.__file__))
    child_env = {k: v for k, v in os.environ.items()
                 if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", f"import os, eisencount; {code}"],
        env=child_env, capture_output=True, text=True, check=True,
        timeout=60).stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_import_starts_no_blas_worker_threads():
    assert _after_import("print(len(os.listdir('/proc/self/task')))") == "1\n"


def test_import_keeps_a_caller_set_blas_thread_count():
    assert _after_import("print(os.environ['OPENBLAS_NUM_THREADS'])",
                         OPENBLAS_NUM_THREADS="3") == "3\n"
