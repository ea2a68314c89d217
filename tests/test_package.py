"""The package's export list, and what importing it and running its
console entry do to the process."""

import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_exports_resolve_on_first_use():
    from eisencount import density
    assert set(eisencount.__all__) <= set(dir(eisencount))
    assert eisencount.theta_product is density.theta_product
    with pytest.raises(AttributeError, match="no_such_name"):
        eisencount.no_such_name


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
    # The package loads no layer, so numpy comes in with arith.
    assert _after_import("import sys, eisencount.arith; "
                         "print('numpy' in sys.modules, "
                         "len(os.listdir('/proc/self/task')))") == "True 1\n"


def test_cli_import_loads_only_what_every_subcommand_needs():
    # arith, counting, density and report, and numpy with them, load when
    # a command that needs them runs; the package still sets the BLAS
    # thread count first.
    blas, numpy, loaded = _after_import(
        "import sys, eisencount.cli; print(os.environ['OPENBLAS_NUM_THREADS']);"
        " print('numpy' in sys.modules);"
        " print(*sorted(m for m in sys.modules if m.startswith('eisencount')))"
    ).splitlines()
    assert blas == "1"
    assert numpy == "False"
    assert loaded.split() == ["eisencount", "eisencount.cli",
                              "eisencount.errors", "eisencount.oracle",
                              "eisencount.results"]


def test_import_keeps_a_caller_set_blas_thread_count():
    assert _after_import("print(os.environ['OPENBLAS_NUM_THREADS'])",
                         OPENBLAS_NUM_THREADS="3") == "3\n"


def test_import_leaves_the_collector_alone():
    assert _after_import("import gc, eisencount.cli; "
                         "print(gc.isenabled(), gc.get_freeze_count())"
                         ) == "True 0\n"


def _run_cli(*argv, prelude=""):
    """Run ``prelude``, then eisencount.cli as __main__ with ``argv``, in a
    fresh interpreter; return the finished process."""
    src = os.path.dirname(os.path.dirname(eisencount.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("EISEN_")}
    code = (f"{prelude}\nimport runpy, sys\nsys.argv[1:] = {list(argv)!r}\n"
            "runpy.run_module('eisencount.cli', run_name='__main__')")
    return subprocess.run([sys.executable, "-c", code],
                          env={**env, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)


def test_cli_entry_exits_with_the_import_heap_frozen():
    # An atexit hook runs after click's SystemExit, so this also shows that
    # exit handlers and the stdout flush still run.
    done = _run_cli("count", "-d", "2", "-H", "2", "--variant", "monic",
                    prelude="import atexit, gc; atexit.register(lambda: "
                            "print('frozen', gc.get_freeze_count()))")
    assert done.returncode == 0, done.stderr
    count, frozen = done.stdout.splitlines()
    assert count == "6"
    assert re.fullmatch(r"frozen [1-9]\d*", frozen)


# At exit: is numpy loaded, and is either module's namespace left for
# the exit collection to walk?
_UNFROZEN_AT_EXIT = """
import atexit, gc, sys
def unfrozen(name):
    namespace = vars(sys.modules[name])
    return any(obj is namespace for obj in gc.get_objects())
atexit.register(lambda: print('numpy' in sys.modules, unfrozen('numpy'),
                              unfrozen('eisencount.counting')))
"""


def test_cli_entry_freezes_what_the_command_loaded():
    # numpy and counting load inside the command, after the first freeze.
    done = _run_cli("count", "-d", "2", "-H", "2", "--variant", "monic",
                    prelude=_UNFROZEN_AT_EXIT)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["6", "True False False"]


_NUMPY_AT_EXIT = ("import atexit, sys; atexit.register(lambda: "
                  "print('numpy', 'numpy' in sys.modules))")


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["count", "--help"], 0),
    (["count", "-d", "1", "-H", "2", "--variant", "monic"], 2),
    (["--enumeration-budget", "10", "count", "-d", "3", "-H", "20",
      "--variant", "general", "--method", "both"], 3),
    (["count", "-d", "1000000", "-H", "100", "--variant", "monic"], 3),
    (["density", "-d", "2", "--kind", "theta", "--method", "series",
      "--prime-count", "5"], 2),
    (["count", "-d", "3", "-H", "10000000001", "--variant", "monic"], 3),
    (["error-term", "--variant", "monic", "-d", "3", "--heights", "3,2"], 2),
    (["--sieve-limit", "10", "density", "-d", "2", "--kind", "theta"], 3),
    (["--sieve-limit", "10", "table"], 3),
    (["table", "--degrees", "1..4"], 2),
    (["table", "--degrees", "5..4", "--prime-count", "6000000"], 2),
    (["--sieve-limit", "10", "verify"], 3),
], ids=["help", "count-help", "usage", "box-refusal", "digit-refusal",
        "density-usage", "height-cap-refusal", "heights-usage",
        "density-sieve-refusal", "table-sieve-refusal", "degree-usage",
        "empty-degrees-before-sieve-refusal", "verify-sieve-refusal"])
def test_cli_entry_that_computes_nothing_never_loads_numpy(argv, code):
    # Help, usage errors and the refusals that need no array finish
    # before any layer that imports numpy loads.
    done = _run_cli(*argv, prelude=_NUMPY_AT_EXIT)
    assert done.returncode == code, done.stderr
    assert done.stdout.splitlines()[-1] == "numpy False"


# A library result outside the possible range: a broken invariant.
IMPOSSIBLE = """
from eisencount import counting, results
counting.count_monic_eisenstein = lambda d, H, sieve: results.ExactCount(
    value=-1, degree=d, height=H, variant="monic",
    method="inclusion_exclusion")
"""


@pytest.mark.parametrize("argv, prelude, code", [
    (["count", "-d", "2", "-H", "2", "--variant", "monic"], "", 0),
    (["count", "-d", "1", "-H", "2", "--variant", "monic"], "", 2),
    (["--enumeration-budget", "1", "count", "-d", "2", "-H", "2",
      "--variant", "monic", "--method", "brute"], "", 3),
    (["count", "-d", "2", "-H", "2", "--variant", "monic"], IMPOSSIBLE, 4),
], ids=["ok", "usage", "refusal", "invariant"])
def test_cli_entry_keeps_the_exit_codes(argv, prelude, code):
    assert _run_cli(*argv, prelude=prelude).returncode == code


def test_console_script_and_main_block_call_the_same_entry():
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    # Read as text: tomllib is 3.11+, and 3.10 is supported.
    [entry] = re.findall(r'^eisencount = "eisencount\.cli:(\w+)"$', pyproject,
                         re.M)
    source = Path(eisencount.__file__).with_name("cli.py").read_text()
    assert source.endswith(f'\nif __name__ == "__main__":\n    {entry}()\n')
