"""The benchmark's trace and command lines still fit the program.

``perfbench/spans.py`` wraps public layer functions by dotted name; a
rename in ``eisencount`` silently drops a layer from ``--trace 1`` until
the slow benchmark tests run.  This loads that file, without changing
it, and checks each name against the package, and that the layers it
expects are still reached through those names.  It loads
``perfbench/workloads.py`` the same way and parses every command line
the benchmark can run, so a CLI change that breaks one fails here too,
and checks the default ``verify`` output against the one recorded there.
Commands load their own layers when they run, so it also checks that one
pass of each workload, in a fresh interpreter, loads every layer the
trace wraps.
"""

import importlib.util
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from eisencount import arith, cli, density, report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def _traced_names(spans):
    names = set(spans.COUNT_ONLY) | set(spans.WORK)
    for group in spans.GROUPS.values():
        names.update(group)
    return sorted(name for name in names if "." in name)


def test_every_traced_name_is_a_wrapped_layer_function(spans):
    names = _traced_names(spans)
    assert names
    for name in names:
        layer, attr = name.split(".")
        assert layer in spans.LAYERS, name
        module = importlib.import_module(f"eisencount.{layer}")
        fn = getattr(module, attr, None)
        # The filter Tracer.install applies before wrapping a function.
        assert inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name


def test_expected_groups_are_defined_groups(spans):
    for workload, groups in spans.EXPECTED_GROUPS.items():
        for group in groups:
            assert group in spans.GROUPS, (workload, group)


@pytest.mark.parametrize("series", [density.theta_series, density.rho_series],
                         ids=["theta", "rho"])
def test_series_reaches_each_table_once_through_its_traced_name(
        monkeypatch, sieve, series):
    # density-heavy expects arith.mobius_table and arith.totient_table
    # spans, which exist only if the series calls the very functions that
    # spans.py finds, by identity, in the density namespace.  Each table
    # holds only the odd moduli and stops at S // 3: those above it come
    # from pieces.  phi stops sooner at the cut 2^ceil(96/d), 2^10 at
    # d = 10, past which only the sign of mu is read.
    calls = Counter()
    for name in ("mobius_table", "totient_table"):
        original = getattr(density, name)
        assert original is getattr(arith, name), name

        def counted(limit, *args, _name=name, _original=original, **kwargs):
            assert kwargs.get("odd") is True, _name
            calls[_name, limit] += 1
            return _original(limit, *args, **kwargs)

        monkeypatch.setattr(density, name, counted)
    for d, phi_limit in ((3, 5000 // 3), (10, 1 << 10)):
        calls.clear()
        series(d, sieve, series_limit=5000)
        assert calls == {("mobius_table", 5000 // 3): 1,
                         ("totient_table", phi_limit): 1}, d


def test_every_benchmark_command_line_parses(workloads, parsed):
    lines = [argv for workload in workloads.WORKLOADS
             for argv in workloads.every_command(workload)]
    for argv in lines:
        cli.main.main(argv, standalone_mode=False)
    assert len(parsed) == len(lines)


def test_default_verify_prints_the_recorded_stdout(workloads, monkeypatch):
    # small-verify runs the default grid and wants this stdout byte for byte.
    for name in list(os.environ):
        if name.startswith("EISEN_"):
            monkeypatch.delenv(name)
    result = CliRunner().invoke(cli.main, ["verify"])
    assert result.exit_code == 0
    assert result.stdout == workloads.load_expected()["stdout"]["verify"]


def test_no_benchmark_error_term_line_hits_the_rounding_floor(workloads,
                                                              parsed,
                                                              big_sieve):
    # error-term refuses a constant whose bracket does not keep it from 0;
    # the benchmark's constants are certain to about 1e-5, far from that.
    lines = [argv for workload in workloads.WORKLOADS
             for argv in workloads.every_command(workload)
             if workloads.subcommand(argv) == "error-term"]
    for argv in lines:
        cli.main.main(argv, standalone_mode=False)
    assert len(parsed) == len(lines) > 0
    for cfg, options in parsed:
        rows = report.error_term_profile(
            options["variant"], options["degree"], [2], big_sieve,
            prime_count=options["prime_count"],
            precision_bits=cfg.precision_bits)
        assert len(rows) == 1


# One pass of a workload's command lines through cli.main, output dropped;
# then the loaded eisencount modules.
_ONE_PASS = """
import contextlib, io, sys
import eisencount.cli as cli
for argv in {lines!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(argv, standalone_mode=False)
print(*sorted(m for m in sys.modules if m.startswith("eisencount.")))
"""


def test_one_pass_of_each_workload_loads_every_traced_layer(spans,
                                                            workloads):
    # The traced run wraps the functions of every spans.LAYERS module it
    # finds in sys.modules after one untraced pass; importing the CLI
    # alone no longer loads them all.
    env = {k: v for k, v in os.environ.items() if not k.startswith("EISEN_")}
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for workload in workloads.WORKLOADS:
        lines = workloads.commands(workload, 1)
        done = subprocess.run(
            [sys.executable, "-c", _ONE_PASS.format(lines=lines)],
            env={**env, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, (workload, done.stderr)
        loaded = done.stdout.split()
        assert [layer for layer in spans.LAYERS
                if f"eisencount.{layer}" not in loaded] == [], workload
