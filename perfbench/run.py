"""Benchmark of the eisencount command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload exact-heavy --seed 1 --seconds 30 --trace 0

``--trace 0`` runs every command of the workload as a child process,
``python -m eisencount.cli`` with the working tree's ``src`` on
PYTHONPATH, in passes over the command list until ``--seconds`` have gone
by, and reports end-to-end metrics (times scaled by the machine's measured
speed, see CALIBRATION_S).  ``--trace 1`` runs the same commands
in this process, alternating an untraced pass with a traced one (see
spans.py), and reports per-layer metrics.  Every output is checked against
values recorded at the seed commit (see workloads.py).

Stdout is a readable table of every metric with its unit and sample count,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The JSON carries the metrics
BENCHMARK.json names; the table also shows the per-subcommand times,
``bracket_digits`` and ``fail_ratio``, which not every workload has.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

# The speed of a shared machine can drift by tens of percent over minutes,
# which swamps differences between commits.  Before every command the run
# times a fixed pure-Python loop; pass and set-up times are reported scaled
# to the loop's reference time, CALIBRATION_S.  On a shared 2-vCPU VM this
# halved the run-to-run spread of wall_s (interquartile range over median,
# 0.18 to 0.08 on density-heavy with 30 s runs).
CALIBRATION_LOOPS = 300_000
CALIBRATION_S = 0.025

# Units of the metrics shown in the table only; BENCHMARK.json gives the rest.
TABLE_UNITS = {
    "raw_setup_s": "s", "raw_wall_s": "s", "speed": "x", "count_s": "s",
    "density_s": "s", "table_s": "s", "verify_s": "s", "error_term_s": "s",
    "bracket_digits": "digits", "fail_ratio": "ratio",
}


def load_units(bench: dict) -> dict[str, str]:
    """Unit of every metric the benchmark can print."""
    units = dict(TABLE_UNITS)
    for section in ("end_to_end", "per_layer"):
        units.update((m["name"], m["unit"]) for m in bench[section])
    return units


def child_env() -> dict[str, str]:
    """This process's environment without EISEN_* and with src first."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EISEN_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict[str, str]):
    """Run one child; return (exit code, stdout, stderr, wall s, peak RSS MB).

    The peak RSS is the child's own, from os.wait4.  RUSAGE_CHILDREN would
    be the largest over every child reaped so far.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    errors = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return (proc.returncode, out.decode(), errors[0].decode(), wall,
            usage.ru_maxrss / 1024)


def calibration_loop() -> float:
    """Seconds this machine takes, right now, for a fixed interpreter loop."""
    start = time.perf_counter()
    total = 0
    for j in range(CALIBRATION_LOOPS):
        total += j * j % 7
    return time.perf_counter() - start


def _median_of(passes, key):
    return statistics.median(key(p) for p in passes)


class Outcome:
    """Checked results of a run: attempts, failures, printed brackets."""

    def __init__(self):
        self.expected = workloads.load_expected()
        self.attempted = 0
        self.failures = []
        self.widths = []

    def record(self, argv, exit_code, stdout, stderr):
        self.attempted += 1
        reason, width = workloads.check(argv, exit_code, stdout, self.expected)
        if reason is not None:
            self.failures.append(f"{' '.join(argv)}: {reason} {stderr.strip()}")
        if width is not None:
            self.widths.append(width)


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    """Child-process passes; end-to-end metrics as (value, samples) pairs."""
    argvs = workloads.commands(workload, seed)
    env = child_env()
    import_only = [sys.executable, "-c", "import eisencount.cli"]
    setup = []

    def time_setup():
        code, _, err, wall, _ = run_child(import_only, env)
        if code != 0:
            raise RuntimeError(f"cannot import eisencount from {SRC}: {err}")
        setup.append(wall)

    time_setup()  # fills the bytecode cache; not a sample
    setup.clear()
    outcome = Outcome()
    passes, calibration = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        results = []
        for argv in argvs:
            # Set-up and calibration samples are spread over the run, so that
            # a slow spell of the machine does not fall on all of them at once.
            calibration.append(calibration_loop())
            time_setup()
            code, out, err, wall, rss = run_child(
                [sys.executable, "-m", "eisencount.cli", *argv], env)
            outcome.record(argv, code, out, err)
            results.append((workloads.subcommand(argv), wall, rss))
        passes.append(results)

    n = len(passes)
    speed = CALIBRATION_S / statistics.median(calibration)
    raw_wall = _median_of(passes, lambda p: sum(r[1] for r in p))
    metrics = {
        "setup_s": (statistics.median(setup) * speed, len(setup)),
        "wall_s": (raw_wall * speed, n),
        "peak_rss_mb": (_median_of(passes, lambda p: max(r[2] for r in p)), n),
        "raw_setup_s": (statistics.median(setup), len(setup)),
        "raw_wall_s": (raw_wall, n),
        "speed": (speed, len(calibration)),
    }
    for sub in dict.fromkeys(workloads.subcommand(a) for a in argvs):
        metrics[sub.replace("-", "_") + "_s"] = (speed * _median_of(
            passes, lambda p: sum(r[1] for r in p if r[0] == sub)), n)
    return _finish(metrics, outcome)


def _finish(metrics, outcome):
    digits = workloads.bracket_digits(outcome.widths)
    if digits is not None:
        metrics["bracket_digits"] = (digits, len(outcome.widths))
    metrics["fail_ratio"] = (len(outcome.failures) / outcome.attempted,
                             outcome.attempted)
    return {"metrics": metrics, "attempted": outcome.attempted,
            "failures": outcome.failures}


@contextlib.contextmanager
def _in_process():
    """src first on sys.path and no EISEN_* variables, restored afterwards."""
    saved_env = {k: v for k, v in os.environ.items() if k.startswith("EISEN_")}
    for key in saved_env:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    try:
        yield
    finally:
        sys.path.remove(str(SRC))
        os.environ.update(saved_env)


def _call_cli(main, argv):
    """Run one command in this process the way the console script does."""
    out, err = io.StringIO(), io.StringIO()
    # Every real invocation is a fresh process, so no cache carries over.
    for name, module in list(sys.modules.items()):
        if name.startswith("eisencount."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="eisencount")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, out.getvalue(), err.getvalue()


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """In-process pairs of an untraced and a traced pass; per-layer metrics."""
    argvs = workloads.commands(workload, seed)
    with _in_process():
        start = time.perf_counter()
        cli = importlib.import_module("eisencount.cli")
        import_s = time.perf_counter() - start
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported eisencount from {cli.__file__}, not {SRC}")

        outcome = Outcome()
        plain_walls, traced_walls, layers, shares = [], [], [], []

        def plain_pass():
            t0 = time.perf_counter()
            for argv in argvs:
                outcome.record(argv, *_call_cli(cli.main, argv))
            plain_walls.append(time.perf_counter() - t0)

        def traced_pass():
            tracer = spans.Tracer()
            tracer.install()
            t0 = time.perf_counter()
            try:
                for argv in argvs:
                    outcome.record(argv, *tracer.span("cli", _call_cli, cli.main, argv))
            finally:
                traced_walls.append(time.perf_counter() - t0)
                tracer.restore()
            layers.append(spans.layer_metrics(tracer, workload))
            shares.append({layer: own / traced_walls[-1] for layer, own
                           in spans.self_time_by_layer(tracer).items()})

        # The first pass in a process pays one-off costs, so it is not timed;
        # after it, the order within a pair alternates.
        plain_pass()
        plain_walls.clear()
        start = time.perf_counter()
        while not layers or time.perf_counter() - start < seconds:
            first, second = ((plain_pass, traced_pass) if len(layers) % 2 == 0
                             else (traced_pass, plain_pass))
            first()
            second()

    n = len(layers)
    metrics = {name: (statistics.median(p[name] for p in layers), n)
               for name in layers[0]}
    metrics["cli.import_s"] = (import_s, 1)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls), n)
    result = _finish(metrics, outcome)
    result["shares"] = {layer: statistics.median(s.get(layer, 0.0) for s in shares)
                        for layer in sorted(set().union(*shares))}
    return result


def _print_report(workload, seed, result, bench, trace):
    metrics = result["metrics"]
    units = load_units(bench)
    print(f"# {workload} seed={seed} attempted={result['attempted']} "
          f"failed={len(result['failures'])}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    print(f"{'metric':<34} {'median':>14} {'unit':<10} samples")
    for name, (value, samples) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {units[name]:<10} {samples}")
    for layer, share in result.get("shares", {}).items():
        print(f"share of traced pass: {layer:<10} {share:7.1%} (self time)")
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in bench["per_layer" if trace else "end_to_end"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eisencount" / "cli.py").is_file():
        print(f"no eisencount sources under {SRC}", file=sys.stderr)
        return 1
    bench = json.loads(BENCHMARK.read_text())
    run = run_traced if args.trace else run_untraced
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(_print_report(args.workload, args.seed, result, bench, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
