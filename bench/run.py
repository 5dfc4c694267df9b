"""Fixed-corpus benchmark of detindex, from CLI command to verified report.

    python3 bench/run.py --workload germ-session --seed 1 --seconds 30 --trace 0

One closed-loop client in one process and one thread runs the workload's
commands through `detindex.cli.run`, in-process: the next command starts
only after the previous report is written.  Passes over the command list
repeat until another pass would overrun `--seconds` (at least one pass).
Every report is checked against the hand-written references.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` one untraced pass is followed by one traced pass (see
tracing.py) and the line carries the per-layer metrics.
The exit code is 0 only when every report matches its reference.
"""

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

import corpus
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 15


def _import_detindex():
    """Import the package afresh from the checkout's `src`."""
    for name in [n for n in sys.modules if n == "detindex" or n.startswith("detindex.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    try:
        cli = importlib.import_module("detindex.cli")
    except ImportError as exc:
        raise SystemExit("error: cannot import detindex from %s: %s" % (SRC, exc)) from None
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        raise SystemExit("error: detindex was imported from %s, not from %s" % (cli.__file__, SRC))
    return cli


def setup(workload, seed, workdir):
    """Import detindex and write the seeded corpus, SETUP_REPEATS times.
    Returns the cli module, the commands and the set-up times."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        cli = _import_detindex()
        commands = corpus.generate(workload, seed, os.path.join(workdir, "manifests"))
        times.append(time.perf_counter() - start)
    os.makedirs(os.path.join(workdir, "reports"))
    return cli, commands, times


def _same_minors(got, expected, variables):
    """Equal lists of minors up to order and sign of each minor."""
    from detindex import RingContext, parse_poly

    ring = RingContext(tuple(variables))
    have = [parse_poly(s, ring) for s in got]
    want = [parse_poly(s, ring) for s in expected]
    return len(have) == len(want) and all(any(h == w or h == -w for h in have) for w in want)


def _check_report(cmd, code, path):
    """Why a command's report differs from its reference, or None."""
    if code != cmd.exit_code:
        return "exit code %d, expected %d" % (code, cmd.exit_code)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return "no readable report: %s" % exc
    if doc.get("command") != cmd.name:
        return "report of command %r" % doc.get("command")
    result = doc.get("result")
    if cmd.name == "minors":
        try:
            ok = (result["size"] == cmd.result["size"]
                  and _same_minors(result["minors"], cmd.result["minors"], doc["manifest"]["variables"]))
        except (KeyError, TypeError, ValueError):  # malformed report or minor
            ok = False
    else:
        ok = result == cmd.result
    if not ok:
        return "result %r, expected %r" % (result, cmd.result)
    oracle = doc.get("provenance", {}).get("oracle")
    if oracle != cmd.oracle:
        return "oracle block %r, expected %r" % (oracle, cmd.oracle)
    return None


def run_pass(cli, commands, report_dir, tracer=None):
    """One closed-loop pass through `cli.run`, each command under a
    `cli.run` span when traced; returns its wall time, each command's
    time and the list of failures."""
    times = []
    codes = []
    start = time.perf_counter()
    for i, cmd in enumerate(commands):
        argv = cmd.argv + ["--output", os.path.join(report_dir, "%d.json" % i)]
        t0 = time.perf_counter()
        if tracer is None:
            codes.append(cli.run(argv))
        else:
            tracer.command = cmd.id
            with tracer.span("cli.run"):
                codes.append(cli.run(argv))
        times.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    failures = []
    for i, cmd in enumerate(commands):
        why = _check_report(cmd, codes[i], os.path.join(report_dir, "%d.json" % i))
        if why:
            failures.append("%s: %s" % (cmd.id, why))
    return wall, times, failures


def measure(cli, commands, seconds, report_dir):
    """Untraced passes until another would overrun `seconds`.  Returns the
    pass wall times, every time of each command id, and the failures."""
    walls, per_command, failures = [], defaultdict(list), []
    start = time.perf_counter()
    while True:
        wall, times, bad = run_pass(cli, commands, report_dir)
        walls.append(wall)
        failures += bad
        for cmd, t in zip(commands, times):
            per_command[cmd.id].append(t)
        if time.perf_counter() - start + wall > seconds:
            return walls, per_command, failures


def cmd_geomean(per_command):
    """Geometric mean over commands of each command's median time."""
    return math.exp(statistics.fmean(math.log(statistics.median(t)) for t in per_command.values()))


def traced(commands, cli, report_dir, trace_path):
    """One untraced pass, then one traced pass; per-layer metrics and the
    untraced pass's wall time."""
    wall, _, failures = run_pass(cli, commands, report_dir)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced_wall, _, bad = run_pass(cli, commands, report_dir, tracer)
    tracer.dump(trace_path)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    return metrics, wall, failures + ["%s (traced)" % why for why in bad]


def _layer_shares(metrics):
    """Each layer's share of the traced cli.run time."""
    layers = {}
    for name, (value, unit) in metrics.items():
        if unit == "s" and name not in ("cli.run_s", "trace.overhead_s"):
            layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + value
    total = metrics["cli.run_s"][0]
    return "  ".join("%s %.1f%%" % (k, 100 * v / total) for k, v in layers.items())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT, "run-%d" % os.getpid())
    try:
        cli, commands, setup_times = setup(args.workload, args.seed, workdir)
        report_dir = os.path.join(workdir, "reports")
        if args.trace:
            trace_path = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
            metrics, wall, failures = traced(commands, cli, report_dir, trace_path)
            attempted = 2 * len(commands)
            print("%s seed %d: %d commands, one untraced and one traced pass; spans in %s"
                  % (args.workload, args.seed, len(commands), os.path.relpath(trace_path, ROOT)))
            print("untraced pass %.3f s; share of traced cli.run: %s" % (wall, _layer_shares(metrics)))
        else:
            walls, per_command, failures = measure(cli, commands, args.seconds, report_dir)
            metrics = {
                "pass_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "setup_s": (statistics.median(setup_times), "s"),
            }
            attempted = len(commands) * len(walls)
            print("%s seed %d: %d commands x %d passes; pass_s is the median of %d passes, "
                  "setup_s of %d set-ups" % (args.workload, args.seed, len(commands), len(walls),
                                             len(walls), SETUP_REPEATS))
            # Printed, not in the result line: see README.md, "End-to-end metrics".
            print("cmd_geomean_s %.6g s over the medians of %d distinct commands"
                  % (cmd_geomean(per_command), len(per_command)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return emit(metrics, attempted, failures)


def emit(metrics, attempted, failures):
    """Print the metrics, the result line last; return the exit code."""
    for line in failures:
        sys.stderr.write("FAILED %s\n" % line)
    print("fail_ratio %.4f (%d of %d failed)" % (len(failures) / attempted, len(failures), attempted))
    for name, (value, unit) in metrics.items():
        print("%-36s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
