#!/usr/bin/env python3
"""sipcert benchmark: certification workloads timed end to end, or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...     # every workload, one interpreter each

Run from the root of a source checkout; sipcert is imported from ``src/``.
One operation is what ``sipcert certify FILE --json`` (``admissible`` in the
admissible workload) does after argument parsing: ``cli.cmd_certify`` or
``cli.cmd_admissible``, called in-process with stdout captured.  One client
runs the operations in a closed loop, in whole passes over the workload's
instances, each pass in a seeded shuffled order, until ``--seconds`` have
passed.  Every report is checked (untimed) against ``checks.py``.

Times are scaled to a reference machine speed: ``speed.py``'s fixed probe
runs between the operations (and after each set-up), and every time is
multiplied by ``speed.REF_S / mean probe``.  The unscaled values go to
standard error and to the result file in ``bench/out/``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end
(ops_per_s, op_gmean_ms, setup_s, peak_rss_mb); with ``--trace 1`` they are
the per-layer metrics of ``tracing.METRICS`` plus ``traced.op_gmean_ms``,
and the spans go to ``bench/out/``.
"""

import os

# one BLAS thread: the loop is a single client, and numpy must not spread out
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SIPCERT_SEED"] = "0"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from sipcert import cli  # noqa: E402  (fails here when run outside a checkout)

import checks  # noqa: E402
import instances  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SETUP_RUNS = 5
PROBE_EVERY_S = 0.03  # of operation time between two speed probes
# what a one-shot CLI user waits for besides the certification itself; the
# speed probes run after the clock stops
SETUP_CODE = """
import contextlib, io, statistics, sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import sipcert.cli
from sipcert.fixtures import fixture_path
with contextlib.redirect_stdout(io.StringIO()):
    code = sipcert.cli.main(["certify", fixture_path("cone_orthant"), "--json"])
elapsed = time.perf_counter() - start
import speed
print(elapsed if code == 0 else -1.0, statistics.fmean(speed.probe_s() for _ in range(9)))
"""


def measure_setup():
    """Medians over fresh interpreters of import + one certification: (raw s, scaled s)."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)],
                              capture_output=True, text=True, timeout=120, check=True)
        elapsed, probe = map(float, proc.stdout.split())
        if elapsed < 0:
            raise RuntimeError("the set-up certification failed")
        raw.append(elapsed)
        scaled.append(elapsed * speed.REF_S / probe)
    return statistics.median(raw), statistics.median(scaled)


class Runner:
    def __init__(self, workload, seed, directory):
        self.instances = instances.build(workload, seed, directory)
        for inst in self.instances:
            if inst.command == "admissible":
                inst.reference.update(checks.admissible_reference(inst))
        parser = cli._build_parser()
        self.args = [parser.parse_args(inst.argv()) for inst in self.instances]
        self.rng = np.random.default_rng(seed)
        self.times = [[] for _ in self.instances]
        self.probes = []
        self.since_probe = 0.0
        self.attempted = self.failed = self.wrong = 0
        self.tracer = None

    def op(self, i):
        """One timed operation; returns (exit code, stdout)."""
        handler = getattr(cli, f"cmd_{self.instances[i].command}")  # traced or not
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = handler(self.args[i])
        elapsed = time.perf_counter() - start
        self.times[i].append(elapsed)
        self.since_probe += elapsed
        if self.since_probe >= PROBE_EVERY_S:
            self.probes.append(speed.probe_s())
            self.since_probe = 0.0
        return code, out.getvalue()

    def attempt(self, i):
        inst = self.instances[i]
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        try:
            code, text = self.op(i)
        except Exception as err:  # the program raised: count it, keep measuring
            self.failed += 1
            print(f"FAILED {inst.name}: {type(err).__name__}: {err}", file=sys.stderr)
            return
        try:
            checks.check(inst, code, json.loads(text))
        except (checks.CheckError, KeyError, TypeError, ValueError) as err:
            self.failed += 1
            self.wrong += 1
            print(f"WRONG {inst.name}: {type(err).__name__}: {err}", file=sys.stderr)

    def run_pass(self):
        for i in self.rng.permutation(len(self.instances)):
            self.attempt(int(i))

    def reset(self):
        self.times = [[] for _ in self.instances]
        self.probes = []
        self.attempted = self.failed = self.wrong = 0

    def measure(self, seconds):
        self.probes.append(speed.probe_s())
        start = time.perf_counter()
        while True:
            self.run_pass()
            if time.perf_counter() - start >= seconds:
                break

    # Means, not medians: the machine flips between a fast and a slow state
    # within seconds, and a mean of the operations and a mean of the probes
    # both move linearly with the share of time spent in each state, so
    # their ratio holds still where a ratio of medians jumps.
    def gmean_ms(self):
        means = [statistics.fmean(t) * 1e3 for t in self.times]
        return math.exp(statistics.fmean(math.log(m) for m in means))

    def ops_per_s(self):
        return (self.attempted - self.failed) / sum(sum(t) for t in self.times)

    def slowdown(self):
        """Mean probe time over its reference value: above 1, this run's machine was slower."""
        return statistics.fmean(self.probes) / speed.REF_S


def run(workload, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}"
    directory = OUT / f"instances-{tag}-{os.getpid()}"
    try:
        setup = None if trace else measure_setup()
        runner = Runner(workload, seed, directory)
        runner.run_pass()  # warm-up, checked but not counted
        if runner.failed:
            print(f"warm-up: {runner.failed} of {runner.attempted} failed", file=sys.stderr)
        runner.reset()
        if trace:
            runner.tracer = tracing.Tracer()
            runner.tracer.install()
        runner.measure(seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    slowdown = runner.slowdown()
    raw = {"ops_per_s": runner.ops_per_s(), "op_gmean_ms": runner.gmean_ms(),
           "setup_s": None if trace else setup[0], "slowdown": slowdown}
    if trace:
        tracer = runner.tracer
        values = tracer.metrics(runner.attempted, 1.0 / slowdown)
        values["traced.op_gmean_ms"] = (raw["op_gmean_ms"] / slowdown, "ms")
        tracer.write(OUT / f"trace-{tag}.csv")
        for name in tracer.missing:
            print(f"missing: {name} no longer exists; its metrics are not reported", file=sys.stderr)
    else:
        values = {
            "ops_per_s": (raw["ops_per_s"] * slowdown, "1/s"),
            "op_gmean_ms": (raw["op_gmean_ms"] / slowdown, "ms"),
            "setup_s": (setup[1], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    times = {inst.name: runner.times[i] for i, inst in enumerate(runner.instances)}
    (OUT / f"result-{tag}-trace{int(trace)}.json").write_text(
        json.dumps(dict(result, unscaled=raw, probes_s=runner.probes, op_times_s=times)))
    print(f"unscaled: {json.dumps(raw)}", file=sys.stderr)
    for inst, t in zip(runner.instances, runner.times):
        print(f"{inst.name:20s} n={len(t):4d} mean={statistics.fmean(t) * 1e3:9.3f} ms", file=sys.stderr)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=instances.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        for workload in instances.WORKLOADS:  # a fresh interpreter per workload
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            print(workload, proc.stdout.strip().splitlines()[-1])
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
