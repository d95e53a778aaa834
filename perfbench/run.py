"""Pipeline benchmark for su21: end-to-end metrics per workload, or, with
--trace 1, per-layer metrics from spans around each layer's public names.

Run from the repository root, against the package source in src/:

    python3 perfbench/run.py --workload gamma3 --seed 1 --seconds 30 --trace 0

Workloads: gamma3, survey40, elements (see workloads.py and NOTES.md).
Each pass starts from a freshly imported su21, regenerates the inputs from
the seed (timed as set-up) and solves every input once, so nothing the
package caches carries over between passes.  Passes repeat until --seconds
have gone by.  Every answer is checked by an exact oracle outside the timed
region on its first pass and compared with that answer on later passes.
The last line of output is one JSON object with the result.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe
from tracing import LAYER_METRICS, Tracer, loaded_modules
from workloads import WORKLOADS, WrongAnswer, known_defect

SRC = Path(__file__).resolve().parent.parent / "src"
LAYER_MODULES = ("matgroup", "fpgroup", "cocycle", "weightdenom", "zlinalg", "gendecomp")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Tail percentiles in per mille, highest first; the reported tail is the
# highest one with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (999, 990, 950, 900, 750)
TAIL_BEYOND = 10

# Seconds of set-up to repeat within each pass (see Run.one_pass).
SETUP_REPEAT_S = 0.5


class SetupError(RuntimeError):
    """The package source cannot be imported from this checkout."""


def fresh_import():
    """Import su21 from src/ anew (dropping any loaded copy) and return its
    loaded modules by name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "su21" or n.startswith("su21.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("su21")
        for name in LAYER_MODULES:
            importlib.import_module("su21." + name)
    except ImportError as exc:
        raise SetupError("cannot import su21 from %s: %s" % (SRC, exc)) from exc
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise SetupError("su21 was imported from %s, not from %s" % (package.__file__, SRC))
    return loaded_modules()


def tail(values):
    """(percentile, value): the highest percentile of TAIL_LADDER with at
    least TAIL_BEYOND values beyond it, else the median."""
    ordered = sorted(values)
    n = len(ordered)
    for per_mille in TAIL_LADDER:
        rank = -(-per_mille * n // 1000)
        if n - rank >= TAIL_BEYOND:
            return per_mille / 10, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def environment(seed):
    su21 = fresh_import()
    available = getattr(su21["zlinalg"], "compiled_kernels_available", None)
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiled_kernels_available": available() if available else "absent",
    }


class Run:
    """The state of one benchmark run: timed intervals, failures and traces.

    Intervals are kept raw as (start, end, probe busy time) and converted to
    calibrated seconds by the clock once the run is over."""

    def __init__(self, workload, seed, trace, clock):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.clock = clock
        self.setups = []
        self.passes = []
        self.traced = []
        self.first = None
        self.failures = Counter()
        self.defects = Counter()
        self.attempted = 0
        self.failed = 0
        self.defective = 0

    def _interval(self, start, busy):
        return start, perf_counter(), self.clock.busy - busy

    def one_pass(self):
        """Set up from a fresh import, then solve every input once.

        A set-up that takes less than SETUP_REPEAT_S is repeated within the
        pass until that much has gone by, so that the median set-up time
        rests on many samples even when a run has only a few passes."""
        began = perf_counter()
        while True:
            # free the previous set-up's modules and inputs, so that peak
            # memory does not depend on how many passes fit in the run
            su21 = items = None
            gc.collect()
            start, busy = perf_counter(), self.clock.busy
            su21 = fresh_import()
            items = self.workload.make_inputs(su21, self.seed)
            self.setups.append(self._interval(start, busy))
            if perf_counter() - began >= SETUP_REPEAT_S:
                break
        if self.first is None:
            self.first = [None] * len(items)
        tracer = None
        if self.trace and len(self.passes) > len(self.traced):
            tracer = Tracer(self.clock)
            tracer.install(su21)
        intervals = []
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.input_id = i
            start, busy = perf_counter(), self.clock.busy
            answer, errors = self.workload.solve(su21, item)
            intervals.append(self._interval(start, busy))
            self.attempted += 1
            failures = [(stage, exc) for stage, exc in errors if not known_defect(stage, exc)]
            self.failed += bool(failures)
            self.defective += len(failures) < len(errors)
            for stage, exc in errors:
                self._record(self.failures if (stage, exc) in failures else self.defects,
                             stage, exc)
            if answer is not None:
                self._check(su21, i, item, answer)
        if tracer is None:
            self.passes.append(intervals)
        else:
            self.traced.append((intervals, tracer))

    def _record(self, tally, stage, exc):
        key = (stage, type(exc).__name__)
        if key not in tally:
            print("first %s in %s:" % (key[1], stage), file=sys.stderr)
            traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
        tally[key] += 1

    def _check(self, su21, i, item, answer):
        summary = self.workload.summarize(answer)
        if self.first[i] is None:
            self.workload.check(su21, item, answer)
            self.first[i] = summary
        elif summary != self.first[i]:
            raise WrongAnswer(
                "input %d: answer %r differs from the first pass's %r"
                % (i, summary, self.first[i])
            )

    def end_to_end(self):
        """(metrics, notes): calibrated end-to-end metrics, and lines that
        explain the tail and give the raw seconds beside them."""
        calibrated = self.clock.calibrated
        times = [[calibrated(*iv) for iv in intervals] for intervals in self.passes]
        per_input = [statistics.median(column) for column in zip(*times)]
        wall = statistics.median(sum(t) for t in times)
        percentile, tail_value = tail(per_input)
        metrics = {
            "setup_s": statistics.median(calibrated(*iv) for iv in self.setups),
            "wall_s": wall,
            "ops_per_s": len(per_input) / wall,
            "op_p50_s": statistics.median(per_input),
            "op_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        raw_wall = statistics.median(sum(e - s for s, e, _ in p) for p in self.passes)
        raw_setup = statistics.median(e - s for s, e, _ in self.setups)
        notes = [
            "op_tail_s is p%g of %d per-input medians (%d samples beyond it)"
            % (percentile, len(per_input), sum(1 for v in per_input if v > tail_value)),
            "raw seconds, uncalibrated: wall %.4f, setup %.4f; calibration factor %.4f"
            % (raw_wall, raw_setup, wall / raw_wall),
        ]
        return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes

    def per_layer(self):
        """(metrics, per-span summary of the last traced pass, absent
        metrics): medians over the traced passes."""
        calibrated = self.clock.calibrated
        untraced = statistics.median(
            sum(calibrated(*iv) for iv in intervals) for intervals in self.passes
        )
        passes = []
        for intervals, tracer in self.traced:
            wall = sum(calibrated(*iv) for iv in intervals)
            net = sum(end - start - busy for start, end, busy in intervals)
            values, spans = tracer.layer_metrics(wall, untraced, wall / net)
            passes.append(values)
        metrics = {
            name: (statistics.median(p[name] for p in passes), unit)
            for name, (unit, _, _) in LAYER_METRICS.items()
        }
        return metrics, spans, tracer.absent_metrics()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        env = environment(args.seed)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    env.update(workload=args.workload, trace=args.trace)
    print("env %s" % json.dumps(env, sort_keys=True))

    # A traced run alternates untraced passes (the overhead baseline) with
    # traced ones, starting untraced.
    clock = SpeedProbe()
    run = Run(WORKLOADS[args.workload], args.seed, bool(args.trace), clock)
    start = perf_counter()
    try:
        with clock:
            while True:
                run.one_pass()
                done = len(run.passes) + len(run.traced)
                if perf_counter() - start >= args.seconds and done >= 1 + args.trace:
                    break
    except WrongAnswer as exc:
        print("perfbench: wrong answer: %s" % exc, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1

    print("passes %d untraced, %d traced, %d inputs each; closed loop, one caller"
          % (len(run.passes), len(run.traced), len(run.first)))
    if args.trace:
        metrics, spans, absent = run.per_layer()
        print("spans (last traced pass): name calls total_s self_s")
        for name, (calls, total, own) in spans.items():
            print("  %-40s %8d %10.4f %10.4f" % (name, calls, total, own))
        if absent:
            print("absent (name missing from su21): %s" % ", ".join(absent))
    else:
        metrics, notes = run.end_to_end()
        print("\n".join(notes))
    for name, (value, unit) in metrics.items():
        print("metric %-36s %s %s" % (name, value, unit))
    print("failed_frac %s (%d failed of %d attempted)"
          % (run.failed / run.attempted, run.failed, run.attempted))
    print("failures by stage and type: %s" % json.dumps(
        {"%s %s" % key: count for key, count in sorted(run.failures.items())}))
    print("known float-sigma defect (ValueError outside the domain): in %s of operations"
          " (%d of %d); sigma values left undefined, by stage: %s"
          % (run.defective / run.attempted, run.defective, run.attempted, json.dumps(
              {"%s %s" % key: count for key, count in sorted(run.defects.items())})))
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
