"""Benchmark entry point for irsim.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run it from the root of a source checkout: the package is imported from
``src/`` (it need not be installed). The run prints the machine facts, the
operations attempted and failed (with the reason of each failure) and, as
its last line, one JSON object. With ``--trace 0`` its metrics are the
end-to-end metrics of BENCHMARK.json, measured untraced; with ``--trace 1``
they are the per-layer metrics, from a run whose irsim calls are wrapped in
spans, and the report also gives self time per module and the tracing
overhead. ``figure_sweeps`` is not in BENCHMARK.json (see the README) but
runs the same way.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
# one process, and BLAS on one thread (no more than nproc): the problems are
# small, and extra threads only add run-to-run noise
ENV = {
    "IRSIM_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 15
# kernel time before and after each set-up interpreter, as a share of its time:
# a short set-up is scored against a long stretch of kernel on both sides
SETUP_KERNEL_SHARE = 1.0
SETUP_CODE = "import sys, irsim; irsim.ScenarioConfig.from_file(sys.argv[1])"
MIN_OP_COVERAGE = 0.90  # share of timed operation time that irsim spans must explain


class SetupClock:
    """Times fresh interpreters that import irsim and load the INI, spread over the run.

    Each set-up time is converted to the reference speed by the run's
    RefClock, measured just before and just after it, and the run reports
    their median.
    """

    def __init__(self, ini: str, seconds: float, clock):
        self.ini = ini
        self.seconds = seconds
        self.clock = clock
        self.start = time.perf_counter()
        self.times: list[float] = []  # wall seconds
        self.refs: list[float] = []  # the same at the reference speed

    def spawn(self) -> None:
        self.clock.mark(self.times[-1] if self.times else 0.25, SETUP_KERNEL_SHARE)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, self.ini], env=dict(os.environ, PYTHONPATH=SRC),
                       check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        self.times.append(time.perf_counter() - t0)
        self.refs.append(self.clock.to_ref(self.times[-1], SETUP_KERNEL_SHARE))

    def catch_up(self, elapsed: float | None = None) -> None:
        """Spawn until the count keeps pace with the share of the run that has passed."""
        if elapsed is None:
            elapsed = time.perf_counter() - self.start
        while len(self.times) < max(1, math.ceil(SETUP_REPEATS * min(1.0, elapsed / self.seconds))):
            self.spawn()

    def median(self) -> float:
        self.catch_up(self.seconds)
        return statistics.median(self.refs)


def run_rounds(min_rounds: int, seconds: float, do_round) -> int:
    """Call ``do_round(r)`` for whole rounds until ``seconds`` have passed and ``min_rounds`` are done."""
    start = time.perf_counter()
    done = 0
    while done < min_rounds or time.perf_counter() - start < seconds:
        do_round(done)
        done += 1
    return done


def machine_facts() -> str:
    import numpy
    import scipy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas_threads={ENV['OPENBLAS_NUM_THREADS']} "
            f"IRSIM_WORKERS={ENV['IRSIM_WORKERS']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("figure_sweeps", "cpi_draws", "power_eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "irsim", "__init__.py")):
        print(f"error: no irsim sources under {SRC}; run from the root of an irsim checkout", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)

    os.environ.update(ENV)
    sys.path.insert(0, SRC)
    import refclock  # after the environment is set: these import numpy and irsim
    import spans as tracing
    import workloads

    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
        print(f"machine: {machine_facts()}")
        if args.trace:
            # rounds alternate untraced and traced, so both sides see the
            # same mix of machine speeds; per-layer figures come from the
            # traced rounds only
            tracer = tracing.Tracer()
            reference, run = workloads.Run(), workloads.Run(tracer)

            def alternate(r: int) -> None:
                if r % 2:
                    tracer.install()
                    try:
                        run.round(lambda: wl.round(run, r))
                    finally:
                        tracer.uninstall()
                else:
                    reference.round(lambda: wl.round(reference, r))

            rounds = run_rounds(max(2, wl.min_rounds), args.seconds, alternate)
            runs = [reference, run]
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv")
            tracer.write(spans_path)
        else:
            clock = refclock.RefClock()
            setup = SetupClock(workloads.write_scenario(os.path.join(workdir, "setup.ini"), args.seed),
                               args.seconds, clock)
            run = workloads.Run(before_op=setup.catch_up, clock=clock)
            rounds = run_rounds(wl.min_rounds, args.seconds, lambda r: run.round(lambda: wl.round(run, r)))
            setup_s = setup.median()
            runs = [run]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    print(f"{args.workload}: seed {args.seed}, {rounds} rounds, attempted {attempted}, failed {len(failures)}")
    for reason in failures:
        print(f"  FAILED {reason}")
    correct = True
    if args.trace:
        traced_rounds = len(run.round_walls)
        untraced, traced = reference.best_round(), run.best_round()
        cost = tracing.span_cost()
        per_round_cost = len(tracer.spans) * cost / traced_rounds
        values = tracing.layer_metrics(tracer.spans, traced_rounds, per_round_cost / untraced)
        print(f"trace: {len(tracer.spans)} spans -> {os.path.relpath(spans_path, ROOT)}; at {1e6 * cost:.2f} us "
              f"per span they cost about {per_round_cost:.4f} s per round")
        print(f"trace: fastest-repeat round takes {untraced:.4f} s untraced and {traced:.4f} s traced "
              f"(difference {traced - untraced:+.4f} s, {100 * (traced - untraced) / untraced:+.2f}%)")
        print(f"trace: irsim spans cover {100 * values['trace.op_coverage']:.2f}% of the timed operations")
        if values["trace.op_coverage"] < MIN_OP_COVERAGE:
            print("trace: FAILED coverage check", file=sys.stderr)
            correct = False
        print(f"per-layer metrics, per round over {traced_rounds} traced rounds:")
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "round_s": run.ref_round(),
            "energy_gain": workloads.geomean(run.gains),
            "bound_ratio": workloads.geomean(run.bound_ratios),
        }
        print(f"wall clock: set-up median {statistics.median(setup.times):.4g} s, fastest {min(setup.times):.4g} s; "
              f"round with each operation at its median repeat "
              f"{sum(statistics.median(t) for t in zip(*run.op_times)):.4g} s, at its fastest {run.best_round():.4g} s")
        if len(run.latencies) > 1:
            deciles = statistics.quantiles(run.latencies, n=10)
            print(f"{len(run.latencies)} operation latencies: p50 {statistics.median(run.latencies):.4g} s, "
                  f"p90 {deciles[-1]:.4g} s; round walls {[round(w, 3) for w in run.round_walls]}, "
                  f"median {statistics.median(run.round_walls):.4g} s")
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:48s} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
