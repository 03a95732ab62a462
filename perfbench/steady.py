"""Steadiness check: repeat workloads over several seeds and compare spreads with the bounds.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Run it from the root of a source checkout. For every workload in
BENCHMARK.json it makes ``--runs`` runs of ``run_seconds``, each a
separate ``run.py`` process with its own seed, one after another. For every
end-to-end metric it prints the median of the runs, the distance between
the first and third quartiles as a share of the median, the metric's bound
in BENCHMARK.json, and whether the spread is within a third of the bound
(the margin the bounds in BENCHMARK.json were set from). It also prints the
failed share of each workload. It exits with 1 if any spread is wider.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(SPEC) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share per run {sorted(shares)}, all correct: {all(r['correct'] for r in results)}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            s = spread(values)
            ok = s <= m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:14s} median {statistics.median(values):<14.6g} spread {s:8.4f} "
                  f"bound {m['bound']:<5} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
