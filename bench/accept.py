#!/usr/bin/env python3
"""Run the benchmark the way the driver does and report how steady it is.

For each workload in BENCHMARK.json this runs the `command` ten times (or
--runs N), each time with another --seed, reads the result object from the
last line of standard output, and prints for every end-to-end metric the
median of the ten values and their spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the median.
A spread above the metric's bound fails; a spread above a third of it is
flagged, because two such sets of runs can then disagree by the bound.

Run it from the repository root.  --out writes the medians and spreads as
JSON; --against compares this set's medians with an earlier --out file and
fails if one is worse by more than the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload}: result object has keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result["metrics"], wall


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    ap.add_argument("--out", help="write medians and spreads to this JSON file")
    ap.add_argument("--against", help="an earlier --out file to compare medians with")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    failed = False
    summary = {}
    for w in spec["workloads"]:
        name = w["name"]
        if args.workload and name not in args.workload:
            continue
        values = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        for i in range(args.runs):
            metrics, wall = run_once(spec, name, args.first_seed + i, 0)
            walls.append(wall)
            if set(metrics) != set(values):
                sys.exit(f"{name}: metrics {sorted(metrics)}, want {sorted(values)}")
            for k, v in metrics.items():
                values[k].append(v["value"])
        layers, wall = run_once(spec, name, args.first_seed, 1)
        walls.append(wall)
        if set(layers) != {m["name"] for m in spec["per_layer"]}:
            sys.exit(f"{name}: traced run reported {sorted(layers)}")
        print(f"{name}: {args.runs} runs + 1 traced, wall {min(walls):.1f}-{max(walls):.1f} s each")
        summary[name] = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok"
            if m["name"] != "setup_s":
                if spread > m["bound"]:
                    verdict, failed = "SPREAD ABOVE BOUND", True
                elif spread > m["bound"] / 3:
                    verdict = "spread above a third of the bound"
            if len(set(vals)) == 1 and m["unit"] in ("s", "ms", "us", "ns"):
                verdict, failed = "TIME READS THE SAME ON EVERY RUN", True
            line = f"  {m['name']:<18} median {med:<12.6g} {m['unit']:<5} spread {100 * spread:5.2f}%  bound {100 * m['bound']:.0f}%  {verdict}"
            if earlier and name in earlier and m["name"] in earlier[name]:
                before = earlier[name][m["name"]]["median"]
                worse = (med - before) / before
                if m["better"] == "higher":
                    worse = -worse
                line += f"  vs earlier {before:.6g}: {100 * worse:+.2f}% worse"
                if worse > m["bound"]:
                    line += "  SECOND MEDIAN WORSE THAN THE BOUND"
                    failed = True
            print(line)
            summary[name][m["name"]] = {"median": med, "spread": spread, "unit": m["unit"], "values": vals}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
