"""Runs the benchmark once per seed on one workload and prints, for every
end-to-end metric, the median over the runs and the distance between the
first and third quartiles as a share of that median.

    python3 perfbench/spread.py web-open 25 1 2 3 4 5 6 7 8 9 10

Run from the repository root. Each run's result line is echoed as it ends.
"""
import json
import statistics
import subprocess
import sys


def main():
    workload, seconds, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]
    values = {}
    for seed in seeds:
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", workload, "--seed", seed,
             "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0 or not out.stdout.strip():
            print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", flush=True)
            continue
        res = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k in sorted(values):
        v = values[k]
        if len(v) < 2:
            continue
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{workload:18s} {k:16s} median={med:<12.6g} spread={spread:.4f} min={min(v):.6g} max={max(v):.6g}")


if __name__ == "__main__":
    main()
