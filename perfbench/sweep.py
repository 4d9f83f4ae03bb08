"""Run the benchmark over several seeds and summarise the spread.

Usage, from the repository root:

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--seconds S] [--out FILE]

Runs `run.py` once per workload and seed, one run at a time, and prints for
each end-to-end metric the median over runs, the quartiles and their
distance as a share of the median (the spread that BENCHMARK.json's bounds
are judged against). With --out it also writes these figures, with the
environment of the first run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            rows[name] = {"runs": len(vals), "median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median, "values": vals}
            print(f"{workload:16s} {name:14s} median {median:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
                  f"spread {rows[name]['spread']:.3f} (bound {bounds[name]})", flush=True)
        report["workloads"][workload] = rows
        if "environment" not in report:
            record = ROOT / ".perfbench" / "results" / f"{workload}-seed{args.seeds[0]}-trace0.json"
            report["environment"] = json.loads(record.read_text())["environment"]
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
