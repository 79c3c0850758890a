"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload gap --seeds 1-10 [--out FILE]

For every end-to-end metric in BENCHMARK.json it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) as a
share of the median next to the metric's bound, and for the times that are
scaled by host speed also the spread of the unscaled values.  With --out the
summary, with every run's value, is also written as JSON, which is how
perfbench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        res = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT), timeout=180)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or len(lines) < 2:
            sys.stderr.write(res.stderr)
            return 1
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append({"seed": seed, "record": record, "result": result})
        values = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} {values}", flush=True)

    summary = {"workload": args.workload, "seeds": [r["seed"] for r in runs], "metrics": {}}
    for spec in bench["end_to_end"]:
        name = spec["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        entry = {"unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                 "spread": spread, "bound": spec["bound"], "values": values}
        note = ""
        if name in runs[0]["record"]["speed_scaled"]:
            rq1, rmed, rq3 = statistics.quantiles([r["record"]["raw"][name] for r in runs], n=4)
            entry["unscaled_spread"] = (rq3 - rq1) / rmed
            note = f" (unscaled {entry['unscaled_spread']:.3f})"
        summary["metrics"][name] = entry
        print(f"{name:14s} median {med:10.4g} {spec['unit']:3s} spread {spread:6.3f}{note} "
              f"bound {spec['bound']} (third {spec['bound'] / 3:.3f})")
    summary["speed_factor"] = [r["record"]["speed_factor"] for r in runs]
    shares = [r["record"]["share_of_wall_by_kind"] for r in runs]
    summary["share_of_wall_by_kind"] = {
        k: round(statistics.median(s[k] for s in shares), 4) for k in shares[0]}
    summary["tail_percentile"] = runs[0]["record"]["tail_percentile"]
    summary["err_max_bits"] = max(r["record"]["err_max_bits"]["value"] for r in runs)
    summary["failed"] = sum(r["result"]["failed"] for r in runs)
    summary["attempted"] = sum(r["result"]["attempted"] for r in runs)
    summary["environment"] = runs[0]["record"]["environment"]
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
