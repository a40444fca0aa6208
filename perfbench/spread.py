"""Run one workload on several seeds and report each end-to-end metric's
median and spread (interquartile range over median), the figure a
metric's bound in BENCHMARK.json is checked against.

    python3 perfbench/spread.py --workload critic --seeds 1-10

Run from the root of a jayfix checkout; runs are sequential. Each run's
result line is appended to .perfbench/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out.extend(range(int(low), int(high or low) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    log = Path(".perfbench") / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(command, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = f"{(q3 - q1) / median:.3f}"
        else:
            spread = "n/a"
        print(f"{name}: median {median:.4g} spread {spread} bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
