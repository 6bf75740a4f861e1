"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload population --seeds 1-10

Runs ``run.py`` once per seed, one after another, and prints for each
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json.  ``--jsonl FILE`` appends each run's result line to FILE.
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


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,2027")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--jsonl", default=None)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        if args.jsonl:
            with open(args.jsonl, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **result,
                                     "table": proc.stdout.strip().splitlines()[:-1]}) + "\n")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])

    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{name:<12} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}  bound {bounds[name]}  "
              f"{'ok' if spread < bounds[name] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
