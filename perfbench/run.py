"""ropufsim benchmark entry point.

    python3 perfbench/run.py --workload population --seed 2026 --seconds 50 --trace 0

Runs repetitions of one workload, each in a fresh interpreter (``rep.py``),
until ``--seconds`` have passed and at least ``MIN_REPS`` ran, then prints a
human-readable table followed, as the last line, by one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (times from the fastest repetition);
with ``--trace 1`` untraced and traced repetitions alternate and the
metrics are the per-layer ones of the fastest traced repetition, with the
tracing overhead as its wall time minus the fastest untraced one.  Exits 2 without a
result when the checkout has no ``src/ropufsim``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from rep import CALIBRATION_S, ROOT, SRC, WORKLOADS, ops_per_rep  # noqa: E402
from spans import COUNT_METRICS  # noqa: E402

MIN_REPS = 3          # untraced repetitions (--trace 0)
MIN_PAIRS = 2         # untraced + traced pairs (--trace 1)
MIN_SETUPS = 5        # set-up samples; set-up-only interpreters fill the gap
HARD_LIMIT_S = 165.0  # stop starting repetitions that could end past this
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    env.update({var: nproc for var in BLAS_THREAD_VARS})
    return env


def run_child(workload: str, seed: int, trace: int, deadline: float,
              setup_only: bool = False) -> dict | None:
    """One fresh interpreter; its JSON result, or None if it died or timed out."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"repetition timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"repetition exited {proc.returncode}: {' '.join(cmd)}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"unreadable repetition output: {lines[-1][:200]}", file=sys.stderr)
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    reps: list[tuple[int, dict | None]] = []
    longest = 0.0
    while True:
        traced = trace == 1 and len(reps) % 2 == 1
        done = (len(reps) >= 2 * MIN_PAIRS and len(reps) % 2 == 0) if trace \
            else len(reps) >= MIN_REPS
        elapsed = time.monotonic() - start
        if done and elapsed >= seconds:
            break
        if reps and elapsed + 1.5 * longest > HARD_LIMIT_S:
            print("stopping early to stay within the time limit", file=sys.stderr)
            break
        t0 = time.monotonic()
        reps.append((int(traced), run_child(workload, seed, int(traced), deadline)))
        longest = max(longest, time.monotonic() - t0)

    setups = [r for _, r in reps if r]
    while len(setups) < MIN_SETUPS and time.monotonic() + 5.0 < deadline:
        child = run_child(workload, seed, 0, deadline, setup_only=True)
        if child is None:
            break
        setups.append(child)

    ops = ops_per_rep(workload)
    attempted = ops * len(reps)
    failed = sum(ops if r is None else r["failed"] for _, r in reps)
    done_reps = [(t, r) for t, r in reps if r and "wall_s" in r]
    digests = {r.get("digest") for _, r in done_reps}
    plain = [r for t, r in done_reps if not t]
    traced_reps = [r for t, r in done_reps if t]
    correct = (failed == 0 and len(digests) == 1 and None not in digests
               and len(plain) >= (MIN_PAIRS if trace else MIN_REPS)
               and (not trace or len(traced_reps) >= MIN_PAIRS))

    for _, r in reps:
        for msg in (r or {}).get("failures", [])[:5]:
            print(f"FAILED {msg}", file=sys.stderr)
    if len(digests) > 1:
        print(f"digests differ between repetitions: {sorted(map(str, digests))}",
              file=sys.stderr)

    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "plain": plain, "traced": traced_reps, "setups": setups,
        "digest": next(iter(digests)) if len(digests) == 1 else None,
    }


def end_to_end(res: dict) -> dict[str, list[float]]:
    """Samples of each end-to-end metric, times in calibrated seconds."""
    plain = res["plain"]

    def cal(r: dict) -> float:
        return CALIBRATION_S / r["kernel_s"]

    return {
        "wall_s": [r["wall_s"] * cal(r) for r in plain],
        "setup_s": [r["setup_s"] * cal(r) for r in res["setups"]],
        "cpu_s": [r["cpu_s"] * cal(r) for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "bits_per_s": [r["bits"] / (r["wall_s"] * cal(r)) for r in plain],
    }


def per_layer(res: dict) -> tuple[dict[str, float], list[str]]:
    """Layer metrics of the fastest traced repetition, so that the self times
    still sum to its wall; plus the counts that did not repeat exactly."""
    traced = res["traced"]
    fastest = min(traced, key=lambda r: r["layers"]["trace.wall_s"])
    metrics = dict(fastest["layers"])
    unsteady = [k for k in metrics if (k.endswith(".calls") or k in COUNT_METRICS)
                and len({r["layers"][k] for r in traced}) > 1]
    untraced = min(r["wall_s"] for r in res["plain"])
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    return metrics, unsteady


def report(res: dict) -> dict:
    """Print the human-readable table; return the final JSON object."""
    w, plain = res["workload"], res["plain"]
    print(f"workload {w}  seed {res['seed']}  trace {res['trace']}  "
          f"repetitions {len(plain)} untraced + {len(res['traced'])} traced, "
          f"each a fresh interpreter")
    metrics: dict[str, dict] = {}
    if res["trace"] == 0 and plain:
        for name, values in end_to_end(res).items():
            q1, med, q3 = quartiles(values)
            unit = UNITS[name]
            print(f"  {name:<16} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"n={len(values)}  [{' '.join(f'{v:.4g}' for v in values)}]")
            metrics[name] = {"value": med, "unit": unit}
        host = [r["wall_s"] for r in plain]
        kernel = [r["kernel_s"] for r in res["setups"]]
        print(f"  host wall        median {statistics.median(host):.6g} s  "
              f"[{' '.join(f'{v:.4g}' for v in host)}]  (uncalibrated)")
        print(f"  kernel           median {statistics.median(kernel):.6g} s  "
              f"[{' '.join(f'{v:.4g}' for v in kernel)}]  (calibrated second = "
              f"host second x {CALIBRATION_S} / kernel)")
    elif res["traced"]:
        layers, unsteady = per_layer(res)
        levels = min(res["traced"], key=lambda r: r["layers"]["trace.wall_s"])["tail_levels"]
        wall = layers["trace.wall_s"]
        for name in (m["name"] for m in BENCH["per_layer"]):
            share = (f"  {100 * layers[name] / wall:5.1f}% of traced wall"
                     if name.endswith(".self_s") or name == "pipeline.write.busy_s" else "")
            level = next((f"  (p{levels[k]:.0f})" for k in levels
                          if name == f"{k}.tail_ms" and levels[k]), "")
            print(f"  {name:<36} {layers[name]:.6g} {UNITS[name]}{share}{level}")
            metrics[name] = {"value": layers[name], "unit": UNITS[name]}
        if unsteady:
            print(f"  counts that differ between traced repetitions: {unsteady}")
            res["correct"] = False
    attempted, failed = res["attempted"], res["failed"]
    print(f"  error_rate       {failed / attempted if attempted else 1.0:.6g}  "
          f"({failed} failed of {attempted} attempted ops)")
    if plain:
        if w == "nist-calibrate":
            print(f"  false_fail_rate  {plain[0]['fail_ratio']:.6g}  "
                  f"(populations whose suite is not all-pass)")
        else:
            print(f"  min_diff_mhz     {plain[0]['min_diff_mhz']:.6g} MHz  "
                  f"(median over devices, after relocation)")
    print(f"  digest           sha256:{res['digest']}")
    return {"correct": res["correct"], "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the
    # running repetition before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "ropufsim" / "__init__.py").is_file():
        print(f"no ropufsim sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    res = run(args.workload, args.seed, args.seconds, args.trace)
    if not res["plain"]:
        print("no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps(report(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
