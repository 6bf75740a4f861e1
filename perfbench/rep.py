"""One repetition of a benchmark workload in a fresh interpreter.

    python3 perfbench/rep.py --workload population --seed 2026 --trace 0

``run.py`` starts this once per repetition, so every repetition pays
ropufsim's import and caches cold, as every ``ropuf`` invocation does.  It
imports ropufsim from the checkout's ``src/``, times set-up and the timed
phase, checks every output and prints one JSON line of measurements.  With
``--trace 1`` it wraps the public layer functions (see ``spans.py``) and adds
per-layer metrics.  ``--setup-only`` stops after set-up.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ".perfbench-out"  # relative to ROOT, so manifests do not name the checkout

# population: the ROADMAP reference run (54 basys3 devices, M = 32,
#   kappa = 0.5, 19 axes conditions plus golden) with the artifact tree.
#   Every pipeline layer runs; select, synth, characterize and the writer
#   weigh most.
# nist-calibrate: ideal-random populations of 54 sequences, n alternating
#   255 (DFT not applicable) and 1023, judged by run_suite alone.
# env-cross (runnable, not in BENCHMARK.json): M = 64 over the 99-condition
#   cross grid, 18 devices, no files; response generation dominates.
WORKLOADS = {
    "population": {"devices": 54, "ro_count": 32, "env_mode": "axes", "write": True},
    "nist-calibrate": {"populations": 120, "sequences": 54, "lengths": (255, 1023)},
    "env-cross": {"devices": 18, "ro_count": 64, "env_mode": "cross", "write": False},
}

# Bands tests/test_acceptance.py asserts for the population configuration.
R_AVG_MIN, R_MIN_MIN, U_TOL, H_MIN = 0.99, 0.985, 0.01, 0.80

NIST_TESTS = frozenset({
    "frequency", "block_frequency", "cumsum_forward", "cumsum_reverse", "runs",
    "longest_run", "approximate_entropy", "serial_1", "serial_2", "dft",
})
# SP 800-22 length rules at the two lengths the workloads produce: the
# spectral test needs n >= 1000; every other test applies from n = 128.
EXPECTED_NA = {255: frozenset({"dft"}), 1023: frozenset()}

DEVICE_FILES = ("profile.csv", "selection.json", "constraints.txt", "responses.csv")
TREE_FILES = ("manifest.json", "reports/eval.json", "reports/nist.csv",
              "reports/nist.json", "reports/hd_hist.csv")


def ops_per_rep(workload: str) -> int:
    """Device chains plus NIST populations judged in one repetition."""
    w = WORKLOADS[workload]
    return w["populations"] if "populations" in w else w["devices"] + 1


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------- calibration

# The host's speed drifts by up to 1.7x over minutes (a slow phase can cover
# a whole run), which no number of repetitions averages out.  Each
# interpreter therefore times a fixed reference kernel right after set-up and
# again after its timed phase; run.py rescales its times to calibrated
# seconds, the seconds of a host on which the kernel takes CALIBRATION_S.
# The kernel uses numpy but no ropufsim code, so it warms nothing of the
# program.  Never change the kernel or the constant: every recorded point
# depends on them.
CALIBRATION_S = 0.040
KERNEL_RUNS = 5


def reference_kernel() -> int:
    """Fixed work in the program's mix: small numpy calls in a Python loop,
    then Python integer and string work.  It does not touch ropufsim."""
    import numpy as np

    x = np.linspace(380.0, 450.0, 2048)
    c = np.linspace(380.0, 450.0, 32)
    for _ in range(300):
        idx = np.searchsorted((c[:-1] + c[1:]) / 2.0, x)
        c = np.bincount(idx, x, 32) / np.maximum(np.bincount(idx, minlength=32), 1)
    state, chars = 1, 0
    for _ in range(100000):
        bit = (state ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 1
        state = (state >> 1) | (bit << 15)
        chars += len(str(state))
    return chars


def kernel_times() -> list[float]:
    """KERNEL_RUNS timings of the reference kernel."""
    times = []
    for _ in range(KERNEL_RUNS):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------- checks


def chosen_sites(run) -> list:
    """(site_ref, MHz) pairs the relocation chose for one DeviceRun."""
    return run.selection_json["relocated"]["chosen"]


def check_device(run, m: int, conditions: int, report, bands: bool) -> list[str]:
    k = (m // 2) ** 2 - 1
    problems = []
    chosen = chosen_sites(run)
    distinct = len({int(ref) for ref, _ in chosen})
    if len(chosen) != m or distinct != m:
        problems.append(f"{distinct} distinct of {len(chosen)} chosen sites, want {m}")
    if not run.relocated_min_diff >= run.selection_min_diff:
        problems.append(f"relocated min-diff {run.relocated_min_diff} below "
                        f"K-means {run.selection_min_diff}")
    if len(run.sweep_responses) != conditions:
        problems.append(f"{len(run.sweep_responses)} sweep responses, want {conditions}")
    for resp in (run.golden, *run.sweep_responses):
        if resp.k != k or resp.bits.shape != (k,) or int(resp.bits.max(initial=0)) > 1:
            problems.append(f"response at {resp.env} has k={resp.k}, "
                            f"shape {resp.bits.shape}, want {k} bits")
            break
    if bands:
        r = report.reliability_per_device[run.device_id]
        if not r >= R_MIN_MIN:
            problems.append(f"reliability {r:.4f} < {R_MIN_MIN}")
    return problems


def check_population(report, n: int, sequences: int) -> list[str]:
    """NistReport checks: shape, p-values in [0, 1], NA set from n alone."""
    import numpy as np

    problems = []
    if report.n != n or report.sequences != sequences:
        problems.append(f"report for n={report.n} x {report.sequences}, "
                        f"want n={n} x {sequences}")
    na = set(report.not_applicable)
    if na != EXPECTED_NA[n]:
        problems.append(f"NA {sorted(na)}, want {sorted(EXPECTED_NA[n])} at n={n}")
    if na & set(report.results) or na | set(report.results) != NIST_TESTS:
        problems.append(f"tests {sorted(report.results)} + NA {sorted(na)} "
                        f"do not partition the suite")
    for name, outcome in report.results.items():
        p = np.asarray(outcome.p_values, dtype=float)
        if p.shape != (sequences,) or not np.all((p >= 0.0) & (p <= 1.0)):
            problems.append(f"{name}: p-values outside [0, 1] or wrong count")
    return problems


def check_bands(report) -> list[str]:
    problems = []
    if not report.r_avg >= R_AVG_MIN:
        problems.append(f"r_avg {report.r_avg:.4f} < {R_AVG_MIN}")
    if not abs(report.u - 0.5) <= U_TOL:
        problems.append(f"|u - 0.5| = {abs(report.u - 0.5):.4f} > {U_TOL}")
    if not report.min_entropy_avg >= H_MIN:
        problems.append(f"min-entropy {report.min_entropy_avg:.4f} < {H_MIN}")
    return problems


# ---------------------------------------------------------------- digests


def tree_digest(root: Path) -> tuple[str, int, list[str]]:
    """sha256 over sorted relative paths and bytes; total bytes; missing files."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
        total += len(data)
    return h.hexdigest(), total, [f for f in TREE_FILES if not (root / f).is_file()]


def bits_digest(runs) -> str:
    """sha256 over the golden matrix, then each device's sweep matrix."""
    import numpy as np

    h = hashlib.sha256()
    mats = [np.stack([r.golden.bits for r in runs])]
    mats += [np.stack([s.bits for s in r.sweep_responses]) for r in runs]
    for mat in mats:
        mat = np.ascontiguousarray(mat, dtype=np.uint8)
        h.update(repr(mat.shape).encode() + mat.tobytes())
    return h.hexdigest()


def nist_digest(reports) -> str:
    """sha256 over every population's NA list and p-values in suite order."""
    import numpy as np

    h = hashlib.sha256()
    for rep in reports:
        h.update(",".join(rep.not_applicable).encode() + b";")
        for name, outcome in rep.results.items():
            h.update(name.encode() + np.asarray(outcome.p_values, dtype=np.float64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- workloads


def setup(workload: str, seed: int):
    """Import ropufsim and build what the run needs before the first device."""
    sys.path.insert(0, str(SRC))
    import ropufsim
    from ropufsim import chipmodel, nist, pipeline

    if Path(ropufsim.__file__).resolve().parent != SRC / "ropufsim":
        raise SystemExit(f"imported ropufsim from {ropufsim.__file__}, not {SRC}")
    w = WORKLOADS[workload]
    if workload == "nist-calibrate":
        return {"params": nist.NistParams()}
    config = pipeline.PipelineConfig(
        devices=w["devices"], ro_count=w["ro_count"], env_mode=w["env_mode"],
        global_seed=seed, workers=1, out_dir=f"{OUT_DIR}/{workload}",
    )
    return {"config": config, "spec": chipmodel.get_preset(config.preset),
            "grid": config.env_grid()}


def nist_inputs(seed: int) -> list:
    """Ideal-random populations drawn from the workload seed."""
    import numpy as np

    w = WORKLOADS["nist-calibrate"]
    rng = np.random.default_rng(seed)
    lengths = w["lengths"]
    return [rng.integers(0, 2, size=(w["sequences"], lengths[i % len(lengths)]), dtype=np.uint8)
            for i in range(w["populations"])]


def run_nist(made, seed: int, tracer) -> dict:
    from ropufsim import nist

    pops = nist_inputs(seed)
    n_seq = WORKLOADS["nist-calibrate"]["sequences"]
    r0, t0 = cpu_seconds(), time.perf_counter()
    with tracer.span("run") if tracer else contextlib.nullcontext():
        reports = []
        for bits in pops:
            try:
                reports.append(nist.run_suite(bits, made["params"]))
            except Exception:  # one failed population is one failed op
                reports.append(traceback.format_exc(limit=3))
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - r0

    failures = []
    for i, (bits, rep) in enumerate(zip(pops, reports)):
        problems = ([rep] if isinstance(rep, str)
                    else check_population(rep, bits.shape[1], n_seq))
        if problems:
            failures.append(f"population {i}: " + "; ".join(problems))
    judged = [r for r in reports if not isinstance(r, str)]
    return {
        "wall_s": wall, "cpu_s": cpu, "failed": len(failures), "failures": failures,
        "bits": int(sum(b.size for b in pops)),
        "digest": nist_digest(judged),
        "fail_ratio": sum(not r.all_pass() for r in judged) / len(pops),
    }


def run_pipeline_workload(workload: str, made, tracer) -> dict:
    import numpy as np
    from ropufsim import pipeline

    config, grid = made["config"], made["grid"]
    w = WORKLOADS[workload]
    out = ROOT / config.out_dir
    shutil.rmtree(out, ignore_errors=True)
    r0, t0 = cpu_seconds(), time.perf_counter()
    with tracer.span("run") if tracer else contextlib.nullcontext():
        report, nist_report, runs = pipeline.run_pipeline(config, write=w["write"])
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - r0

    bands = workload == "population"
    failures = []
    for run in runs:
        problems = check_device(run, config.ro_count, len(grid), report, bands)
        if problems:
            failures.append(f"{run.device_id}: " + "; ".join(problems))
    if len(runs) != config.devices:
        failures.append(f"{len(runs)} device runs, want {config.devices}")
    n = (config.ro_count // 2) ** 2 - 1
    problems = check_population(nist_report, n, config.devices)
    if bands:
        problems += check_bands(report)
    result = {"wall_s": wall, "cpu_s": cpu}
    if w["write"]:
        digest, size, missing = tree_digest(out)
        for i in range(config.devices):
            missing += [f"device_{i:03d}/{f}" for f in DEVICE_FILES
                        if not (out / f"device_{i:03d}" / f).is_file()]
        if missing:
            problems.append(f"artifact tree lacks {missing[:5]}")
        result.update(digest=digest, write_bytes=size)
        shutil.rmtree(out, ignore_errors=True)
    else:
        result["digest"] = bits_digest(runs)
    if problems:
        failures.append("population: " + "; ".join(problems))
    result.update(
        failed=len(failures), failures=failures,
        bits=int(sum(r.golden.bits.size + sum(s.bits.size for s in r.sweep_responses)
                     for r in runs)),
        min_diff_mhz=float(np.median([r.relocated_min_diff for r in runs])),
        fail_ratio=0.0 if nist_report.all_pass() else 1.0,
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    made = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    kernel = kernel_times()
    out = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            if args.workload == "nist-calibrate":
                out.update(run_nist(made, args.seed, tracer))
            else:
                out.update(run_pipeline_workload(args.workload, made, tracer))
        except Exception:  # the whole repetition failed: every op counts
            out.update(failed=ops_per_rep(args.workload),
                       failures=[traceback.format_exc(limit=5)])
        out["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None and "digest" in out:
            from spans import summarize

            layers, levels = summarize(tracer.spans, tracer.counts)
            layers["pipeline.write.bytes"] = out.get("write_bytes", 0)
            layers["nist.fail_ratio"] = out["fail_ratio"]
            layers["select.min_diff_mhz"] = out.get("min_diff_mhz", 0.0)
            out.update(layers=layers, tail_levels=levels)
            spans_path = ROOT / OUT_DIR / f"spans-{args.workload}.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(
                [{"id": i, "name": n, "start": a, "end": b, "parent": p}
                 for i, (n, a, b, p) in enumerate(tracer.spans)]))
    out["kernel_s"] = statistics.median(kernel + kernel_times())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
