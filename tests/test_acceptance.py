"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  The population-level criteria share a pinned global seed; the
selection criteria use fresh randomness per instance as stated.
"""

import itertools
import time
import warnings

import numpy as np
import pytest

import ropufsim as rp
from reference_sp80022 import (
    ref_approximate_entropy,
    ref_block_frequency,
    ref_cumulative_sums,
    ref_dft,
    ref_frequency,
    ref_longest_run,
    ref_runs,
    ref_serial,
)
from ropufsim.nist import NistParams, run_suite
from ropufsim.pipeline import PipelineConfig, run_pipeline, sweep_kappa
from ropufsim.select import (
    SelectionConfig,
    improved_kmeans,
    min_pairwise_diff,
    relocate_centroids,
)

GLOBAL_SEED = 2026


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def quiet_config(m, **kw) -> SelectionConfig:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SelectionConfig(m=m, **kw)


def brute_force_best_min_diff(freqs, m) -> float:
    best = 0.0
    fs = np.sort(np.asarray(freqs, dtype=float))
    for combo in itertools.combinations(fs, m):
        best = max(best, float(np.min(np.diff(np.asarray(combo)))))
    return best


@pytest.fixture(scope="module")
def population_m32():
    """54 simulated devices, M = 32, kappa = 0.5, default calibration."""
    config = PipelineConfig(
        devices=54, ro_count=32, kappa=0.5, global_seed=GLOBAL_SEED,
        out_dir="unused",
    )
    report, nist_report, runs = run_pipeline(config, write=False)
    return report, nist_report, runs


def test_criterion_1_selection_oracle_bound():
    rng = np.random.default_rng(GLOBAL_SEED)
    t0 = time.perf_counter()
    hits = 0
    for trial in range(200):
        n = int(rng.integers(4, 21))
        m = int(rng.integers(2, 5))
        m = min(m, n)
        f = np.sort(rng.uniform(0.0, 100.0, n))
        km = improved_kmeans(f, quiet_config(m, rng_seed=trial))
        rel = relocate_centroids(f, km.freqs)
        opt = brute_force_best_min_diff(f, m)
        assert rel.min_diff <= opt + 1e-9, "pipeline exceeded the exhaustive optimum"
        if rel.min_diff >= 0.9 * opt - 1e-12:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 190 and elapsed < 10.0
    announce(1, ok, f"oracle bound: {hits}/200 within 0.9x optimum, "
                    f"0 exceed optimum, {elapsed:.1f}s < 10s")


def test_criterion_2_relocation_monotonicity():
    rng = np.random.default_rng(GLOBAL_SEED + 1)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(4, 80))
        m = int(rng.integers(2, min(12, n) + 1))
        nu = np.sort(rng.uniform(0.0, 100.0, n))
        if rng.random() < 0.2:
            nu = np.round(nu, 1)  # inject duplicates
            nu.sort()
        pick = np.sort(rng.choice(n, m, replace=False))
        before = min_pairwise_diff(nu[pick])
        after = relocate_centroids(nu, nu[pick]).min_diff
        if after < before:
            violations += 1
    announce(2, violations == 0,
             f"relocation monotonicity: 0 tolerance, {violations}/1000 violations")


@pytest.fixture(scope="module")
def nexys_candidates():
    spec = rp.get_preset("nexys4ddr")
    pools = []
    for seed in range(20):
        chip = rp.synth_chip(spec, seed)
        prof = rp.characterize(chip, rng=np.random.default_rng(10_000 + seed))
        clean = rp.reject_erroneous(prof)
        order = np.argsort(clean.kept.mean, kind="stable")
        pools.append(clean.kept.mean[order])
    return pools


def test_criterion_3_improved_over_plain_kmeans(nexys_candidates):
    t0 = time.perf_counter()
    improved, plain = [], []
    for seed, nu in enumerate(nexys_candidates):
        cfg = quiet_config(16, rng_seed=seed)
        km = improved_kmeans(nu, cfg)
        improved.append(km.min_diff)
        # plain K-means keeps the last step, whose minimum difference ends the trace
        plain.append(km.min_diff_trace[-1])
    elapsed = time.perf_counter() - t0
    med_imp, med_plain = float(np.median(improved)), float(np.median(plain))
    ok = med_imp >= med_plain and elapsed < 60.0
    announce(3, ok, f"improved K-means median {med_imp:.3f} MHz >= plain "
                    f"{med_plain:.3f} MHz (+{100 * (med_imp / med_plain - 1):.1f}%), "
                    f"{elapsed:.1f}s < 60s")


def test_criterion_4_relocation_benefit_scales_with_m(nexys_candidates):
    gains = {8: [], 64: []}
    for m in (8, 64):
        for seed, nu in enumerate(nexys_candidates):
            km = improved_kmeans(nu, quiet_config(m, rng_seed=seed))
            rel = relocate_centroids(nu, km.freqs)
            gains[m].append((rel.min_diff - km.min_diff) / km.min_diff)
    med8, med64 = float(np.median(gains[8])), float(np.median(gains[64]))
    announce(4, med64 > med8,
             f"relocation gain median M64 {100 * med64:.2f}% > M8 {100 * med8:.2f}%")


def test_criterion_5_response_lengths():
    from conftest import manual_chip
    from ropufsim.placement import assign_groups, randomize_placement

    want = {8: 15, 16: 63, 32: 255, 64: 1023}
    got = {}
    rng = np.random.default_rng(GLOBAL_SEED)
    for m, k in want.items():
        freqs = np.sort(rng.uniform(380.0, 450.0, m))
        chip = manual_chip(freqs)
        plan = randomize_placement(
            assign_groups(np.arange(m), freqs, 0.0, np.random.default_rng(0)), chip.layout, 0
        )
        got[m] = rp.generate_response(plan, chip, 1).k
    announce(5, got == want, f"response lengths {got} == {want} (exact)")


def test_criterion_6_reliability_band(population_m32):
    report, _, runs = population_m32
    t0 = time.perf_counter()
    # the shared fixture already ran the sweep; re-check bounds and budget by
    # re-running a single device to estimate the per-device cost honestly
    config = PipelineConfig(devices=1, ro_count=32, kappa=0.5,
                            global_seed=GLOBAL_SEED, out_dir="unused")
    run_pipeline(config, write=False)
    per_device = time.perf_counter() - t0
    projected = per_device * 54
    ok = report.r_avg >= 0.99 and report.r_min >= 0.985 and projected < 300.0
    announce(6, ok, f"reliability 54 devices M32: r_avg {report.r_avg:.4f} >= 0.99, "
                    f"r_min {report.r_min:.4f} >= 0.985, ~{projected:.0f}s < 300s")


def test_criterion_7_uniqueness(population_m32):
    report, _, _ = population_m32
    hd_mean = float(np.mean(report.hd_inter))
    ok = abs(report.u - 0.5) <= 0.01 and abs(hd_mean - 0.5) <= 0.022
    announce(7, ok, f"uniqueness |u - 0.5| = {abs(report.u - 0.5):.4f} <= 0.01, "
                    f"pairwise-HD mean dev {abs(hd_mean - 0.5):.4f} <= 0.022")


def test_criterion_8_min_entropy(population_m32):
    report_m32, _, _ = population_m32
    entropies = {("M32", 0.5): report_m32.min_entropy_avg}
    for m, kappa in ((32, 0.375), (64, 0.3125), (64, 0.375)):
        config = PipelineConfig(
            devices=54, ro_count=m, kappa=kappa, env_mode="reference",
            global_seed=GLOBAL_SEED, out_dir="unused",
        )
        rep, _, _ = run_pipeline(config, write=False)
        entropies[(f"M{m}", kappa)] = rep.min_entropy_avg
    ok = all(h >= 0.80 for h in entropies.values())
    detail = ", ".join(f"{k[0]}@{k[1]:g}={v:.4f}" for k, v in entropies.items())
    announce(8, ok, f"min entropy >= 0.80 at passing ratios: {detail}")


def test_criterion_9_nist_oracle_equivalence():
    params = NistParams()
    mismatches = []

    def close(a, b):
        return abs(a - b) <= 1e-6

    for n in (255, 1023):
        mat = np.stack([
            np.random.default_rng(7000 + 100 * n + i).integers(0, 2, n).astype(np.uint8)
            for i in range(10)
        ])
        got = {name: r.p_values for name, r in run_suite(mat, params).results.items()}
        for i, bits in enumerate(mat):
            s_ref = ref_serial(bits, params.serial_block_len(n))
            pairs = [
                ("frequency", ref_frequency(bits)),
                ("block_frequency", ref_block_frequency(bits, 20)),
                ("cumsum_forward", ref_cumulative_sums(bits)),
                ("cumsum_reverse", ref_cumulative_sums(bits, reverse=True)),
                ("runs", ref_runs(bits)),
                ("longest_run", ref_longest_run(bits)),
                ("approximate_entropy",
                 ref_approximate_entropy(bits, params.entropy_block_len(n))),
                ("serial_1", s_ref[0]),
                ("serial_2", s_ref[1]),
            ]
            if n >= 1000:
                pairs.append(("dft", ref_dft(bits)))
            for name, ref in pairs:
                if not close(got[name][i], ref):
                    mismatches.append((n, i, name, got[name][i], ref))
    announce(9, not mismatches,
             f"NIST oracle equivalence at 1e-6 on 10x255 + 10x1023 sequences "
             f"({len(mismatches)} mismatches)")


def test_criterion_10_nist_kappa_window():
    config = PipelineConfig(devices=54, ro_count=32, global_seed=GLOBAL_SEED,
                            out_dir="unused")
    points = sweep_kappa(config, write=False)
    kappas = [p.kappa for p in points]
    rates = [p.pass_rate for p in points]
    peak = max(rates)
    argmax = {k for k, r in zip(kappas, rates) if r == peak}
    window = {0.25, 0.375, 0.5, 0.625}  # {0.375, 0.5} +- one kappa step
    in_window = bool(argmax & window)
    peak_idx = rates.index(peak)
    unimodal = all(rates[i] <= rates[i + 1] for i in range(peak_idx)) and all(
        rates[i] >= rates[i + 1] for i in range(peak_idx, len(rates) - 1)
    )
    curve = " ".join(f"{k:g}:{r:.2f}" for k, r in zip(kappas, rates))
    announce(10, in_window and unimodal,
             f"kappa window: unimodal={unimodal}, max at {sorted(argmax)} "
             f"within {{0.375, 0.5}} +- one step [{curve}]")


def test_criterion_11_metric_properties():
    rng = np.random.default_rng(GLOBAL_SEED + 11)
    cases = 10_000

    # Hamming metric axioms, vectorized over 10^4 random triples
    k = 64
    a = rng.integers(0, 2, (cases, k)).astype(np.uint8)
    b = rng.integers(0, 2, (cases, k)).astype(np.uint8)
    c = rng.integers(0, 2, (cases, k)).astype(np.uint8)
    dab = np.count_nonzero(a != b, axis=1)
    dba = np.count_nonzero(b != a, axis=1)
    daa = np.count_nonzero(a != a, axis=1)
    dac = np.count_nonzero(a != c, axis=1)
    dbc = np.count_nonzero(b != c, axis=1)
    axioms = (
        np.all(daa == 0)
        and np.all(dab == dba)
        and np.all(dac <= dab + dbc)
        and np.all((dab > 0) | np.all(a == b, axis=1))
    )

    # range bounds of the three population metrics on 10^4 random matrices
    bounds_ok = True
    for _ in range(cases):
        mat = rng.integers(0, 2, (4, 16)).astype(np.uint8)
        u = rp.uniqueness(mat)["u"]
        h = rp.min_entropy(mat)["h_avg"]
        r = rp.reliability(mat[0], mat[1:])
        if not (0.0 <= u <= 1.0 and 0.0 <= h <= 1.0 and 0.0 <= r <= 1.0):
            bounds_ok = False
            break
        if h == 1.0 and not np.all(mat.sum(axis=0) * 2 == mat.shape[0]):
            bounds_ok = False
            break

    # complement / reversal symmetries, exact, 10^4 sequences per test,
    # drawn in the order the per-sequence loop drew them and compared as
    # whole p-value columns
    draws = [(rng.integers(0, 2, 255).astype(np.uint8),
              rng.integers(0, 2, 1023).astype(np.uint8)) for _ in range(cases)]
    bits = np.stack([draw[0] for draw in draws])
    long_bits = np.stack([draw[1] for draw in draws])

    def columns(mat):
        return {name: r.p_values for name, r in run_suite(mat).results.items()}

    got, comp, rev = columns(bits), columns(1 - bits), columns(bits[:, ::-1])
    sym_ok = (
        np.array_equal(got["frequency"], comp["frequency"])
        and np.array_equal(got["frequency"], rev["frequency"])
        and np.array_equal(got["runs"], comp["runs"])
        and np.array_equal(got["cumsum_reverse"], rev["cumsum_forward"])
        and np.array_equal(got["serial_1"], comp["serial_1"])
        and np.array_equal(got["serial_2"], comp["serial_2"])
        and np.array_equal(got["approximate_entropy"], comp["approximate_entropy"])
        and np.array_equal(columns(long_bits)["dft"], columns(1 - long_bits)["dft"])
    )

    ok = axioms and bounds_ok and sym_ok
    announce(11, ok, f"metric properties on {cases} cases each: hamming axioms "
                     f"{axioms}, range bounds {bounds_ok}, NIST symmetries {sym_ok}")
