"""End-to-end orchestration: synth -> characterize -> reject -> select ->
relocate -> group -> place -> respond -> evaluate, plus sweeps and a
computation-time model.

Every stage's randomness derives from the declared global seed, so a run is
reproducible from its manifest alone.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .characterize import (
    DEFAULT_QUANTILE,
    DEFAULT_THRESHOLD,
    CleanProfile,
    FrequencyProfile,
    characterize,
    export_profile_csv,
    reject_erroneous,
)
from .chipmodel import (
    DEFAULT_SAMPLES,
    DEFAULT_T_ON_US,
    REFERENCE_ENV,
    ChipProfile,
    DeviceSpec,
    EnvCondition,
    get_preset,
)
from .chipmodel import synth_chip
from .metrics import EvalReport, evaluate_population
from .nist import NistReport, format_rate, run_suite
from .placement import (
    PlacementPlan,
    assign_groups,
    emit_constraints,
    randomize_placement,
    valid_kappas,
)
from .puf import ResponseSet, generate_response, save_responses
from .select import SelectionConfig, SelectionResult, improved_kmeans, relocate_centroids

DEFAULT_TEMPS = tuple(float(t) for t in range(-5, 76, 10))
DEFAULT_VOLTS = tuple(float(v) for v in range(900, 1101, 20))

SAMPLE_COST_SEC = 0.003  # modeled per-sample measurement cost


@dataclass
class PipelineConfig:
    """Everything needed to reproduce a run."""

    preset: str = "basys3"
    devices: int = 54
    ro_count: int = 32
    kappa: float = 0.5
    seeding: str = "linear"
    samples: int = DEFAULT_SAMPLES
    t_on_us: float = DEFAULT_T_ON_US
    reject_mode: str = "fixed"
    reject_threshold: float = DEFAULT_THRESHOLD
    reject_quantile: float = DEFAULT_QUANTILE
    temps: tuple[float, ...] = DEFAULT_TEMPS
    volts: tuple[float, ...] = DEFAULT_VOLTS
    env_mode: str = "axes"              # axes | cross | reference
    lfsr_seed_policy: str = "shared"    # shared | per_device
    global_seed: int = 2026
    k_max: int = 100
    relocation_max_iter: int = 200
    workers: int = 1
    out_dir: str = "runs/out"
    device_spec_file: str | None = None  # overrides preset when set

    def to_json(self) -> str:
        d = asdict(self)
        d["temps"] = list(self.temps)
        d["volts"] = list(self.volts)
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        d = json.loads(text)
        if "temps" in d:
            d["temps"] = tuple(d["temps"])
        if "volts" in d:
            d["volts"] = tuple(d["volts"])
        return cls(**d)

    def env_grid(self) -> list[EnvCondition]:
        """Sweep conditions.  axes varies one knob at a time, cross takes the
        full product; the reference condition is kept when it lies on the grid."""
        if self.env_mode == "reference":
            return [REFERENCE_ENV]
        conds: list[EnvCondition] = []
        if self.env_mode == "axes":
            for t in self.temps:
                conds.append(EnvCondition(t, REFERENCE_ENV.vcc_mv))
            for v in self.volts:
                conds.append(EnvCondition(REFERENCE_ENV.temp_c, v))
        elif self.env_mode == "cross":
            for t in self.temps:
                for v in self.volts:
                    conds.append(EnvCondition(t, v))
        else:
            raise ValueError(f"unknown env_mode {self.env_mode!r}")
        seen: set[tuple[float, float]] = set()
        unique = []
        for c in conds:
            key = (c.temp_c, c.vcc_mv)
            if key not in seen:
                seen.add(key)
                unique.append(c)
        return unique


def derive_seed(*path: int) -> int:
    """Deterministic child seed from a (global_seed, index, stage...) path."""
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


STAGE_SYNTH, STAGE_CHAR, STAGE_SELECT, STAGE_ASSIGN, STAGE_PLACE, STAGE_RESP, STAGE_LFSR = range(7)


def device_seeds(global_seed: int, index: int) -> dict[str, int]:
    return {
        "synth": derive_seed(global_seed, index, STAGE_SYNTH),
        "characterize": derive_seed(global_seed, index, STAGE_CHAR),
        "select": derive_seed(global_seed, index, STAGE_SELECT),
        "assign": derive_seed(global_seed, index, STAGE_ASSIGN),
        "place": derive_seed(global_seed, index, STAGE_PLACE),
        "response": derive_seed(global_seed, index, STAGE_RESP),
    }


@dataclass(eq=False)
class DeviceRun:
    """Artifacts of one device's stage chain.

    ``profile`` is the characterization before rejection and ``plan`` the
    placement the responses came from; the artifact writer emits both as
    they are, so no stage runs again to write a run.
    """

    device_id: str
    seeds: dict[str, int]
    chip: ChipProfile
    profile: FrequencyProfile
    plan: PlacementPlan
    kept_sites: int
    rejected: int
    selection_min_diff: float
    relocated_min_diff: float
    golden: ResponseSet
    sweep_responses: list[ResponseSet]
    selection_json: dict


def _device_spec(config: PipelineConfig) -> DeviceSpec:
    if config.device_spec_file:
        from .chipmodel import load_device_spec

        return load_device_spec(config.device_spec_file)
    return get_preset(config.preset)


@dataclass(eq=False)
class _Selection:
    """The ratio-independent half of a device chain: synth -> characterize ->
    reject -> K-means -> relocation."""

    seeds: dict[str, int]
    chip: ChipProfile
    profile: FrequencyProfile
    clean: CleanProfile
    kmeans: SelectionResult
    relocated: SelectionResult


def _select_device(config: PipelineConfig, index: int, spec: DeviceSpec) -> _Selection:
    seeds = device_seeds(config.global_seed, index)
    chip = synth_chip(spec, seeds["synth"], device_id=f"{spec.kind}_{index:03d}")

    prof = characterize(
        chip, m=config.samples, t_on_us=config.t_on_us,
        rng=np.random.default_rng(seeds["characterize"]),
    )
    clean = reject_erroneous(
        prof, mode=config.reject_mode,
        threshold=config.reject_threshold, quantile=config.reject_quantile,
    )

    sel_config = SelectionConfig(
        m=config.ro_count, seeding=config.seeding,
        k_max=config.k_max, relocation_max_iter=config.relocation_max_iter,
        rng_seed=seeds["select"],
    )
    kept = clean.kept
    order = np.argsort(kept.mean, kind="stable")
    nu, nu_refs = kept.mean[order], kept.site_refs[order]
    km = improved_kmeans(nu, sel_config, site_refs=nu_refs)
    rel = relocate_centroids(
        nu, km.centroids, max_iter=config.relocation_max_iter, site_refs=nu_refs
    )
    return _Selection(seeds, chip, prof, clean, km, rel)


def _place(sel: _Selection, kappa: float, kappa_tag: int) -> PlacementPlan:
    """Group assignment and placement at one ratio."""
    assignment = assign_groups(
        sel.relocated.chosen, kappa, derive_seed(sel.seeds["assign"], kappa_tag)
    )
    return randomize_placement(
        assignment, sel.chip.sites, derive_seed(sel.seeds["place"], kappa_tag)
    )


def _respond(
    sel: _Selection, plan: PlacementPlan, lfsr_seed: int, env: EnvCondition,
    kappa_tag: int, slot: int,
) -> ResponseSet:
    """One response; slot 0 is the golden one, slot 1 + j the j-th condition."""
    return generate_response(
        plan, sel.chip, lfsr_seed, env,
        rng=np.random.default_rng(derive_seed(sel.seeds["response"], kappa_tag, slot)),
    )


def run_device(
    config: PipelineConfig,
    index: int,
    spec: DeviceSpec | None = None,
    kappa: float | None = None,
    lfsr_seed: int | None = None,
    env_grid: Sequence[EnvCondition] | None = None,
    kappa_tag: int = 0,
) -> DeviceRun:
    """Execute the full per-device chain."""
    spec = spec or _device_spec(config)
    kappa = config.kappa if kappa is None else kappa
    if lfsr_seed is None:
        lfsr_seed = 1
    sel = _select_device(config, index, spec)
    plan = _place(sel, kappa, kappa_tag)
    golden = _respond(sel, plan, lfsr_seed, REFERENCE_ENV, kappa_tag, 0)
    sweep = [
        _respond(sel, plan, lfsr_seed, env, kappa_tag, 1 + j)
        for j, env in enumerate(env_grid if env_grid is not None else [])
    ]
    return DeviceRun(
        device_id=sel.chip.device_id,
        seeds=sel.seeds,
        chip=sel.chip,
        profile=sel.profile,
        plan=plan,
        kept_sites=sel.clean.z_bar,
        rejected=sel.clean.rejected_count,
        selection_min_diff=sel.kmeans.min_diff,
        relocated_min_diff=sel.relocated.min_diff,
        golden=golden,
        sweep_responses=sweep,
        selection_json={
            "kmeans": sel.kmeans.to_json_dict(),
            "relocated": sel.relocated.to_json_dict(),
            "plan": {
                "kappa": kappa,
                "placement_seed": plan.placement_seed,
                "lower": [[int(r), float(f)] for r, f in plan.lower_order],
                "upper": [[int(r), float(f)] for r, f in plan.upper_order],
            },
        },
    )


def _run_device_args(args) -> DeviceRun:
    return run_device(*args)


def _shared_lfsr_seed(config: PipelineConfig, index: int) -> int:
    if config.lfsr_seed_policy == "shared":
        base = derive_seed(config.global_seed, 10_000, STAGE_LFSR)
    elif config.lfsr_seed_policy == "per_device":
        base = derive_seed(config.global_seed, index, STAGE_LFSR)
    else:
        raise ValueError(f"unknown lfsr_seed_policy {config.lfsr_seed_policy!r}")
    from .puf import challenge_width

    period = (1 << challenge_width(config.ro_count)) - 1
    return base % period + 1


def run_pipeline(
    config: PipelineConfig, write: bool = True
) -> tuple[EvalReport, NistReport, list[DeviceRun]]:
    """Full multi-device run; optionally writes the artifact tree."""
    spec = _device_spec(config)
    env_grid = config.env_grid()
    args = [
        (config, i, spec, None, _shared_lfsr_seed(config, i), env_grid)
        for i in range(config.devices)
    ]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            runs = list(pool.map(_run_device_args, args))
    else:
        runs = [_run_device_args(a) for a in args]

    golden_rows = np.stack([r.golden.bits for r in runs])
    sweeps = [np.stack([s.bits for s in r.sweep_responses]) if r.sweep_responses
              else np.empty((0, r.golden.k), dtype=np.uint8) for r in runs]
    report = evaluate_population(golden_rows, sweeps, [r.device_id for r in runs])
    nist_report = run_suite([r.golden.bits for r in runs])

    if write:
        _write_run(config, runs, report, nist_report)
    return report, nist_report, runs


def _write_run(
    config: PipelineConfig,
    runs: list[DeviceRun],
    report: EvalReport,
    nist_report: NistReport,
) -> None:
    root = Path(config.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": json.loads(config.to_json()),
        "devices": [
            {
                "device_id": r.device_id,
                "seeds": r.seeds,
                "kept_sites": r.kept_sites,
                "rejected": r.rejected,
                "min_diff_kmeans_mhz": r.selection_min_diff,
                "min_diff_relocated_mhz": r.relocated_min_diff,
            }
            for r in runs
        ],
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))

    for i, r in enumerate(runs):
        dev_dir = root / f"device_{i:03d}"
        dev_dir.mkdir(exist_ok=True)
        export_profile_csv(r.chip, r.profile, str(dev_dir / "profile.csv"))
        (dev_dir / "selection.json").write_text(
            json.dumps(r.selection_json, indent=2, sort_keys=True)
        )
        emit_constraints(r.plan, str(dev_dir / "constraints.txt"))
        save_responses(str(dev_dir / "responses.csv"), [r.golden, *r.sweep_responses])

    reports = root / "reports"
    reports.mkdir(exist_ok=True)
    (reports / "eval.json").write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    )
    (reports / "nist.csv").write_text(nist_report.to_csv())
    (reports / "nist.json").write_text(
        json.dumps(nist_report.to_json_dict(), indent=2, sort_keys=True)
    )
    counts, edges = np.histogram(np.asarray(report.hd_inter), bins=20, range=(0.0, 1.0))
    hist_rows = ["bin_lo,bin_hi,count"]
    hist_rows += [
        f"{edges[i]:.3f},{edges[i + 1]:.3f},{int(c)}" for i, c in enumerate(counts)
    ]
    (reports / "hd_hist.csv").write_text("\n".join(hist_rows) + "\n")


@dataclass
class KappaSweepPoint:
    kappa: float
    pass_rate: float | None
    all_pass: bool
    per_test: dict[str, bool]
    uniqueness: float
    min_entropy_avg: float


def sweep_kappa(config: PipelineConfig, write: bool = True) -> list[KappaSweepPoint]:
    """Re-run group assignment, placement and NIST for every admissible ratio.

    Characterization and selection are ratio-independent and computed once
    per device.
    """
    from .metrics import min_entropy, uniqueness

    spec = _device_spec(config)
    kappas = valid_kappas(config.ro_count)
    selections = [_select_device(config, i, spec) for i in range(config.devices)]
    lfsr_seeds = [_shared_lfsr_seed(config, i) for i in range(config.devices)]
    points: list[KappaSweepPoint] = []
    for k_idx, kappa in enumerate(kappas):
        rows = []
        for sel, lfsr_seed in zip(selections, lfsr_seeds):
            plan = _place(sel, kappa, k_idx)
            rows.append(_respond(sel, plan, lfsr_seed, REFERENCE_ENV, k_idx, 0).bits)
        golden = np.stack(rows)
        nist_report = run_suite(golden)
        points.append(
            KappaSweepPoint(
                kappa=kappa,
                pass_rate=nist_report.pass_rate,
                all_pass=nist_report.all_pass(),
                per_test={n: r.population_pass for n, r in nist_report.results.items()},
                uniqueness=uniqueness(golden)["u"] if len(golden) >= 2 else 0.0,
                min_entropy_avg=min_entropy(golden)["h_avg"],
            )
        )
    if write:
        root = Path(config.out_dir)
        root.mkdir(parents=True, exist_ok=True)
        rows = ["kappa,pass_rate,all_pass,uniqueness,min_entropy"]
        for p in points:
            rows.append(
                f"{p.kappa},{format_rate(p.pass_rate, '.4f')},{int(p.all_pass)},"
                f"{p.uniqueness:.4f},{p.min_entropy_avg:.4f}"
            )
        (root / "kappa_sweep.csv").write_text("\n".join(rows) + "\n")
    return points


@dataclass
class BenchReport:
    characterization_model_sec: float
    selection_wall_sec: float
    relocation_wall_sec: float
    relocation_iterations: int
    kmeans_iterations: int
    p2_much_less_than_p1: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def bench(config: PipelineConfig) -> BenchReport:
    """Computation-time accounting for one device.

    Characterization time uses the per-sample cost model (the hardware-bound
    part); selection and relocation are wall-clock measured.
    """
    spec = _device_spec(config)
    seeds = device_seeds(config.global_seed, 0)
    chip = synth_chip(spec, seeds["synth"])
    prof = characterize(
        chip, m=config.samples, t_on_us=config.t_on_us,
        rng=np.random.default_rng(seeds["characterize"]),
    )
    clean = reject_erroneous(
        prof, mode=config.reject_mode,
        threshold=config.reject_threshold, quantile=config.reject_quantile,
    )
    t_p1 = spec.site_count * config.samples * SAMPLE_COST_SEC

    order = np.argsort(clean.kept.mean, kind="stable")
    nu = clean.kept.mean[order]
    sel_config = SelectionConfig(
        m=config.ro_count, seeding=config.seeding,
        k_max=config.k_max, rng_seed=seeds["select"],
    )
    t0 = time.perf_counter()
    km = improved_kmeans(nu, sel_config)
    t1 = time.perf_counter()
    rel = relocate_centroids(nu, km.centroids, max_iter=config.relocation_max_iter)
    t2 = time.perf_counter()
    t_p2 = t2 - t0
    return BenchReport(
        characterization_model_sec=t_p1,
        selection_wall_sec=t1 - t0,
        relocation_wall_sec=t2 - t1,
        relocation_iterations=rel.iterations,
        kmeans_iterations=km.iterations,
        p2_much_less_than_p1=t_p2 < 0.1 * t_p1,
    )


def kmeans_scaling(sizes: Sequence[int], m: int = 32, seed: int = 0) -> list[tuple[int, float]]:
    """Wall-clock per candidate-pool size, for complexity trend inspection."""
    out: list[tuple[int, float]] = []
    rng = np.random.default_rng(seed)
    for n in sizes:
        f = np.sort(rng.uniform(380.0, 450.0, int(n)))
        cfg = SelectionConfig(m=m, rng_seed=seed)
        t0 = time.perf_counter()
        improved_kmeans(f, cfg)
        out.append((int(n), time.perf_counter() - t0))
    return out
