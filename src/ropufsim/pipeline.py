"""End-to-end orchestration: synth -> characterize -> reject -> select ->
relocate -> group -> place -> respond -> evaluate, plus sweeps and a
computation-time model.  Devices run through the chain in blocks, one
process, with one K-means run per block.

Every stage's randomness derives from the declared global seed, so a run is
reproducible from its manifest alone.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, asdict, fields
from pathlib import Path
from typing import Callable, Sequence, TypeVar, get_args

import numpy as np

from .characterize import (
    DEFAULT_QUANTILE,
    DEFAULT_THRESHOLD,
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
    ConfigError,
    DeviceSpec,
    EnvCondition,
    FabricLayout,
    get_preset,
)
from .chipmodel import synth_chip
from .metrics import EvalReport, evaluate_population
from .nist import NistReport, format_rate, run_suite
from .placement import (
    PlacementPlan,
    _kappa_counts,
    assign_groups,
    emit_constraints,
    randomize_placement,
    valid_kappas,
)
from .puf import (
    TAPS,
    ResponseSet,
    challenge_width,
    generate_response,  # noqa: F401  (perfbench/spans.py traces it by this name)
    generate_responses,
    save_responses,
)
from .select import (
    SeedStrategy,
    SelectionConfig,
    SelectionResult,
    batched_kmeans,
    improved_kmeans,
    micd_traces,
    relocate_centroids,
)

DEFAULT_TEMPS = tuple(float(t) for t in range(-5, 76, 10))
DEFAULT_VOLTS = tuple(float(v) for v in range(900, 1101, 20))

SAMPLE_COST_SEC = 0.003  # modeled per-sample measurement cost

# RO counts whose challenge width has a primitive LFSR polynomial.
RO_COUNTS = tuple(2 << (w // 2) for w in sorted(TAPS))


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
    workers: int = 1                    # recorded in manifest.json; must be 1
    out_dir: str = "runs/out"
    device_spec_file: str | None = None  # overrides preset when set

    def validate(self) -> None:
        """Reject a config that cannot run, naming the field and its value,
        before any device work starts."""

        def bad(name: str, rule: str) -> ConfigError:
            return ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")

        def is_int(value) -> bool:
            return isinstance(value, int) and not isinstance(value, bool)

        def is_real(value) -> bool:
            return isinstance(value, numbers.Real) and not isinstance(value, bool)

        if not (is_int(self.devices) and self.devices >= 1):
            raise bad("devices", "an integer >= 1")
        m = self.ro_count
        # the LFSR needs a primitive polynomial of the challenge width
        if not (is_int(m) and m in RO_COUNTS):
            raise bad("ro_count", f"one of {list(RO_COUNTS)}")
        try:
            _kappa_counts(m, self.kappa)
        except (TypeError, ValueError):
            raise bad("kappa", f"one of {valid_kappas(m)}") from None
        if not (is_int(self.samples) and self.samples >= 2):
            raise bad("samples", "an integer >= 2")
        if not (is_real(self.t_on_us) and self.t_on_us > 0):
            raise bad("t_on_us", "positive")
        for name, known in (
            ("env_mode", ("axes", "cross", "reference")),
            ("reject_mode", ("fixed", "quantile")),
            ("lfsr_seed_policy", ("shared", "per_device")),
            ("seeding", get_args(SeedStrategy)),
        ):
            if getattr(self, name) not in known:
                raise bad(name, f"one of {list(known)}")
        if not (is_int(self.k_max) and self.k_max >= 1):
            raise bad("k_max", "an integer >= 1")
        if not (is_int(self.workers) and self.workers == 1):
            raise bad("workers", "1, as devices run in blocks in one process")
        if not (is_real(self.reject_threshold) and self.reject_threshold > 0):
            raise bad("reject_threshold", "positive")
        if not (is_real(self.reject_quantile) and 0 < self.reject_quantile < 1):
            raise bad("reject_quantile", "in (0, 1)")
        for name in ("relocation_max_iter", "global_seed"):
            if not (is_int(getattr(self, name)) and getattr(self, name) >= 0):
                raise bad(name, "an integer >= 0")
        for name in ("temps", "volts"):
            values = getattr(self, name)
            if not (isinstance(values, (list, tuple))
                    and all(is_real(v) and math.isfinite(v) for v in values)):
                raise bad(name, "a sequence of finite numbers")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        """Parse ``to_json`` output; JSON arrays become the tuple fields."""
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON ({exc})") from None
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        for key in d:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        for name in ("temps", "volts"):
            if isinstance(d.get(name), list):
                d[name] = tuple(d[name])
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
    they are, with the site labels of the shared ``layout``, so no stage runs
    again to write a run and no per-site chip array outlives the chain.
    ``kmeans`` and ``relocated`` are the two selection results;
    ``selection_json`` is their file form, built on each access.
    """

    device_id: str
    seeds: dict[str, int]
    layout: FabricLayout
    profile: FrequencyProfile
    plan: PlacementPlan
    kept_sites: int
    rejected: int
    kmeans: SelectionResult
    relocated: SelectionResult
    golden: ResponseSet
    sweep_responses: list[ResponseSet]

    @property
    def selection_min_diff(self) -> float:
        return self.kmeans.min_diff

    @property
    def relocated_min_diff(self) -> float:
        return self.relocated.min_diff

    @property
    def selection_json(self) -> dict:
        plan = self.plan
        return {
            "kmeans": self.kmeans.to_json_dict(),
            "relocated": self.relocated.to_json_dict(),
            "plan": {
                "kappa": plan.assignment.kappa,
                "placement_seed": plan.placement_seed,
                "lower": [[int(r), float(f)] for r, f in plan.lower_order],
                "upper": [[int(r), float(f)] for r, f in plan.upper_order],
            },
        }


def _device_spec(config: PipelineConfig) -> DeviceSpec:
    if config.device_spec_file:
        from .chipmodel import load_device_spec

        return load_device_spec(config.device_spec_file)
    return get_preset(config.preset)


@dataclass(eq=False)
class _Pool:
    """One device's candidate pool: synth -> characterize -> reject, with the
    kept sites sorted by mean frequency."""

    seeds: dict[str, int]
    chip: ChipProfile
    profile: FrequencyProfile
    kept_sites: int
    rejected: int
    nu: np.ndarray
    nu_refs: np.ndarray


def _candidate_pool(config: PipelineConfig, index: int, spec: DeviceSpec) -> _Pool:
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
    kept = clean.kept
    order = np.argsort(kept.mean, kind="stable")
    return _Pool(seeds, chip, prof, clean.z_bar, clean.rejected_count,
                 kept.mean[order], kept.site_refs[order])


def _selection_config(config: PipelineConfig, pool: _Pool) -> SelectionConfig:
    return SelectionConfig(
        m=config.ro_count, seeding=config.seeding,
        k_max=config.k_max, relocation_max_iter=config.relocation_max_iter,
        rng_seed=pool.seeds["select"],
    )


def _kmeans(config: PipelineConfig, pools: Sequence[_Pool]) -> list[SelectionResult]:
    """The improved K-means result of every pool, from one batched run."""
    pairs = batched_kmeans(
        [p.nu for p in pools], [_selection_config(config, p) for p in pools],
        [p.nu_refs for p in pools],
    )
    return [improved for improved, _ in pairs]


def _relocate(config: PipelineConfig, pool: _Pool, km: SelectionResult) -> SelectionResult:
    return relocate_centroids(
        pool.nu, km.centroids, max_iter=config.relocation_max_iter, site_refs=pool.nu_refs
    )


@dataclass(eq=False)
class _Selection:
    """The ratio-independent half of a device chain: the candidate pool,
    K-means and relocation."""

    pool: _Pool
    kmeans: SelectionResult
    relocated: SelectionResult


# Devices per block of the stage chain.  A block's chips and candidate pools
# live until its last device is finished, so the block size trades the
# batched K-means' per-iteration overhead against peak memory; this size was
# measured on the reference run (54 basys3 devices, M = 32).
_BLOCK_DEVICES = 9

_T = TypeVar("_T")


def _chain(
    config: PipelineConfig, spec: DeviceSpec, indices: Sequence[int],
    finish: Callable[[int, _Selection], _T],
) -> list[_T]:
    """``finish(index, selection)`` of every device, in index order.

    Devices run in blocks of ``_BLOCK_DEVICES``: each device's candidate
    pool, then one K-means run for the whole block, then each device's
    relocation and ``finish``.  What ``finish`` returns must not hold the
    chip, so a block's chips are freed before the next block is synthesized.
    """
    out: list[_T] = []
    for start in range(0, len(indices), _BLOCK_DEVICES):
        out += _chain_block(config, spec, indices[start : start + _BLOCK_DEVICES], finish)
    return out


def _chain_block(config, spec, indices, finish) -> list:
    pools = [_candidate_pool(config, i, spec) for i in indices]
    kms = _kmeans(config, pools)
    return [
        finish(i, _Selection(pool, km, _relocate(config, pool, km)))
        for i, pool, km in zip(indices, pools, kms)
    ]


def _place(sel: _Selection, kappa: float, kappa_tag: int) -> PlacementPlan:
    """Group assignment and placement at one ratio."""
    pool = sel.pool
    assignment = assign_groups(
        sel.relocated.chosen, kappa, derive_seed(pool.seeds["assign"], kappa_tag)
    )
    return randomize_placement(
        assignment, pool.chip.sites, derive_seed(pool.seeds["place"], kappa_tag)
    )


def _respond(
    sel: _Selection, plan: PlacementPlan, lfsr_seed: int, envs: Sequence[EnvCondition],
    kappa_tag: int,
) -> list[ResponseSet]:
    """The responses of one placement, one per condition: slot 0 is the
    golden one and slot 1 + j the j-th swept condition, each with its own
    generator.  They count over the characterization's enable window.
    """
    pool = sel.pool
    rngs = [np.random.default_rng(derive_seed(pool.seeds["response"], kappa_tag, slot))
            for slot in range(len(envs))]
    bits = generate_responses(plan, pool.chip, lfsr_seed, envs, rngs,
                              t_on_us=pool.profile.t_on_us)
    return [ResponseSet(pool.chip.device_id, env, row, bits.shape[1], lfsr_seed)
            for env, row in zip(envs, bits)]


def _device_run(
    config: PipelineConfig, sel: _Selection, lfsr_seed: int, env_grid: Sequence[EnvCondition]
) -> DeviceRun:
    """Placement at ``config.kappa``, the golden and swept responses, and
    what the writer needs of the chain."""
    plan = _place(sel, config.kappa, 0)
    golden, *sweep = _respond(sel, plan, lfsr_seed, [REFERENCE_ENV, *env_grid], 0)
    pool = sel.pool
    return DeviceRun(
        device_id=pool.chip.device_id,
        seeds=pool.seeds,
        layout=pool.chip.layout,
        profile=pool.profile,
        plan=plan,
        kept_sites=pool.kept_sites,
        rejected=pool.rejected,
        kmeans=sel.kmeans,
        relocated=sel.relocated,
        golden=golden,
        sweep_responses=sweep,
    )


def run_device(
    config: PipelineConfig,
    index: int,
    lfsr_seed: int,
    spec: DeviceSpec | None = None,
    env_grid: Sequence[EnvCondition] = (),
) -> DeviceRun:
    """Execute the full per-device chain at ``config.kappa``."""
    spec = spec or _device_spec(config)
    return _chain(config, spec, [index],
                  lambda _, sel: _device_run(config, sel, lfsr_seed, env_grid))[0]


def _shared_lfsr_seed(config: PipelineConfig, index: int) -> int:
    if config.lfsr_seed_policy == "shared":
        base = derive_seed(config.global_seed, 10_000, STAGE_LFSR)
    elif config.lfsr_seed_policy == "per_device":
        base = derive_seed(config.global_seed, index, STAGE_LFSR)
    else:
        raise ValueError(f"unknown lfsr_seed_policy {config.lfsr_seed_policy!r}")
    period = (1 << challenge_width(config.ro_count)) - 1
    return base % period + 1


def run_pipeline(
    config: PipelineConfig, write: bool = True
) -> tuple[EvalReport, NistReport, list[DeviceRun]]:
    """Full multi-device run; optionally writes the artifact tree.

    The MICD traces of ``selection.json`` are computed for all devices in
    one batch just before writing; a run without files never computes them.
    """
    config.validate()
    spec = _device_spec(config)
    env_grid = config.env_grid()
    runs = _chain(
        config, spec, range(config.devices),
        lambda i, sel: _device_run(config, sel, _shared_lfsr_seed(config, i), env_grid),
    )

    golden_rows = np.stack([r.golden.bits for r in runs])
    sweeps = [np.stack([s.bits for s in r.sweep_responses]) if r.sweep_responses
              else np.empty((0, r.golden.k), dtype=np.uint8) for r in runs]
    report = evaluate_population(golden_rows, sweeps, [r.device_id for r in runs])
    nist_report = run_suite([r.golden.bits for r in runs])

    if write:
        micd_traces([r.kmeans for r in runs])
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
        export_profile_csv(r.layout, r.profile, str(dev_dir / "profile.csv"))
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

    config.validate()
    spec = _device_spec(config)
    kappas = valid_kappas(config.ro_count)

    def goldens(i: int, sel: _Selection) -> np.ndarray:
        lfsr_seed = _shared_lfsr_seed(config, i)
        return np.stack([
            _respond(sel, _place(sel, kappa, k_idx), lfsr_seed, [REFERENCE_ENV], k_idx)[0].bits
            for k_idx, kappa in enumerate(kappas)
        ])

    # (ratios, devices, k) golden bits
    per_ratio = np.stack(_chain(config, spec, range(config.devices), goldens), axis=1)
    points: list[KappaSweepPoint] = []
    for kappa, golden in zip(kappas, per_ratio):
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
    part); selection, including its MICD trace, and relocation are
    wall-clock measured.
    """
    config.validate()
    spec = _device_spec(config)
    pool = _candidate_pool(config, 0, spec)
    t_p1 = spec.site_count * config.samples * SAMPLE_COST_SEC

    t0 = time.perf_counter()
    (km,) = _kmeans(config, [pool])
    micd_traces([km])
    t1 = time.perf_counter()
    rel = _relocate(config, pool, km)
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
