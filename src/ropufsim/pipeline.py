"""End-to-end orchestration: synth -> characterize -> reject -> select ->
relocate -> group -> place -> respond -> evaluate, plus sweeps and a
computation-time model.  Every verb runs devices through one chain, in
blocks, in one process: each device's candidate pool is built once (a
written run writes its profile.csv then), then one K-means run per block
and design size.  No run returns a characterization.  A written verb stages
every file it writes as ``<name>.part`` and renames them all at its commit,
so a verb that fails leaves an earlier tree under ``out_dir`` as it was.

Every stage's randomness derives from the declared global seed, so a run is
reproducible from its manifest alone.  A run logs its host seconds per stage
through the ``ropufsim`` logger at DEBUG.
"""

from __future__ import annotations

import errno
import glob
import json
import logging
import math
import numbers
import os
import threading
import time
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from itertools import takewhile
from pathlib import Path
from typing import Callable, Sequence, TypeVar, get_args

import numpy as np

from .characterize import (
    FrequencyProfile,
    characterize,
    export_profile_csv,
    reject_erroneous,
)
from .chipmodel import (
    DEFAULT_SAMPLES,
    PRESETS,
    REFERENCE_ENV,
    ChipProfile,
    ConfigError,
    DeviceSpec,
    EnvCondition,
    get_preset,
)
from .chipmodel import synth_chip
from .metrics import EvalReport, evaluate_population
from .nist import NistReport, format_rate, run_suite
from .placement import (
    PlacementPlan,
    _kappa_counts,
    _kappa_index,
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
    improved_kmeans,  # noqa: F401  (perfbench/spans.py traces it by this name)
    pair_rows,
    relocate_centroids,
)

DEFAULT_TEMPS = tuple(float(t) for t in range(-5, 76, 10))
DEFAULT_VOLTS = tuple(float(v) for v in range(900, 1101, 20))

SAMPLE_COST_SEC = 0.003  # modeled per-sample measurement cost

# Version of the artifact tree's file formats, recorded in manifest.json.
# 2: profile.csv holds integer count moments, responses.csv records k.
# 3: manifest.json drops the config keys t_on_us, reject_mode,
#    reject_threshold, reject_quantile, lfsr_seed_policy, k_max and
#    relocation_max_iter and the per-device threshold_used;
#    selection.json is written without indentation.
FORMAT_VERSION = 3

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
    temps: tuple[float, ...] = DEFAULT_TEMPS
    volts: tuple[float, ...] = DEFAULT_VOLTS
    env_mode: str = "axes"              # axes | cross | reference
    global_seed: int = 2026
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
            # a bool is on the grid too, as abs(1.0 - True) == 0
            if not is_real(self.kappa):
                raise TypeError
            _kappa_counts(m, self.kappa)
        except (TypeError, ValueError):
            raise bad("kappa", f"one of {valid_kappas(m)}") from None
        if not (is_int(self.samples) and self.samples >= 2):
            raise bad("samples", "an integer >= 2")
        for name, known in (
            ("preset", tuple(PRESETS)),
            ("env_mode", ("axes", "cross", "reference")),
            ("seeding", get_args(SeedStrategy)),
        ):
            if getattr(self, name) not in known:
                raise bad(name, f"one of {list(known)}")
        if not (is_int(self.workers) and self.workers == 1):
            raise bad("workers", "1, as devices run in blocks in one process")
        if not (is_int(self.global_seed) and self.global_seed >= 0):
            raise bad("global_seed", "an integer >= 0")
        for name in ("temps", "volts"):
            values = getattr(self, name)
            if not (isinstance(values, (list, tuple))
                    and all(is_real(v) and math.isfinite(v) for v in values)):
                raise bad(name, "a sequence of finite numbers")
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise bad("out_dir", "a non-empty string")
        spec_file = self.device_spec_file
        if not (spec_file is None or isinstance(spec_file, str) and spec_file):
            raise bad("device_spec_file", "None or a non-empty string")

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
        ref = REFERENCE_ENV
        if self.env_mode == "reference":
            return [ref]
        if self.env_mode == "axes":
            conds = [EnvCondition(t, ref.vcc_mv) for t in self.temps]
            conds += [EnvCondition(ref.temp_c, v) for v in self.volts]
        elif self.env_mode == "cross":
            conds = [EnvCondition(t, v) for t in self.temps for v in self.volts]
        else:
            raise ValueError(f"unknown env_mode {self.env_mode!r}")
        return list(dict.fromkeys(conds))  # each condition once, in grid order


_log = logging.getLogger("ropufsim")


class _StageTimes:
    """Host seconds per stage of one run, summed over its devices."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0

    def log(self, what: str) -> None:
        """One DEBUG record per stage, in the order the stages first ran."""
        for name, sec in self.seconds.items():
            _log.debug("%s stage %-12s %8.4f host s", what, name, sec)


# numpy's SeedSequence hash and PCG64 seeding (NEP 19) in uint32 and 128-bit arithmetic
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hash_consts(c: int, mult: int, n: int) -> np.ndarray:
    """The hash constant before each of n hash calls and after the last, as a column."""
    consts = [c]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)[:, None]


def _seed_states(entropy: np.ndarray, held, n_words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words)`` of each column e of the
    (W >= 4, N) uint32 ``entropy``, column i holding ``held[i]`` words."""
    hc = _hash_consts(_INIT_A, _MULT_A, 4 * len(entropy))

    def hashmix(v, t, k):  # hash calls t .. t + k - 1
        v = (v ^ hc[t : t + k]) * hc[t + 1 : t + k + 1]
        return v ^ v >> 16

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        return r ^ r >> 16

    pool = hashmix(entropy[:4], 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    for i in range(4, len(entropy)):
        pool = np.where(held > i, mix(pool, hashmix(entropy[i], 4 * i, 4)), pool)
    hb = _hash_consts(_INIT_B, _MULT_B, n_words)
    out = (pool[np.arange(n_words) % 4] ^ hb[:-1]) * hb[1:]
    return out ^ out >> 16


def _path_words(x) -> tuple[np.ndarray, np.ndarray]:
    """The uint32 words of path element ``x`` (an int or int array), low word
    first and zero-padded, and which of them SeedSequence takes."""
    a = np.asarray(x)
    if a.dtype.kind not in "iu":
        a = np.asarray(x, dtype=object)  # ints beyond 64 bits; a float raises below
    if (a < 0).any():
        raise ValueError("expected non-negative integer")
    js = range(max(1, -(-int(a.max(initial=0)).bit_length() // 32)))
    return (np.stack([a >> 32 * j & _MASK32 for j in js], -1).astype(np.uint32),
            np.stack([(a >> 32 * j > 0) | (j == 0) for j in js], -1))


def seed_table(*path) -> np.ndarray:
    """numpy's derived seed for every path of a broadcast grid.

    Each path element is a non-negative int or int array; the uint32 result
    has their broadcast shape, and each entry is
    ``np.random.SeedSequence(list(path)).generate_state(1)[0]``.
    """
    parts = [_path_words(x) for x in path]
    shape = np.broadcast_shapes(*(held.shape[:-1] for _, held in parts))
    words, held = (np.concatenate([np.broadcast_to(a, shape + a.shape[-1:]) for a in arrays], -1)
                   for arrays in zip(*parts))
    # one row per path: its elements' words side by side
    words, held = words.reshape(-1, words.shape[-1]), held.reshape(-1, held.shape[-1])
    entropy = np.zeros((max(4, words.shape[1]), len(words)), np.uint32)
    if held.all():
        entropy[: words.shape[1]] = words.T
    else:  # some element has more than one word: pack each path's words
        rows, cols = np.nonzero(held)
        entropy[held.cumsum(1)[rows, cols] - 1, rows] = words[rows, cols]
    return _seed_states(entropy, held.sum(1), 1).reshape(shape)


def generator_words(seeds: np.ndarray) -> np.ndarray:
    """The uint64 words (state >> 64, state mod 2^64, inc >> 64, inc mod 2^64)
    of ``np.random.default_rng(seed).bit_generator.state`` for each uint32
    seed, of shape ``seeds.shape + (4,)``."""
    # PCG64(seed) takes (init, seq) = SeedSequence(seed).generate_state(4, uint64)
    # and starts at inc = 2 seq + 1, state = (inc + init) * MULT + inc, mod 2^128
    seeds = np.asarray(seeds)
    entropy = np.zeros((4, seeds.size), np.uint32)
    entropy[0] = seeds.ravel()
    w = _seed_states(entropy, 1, 8).astype(np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = w[::2] | w[1::2] << 32
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo)
    # lo * _PCG_LO's high word from 32-bit limbs
    a0, a1, b0, b1 = lo & _MASK32, lo >> 32, _PCG_LO & _MASK32, _PCG_LO >> 32
    mid = (a0 * b0 >> 32) + (a1 * b0 & _MASK32) + (a0 * b1 & _MASK32)
    hi = (hi * _PCG_LO + lo * _PCG_HI + a1 * b1 + (a1 * b0 >> 32) + (a0 * b1 >> 32)
          + (mid >> 32) + inc_hi)
    lo = lo * _PCG_LO + inc_lo
    hi += lo < inc_lo
    return np.stack([hi, lo, inc_hi, inc_lo], -1).reshape(seeds.shape + (4,))


STAGE_SYNTH, STAGE_CHAR, STAGE_SELECT, STAGE_ASSIGN, STAGE_PLACE, STAGE_RESP, STAGE_LFSR = range(7)
_STAGES = ("synth", "characterize", "select", "assign", "place", "response")


class _SeedTable:
    """The seeds of a chain's devices, row d for ``indices[d]``: by stage,
    ``stage`` and the characterization's generator words ``characterize``;
    at the r-th (M, ratio index) of ``ratios``, the placement seed
    ``place[d, r]`` and the generator words of the group assignment
    ``assign[d, r]`` and of each response slot ``respond[d, r, slot]``."""

    def __init__(self, global_seed: int, indices: Sequence[int],
                 ratios: list[tuple[int, int]], slots: int) -> None:
        self.indices, self.ratios = indices, ratios
        self.stage = seed_table(global_seed, np.asarray(indices)[:, None], np.arange(len(_STAGES)))
        self.characterize = generator_words(self.stage[:, STAGE_CHAR])
        tags = np.array([tag for _, tag in ratios], dtype=np.intp)
        assign, self.place = seed_table(self.stage.T[[STAGE_ASSIGN, STAGE_PLACE], :, None], tags)
        self.assign = generator_words(assign)
        self.respond = generator_words(seed_table(self.stage[:, STAGE_RESP, None, None],
                                                  tags[:, None], np.arange(slots)))

    @cached_property
    def gen(self) -> np.random.Generator:
        # made at the first draw, after synth_chip has imported numpy.random,
        # so the seeds stage does not pay for that import
        return np.random.Generator(np.random.PCG64(0))

    def draw(self, words: np.ndarray) -> np.random.Generator:
        """The shared generator, set to where ``np.random.default_rng(seed)``
        starts for the seed whose table words are ``words``."""
        state, state_lo, inc, inc_lo = words.tolist()
        self.gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                        "state": {"state": state << 64 | state_lo,
                                                  "inc": inc << 64 | inc_lo}}
        return self.gen


@dataclass(eq=False)
class DeviceRun:
    """Artifacts of one device's stage chain.

    ``plan`` is the placement the responses came from; the writer emits it
    with the site labels of the plan's shared ``layout``.  No per-site chip
    array or characterization outlives the chain: a written run writes
    ``profile.csv`` when the device's pool is built, and ``excluded_sites``
    counts the fabric's sites that were never characterized.
    ``kmeans`` and ``relocated`` are the two selection results;
    ``selection_json`` is their file form, built on each access.
    """

    device_id: str
    seeds: dict[str, int]
    plan: PlacementPlan
    excluded_sites: int
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
        half = plan.group_size
        return {
            "kmeans": self.kmeans.to_json_dict(),
            "relocated": self.relocated.to_json_dict(),
            "plan": {
                "kappa": plan.assignment.kappa,
                "placement_seed": plan.placement_seed,
                "lower": pair_rows(plan.refs[:half], plan.freqs[:half]),
                "upper": pair_rows(plan.refs[half:], plan.freqs[half:]),
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
    table: _SeedTable
    row: int
    chip: ChipProfile
    excluded_sites: int
    kept_sites: int
    rejected: int
    nu: np.ndarray
    nu_refs: np.ndarray


def _candidate_pool(
    config: PipelineConfig, table: _SeedTable, row: int, spec: DeviceSpec, times: _StageTimes
) -> tuple[_Pool, FrequencyProfile]:
    """Device ``row``'s pool, and its characterization before rejection."""
    seeds = dict(zip(_STAGES, table.stage[row].tolist()))
    with times.stage("synth"):
        chip = synth_chip(spec, seeds["synth"], device_id=f"{spec.kind}_{table.indices[row]:03d}")
    with times.stage("characterize"):
        prof = characterize(chip, m=config.samples,
                            rng=table.draw(table.characterize[row]))
    with times.stage("reject"):
        clean = reject_erroneous(prof)
        kept = clean.kept
        # the mean S1 / (m t_on) rises strictly with S1 while S1 < 2^26.5,
        # which the exact-moment limit guarantees, so sorting these unique
        # keys orders the pool as a stable sort of the means
        s1 = kept.sum_count.astype(np.int64)
        order = np.argsort(s1 * s1.size + np.arange(s1.size))
    return _Pool(seeds, table, row, chip, len(chip.layout) - len(prof), clean.z_bar,
                 clean.rejected_count, kept.mean[order], kept.site_refs[order]), prof


def _kmeans(m: int, seeding: SeedStrategy, pools: Sequence[_Pool]) -> list[SelectionResult]:
    """The improved K-means result of every pool at ``m``, from one batched run."""
    configs = [SelectionConfig(m=m, seeding=seeding, rng_seed=p.seeds["select"])
               for p in pools]
    pairs = batched_kmeans([p.nu for p in pools], configs, [p.nu_refs for p in pools])
    return [improved for improved, _ in pairs]


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
    config: PipelineConfig, ms: Sequence[int], indices: Sequence[int],
    finish: Callable[[int, _Selection], _T], times: _StageTimes,
    kappas: Sequence[float] = (), slots: int = 0, tree: _Tree | None = None,
) -> list[list[_T]]:
    """``finish(j, selection)`` of the devices ``indices`` of ``config`` at
    the j-th M of ``ms``, one list per M in index order.

    The seed table comes first, with the placement and ``slots`` response
    streams of each ratio of ``kappas`` at each M.  Devices run in blocks of
    ``_BLOCK_DEVICES``: each device's candidate pool once, then per M one
    K-means run for the block and each device's relocation and ``finish``.
    What ``finish`` returns must not hold the chip, so a block's chips are
    freed before the next block is synthesized.  With ``tree``, each device's
    profile goes to its staged file when its pool is built, and is dropped.
    """
    with times.stage("seeds"):
        ratios = [(m, _kappa_index(m, kappa)) for m in ms for kappa in kappas]
        table = _SeedTable(config.global_seed, indices, ratios, slots)
    spec = _device_spec(config)
    out: list[list[_T]] = [[] for _ in ms]
    rows = range(len(indices))
    for start in rows[::_BLOCK_DEVICES]:
        # a block's pools live in _chain_block's frame, so returning frees them
        _chain_block(config, spec, ms, table, rows[start : start + _BLOCK_DEVICES], finish,
                     times, out, tree)
    return out


def _chain_block(config, spec, ms, table, rows, finish, times, out, tree) -> None:
    pools = []
    for d in rows:
        pool, prof = _candidate_pool(config, table, d, spec, times)
        if tree is not None:
            with times.stage("write"):
                rel = _device_dir(table.indices[d]) + _DEVICE_FILES[0]
                export_profile_csv(pool.chip.layout, prof, tree.staged(rel))
        pools.append(pool)
    for j, (m, results) in enumerate(zip(ms, out)):
        with times.stage("kmeans"):
            kms = _kmeans(m, config.seeding, pools)
        for pool, km in zip(pools, kms):
            with times.stage("relocation"):
                relocated = relocate_centroids(pool.nu, km.freqs, site_refs=pool.nu_refs)
            results.append(finish(j, _Selection(pool, km, relocated)))


def _place(sel: _Selection, kappa: float, r: int) -> PlacementPlan:
    """Group assignment and placement at ratio ``kappa``, the r-th of the
    seed table's ratios."""
    pool = sel.pool
    table, relocated = pool.table, sel.relocated
    assignment = assign_groups(relocated.refs, relocated.freqs, kappa,
                               table.draw(table.assign[pool.row, r]))
    return randomize_placement(assignment, pool.chip.layout, int(table.place[pool.row, r]))


def _respond(
    sel: _Selection, plan: PlacementPlan, lfsr_seed: int, envs: Sequence[EnvCondition], r: int,
) -> list[ResponseSet]:
    """The responses of one placement, one per condition: slot 0 is the
    golden one and slot 1 + j the j-th swept condition, each with its own
    stream of the seed table at its r-th ratio.
    """
    pool = sel.pool
    table = pool.table
    rngs = (table.draw(words) for words in table.respond[pool.row, r, : len(envs)])
    bits = generate_responses(plan, pool.chip, lfsr_seed, envs, rngs)
    return [ResponseSet(pool.chip.device_id, env, row, bits.shape[1], lfsr_seed)
            for env, row in zip(envs, bits)]


def _device_run(
    sel: _Selection, kappa: float, lfsr_seed: int, env_grid: Sequence[EnvCondition],
    times: _StageTimes,
) -> DeviceRun:
    """Placement at ratio ``kappa``, the golden response and one response per
    condition of ``env_grid``, and what the writer needs of the chain.  The
    seeds derive from the ratio's grid index at the selection's M, so run and
    ``sweep_kappa`` give a device the same golden response at one ratio."""
    pool = sel.pool
    m = len(sel.relocated.refs)
    r = pool.table.ratios.index((m, _kappa_index(m, kappa)))
    with times.stage("assign/place"):
        plan = _place(sel, kappa, r)
    with times.stage("respond"):
        golden, *sweep = _respond(sel, plan, lfsr_seed, [REFERENCE_ENV, *env_grid], r)
    return DeviceRun(
        device_id=pool.chip.device_id,
        seeds=pool.seeds,
        plan=plan,
        excluded_sites=pool.excluded_sites,
        kept_sites=pool.kept_sites,
        rejected=pool.rejected,
        kmeans=sel.kmeans,
        relocated=sel.relocated,
        golden=golden,
        sweep_responses=sweep,
    )


def run_device(config: PipelineConfig, index: int) -> DeviceRun:
    """Device ``index`` of ``run_pipeline(config)``, run alone."""
    config.validate()
    [[run]] = _device_runs(config, [config.ro_count], [index], _StageTimes())
    return run


def _shared_lfsr_seed(config: PipelineConfig) -> int:
    """The LFSR seed every device of a run starts from at ``config.ro_count``."""
    period = (1 << challenge_width(config.ro_count)) - 1
    return int(seed_table(config.global_seed, 10_000, STAGE_LFSR)) % period + 1


def _device_runs(
    config: PipelineConfig, ms: Sequence[int], indices: Sequence[int], times: _StageTimes,
    tree: _Tree | None = None,
) -> list[list[DeviceRun]]:
    """The runs of devices ``indices`` at ``config.kappa``, one list per M."""
    env_grid = config.env_grid()
    lfsr_seeds = [_shared_lfsr_seed(replace(config, ro_count=m)) for m in ms]
    return _chain(config, ms, indices,
                  lambda j, sel: _device_run(sel, config.kappa, lfsr_seeds[j], env_grid, times),
                  times, [config.kappa], 1 + len(env_grid), tree)


def _judge(
    responses: Sequence[Sequence[ResponseSet]], times: _StageTimes
) -> tuple[EvalReport, NistReport]:
    """The evaluation report and SP 800-22 verdicts of a population, from
    each device's responses: the golden one, then one per swept condition."""
    with times.stage("evaluate"):
        mats = [np.stack([r.bits for r in rs]) for rs in responses]
        report = evaluate_population(np.stack([m[0] for m in mats]), [m[1:] for m in mats],
                                     [rs[0].device_id for rs in responses])
    with times.stage("nist"):
        nist_report = run_suite([m[0] for m in mats])
    return report, nist_report


# The artifact tree under out_dir: _MANIFEST, each device's directory of
# _DEVICE_FILES and reports/ of _REPORT_FILES.
_MANIFEST = "manifest.json"
_DEVICE_FILES = ("profile.csv", "selection.json", "constraints.txt", "responses.csv")
_REPORT_FILES = ("eval.json", "nist.csv", "nist.json", "hd_hist.csv")
_REPORTS = "reports/"
_KAPPA_SWEEP = "kappa_sweep.csv"
_M_SWEEP = "m_sweep.csv"
_DEVICE_DIRS = "device_[0-9]*/"

# Every written verb's artifact names, any device directory's as a glob,
# files before the directories that hold them: each verb removes what any
# killed verb left under them.
_ARTIFACT_NAMES = (
    _MANIFEST, _KAPPA_SWEEP, _M_SWEEP, *(_DEVICE_DIRS + f for f in _DEVICE_FILES),
    *(_REPORTS + f for f in _REPORT_FILES), _DEVICE_DIRS, _REPORTS,
)


def _device_dir(index: int) -> str:
    return f"device_{index:03d}/"


def _run_paths(devices: int) -> list[str]:
    """A run's tree, in the order it is written: each device's directory and
    profile, which the chain writes in device order, then the writer's files."""
    dirs = [_device_dir(i) for i in range(devices)]
    profile, *rest = _DEVICE_FILES
    return [*(p for d in dirs for p in (d, d + profile)), _REPORTS, _MANIFEST,
            *(d + f for d in dirs for f in rest), *(_REPORTS + f for f in _REPORT_FILES)]


class _Tree(threading.Thread):
    """The files a written verb makes under ``root``, staged and committed.

    ``paths`` are relative to ``root``, parents first, a directory's ending
    in "/".  ``root`` and its missing parents are made at once, so an
    unusable one fails before any device work; then this helper thread
    removes what any killed verb left (the ``<name>.part`` of each file of
    ``_ARTIFACT_NAMES``, then each of its directories left empty) and makes
    each directory and each file as an empty ``<name>.part`` while the chain
    runs, so that writing only rewrites files: on ext4 a new file costs about
    ten times a rewrite.  It runs no numpy code and no emitter.  ``commit``
    renames every staged file to its name; a verb that raises inside the
    context removes what it made instead, so an earlier tree stays as it was.
    """

    def __init__(self, root: str, paths: Sequence[str]) -> None:
        super().__init__()
        self.root, self.paths, self.error = root, paths, None
        # what the verb makes, in order: root's missing ancestors and itself, then the thread's
        top = Path(root)
        self.made = [f"{p}/" for p in takewhile(lambda p: not p.exists(), [top, *top.parents])]
        self.made.reverse()
        top.mkdir(parents=True, exist_ok=True)
        self.file_made = threading.Semaphore(0)
        self.start()

    def run(self) -> None:
        t0 = time.perf_counter()
        try:
            for name in _ARTIFACT_NAMES:
                pattern = name if name.endswith("/") else name + ".part"
                for path in glob.glob(os.path.join(glob.escape(self.root), pattern)):
                    with suppress(OSError):  # a directory holding anything else stays
                        (os.rmdir if path.endswith("/") else os.unlink)(path)
            for path in [os.path.join(self.root, rel) for rel in self.paths]:
                if path.endswith("/"):
                    with suppress(FileExistsError):  # an earlier tree's directory is reused
                        os.mkdir(path)
                        self.made.append(path)
                else:
                    if os.path.isdir(path):  # commit could not rename the staged file onto it
                        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
                    # 0o666 under the umask, as open() makes files: artifacts are data
                    os.close(os.open(path + ".part", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666))
                    self.made.append(path + ".part")
                    self.file_made.release()
        except OSError as exc:
            self.error = exc
        finally:  # wakes the chain however far the thread got
            self.file_made.release(len(self.paths))
        self.seconds = time.perf_counter() - t0

    def staged(self, rel: str) -> str:
        """``rel``'s staged file, once made; every file is asked for at most
        once, in the order of ``paths``."""
        self.file_made.acquire()
        if self.error is not None:
            raise self.error
        return os.path.join(self.root, rel + ".part")

    def put(self, rel: str, text: str) -> None:
        Path(self.staged(rel)).write_text(text)

    def commit(self) -> None:
        """Rename every staged file to its name, once all of them are written."""
        for rel in self.paths:
            if not rel.endswith("/"):
                path = os.path.join(self.root, rel)
                os.replace(path + ".part", path)

    def __enter__(self) -> "_Tree":
        return self

    def __exit__(self, kind, *_) -> None:
        self.join()
        if kind is not None:
            for path in reversed(self.made):
                with suppress(OSError):  # a directory that something else wrote into stays
                    (os.rmdir if path.endswith("/") else os.unlink)(path)


def run_pipeline(
    config: PipelineConfig, write: bool = True
) -> tuple[EvalReport, NistReport, list[DeviceRun]]:
    """Full multi-device run; optionally writes the artifact tree.

    A written run stages every file of its tree, each profile.csv as its
    pool is built, and renames them all at the end; a failed run removes
    every file and directory it made.  The stage times are logged, not
    written, so the tree depends on the config alone.
    """
    config.validate()
    times = _StageTimes()
    with _Tree(config.out_dir, _run_paths(config.devices)) if write else nullcontext() as tree:
        (runs,) = _device_runs(config, [config.ro_count], range(config.devices), times, tree)
        report, nist_report = _judge([[r.golden, *r.sweep_responses] for r in runs], times)
        if tree is not None:
            with times.stage("write"):
                _write_run(tree, config, runs, report, nist_report)
                tree.commit()
    times.log(f"run of {len(runs)} devices:")
    return report, nist_report, runs


def _write_run(tree: _Tree, config: PipelineConfig, runs: list[DeviceRun], report: EvalReport,
               nist_report: NistReport) -> None:
    t0 = time.perf_counter()
    tree.join()
    _log.debug("run of %d devices: tree made in %.4f host s on a helper thread; write "
               "waited %.4f host s for it", len(runs), tree.seconds, time.perf_counter() - t0)
    tree.put(_MANIFEST, json.dumps({
        "format_version": FORMAT_VERSION,
        "config": json.loads(config.to_json()),
        "devices": [
            {
                "device_id": r.device_id,
                "seeds": r.seeds,
                "excluded_sites": r.excluded_sites,
                "rejected": r.rejected,
                "kept_sites": r.kept_sites,
                "kmeans_iterations": r.kmeans.iterations,
                "relocation_iterations": r.relocated.iterations,
                "min_diff_kmeans_mhz": r.selection_min_diff,
                "min_diff_relocated_mhz": r.relocated_min_diff,
            }
            for r in runs
        ],
    }, indent=2, sort_keys=True))

    _, selection, constraints, responses = _DEVICE_FILES
    for i, r in enumerate(runs):
        dev_dir = _device_dir(i)
        tree.put(dev_dir + selection, json.dumps(r.selection_json, sort_keys=True))
        emit_constraints(r.plan, tree.staged(dev_dir + constraints))
        save_responses(tree.staged(dev_dir + responses), [r.golden, *r.sweep_responses])

    eval_json, nist_csv, nist_json, hd_hist = _REPORT_FILES
    tree.put(_REPORTS + eval_json, json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    tree.put(_REPORTS + nist_csv, nist_report.to_csv())
    tree.put(_REPORTS + nist_json, json.dumps(nist_report.to_json_dict(), indent=2, sort_keys=True))
    counts, edges = np.histogram(np.asarray(report.hd_inter), bins=20, range=(0.0, 1.0))
    hist_rows = ["bin_lo,bin_hi,count"]
    hist_rows += [f"{lo:.3f},{hi:.3f},{int(c)}" for lo, hi, c in zip(edges, edges[1:], counts)]
    tree.put(_REPORTS + hd_hist, "\n".join(hist_rows) + "\n")


@dataclass
class KappaSweepPoint:
    kappa: float
    pass_rate: float | None
    all_pass: bool
    per_test: dict[str, bool]
    uniqueness: float
    min_entropy_avg: float


def sweep_kappa(config: PipelineConfig, write: bool = True) -> list[KappaSweepPoint]:
    """``run_pipeline``'s placement, golden response and judgement at every
    admissible ratio, without the swept conditions.

    The candidate pool, K-means and relocation are ratio-independent and run
    once per device.
    """
    config.validate()
    kappas = valid_kappas(config.ro_count)
    times = _StageTimes()
    lfsr_seed = _shared_lfsr_seed(config)
    with _Tree(config.out_dir, [_KAPPA_SWEEP]) if write else nullcontext() as tree:
        # each device keeps only its golden responses, all that _judge reads
        (per_device,) = _chain(
            config, [config.ro_count], range(config.devices),
            lambda _, sel: [[_device_run(sel, kappa, lfsr_seed, (), times).golden]
                            for kappa in kappas],
            times, kappas, 1,
        )
        points: list[KappaSweepPoint] = []
        for kappa, responses in zip(kappas, zip(*per_device)):
            report, nist_report = _judge(responses, times)
            per_test = {n: r.population_pass for n, r in nist_report.results.items()}
            points.append(KappaSweepPoint(kappa, nist_report.pass_rate, nist_report.all_pass(),
                                          per_test, report.u, report.min_entropy_avg))
        if tree is not None:
            rows = ["kappa,pass_rate,all_pass,uniqueness,min_entropy"]
            rows += [f"{p.kappa},{format_rate(p.pass_rate, '.4f')},{int(p.all_pass)},"
                     f"{p.uniqueness:.4f},{p.min_entropy_avg:.4f}" for p in points]
            tree.put(_KAPPA_SWEEP, "\n".join(rows) + "\n")
            tree.commit()
    times.log(f"kappa sweep of {config.devices} devices over {len(kappas)} ratios:")
    return points


@dataclass
class MSweepPoint:
    m: int
    bits: int
    median_min_diff: float
    r_avg: float
    nist_pass_rate: float | None


def sweep_m(config: PipelineConfig, write: bool = True) -> list[MSweepPoint]:
    """``run_pipeline``'s evaluation at every M of ``RO_COUNTS``, ignoring
    ``config.ro_count``, from one candidate pool per device.  Every M's
    config is validated before any device work; an error names the M.
    """
    for m in RO_COUNTS:
        try:
            replace(config, ro_count=m).validate()
        except ConfigError as exc:
            raise ConfigError(f"ro_count {m}: {exc}") from None
    times = _StageTimes()
    points = []
    with _Tree(config.out_dir, [_M_SWEEP]) if write else nullcontext() as tree:
        for m, runs in zip(RO_COUNTS,
                           _device_runs(config, RO_COUNTS, range(config.devices), times)):
            report, nist_report = _judge([[r.golden, *r.sweep_responses] for r in runs], times)
            median_min_diff = float(np.median([r.relocated_min_diff for r in runs]))
            points.append(MSweepPoint(m, runs[0].golden.k, median_min_diff, report.r_avg,
                                      nist_report.pass_rate))
        if tree is not None:
            rows = ["m,bits,median_min_diff_mhz,r_avg,nist_pass_rate"]
            rows += [f"{p.m},{p.bits},{p.median_min_diff:.6f},{p.r_avg:.6f},"
                     f"{format_rate(p.nist_pass_rate, '.4f')}" for p in points]
            tree.put(_M_SWEEP, "\n".join(rows) + "\n")
            tree.commit()
    times.log(f"M sweep of {config.devices} devices over {len(RO_COUNTS)} sizes:")
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
    """Computation-time accounting for device 0.

    Characterization time uses the per-sample cost model (the hardware-bound
    part); selection and relocation are the chain's host seconds of its
    kmeans stage and of its relocation stage.
    """
    config.validate()
    times = _StageTimes()
    [[(km, rel)]] = _chain(config, [config.ro_count], [0],
                           lambda _, sel: (sel.kmeans, sel.relocated), times)
    times.log("bench of 1 device:")
    t_p1 = _device_spec(config).site_count * config.samples * SAMPLE_COST_SEC
    sec = times.seconds
    t_select = sec["kmeans"]
    return BenchReport(
        characterization_model_sec=t_p1,
        selection_wall_sec=t_select,
        relocation_wall_sec=sec["relocation"],
        relocation_iterations=rel.iterations,
        kmeans_iterations=km.iterations,
        p2_much_less_than_p1=t_select + sec["relocation"] < 0.1 * t_p1,
    )
