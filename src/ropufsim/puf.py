"""LFSR challenges, comparator response bits and response dumps.

A maximal-length Galois LFSR enumerates all nonzero challenge words; the
high half of each word selects a lower-group oscillator, the low half an
upper-group one.  ``generate_responses`` decodes the whole traversal at once
and measures every selected pair with fresh noise under each condition: bit
i is 1 when the lower-group count of challenge i is below the upper-group
one, so an exact tie reads 0.
"""

from __future__ import annotations

import functools
import io
import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .chipmodel import (
    DEFAULT_T_ON_US,
    REFERENCE_ENV,
    ChipProfile,
    DataError,
    EnvCondition,
    ascii_float,
    ascii_int,
    env_frequencies,
    noisy_counts,
    read_text,
)
from .placement import PlacementPlan

# Primitive feedback polynomials per register width, given as exponent tuples
# (the x^0 term is implicit): e.g. (4, 3) encodes x^4 + x^3 + 1.
TAPS: dict[int, tuple[int, ...]] = {
    4: (4, 3),
    6: (6, 1),
    8: (8, 4, 3, 2),
    10: (10, 3),
}

# Register clocks between latched challenge words: at least a full word so
# successive challenges share no register bits, bumped to the next count
# coprime to the period so the decimated traversal still visits every
# nonzero state exactly once (gcd(6, 63) = 3, hence 8 for width 6).
WORD_CLOCKS: dict[int, int] = {4: 4, 6: 8, 8: 8, 10: 10}


def challenge_width(m: int) -> int:
    """LFSR width for an M-oscillator design: two index fields of log2(M/2) bits."""
    half = m // 2
    if half < 2 or half & (half - 1) != 0:
        raise ValueError(f"RO count must be a power of two >= 4, got {m}")
    return 2 * (half.bit_length() - 1)


def lfsr_sequence(
    width: int,
    taps: tuple[int, ...] | None = None,
    seed_state: int = 1,
) -> np.ndarray:
    """All 2^width - 1 nonzero states in traversal order starting at the seed.

    ``WORD_CLOCKS[width]`` register steps (1 for a width it does not list)
    separate successive entries: a full word, so consecutive challenge words
    share no register bits.  Because every clock count there is coprime to
    its period, the traversal still visits every nonzero state exactly once.
    Raises if the tap polynomial is not maximal-length (the single-step
    cycle would revisit a state early or fail to close).

    The validated table is cached per (width, taps, seed); each call
    returns its own copy, so a caller that mutates it changes no other result.
    """
    if taps is None:
        try:
            taps = TAPS[width]
        except KeyError:
            raise ValueError(f"no default taps for width {width}") from None
    return _lfsr_table(width, tuple(taps), seed_state).copy()


@functools.lru_cache(maxsize=256)
def _lfsr_table(width: int, taps: tuple[int, ...], seed_state: int) -> np.ndarray:
    if seed_state == 0:
        raise ValueError("LFSR seed state must be nonzero")
    period = (1 << width) - 1
    if not 0 < seed_state <= period:
        raise ValueError(f"seed {seed_state:#x} does not fit in {width} bits")
    if max(taps) != width:
        raise ValueError("highest tap must equal the register width")
    # Galois form: shift right, and fold the polynomial (x^0 term dropped)
    # back in whenever a one falls out
    mask = sum(1 << e for e in set(taps)) >> 1
    single = np.empty(period, dtype=np.int64)
    s = seed_state
    for i in range(period):
        single[i] = s
        s = (s >> 1) ^ (mask if s & 1 else 0)
    if s != seed_state or not (np.diff(np.sort(single)) > 0).all():
        raise ValueError(
            f"taps {taps} are not maximal-length for width {width} "
            f"(period check failed)"
        )
    table = single[(np.arange(period) * WORD_CLOCKS.get(width, 1)) % period]
    table.setflags(write=False)
    return table


@dataclass(eq=False)
class ResponseSet:
    """One device's k-bit response under one condition, in LFSR order."""

    device_id: str
    env: EnvCondition
    bits: np.ndarray
    k: int
    challenge_seed: int

    def __post_init__(self) -> None:
        if len(self.bits) != self.k:
            raise ValueError(f"bit count {len(self.bits)} != k {self.k}")

    def to_hex(self) -> str:
        """Pack bits little-endian (bit 0 = first challenge) into hex."""
        packed = np.packbits(self.bits, bitorder="little").tobytes()
        digits = (self.k + 3) // 4
        return format(int.from_bytes(packed, "little"), f"0{digits}x")


_HEX_DIGITS = re.compile(r"[0-9a-fA-F]+")


def bits_from_hex(hexbits: str, k: int | None = None) -> np.ndarray:
    """Inverse of ``ResponseSet.to_hex``.

    For the supported designs k = (M/2)^2 - 1 is one less than a multiple of
    four, so it can be inferred from the digit count when not given.  Only
    ASCII hex digits are accepted: no prefix, sign, space or underscore.  A
    value with a bit set at or above k comes from a dump with another k and
    is rejected rather than truncated.
    """
    if _HEX_DIGITS.fullmatch(hexbits) is None:
        raise ValueError(f"hex value {hexbits!r} is not ASCII hex digits")
    if k is None:
        k = 4 * len(hexbits) - 1
    value = int(hexbits, 16)
    if value < 0 or value >> k:
        raise ValueError(f"hex value {hexbits!r} does not fit in k={k} bits")
    packed = np.frombuffer(value.to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=k, bitorder="little")


def generate_responses(
    plan: PlacementPlan,
    chip: ChipProfile,
    lfsr_seed: int,
    envs: Sequence[EnvCondition],
    rngs: Iterable[np.random.Generator | None],
    t_on_us: float = DEFAULT_T_ON_US,
) -> np.ndarray:
    """Full k-bit responses of one placement, k = (M/2)^2 - 1, as a
    (conditions, k) bit matrix: row j is measured under ``envs[j]`` with
    fresh noise from the j-th generator of ``rngs``, taken when row j draws.

    Frequencies are scaled to each condition at the M placed sites only.
    Each row draws its lower-group noise, then its upper-group noise, k
    normals each, and only for a group with some positive measurement
    sigma, so it equals a response measured alone.
    """
    m = plan.m
    w = challenge_width(m)
    states = lfsr_sequence(w, TAPS[w], lfsr_seed)
    half_bits = w // 2
    k = len(states)
    sites = plan.refs
    if sites.max(initial=0) >= chip.site_count:
        raise ValueError("plan references sites beyond this chip; wrong device?")
    # columns of the placed sites compared by each challenge: the lower-group
    # oscillator of every challenge, then the upper-group one
    pick = np.concatenate([states >> half_bits, m // 2 + (states & ((1 << half_bits) - 1))])
    freqs = env_frequencies(chip, envs, sites)[:, pick]
    sigma = chip.meas_sigma_site[sites][pick]
    noise = np.zeros(freqs.shape)
    groups = [g for g in (slice(0, k), slice(k, 2 * k)) if np.any(sigma[g] > 0)]
    if groups:
        draw = slice(groups[0].start, groups[-1].stop)
        for row, rng in zip(noise, rngs):
            if rng is None:
                raise ValueError("rng required when measurement noise is enabled")
            rng.standard_normal(out=row[draw])
    counts = noisy_counts(freqs, t_on_us, noise, sigma)
    return (counts[:, :k] < counts[:, k:]).astype(np.uint8)


def generate_response(
    plan: PlacementPlan,
    chip: ChipProfile,
    lfsr_seed: int = 1,
    env: EnvCondition = REFERENCE_ENV,
    rng: np.random.Generator | None = None,
    t_on_us: float = DEFAULT_T_ON_US,
) -> ResponseSet:
    """Full k-bit response under one condition; a one-condition call of
    ``generate_responses``."""
    bits = generate_responses(plan, chip, lfsr_seed, [env], [rng], t_on_us)[0]
    return ResponseSet(
        device_id=chip.device_id,
        env=env,
        bits=bits,
        k=bits.size,
        challenge_seed=lfsr_seed,
    )


RESPONSE_COLUMNS = "device_id,temp_c,vcc_mv,hexbits"


def _condition_text(value: float) -> str:
    """``value`` in ``:g`` form when that reads back as it, else its ``repr``."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def save_responses(path: str, responses: list[ResponseSet]) -> None:
    """Dump responses of one width k: a ``device_id,temp_c,vcc_mv,hexbits(k=<k>)``
    header, then one ``device_id,temp,vcc,hexbits`` line each; a condition
    is written so that it reads back exactly."""
    widths = {r.k for r in responses}
    if len(widths) != 1:
        raise ValueError(f"a dump holds responses of one width, got k in {sorted(widths)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{RESPONSE_COLUMNS}(k={widths.pop()})\n")
        for r in responses:
            fh.write(f"{r.device_id},{_condition_text(r.env.temp_c)},"
                     f"{_condition_text(r.env.vcc_mv)},{r.to_hex()}\n")


def load_responses(path: str) -> list[ResponseSet]:
    """Read a ``save_responses`` dump.  Every response has the header's k
    bits; a header without k, a line that is not UTF-8 text, a value that is
    not ASCII hex digits or has a bit set at or above k, or a k, temperature or
    voltage that is not a finite number in ASCII decimal form raises
    ``DataError`` naming the file and line."""
    out: list[ResponseSet] = []
    with io.StringIO(read_text(path)) as fh:
        header = fh.readline().strip()
        prefix = f"{RESPONSE_COLUMNS}(k="
        try:
            if not (header.startswith(prefix) and header.endswith(")")):
                raise ValueError(f"expected a {prefix}<k>) header, got {header!r}")
            k = ascii_int(header[len(prefix):-1])
            if k < 1:
                raise ValueError(f"k must be >= 1, got {k}")
        except ValueError as exc:
            raise DataError(f"{path}:1: bad response dump header ({exc})") from None
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                device_id, temp, vcc, hexbits = line.split(",")
                bits = bits_from_hex(hexbits, k)
                env = EnvCondition(ascii_float(temp), ascii_float(vcc))
                if not (math.isfinite(env.temp_c) and math.isfinite(env.vcc_mv)):
                    raise ValueError(f"temperature and voltage must be finite, got {temp}, {vcc}")
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed response line ({exc})") from None
            out.append(ResponseSet(device_id, env, bits, k, challenge_seed=-1))
    return out
