"""Challenge-response generation.

A maximal-length Galois LFSR enumerates all nonzero challenge words; the
high half of each word selects a lower-group oscillator, the low half an
upper-group one.  The response bit is the sign of the count difference
between the two selected oscillators, measured fresh per challenge.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chipmodel import (
    DEFAULT_T_ON_US,
    REFERENCE_ENV,
    ChipProfile,
    EnvCondition,
    env_frequency_all,
    measure_counts,
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


@dataclass(frozen=True)
class Lfsr:
    """Galois-form linear feedback shift register."""

    width: int
    taps: tuple[int, ...]
    state: int

    def __post_init__(self) -> None:
        if self.state == 0:
            raise ValueError("LFSR state must be nonzero")
        if self.state >= 1 << self.width:
            raise ValueError(f"state {self.state:#x} does not fit in {self.width} bits")
        if max(self.taps) != self.width:
            raise ValueError("highest tap must equal the register width")

    @property
    def mask(self) -> int:
        poly = 1  # x^0
        for e in self.taps:
            poly |= 1 << e
        return poly >> 1

    def step(self) -> "Lfsr":
        s = self.state
        out = s & 1
        s >>= 1
        if out:
            s ^= self.mask
        return Lfsr(self.width, self.taps, s)


def lfsr_sequence(
    width: int,
    taps: tuple[int, ...] | None = None,
    seed_state: int = 1,
    clocks_per_word: int | None = None,
) -> np.ndarray:
    """All 2^width - 1 nonzero states in traversal order starting at the seed.

    ``clocks_per_word`` register steps separate successive entries (default
    per ``WORD_CLOCKS``: a full word, so consecutive challenge words share no
    register bits).  Because the clock count is coprime to the period, the
    traversal still visits every nonzero state exactly once.  Raises if the
    tap polynomial is not maximal-length (the single-step cycle would revisit
    a state early or fail to close).

    The validated table is cached per (width, taps, seed, clocks); each call
    returns its own copy, so a caller that mutates it changes no other result.
    """
    if taps is None:
        try:
            taps = TAPS[width]
        except KeyError:
            raise ValueError(f"no default taps for width {width}") from None
    if clocks_per_word is None:
        clocks_per_word = WORD_CLOCKS.get(width, 1)
    return _lfsr_table(width, tuple(taps), seed_state, clocks_per_word).copy()


@functools.lru_cache(maxsize=256)
def _lfsr_table(
    width: int, taps: tuple[int, ...], seed_state: int, clocks_per_word: int
) -> np.ndarray:
    if seed_state == 0:
        raise ValueError("LFSR seed state must be nonzero")
    period = (1 << width) - 1
    if not 0 < seed_state <= period:
        raise ValueError(f"seed {seed_state:#x} does not fit in {width} bits")
    if math.gcd(clocks_per_word, period) != 1:
        raise ValueError(
            f"clocks_per_word {clocks_per_word} shares a factor with period {period}"
        )
    single = np.empty(period, dtype=np.int64)
    s = Lfsr(width, taps, seed_state)
    for i in range(period):
        single[i] = s.state
        s = s.step()
    if s.state != seed_state or len(np.unique(single)) != period:
        raise ValueError(
            f"taps {taps} are not maximal-length for width {width} "
            f"(period check failed)"
        )
    table = single[(np.arange(period) * clocks_per_word) % period]
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class Challenge:
    """Selects one oscillator per group."""

    lg_index: int
    ug_index: int


def challenge_from_state(state: int, m: int) -> Challenge:
    """Decode an LFSR word: high half -> lower group, low half -> upper group."""
    w = challenge_width(m)
    half = w // 2
    return Challenge(lg_index=state >> half, ug_index=state & ((1 << half) - 1))


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

    def as_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def to_hex(self) -> str:
        """Pack bits little-endian (bit 0 = first challenge) into hex."""
        packed = np.packbits(self.bits, bitorder="little").tobytes()
        digits = (self.k + 3) // 4
        return format(int.from_bytes(packed, "little"), f"0{digits}x")


def bits_from_hex(hexbits: str, k: int | None = None) -> np.ndarray:
    """Inverse of ``ResponseSet.to_hex``.

    For the supported designs k = (M/2)^2 - 1 is one less than a multiple of
    four, so it can be inferred from the digit count when not given.  A value
    with a bit set at or above k comes from a dump with another k and is
    rejected rather than truncated.
    """
    if k is None:
        k = 4 * len(hexbits) - 1
    value = int(hexbits, 16)
    if value < 0 or value >> k:
        raise ValueError(f"hex value {hexbits!r} does not fit in k={k} bits")
    packed = np.frombuffer(value.to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=k, bitorder="little")


def _plan_frequencies(
    plan: PlacementPlan, chip: ChipProfile, env: EnvCondition
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    refs_l = np.array([r for r, _ in plan.lower_order], dtype=np.intp)
    refs_u = np.array([r for r, _ in plan.upper_order], dtype=np.intp)
    if refs_l.max(initial=0) >= chip.site_count or refs_u.max(initial=0) >= chip.site_count:
        raise ValueError("plan references sites beyond this chip; wrong device?")
    freqs = env_frequency_all(chip, env)
    return freqs[refs_l], freqs[refs_u], chip.meas_sigma_site[refs_l], chip.meas_sigma_site[refs_u]


def respond_bit(
    plan: PlacementPlan,
    chip: ChipProfile,
    challenge: Challenge,
    env: EnvCondition = REFERENCE_ENV,
    t_on_us: float = DEFAULT_T_ON_US,
    rng: np.random.Generator | None = None,
) -> int:
    """One comparator bit: 0 when the lower-group count is >= the upper's."""
    half = plan.group_size
    if not (0 <= challenge.lg_index < half and 0 <= challenge.ug_index < half):
        raise ValueError(f"challenge {challenge} out of range for group size {half}")
    f_l, f_u, s_l, s_u = _plan_frequencies(plan, chip, env)
    counts = measure_counts(
        np.array([f_l[challenge.lg_index], f_u[challenge.ug_index]]),
        t_on_us,
        rng,
        np.array([s_l[challenge.lg_index], s_u[challenge.ug_index]]),
    )
    return 0 if counts[0] - counts[1] >= 0 else 1


def generate_response(
    plan: PlacementPlan,
    chip: ChipProfile,
    lfsr_seed: int = 1,
    env: EnvCondition = REFERENCE_ENV,
    rng: np.random.Generator | None = None,
    t_on_us: float = DEFAULT_T_ON_US,
) -> ResponseSet:
    """Full k-bit response, k = (M/2)^2 - 1, fresh noise per challenge."""
    m = plan.m
    w = challenge_width(m)
    states = lfsr_sequence(w, TAPS[w], lfsr_seed)
    half_bits = w // 2
    lg = states >> half_bits
    ug = states & ((1 << half_bits) - 1)
    f_l, f_u, s_l, s_u = _plan_frequencies(plan, chip, env)
    counts_l = measure_counts(f_l[lg], t_on_us, rng, s_l[lg])
    counts_u = measure_counts(f_u[ug], t_on_us, rng, s_u[ug])
    bits = (counts_l - counts_u < 0).astype(np.uint8)
    return ResponseSet(
        device_id=chip.device_id,
        env=env,
        bits=bits,
        k=len(states),
        challenge_seed=lfsr_seed,
    )


def save_responses(path: str, responses: list[ResponseSet]) -> None:
    """Dump responses, one ``device_id,temp,vcc,hexbits`` line each."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("device_id,temp_c,vcc_mv,hexbits\n")
        for r in responses:
            fh.write(f"{r.device_id},{r.env.temp_c:g},{r.env.vcc_mv:g},{r.to_hex()}\n")


def load_responses(path: str) -> list[ResponseSet]:
    out: list[ResponseSet] = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("device_id,"):
            raise ValueError(f"{path}: missing response dump header")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                device_id, temp, vcc, hexbits = line.split(",")
                bits = bits_from_hex(hexbits)
                env = EnvCondition(float(temp), float(vcc))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed response line ({exc})") from None
            out.append(ResponseSet(device_id, env, bits, len(bits), challenge_seed=-1))
    return out
