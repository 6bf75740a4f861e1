"""Applicable subset of the SP 800-22 statistical tests.

Implements the nine tests usable at 255-bit sequences plus the spectral test
that activates from 1000 bits: frequency, block frequency, both cumulative
sums, runs, longest run of ones, approximate entropy, the two serial
p-values and DFT.  Population judgment follows the standard two-pronged
rule: a minimum proportion of passing sequences and a chi-square uniformity
check on the p-value distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special import erfc, normal_cdf, reg_gamma_upper

ALPHA_DEFAULT = 0.01
UNIFORMITY_ALPHA = 1e-4

# Longest-run-of-ones tiers from the standard: (min_n, block_len, class
# boundaries v_min..v_max, reference probabilities).
_LONGEST_RUN_TIERS = (
    (128, 8, 1, 4, (0.21484375, 0.3671875, 0.23046875, 0.1875)),
    (6272, 128, 4, 9, (0.1174035788, 0.242955959, 0.249363483,
                       0.17517706, 0.102701071, 0.112398847)),
    (750000, 10_000, 10, 16, (0.0882, 0.2092, 0.2483, 0.1933,
                              0.1208, 0.0675, 0.0727)),
)


class NotApplicableError(ValueError):
    """Test cannot run at this sequence length."""


@dataclass
class NistParams:
    """Suite parameters; None selects the length-dependent defaults."""

    block_len: int = 20
    m_entropy: int | None = None       # must satisfy m < floor(log2 n) - 5
    m_serial: int | None = None        # must satisfy m < floor(log2 n) - 2
    alpha: float = ALPHA_DEFAULT
    dft_min_n: int = 1000
    min_n_basic: int = 100
    uniformity_alpha: float = UNIFORMITY_ALPHA
    uniformity_min_sequences: int = 10

    def entropy_block_len(self, n: int) -> int:
        bound = int(math.floor(math.log2(n))) - 5
        if self.m_entropy is not None:
            if not 1 <= self.m_entropy < bound:
                raise NotApplicableError(
                    f"approximate-entropy block length must satisfy 1 <= m < {bound}"
                )
            return self.m_entropy
        if bound <= 1:
            raise NotApplicableError(f"no admissible approximate-entropy block length at n={n}")
        return bound - 1

    def serial_block_len(self, n: int) -> int:
        bound = int(math.floor(math.log2(n))) - 2
        if self.m_serial is not None:
            if not 2 <= self.m_serial < bound:
                raise NotApplicableError(
                    f"serial block length must satisfy 2 <= m < {bound}"
                )
            return self.m_serial
        if bound <= 2:
            raise NotApplicableError(f"no admissible serial block length at n={n}")
        return bound - 1


def _as_bits(bits) -> np.ndarray:
    if isinstance(bits, str):
        if set(bits) - {"0", "1"}:
            raise ValueError("bit strings may only contain 0 and 1")
        return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    arr = np.asarray(bits).astype(np.uint8)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    return arr


def _check_n(n: int, floor: int, check: bool, name: str) -> None:
    if check and n < floor:
        raise NotApplicableError(f"{name} requires n >= {floor}, got {n}")


def frequency_test(bits, check_n: bool = True) -> float:
    """Monobit: p = erfc(|S| / sqrt(2 n)) with S the +-1 sum."""
    b = _as_bits(bits)
    n = b.size
    _check_n(n, 100, check_n, "frequency test")
    s = int(2 * int(b.sum()) - n)
    s_obs = abs(s) / math.sqrt(n)
    return erfc(s_obs / math.sqrt(2.0))


def block_frequency_test(bits, block_len: int = 20, check_n: bool = True) -> float:
    """Proportion of ones per M-bit block against one half."""
    b = _as_bits(bits)
    n = b.size
    _check_n(n, 100, check_n, "block frequency test")
    if block_len < 1:
        raise ValueError("block length must be positive")
    num_blocks = n // block_len
    if num_blocks < 1:
        raise NotApplicableError(f"no complete {block_len}-bit block in {n} bits")
    trimmed = b[: num_blocks * block_len].reshape(num_blocks, block_len)
    pi = trimmed.sum(axis=1) / block_len
    chi2 = 4.0 * block_len * float(((pi - 0.5) ** 2).sum())
    return reg_gamma_upper(num_blocks / 2.0, chi2 / 2.0)


def cumulative_sums_test(bits, reverse: bool = False, check_n: bool = True) -> float:
    """Maximum excursion of the +-1 random walk, forward or reversed."""
    b = _as_bits(bits)
    n = b.size
    _check_n(n, 100, check_n, "cumulative sums test")
    x = 2 * b.astype(np.int64) - 1
    if reverse:
        x = x[::-1]
    partial = np.cumsum(x)
    z = int(np.abs(partial).max())
    if z == 0:
        return 1.0
    sqrt_n = math.sqrt(n)
    k_lo1 = math.floor((-n / z + 1) / 4)
    k_hi = math.floor((n / z - 1) / 4)
    sum1 = sum(
        normal_cdf((4 * k + 1) * z / sqrt_n) - normal_cdf((4 * k - 1) * z / sqrt_n)
        for k in range(k_lo1, k_hi + 1)
    )
    k_lo2 = math.floor((-n / z - 3) / 4)
    sum2 = sum(
        normal_cdf((4 * k + 3) * z / sqrt_n) - normal_cdf((4 * k + 1) * z / sqrt_n)
        for k in range(k_lo2, k_hi + 1)
    )
    return min(max(1.0 - sum1 + sum2, 0.0), 1.0)


def runs_test(bits, check_n: bool = True) -> float:
    """Total number of runs against its expectation for the observed bias.

    Returns 0.0 when the ones proportion precondition |pi - 1/2| >= 2/sqrt(n)
    fails, matching the standard's handling.
    """
    b = _as_bits(bits)
    n = b.size
    _check_n(n, 100, check_n, "runs test")
    ones = int(b.sum())
    # |pi - 1/2| >= 2/sqrt(n) as an exact integer comparison, so the gate and
    # the statistic are bitwise invariant under bit complement
    if (2 * ones - n) ** 2 >= 16 * n:
        return 0.0
    v = 1 + int(np.count_nonzero(b[1:] != b[:-1]))
    prod = ones * (n - ones) / (float(n) * n)
    num = abs(v - 2.0 * n * prod)
    den = 2.0 * math.sqrt(2.0 * n) * prod
    return erfc(num / den)


def longest_run_test(bits, check_n: bool = True) -> float:
    """Longest run of ones per block against the tabulated distribution."""
    b = _as_bits(bits)
    n = b.size
    if n < _LONGEST_RUN_TIERS[0][0]:
        raise NotApplicableError(f"longest-run test requires n >= 128, got {n}")
    tier = _LONGEST_RUN_TIERS[0]
    for t in _LONGEST_RUN_TIERS:
        if n >= t[0]:
            tier = t
    _, block_len, v_min, v_max, pi = tier
    num_blocks = n // block_len
    blocks = b[: num_blocks * block_len].reshape(num_blocks, block_len)
    longest = np.zeros(num_blocks, dtype=np.int64)
    run = np.zeros(num_blocks, dtype=np.int64)
    for col in range(block_len):
        run = (run + 1) * blocks[:, col]
        longest = np.maximum(longest, run)
    classes = np.clip(longest, v_min, v_max) - v_min
    counts = np.bincount(classes, minlength=len(pi))
    expected = num_blocks * np.asarray(pi)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return reg_gamma_upper(len(pi) / 2.0 - 0.5, chi2 / 2.0)


def _overlapping_counts(b: np.ndarray, m: int) -> np.ndarray:
    """Counts of all m-bit overlapping patterns with wraparound."""
    n = b.size
    if m == 0:
        return np.array([n], dtype=np.int64)
    v = np.zeros(n, dtype=np.int64)
    idx = np.arange(n)
    for j in range(m):
        v = (v << 1) | b[(idx + j) % n]
    return np.bincount(v, minlength=1 << m)


def approximate_entropy_test(bits, m: int | None = None, check_n: bool = True) -> float:
    """phi(m) - phi(m+1) against ln 2 for overlapping pattern frequencies."""
    b = _as_bits(bits)
    n = b.size
    _check_n(n, 128, check_n, "approximate entropy test")
    if m is None:
        m = NistParams().entropy_block_len(n)
    if m < 1:
        raise ValueError("block length must be >= 1")

    def phi(block: int) -> float:
        counts = np.sort(_overlapping_counts(b, block))
        nz = counts[counts > 0].astype(float)
        return float(np.sum(nz * np.log(nz / n))) / n

    apen = phi(m) - phi(m + 1)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return reg_gamma_upper(float(1 << (m - 1)), chi2 / 2.0)


def serial_test(bits, m: int | None = None, check_n: bool = True) -> tuple[float, float]:
    """Two-level pattern-frequency test; returns both p-values."""
    b = _as_bits(bits)
    n = b.size
    _check_n(n, 100, check_n, "serial test")
    if m is None:
        m = NistParams().serial_block_len(n)
    if m < 2:
        raise ValueError("serial block length must be >= 2")

    def psi_sq(block: int) -> float:
        if block == 0:
            return 0.0
        counts = _overlapping_counts(b, block)
        return (1 << block) / n * int((counts * counts).sum()) - n

    p_m, p_m1, p_m2 = psi_sq(m), psi_sq(m - 1), psi_sq(m - 2)
    d1 = p_m - p_m1
    d2 = p_m - 2.0 * p_m1 + p_m2
    p1 = reg_gamma_upper(float(1 << (m - 2)), d1 / 2.0)
    p2 = reg_gamma_upper(float(1 << (m - 3)) if m >= 3 else 0.5, d2 / 2.0)
    return p1, p2


def dft_test(bits, min_n: int = 1000, check_n: bool = True) -> float:
    """Spectral test: fraction of low-magnitude DFT peaks vs expectation."""
    b = _as_bits(bits)
    n = b.size
    _check_n(n, min_n, check_n, "dft test")
    x = 2.0 * b.astype(float) - 1.0
    moduli = np.abs(np.fft.fft(x))[: n // 2]
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = int(np.count_nonzero(moduli < threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return erfc(abs(d) / math.sqrt(2.0))


@dataclass
class TestOutcome:
    name: str
    p_values: np.ndarray
    passed: np.ndarray
    proportion: float
    min_pass: int
    proportion_pass: bool
    uniformity_p: float
    uniformity_pass: bool
    population_pass: bool


@dataclass
class NistReport:
    n: int
    sequences: int
    alpha: float
    results: dict[str, TestOutcome]
    not_applicable: list[str] = field(default_factory=list)

    @property
    def applicable(self) -> list[str]:
        return list(self.results)

    @property
    def pass_rate(self) -> float | None:
        """Share of applicable tests whose population verdict passes; None
        (NA) when no test applies at this length."""
        if not self.results:
            return None
        return sum(r.population_pass for r in self.results.values()) / len(self.results)

    def all_pass(self) -> bool:
        return bool(self.results) and all(r.population_pass for r in self.results.values())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "sequences": self.sequences,
            "alpha": self.alpha,
            "not_applicable": self.not_applicable,
            "tests": {
                name: {
                    "p_values": [float(p) for p in r.p_values],
                    "proportion": r.proportion,
                    "min_pass": r.min_pass,
                    "uniformity_p": r.uniformity_p,
                    "population_pass": r.population_pass,
                }
                for name, r in self.results.items()
            },
        }

    def to_csv(self) -> str:
        lines = ["test,uniformity_p,proportion_pct,population_pass"]
        for name, r in self.results.items():
            lines.append(
                f"{name},{r.uniformity_p:.6f},{100.0 * r.proportion:.2f},"
                f"{'PASS' if r.population_pass else 'FAIL'}"
            )
        for name in self.not_applicable:
            lines.append(f"{name},NA,NA,NA")
        return "\n".join(lines) + "\n"


def format_rate(rate: float | None, spec: str) -> str:
    """A pass rate formatted with ``spec``, or ``NA`` when no test applied."""
    return "NA" if rate is None else format(rate, spec)


def min_pass_count(sequences: int, alpha: float = ALPHA_DEFAULT) -> int:
    """Minimum passing sequences for a population verdict.

    Standard rule: proportion above (1-alpha) - 3*sqrt(alpha(1-alpha)/s).
    The published acceptance figure of 51-of-54 takes precedence at that
    population size.
    """
    if sequences == 54 and alpha == ALPHA_DEFAULT:
        return 51
    p_hat = 1.0 - alpha
    threshold = p_hat - 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / sequences)
    return min(sequences, math.ceil(threshold * sequences))


def uniformity_p_value(p_values: np.ndarray) -> float:
    """Chi-square uniformity of p-values over ten equal bins."""
    counts, _ = np.histogram(np.asarray(p_values, dtype=float), bins=np.linspace(0.0, 1.0, 11))
    s = counts.sum()
    expected = s / 10.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return reg_gamma_upper(4.5, chi2 / 2.0)


def _suite_tests(n: int, params: NistParams):
    tests: list[tuple[str, callable]] = [
        ("frequency", lambda b: frequency_test(b)),
        ("block_frequency", lambda b: block_frequency_test(b, params.block_len)),
        ("cumsum_forward", lambda b: cumulative_sums_test(b, reverse=False)),
        ("cumsum_reverse", lambda b: cumulative_sums_test(b, reverse=True)),
        ("runs", lambda b: runs_test(b)),
        ("longest_run", lambda b: longest_run_test(b)),
        ("approximate_entropy", lambda b: approximate_entropy_test(b, params.m_entropy)),
        ("serial_1", None),
        ("serial_2", None),
        ("dft", lambda b: dft_test(b, params.dft_min_n)),
    ]
    return tests


def run_suite(sequences, params: NistParams | None = None) -> NistReport:
    """Apply every applicable test to each sequence and judge the population.

    Tests that do not apply at this length are reported NA, never failed.  A
    test's population verdict needs both the passing proportion and, from
    ``uniformity_min_sequences`` sequences up, a uniform p-value spread.
    """
    if params is None:
        params = NistParams()
    mats = [_as_bits(s) for s in sequences]
    if not mats:
        raise ValueError("need at least one sequence")
    n = mats[0].size
    if any(m.size != n for m in mats):
        raise ValueError("all sequences must have the same length")
    s_count = len(mats)
    results: dict[str, TestOutcome] = {}
    not_applicable: list[str] = []

    def add(name: str, p_values: list[float]) -> None:
        arr = np.asarray(p_values, dtype=float)
        passed = arr >= params.alpha
        min_pass = min_pass_count(s_count, params.alpha)
        prop_ok = int(passed.sum()) >= min_pass
        unif_p = uniformity_p_value(arr)
        unif_ok = (
            unif_p >= params.uniformity_alpha
            if s_count >= params.uniformity_min_sequences
            else True
        )
        results[name] = TestOutcome(
            name=name,
            p_values=arr,
            passed=passed,
            proportion=float(passed.mean()),
            min_pass=min_pass,
            proportion_pass=prop_ok,
            uniformity_p=unif_p,
            uniformity_pass=unif_ok,
            population_pass=prop_ok and unif_ok,
        )

    for name, fn in _suite_tests(n, params):
        if name.startswith("serial"):
            continue
        try:
            add(name, [fn(b) for b in mats])
        except NotApplicableError:
            not_applicable.append(name)
    try:
        pairs = [serial_test(b, params.m_serial) for b in mats]
        add("serial_1", [p[0] for p in pairs])
        add("serial_2", [p[1] for p in pairs])
    except NotApplicableError:
        not_applicable.extend(["serial_1", "serial_2"])

    order = [name for name, _ in _suite_tests(n, params)]
    results = {name: results[name] for name in order if name in results}
    return NistReport(
        n=n, sequences=s_count, alpha=params.alpha,
        results=results, not_applicable=not_applicable,
    )
