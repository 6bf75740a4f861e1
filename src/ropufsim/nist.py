"""Applicable subset of the SP 800-22 statistical tests, batched over sequences.

Implements the nine tests usable at 255-bit sequences plus the spectral test
that activates from 1000 bits: frequency, block frequency, both cumulative
sums, runs, longest run of ones, approximate entropy, the two serial
p-values and DFT.  Population judgment follows the standard two-pronged
rule: a minimum proportion of passing sequences and a chi-square uniformity
check on the p-value distribution.

``run_suite`` takes an (s, n) 0/1 matrix or a list of s equal-length
sequences.  Each test computes its statistic for many rows at once with
whole-array operations (row sums, cumulative sums, one offset ``bincount``
for the pattern counts, a row-wise FFT), then maps each row's statistic to a
p-value.  The cumulative-sums p-value, a sum over many normal CDFs, is
memoized on its integer statistic (n, z) in a bounded ``functools.lru_cache``
that fills as values are first asked for; the other p-values are computed
directly.  Each public ``*_test`` judges one sequence as a one-row matrix
through the same code, so a batched p-value equals the one-sequence p-value
exactly.
"""

from __future__ import annotations

import functools
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
    """One sequence (bit string, list or array) as a 1-D array, values unchecked."""
    if isinstance(bits, str):
        if set(bits) - {"0", "1"}:
            raise ValueError("bit strings may only contain 0 and 1")
        return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    return arr


def _as_matrix(sequences) -> np.ndarray:
    """An (s, n) uint8 matrix from a 2-D array or from equal-length sequences.

    Every value must be 0 or 1: a cast alone would wrap 256 to 0 and count 2
    as a one, so any other value is rejected with the index of its sequence.
    """
    if isinstance(sequences, np.ndarray):
        if sequences.ndim != 2:
            raise ValueError(
                f"a bit matrix must be two-dimensional (sequences, bits), "
                f"got shape {sequences.shape}"
            )
        arr = sequences
    else:
        rows = [_as_bits(s) for s in sequences]
        if rows and any(r.size != rows[0].size for r in rows):
            raise ValueError("all sequences must have the same length")
        arr = np.stack(rows) if rows else np.empty((0, 0), dtype=np.uint8)
    if arr.shape[0] == 0:
        raise ValueError("need at least one sequence")
    ok = arr <= 1 if arr.dtype.kind in "bu" else (arr == 0) | (arr == 1)
    if not ok.all():
        bad = int(np.argmin(ok.all(axis=1)))
        raise ValueError(f"sequence {bad} holds a value other than 0 and 1")
    return np.ascontiguousarray(arr, dtype=np.uint8)


def _as_row(bits) -> np.ndarray:
    """One sequence as a checked (1, n) matrix."""
    return _as_matrix(_as_bits(bits)[None])


def _check_n(n: int, floor: int, check: bool, name: str) -> None:
    if check and n < floor:
        raise NotApplicableError(f"{name} requires n >= {floor}, got {n}")


def _gamma_p_values(a: float, xs: np.ndarray) -> np.ndarray:
    return np.array([reg_gamma_upper(a, x) for x in xs.tolist()], dtype=float)


def _frequency(mat: np.ndarray, check_n: bool = True) -> np.ndarray:
    s, n = mat.shape
    _check_n(n, 100, check_n, "frequency test")
    abs_s = np.abs(2 * mat.sum(axis=1, dtype=np.int64) - n)
    return np.array(
        [erfc(v / math.sqrt(n) / math.sqrt(2.0)) for v in abs_s.tolist()], dtype=float
    )


def frequency_test(bits, check_n: bool = True) -> float:
    """Monobit: p = erfc(|S| / sqrt(2 n)) with S the +-1 sum."""
    return float(_frequency(_as_row(bits), check_n)[0])


def _block_frequency(mat: np.ndarray, block_len: int = 20, check_n: bool = True) -> np.ndarray:
    s, n = mat.shape
    _check_n(n, 100, check_n, "block frequency test")
    if block_len < 1:
        raise ValueError("block length must be positive")
    num_blocks = n // block_len
    if num_blocks < 1:
        raise NotApplicableError(f"no complete {block_len}-bit block in {n} bits")
    blocks = mat[:, : num_blocks * block_len].reshape(s, num_blocks, block_len)
    pi = blocks.sum(axis=2) / block_len
    chi2 = 4.0 * block_len * ((pi - 0.5) ** 2).sum(axis=1)
    return _gamma_p_values(num_blocks / 2.0, chi2 / 2.0)


def block_frequency_test(bits, block_len: int = 20, check_n: bool = True) -> float:
    """Proportion of ones per M-bit block against one half."""
    return float(_block_frequency(_as_row(bits), block_len, check_n)[0])


# The p-value depends only on the integers (n, z), and a miss costs O(n / z)
# normal CDFs, so it is memoized; the cache is bounded and fills lazily.
@functools.lru_cache(maxsize=1 << 12)
def _cusum_p(n: int, z: int) -> float:
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


def _cumulative_sums(mat: np.ndarray, reverse: bool = False, check_n: bool = True) -> np.ndarray:
    s, n = mat.shape
    _check_n(n, 100, check_n, "cumulative sums test")
    if reverse:
        mat = mat[:, ::-1]
    # the +-1 walk after k steps is 2 * (ones so far) - k
    walk = 2 * np.cumsum(mat, axis=1, dtype=np.int64) - np.arange(1, n + 1)
    z = np.maximum(walk.max(axis=1), -walk.min(axis=1))
    return np.array([_cusum_p(n, v) for v in z.tolist()], dtype=float)


def cumulative_sums_test(bits, reverse: bool = False, check_n: bool = True) -> float:
    """Maximum excursion of the +-1 random walk, forward or reversed."""
    return float(_cumulative_sums(_as_row(bits), reverse, check_n)[0])


def _runs_p(n: int, ones: int, v: int) -> float:
    # |pi - 1/2| >= 2/sqrt(n) as an exact integer comparison, so the gate and
    # the statistic are bitwise invariant under bit complement
    if (2 * ones - n) ** 2 >= 16 * n:
        return 0.0
    prod = ones * (n - ones) / (float(n) * n)
    num = abs(v - 2.0 * n * prod)
    den = 2.0 * math.sqrt(2.0 * n) * prod
    return erfc(num / den)


def _runs(mat: np.ndarray, check_n: bool = True) -> np.ndarray:
    s, n = mat.shape
    _check_n(n, 100, check_n, "runs test")
    ones = mat.sum(axis=1, dtype=np.int64).tolist()
    runs = (1 + np.count_nonzero(mat[:, 1:] != mat[:, :-1], axis=1)).tolist()
    return np.array([_runs_p(n, o, v) for o, v in zip(ones, runs)], dtype=float)


def runs_test(bits, check_n: bool = True) -> float:
    """Total number of runs against its expectation for the observed bias.

    Returns 0.0 when the ones proportion precondition |pi - 1/2| >= 2/sqrt(n)
    fails, matching the standard's handling.
    """
    return float(_runs(_as_row(bits), check_n)[0])


def _longest_run(mat: np.ndarray, check_n: bool = True) -> np.ndarray:
    s, n = mat.shape
    if n < _LONGEST_RUN_TIERS[0][0]:
        raise NotApplicableError(f"longest-run test requires n >= 128, got {n}")
    tier = _LONGEST_RUN_TIERS[0]
    for t in _LONGEST_RUN_TIERS:
        if n >= t[0]:
            tier = t
    _, block_len, v_min, v_max, pi = tier
    num_blocks = n // block_len
    blocks = mat[:, : num_blocks * block_len].reshape(s, num_blocks, block_len)
    longest = np.zeros((s, num_blocks), dtype=np.int64)
    run = np.zeros((s, num_blocks), dtype=np.int64)
    for col in range(block_len):
        run = (run + 1) * blocks[:, :, col]
        longest = np.maximum(longest, run)
    classes = np.clip(longest, v_min, v_max) - v_min
    # one bincount for every row: row r's classes are offset by r * len(pi)
    offset = classes + len(pi) * np.arange(s, dtype=np.int64)[:, None]
    counts = np.bincount(offset.ravel(), minlength=s * len(pi)).reshape(s, len(pi))
    expected = num_blocks * np.asarray(pi)
    chi2 = ((counts - expected) ** 2 / expected).sum(axis=1)
    return _gamma_p_values(len(pi) / 2.0 - 0.5, chi2 / 2.0)


def longest_run_test(bits, check_n: bool = True) -> float:
    """Longest run of ones per block against the tabulated distribution."""
    return float(_longest_run(_as_row(bits), check_n)[0])


def _pattern_counts(mat: np.ndarray, top: int) -> list[np.ndarray]:
    """Per-row counts of the overlapping, wrapping m-bit patterns, m = 0..top.

    Entry m is an (s, 2^m) table.  Only the top length is counted, with one
    ``bincount`` over codes that start from the row index, so row r's
    patterns land in bins r * 2^top onwards.  The (m-1)-bit pattern at a
    position is the m-bit one without its last bit, so each shorter table is
    an exact integer marginal of the next longer one.
    """
    s, n = mat.shape
    wrapped = mat[:, np.arange(n + top - 1) % n]
    v = np.repeat(np.arange(s, dtype=np.intp)[:, None], n, axis=1)
    for j in range(top):
        v <<= 1
        v |= wrapped[:, j : j + n]
    tables = [np.bincount(v.ravel(), minlength=s << top).reshape(s, 1 << top)]
    for _ in range(top):
        tables.append(tables[-1].reshape(s, -1, 2).sum(axis=2))
    return tables[::-1]


def _phi(counts: np.ndarray, n: int) -> np.ndarray:
    """sum(c ln(c/n)) / n over each row's nonzero counts, in ascending order.

    Rows are grouped by their number of nonzero counts, so every row sums
    exactly its own nonzero counts, as it would alone in a one-row matrix;
    padding with zero terms would change numpy's pairwise summation order.
    """
    srt = np.sort(counts, axis=1)
    nnz = np.count_nonzero(srt, axis=1)
    phi = np.empty(len(srt))
    for k in set(nnz.tolist()):
        rows = nnz == k
        nz = srt[rows, srt.shape[1] - k :].astype(float)
        phi[rows] = np.sum(nz * np.log(nz / n), axis=1) / n
    return phi


def _approximate_entropy(
    mat: np.ndarray, m: int | None = None, check_n: bool = True,
    count_patterns=_pattern_counts,
) -> np.ndarray:
    s, n = mat.shape
    _check_n(n, 128, check_n, "approximate entropy test")
    if m is None:
        m = NistParams().entropy_block_len(n)
    if m < 1:
        raise ValueError("block length must be >= 1")
    tables = count_patterns(mat, m + 1)
    apen = _phi(tables[m], n) - _phi(tables[m + 1], n)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return _gamma_p_values(float(1 << (m - 1)), chi2 / 2.0)


def approximate_entropy_test(bits, m: int | None = None, check_n: bool = True) -> float:
    """phi(m) - phi(m+1) against ln 2 for overlapping pattern frequencies."""
    return float(_approximate_entropy(_as_row(bits), m, check_n)[0])


def _serial(
    mat: np.ndarray, m: int | None = None, check_n: bool = True,
    count_patterns=_pattern_counts,
) -> tuple[np.ndarray, np.ndarray]:
    s, n = mat.shape
    _check_n(n, 100, check_n, "serial test")
    if m is None:
        m = NistParams().serial_block_len(n)
    if m < 2:
        raise ValueError("serial block length must be >= 2")
    tables = count_patterns(mat, m)

    def psi_sq(block: int) -> np.ndarray:
        if block == 0:
            return np.zeros(s)
        counts = tables[block]
        return (1 << block) / n * (counts * counts).sum(axis=1) - n

    p_m, p_m1, p_m2 = psi_sq(m), psi_sq(m - 1), psi_sq(m - 2)
    # Rounding can leave a difference that is zero in exact arithmetic just
    # below zero (-7e-15); it is read as zero, whose p-value Q(a, 0) is 1.
    d1 = np.maximum(p_m - p_m1, 0.0)
    d2 = np.maximum(p_m - 2.0 * p_m1 + p_m2, 0.0)
    p1 = _gamma_p_values(float(1 << (m - 2)), d1 / 2.0)
    p2 = _gamma_p_values(float(1 << (m - 3)) if m >= 3 else 0.5, d2 / 2.0)
    return p1, p2


def serial_test(bits, m: int | None = None, check_n: bool = True) -> tuple[float, float]:
    """Two-level pattern-frequency test; returns both p-values."""
    p1, p2 = _serial(_as_row(bits), m, check_n)
    return float(p1[0]), float(p2[0])


def _dft_p(n: int, n1: int) -> float:
    n0 = 0.95 * n / 2.0
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return erfc(abs(d) / math.sqrt(2.0))


def _dft(mat: np.ndarray, min_n: int = 1000, check_n: bool = True) -> np.ndarray:
    s, n = mat.shape
    _check_n(n, min_n, check_n, "dft test")
    x = 2.0 * mat.astype(float) - 1.0
    moduli = np.abs(np.fft.fft(x, axis=1))[:, : n // 2]
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n1 = np.count_nonzero(moduli < threshold, axis=1)
    return np.array([_dft_p(n, v) for v in n1.tolist()], dtype=float)


def dft_test(bits, min_n: int = 1000, check_n: bool = True) -> float:
    """Spectral test: fraction of low-magnitude DFT peaks vs expectation."""
    return float(_dft(_as_row(bits), min_n, check_n)[0])


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


# Edges of the ten equal uniformity bins over [0, 1].
_UNIFORMITY_EDGES = np.linspace(0.0, 1.0, 11)


def uniformity_p_value(p_values: np.ndarray) -> float:
    """Chi-square uniformity of p-values over ten equal bins.

    The bins are those of ``np.histogram`` on ``_UNIFORMITY_EDGES``: each is
    closed below and open above, except the last, which also holds 1.0.
    """
    bins = np.searchsorted(_UNIFORMITY_EDGES, np.asarray(p_values, dtype=float), "right") - 1
    counts = np.bincount(np.minimum(bins, 9), minlength=10)
    s = counts.sum()
    expected = s / 10.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return reg_gamma_upper(4.5, chi2 / 2.0)


# Report order of the suite's results.
_SUITE_ORDER = (
    "frequency", "block_frequency", "cumsum_forward", "cumsum_reverse", "runs",
    "longest_run", "approximate_entropy", "serial_1", "serial_2", "dft",
)


def _pattern_top(params: NistParams, n: int) -> int:
    """Longest pattern the approximate-entropy and serial tests count at
    length n (m + 1 and m bits), so one table serves both."""
    top = 0
    for m, given, extra in (
        (params.entropy_block_len, params.m_entropy, 1),
        (params.serial_block_len, params.m_serial, 0),
    ):
        try:
            top = max(top, (given if given is not None else m(n)) + extra)
        except NotApplicableError:
            pass
    return top


def _suite_tests(params: NistParams):
    """(result names, batched test) in run order; serial runs last, so when
    it does not apply its names follow dft's in the NA list.  Each test
    takes a row block and the block's ``_pattern_counts``, which the
    approximate-entropy and serial tests share."""
    return (
        (("frequency",), lambda b, t: (_frequency(b),)),
        (("block_frequency",), lambda b, t: (_block_frequency(b, params.block_len),)),
        (("cumsum_forward",), lambda b, t: (_cumulative_sums(b, reverse=False),)),
        (("cumsum_reverse",), lambda b, t: (_cumulative_sums(b, reverse=True),)),
        (("runs",), lambda b, t: (_runs(b),)),
        (("longest_run",), lambda b, t: (_longest_run(b),)),
        (("approximate_entropy",),
         lambda b, t: (_approximate_entropy(b, params.m_entropy, count_patterns=t),)),
        (("dft",), lambda b, t: (_dft(b, params.dft_min_n),)),
        (("serial_1", "serial_2"), lambda b, t: _serial(b, params.m_serial, count_patterns=t)),
    )


# run_suite judges a population in blocks of rows holding at most this many
# bits (at least one row), so the largest temporary, the DFT's complex rows,
# stays near 1 MB however many sequences there are.
_BLOCK_BITS = 1 << 14


def run_suite(sequences, params: NistParams | None = None) -> NistReport:
    """Apply every applicable test to each sequence and judge the population.

    ``sequences`` is an (s, n) 0/1 matrix or a list of s equal-length
    sequences; any other value, or a ragged, empty or higher-dimensional
    input, raises ``ValueError``.  Each test computes its statistic over
    blocks of rows at once.
    Tests that do not apply at this length are reported NA, never failed.  A
    test's population verdict needs both the passing proportion and, from
    ``uniformity_min_sequences`` sequences up, a uniform p-value spread.
    """
    if params is None:
        params = NistParams()
    mat = _as_matrix(sequences)
    s_count, n = mat.shape
    results: dict[str, TestOutcome] = {}
    not_applicable: list[str] = []

    def add(name: str, arr: np.ndarray) -> None:
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

    rows = max(1, _BLOCK_BITS // max(n, 1))
    blocks = [mat[i : i + rows] for i in range(0, s_count, rows)]
    # each block's pattern tables, counted once at the longest length any
    # test needs, on first use
    longest = _pattern_top(params, n)
    tables: dict[int, list[np.ndarray]] = {}

    def block_counts(i: int):
        def count(block: np.ndarray, top: int) -> list[np.ndarray]:
            if len(tables.get(i, ())) <= top:
                tables[i] = _pattern_counts(block, max(top, longest))
            return tables[i]
        return count

    for names, test in _suite_tests(params):
        try:
            p_sets = [np.concatenate(ps)
                      for ps in zip(*(test(b, block_counts(i)) for i, b in enumerate(blocks)))]
        except NotApplicableError:
            not_applicable.extend(names)
            continue
        for name, p_values in zip(names, p_sets):
            add(name, p_values)

    results = {name: results[name] for name in _SUITE_ORDER if name in results}
    return NistReport(
        n=n, sequences=s_count, alpha=params.alpha,
        results=results, not_applicable=not_applicable,
    )
