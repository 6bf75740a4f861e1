"""Applicable subset of the SP 800-22 statistical tests, batched over sequences.

Implements the nine tests usable at 255-bit sequences plus the spectral test
that activates from 1000 bits: frequency, block frequency, both cumulative
sums, runs, longest run of ones, approximate entropy, the two serial
p-values and DFT.  Population judgment follows the standard two-pronged
rule: a minimum proportion of passing sequences and a chi-square uniformity
check on the p-value distribution.

``run_suite`` is the one public way to get p-values: it takes an (s, n) 0/1
matrix or a list of s equal-length sequences, and ``results[name].p_values``
holds one p-value per sequence.  ``run_suite`` owns applicability: it keeps
each test's minimum length, reports a test NA without running it below that
length, resolves the approximate-entropy and serial block lengths once per n
and counts each row block's pattern table once for both.  Each private
kernel computes its statistic for many rows at once with whole-array
operations (row sums, one cumulative sum whose extremes give both the
forward and the reversed walk's excursion, one offset ``bincount`` for the
pattern counts, a half-spectrum FFT whose rows with a modulus near the DFT
threshold are recounted over the full spectrum, so the count is exact),
then maps the column of statistics to p-values with one call of a
``special`` array map: ``erfc`` for frequency, runs and DFT, and
``reg_gamma_upper`` at the test's shape a for the chi-square tests.  Each
map looks up its shape's memo table once per call and takes each element
alone, so a row's p-value does not depend on the rows beside it, and
across populations a p-value whose statistic has come up before is looked
up, bit for bit the value it had.  The cumulative-sums p-value, a sum over
many normal CDFs, is memoized on its integer statistic (n, z) in a bounded
memo that fills as values are first asked for; the misses of one call skip
the terms whose two CDFs are both exactly 1.0 (arguments above 9) or both
exactly 0.0 (below -38.5), which are exactly 0.0, and evaluate all the
others' CDFs with one ``normal_cdf`` call.

Every kernel takes a whole row block of up to 2^16 bits but the DFT, which
works through it in chunks of at most 2^13 bits: a block's worth of its
float and complex temporaries, freed at the top of glibc's heap, would be
handed back to the kernel after each population and faulted in again.

The population verdict is one pass over the stacked (tests, sequences)
p-value matrix: the pass counts and proportions are row sums, and every
test's uniformity chi-square comes from one ``searchsorted`` into the ten
bins and one ``bincount`` whose bins are offset by the test's row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special import erfc, normal_cdf, reg_gamma_upper

# Significance level of each sequence's verdict.
ALPHA = 0.01
# The uniformity check's significance level, and the fewest sequences it
# judges; a smaller population is judged on its passing proportion alone.
UNIFORMITY_ALPHA = 1e-4
UNIFORMITY_MIN_SEQUENCES = 10
# The DFT test's minimum sequence length.
DFT_MIN_N = 1000

# Longest-run-of-ones tiers from the standard: (min_n, block_len, class
# boundaries v_min..v_max, reference probabilities).
_LONGEST_RUN_TIERS = (
    (128, 8, 1, 4, (0.21484375, 0.3671875, 0.23046875, 0.1875)),
    (6272, 128, 4, 9, (0.1174035788, 0.242955959, 0.249363483,
                       0.17517706, 0.102701071, 0.112398847)),
    (750000, 10_000, 10, 16, (0.0882, 0.2092, 0.2483, 0.1933,
                              0.1208, 0.0675, 0.0727)),
)


@dataclass
class NistParams:
    """Suite parameters; None selects the length-dependent block lengths."""

    block_len: int = 20
    m_entropy: int | None = None       # default: the largest m < floor(log2 n) - 5
    m_serial: int | None = None        # default: the largest m < floor(log2 n) - 2

    def entropy_block_len(self, n: int) -> int:
        """Approximate-entropy block length at n >= 128: ``m_entropy`` as
        given, else floor(log2 n) - 6."""
        m = self.m_entropy if self.m_entropy is not None else n.bit_length() - 7
        if m < 1:
            raise ValueError(f"approximate-entropy block length must be >= 1, got {m}")
        return m

    def serial_block_len(self, n: int) -> int:
        """Serial block length at n >= 100: ``m_serial`` as given, else
        floor(log2 n) - 3."""
        m = self.m_serial if self.m_serial is not None else n.bit_length() - 4
        if m < 2:
            raise ValueError(f"serial block length must be >= 2, got {m}")
        return m


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


def _frequency(mat: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """Monobit: p = erfc(|S| / sqrt(2 n)) with S = 2 ones - n the +-1 sum."""
    n = mat.shape[1]
    abs_s = np.abs(2 * ones - n)
    return erfc(abs_s / math.sqrt(n) / math.sqrt(2.0))


def _block_frequency(mat: np.ndarray, block_len: int) -> np.ndarray:
    """Proportion of ones per M-bit block against one half; n >= block_len."""
    s, n = mat.shape
    if block_len < 1:
        raise ValueError("block length must be positive")
    num_blocks = n // block_len
    blocks = mat[:, : num_blocks * block_len].reshape(s, num_blocks, block_len)
    pi = blocks.sum(axis=2) / block_len
    chi2 = 4.0 * block_len * ((pi - 0.5) ** 2).sum(axis=1)
    return reg_gamma_upper(num_blocks / 2.0, chi2 / 2.0)


def _cusum_p_values(n: int, zs: list[int]) -> list[float]:
    """Cumulative-sums p-values of n-step walks with maximum excursions zs.

    sum1 over k of Phi((4k+1) z / sqrt n) - Phi((4k-1) z / sqrt n), and sum2
    of Phi((4k+3) z / sqrt n) - Phi((4k+1) z / sqrt n), as (upper, lower)
    argument pairs.  A term whose two CDFs are both exactly 1.0 (arguments
    above 9) or both exactly 0.0 (below -38.5, where erfc underflows) is
    exactly 0.0 and is skipped; sum() over the others, in order, gives the
    same bits.  Every kept argument of every z goes through one
    ``normal_cdf`` call, which maps each element alone.
    """
    sqrt_n = math.sqrt(n)
    pairs, ends = [], []  # ends: where each z's sum1 and sum2 terms end
    for z in zs:
        if z == 0:  # no terms: p = 1
            ends += [len(pairs)] * 2
            continue
        k_hi = math.floor((n / z - 1) / 4)
        for k_lo, hi, lo in ((math.floor((-n / z + 1) / 4), 1, -1),
                             (math.floor((-n / z - 3) / 4), 3, 1)):
            for k in range(k_lo, k_hi + 1):
                upper, lower = (4 * k + hi) * z / sqrt_n, (4 * k + lo) * z / sqrt_n
                if lower <= 9.0 and upper >= -38.5:
                    pairs.append((upper, lower))
            ends.append(len(pairs))
    phi = normal_cdf(np.array(pairs, dtype=float).reshape(-1, 2))
    terms = (phi[:, 0] - phi[:, 1]).tolist()
    p, start = [], 0
    for split, stop in zip(ends[::2], ends[1::2]):
        p.append(min(max(1.0 - sum(terms[start:split]) + sum(terms[split:stop]), 0.0), 1.0))
        start = stop
    return p


# The p-value depends only on the integers (n, z), and a miss costs O(n / z)
# normal CDFs, so it is memoized: the memo stores the first
# ``_CUSUM_MEMO_CAP`` values asked for, then stores no more.
_CUSUM_MEMO_CAP = 1 << 12
_cusum_memo: dict[tuple[int, int], float] = {}


def _cusum_excursions(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum excursions z of the +-1 random walk, forward and reversed.

    One walk W_1..W_n serves both: with W_0 = 0 the reversed walk after k
    steps is W_n - W_(n-k), so both maxima follow from W_n and the maximum
    and minimum of W_0..W_(n-1).  The values are exact integers; the walk
    runs in int32, which holds every 2 * ones - k while n < 2**30.
    """
    s, n = mat.shape
    dtype = np.int32 if n < 1 << 30 else np.intp
    # the +-1 walk after k steps is 2 * (ones so far) - k
    walk = np.cumsum(mat, axis=1, dtype=dtype)
    walk <<= 1
    walk -= np.arange(1, n + 1, dtype=dtype)
    last = walk[:, -1]
    hi = walk[:, :-1].max(axis=1, initial=0)
    lo = walk[:, :-1].min(axis=1, initial=0)
    forward = np.maximum(np.maximum(hi, -lo), np.abs(last))
    reverse = np.maximum(last - lo, hi - last)
    return forward, reverse


def _cumulative_sums(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative-sums p-values of the forward and the reversed walk: each
    (n, z) the memo lacks is computed in one ``_cusum_p_values`` call."""
    n = mat.shape[1]
    forward, reverse = _cusum_excursions(mat)
    zs = forward.tolist() + reverse.tolist()
    values = {z: _cusum_memo.get((n, z)) for z in zs}
    missing = [z for z, p in values.items() if p is None]
    if missing:
        values.update(zip(missing, _cusum_p_values(n, missing)))
        for z in missing[: _CUSUM_MEMO_CAP - len(_cusum_memo)]:
            _cusum_memo[n, z] = values[z]
    p = np.array([values[z] for z in zs])
    return p[: len(forward)], p[len(forward) :]


def _runs(mat: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """Total number of runs against its expectation for the observed bias.

    A row whose ones proportion fails the precondition |pi - 1/2| < 2/sqrt(n)
    gets p = 0, matching the standard's handling.
    """
    s, n = mat.shape
    runs = 1 + np.count_nonzero(mat[:, 1:] != mat[:, :-1], axis=1)
    # |pi - 1/2| < 2/sqrt(n) as an exact integer comparison, so the gate and
    # the statistic are bitwise invariant under bit complement
    ok = (2 * ones - n) ** 2 < 16 * n
    prod = ones[ok] * (n - ones[ok]) / (float(n) * n)
    num = np.abs(runs[ok] - 2.0 * n * prod)
    den = 2.0 * math.sqrt(2.0 * n) * prod
    p = np.zeros(s)
    p[ok] = erfc(num / den)
    return p


def _longest_run(mat: np.ndarray) -> np.ndarray:
    """Longest run of ones per block against the tabulated distribution of
    the longest tier whose minimum length n reaches."""
    s, n = mat.shape
    _, block_len, v_min, v_max, pi = [t for t in _LONGEST_RUN_TIERS if n >= t[0]][-1]
    num_blocks = n // block_len
    blocks = mat[:, : num_blocks * block_len].reshape(s, num_blocks, block_len)
    longest = np.zeros((s, num_blocks), dtype=np.int32)
    run = np.zeros((s, num_blocks), dtype=np.int32)
    for col in range(block_len):
        run += 1
        run *= blocks[:, :, col]
        np.maximum(longest, run, out=longest)
    classes = np.clip(longest, v_min, v_max) - v_min
    # one bincount for every row: row r's classes are offset by r * len(pi)
    offset = classes + len(pi) * np.arange(s, dtype=np.int64)[:, None]
    counts = np.bincount(offset.ravel(), minlength=s * len(pi)).reshape(s, len(pi))
    expected = num_blocks * np.asarray(pi)
    chi2 = ((counts - expected) ** 2 / expected).sum(axis=1)
    return reg_gamma_upper(len(pi) / 2.0 - 0.5, chi2 / 2.0)


def _pattern_counts(mat: np.ndarray, top: int) -> list[np.ndarray]:
    """Per-row counts of the overlapping, wrapping m-bit patterns, m = 0..top.

    Entry m is an (s, 2^m) table; top is at least 1 and at most n + 1.  Only
    the top length is counted, with one ``bincount`` over codes offset by
    the row index, so row r's patterns land in bins r * 2^top onwards.  The
    codes are int32 while every offset code fits, else intp.  The (m-1)-bit
    pattern at a position is the m-bit one without its last bit, so each
    shorter table is an exact integer marginal of the next longer one.
    """
    s, n = mat.shape
    wrapped = np.concatenate((mat, mat[:, : top - 1]), axis=1)
    dtype = np.int32 if s << top < 1 << 31 else np.intp
    v = wrapped[:, :n].astype(dtype)
    for j in range(1, top):
        v <<= 1
        v |= wrapped[:, j : j + n]
    v += (np.arange(s, dtype=dtype) << top)[:, None]
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


def _approximate_entropy(tables: list[np.ndarray], m: int, n: int) -> np.ndarray:
    """phi(m) - phi(m+1) against ln 2, from the pattern ``tables`` of n-bit
    rows counted up to at least m + 1 bits."""
    apen = _phi(tables[m], n) - _phi(tables[m + 1], n)
    chi2 = 2.0 * n * (math.log(2.0) - apen)
    return reg_gamma_upper(float(1 << (m - 1)), chi2 / 2.0)


def _serial(tables: list[np.ndarray], m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Both serial p-values, from the pattern ``tables`` of n-bit rows
    counted up to at least m bits."""

    def psi_sq(block: int) -> np.ndarray:
        if block == 0:
            return np.zeros(len(tables[0]))
        counts = tables[block]
        return (1 << block) / n * (counts * counts).sum(axis=1) - n

    p_m, p_m1, p_m2 = psi_sq(m), psi_sq(m - 1), psi_sq(m - 2)
    # Rounding can leave a difference that is zero in exact arithmetic just
    # below zero (-7e-15); it is read as zero, whose p-value Q(a, 0) is 1.
    d1 = np.maximum(p_m - p_m1, 0.0)
    d2 = np.maximum(p_m - 2.0 * p_m1 + p_m2, 0.0)
    p1 = reg_gamma_upper(float(1 << (m - 2)), d1 / 2.0)
    p2 = reg_gamma_upper(float(1 << (m - 3)) if m >= 3 else 0.5, d2 / 2.0)
    return p1, p2


# A row with a half-spectrum modulus within this relative band of the DFT
# threshold is recounted over the full complex spectrum.  rfft and fft
# moduli differ by rounding alone (at most 6e-14 over 20,000 random rows of
# 1023 bits, where the band is 5.5e-8 wide), so a modulus outside the band
# is on the same side of the threshold in both.
_DFT_BAND = 1e-9


def _dft_n1(x: np.ndarray, threshold: float) -> np.ndarray:
    """Per-row count of the first n/2 DFT moduli of the +-1 rows ``x`` below
    ``threshold``, equal to the count over ``np.fft.fft``'s moduli.

    The moduli come from the half spectrum ``np.fft.rfft`` gives.  A row is
    counted with the full complex FFT instead when one of its moduli lies
    within ``_DFT_BAND * threshold`` of the threshold, where the two
    transforms' rounding could put it on different sides.
    """
    half = x.shape[1] // 2
    moduli = np.abs(np.fft.rfft(x, axis=1)[:, :half])
    n1 = np.count_nonzero(moduli < threshold * (1.0 - _DFT_BAND), axis=1)
    near = np.count_nonzero(moduli < threshold * (1.0 + _DFT_BAND), axis=1) != n1
    if near.any():
        full = np.abs(np.fft.fft(x[near], axis=1))[:, :half]
        n1[near] = np.count_nonzero(full < threshold, axis=1)
    return n1


def _dft(mat: np.ndarray) -> np.ndarray:
    """Spectral test: fraction of low-magnitude DFT peaks vs expectation."""
    s, n = mat.shape
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    rows = max(1, _DFT_CHUNK_BITS // n)
    n1 = np.concatenate([_dft_n1(2.0 * mat[i : i + rows] - 1.0, threshold)
                         for i in range(0, s, rows)])
    d = (n1 - 0.95 * n / 2.0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return erfc(np.abs(d) / math.sqrt(2.0))


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
    results: dict[str, TestOutcome]
    not_applicable: list[str] = field(default_factory=list)

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
            "alpha": ALPHA,
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


def min_pass_count(sequences: int) -> int:
    """Minimum passing sequences for a population verdict.

    Standard rule: proportion above (1-alpha) - 3*sqrt(alpha(1-alpha)/s),
    at alpha = ``ALPHA``.  The published acceptance figure of 51-of-54
    takes precedence at that population size.
    """
    if sequences == 54:
        return 51
    p_hat = 1.0 - ALPHA
    threshold = p_hat - 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / sequences)
    return min(sequences, math.ceil(threshold * sequences))


# Edges of the ten equal uniformity bins over [0, 1].
_UNIFORMITY_EDGES = np.linspace(0.0, 1.0, 11)


def uniformity_p_values(p_values: np.ndarray) -> np.ndarray:
    """Chi-square uniformity of each row of a (tests, sequences) matrix of
    p-values in [0, 1] over ten equal bins, one p-value per row.

    The bins are those of ``np.histogram`` on ``_UNIFORMITY_EDGES``: each is
    closed below and open above, except the last, which also holds 1.0.
    Every row's bins are counted with one ``bincount``, row t's offset by
    10 t.
    """
    tests, s = p_values.shape
    bins = np.searchsorted(_UNIFORMITY_EDGES, p_values, "right") - 1
    np.minimum(bins, 9, out=bins)
    bins += 10 * np.arange(tests)[:, None]
    counts = np.bincount(bins.ravel(), minlength=10 * tests).reshape(tests, 10)
    expected = s / 10.0
    chi2 = ((counts - expected) ** 2 / expected).sum(axis=1)
    return reg_gamma_upper(4.5, chi2 / 2.0)


# Report order of the suite's results.
_SUITE_ORDER = (
    "frequency", "block_frequency", "cumsum_forward", "cumsum_reverse", "runs",
    "longest_run", "approximate_entropy", "serial_1", "serial_2", "dft",
)


def _suite_tests(params: NistParams):
    """(result names, minimum n, kernel maker) per test, in run order;
    serial runs last, so when it does not apply its names follow dft's in
    the NA list.  A maker is called only at a length n the test applies at.
    It returns the longest pattern its kernel reads (0 for none) and the
    kernel, which maps a row block and the block's pattern tables to one
    p-value array per result name."""

    def plain(kernel, *args):
        return lambda n: (0, lambda b, t: (kernel(b, *args),))

    def by_ones(kernel):  # the 1-bit table counts each row's zeros and ones
        return lambda n: (1, lambda b, t: (kernel(b, t[1][:, 1]),))

    def entropy(n: int):
        m = params.entropy_block_len(n)
        return m + 1, lambda b, t: (_approximate_entropy(t, m, n),)

    def serial(n: int):
        m = params.serial_block_len(n)
        return m, lambda b, t: _serial(t, m, n)

    return (
        (("frequency",), 100, by_ones(_frequency)),
        (("block_frequency",), max(100, params.block_len),
         plain(_block_frequency, params.block_len)),
        (("cumsum_forward", "cumsum_reverse"), 100,
         lambda n: (0, lambda b, t: _cumulative_sums(b))),
        (("runs",), 100, by_ones(_runs)),
        (("longest_run",), _LONGEST_RUN_TIERS[0][0], plain(_longest_run)),
        (("approximate_entropy",), 128, entropy),
        (("dft",), DFT_MIN_N, plain(_dft)),
        (("serial_1", "serial_2"), 100, serial),
    )


# run_suite judges a population in blocks of rows holding at most this many
# bits (at least one row), so a population of 54 sequences of up to 1213
# bits is one block and each kernel's per-block Python work is paid once.
# The largest temporary of a block, the intp pattern codes that ``bincount``
# copies, takes 8 bytes per bit: 512 KB while a row holds at most 2^16 bits.
# The DFT's +-1 rows, half spectrum and moduli take 20 bytes per bit, 1.1 MB
# for 54 x 1023 bits, past glibc's dynamic trim threshold once freed at the
# heap's top, so ``_dft`` works in chunks of ``_DFT_CHUNK_BITS`` (8 rows at
# n = 1023, about 170 KB) and no population's frees hand pages back to the
# kernel; its full-spectrum recount takes 16 bytes per bit of near rows.
_BLOCK_BITS = 1 << 16
_DFT_CHUNK_BITS = _BLOCK_BITS >> 3


def run_suite(sequences, params: NistParams | None = None) -> NistReport:
    """Apply every applicable test to each sequence and judge the population.

    ``sequences`` is an (s, n) 0/1 matrix or a list of s equal-length
    sequences; any other value, or a ragged, empty or higher-dimensional
    input, raises ``ValueError``.  A test whose minimum length n does not
    reach is reported NA, never failed, and its kernel is not run.  The
    others compute their statistics over blocks of rows at once, and
    ``results[name].p_values`` holds one p-value per sequence.  A test's
    population verdict needs both the passing proportion and, from
    ``UNIFORMITY_MIN_SEQUENCES`` sequences up, a uniform p-value spread.
    """
    if params is None:
        params = NistParams()
    mat = _as_matrix(sequences)
    s_count, n = mat.shape
    tests, not_applicable = [], []
    for names, min_n, make in _suite_tests(params):
        if n < min_n:
            not_applicable.extend(names)
        else:
            tests.append((names, *make(n)))
    # one pattern table per row block, at the longest pattern any test reads:
    # frequency and runs take each row's ones from its 1-bit table
    top = max((t[1] for t in tests), default=0)
    rows = max(1, _BLOCK_BITS // max(n, 1))
    blocks = [mat[i : i + rows] for i in range(0, s_count, rows)]
    tables = [_pattern_counts(b, top) if top else None for b in blocks]
    p_values = {}
    for names, _, kernel in tests:
        per_block = [kernel(b, t) for b, t in zip(blocks, tables)]
        p_values.update(zip(names, map(np.concatenate, zip(*per_block))))

    names = [name for name in _SUITE_ORDER if name in p_values]
    results: dict[str, TestOutcome] = {}
    if names:
        # one verdict pass over the stacked (tests, sequences) p-values
        stacked = np.stack([p_values[name] for name in names])
        passed = stacked >= ALPHA
        counts = passed.sum(axis=1)
        min_pass = min_pass_count(s_count)
        prop_ok = (counts >= min_pass).tolist()
        proportions = (counts / s_count).tolist()
        unif_p = uniformity_p_values(stacked).tolist()
        for t, name in enumerate(names):
            unif_ok = unif_p[t] >= UNIFORMITY_ALPHA or s_count < UNIFORMITY_MIN_SEQUENCES
            results[name] = TestOutcome(
                name=name,
                p_values=p_values[name],
                passed=passed[t],
                proportion=proportions[t],
                min_pass=min_pass,
                proportion_pass=prop_ok[t],
                uniformity_p=unif_p[t],
                uniformity_pass=unif_ok,
                population_pass=prop_ok[t] and unif_ok,
            )
    return NistReport(n=n, sequences=s_count, results=results, not_applicable=not_applicable)
