import hashlib
import math
import platform
import resource
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_gamma_memo, hexes, ref_erfc, ref_normal_cdf, ref_q
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
import ropufsim.nist as nist
from ropufsim.nist import (
    NistParams,
    format_rate,
    min_pass_count,
    run_suite,
    uniformity_p_values,
)

LONGEST_RUN_EXAMPLE = (
    "11001100000101010110110001001100111000000000001001"
    "00110101010001000100111101011010000000110101111100"
    "1100111001101101100010110010"
)


def random_bits(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n).astype(np.uint8)


def pinned_populations():
    """(matrix, params) pairs whose p-values ``test_p_values_pinned`` pins."""
    rng = np.random.default_rng(1)
    pops = []
    for n in (100, 127, 128, 255, 999, 1000, 1023):
        mat = rng.integers(0, 2, (16, n), dtype=np.uint8)
        mat[0] = 0
        mat[1] = 1
        mat[2] = np.arange(n) % 2
        mat[3] = rng.random(n) < 0.4
        pops.append(mat)
    custom = NistParams(block_len=10, m_entropy=2, m_serial=3)
    return [(m, None) for m in pops] + [(pops[3], custom), (pops[6], custom)]


def row(bits):
    """One sequence as the (1, n) matrix the kernels take."""
    return nist._as_matrix([bits])


def row_ones(mat):
    """Each row's count of ones, as run_suite hands it to frequency and runs."""
    return mat.sum(axis=1, dtype=np.int64)


def p_value(bits, name):
    """One sequence's p-value for one test, from a one-row suite."""
    return float(run_suite([bits]).results[name].p_values[0])


def p_columns(mat):
    """Every applicable test's p-values over the rows of ``mat``."""
    return {name: r.p_values for name, r in run_suite(mat).results.items()}


# The SP 800-22 worked examples use 10-bit strings, below every minimum
# length run_suite keeps, so they call the kernels, which do not gate length.
class TestFrequency:
    def test_published_example(self):
        # S=2, n=10 -> p ~ 0.527089
        mat = row("1011010101")
        assert nist._frequency(mat, row_ones(mat))[0] == pytest.approx(0.527089, abs=1e-6)

    def test_alternating_is_perfectly_balanced(self):
        bits = "01" * 200
        assert p_value(bits, "frequency") == 1.0

    def test_all_ones_fails_hard(self):
        assert p_value("1" * 255, "frequency") < 1e-12

    def test_short_input_not_applicable(self):
        report = run_suite(["1010"] * 3)
        assert "frequency" in report.not_applicable
        assert report.results == {}


class TestBlockFrequency:
    def test_published_example(self):
        got = nist._block_frequency(row("0110011010"), 3)[0]
        assert got == pytest.approx(0.801252, abs=1e-6)

    def test_balanced_blocks_give_p_one(self):
        bits = ("10" * 10) * 12  # every 20-bit block exactly half ones
        assert p_value(bits, "block_frequency") == pytest.approx(1.0)

    def test_default_block_len_is_twenty(self):
        bits = random_bits(255, 1)
        assert p_value(bits, "block_frequency") == pytest.approx(
            ref_block_frequency(bits, 20), abs=1e-12)

    @pytest.mark.parametrize("block_len,na", [(120, False), (121, True)])
    def test_block_longer_than_sequence_not_applicable(self, block_len, na):
        report = run_suite([random_bits(120, i) for i in range(3)], NistParams(block_len=block_len))
        assert ("block_frequency" in report.not_applicable) is na
        assert ("block_frequency" in report.results) is not na


class TestCumulativeSums:
    def test_published_example_forward(self):
        forward, reverse = nist._cumulative_sums(row("1011010111"))
        assert forward[0] == pytest.approx(0.411585, abs=1e-6)
        assert reverse[0] == nist._cumulative_sums(row("1110101101"))[0][0]

    @settings(max_examples=100, deadline=None)
    @given(rows=st.integers(1, 300).flatmap(lambda n: st.lists(
        st.one_of(
            st.just([0] * n), st.just([1] * n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        ),
        min_size=1, max_size=6,
    )))
    def test_one_walk_equals_two_walks(self, rows):
        # both excursions come from one forward walk; the reference walks
        # the reversed row again
        mat = np.array(rows, dtype=np.uint8)
        forward, reverse = nist._cusum_excursions(mat)
        steps = 2 * mat.astype(np.int64) - 1
        assert forward.tolist() == np.abs(np.cumsum(steps, axis=1)).max(axis=1).tolist()
        assert reverse.tolist() == np.abs(np.cumsum(steps[:, ::-1], axis=1)).max(axis=1).tolist()
        p_forward, p_reverse = nist._cumulative_sums(mat)
        for bits, pf, pr in zip(mat, p_forward, p_reverse):
            assert pf == pytest.approx(ref_cumulative_sums(bits), abs=1e-9)
            assert pr == pytest.approx(ref_cumulative_sums(bits, reverse=True), abs=1e-9)

    def test_balanced_alternation(self):
        assert p_value("01" * 100, "cumsum_forward") > 0.99

    def test_full_memo_stores_no_more_and_changes_no_p_value(self, monkeypatch):
        # a call's misses are computed together; a full memo keeps its
        # entries and the p-values are those of the unbounded memo
        mat = np.stack([random_bits(255, 40 + i) for i in range(20)])
        monkeypatch.setattr(nist, "_cusum_memo", {})
        unbounded = nist._cumulative_sums(mat)
        assert len(nist._cusum_memo) > 5
        monkeypatch.setattr(nist, "_cusum_memo", {})
        monkeypatch.setattr(nist, "_CUSUM_MEMO_CAP", 5)
        for _ in range(2):
            got = nist._cumulative_sums(mat)
            assert len(nist._cusum_memo) == 5
            for a, b in zip(got, unbounded):
                assert hexes(a) == hexes(b)

    def test_reverse_equals_forward_of_reversed(self):
        bits = random_bits(255, 2)
        assert p_value(bits, "cumsum_reverse") == p_value(bits[::-1], "cumsum_forward")


class TestRuns:
    def test_published_example(self):
        mat = row("1001101011")
        assert nist._runs(mat, row_ones(mat))[0] == pytest.approx(0.147232, abs=1e-6)

    def test_balanced_alternation_fails_runs(self):
        # perfectly alternating: far too many runs
        assert p_value("01" * 128, "runs") < 1e-12

    def test_biased_precondition_returns_zero(self):
        bits = np.concatenate([np.ones(200, np.uint8), np.zeros(55, np.uint8)])
        assert p_value(bits, "runs") == 0.0


class TestLongestRun:
    def test_published_example(self):
        assert p_value(LONGEST_RUN_EXAMPLE, "longest_run") == pytest.approx(0.180609, abs=1e-6)

    def test_not_applicable_below_128(self):
        report = run_suite(["10" * 50])
        assert "longest_run" in report.not_applicable
        assert "longest_run" not in report.results

    def test_matches_reference_at_255(self):
        bits = random_bits(255, 3)
        assert p_value(bits, "longest_run") == pytest.approx(ref_longest_run(bits), abs=1e-12)


class TestApproximateEntropy:
    def test_published_example(self):
        bits = row("0100110101")
        got = nist._approximate_entropy(nist._pattern_counts(bits, 4), 3, 10)[0]
        assert got == pytest.approx(0.261961, abs=1e-6)

    def test_default_block_lengths(self):
        assert NistParams().entropy_block_len(255) == 1
        assert NistParams().entropy_block_len(1023) == 3
        assert NistParams(m_entropy=2).entropy_block_len(255) == 2  # as given

    def test_balanced_random_passes(self):
        assert p_value(random_bits(255, 4), "approximate_entropy") > 0.01


class TestSerial:
    def test_published_example(self):
        bits = row("0011011101")
        p1, p2 = nist._serial(nist._pattern_counts(bits, 3), 3, 10)
        assert p1[0] == pytest.approx(0.808792, abs=1e-6)
        assert p2[0] == pytest.approx(0.670320, abs=1e-6)

    def test_default_block_lengths(self):
        assert NistParams().serial_block_len(255) == 4
        assert NistParams().serial_block_len(1023) == 6
        assert NistParams(m_serial=3).serial_block_len(1023) == 3  # as given

    def test_two_p_values_in_range(self):
        results = run_suite([random_bits(255, 5)]).results
        p1, p2 = results["serial_1"].p_values[0], results["serial_2"].p_values[0]
        assert 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0

    @pytest.mark.parametrize("params", [NistParams(m_serial=1), NistParams(m_entropy=0)])
    def test_block_length_below_minimum_rejected(self, params):
        with pytest.raises(ValueError, match="block length must be"):
            run_suite([random_bits(255, i) for i in range(3)], params)


class TestDft:
    def test_not_applicable_below_min_n(self):
        report = run_suite([random_bits(255, 6)])
        assert "dft" in report.not_applicable

    def test_periodic_input_fails(self):
        bits = np.tile(np.array([0, 1], dtype=np.uint8), 512)[:1023]
        assert p_value(bits, "dft") < 1e-6

    def test_random_input_matches_reference(self):
        bits = random_bits(1023, 7)
        assert p_value(bits, "dft") == pytest.approx(ref_dft(bits), abs=1e-9)

    @pytest.mark.parametrize("n", [1000, 1001, 1023, 1024, 4096])
    def test_half_spectrum_count_equals_full_spectrum_count(self, n):
        # 2,000 random rows, 250 at a time to keep the spectra small
        rng = np.random.default_rng(n)
        threshold = np.sqrt(np.log(1.0 / 0.05) * n)
        for _ in range(8):
            x = 2.0 * rng.integers(0, 2, (250, n), dtype=np.uint8) - 1.0
            full = np.abs(np.fft.fft(x, axis=1))[:, : n // 2]
            assert nist._dft_n1(x, threshold).tolist() == np.count_nonzero(
                full < threshold, axis=1).tolist()

    def test_modulus_at_threshold_is_recounted_on_full_spectrum(self, monkeypatch):
        x = 2.0 * np.stack([random_bits(1023, 20 + i) for i in range(4)]) - 1.0
        full = np.abs(np.fft.fft(x, axis=1))[:, :511]
        threshold = float(full[2, 100])  # a modulus of row 2, exactly
        fft, recounted = np.fft.fft, []

        def spy(a, *args, **kwargs):
            recounted.append(np.asarray(a).copy())
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", spy)
        n1 = nist._dft_n1(x, threshold)
        assert len(recounted) == 1
        assert any(np.array_equal(r, x[2]) for r in recounted[0])
        assert n1.tolist() == np.count_nonzero(full < threshold, axis=1).tolist()

    @pytest.mark.parametrize("n", [1000, 1023, 1024, 2048, 9000])
    @pytest.mark.parametrize("band", [nist._DFT_BAND, 1.0])
    def test_row_chunks_equal_whole_block(self, monkeypatch, n, band):
        # _dft takes c rows at a time; at band 1.0 every row, having a
        # modulus below twice the threshold, is recounted on the full
        # spectrum, one fft call per chunk
        monkeypatch.setattr(nist, "_DFT_BAND", band)
        fft, recounted = np.fft.fft, []

        def spy(a, *args, **kwargs):
            recounted.append(len(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", spy)
        c = max(1, nist._DFT_CHUNK_BITS // n)
        threshold = math.sqrt(math.log(1.0 / 0.05) * n)
        rng = np.random.default_rng(n)
        for s in sorted({1, c - 1, c, c + 1, 3 * c + 2} - {0}):
            mat = rng.integers(0, 2, (s, n), dtype=np.uint8)
            whole = nist._dft_n1(2.0 * mat - 1.0, threshold).tolist()
            recounted.clear()
            assert hexes(nist._dft(mat)) == hexes([ref_dft_p(n, v) for v in whole])
            if band == 1.0:
                assert recounted == [min(c, s - i) for i in range(0, s, c)]


class TestSymmetries:
    def test_complement_invariance_exact(self):
        bits = np.stack([random_bits(255, 100 + seed) for seed in range(5)])
        got, comp = p_columns(bits), p_columns(1 - bits)
        for name in ("frequency", "runs", "serial_1", "serial_2", "approximate_entropy"):
            assert got[name].tolist() == comp[name].tolist(), name
        long_bits = np.stack([random_bits(1023, 200 + seed) for seed in range(5)])
        assert p_columns(long_bits)["dft"].tolist() == p_columns(1 - long_bits)["dft"].tolist()

    def test_reversal_invariance_of_frequency(self):
        bits = random_bits(255, 8)
        assert p_value(bits, "frequency") == p_value(bits[::-1], "frequency")


class TestAgainstReference:
    @pytest.mark.parametrize("n", [255, 1023])
    def test_every_test_matches_reference(self, n):
        params = NistParams()
        mat = np.stack([random_bits(n, 300 + seed) for seed in range(4)])
        got = p_columns(mat)
        m_e = params.entropy_block_len(n)
        m_s = params.serial_block_len(n)
        for i, bits in enumerate(mat):
            want = {
                "frequency": ref_frequency(bits),
                "block_frequency": ref_block_frequency(bits, 20),
                "cumsum_forward": ref_cumulative_sums(bits),
                "cumsum_reverse": ref_cumulative_sums(bits, reverse=True),
                "runs": ref_runs(bits),
                "longest_run": ref_longest_run(bits),
                "approximate_entropy": ref_approximate_entropy(bits, m_e),
            }
            want["serial_1"], want["serial_2"] = ref_serial(bits, m_s)
            for name, value in want.items():
                assert got[name][i] == pytest.approx(value, abs=1e-9), (i, name)


class TestPvalueRange:
    def test_all_p_values_within_unit_interval(self):
        mat = np.stack([random_bits(1023, 400 + seed) for seed in range(20)])
        got = p_columns(mat)
        assert len(got) == 10
        for name, values in got.items():
            assert ((0.0 <= values) & (values <= 1.0)).all(), name


class TestSuite:
    def test_prng_population_passes_proportion(self):
        seqs = [random_bits(255, 1000 + i) for i in range(54)]
        report = run_suite(seqs)
        assert report.sequences == 54
        for name, result in report.results.items():
            assert int(result.passed.sum()) >= 51, name

    def test_all_zero_population_fails_frequency(self):
        seqs = [np.zeros(255, dtype=np.uint8)] * 54
        report = run_suite(seqs)
        freq = report.results["frequency"]
        assert freq.proportion == 0.0
        assert not freq.population_pass

    def test_dft_reported_na_at_255(self):
        seqs = [random_bits(255, i) for i in range(5)]
        report = run_suite(seqs)
        assert "dft" in report.not_applicable
        assert "dft" not in report.results
        assert len(report.results) == 9

    def test_dft_active_at_1023(self):
        seqs = [random_bits(1023, i) for i in range(5)]
        report = run_suite(seqs)
        assert "dft" in report.results
        assert len(report.results) == 10

    def test_pass_rate_na_when_no_test_applies(self):
        report = run_suite([random_bits(63, i) for i in range(54)])
        assert report.results == {}
        assert report.pass_rate is None
        assert not report.all_pass()
        assert format_rate(report.pass_rate, ".1%") == "NA"
        assert format_rate(0.5, ".1%") == "50.0%"

    def test_ragged_lengths_rejected(self):
        with pytest.raises(ValueError):
            run_suite([random_bits(255, 0), random_bits(63, 1)])

    def test_min_pass_rule(self):
        assert min_pass_count(54) == 51  # published acceptance figure
        assert min_pass_count(100) == 97
        assert min_pass_count(1) == 1

    def test_uniformity_flags_concentrated_p_values(self):
        concentrated = np.full(54, 0.3)
        spread = np.linspace(0.01, 0.99, 54)
        unif = uniformity_p_values(np.stack([concentrated, spread]))
        assert unif[0] < 1e-10
        assert unif[1] > 1e-4

    def test_uniformity_bins_match_histogram(self):
        # p-values on the bin edges and their float neighbours, where a bin
        # rule that differs from np.histogram's would move a count
        from ropufsim.special import reg_gamma_upper

        edges = np.linspace(0.0, 1.0, 11)
        near = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
        near = near[(near >= 0.0) & (near <= 1.0)]
        rng = np.random.default_rng(13)
        for _ in range(500):
            p = rng.choice(near, size=int(rng.integers(1, 60)))
            counts, _ = np.histogram(p, bins=edges)
            expected = counts.sum() / 10.0
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            assert uniformity_p_values(p[None])[0] == reg_gamma_upper(4.5, chi2 / 2.0)

    def test_report_serialization(self):
        seqs = [random_bits(255, i) for i in range(12)]
        report = run_suite(seqs)
        csv = report.to_csv()
        assert csv.startswith("test,")
        assert "dft,NA" in csv
        d = report.to_json_dict()
        assert d["n"] == 255 and d["sequences"] == 12


ROW_KINDS = ("random", "biased", "zeros", "ones", "alternating", "alternating_from_one")


@st.composite
def bit_populations(draw):
    """Populations mixing random, biased and degenerate rows at lengths on
    both sides of every applicability threshold."""
    n = draw(st.sampled_from([100, 127, 128, 255, 999, 1000, 1023]))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = {
        "zeros": lambda: np.zeros(n),
        "ones": lambda: np.ones(n),
        "alternating": lambda: np.arange(n) % 2,
        "alternating_from_one": lambda: 1 - np.arange(n) % 2,
        "random": lambda: rng.integers(0, 2, n),
        "biased": lambda: rng.random(n) < rng.uniform(0.02, 0.98),
    }
    return np.array([rows[k]() for k in kinds], dtype=np.uint8)


class TestBatchedSuite:
    @settings(max_examples=60, deadline=None)
    @given(mat=bit_populations())
    def test_rows_equal_one_sequence_tests(self, mat):
        # every row of a batched report == a one-row suite of that row
        report = run_suite(mat)
        singles = [run_suite(r[None]) for r in mat]
        for single in singles:
            assert single.not_applicable == report.not_applicable
            assert list(single.results) == list(report.results)
        for name, result in report.results.items():
            column = [s.results[name].p_values[0] for s in singles]
            assert result.p_values.tolist() == column, name

    @pytest.mark.parametrize("n,na", [
        (100, ["longest_run", "approximate_entropy", "dft"]),
        (127, ["longest_run", "approximate_entropy", "dft"]),
        (128, ["dft"]),
        (999, ["dft"]),
        (1000, []),
        (63, ["frequency", "block_frequency", "cumsum_forward", "cumsum_reverse", "runs",
              "longest_run", "approximate_entropy", "dft", "serial_1", "serial_2"]),
    ])
    def test_not_applicable_sets(self, n, na):
        assert run_suite([random_bits(n, i) for i in range(3)]).not_applicable == na

    @pytest.mark.parametrize("n,rows,params,tops", [
        (255, 54, NistParams(), [4]),              # entropy m = 1, serial m = 4
        (1023, 54, NistParams(), [6]),             # entropy m = 3, serial m = 6
        (1023, 100, NistParams(), [6] * 2),        # 64 rows, then 36
        (1023, 20, NistParams(m_entropy=5), [6]),
        (120, 3, NistParams(), [3]),               # approximate entropy is NA
        (63, 3, NistParams(), []),                 # neither applies
    ])
    def test_one_pattern_table_per_block(self, monkeypatch, n, rows, params, tops):
        # approximate entropy and serial share one table per row block,
        # counted at the longer of their pattern lengths
        counted = []
        count = nist._pattern_counts

        def spy(block, top):
            counted.append(top)
            return count(block, top)

        monkeypatch.setattr(nist, "_pattern_counts", spy)
        run_suite([random_bits(n, i) for i in range(rows)], params)
        assert counted == tops

    @pytest.mark.parametrize("n,top", [(1, 1), (1, 2), (10, 1), (100, 4), (255, 4), (1023, 6)])
    def test_one_bit_table_counts_each_rows_ones(self, n, top):
        # frequency and runs read each row's ones from the 1-bit table, as
        # exact int64 counts
        mat = np.stack([random_bits(n, i) for i in range(7)])
        ones = nist._pattern_counts(mat, top)[1][:, 1]
        assert ones.dtype == np.int64
        assert np.array_equal(ones, row_ones(mat))

    def test_population_above_block_budget_equals_rows_alone(self):
        # 100 rows of 1023 bits span two row blocks
        mat = np.stack([random_bits(1023, 500 + i) for i in range(100)])
        assert 100 * 1023 > nist._BLOCK_BITS
        report = run_suite(mat)
        singles = [run_suite(r[None]) for r in mat]
        assert len(report.results) == 10
        for name, result in report.results.items():
            alone = np.concatenate([s.results[name].p_values for s in singles])
            assert np.array_equal(result.p_values, alone), name

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="guards glibc's heap trimming")
    def test_warm_populations_fault_in_no_pages(self):
        # a whole block's DFT temporaries, freed at the heap's top, passed
        # glibc's trim threshold, so each 54 x 1023 population handed the
        # pages back and faulted them in again: about 185 minor faults each
        rng = np.random.default_rng(54)
        pops = [rng.integers(0, 2, (54, 1023), dtype=np.uint8) for _ in range(3)]
        for mat in pops:
            run_suite(mat)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for i in range(30):
            run_suite(pops[i % 3])
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 30 < 5

    def test_p_values_pinned(self):
        # sha256 over each report's NA list and p-values, computed with the
        # one-sequence-at-a-time suite this batched one replaced
        h = hashlib.sha256()
        for mat, params in pinned_populations():
            report = run_suite(mat, params)
            h.update(",".join(report.not_applicable).encode() + b";")
            for name, r in report.results.items():
                h.update(name.encode() + r.p_values.astype(np.float64).tobytes())
        assert h.hexdigest() == "4a892a696200aa2449bb5dbadb351f59ff516d905ed8422dad58aa9ab61fa764"

    def test_p_values_equal_with_empty_and_warm_gamma_memo(self):
        pops = pinned_populations()
        with empty_gamma_memo() as memo:
            nist._cusum_memo.clear()
            cold = [run_suite(mat, params) for mat, params in pops]
            assert memo._memo_size > 0
            warm = [run_suite(mat, params) for mat, params in pops]
        for a, b in zip(cold, warm):
            assert a.not_applicable == b.not_applicable
            assert list(a.results) == list(b.results)
            for name in a.results:
                assert np.array_equal(a.results[name].p_values, b.results[name].p_values)
                assert a.results[name].uniformity_p == b.results[name].uniformity_p

    def test_matrix_and_list_inputs_agree(self):
        mat = np.stack([random_bits(255, i) for i in range(20)])
        strings = ["".join(map(str, row)) for row in mat]
        by_matrix = run_suite(mat).to_json_dict()
        assert run_suite(list(mat)).to_json_dict() == by_matrix
        assert run_suite(strings).to_json_dict() == by_matrix
        assert run_suite(mat.astype(bool)).to_json_dict() == by_matrix
        assert run_suite(mat.astype(float)).to_json_dict() == by_matrix

    @pytest.mark.parametrize("value", [2, 256, -1, 0.5])
    def test_non_bit_value_rejected_with_sequence_index(self, value):
        mat = np.stack([random_bits(255, i) for i in range(5)]).astype(float)
        mat[3, 17] = value
        with pytest.raises(ValueError, match="sequence 3 "):
            run_suite(mat)
        with pytest.raises(ValueError, match="sequence 3 "):
            run_suite([row.tolist() for row in mat])
        with pytest.raises(ValueError, match="sequence 0 "):
            run_suite([mat[3]])

    def test_more_than_two_dimensions_rejected(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            run_suite(np.zeros((2, 3, 255), dtype=np.uint8))
        with pytest.raises(ValueError, match="one-dimensional"):
            run_suite([np.zeros((3, 255), dtype=np.uint8)])
        with pytest.raises(ValueError, match="two-dimensional"):
            run_suite(random_bits(255, 0))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            run_suite([])
        with pytest.raises(ValueError, match="at least one"):
            run_suite(np.zeros((0, 255), dtype=np.uint8))

    def test_serial_rounding_below_zero_reads_as_zero(self):
        # d2 is exactly zero here, but the float arithmetic left it at -7e-15,
        # which used to raise ValueError out of run_suite
        bits = ("11101010110010001110011100010001110100001111000000011010"
                "00110000101101001011110100100100011000000101")
        assert p_value(bits, "serial_2") == 1.0
        report = run_suite([bits] + [random_bits(100, i) for i in range(9)])
        assert report.results["serial_2"].p_values[0] == 1.0


# The per-row formulas the batched p-value maps replaced, as references:
# each maps one row's statistic with the scalar erfc, normal CDF or Q of
# conftest, which evaluate Q afresh.
def ref_frequency_p(n, abs_s):
    return ref_erfc(abs_s / math.sqrt(n) / math.sqrt(2.0))


def ref_runs_p(n, ones, v):
    if (2 * ones - n) ** 2 >= 16 * n:
        return 0.0
    prod = ones * (n - ones) / (float(n) * n)
    num = abs(v - 2.0 * n * prod)
    den = 2.0 * math.sqrt(2.0 * n) * prod
    return ref_erfc(num / den)


def ref_dft_p(n, n1):
    n0 = 0.95 * n / 2.0
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return ref_erfc(abs(d) / math.sqrt(2.0))


def ref_cusum_p(n, z):
    """The cumulative-sums p-value with every term of both sums computed."""
    if z == 0:
        return 1.0
    sqrt_n = math.sqrt(n)
    k_lo1 = math.floor((-n / z + 1) / 4)
    k_hi = math.floor((n / z - 1) / 4)
    sum1 = sum(
        ref_normal_cdf((4 * k + 1) * z / sqrt_n) - ref_normal_cdf((4 * k - 1) * z / sqrt_n)
        for k in range(k_lo1, k_hi + 1)
    )
    k_lo2 = math.floor((-n / z - 3) / 4)
    sum2 = sum(
        ref_normal_cdf((4 * k + 3) * z / sqrt_n) - ref_normal_cdf((4 * k + 1) * z / sqrt_n)
        for k in range(k_lo2, k_hi + 1)
    )
    return min(max(1.0 - sum1 + sum2, 0.0), 1.0)


def ref_uniformity_p(p_values):
    """One test's uniformity p-value, from its own ten-bin histogram."""
    bins = np.searchsorted(np.linspace(0.0, 1.0, 11), p_values, "right") - 1
    counts = np.bincount(np.minimum(bins, 9), minlength=10)
    expected = counts.sum() / 10.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return ref_q(4.5, chi2 / 2.0)


def edge_population(n, seed):
    """Random rows, then the rows that reach the maps' edges: all zeros and
    all ones fail the runs gate, and at n = 2048 put frequency's erfc
    argument above 27; alternating rows put it at 0 at even n, and at
    n = 2048 put the runs' erfc argument above 27."""
    rng = np.random.default_rng(seed)
    alternating = np.arange(n) % 2
    edges = [np.zeros(n), np.ones(n), alternating, 1 - alternating]
    return np.vstack([rng.integers(0, 2, (12, n)), *edges]).astype(np.uint8)


class TestBatchedMapsEqualPerRowFormulas:
    @pytest.mark.parametrize("n", [100, 128, 255, 1000, 1023, 2048])
    def test_erfc_tests_equal_per_row_formulas(self, n):
        mat = edge_population(n, n)
        ones = mat.sum(axis=1).tolist()
        runs = (1 + np.count_nonzero(np.diff(mat, axis=1), axis=1)).tolist()
        want = {
            "frequency": [ref_frequency_p(n, abs(2 * o - n)) for o in ones],
            "runs": [ref_runs_p(n, o, v) for o, v in zip(ones, runs)],
        }
        kernels = {"frequency": lambda m: nist._frequency(m, row_ones(m)),
                   "runs": lambda m: nist._runs(m, row_ones(m))}
        if n >= nist.DFT_MIN_N:
            threshold = math.sqrt(math.log(1.0 / 0.05) * n)
            n1 = nist._dft_n1(2.0 * mat - 1.0, threshold).tolist()
            want["dft"] = [ref_dft_p(n, v) for v in n1]
            kernels["dft"] = nist._dft
        with empty_gamma_memo():
            cold = {name: kernels[name](mat) for name in want}
            warm = {name: kernels[name](mat) for name in want}
        for name, values in want.items():
            assert hexes(cold[name]) == hexes(values), name
            assert hexes(warm[name]) == hexes(values), name
        # the edges are reached: the runs gate, erfc at 0 and above 27
        assert cold["runs"][-4] == cold["runs"][-3] == 0.0
        if n % 2 == 0:
            assert cold["frequency"][-2] == cold["frequency"][-1] == 1.0
        if n == 2048:
            assert want["frequency"][-3] == 0.0 and want["runs"][-2] == 0.0

    @pytest.mark.parametrize("n", [100, 128, 255, 1000, 1023, 2048])
    def test_skipping_zero_cusum_terms_equals_full_sum(self, n):
        # every z a walk of n steps can reach; at n = 2048 the lowest
        # arguments, near -sqrt(n), fall below -38.5 as well
        with empty_gamma_memo():
            got = nist._cusum_p_values(n, list(range(n + 1)))
        assert hexes(got) == hexes([ref_cusum_p(n, z) for z in range(n + 1)])

    def test_uniformity_map_equals_per_test_arithmetic(self):
        # p-values on the bin edges and their float neighbours, and random
        # ones, over several (tests, sequences) shapes
        edges = np.linspace(0.0, 1.0, 11)
        near = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
        near = near[(near >= 0.0) & (near <= 1.0)]
        rng = np.random.default_rng(29)
        for tests, s in [(1, 1), (1, 54), (9, 54), (10, 54), (10, 7), (3, 1000)]:
            p = rng.random((tests, s))
            p[:, ::3] = rng.choice(near, size=p[:, ::3].shape)
            want = hexes([ref_uniformity_p(row) for row in p])
            with empty_gamma_memo():
                assert hexes(uniformity_p_values(p)) == want
                assert hexes(uniformity_p_values(p)) == want

    def test_verdict_pass_equals_per_test_judgment(self):
        for mat, params in pinned_populations():
            mat = np.vstack([mat] * 4)  # 64 sequences, so uniformity judges
            report = run_suite(mat, params)
            min_pass = min_pass_count(len(mat))
            for name, r in report.results.items():
                passed = r.p_values >= nist.ALPHA
                unif_p = ref_uniformity_p(r.p_values)
                prop_ok = int(passed.sum()) >= min_pass
                unif_ok = unif_p >= nist.UNIFORMITY_ALPHA
                assert r.passed.tolist() == passed.tolist(), name
                assert r.proportion.hex() == float(passed.mean()).hex(), name
                assert r.uniformity_p.hex() == unif_p.hex(), name
                assert (r.min_pass, r.proportion_pass, r.uniformity_pass, r.population_pass) \
                    == (min_pass, prop_ok, unif_ok, prop_ok and unif_ok), name
