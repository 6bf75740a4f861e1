import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ropufsim.nist import (
    NistParams,
    NotApplicableError,
    approximate_entropy_test,
    block_frequency_test,
    cumulative_sums_test,
    dft_test,
    format_rate,
    frequency_test,
    longest_run_test,
    min_pass_count,
    run_suite,
    runs_test,
    serial_test,
    uniformity_p_value,
)

LONGEST_RUN_EXAMPLE = (
    "11001100000101010110110001001100111000000000001001"
    "00110101010001000100111101011010000000110101111100"
    "1100111001101101100010110010"
)


def random_bits(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n).astype(np.uint8)


class TestFrequency:
    def test_published_example(self):
        # S=2, n=10 -> p ~ 0.527089 (floor disabled to evaluate the tiny case)
        assert frequency_test("1011010101", check_n=False) == pytest.approx(0.527089, abs=1e-6)

    def test_alternating_is_perfectly_balanced(self):
        bits = "01" * 200
        assert frequency_test(bits) == 1.0

    def test_all_ones_fails_hard(self):
        assert frequency_test("1" * 255) < 1e-12

    def test_short_input_not_applicable(self):
        with pytest.raises(NotApplicableError):
            frequency_test("1010")


class TestBlockFrequency:
    def test_published_example(self):
        got = block_frequency_test("0110011010", block_len=3, check_n=False)
        assert got == pytest.approx(0.801252, abs=1e-6)

    def test_balanced_blocks_give_p_one(self):
        bits = ("10" * 10) * 12  # every 20-bit block exactly half ones
        assert block_frequency_test(bits) == pytest.approx(1.0)

    def test_default_block_len_is_twenty(self):
        bits = random_bits(255, 1)
        assert block_frequency_test(bits) == pytest.approx(ref_block_frequency(bits, 20), abs=1e-12)


class TestCumulativeSums:
    def test_published_example_forward(self):
        got = cumulative_sums_test("1011010111", check_n=False)
        assert got == pytest.approx(0.411585, abs=1e-6)

    def test_balanced_alternation(self):
        assert cumulative_sums_test("01" * 100) > 0.99

    def test_reverse_equals_forward_of_reversed(self):
        bits = random_bits(255, 2)
        fwd_of_reversed = cumulative_sums_test(bits[::-1])
        rev = cumulative_sums_test(bits, reverse=True)
        assert rev == fwd_of_reversed


class TestRuns:
    def test_published_example(self):
        assert runs_test("1001101011", check_n=False) == pytest.approx(0.147232, abs=1e-6)

    def test_balanced_alternation_fails_runs(self):
        # perfectly alternating: far too many runs
        assert runs_test("01" * 128) < 1e-12

    def test_biased_precondition_returns_zero(self):
        bits = np.concatenate([np.ones(200, np.uint8), np.zeros(55, np.uint8)])
        assert runs_test(bits) == 0.0


class TestLongestRun:
    def test_published_example(self):
        assert longest_run_test(LONGEST_RUN_EXAMPLE) == pytest.approx(0.180609, abs=1e-6)

    def test_not_applicable_below_128(self):
        with pytest.raises(NotApplicableError):
            longest_run_test("10" * 50)

    def test_matches_reference_at_255(self):
        bits = random_bits(255, 3)
        assert longest_run_test(bits) == pytest.approx(ref_longest_run(bits), abs=1e-12)


class TestApproximateEntropy:
    def test_published_example(self):
        got = approximate_entropy_test("0100110101", m=3, check_n=False)
        assert got == pytest.approx(0.261961, abs=1e-6)

    def test_default_block_lengths(self):
        assert NistParams().entropy_block_len(255) == 1
        assert NistParams().entropy_block_len(1023) == 3

    def test_balanced_random_passes(self):
        assert approximate_entropy_test(random_bits(255, 4)) > 0.01


class TestSerial:
    def test_published_example(self):
        p1, p2 = serial_test("0011011101", m=3, check_n=False)
        assert p1 == pytest.approx(0.808792, abs=1e-6)
        assert p2 == pytest.approx(0.670320, abs=1e-6)

    def test_default_block_lengths(self):
        assert NistParams().serial_block_len(255) == 4
        assert NistParams().serial_block_len(1023) == 6

    def test_two_p_values_in_range(self):
        p1, p2 = serial_test(random_bits(255, 5))
        assert 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0


class TestDft:
    def test_not_applicable_below_min_n(self):
        with pytest.raises(NotApplicableError):
            dft_test(random_bits(255, 6))

    def test_periodic_input_fails(self):
        bits = np.tile(np.array([0, 1], dtype=np.uint8), 512)[:1023]
        assert dft_test(bits) < 1e-6

    def test_random_input_matches_reference(self):
        bits = random_bits(1023, 7)
        assert dft_test(bits) == pytest.approx(ref_dft(bits), abs=1e-9)


class TestSymmetries:
    def test_complement_invariance_exact(self):
        for seed in range(5):
            bits = random_bits(255, 100 + seed)
            comp = (1 - bits).astype(np.uint8)
            assert frequency_test(bits) == frequency_test(comp)
            assert runs_test(bits) == runs_test(comp)
            assert serial_test(bits) == serial_test(comp)
            assert approximate_entropy_test(bits) == approximate_entropy_test(comp)
            long_bits = random_bits(1023, 200 + seed)
            assert dft_test(long_bits) == dft_test((1 - long_bits).astype(np.uint8))

    def test_reversal_invariance_of_frequency(self):
        bits = random_bits(255, 8)
        assert frequency_test(bits) == frequency_test(bits[::-1])


class TestAgainstReference:
    @pytest.mark.parametrize("n", [255, 1023])
    def test_every_test_matches_reference(self, n):
        params = NistParams()
        for seed in range(4):
            bits = random_bits(n, 300 + seed)
            assert frequency_test(bits) == pytest.approx(ref_frequency(bits), abs=1e-9)
            assert block_frequency_test(bits) == pytest.approx(
                ref_block_frequency(bits, 20), abs=1e-9)
            assert cumulative_sums_test(bits) == pytest.approx(
                ref_cumulative_sums(bits), abs=1e-9)
            assert cumulative_sums_test(bits, reverse=True) == pytest.approx(
                ref_cumulative_sums(bits, reverse=True), abs=1e-9)
            assert runs_test(bits) == pytest.approx(ref_runs(bits), abs=1e-9)
            assert longest_run_test(bits) == pytest.approx(ref_longest_run(bits), abs=1e-9)
            m_e = params.entropy_block_len(n)
            assert approximate_entropy_test(bits) == pytest.approx(
                ref_approximate_entropy(bits, m_e), abs=1e-9)
            m_s = params.serial_block_len(n)
            got = serial_test(bits)
            want = ref_serial(bits, m_s)
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == pytest.approx(want[1], abs=1e-9)


class TestPvalueRange:
    def test_all_p_values_within_unit_interval(self):
        for seed in range(20):
            bits = random_bits(1023, 400 + seed)
            values = [
                frequency_test(bits),
                block_frequency_test(bits),
                cumulative_sums_test(bits),
                cumulative_sums_test(bits, reverse=True),
                runs_test(bits),
                longest_run_test(bits),
                approximate_entropy_test(bits),
                *serial_test(bits),
                dft_test(bits),
            ]
            assert all(0.0 <= p <= 1.0 for p in values)


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
        assert min_pass_count(54, 0.01) == 51  # published acceptance figure
        assert min_pass_count(100, 0.01) == 97
        assert min_pass_count(1, 0.01) == 1

    def test_uniformity_flags_concentrated_p_values(self):
        concentrated = np.full(54, 0.3)
        assert uniformity_p_value(concentrated) < 1e-10
        spread = np.linspace(0.01, 0.99, 54)
        assert uniformity_p_value(spread) > 1e-4

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
            assert uniformity_p_value(p) == reg_gamma_upper(4.5, chi2 / 2.0)

    def test_report_serialization(self):
        seqs = [random_bits(255, i) for i in range(12)]
        report = run_suite(seqs)
        csv = report.to_csv()
        assert csv.startswith("test,")
        assert "dft,NA" in csv
        d = report.to_json_dict()
        assert d["n"] == 255 and d["sequences"] == 12


# (names, one-sequence test) in run_suite's run order
ONE_SEQUENCE_TESTS = (
    (("frequency",), lambda b: (frequency_test(b),)),
    (("block_frequency",), lambda b: (block_frequency_test(b),)),
    (("cumsum_forward",), lambda b: (cumulative_sums_test(b),)),
    (("cumsum_reverse",), lambda b: (cumulative_sums_test(b, reverse=True),)),
    (("runs",), lambda b: (runs_test(b),)),
    (("longest_run",), lambda b: (longest_run_test(b),)),
    (("approximate_entropy",), lambda b: (approximate_entropy_test(b),)),
    (("dft",), lambda b: (dft_test(b),)),
    (("serial_1", "serial_2"), lambda b: serial_test(b)),
)
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
        report = run_suite(mat)
        expected, not_applicable = {}, []
        for names, test in ONE_SEQUENCE_TESTS:
            try:
                columns = list(zip(*(test(row) for row in mat)))
            except NotApplicableError:
                not_applicable.extend(names)
                continue
            expected.update(zip(names, columns))
        assert report.not_applicable == not_applicable
        assert set(report.results) == set(expected)
        for name, column in expected.items():
            assert report.results[name].p_values.tolist() == list(column), name

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

    def test_p_values_pinned(self):
        # sha256 over each report's NA list and p-values, computed with the
        # one-sequence-at-a-time suite this batched one replaced
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
        h = hashlib.sha256()
        for mat, params in [(m, None) for m in pops] + [(pops[3], custom), (pops[6], custom)]:
            report = run_suite(mat, params)
            h.update(",".join(report.not_applicable).encode() + b";")
            for name, r in report.results.items():
                h.update(name.encode() + r.p_values.astype(np.float64).tobytes())
        assert h.hexdigest() == "4a892a696200aa2449bb5dbadb351f59ff516d905ed8422dad58aa9ab61fa764"

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
        with pytest.raises(ValueError):
            frequency_test(mat[3])

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
        assert serial_test(bits)[1] == 1.0
        report = run_suite([bits] + [random_bits(100, i) for i in range(9)])
        assert report.results["serial_2"].p_values[0] == 1.0
