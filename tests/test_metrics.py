import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ropufsim.metrics import (
    evaluate_population,
    hamming,
    min_entropy,
    reliability,
    uniqueness,
)


class TestHamming:
    def test_identical(self):
        assert hamming("1010", "1010") == 0

    def test_complementary(self):
        assert hamming("1111", "0000") == 4

    def test_hand_counted(self):
        assert hamming("1100", "1010") == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming("101", "1010")

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64),
           st.data())
    @settings(max_examples=200)
    def test_metric_axioms(self, a, data):
        b = data.draw(st.lists(st.integers(0, 1), min_size=len(a), max_size=len(a)))
        c = data.draw(st.lists(st.integers(0, 1), min_size=len(a), max_size=len(a)))
        assert hamming(a, a) == 0
        assert hamming(a, b) == hamming(b, a)
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)
        if hamming(a, b) == 0:
            assert a == b


class TestReliability:
    def test_perfect_match(self):
        golden = "10110"
        assert reliability(golden, [golden, golden, golden]) == 1.0

    def test_single_flip_of_255(self):
        golden = np.zeros(255, dtype=np.uint8)
        flipped = golden.copy()
        flipped[7] = 1
        assert reliability(golden, [flipped]) == pytest.approx(1.0 - 1.0 / 255.0)

    def test_complement_gives_zero(self):
        golden = np.zeros(16, dtype=np.uint8)
        comp = np.ones(16, dtype=np.uint8)
        assert reliability(golden, [comp, comp]) == 0.0

    def test_golden_vs_itself_any_e(self):
        golden = np.random.default_rng(0).integers(0, 2, 64).astype(np.uint8)
        for e in (1, 3, 10):
            assert reliability(golden, [golden] * e) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reliability("101", np.empty((0, 3), dtype=np.uint8))


class TestUniqueness:
    def test_identical_rows(self):
        assert uniqueness(["1010", "1010"])["u"] == 0.0

    def test_complementary_rows(self):
        assert uniqueness(["1010", "0101"])["u"] == 1.0

    def test_three_rows_half_distance(self):
        rows = ["1100", "1010", "0110"]
        out = uniqueness(rows)
        assert out["pairwise_hd"].tolist() == [0.5, 0.5, 0.5]
        assert out["u"] == 0.5

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            uniqueness(["1010"])

    def test_invariant_under_common_column_permutation(self):
        rng = np.random.default_rng(1)
        mat = rng.integers(0, 2, (6, 40)).astype(np.uint8)
        perm = rng.permutation(40)
        assert uniqueness(mat)["u"] == uniqueness(mat[:, perm])["u"]


class TestMinEntropy:
    def test_constant_column_zero(self):
        mat = np.ones((5, 3), dtype=np.uint8)
        assert min_entropy(mat)["h_avg"] == 0.0

    def test_balanced_column_one(self):
        mat = np.array([[1], [0], [1], [0]], dtype=np.uint8)
        assert min_entropy(mat)["h_avg"] == 1.0

    def test_three_quarters(self):
        mat = np.array([[1], [1], [1], [0]], dtype=np.uint8)
        assert min_entropy(mat)["per_bit"][0] == pytest.approx(-np.log2(0.75))

    def test_range_and_balance_characterization(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            mat = rng.integers(0, 2, (8, 16)).astype(np.uint8)
            out = min_entropy(mat)
            assert 0.0 <= out["h_avg"] <= 1.0
            if out["h_avg"] == 1.0:
                assert np.all(mat.sum(axis=0) == 4)


def golden_and_sweeps(bad):
    golden = np.zeros((2, 4), dtype=int)
    golden[1, 2] = bad
    return golden, [np.zeros((1, 4), dtype=np.uint8)] * 2, ["a", "b"]


# each metric with one value other than 0 and 1 in its input
METRIC_CALLS = {
    "hamming": lambda bad: hamming([0, 1, bad], [0, 1, 1]),
    "hamming_second": lambda bad: hamming("011", np.array([0, 1, bad])),
    "reliability_golden": lambda bad: reliability([bad, 0], [[0, 0]]),
    "reliability_responses": lambda bad: reliability([1, 0], [[1, 0], [1, bad]]),
    "reliability_one_response": lambda bad: reliability([1, 0], np.array([1, bad])),
    "uniqueness": lambda bad: uniqueness(np.array([[0, 1], [bad, 0]])),
    "min_entropy": lambda bad: min_entropy([[bad, 0], [0, 0]]),
    "min_entropy_one_row": lambda bad: min_entropy([0, bad]),
    "evaluate_population": lambda bad: evaluate_population(*golden_and_sweeps(bad)),
}


class TestBitInputs:
    @pytest.mark.parametrize("bad", [2, 256, -1])
    @pytest.mark.parametrize("metric", sorted(METRIC_CALLS))
    def test_non_bit_value_rejected(self, metric, bad):
        with pytest.raises(ValueError, match="other than 0 and 1"):
            METRIC_CALLS[metric](bad)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            uniqueness([[0, 1, 1], [0, 1]])
        with pytest.raises(ValueError, match="same length"):
            min_entropy(["011", "01"])

    def test_one_dimensional_responses_are_one_row(self):
        golden = np.array([1, 0, 1, 1], dtype=np.uint8)
        flipped = np.array([1, 0, 0, 1], dtype=np.uint8)
        assert reliability(golden, flipped) == reliability(golden, [flipped]) == 0.75
        assert reliability(golden, flipped.tolist()) == 0.75
        assert reliability("1011", "1001") == 0.75
        assert min_entropy(flipped)["per_bit"].tolist() == [0.0] * 4
        assert hamming(np.array([[0, 1], [1, 1]]), np.array([[0, 0], [1, 0]])) == 2


class TestEvaluatePopulation:
    def test_trivial_reference_only_run(self):
        golden = np.array([[1, 0, 1, 0], [0, 1, 1, 0]], dtype=np.uint8)
        report = evaluate_population(
            golden, [np.empty((0, 4), np.uint8)] * 2, ["a", "b"]
        )
        assert report.r_avg == 1.0 and report.r_min == 1.0

    def test_report_fields_consistent(self):
        rng = np.random.default_rng(3)
        golden = rng.integers(0, 2, (4, 32)).astype(np.uint8)
        sweeps = [np.vstack([g, g]) for g in golden]
        report = evaluate_population(golden, sweeps, list("abcd"))
        assert report.r_min <= report.r_avg <= report.r_max
        assert 0.0 <= report.u <= 1.0
        assert 0.0 <= report.min_entropy_avg <= 1.0
        d = report.to_json_dict()
        assert set(d) == {"reliability", "uniqueness", "min_entropy"}
