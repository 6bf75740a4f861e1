import math

import numpy as np
import pytest

from conftest import manual_chip
from ropufsim.chipmodel import REFERENCE_ENV, EnvCondition
from ropufsim.placement import assign_groups, randomize_placement
from ropufsim.puf import (
    TAPS,
    WORD_CLOCKS,
    Challenge,
    Lfsr,
    ResponseSet,
    bits_from_hex,
    challenge_from_state,
    challenge_width,
    generate_response,
    lfsr_sequence,
    load_responses,
    respond_bit,
    save_responses,
)


def make_plan(freqs, kappa=0.0, seed=0):
    chip = manual_chip(freqs)
    sel = [(int(i), float(f)) for i, f in enumerate(freqs)]
    assignment = assign_groups(sel, kappa, np.random.default_rng(0))
    return randomize_placement(assignment, chip.sites, seed), chip


def lfsr_reference(width, seed_state):
    """Galois LFSR stepped bit by bit, decimated by the word clock count."""
    mask = (1 | sum(1 << e for e in TAPS[width])) >> 1
    period = (1 << width) - 1
    single, s = [], seed_state
    for _ in range(period):
        single.append(s)
        s = (s >> 1) ^ (mask if s & 1 else 0)
    return [single[(i * WORD_CLOCKS[width]) % period] for i in range(period)]


class TestLfsr:
    def test_width4_visits_all_fifteen_states(self):
        states = lfsr_sequence(4, (4, 3), seed_state=1)
        assert len(states) == 15
        assert sorted(states.tolist()) == list(range(1, 16))

    @pytest.mark.parametrize("width,period", [(4, 15), (6, 63), (8, 255), (10, 1023)])
    def test_default_taps_are_maximal(self, width, period):
        states = lfsr_sequence(width)
        assert len(states) == period
        assert len(set(states.tolist())) == period

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            lfsr_sequence(4, (4, 3), seed_state=0)

    def test_non_primitive_taps_fail_period_check(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2 is reducible
        with pytest.raises(ValueError, match="period"):
            lfsr_sequence(4, (4, 2), seed_state=1)

    def test_word_clocks_coprime_to_period(self):
        for width, clocks in WORD_CLOCKS.items():
            assert clocks >= width
            assert math.gcd(clocks, (1 << width) - 1) == 1

    def test_oversized_seed_rejected(self):
        with pytest.raises(ValueError):
            lfsr_sequence(4, (4, 3), seed_state=16)

    def test_traversal_shifts_with_seed(self):
        a = lfsr_sequence(8, seed_state=1)
        b = lfsr_sequence(8, seed_state=2)
        assert set(a.tolist()) == set(b.tolist())
        assert a.tolist() != b.tolist()

    @pytest.mark.parametrize("width,seed", [(4, 1), (6, 5), (8, 1), (8, 200), (10, 77)])
    def test_matches_reference(self, width, seed):
        assert lfsr_sequence(width, seed_state=seed).tolist() == lfsr_reference(width, seed)

    def test_results_independent_of_caller_mutation(self):
        first = lfsr_sequence(8, seed_state=3)
        first[:] = 0
        second = lfsr_sequence(8, seed_state=3)
        second[::2] = -1
        assert lfsr_sequence(8, seed_state=3).tolist() == lfsr_reference(8, 3)

    def test_lfsr_state_validation(self):
        with pytest.raises(ValueError):
            Lfsr(4, (4, 3), 0)
        with pytest.raises(ValueError):
            Lfsr(4, (4, 3), 16)
        with pytest.raises(ValueError):
            Lfsr(4, (3, 2), 1)


class TestChallengeDecoding:
    def test_width_per_design(self):
        assert challenge_width(8) == 4
        assert challenge_width(16) == 6
        assert challenge_width(32) == 8
        assert challenge_width(64) == 10

    def test_half_split(self):
        c = challenge_from_state(0b10110100, 32)
        assert c.lg_index == 0b1011
        assert c.ug_index == 0b0100

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            challenge_width(12)


class TestRespondBit:
    def test_sign_conventions(self):
        plan, chip = make_plan([400.0, 380.0, 410.0, 390.0])
        # lower group holds sorted ranks {0, 2}: sites 1 (380) and 0 (400)
        for lg in range(2):
            for ug in range(2):
                bit = respond_bit(plan, chip, Challenge(lg, ug))
                f_l = plan.lower_order[lg][1]
                f_u = plan.upper_order[ug][1]
                assert bit == (0 if f_l >= f_u else 1)

    def test_exact_tie_gives_zero(self):
        plan, chip = make_plan([400.0, 400.0, 399.0, 401.0])
        for lg in range(2):
            for ug in range(2):
                f_l = plan.lower_order[lg][1]
                f_u = plan.upper_order[ug][1]
                if f_l == f_u:
                    assert respond_bit(plan, chip, Challenge(lg, ug)) == 0

    def test_out_of_range_challenge(self):
        plan, chip = make_plan([400.0, 380.0, 410.0, 390.0])
        with pytest.raises(ValueError):
            respond_bit(plan, chip, Challenge(5, 0))


class TestGenerateResponse:
    @pytest.mark.parametrize("m,k", [(8, 15), (16, 63), (32, 255), (64, 1023)])
    def test_response_lengths(self, m, k):
        rng = np.random.default_rng(1)
        freqs = np.sort(rng.uniform(380.0, 450.0, m))
        plan, chip = make_plan(freqs)
        resp = generate_response(plan, chip, lfsr_seed=1)
        assert resp.k == k
        assert len(resp.bits) == k

    def test_deterministic_without_noise(self):
        rng = np.random.default_rng(2)
        freqs = np.sort(rng.uniform(380.0, 450.0, 16))
        plan, chip = make_plan(freqs)
        a = generate_response(plan, chip, lfsr_seed=3)
        b = generate_response(plan, chip, lfsr_seed=3)
        assert np.array_equal(a.bits, b.bits)

    def test_reference_bits_equal_nominal_sign_pattern(self):
        rng = np.random.default_rng(3)
        freqs = np.sort(rng.uniform(380.0, 450.0, 16))
        plan, chip = make_plan(freqs)
        resp = generate_response(plan, chip, lfsr_seed=1)
        w = challenge_width(16)
        states = lfsr_sequence(w)
        f_l = np.array([f for _, f in plan.lower_order])
        f_u = np.array([f for _, f in plan.upper_order])
        expected = (f_l[states >> 3] < f_u[states & 7]).astype(np.uint8)
        assert np.array_equal(resp.bits, expected)

    def test_stable_pairs_never_flip_across_sweep(self):
        # every pairwise gap dwarfs the worst environmental + measurement shift
        freqs = np.array([300.0, 340.0, 380.0, 420.0, 460.0, 500.0, 540.0, 580.0])
        chip = manual_chip(freqs, temp_coeff=-1e-4, volt_coeff=0.01, meas_sigma=0.05)
        sel = [(int(i), float(f)) for i, f in enumerate(freqs)]
        assignment = assign_groups(sel, 0.0, np.random.default_rng(0))
        plan = randomize_placement(assignment, chip.sites, 1)
        rng = np.random.default_rng(5)
        golden = generate_response(plan, chip, 1, REFERENCE_ENV, rng)
        for t in (-5.0, 35.0, 75.0):
            for v in (900.0, 1000.0, 1100.0):
                resp = generate_response(plan, chip, 1, EnvCondition(t, v), rng)
                assert np.array_equal(resp.bits, golden.bits)

    def test_lfsr_order_is_bit_order(self):
        rng = np.random.default_rng(4)
        freqs = np.sort(rng.uniform(380.0, 450.0, 8))
        plan, chip = make_plan(freqs)
        resp = generate_response(plan, chip, lfsr_seed=1)
        states = lfsr_sequence(4)
        b0 = respond_bit(plan, chip, challenge_from_state(int(states[0]), 8))
        assert resp.bits[0] == b0

    def test_wrong_chip_rejected(self):
        rng = np.random.default_rng(5)
        freqs = np.sort(rng.uniform(380.0, 450.0, 16))
        plan, _ = make_plan(freqs)
        small = manual_chip([400.0, 401.0])
        with pytest.raises(ValueError):
            generate_response(plan, small, 1)


class TestResponseIo:
    def test_hex_round_trip(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, 255).astype(np.uint8)
        resp = ResponseSet("dev", REFERENCE_ENV, bits, 255, 1)
        assert np.array_equal(bits_from_hex(resp.to_hex()), bits)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        responses = [
            ResponseSet(f"dev{i}", EnvCondition(35.0 + i, 1000.0),
                        rng.integers(0, 2, 63).astype(np.uint8), 63, 1)
            for i in range(3)
        ]
        path = tmp_path / "responses.csv"
        save_responses(str(path), responses)
        back = load_responses(str(path))
        assert len(back) == 3
        for orig, got in zip(responses, back):
            assert got.device_id == orig.device_id
            assert got.env == orig.env
            assert np.array_equal(got.bits, orig.bits)

    def test_malformed_dump_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("device_id,temp_c,vcc_mv,hexbits\ndev,35,notanumber,ff\n")
        with pytest.raises(ValueError, match=":2"):
            load_responses(str(path))
