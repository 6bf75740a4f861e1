import copy
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import manual_chip
from ropufsim.chipmodel import REFERENCE_ENV, DataError, EnvCondition
from ropufsim.placement import assign_groups, randomize_placement
from ropufsim.puf import (
    TAPS,
    WORD_CLOCKS,
    ResponseSet,
    bits_from_hex,
    challenge_width,
    generate_response,
    generate_responses,
    lfsr_sequence,
    load_responses,
    save_responses,
)


def make_plan(freqs, kappa=0.0, seed=0):
    chip = manual_chip(freqs)
    assignment = assign_groups(np.arange(len(freqs)), freqs, kappa, np.random.default_rng(0))
    return randomize_placement(assignment, chip.layout, seed), chip


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
        states = lfsr_sequence(4, seed_state=1)
        assert len(states) == 15
        assert sorted(states.tolist()) == list(range(1, 16))

    @pytest.mark.parametrize("width,period", [(4, 15), (6, 63), (8, 255), (10, 1023)])
    def test_default_taps_are_maximal(self, width, period):
        states = lfsr_sequence(width)
        assert len(states) == period
        assert len(set(states.tolist())) == period

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            lfsr_sequence(4, seed_state=0)

    def test_word_clocks_coprime_to_period(self):
        for width, clocks in WORD_CLOCKS.items():
            assert clocks >= width
            assert math.gcd(clocks, (1 << width) - 1) == 1

    def test_oversized_seed_rejected(self):
        with pytest.raises(ValueError):
            lfsr_sequence(4, seed_state=16)

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

    @pytest.mark.parametrize("width", sorted(TAPS))
    def test_every_seed_starts_a_rotation_of_one_traversal(self, width):
        base = lfsr_sequence(width).tolist()
        for seed in range(1, len(base) + 1):
            k = base.index(seed)
            assert lfsr_sequence(width, seed_state=seed).tolist() == base[k:] + base[:k]

    def test_takes_width_and_seed_state_only(self):
        assert list(inspect.signature(lfsr_sequence).parameters) == ["width", "seed_state"]
        with pytest.raises(TypeError):
            lfsr_sequence(4, taps=(4, 3))

    def test_lfsr_state_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            lfsr_sequence(4, seed_state=0)
        with pytest.raises(ValueError, match="does not fit"):
            lfsr_sequence(4, seed_state=16)
        with pytest.raises(ValueError, match="no default taps for width 5"):
            lfsr_sequence(5)


class TestChallengeDecoding:
    def test_width_per_design(self):
        assert challenge_width(8) == 4
        assert challenge_width(16) == 6
        assert challenge_width(32) == 8
        assert challenge_width(64) == 10

    def test_half_split(self):
        # the high half of a word indexes the lower group, the low half the upper
        rng = np.random.default_rng(8)
        plan, chip = make_plan(np.sort(rng.uniform(380.0, 450.0, 32)))
        bits = generate_response(plan, chip, lfsr_seed=1).bits
        states = lfsr_sequence(challenge_width(32))
        f_l, f_u = plan.freqs[:16], plan.freqs[16:]
        assert np.array_equal(bits, f_l[states >> 4] < f_u[states & 15])
        assert not np.array_equal(bits, f_l[states & 15] < f_u[states >> 4])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            challenge_width(12)


class TestRespondBit:
    """The comparator bit of one challenge, read from ``generate_response``."""

    @staticmethod
    def bit_of(plan, chip, lg, ug):
        half = plan.group_size.bit_length() - 1
        j = lfsr_sequence(2 * half).tolist().index((lg << half) | ug)
        return generate_response(plan, chip, lfsr_seed=1).bits[j]

    def test_sign_conventions(self):
        plan, chip = make_plan([400.0, 380.0, 410.0, 390.0, 420.0, 370.0, 430.0, 360.0])
        for lg in range(4):
            for ug in range(4):
                if lg == ug == 0:
                    continue  # the all-zero word is no LFSR state
                f_l, f_u = plan.freqs[lg], plan.freqs[4 + ug]
                assert self.bit_of(plan, chip, lg, ug) == (0 if f_l >= f_u else 1)

    def test_exact_tie_gives_zero(self):
        # sorted ranks 3 and 4 tie at 400 MHz and land in different groups
        plan, chip = make_plan([400.0, 400.0, 390.0, 395.0, 405.0, 410.0, 385.0, 415.0])
        ties = [(lg, ug) for lg in range(4) for ug in range(4)
                if plan.freqs[lg] == plan.freqs[4 + ug]]
        assert ties
        for lg, ug in ties:
            assert self.bit_of(plan, chip, lg, ug) == 0


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
        f_l, f_u = plan.freqs[:8], plan.freqs[8:]
        expected = (f_l[states >> 3] < f_u[states & 7]).astype(np.uint8)
        assert np.array_equal(resp.bits, expected)

    def test_stable_pairs_never_flip_across_sweep(self):
        # every pairwise gap dwarfs the worst environmental + measurement shift
        freqs = np.array([300.0, 340.0, 380.0, 420.0, 460.0, 500.0, 540.0, 580.0])
        chip = manual_chip(freqs, temp_coeff=-1e-4, volt_coeff=0.01, meas_sigma=0.05)
        assignment = assign_groups(np.arange(freqs.size), freqs, 0.0, np.random.default_rng(0))
        plan = randomize_placement(assignment, chip.layout, 1)
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
        first = int(lfsr_sequence(4)[0])
        f_l, f_u = plan.freqs[first >> 2], plan.freqs[4 + (first & 3)]
        assert resp.bits[0] == (0 if f_l >= f_u else 1)

    def test_wrong_chip_rejected(self):
        rng = np.random.default_rng(5)
        freqs = np.sort(rng.uniform(380.0, 450.0, 16))
        plan, _ = make_plan(freqs)
        small = manual_chip([400.0, 401.0])
        with pytest.raises(ValueError):
            generate_response(plan, small, 1)


def response_reference(plan, chip, lfsr_seed, env, rng, t_on_us):
    """One condition's bits by the per-condition path the response tensor
    replaced: every site's frequency at the condition, then the lower and
    the upper group's counts, each with its own draw when noisy."""
    w = challenge_width(plan.m)
    states = lfsr_sequence(w, lfsr_seed)
    half = w // 2
    refs_l, refs_u = plan.refs[: plan.m // 2], plan.refs[plan.m // 2 :]
    scale = 1.0
    if not env.is_reference():
        dt = env.temp_c - 35.0
        dv = (env.vcc_mv - 1000.0) / 1000.0
        scale = 1.0 + chip.temp_coeff * dt + chip.volt_coeff * dv
    freqs = chip.nominal_freq * scale

    def counts(sites):
        f, sigma = freqs[sites], chip.meas_sigma_site[sites]
        if np.any(sigma > 0):
            f = f + rng.standard_normal(f.shape) * sigma
        return np.maximum(np.rint(f * t_on_us), 0.0).astype(np.int64)

    lower = counts(refs_l[states >> half])
    upper = counts(refs_u[states & ((1 << half) - 1)])
    return (lower - upper < 0).astype(np.uint8)


class TestGenerateResponses:
    ENVS = [REFERENCE_ENV, EnvCondition(-5.0, 1000.0), EnvCondition(75.0, 1000.0),
            EnvCondition(35.0, 900.0), EnvCondition(35.0, 1100.0), EnvCondition(5.0, 960.0)]

    @staticmethod
    def placed(chip, m, seed):
        rng = np.random.default_rng(seed)
        sites = np.sort(rng.choice(chip.site_count, m, replace=False))
        assignment = assign_groups(sites, chip.nominal_freq[sites], 0.5,
                                   np.random.default_rng(seed))
        return randomize_placement(assignment, chip.layout, seed)

    @staticmethod
    def quiet(chip, sites):
        """The chip with no measurement noise at the given sites."""
        out = copy.copy(chip)
        out.meas_sigma_site = chip.meas_sigma_site.copy()
        out.meas_sigma_site[sites] = 0.0
        return out

    @pytest.mark.parametrize("m", [8, 16, 32])
    @pytest.mark.parametrize("noise", ["both", "upper_only", "lower_only", "none"])
    def test_rows_equal_per_condition_responses(self, small_chip, m, noise):
        plan = self.placed(small_chip, m, seed=m)
        lower, upper = plan.refs[: m // 2].tolist(), plan.refs[m // 2 :].tolist()
        chip = {"both": small_chip, "upper_only": self.quiet(small_chip, lower),
                "lower_only": self.quiet(small_chip, upper),
                "none": self.quiet(small_chip, lower + upper)}[noise]
        seeds = range(100, 100 + len(self.ENVS))
        rngs = [np.random.default_rng(s) for s in seeds]
        bits = generate_responses(plan, chip, 3, self.ENVS, rngs, t_on_us=50.0)
        k = (m // 2) ** 2 - 1
        assert bits.shape == (len(self.ENVS), k) and bits.dtype == np.uint8
        for row, env, s, rng in zip(bits, self.ENVS, seeds, rngs):
            ref_rng = np.random.default_rng(s)
            want = response_reference(plan, chip, 3, env, ref_rng, 50.0)
            assert np.array_equal(row, want)
            one = generate_response(plan, chip, 3, env, np.random.default_rng(s), 50.0)
            assert np.array_equal(one.bits, want) and one.k == k
            # each row drew exactly what the per-condition path drew
            assert rng.random() == ref_rng.random()

    def test_noise_needs_a_generator(self, small_chip):
        plan = self.placed(small_chip, 8, seed=1)
        rngs = [np.random.default_rng(0), None]
        with pytest.raises(ValueError, match="rng required"):
            generate_responses(plan, small_chip, 1, [REFERENCE_ENV, REFERENCE_ENV], rngs)


def hex_by_bit_loop(bits) -> str:
    """Reference packing: bit i of the value is bits[i]."""
    value = 0
    for i, b in enumerate(bits):
        if b:
            value |= 1 << i
    return format(value, f"0{(len(bits) + 3) // 4}x")


class TestResponseIo:
    def test_hex_round_trip(self):
        rng = np.random.default_rng(6)
        for k in (15, 63, 255, 1023):
            for bits in (rng.integers(0, 2, k).astype(np.uint8),
                         np.zeros(k, np.uint8), np.ones(k, np.uint8)):
                resp = ResponseSet("dev", REFERENCE_ENV, bits, k, 1)
                text = resp.to_hex()
                assert text == hex_by_bit_loop(bits)
                assert len(text) == (k + 1) // 4
                back = bits_from_hex(text)
                assert back.dtype == np.uint8
                assert np.array_equal(back, bits)
                assert np.array_equal(bits_from_hex(text, k), bits)

    def test_hex_with_bit_at_or_above_k_rejected(self):
        # 16 digits hold a 63-bit dump; a 64-bit one sets the top bit
        rng = np.random.default_rng(9)
        bits64 = rng.integers(0, 2, 64).astype(np.uint8)
        bits64[63] = 1
        text = hex_by_bit_loop(bits64)
        with pytest.raises(ValueError, match="k=63"):
            bits_from_hex(text)
        with pytest.raises(ValueError, match="k=62"):
            bits_from_hex(text[-16:], k=62)
        assert np.array_equal(bits_from_hex(text, k=64), bits64)

    def test_dump_with_other_k_reports_line(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("device_id,temp_c,vcc_mv,hexbits(k=15)\n"
                        "dev0,35,1000,7fff\n"
                        "dev1,35,1000,ffff\n")
        with pytest.raises(ValueError, match=r"mixed\.csv:3"):
            load_responses(str(path))

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

    def test_conditions_beyond_six_digits_round_trip(self, tmp_path):
        # :g keeps 6 significant digits, so these used to read back as
        # 25.1235 degC and 1000 mV; values :g writes exactly keep its form
        grid = [EnvCondition(25.123456789, 1000.0004), EnvCondition(-40.0, 1e-7),
                EnvCondition(0.1 + 0.2, 950.0), EnvCondition(1e21 + 1e6, 1000.5)]
        responses = [ResponseSet("dev", env, np.ones(7, np.uint8), 7, 1) for env in grid]
        path = tmp_path / "responses.csv"
        save_responses(str(path), responses)
        assert [r.env for r in load_responses(str(path))] == grid
        lines = path.read_text().splitlines()
        assert lines[2:4] == ["dev,-40,1e-07,7f", "dev,0.30000000000000004,950,7f"]

    def test_malformed_dump_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("device_id,temp_c,vcc_mv,hexbits(k=8)\ndev,35,notanumber,ff\n")
        with pytest.raises(ValueError, match=":2"):
            load_responses(str(path))

    def test_width_comes_from_header(self, tmp_path):
        # 13 ones print as 1fff, which the digit count alone reads as 15 bits
        ones = ResponseSet("dev", REFERENCE_ENV, np.ones(13, np.uint8), 13, 1)
        path = tmp_path / "responses.csv"
        save_responses(str(path), [ones])
        assert path.read_text() == "device_id,temp_c,vcc_mv,hexbits(k=13)\ndev,35,1000,1fff\n"
        (back,) = load_responses(str(path))
        assert back.k == 13 and np.array_equal(back.bits, ones.bits)

    @pytest.mark.parametrize("header", [
        "device_id,temp_c,vcc_mv,hexbits", "device_id,temp_c,vcc_mv,hexbits(k=)",
        "device_id,temp_c,vcc_mv,hexbits(k=0)", "",
    ])
    def test_dump_without_k_names_header_line(self, tmp_path, header):
        path = tmp_path / "old.csv"
        path.write_text(f"{header}\ndev,35,1000,7fff\n")
        with pytest.raises(ValueError, match=r"old\.csv:1: bad response dump header"):
            load_responses(str(path))

    def test_bit_at_or_above_header_k_names_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("device_id,temp_c,vcc_mv,hexbits(k=13)\ndev,35,1000,1fff\n"
                        "dev,25,1000,2000\n")
        with pytest.raises(ValueError, match=r"wide\.csv:3: .*does not fit in k=13 bits"):
            load_responses(str(path))

    @pytest.mark.parametrize("data,lineno", [
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,1000,zz\n", 2),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,1000,7fff\ndev\xff,35,1000,7fff\n", 3),
        (b"", 1),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,nan,1000,0x7f\n", 2),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,nan,1000,7f\n", 2),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,inf,7f\n", 2),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,-inf,1000,7f\n", 2),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,1000,7f\ndev,35,1000,0x7f\n", 3),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,1000,1_f\n", 2),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,1000,-0\n", 2),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,1000,+7f\n", 2),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,1000, 7f\n", 2),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,1000,\n", 2),
        ("device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,1000,\u0667f\n".encode(), 2),
        ("device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,1000,\uff17\uff46\n".encode(), 2),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,3_5,1_000,7fff\n", 2),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,1_000,7fff\n", 2),
        ("device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,\u0663\u0665,1000,7fff\n".encode(), 2),
        ("device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,\uff11000,7fff\n".encode(), 2),
        ("device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,\u200935,1000,7fff\n".encode(), 2),
        (b"device_id,temp_c,vcc_mv,hexbits(k=1_5)\ndev,35,1000,7fff\n", 1),
        ("device_id,temp_c,vcc_mv,hexbits(k=\uff11\uff15)\ndev,35,1000,7fff\n".encode(), 1),
    ])
    def test_malformed_dump_raises_data_error_naming_line(self, tmp_path, data, lineno):
        path = tmp_path / "dump.csv"
        path.write_bytes(data)
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:{lineno}: "):
            load_responses(str(path))

    @settings(max_examples=300, deadline=None)
    @given(body=st.one_of(
        st.lists(st.one_of(
            st.sampled_from(["dev", "35", "1000", "-0", "nan", "7fff", "ffff", "1_f", "0x7f",
                             "", " ", "zz"]),
            st.text(max_size=6),
        ), min_size=1, max_size=6).map(
            lambda parts: ",".join(parts).encode("utf-8", "surrogatepass")),
        st.binary(min_size=1, max_size=40),
    ))
    def test_any_line_parses_or_names_its_line(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "fuzz_responses.csv"
        path.write_bytes(b"device_id,temp_c,vcc_mv,hexbits(k=15)\n"
                         + body.replace(b"\n", b" ").replace(b"\r", b" ") + b"\n")
        try:
            loaded = load_responses(str(path))
        except DataError as exc:
            assert str(exc).startswith(f"{path}:2: ")
        else:
            assert len(loaded) <= 1
            assert all(r.k == 15 and r.bits.shape == (15,) for r in loaded)

    def test_one_width_per_dump(self, tmp_path):
        rng = np.random.default_rng(8)
        mixed = [ResponseSet("dev", REFERENCE_ENV, rng.integers(0, 2, k).astype(np.uint8), k, 1)
                 for k in (15, 63)]
        with pytest.raises(ValueError, match=r"one width, got k in \[15, 63\]"):
            save_responses(str(tmp_path / "mixed.csv"), mixed)
