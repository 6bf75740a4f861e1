import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import manual_chip, toy_spec
from ropufsim.chipmodel import CLASS_NAMES, DataError, synth_chip
from ropufsim.placement import (
    GroupAssignment,
    PlacementPlan,
    assign_groups,
    emit_constraints,
    parse_constraints,
    randomize_placement,
    valid_kappas,
)


def selections(m, start=0):
    """Site references and frequencies, frequency increasing in ref order."""
    return start + np.arange(m), 400.0 + np.arange(m)


def chip_selections(chip, m):
    """The chip's first m sites and their nominal frequencies."""
    return np.arange(m), chip.nominal_freq[:m]


def assign_groups_reference(pairs, kappa, rng):
    """(lower, upper) lists of (site_ref, freq) pairs, split pair by pair
    after a sort by (frequency, site_ref)."""
    m = len(pairs)
    random_count = round(kappa * m)
    ordered_count = m - random_count
    pairs = sorted(pairs, key=lambda p: (p[1], p[0]))
    lower = pairs[0:ordered_count:2]
    upper = pairs[1:ordered_count:2]
    if random_count:
        rng = np.random.default_rng(rng)
        tail = [pairs[ordered_count + int(i)] for i in rng.permutation(random_count)]
        need_lower = m // 2 - len(lower)
        lower += tail[:need_lower]
        upper += tail[need_lower:]
    return (sorted(lower, key=lambda p: (p[1], p[0])),
            sorted(upper, key=lambda p: (p[1], p[0])))


class TestValidKappas:
    def test_m16(self):
        assert valid_kappas(16) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_m32_includes_published_points(self):
        ks = valid_kappas(32)
        assert ks == [i / 8 for i in range(9)]
        assert 0.375 in ks and 0.5 in ks

    def test_m4(self):
        assert valid_kappas(4) == [0.0, 1.0]

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            valid_kappas(12)
        with pytest.raises(ValueError):
            valid_kappas(2)


class TestAssignGroups:
    def test_kappa_zero_alternates_and_ignores_rng(self):
        sel = selections(8)
        a = assign_groups(*sel, 0.0, np.random.default_rng(1))
        b = assign_groups(*sel, 0.0, np.random.default_rng(999))
        assert np.array_equal(a.refs, b.refs)
        assert a.refs.tolist() == [0, 2, 4, 6, 1, 3, 5, 7]
        assert a.freqs.tolist() == [400.0, 402.0, 404.0, 406.0, 401.0, 403.0, 405.0, 407.0]
        assert a.random_count == 0

    def test_kappa_one_half_membership_probability(self):
        sel = selections(8)
        in_lower = np.zeros(8)
        trials = 10_000
        rng = np.random.default_rng(0)
        for _ in range(trials):
            a = assign_groups(*sel, 1.0, rng)
            in_lower[a.refs[:4]] += 1
        freq = in_lower / trials
        assert np.all(np.abs(freq - 0.5) <= 0.05)

    def test_m32_kappa_0375_counts(self):
        a = assign_groups(*selections(32), 0.375, np.random.default_rng(3))
        assert a.ordered_count == 20
        assert a.random_count == 12

    @pytest.mark.parametrize("kappa", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_balance_at_every_kappa(self, kappa):
        a = assign_groups(*selections(16), kappa, np.random.default_rng(5))
        assert a.m == 16 and np.array_equal(np.sort(a.refs), np.arange(16))
        for group in (slice(0, 8), slice(8, 16)):
            assert np.all(np.diff(a.freqs[group]) > 0)

    def test_off_grid_kappa_rejected(self):
        with pytest.raises(ValueError):
            assign_groups(*selections(16), 0.3, np.random.default_rng(0))

    @settings(max_examples=200, deadline=None)
    @given(freqs=st.lists(st.integers(0, 5), min_size=16, max_size=16),
           kappa=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_groups_match_pairwise_split(self, freqs, kappa, seed):
        # few distinct frequencies, so ties rank by site reference
        refs = np.random.default_rng(seed).permutation(100)[:16]
        freqs = 400.0 + np.array(freqs, dtype=float)
        a = assign_groups(refs, freqs, kappa, seed)
        lower, upper = assign_groups_reference(
            list(zip(refs.tolist(), freqs.tolist())), kappa, seed)
        assert list(zip(a.refs.tolist(), a.freqs.tolist())) == lower + upper

    def test_unbalanced_or_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="groups must be balanced"):
            GroupAssignment(0.0, np.arange(3), np.arange(3.0), 3, 0)
        with pytest.raises(ValueError, match=re.escape("groups share sites [2, 5]")):
            GroupAssignment(0.0, np.array([2, 5, 1, 5, 2, 0]), np.arange(6.0), 6, 0)


class TestRandomizePlacement:
    def test_both_orders_observed_for_smallest_group(self):
        sel = selections(4)
        a = assign_groups(*sel, 0.0, np.random.default_rng(0))
        orders = set()
        for seed in range(16):
            plan = randomize_placement(a, manual_chip(np.linspace(400, 403, 4)).layout, seed)
            orders.add(tuple(plan.refs[:2].tolist()))
        assert len(orders) == 2  # 2 permutations of a 2-member group

    def test_association_preserved(self, small_chip):
        a = assign_groups(*chip_selections(small_chip, 32), 0.5, np.random.default_rng(1))
        plan = randomize_placement(a, small_chip.layout, 77)
        assert np.array_equal(plan.freqs, small_chip.nominal_freq[plan.refs])
        for half in (slice(0, 16), slice(16, 32)):
            assert np.array_equal(np.sort(plan.refs[half]), np.sort(a.refs[half]))

    def test_bijection_onto_selected_sites(self, small_chip):
        a = assign_groups(*chip_selections(small_chip, 16), 0.25, np.random.default_rng(2))
        plan = randomize_placement(a, small_chip.layout, 5)
        mapped = {plan.layout.key(r) for r in plan.refs.tolist()}
        assert mapped == {small_chip.layout.key(i) for i in range(16)}
        with pytest.raises(ValueError, match="bijection"):
            PlacementPlan(a, plan.refs[::-1] + 1, plan.freqs, plan.layout, 5)

    def test_excluded_site_rejected(self):
        chip = synth_chip(toy_spec(central_exclusion=0.2), 11)
        layout = chip.layout
        ref = int(np.flatnonzero(layout.excluded)[0])
        refs = np.array([0, 1, ref, 2])
        a = assign_groups(refs, chip.nominal_freq[refs], 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match=re.escape(
                f"excluded site {layout.key(ref)} cannot carry an oscillator")):
            randomize_placement(a, layout, 3)

    def test_deterministic_for_fixed_seed(self, small_chip):
        a = assign_groups(*chip_selections(small_chip, 16), 0.5, np.random.default_rng(3))
        p1 = randomize_placement(a, small_chip.layout, 123)
        p2 = randomize_placement(a, small_chip.layout, 123)
        assert np.array_equal(p1.refs, p2.refs)
        assert np.array_equal(p1.freqs, p2.freqs)

    def test_frozen_fixture_permutation(self, small_chip):
        # pins the documented seed convention; regenerate if the RNG scheme changes
        a = assign_groups(*chip_selections(small_chip, 8), 0.0, np.random.default_rng(0))
        plan = randomize_placement(a, small_chip.layout, 12345)
        assert plan.refs.tolist() == [4, 7, 2, 6, 0, 3, 1, 5]

    def test_different_seeds_usually_differ(self, small_chip):
        a = assign_groups(*chip_selections(small_chip, 32), 0.5, np.random.default_rng(4))
        maps = {
            tuple(randomize_placement(a, small_chip.layout, s).refs[:16].tolist())
            for s in range(20)
        }
        assert len(maps) == 20


class TestConstraints:
    def _plan(self, chip, m=4, kappa=0.0, seed=42):
        a = assign_groups(*chip_selections(chip, m), kappa, np.random.default_rng(0))
        return randomize_placement(a, chip.layout, seed)

    def test_file_shape(self, small_chip, tmp_path):
        plan = self._plan(small_chip)
        path = tmp_path / "constraints.txt"
        emit_constraints(plan, str(path))
        lines = path.read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert len(body) == 4
        assert any("placement_seed=42" in l for l in lines)
        assert all(l.startswith("set_loc RO") for l in body)
        assert sum("GROUP=LG" in l for l in body) == 2

    def test_reemission_is_byte_identical(self, small_chip, tmp_path):
        plan = self._plan(small_chip, m=8, kappa=0.5)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        emit_constraints(plan, str(p1))
        emit_constraints(plan, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_recovers_site_map(self, small_chip, tmp_path):
        plan = self._plan(small_chip, m=8, kappa=0.5, seed=9)
        path = tmp_path / "c.txt"
        emit_constraints(plan, str(path))
        layout, groups = parse_constraints(str(path))
        assert len(layout) == len(groups) == 8
        for logical, ref in enumerate(plan.refs.tolist()):
            assert layout.key(logical) == plan.layout.key(ref)
            assert layout.class_codes[logical] == plan.layout.class_codes[ref]
            assert groups[logical] == ("LG" if logical < 4 else "UG")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("set_loc RO0 NOWHERE CLASS=L12 GROUP=LG\n")
        with pytest.raises(ValueError):
            parse_constraints(str(path))

    @pytest.mark.parametrize("line", [
        "set_loc RO0 SLICE_X3Y7 CLASS=XX GROUP=LG",
        "set_loc RO0 SLICE_X3Y7 CLASS GROUP=LG",
        "set_loc RO0 SLICE_X3Y7 CLASS=L12 GROUP",
        "set_loc RO0 SLICE_XaY2 CLASS=L12 GROUP=LG",
        "set_loc RO0 SLICE_X1Y2Y3 CLASS=L12 GROUP=LG",
        "set_loc RO0 SLICE_X3Y7 CLASS=L12 GROUP=ZZ",
        "set_loc RO0 SLICE_X3Y7 GROUP=LG CLASS=L12",
        "set_loc RO0 SLICE_X3Y7 CLASS=L12",
        "place RO0 SLICE_X3Y7 CLASS=L12 GROUP=LG",
        "set_loc RO0 NOWHERE CLASS=L12 GROUP=LG",
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\nset_loc RO0 SLICE_X3Y7 CLASS=L3 GROUP=UG\n{line}\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:3: "):
            parse_constraints(str(path))

    @pytest.mark.parametrize("lines,message", [
        (["RO1 SLICE_X3Y7", "RO0 SLICE_X4Y7"], ":2: expected RO0, got 'RO1'"),
        (["RO0 SLICE_X3Y7", "RO0 SLICE_X4Y7"], ":3: expected RO1, got 'RO0'"),
        (["RO0 SLICE_X3Y7", "RO1 SLICE_X4Y7", "RO2 SLICE_X3Y7"],
         ":4: RO2 repeats the site of line 2"),
        (["RO0 SLICE_X3Y7", "foo SLICE_X4Y7"], ":3: expected RO1, got 'foo'"),
    ])
    def test_out_of_order_or_repeated_line_names_file_and_line(self, tmp_path, lines, message):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n" + "".join(
            f"set_loc {line} CLASS=L3 GROUP=UG\n" for line in lines))
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}{message}$"):
            parse_constraints(str(path))

    def test_same_slice_other_row_is_another_site(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("set_loc RO0 SLICE_X3Y7 CLASS=L12 GROUP=LG\n"
                        "set_loc RO1 SLICE_X3Y7 CLASS=M GROUP=UG\n")
        layout, _ = parse_constraints(str(path))
        assert [layout.key(i) for i in range(2)] == [(1, 7, "TR"), (1, 7, "BR")]

    def test_non_utf8_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"# header\nset_loc RO0 SLICE_X\xff3Y7 CLASS=L3 GROUP=UG\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:2: not UTF-8"):
            parse_constraints(str(path))

    def test_well_formed_line_parses(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("set_loc RO0 SLICE_X3Y7 CLASS=L3 GROUP=UG\r\n")
        layout, (group,) = parse_constraints(str(path))
        assert len(layout) == 1
        assert (layout.key(0), CLASS_NAMES[layout.class_codes[0]], group) == (
            (1, 7, "BR"), "L3", "UG")

    @settings(max_examples=200, deadline=None)
    @given(line=st.one_of(
        st.lists(st.one_of(
            st.sampled_from(["set_loc", "RO0", "SLICE_X3Y7", "SLICE_X", "Y", "CLASS=L12",
                             "CLASS=M", "CLASS=", "GROUP=LG", "GROUP=", "=", "#"]),
            st.text(max_size=8),
        ), max_size=7).map(lambda parts: " ".join(parts).encode("utf-8", "surrogatepass")),
        st.binary(max_size=60),
    ))
    def test_any_line_parses_or_names_its_line(self, tmp_path_factory, line):
        path = tmp_path_factory.getbasetemp() / "fuzz_constraints.txt"
        path.write_bytes(line.replace(b"\n", b" ") + b"\n")
        try:
            layout, groups = parse_constraints(str(path))
        except DataError as exc:
            assert str(exc).startswith(f"{path}:1: ")
        else:
            assert len(layout) == len(groups) <= 1
            assert all(group in ("LG", "UG") for group in groups.tolist())
