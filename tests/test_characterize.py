import csv

import numpy as np
import pytest

from conftest import manual_chip
from ropufsim.characterize import (
    FrequencyProfile,
    NoSurvivorsError,
    characterize,
    export_profile_csv,
    profile_stats,
    reject_erroneous,
)
from ropufsim.chipmodel import get_preset, ingest_csv, synth_chip


def export_reference(chip, prof, path):
    """The profile CSV as csv.writer writes it, one row per kept site."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clb_x", "clb_y", "corner", "class", "mhz_1"])
        for ref, mean in zip(prof.site_refs, prof.mean):
            site = chip.sites[int(ref)]
            writer.writerow(
                [site.clb_x, site.clb_y, site.corner, site.slice_class.value, repr(float(mean))]
            )


def profile_from_ratios(ratios, mean=400.0):
    n = len(ratios)
    return FrequencyProfile(
        site_refs=np.arange(n),
        mean=np.full(n, mean),
        sigma=np.asarray(ratios) * mean,
        m=32,
        t_on_us=122.87,
    )


class TestCharacterize:
    def test_noise_free_sigma_below_quantization(self):
        chip = manual_chip([400.123, 412.77, 403.5])
        prof = characterize(chip, m=8, rng=np.random.default_rng(0))
        assert np.all(prof.sigma < 1.0 / prof.t_on_us)

    def test_noise_free_mean_within_quantization(self):
        chip = manual_chip([400.0])
        prof = characterize(chip, m=32, rng=np.random.default_rng(0))
        assert abs(prof.mean[0] - 400.0) <= 1.0 / 122.87

    def test_defaults(self, small_chip):
        prof = characterize(small_chip, rng=np.random.default_rng(0))
        assert prof.m == 32
        assert prof.t_on_us == 122.87

    def test_m_below_two_rejected(self, small_chip):
        with pytest.raises(ValueError):
            characterize(small_chip, m=1, rng=np.random.default_rng(0))

    def test_excluded_sites_not_characterized(self, small_chip):
        prof = characterize(small_chip, rng=np.random.default_rng(0))
        excluded = {i for i, s in enumerate(small_chip.sites) if s.excluded}
        assert excluded.isdisjoint(set(prof.site_refs.tolist()))

    def test_order_stable_by_site_index(self, small_chip):
        prof = characterize(small_chip, rng=np.random.default_rng(0))
        assert np.all(np.diff(prof.site_refs) > 0)


class TestRejectErroneous:
    def test_elementwise_threshold_example(self):
        prof = profile_from_ratios([0.001, 0.003, 0.0015])
        clean = reject_erroneous(prof, threshold=0.002)
        assert clean.kept.site_refs.tolist() == [0, 2]
        assert clean.rejected_count == 1
        assert clean.z_bar == 2

    def test_zero_sigma_keeps_everything(self):
        prof = profile_from_ratios([0.0, 0.0, 0.0])
        clean = reject_erroneous(prof, threshold=1e-9)
        assert clean.rejected_count == 0

    def test_idempotent_with_same_threshold(self):
        prof = profile_from_ratios([0.001, 0.003, 0.0015, 0.0019])
        once = reject_erroneous(prof, threshold=0.002)
        twice = reject_erroneous(once.kept, threshold=0.002)
        assert twice.rejected_count == 0
        assert np.array_equal(once.kept.site_refs, twice.kept.site_refs)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        prof = profile_from_ratios(rng.uniform(0.0, 0.01, 200))
        kept_sets = []
        for th in (0.001, 0.002, 0.004, 0.008):
            kept_sets.append(set(reject_erroneous(prof, threshold=th).kept.site_refs.tolist()))
        for smaller, larger in zip(kept_sets, kept_sets[1:]):
            assert smaller <= larger

    def test_all_rejected_is_explicit_error(self):
        prof = profile_from_ratios([0.5, 0.9])
        with pytest.raises(NoSurvivorsError):
            reject_erroneous(prof, threshold=0.001)

    def test_quantile_mode_discards_requested_fraction(self):
        rng = np.random.default_rng(2)
        prof = profile_from_ratios(rng.uniform(0.001, 0.01, 1000))
        clean = reject_erroneous(prof, mode="quantile", quantile=0.95)
        assert clean.rejected_count == pytest.approx(50, abs=10)

    def test_default_threshold_rejects_at_most_five_percent_on_presets(self):
        chip = synth_chip(get_preset("zybo"), 4)
        prof = characterize(chip, rng=np.random.default_rng(4))
        clean = reject_erroneous(prof)
        assert clean.threshold_used == 0.002
        assert clean.rejected_count / len(prof) <= 0.05
        # the erroneous sites it drops are exactly the inflated-noise ones
        assert clean.rejected_count > 0


class TestProfileStats:
    def test_single_site_spans_zero(self):
        prof = FrequencyProfile(np.array([0]), np.array([400.0]), np.array([0.1]), 32, 122.87)
        stats = profile_stats(prof)
        assert stats["mean_span"] == 0.0
        assert stats["sigma_span"] == 0.0

    def test_hand_computed_span(self):
        prof = FrequencyProfile(
            np.arange(3), np.array([400.0, 410.0, 432.51]), np.zeros(3), 32, 122.87
        )
        assert profile_stats(prof)["mean_span"] == pytest.approx(32.51)

    def test_nexys_preset_reproduces_mean_span(self):
        chip = synth_chip(get_preset("nexys4ddr"), 0)
        prof = characterize(chip, rng=np.random.default_rng(0))
        stats = profile_stats(prof)
        assert stats["mean_span"] == pytest.approx(64.78, rel=0.10)


class TestExportRoundTrip:
    def test_export_then_ingest_preserves_sites_and_means(self, small_chip, tmp_path):
        prof = characterize(small_chip, rng=np.random.default_rng(9))
        path = tmp_path / "profile.csv"
        export_profile_csv(small_chip.layout, prof, str(path))
        back = ingest_csv(str(path))
        assert back.site_count == len(prof)
        np.testing.assert_allclose(back.nominal_freq, prof.mean, rtol=1e-12)
        for ref, site in zip(prof.site_refs, back.sites):
            orig = small_chip.sites[int(ref)]
            assert (site.clb_x, site.clb_y, site.corner) == orig.key
            assert site.slice_class == orig.slice_class

    def test_bytes_equal_csv_writer(self, small_chip, tmp_path):
        prof = characterize(small_chip, rng=np.random.default_rng(9))
        kept = reject_erroneous(prof).kept
        ingested = tmp_path / "ingested.csv"
        ingested.write_text("clb_x,clb_y,corner,mhz_1\n3,1,BR,401.5\n0,0,TL,1e-05\n")
        back = ingest_csv(str(ingested))
        back_prof = characterize(back, rng=np.random.default_rng(1))
        for chip, p in ((small_chip, prof), (small_chip, kept), (back, back_prof)):
            export_profile_csv(chip.layout, p, str(tmp_path / "fast.csv"))
            export_reference(chip, p, str(tmp_path / "ref.csv"))
            assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
