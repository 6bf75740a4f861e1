import tempfile
from decimal import Decimal, getcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from conftest import manual_chip, toy_spec
from ropufsim.characterize import (
    DEFAULT_THRESHOLD,
    PROFILE_HEADER,
    FrequencyProfile,
    NoSurvivorsError,
    _active_row_template,
    characterize,
    export_profile_csv,
    ingest_csv,
    reject_erroneous,
)
from ropufsim.chipmodel import (
    CLASS_NAMES,
    REFERENCE_ENV,
    env_frequencies,
    get_preset,
    noisy_counts,
    synth_chip,
)


def profile_from_ratios(ratios, mean=400.0):
    """Two-sample sites of the given mean whose sigma/mean is each ratio to
    within 1e-6 relative: the moments of counts a + d and a - d over 2500 us."""
    t_on_us = 2500.0
    a = round(mean * t_on_us)
    d = np.rint(np.asarray(ratios) * a / np.sqrt(2.0))
    return FrequencyProfile(np.arange(len(d)), np.full(len(d), 2.0 * a),
                            2.0 * a * a + 2.0 * d * d, 2, t_on_us)


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

    def test_nonpositive_window_rejected(self, small_chip):
        for t_on_us in (0.0, -122.87):
            with pytest.raises(ValueError, match="enable duration must be positive"):
                characterize(small_chip, t_on_us=t_on_us, rng=np.random.default_rng(0))

    def test_excluded_sites_not_characterized(self, small_chip):
        prof = characterize(small_chip, rng=np.random.default_rng(0))
        excluded = set(np.flatnonzero(small_chip.layout.excluded).tolist())
        assert excluded.isdisjoint(set(prof.site_refs.tolist()))

    def test_order_stable_by_site_index(self, small_chip):
        prof = characterize(small_chip, rng=np.random.default_rng(0))
        assert np.all(np.diff(prof.site_refs) > 0)

    def test_two_draws_per_site_normals_first(self, small_chip):
        # z ~ N(0, 1) for every site, then q ~ chi2(m - 1), and nothing else
        m, rng = 5, np.random.default_rng(3)
        prof = characterize(small_chip, m=m, rng=rng)
        n = len(prof)
        ref = np.random.default_rng(3)
        z, q = ref.standard_normal(n), ref.chisquare(m - 1, n)
        assert rng.bit_generator.state == ref.bit_generator.state
        mu = small_chip.nominal_freq[prof.site_refs] * prof.t_on_us
        dev = small_chip.meas_sigma_site[prof.site_refs] * prof.t_on_us
        assert np.array_equal(prof.sum_count, np.rint(m * mu + np.sqrt(m) * dev * z))
        # S2 is the least integer with m * S2 >= S1^2 + m (m - 1) s^2
        excess = m * prof.sum_count_sq - prof.sum_count**2 - m * dev**2 * q
        assert np.all((excess > -1e-6) & (excess < m))

    def test_noise_free_sites_count_each_sample_alike(self):
        # S1 = m rint(f t) and S2 = m rint(f t)^2, alone and beside noisy sites
        freqs = [400.123, 412.77, 403.5, 0.001]
        for noisy, rng in ((False, None), (True, np.random.default_rng(0))):
            chip = manual_chip(freqs)
            if noisy:
                chip.meas_sigma_site[::2] = 0.3
            prof = characterize(chip, m=7, rng=rng)
            quiet = chip.meas_sigma_site == 0
            count = np.rint(np.array(freqs) * 122.87)[quiet]
            assert prof.sum_count[quiet].tolist() == (7 * count).tolist()
            assert prof.sum_count_sq[quiet].tolist() == (7 * count**2).tolist()
            assert not prof.sigma[quiet].any()
        assert count.tolist() == [50717.0, 0.0]

    def test_noise_needs_a_generator_unless_noise_free(self, small_chip):
        with pytest.raises(ValueError, match="rng required"):
            characterize(small_chip)
        prof = characterize(manual_chip([400.0, 410.0]), m=3)
        assert prof.sigma.tolist() == [0.0, 0.0]

    def test_inexact_moments_name_t_on_us_and_samples(self):
        # 4e9 counts square beyond 2^53
        with pytest.raises(ValueError, match=r"t_on_us=10000000\.0 with samples=2 "):
            characterize(manual_chip([400.0]), m=2, t_on_us=1e7)
        # the largest window below the limit still works
        prof = characterize(manual_chip([400.0]), m=2, t_on_us=1e5)
        assert prof.sum_count.tolist() == [8e7]


def float_formula(chip, m, t_on_us, seed):
    """The per-sample reference model: m noisy counts per site, each
    rounded, then the mean and std(ddof=1) of counts / t_on_us."""
    idx = chip.layout.active
    sigma = chip.meas_sigma_site[idx, None]
    freqs = env_frequencies(chip, [REFERENCE_ENV], idx)[0][:, None]
    noise = np.random.default_rng(seed).standard_normal((len(idx), m))
    mhz = noisy_counts(freqs, t_on_us, noise, sigma).astype(np.int64) / t_on_us
    return mhz.mean(axis=1), mhz.std(axis=1, ddof=1)


def exact_stats(s1, s2, m, t_on_us):
    """Mean and sigma of one site's count moments in 60-digit decimals."""
    getcontext().prec = 60
    t = Decimal(t_on_us)
    var = Decimal(m * s2 - s1 * s1) / Decimal(m * (m - 1))
    return Decimal(s1) / (m * t), var.sqrt() / t


@pytest.fixture(scope="module")
def basys3_stats():
    """Standardized means (mean - f) / (sigma / sqrt(m)) and sigma ratios
    sigma_hat / sigma of 20 basys3 chips (112,640 sites), from characterize
    and from the per-sample reference model at other seeds."""
    m, t_on_us = 32, 122.87
    drawn, sampled = [], []
    for seed in range(20):
        chip = synth_chip(get_preset("basys3"), seed)
        f = chip.nominal_freq[chip.layout.active]
        sigma = chip.meas_sigma_site[chip.layout.active]
        prof = characterize(chip, m=m, t_on_us=t_on_us, rng=np.random.default_rng(seed))
        for out, (mean, sd) in ((drawn, (prof.mean, prof.sigma)),
                                (sampled, float_formula(chip, m, t_on_us, 1000 + seed))):
            out.append(np.stack([(mean - f) / (sigma / np.sqrt(m)), sd / sigma]))
    return np.concatenate(drawn, axis=1), np.concatenate(sampled, axis=1)


class TestCountMoments:
    def test_standardized_means_match_per_sample_model(self, basys3_stats):
        drawn, sampled = basys3_stats
        assert drawn.shape == (2, 112_640)
        assert ks_2samp(drawn[0], sampled[0]).pvalue > 0.01
        assert abs(drawn[0].std() - 1.0) < 0.01

    def test_sigma_ratios_match_per_sample_model(self, basys3_stats):
        drawn, sampled = basys3_stats
        assert ks_2samp(drawn[1], sampled[1]).pvalue > 0.01
        # E[s / sigma] = c4(32) = 0.99197...
        assert drawn[1].mean() == pytest.approx(0.99197, abs=0.002)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 64),
        t_on_us=st.floats(0.05, 2000.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_within_two_ulp_of_exact(self, m, t_on_us, seed):
        # both quotients and the root round once each
        chip = manual_chip([400.0, 401.3, 398.7, 455.5], meas_sigma=0.4)
        chip.meas_sigma_site[1] = 0.0
        prof = characterize(chip, m=m, t_on_us=t_on_us, rng=np.random.default_rng(seed))
        for s1, s2, mean, sigma in zip(prof.sum_count.tolist(), prof.sum_count_sq.tolist(),
                                       prof.mean, prof.sigma):
            exact_mean, exact_sigma = exact_stats(int(s1), int(s2), m, t_on_us)
            assert abs(Decimal(float(mean)) - exact_mean) <= 2 * Decimal(np.spacing(mean))
            assert abs(Decimal(float(sigma)) - exact_sigma) <= 3 * Decimal(np.spacing(sigma))

    def test_profile_rejects_impossible_moments(self):
        with pytest.raises(ValueError, match="m \\* sum_count_sq >= sum_count"):
            FrequencyProfile(np.arange(1), np.array([10.0]), np.array([49.0]), 2, 1.0)
        with pytest.raises(ValueError, match="equal lengths"):
            FrequencyProfile(np.arange(2), np.array([10.0]), np.array([50.0]), 2, 1.0)


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

    def test_default_threshold_rejects_at_most_five_percent_on_presets(self):
        chip = synth_chip(get_preset("zybo"), 4)
        prof = characterize(chip, rng=np.random.default_rng(4))
        clean = reject_erroneous(prof)
        assert clean.rejected_count / len(prof) <= 0.05
        # the erroneous sites it drops are exactly the inflated-noise ones
        assert clean.rejected_count > 0


class TestProfileStats:
    """Span statistics of a characterization, computed as ``ropuf ingest``
    prints them."""

    def test_nexys_preset_reproduces_mean_span(self):
        chip = synth_chip(get_preset("nexys4ddr"), 0)
        mean = characterize(chip, rng=np.random.default_rng(0)).mean
        assert mean.max() - mean.min() == pytest.approx(64.78, rel=0.10)


def profile_bytes_reference(layout, prof) -> bytes:
    """The row-by-row f-string writer the row template replaced, kept as
    its reference."""
    rows = [f"# t_on_us={float(prof.t_on_us)!r}", f"# samples={prof.m}", PROFILE_HEADER]
    rows += [
        "{},{},{},{},{},{}".format(*layout.key(ref), CLASS_NAMES[layout.class_codes[ref]], s1, s2)
        for ref, s1, s2 in zip(
            prof.site_refs.tolist(),
            prof.sum_count.astype(np.int64).tolist(),
            prof.sum_count_sq.astype(np.int64).tolist(),
        )
    ]
    return ("\n".join(rows) + "\n").encode()


class TestExportRoundTrip:
    def test_bytes_equal_row_by_row_writer(self, tmp_path):
        chip = synth_chip(toy_spec(central_exclusion=0.2), device_seed=11)
        layout = chip.layout
        prof = characterize(chip, rng=np.random.default_rng(9))
        assert np.array_equal(prof.site_refs, layout.active)
        assert layout.active.size < len(layout)  # the fabric has excluded sites
        order = np.random.default_rng(4).permutation(len(prof))
        subset = prof.subset(order[: len(prof) // 3])  # an ingested-style subset
        path = tmp_path / "profile.csv"
        _active_row_template.cache_clear()
        for p in (prof, subset, prof, subset):
            export_profile_csv(layout, p, str(path))
            assert path.read_bytes() == profile_bytes_reference(layout, p)
        info = _active_row_template.cache_info()
        assert (info.misses, info.hits) == (1, 1)  # built once, then reused
        # the layout keeps its arrays alone: no label or template lives on it
        assert all(isinstance(v, np.ndarray) for v in vars(layout).values())

    def test_export_then_ingest_preserves_sites_and_means(self, small_chip, tmp_path):
        prof = characterize(small_chip, rng=np.random.default_rng(9))
        path = tmp_path / "profile.csv"
        export_profile_csv(small_chip.layout, prof, str(path))
        back = ingest_csv(str(path))
        assert back.site_count == len(prof)
        np.testing.assert_allclose(back.nominal_freq, prof.mean, rtol=1e-12)
        layout = small_chip.layout
        for i, ref in enumerate(prof.site_refs.tolist()):
            assert back.layout.key(i) == layout.key(ref)
            assert back.layout.class_codes[i] == layout.class_codes[ref]

    def test_schema_header_and_integer_rows(self, small_chip, tmp_path):
        prof = characterize(small_chip, m=7, t_on_us=0.1 + 0.2, rng=np.random.default_rng(9))
        path = tmp_path / "profile.csv"
        export_profile_csv(small_chip.layout, prof, str(path))
        lines = path.read_text().split("\n")
        assert lines[:3] == ["# t_on_us=0.30000000000000004", "# samples=7",
                             "clb_x,clb_y,corner,class,sum_count,sum_count_sq"]
        x, y, corner = small_chip.layout.key(int(prof.site_refs[0]))
        cls = CLASS_NAMES[small_chip.layout.class_codes[prof.site_refs[0]]]
        assert lines[3] == (f"{x},{y},{corner},{cls},"
                            f"{int(prof.sum_count[0])},{int(prof.sum_count_sq[0])}")
        assert len(lines) == 3 + len(prof) + 1 and lines[-1] == ""

    @settings(max_examples=80, deadline=None)
    @given(
        freqs=st.lists(st.floats(300.0, 500.0), min_size=1, max_size=10),
        sigma_khz=st.lists(st.sampled_from([0.0, 0.0, 30.0, 250.0, 2000.0]),
                           min_size=10, max_size=10),
        m=st.integers(2, 40),
        t_on_us=st.one_of(st.just(122.87), st.just(0.3), st.floats(0.05, 2000.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    # two samples, zero-sigma and rejected sites, an inexact window
    @example(freqs=[400.0, 401.0, 402.0], sigma_khz=[0.0, 2000.0, 30.0] + [0.0] * 7,
             m=2, t_on_us=37.3, seed=1)
    def test_reingest_is_exact(self, freqs, sigma_khz, m, t_on_us, seed):
        # characterize -> export_profile_csv -> ingest_csv gives == means and
        # sigmas, so the default threshold keeps the same sites
        chip = manual_chip(freqs)
        chip.meas_sigma_site[:] = np.array(sigma_khz[: len(freqs)]) * 1e-3
        prof = characterize(chip, m=m, t_on_us=t_on_us, rng=np.random.default_rng(seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "profile.csv")
            export_profile_csv(chip.layout, prof, path)
            back = ingest_csv(path)
        assert np.array_equal(back.nominal_freq, prof.mean)
        assert np.array_equal(back.meas_sigma_site, prof.sigma)
        assert ([back.layout.key(i) for i in range(len(back.layout))]
                == [chip.layout.key(r) for r in prof.site_refs.tolist()])
        back_kept = prof.site_refs[back.meas_sigma_site / back.nominal_freq <= DEFAULT_THRESHOLD]
        try:
            kept = reject_erroneous(prof).kept.site_refs
        except NoSurvivorsError:
            kept = prof.site_refs[:0]
        assert np.array_equal(back_kept, kept)
