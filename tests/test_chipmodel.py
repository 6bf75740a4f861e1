import numpy as np
import pytest

from conftest import manual_chip, toy_spec
from ropufsim.chipmodel import (
    PRESETS,
    REFERENCE_ENV,
    ConfigError,
    DataError,
    DeviceSpec,
    EnvCondition,
    SliceClass,
    build_fabric,
    classify_corner,
    env_frequencies,
    get_preset,
    ingest_csv,
    load_device_spec,
    measure_counts,
    synth_chip,
)


class TestFabric:
    def test_corner_class_mapping_total(self):
        assert classify_corner("TL", False) is SliceClass.L12
        assert classify_corner("TR", True) is SliceClass.L12
        assert classify_corner("BL", False) is SliceClass.L3
        assert classify_corner("BR", True) is SliceClass.M
        with pytest.raises(ValueError):
            classify_corner("XX", False)

    def test_sites_unique_and_counted(self, small_spec):
        sites = build_fabric(small_spec)
        assert len(sites) == small_spec.site_count
        assert len({s.key for s in sites}) == len(sites)

    def test_central_region_excluded(self):
        spec = toy_spec(site_count=40_000, central_exclusion=0.10)
        sites = build_fabric(spec)
        frac = sum(s.excluded for s in sites) / len(sites)
        # a 0.1 half-width box covers ~4% of the area
        assert 0.01 < frac < 0.10


class TestSynth:
    def test_determinism_bit_identical(self, small_spec):
        a = synth_chip(small_spec, 5)
        b = synth_chip(small_spec, 5)
        assert np.array_equal(a.nominal_freq, b.nominal_freq)
        assert np.array_equal(a.temp_coeff, b.temp_coeff)
        assert np.array_equal(a.volt_coeff, b.volt_coeff)
        assert np.array_equal(a.meas_sigma_site, b.meas_sigma_site)
        assert a.sites == b.sites

    def test_distinct_seeds_differ_random_share_structure(self, small_spec):
        a = synth_chip(small_spec, 1)
        b = synth_chip(small_spec, 2)
        assert not np.array_equal(a.nominal_freq, b.nominal_freq)
        assert a.sites == b.sites  # same fabric and class structure

    def test_degenerate_no_variation(self):
        spec = toy_spec(mean_span=0.0, sigma_span=0.0, systematic_gradient=0.0,
                        class_bias={}, meas_sigma=0.0, erroneous_fraction=0.0)
        chip = synth_chip(spec, 3)
        assert np.allclose(chip.nominal_freq, spec.mean_freq_base)

    def test_basys3_class_means(self):
        # class-conditional means near 418.10 (L12) and 402.3 (M), ordered
        chip = synth_chip(get_preset("basys3"), 0)
        means = {}
        for cls in SliceClass:
            idx = [i for i, s in enumerate(chip.sites) if s.slice_class is cls]
            means[cls] = float(chip.nominal_freq[idx].mean())
        assert means[SliceClass.L12] > means[SliceClass.L3] > means[SliceClass.M]
        assert means[SliceClass.L12] == pytest.approx(418.10, abs=1.0)
        assert means[SliceClass.M] == pytest.approx(402.3, abs=1.0)

    def test_class_ordering_every_seed(self):
        spec = get_preset("basys3")
        for seed in range(10):
            chip = synth_chip(spec, seed)
            means = {}
            for cls in SliceClass:
                idx = [i for i, s in enumerate(chip.sites) if s.slice_class is cls]
                means[cls] = float(chip.nominal_freq[idx].mean())
            assert means[SliceClass.L12] > means[SliceClass.L3] > means[SliceClass.M]

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_population_span_calibration(self, name):
        spec = get_preset(name)
        spans = [
            float(np.ptp(synth_chip(spec, seed).nominal_freq)) for seed in range(20)
        ]
        assert np.mean(spans) == pytest.approx(spec.mean_span, rel=0.10)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            DeviceSpec(kind="x", site_count=0, mean_freq_base=1.0,
                       mean_span=1.0, sigma_span=1.0).validate()
        with pytest.raises(ConfigError):
            toy_spec(meas_sigma=-1.0).validate()


class TestEnvFrequency:
    def test_reference_returns_nominal_exactly(self):
        chip = manual_chip([400.0, 410.0], temp_coeff=-1e-4, volt_coeff=0.5)
        f = env_frequencies(chip, [EnvCondition(35.0, 1000.0), EnvCondition(75.0, 1000.0)])
        assert f[0].tolist() == [400.0, 410.0]

    def test_hand_computed_temperature_point(self):
        chip = manual_chip([400.0], temp_coeff=-1e-4, volt_coeff=0.5)
        # 400 * (1 - 1e-4 * 40) = 398.4
        f = env_frequencies(chip, [EnvCondition(75.0, 1000.0)])
        assert f[0, 0] == pytest.approx(398.4, abs=1e-9)

    def test_hand_computed_voltage_point(self):
        chip = manual_chip([400.0], temp_coeff=-1e-4, volt_coeff=0.5)
        # 400 * (1 + 0.5 * 0.1) = 420
        f = env_frequencies(chip, [EnvCondition(35.0, 1100.0)])
        assert f[0, 0] == pytest.approx(420.0, abs=1e-9)

    def test_monotonic_in_temperature_and_voltage(self):
        chip = manual_chip([400.0, 380.0], temp_coeff=-1e-4, volt_coeff=0.5)
        temps = env_frequencies(chip, [EnvCondition(t, 1000.0) for t in range(-5, 76, 10)])
        assert np.all(np.diff(temps, axis=0) < 0)
        volts = env_frequencies(chip, [EnvCondition(35.0, v) for v in range(900, 1101, 20)])
        assert np.all(np.diff(volts, axis=0) > 0)

    def test_ingested_chip_rejects_env_sweep(self):
        chip = manual_chip([400.0])
        assert env_frequencies(chip, [REFERENCE_ENV] * 2).tolist() == [[400.0], [400.0]]
        with pytest.raises(ValueError):
            env_frequencies(chip, [REFERENCE_ENV, EnvCondition(45.0, 1000.0)])

    def test_chosen_sites_equal_all_site_columns(self, small_chip):
        # each entry is computed alone, so scaling only the chosen sites
        # gives exactly the columns of the all-site matrix
        envs = [REFERENCE_ENV, EnvCondition(-5.0, 1000.0), EnvCondition(35.0, 920.0),
                EnvCondition(62.5, 1075.0)]
        sites = np.array([7, 3, 3, 399, 0])
        every = env_frequencies(small_chip, envs)
        assert every.shape == (len(envs), small_chip.site_count)
        assert np.array_equal(env_frequencies(small_chip, envs, sites), every[:, sites])
        assert np.array_equal(every[0], small_chip.nominal_freq)


class TestMeasureCount:
    def test_exact_noise_free_count(self):
        counts = measure_counts(np.array([400.0, 410.0]), 122.87, None, 0.0)
        assert counts.dtype == np.int64
        assert counts.tolist() == [49148, 50377]

    def test_tiny_frequency_rounds_to_zero(self):
        assert measure_counts(np.array([0.001]), 122.87, None, 0.0).tolist() == [0]

    def test_inverse_recovers_within_quantization(self):
        alpha = measure_counts(np.array([400.0]), 122.87, None, 0.0)[0]
        assert abs(alpha / 122.87 - 400.0) <= 1.0 / 122.87  # ~8.14 kHz

    def test_noise_requires_rng(self):
        freqs = np.full(50, 400.0)
        with pytest.raises(ValueError):
            measure_counts(freqs, 122.87, None, 0.1)
        sigma = np.zeros(50)
        sigma[::2] = 0.5
        counts = measure_counts(freqs, 122.87, np.random.default_rng(0), sigma)
        assert len(set(counts[::2].tolist())) > 1
        assert counts[1::2].tolist() == [49148] * 25  # noise-free entries stay exact

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            measure_counts(np.array([400.0, -1.0]), 122.87, None, 0.0)
        with pytest.raises(ValueError):
            measure_counts(np.array([0.0]), 122.87, None, 0.0)
        with pytest.raises(ValueError):
            measure_counts(np.array([400.0]), 0.0, None, 0.0)


class TestIngest:
    def _write(self, tmp_path, text):
        p = tmp_path / "chip.csv"
        p.write_text(text)
        return str(p)

    def test_two_row_constant_samples(self, tmp_path):
        path = self._write(
            tmp_path,
            "clb_x,clb_y,corner,mhz_1,mhz_2\n"
            "0,0,TL,400.0,400.0\n"
            "1,0,BR,410.0,410.0\n",
        )
        chip = ingest_csv(path)
        assert chip.site_count == 2
        assert np.allclose(chip.nominal_freq, [400.0, 410.0])
        assert chip.temp_coeff is None and chip.volt_coeff is None

    def test_missing_corner_column_named(self, tmp_path):
        path = self._write(tmp_path, "clb_x,clb_y,mhz_1\n0,0,400.0\n")
        with pytest.raises(DataError, match="corner"):
            ingest_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = self._write(
            tmp_path,
            "clb_x,clb_y,corner,mhz_1\n0,0,TL,400.0\n1,0,QQ,410.0\n",
        )
        with pytest.raises(DataError, match=":3"):
            ingest_csv(path)

    def test_duplicate_site_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            "clb_x,clb_y,corner,mhz_1\n0,0,TL,400.0\n0,0,TL,401.0\n",
        )
        with pytest.raises(DataError, match="duplicate"):
            ingest_csv(path)

    def test_sample_sigma_matches_reference_std(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = rng.normal(400.0, 0.5, 32)
        row = ",".join(repr(float(s)) for s in samples)
        header = ",".join(f"mhz_{i+1}" for i in range(32))
        path = self._write(tmp_path, f"clb_x,clb_y,corner,{header}\n0,0,TL,{row}\n")
        chip = ingest_csv(path)
        assert chip.nominal_freq[0] == pytest.approx(samples.mean(), rel=1e-12)
        assert chip.meas_sigma_site[0] == pytest.approx(np.std(samples, ddof=1), rel=1e-12)

    def test_count_mode_uses_declared_t_on(self, tmp_path):
        path = self._write(
            tmp_path,
            "# t_on_us=122.87\nclb_x,clb_y,corner,count_1\n0,0,TL,49148\n",
        )
        chip = ingest_csv(path)
        assert chip.nominal_freq[0] == pytest.approx(49148 / 122.87, rel=1e-12)


class TestSpecConfigFile:
    def test_load_preset_with_override(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text('{"preset": "zybo", "site_count": 128}')
        spec = load_device_spec(str(p))
        assert spec.kind == "zybo"
        assert spec.site_count == 128

    def test_unknown_preset(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text('{"preset": "nope"}')
        with pytest.raises(ConfigError):
            load_device_spec(str(p))
