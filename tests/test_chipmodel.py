import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import manual_chip, toy_spec
from ropufsim.characterize import _row_template, ingest_csv
from ropufsim.chipmodel import (
    CLASS_NAMES,
    CORNERS,
    PRESETS,
    REFERENCE_ENV,
    ConfigError,
    DataError,
    DeviceSpec,
    EnvCondition,
    FabricLayout,
    SliceClass,
    build_fabric,
    corner_classes,
    env_frequencies,
    get_preset,
    load_device_spec,
    noisy_counts,
    synth_chip,
)


def classify_corner_reference(corner: str, clb_has_m_bottom: bool) -> str:
    """The scalar corner -> class rule the array one replaced."""
    if corner in ("TL", "TR"):
        return "L12"
    return "M" if clb_has_m_bottom else "L3"


def fabric_reference(site_count: int, central_exclusion: float) -> list[tuple]:
    """The per-site loop the array fabric replaced, kept as its reference:
    (clb_x, clb_y, corner, class, excluded) of each site."""
    n_clb = (site_count + 3) // 4
    nx = int(math.ceil(math.sqrt(n_clb)))
    ny = int(math.ceil(n_clb / nx))
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    half_w, half_h = central_exclusion * nx, central_exclusion * ny
    sites: list[tuple] = []
    for y in range(ny):
        for x in range(nx):
            if len(sites) >= site_count:
                break
            has_m = x % 2 == 1
            excluded = abs(x - cx) < half_w and abs(y - cy) < half_h
            for corner in CORNERS:
                if len(sites) >= site_count:
                    break
                sites.append((x, y, corner, classify_corner_reference(corner, has_m), excluded))
    return sites


class TestFabric:
    def test_corner_class_mapping_total(self):
        def cls(corner, clb_x):
            return CLASS_NAMES[corner_classes(np.array([CORNERS.index(corner)]),
                                              np.array([clb_x]))[0]]
        assert cls("TL", 0) == SliceClass.L12.value
        assert cls("TR", 1) == SliceClass.L12.value
        assert cls("BL", 0) == SliceClass.L3.value
        assert cls("BR", 1) == SliceClass.M.value
        with pytest.raises(ValueError, match="corner codes must index"):
            FabricLayout([0], [0], [len(CORNERS)])
        with pytest.raises(ValueError, match="class codes must index"):
            FabricLayout([0], [0], [0], [-1])

    def test_sites_unique_and_counted(self, small_spec):
        layout = build_fabric(small_spec)
        assert len(layout) == small_spec.site_count
        assert len({layout.key(i) for i in range(len(layout))}) == len(layout)

    def test_central_region_excluded(self):
        spec = toy_spec(site_count=40_000, central_exclusion=0.10)
        layout = build_fabric(spec)
        frac = layout.excluded.sum() / len(layout)
        # a 0.1 half-width box covers ~4% of the area
        assert 0.01 < frac < 0.10

    @pytest.mark.parametrize("site_count,central_exclusion", [
        (1, 0.0), (2, 0.05), (3, 0.49), (5, 0.1), (7, 0.0), (13, 0.49), (59, 0.05),
        (401, 0.1), (5695, 0.05), (40_000, 0.0), (40_000, 0.1),
    ])
    def test_arrays_match_reference_loop(self, site_count, central_exclusion):
        layout = build_fabric(toy_spec(site_count=site_count,
                                       central_exclusion=central_exclusion))
        ref = fabric_reference(site_count, central_exclusion)
        x, y, corner, cls, excluded = (list(col) for col in zip(*ref))
        assert layout.clb_x.tolist() == x
        assert layout.clb_y.tolist() == y
        assert [CORNERS[c] for c in layout.corner.tolist()] == corner
        assert [CLASS_NAMES[c] for c in layout.class_codes.tolist()] == cls
        assert layout.excluded.tolist() == excluded
        assert layout.active.tolist() == [i for i, e in enumerate(excluded) if not e]
        assert layout.diag.tolist() == [float(a + b) for a, b in zip(x, y)]
        # each site's profile row fields, from characterize's row template
        assert _row_template(layout, np.arange(len(layout))) == "".join(
            f"{a},{b},{c},{k},%d,%d\n" for a, b, c, k, _ in ref).encode()
        for name in ("clb_x", "clb_y", "corner", "class_codes", "excluded", "active", "diag"):
            assert not getattr(layout, name).flags.writeable


class TestSynth:
    def test_determinism_bit_identical(self, small_spec):
        a = synth_chip(small_spec, 5)
        b = synth_chip(small_spec, 5)
        assert np.array_equal(a.nominal_freq, b.nominal_freq)
        assert np.array_equal(a.temp_coeff, b.temp_coeff)
        assert np.array_equal(a.volt_coeff, b.volt_coeff)
        assert np.array_equal(a.meas_sigma_site, b.meas_sigma_site)
        assert a.layout is b.layout

    def test_distinct_seeds_differ_random_share_structure(self, small_spec):
        a = synth_chip(small_spec, 1)
        b = synth_chip(small_spec, 2)
        assert not np.array_equal(a.nominal_freq, b.nominal_freq)
        assert a.layout is b.layout  # same fabric and class structure

    def test_degenerate_no_variation(self):
        spec = toy_spec(mean_span=0.0, sigma_span=0.0, systematic_gradient=0.0,
                        class_bias={}, meas_sigma=0.0, erroneous_fraction=0.0)
        chip = synth_chip(spec, 3)
        assert np.allclose(chip.nominal_freq, spec.mean_freq_base)

    def test_basys3_class_means(self):
        # class-conditional means near 418.10 (L12) and 402.3 (M), ordered
        chip = synth_chip(get_preset("basys3"), 0)
        means = {}
        for code, cls in enumerate(SliceClass):
            idx = chip.layout.class_codes == code
            means[cls] = float(chip.nominal_freq[idx].mean())
        assert means[SliceClass.L12] > means[SliceClass.L3] > means[SliceClass.M]
        assert means[SliceClass.L12] == pytest.approx(418.10, abs=1.0)
        assert means[SliceClass.M] == pytest.approx(402.3, abs=1.0)

    def test_class_ordering_every_seed(self):
        spec = get_preset("basys3")
        for seed in range(10):
            chip = synth_chip(spec, seed)
            means = {}
            for code, cls in enumerate(SliceClass):
                idx = chip.layout.class_codes == code
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
        # the kind heads every responses.csv line as <kind>_<index>, so an
        # empty kind, a comma or whitespace would not read back
        for kind in ("", "a,b", "a\nb", " zybo", "zy bo", "zybo\t"):
            with pytest.raises(ConfigError, match=rf"^kind must be .*, got {re.escape(repr(kind))}$"):
                toy_spec(kind=kind).validate()


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
    """The count model ``noisy_counts``, on standard-normal noise drawn by
    its caller."""

    def test_exact_noise_free_count(self):
        noise = np.zeros(2)
        counts = noisy_counts(np.array([400.0, 410.0]), 122.87, noise, 0.0)
        assert counts is noise  # computed in place on the drawn noise
        assert counts.tolist() == [49148, 50377]

    def test_tiny_frequency_rounds_to_zero(self):
        assert noisy_counts(np.array([0.001]), 122.87, np.zeros(1), 0.0).tolist() == [0]
        # noise below zero saturates rather than counting negative pulses
        assert noisy_counts(np.array([0.01]), 122.87, np.array([-5.0]), 1.0).tolist() == [0]

    def test_inverse_recovers_within_quantization(self):
        alpha = noisy_counts(np.array([400.0]), 122.87, np.zeros(1), 0.0)[0]
        assert abs(alpha / 122.87 - 400.0) <= 1.0 / 122.87  # ~8.14 kHz

    def test_noise_free_entries_stay_exact(self):
        freqs = np.full(50, 400.0)
        sigma = np.zeros(50)
        sigma[::2] = 0.5
        noise = np.random.default_rng(0).standard_normal(50)
        counts = noisy_counts(freqs, 122.87, noise, sigma)
        assert len(set(counts[::2].tolist())) > 1
        assert counts[1::2].tolist() == [49148] * 25  # noise-free entries stay exact

    def test_noise_scale(self):
        # the noise is added in MHz before counting, so a count's deviation
        # is sigma * t_on_us pulses
        sigma = np.array([[0.5], [2.0]])
        noise = np.random.default_rng(1).standard_normal((2, 20_000))
        counts = noisy_counts(np.array([[400.0], [400.0]]), 122.87, noise, sigma)
        assert counts.std(axis=1, ddof=1) == pytest.approx(sigma[:, 0] * 122.87, rel=0.03)
        assert counts.mean(axis=1) == pytest.approx([49148, 49148], abs=5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            noisy_counts(np.array([400.0, -1.0]), 122.87, np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            noisy_counts(np.array([0.0]), 122.87, np.zeros(1), 0.0)
        with pytest.raises(ValueError):
            noisy_counts(np.array([400.0]), 0.0, np.zeros(1), 0.0)


MHZ_HEAD = "clb_x,clb_y,corner,mhz_1\n0,0,TL,400.0"
COUNT_HEAD = "clb_x,clb_y,corner,count_1,count_2\n0,0,TL,49148,49148"
MOMENT_HEAD = ("# samples=2\n# t_on_us=1.5\n"
               "clb_x,clb_y,corner,sum_count,sum_count_sq\n0,0,TL,300,45000")


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

    @pytest.mark.parametrize("row", [f"{2**63},0,TL,400.0", f"0,{-(2**63)},TL,400.0"])
    def test_coordinate_beyond_64_bits_names_line(self, tmp_path, row):
        path = self._write(tmp_path, f"clb_x,clb_y,corner,mhz_1\n0,0,TL,400.0\n{row}\n")
        with pytest.raises(DataError, match=r"chip\.csv:3: malformed row \(CLB coordinates "
                                            r"must lie within \+-\(2\*\*63 - 1\), got \("):
            ingest_csv(path)
        path = self._write(tmp_path, f"clb_x,clb_y,corner,mhz_1\n{1 - 2**63},{2**63 - 1},BR,4\n")
        assert ingest_csv(path).layout.key(0) == (1 - 2**63, 2**63 - 1, "BR")

    @pytest.mark.parametrize("row,message", [
        ("1,0,TL,-3.0,400.0", r"mhz samples must be finite and positive, got \[-3\.0, 400\.0\]"),
        ("1,0,TL,0.0,400.0", r"mhz samples must be finite and positive"),
        ("1,0,TL,400.0,nan", r"mhz samples must be finite and positive, got \[400\.0, nan\]"),
        ("1,0,TL,inf,400.0", r"mhz samples must be finite and positive, got \[inf, 400\.0\]"),
        ("1,0,TL,1e400,400.0", r"mhz samples must be finite and positive"),
        ("1,0,TL,400.0,401.0,999", r"6 fields but the header has 5"),
        ("1,0,TL,400.0", r"4 fields but the header has 5"),
    ])
    def test_bad_mhz_sample_names_line(self, tmp_path, row, message):
        path = self._write(tmp_path,
                           f"clb_x,clb_y,corner,mhz_1,mhz_2\n0,0,TL,400.0,401.0\n{row}\n")
        with pytest.raises(DataError, match=rf"chip\.csv:3: malformed row \({message}"):
            ingest_csv(path)

    def test_unknown_class_names_line(self, tmp_path):
        path = self._write(tmp_path, "clb_x,clb_y,corner,class,mhz_1\n"
                                     "0,0,TL,L12,400.0\n1,0,TL,L,410.0\n")
        with pytest.raises(DataError,
                           match=r"chip\.csv:3: malformed row \('L' is not a valid SliceClass"):
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

    @settings(max_examples=300, deadline=None)
    @given(
        head=st.sampled_from([
            b"clb_x,clb_y,corner,mhz_1,mhz_2\n",
            b"clb_x,clb_y,corner,class,mhz_1\n",
            b"# t_on_us=122.87\nclb_x,clb_y,corner,count_1,count_2\n",
            b"# t_on_us=122.87\n# samples=4\nclb_x,clb_y,corner,sum_count,sum_count_sq\n",
        ]),
        body=st.one_of(
            st.lists(st.one_of(
                st.sampled_from(["0", "1", "-3", "400.0", "49148", "1e400", "nan", "inf",
                                 "TL", "BR", "QQ", "L12", "M", "", " ", '"', "#"]),
                st.text(max_size=6),
            ), min_size=1, max_size=7).map(
                lambda parts: ",".join(parts).encode("utf-8", "surrogatepass")),
            st.binary(min_size=1, max_size=60),
        ),
    )
    def test_any_row_parses_or_names_its_line(self, tmp_path_factory, head, body):
        path = tmp_path_factory.getbasetemp() / "fuzz_ingest.csv"
        body = body.replace(b"\n", b" ").replace(b"\r", b" ")
        path.write_bytes(head + body + b"\n")
        # an empty line is no row, so the file has no data rows at all
        lineno = head.count(b"\n") + 1
        where = f"{path}:{lineno}: " if body else f"{path}: no data rows"
        try:
            chip = ingest_csv(str(path))
        except DataError as exc:
            assert str(exc).startswith(where)
        else:
            assert chip.site_count == 1
            assert np.isfinite(chip.nominal_freq).all() and (chip.nominal_freq > 0).all()

    def test_count_samples_and_their_moments_ingest_identically(self, tmp_path):
        rng = np.random.default_rng(12)
        counts = rng.integers(20_000, 60_000, size=(30, 7))
        counts[3] = counts[3, 0]  # a zero-sigma site
        keys = [(i // 4, 0, ("TL", "TR", "BL", "BR")[i % 4]) for i in range(len(counts))]
        count_rows = ["# t_on_us=47.25", "clb_x,clb_y,corner," +
                      ",".join(f"count_{j + 1}" for j in range(7))]
        moment_rows = ["# samples=7", "# t_on_us=47.25",
                       "clb_x,clb_y,corner,sum_count,sum_count_sq"]
        for (x, y, corner), row in zip(keys, counts.tolist()):
            count_rows.append(f"{x},{y},{corner}," + ",".join(map(str, row)))
            moment_rows.append(f"{x},{y},{corner},{sum(row)},{sum(c * c for c in row)}")
        by_count = ingest_csv(self._write(tmp_path, "\n".join(count_rows) + "\n"))
        by_moments = ingest_csv(self._write(tmp_path, "\n".join(moment_rows) + "\n"))
        assert ([by_count.layout.key(i) for i in range(len(keys))]
                == [by_moments.layout.key(i) for i in range(len(keys))] == keys)
        assert np.array_equal(by_count.nominal_freq, by_moments.nominal_freq)
        assert np.array_equal(by_count.meas_sigma_site, by_moments.meas_sigma_site)
        assert by_moments.meas_sigma_site[3] == 0.0
        np.testing.assert_allclose(by_count.nominal_freq, counts.mean(axis=1) / 47.25,
                                   rtol=1e-15)
        np.testing.assert_allclose(by_count.meas_sigma_site,
                                   counts.std(axis=1, ddof=1) / 47.25, rtol=1e-12)

    @pytest.mark.parametrize("row,message", [
        ("0,0,TL,-5,25", "sum_count must be non-negative, got -5"),
        ("0,0,TL,0,0", "sum_count must be positive"),
        ("0,0,TL,10,49", "samples \\* sum_count_sq = 98 is below sum_count\\^2 = 100"),
        ("0,0,TL,10,-49", "sum_count_sq must be non-negative"),
        ("0,0,TL,10.5,60", "invalid literal for int"),
        ("0,0,TL,1e3,600000", "invalid literal for int"),
        ("0,0,TL,94906265,4503599627370496", "reaches 2\\*\\*53"),
    ])
    def test_malformed_moment_row_names_line(self, tmp_path, row, message):
        path = self._write(tmp_path, "# t_on_us=1.5\n# samples=2\n"
                           "clb_x,clb_y,corner,sum_count,sum_count_sq\n"
                           f"1,0,TL,300,45000\n{row}\n")
        with pytest.raises(DataError, match=rf"chip\.csv:5: malformed row \(.*{message}"):
            ingest_csv(path)

    @pytest.mark.parametrize("lines,message", [
        (["# samples=2"], r":2: a sum_count,sum_count_sq profile needs a '# t_on_us=' line"),
        (["# t_on_us=1.5"], r":2: a sum_count,sum_count_sq profile needs a '# samples=' line"),
        ([], r":1: .* needs a '# t_on_us=' line and a '# samples=' line"),
        (["# t_on_us=0", "# samples=2"], r":1: bad header line \(t_on_us must be positive"),
        (["# t_on_us=1.5", "# samples=two"], r":2: bad header line \(invalid literal"),
        (["# t_on_us=1.5", "# samples=0"], r":2: bad header line \(samples must be >= 1"),
        (["# t_on_us=1.5", "# samples=2"], None),
    ])
    def test_moment_header_needs_t_on_us_and_samples(self, tmp_path, lines, message):
        text = "\n".join([*lines, "clb_x,clb_y,corner,sum_count,sum_count_sq",
                          "1,0,TL,300,45000"]) + "\n"
        path = self._write(tmp_path, text)
        if message is None:
            chip = ingest_csv(path)
            assert chip.nominal_freq.tolist() == [300 / (2 * 1.5)]
            assert chip.meas_sigma_site.tolist() == [0.0]
        else:
            with pytest.raises(DataError, match=rf"chip\.csv{message}"):
                ingest_csv(path)

    @pytest.mark.parametrize("header,message", [
        ("clb_x,clb_y,corner,sum_count", "missing required column 'sum_count_sq'"),
        ("clb_x,clb_y,corner,sum_count,sum_count_sq,count_1",
         "moment columns cannot be mixed"),
        ("clb_x,clb_y,corner,mhz_1,mhz_1", "repeated column 'mhz_1' in CSV header"),
        ("clb_x,clb_y,corner,sum_count,sum_count_sq,clb_x",
         "repeated column 'clb_x' in CSV header"),
    ])
    def test_bad_moment_header(self, tmp_path, header, message):
        path = self._write(tmp_path, f"# t_on_us=1.5\n# samples=2\n{header}\n")
        with pytest.raises(DataError, match=rf"chip\.csv:3: {message}"):
            ingest_csv(path)

    def test_count_samples_must_be_non_negative_integers(self, tmp_path):
        for row, message in (("0,0,TL,5,-1", "count_2 must be non-negative"),
                             ("0,0,TL,5,4.5", "invalid literal for int")):
            path = self._write(tmp_path, f"clb_x,clb_y,corner,count_1,count_2\n{row}\n")
            with pytest.raises(DataError, match=rf"chip\.csv:2: .*{message}"):
                ingest_csv(path)
        path = self._write(tmp_path, "# samples=3\nclb_x,clb_y,corner,count_1,count_2\n")
        with pytest.raises(DataError, match=r"chip\.csv:2: '# samples=3' but 2 count columns"):
            ingest_csv(path)

    @pytest.mark.parametrize("head,row", [
        (MHZ_HEAD, "1_0,\u0661,TL,4_00.0"),          # underscore, Arabic-Indic digit
        (MHZ_HEAD, "10,1,TL,4_00.0"),
        (MHZ_HEAD, "\uff11\uff10,1,TL,400.0"),       # fullwidth digits
        (MHZ_HEAD, "10,1,TL,\uff14\uff10\uff10.0"),
        (MHZ_HEAD, "10,1,TL,\u3000400.0"),            # ideographic space
        (COUNT_HEAD, "10,1,TL,49_148,49148"),
        (COUNT_HEAD, "10,1,TL,49148,\uff14\uff19148"),
        (MOMENT_HEAD, "10,1,TL,3_00,45000"),
        (MOMENT_HEAD, "10,1,TL,300,\u0664\u0665000"),
    ])
    def test_non_ascii_decimal_number_names_line(self, tmp_path, head, row):
        path = self._write(tmp_path, f"{head}\n{row}\n")
        lineno = head.count("\n") + 2
        with pytest.raises(DataError, match=rf"chip\.csv:{lineno}: malformed row "
                                            r"\(.*not (an )?ASCII decimal"):
            ingest_csv(path)

    @pytest.mark.parametrize("header", ["# t_on_us=1_5", "# t_on_us=\uff11.5",
                                        "# samples=\uff12", "# samples=2_0"])
    def test_non_ascii_decimal_header_value_names_line(self, tmp_path, header):
        other = "# samples=2" if "t_on_us" in header else "# t_on_us=1.5"
        path = self._write(tmp_path, f"{other}\n{header}\n"
                           "clb_x,clb_y,corner,sum_count,sum_count_sq\n1,0,TL,300,45000\n")
        with pytest.raises(DataError,
                           match=r"chip\.csv:2: bad header line \(.*not (an )?ASCII decimal"):
            ingest_csv(path)

    def test_ascii_decimal_forms_accepted(self, tmp_path):
        path = self._write(tmp_path, "# t_on_us= 1.5e0\n# samples=\t2\n"
                           "clb_x,clb_y,corner,sum_count,sum_count_sq\n"
                           "+1, -0,TL, 300 ,45000\n")
        chip = ingest_csv(path)
        assert chip.layout.key(0) == (1, 0, "TL")
        assert chip.nominal_freq.tolist() == [300 / (2 * 1.5)]
        path = self._write(tmp_path, "clb_x,clb_y,corner,mhz_1,mhz_2,mhz_3\n"
                           "0,0,TL,.4e3,400.,+4E2\n")
        assert ingest_csv(path).nominal_freq.tolist() == [400.0]


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

    def test_unknown_preset_names_file(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text('{"preset": "nope"}')
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}: unknown device preset"):
            load_device_spec(str(p))

    @pytest.mark.parametrize("field,value,message", [
        ("site_count", "10", "site_count must be an integer, got '10'"),
        ("site_count", 10.5, "site_count must be an integer, got 10.5"),
        ("site_count", True, "site_count must be an integer, got True"),
        ("meas_sigma", None, "meas_sigma must be a finite number, got None"),
        ("mean_span", "5", "mean_span must be a finite number, got '5'"),
        ("erroneous_fraction", float("nan"), "erroneous_fraction must be a finite number"),
        ("class_bias", [1, 2], "class_bias must map slice classes to MHz"),
        ("class_bias", {"M": "1"}, r"class_bias\['M'\] must be a finite number"),
        ("kind", 5, "kind must be a string"),
        ("temp_coeff_sigma", -1e-5, "temp_coeff_sigma must be non-negative, got -1e-05"),
        ("volt_coeff_sigma", -0.02, "volt_coeff_sigma must be non-negative, got -0.02"),
        ("erroneous_sigma_mult", -30.0, "erroneous_sigma_mult must be non-negative, got -30.0"),
    ])
    def test_non_numeric_field_names_field_and_file(self, tmp_path, field, value, message):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"preset": "zybo", field: value}))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}: {message}"):
            load_device_spec(str(p))
        with pytest.raises(ConfigError, match=rf"^{message}"):
            toy_spec(**{field: value}).validate()

    def test_missing_field_names_file(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text('{"kind": "x"}')
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}: bad device spec"):
            load_device_spec(str(p))
