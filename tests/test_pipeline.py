import hashlib
import importlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

import ropufsim.pipeline as pipeline
import ropufsim.select as select
from ropufsim.chipmodel import REFERENCE_ENV, ConfigError, get_preset, synth_chip
from ropufsim.cli import main
from ropufsim.pipeline import (
    BenchReport,
    PipelineConfig,
    bench,
    device_seeds,
    kmeans_scaling,
    run_pipeline,
    sweep_kappa,
)
from ropufsim.puf import generate_response


def tiny_config(tmp_path, **overrides) -> PipelineConfig:
    base = dict(
        preset="zybo",
        devices=3,
        ro_count=8,
        kappa=0.5,
        temps=(25.0, 35.0, 45.0),
        volts=(980.0, 1000.0, 1020.0),
        global_seed=5,
        out_dir=str(tmp_path / "run"),
    )
    base.update(overrides)
    return PipelineConfig(**base)


def tree_sha256(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


# Artifact tree of tiny_config with out_dir="run".  Only a change that
# announces a behaviour change may move it.
TINY_RUN_SHA256 = "280b8e80b730a8445622e8d68056c538e1cc455f45169da80a503b97e0ae6c07"


@pytest.fixture
def synth_calls(monkeypatch):
    """Records every synth_chip call the pipeline makes."""
    calls = []
    synth = pipeline.synth_chip

    def spy(*args, **kwargs):
        calls.append(args)
        return synth(*args, **kwargs)

    monkeypatch.setattr(pipeline, "synth_chip", spy)
    return calls


@pytest.fixture
def micd_calls(monkeypatch):
    """Counts micd_traces calls, including fills on first use of a trace."""
    calls = []
    batch = select.micd_traces

    def spy(results):
        calls.append(len(results))
        return batch(results)

    monkeypatch.setattr(select, "micd_traces", spy)
    monkeypatch.setattr(pipeline, "micd_traces", spy)
    return calls


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        config = tiny_config(tmp_path)
        again = PipelineConfig.from_json(config.to_json())
        assert again == config

    def test_axes_grid_deduplicates_reference(self, tmp_path):
        config = tiny_config(tmp_path)
        grid = config.env_grid()
        assert len(grid) == 5  # 3 temps + 3 volts - shared reference
        assert len({(c.temp_c, c.vcc_mv) for c in grid}) == len(grid)

    def test_cross_grid(self, tmp_path):
        config = tiny_config(tmp_path, env_mode="cross")
        assert len(config.env_grid()) == 9

    @pytest.mark.parametrize("field,value", [
        ("devices", 0),
        ("ro_count", 12),
        ("ro_count", 2),
        ("kappa", 0.3),
        ("samples", 1),
        ("t_on_us", 0.0),
        ("env_mode", "diagonal"),
        ("reject_mode", "median"),
        ("lfsr_seed_policy", "random"),
        ("seeding", "spectral"),
        ("k_max", 0),
        ("workers", 0),
        ("reject_threshold", 0.0),
        ("reject_threshold", "0.002"),
        ("reject_quantile", 1.0),
        ("reject_quantile", 0.0),
        ("relocation_max_iter", -1),
        ("relocation_max_iter", 2.5),
        ("global_seed", -1),
        ("global_seed", "2026"),
        ("temps", (25.0, float("nan"))),
        ("temps", 35.0),
        ("volts", (980.0, "1000")),
        ("volts", (1000.0, float("inf"))),
        ("ro_count", 4),    # no width-2 LFSR polynomial
        ("ro_count", 128),  # no width-12 LFSR polynomial
    ])
    def test_bad_field_rejected_before_device_work(self, tmp_path, synth_calls,
                                                   field, value):
        config = tiny_config(tmp_path, **{field: value})
        with pytest.raises(ConfigError, match=rf"^{field} must .*got {re.escape(repr(value))}$"):
            run_pipeline(config)
        assert synth_calls == []

    def test_every_verb_validates_first(self, tmp_path, synth_calls, capsys):
        config = tiny_config(tmp_path, kappa=0.3)
        for verb in (sweep_kappa, bench):
            with pytest.raises(ConfigError, match="^kappa must"):
                verb(config)
        rc = main(["run", "--preset", "zybo", "--devices", "0", "--out", str(tmp_path / "cli")])
        assert rc == 2
        assert "devices must be an integer >= 1, got 0" in capsys.readouterr().err
        assert synth_calls == []
        assert not (tmp_path / "cli").exists()

    @pytest.mark.parametrize("text,message", [
        ('{"devices": 3, "ro_cont": 8}', "unknown config key 'ro_cont'"),
        ('[3, 8]', "must be a JSON object"),
        ('{"devices": 3,', "not valid JSON"),
    ])
    def test_from_json_rejects_what_is_no_config(self, text, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            PipelineConfig.from_json(text)

    def test_seed_derivation_stable(self):
        assert device_seeds(5, 0) == device_seeds(5, 0)
        assert device_seeds(5, 0) != device_seeds(5, 1)


class TestRunPipeline:
    def test_artifact_tree(self, tmp_path):
        config = tiny_config(tmp_path)
        report, nist_report, runs = run_pipeline(config)
        root = Path(config.out_dir)
        assert (root / "manifest.json").exists()
        assert (root / "reports" / "eval.json").exists()
        assert (root / "reports" / "nist.csv").exists()
        assert (root / "reports" / "hd_hist.csv").exists()
        for i in range(config.devices):
            dev = root / f"device_{i:03d}"
            assert (dev / "profile.csv").exists()
            assert (dev / "selection.json").exists()
            assert (dev / "constraints.txt").exists()
            assert (dev / "responses.csv").exists()
        assert runs[0].golden.k == 15
        assert len(runs[0].sweep_responses) == 5

    def test_rerun_is_byte_identical(self, tmp_path):
        config = tiny_config(tmp_path)
        run_pipeline(config)
        first = {
            p.relative_to(config.out_dir): p.read_bytes()
            for p in sorted(Path(config.out_dir).rglob("*")) if p.is_file()
        }
        run_pipeline(config)
        second = {
            p.relative_to(config.out_dir): p.read_bytes()
            for p in sorted(Path(config.out_dir).rglob("*")) if p.is_file()
        }
        assert first == second

    def test_written_run_runs_each_stage_once_per_device(self, tmp_path, monkeypatch):
        calls = {}
        for name in ("characterize", "assign_groups", "randomize_placement"):
            def counted(*args, _fn=getattr(pipeline, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)
        monkeypatch.chdir(tmp_path)
        config = tiny_config(tmp_path, out_dir="run")
        run_pipeline(config)
        assert calls == {
            "characterize": config.devices,
            "assign_groups": config.devices,
            "randomize_placement": config.devices,
        }
        assert tree_sha256(Path("run")) == TINY_RUN_SHA256

    @pytest.mark.parametrize("block", [1, 2, 100])
    def test_block_size_leaves_artifacts_unchanged(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(pipeline, "_BLOCK_DEVICES", block)
        monkeypatch.chdir(tmp_path)
        run_pipeline(tiny_config(tmp_path, out_dir="run"))
        assert tree_sha256(Path("run")) == TINY_RUN_SHA256

    def test_micd_computed_once_per_written_population(self, tmp_path, micd_calls):
        config = tiny_config(tmp_path)
        _, _, runs = run_pipeline(config)
        assert micd_calls == [config.devices]
        selection = json.loads(
            (Path(config.out_dir) / "device_000" / "selection.json").read_text()
        )
        assert selection["kmeans"]["micd_trace"] == runs[0].kmeans.micd_trace
        assert len(selection["kmeans"]["micd_trace"]) == runs[0].kmeans.iterations
        assert micd_calls == [config.devices]

    def test_micd_never_computed_without_files(self, tmp_path, micd_calls):
        run_pipeline(tiny_config(tmp_path), write=False)
        sweep_kappa(tiny_config(tmp_path))
        sweep_kappa(tiny_config(tmp_path), write=False)
        assert micd_calls == []

    def test_responses_count_over_configured_window(self, tmp_path):
        # a 0.1 us window quantizes counts to 10 MHz, so it flips bits that
        # the default 122.87 us window resolves
        config = tiny_config(tmp_path, devices=1, ro_count=16, t_on_us=0.1)
        _, _, (run,) = run_pipeline(config, write=False)
        chip = synth_chip(get_preset("zybo"), run.seeds["synth"], device_id=run.device_id)
        assert run.layout is chip.layout  # the family's shared layout, not the chip

        def golden(**window):
            rng = np.random.default_rng(pipeline.derive_seed(run.seeds["response"], 0, 0))
            return generate_response(
                run.plan, chip, pipeline._shared_lfsr_seed(config, 0), REFERENCE_ENV,
                rng=rng, **window,
            ).bits

        assert np.array_equal(run.golden.bits, golden(t_on_us=config.t_on_us))
        assert not np.array_equal(run.golden.bits, golden())

    def test_reference_only_run_is_trivially_reliable(self, tmp_path):
        config = tiny_config(tmp_path, env_mode="reference", devices=1)
        report, _, _ = run_pipeline(config, write=False)
        assert report.r_avg == 1.0

    def test_manifest_reproduces_run(self, tmp_path):
        config = tiny_config(tmp_path)
        report, _, _ = run_pipeline(config)
        manifest = json.loads((Path(config.out_dir) / "manifest.json").read_text())
        config2 = PipelineConfig.from_json(json.dumps(manifest["config"]))
        config2.out_dir = str(tmp_path / "run2")
        report2, _, _ = run_pipeline(config2, write=False)
        assert report2.to_json_dict() == report.to_json_dict()

    def test_workers_other_than_one_rejected(self, tmp_path, synth_calls, capsys):
        # there is no process pool: a run is one process whatever the config
        with pytest.raises(ConfigError, match=r"^workers must be 1, as devices run in "
                                              r"blocks in one process, got 2$"):
            run_pipeline(tiny_config(tmp_path, workers=2))
        assert synth_calls == []
        with pytest.raises(SystemExit):
            main(["run", "--workers", "2", "--out", str(tmp_path / "cli")])
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestSweeps:
    def test_kappa_sweep_covers_grid(self, tmp_path):
        config = tiny_config(tmp_path, devices=4)
        points = sweep_kappa(config)
        assert [p.kappa for p in points] == [0.0, 0.5, 1.0]
        # no SP 800-22 test applies to 15-bit responses
        assert all(p.pass_rate is None for p in points)
        rows = (Path(config.out_dir) / "kappa_sweep.csv").read_text().splitlines()
        assert [r.split(",")[1] for r in rows[1:]] == ["NA"] * 3

    def test_kappa_sweep_places_each_device_once_per_ratio(self, tmp_path, monkeypatch):
        calls = {}
        for name in ("characterize", "assign_groups", "randomize_placement",
                     "generate_responses"):
            def counted(*args, _fn=getattr(pipeline, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)
        config = tiny_config(tmp_path)
        points = sweep_kappa(config, write=False)
        placements = config.devices * len(points)  # 3 devices x 3 ratios at M = 8
        assert calls == {
            "characterize": config.devices,
            "assign_groups": placements,
            "randomize_placement": placements,
            "generate_responses": placements,
        }

    def test_kappa_sweep_output_pinned(self, tmp_path):
        # kappa_sweep.csv of a 12-device M = 32 sweep, where every test but
        # dft applies; the sha256 was computed before the sweep reused the
        # device selections directly
        config = PipelineConfig(preset="zybo", devices=12, ro_count=32,
                                global_seed=2026, out_dir=str(tmp_path / "sweep"))
        points = sweep_kappa(config)
        text = (tmp_path / "sweep" / "kappa_sweep.csv").read_bytes()
        assert hashlib.sha256(text).hexdigest() == (
            "78779fb14d7f6b9b6a7ea61045f95b9957c62f2a10b79d186e905e138bc4e5e5"
        )
        assert [p.pass_rate for p in points][2:6] == [1.0] * 4

    def test_kappa_zero_identical_ones_count(self, tmp_path):
        # ordered-only assignment leaves the multiset of compared rank pairs
        # fixed, so every device's golden response has the same weight +-1
        config = tiny_config(tmp_path, devices=4, ro_count=16, kappa=0.0)
        from ropufsim.pipeline import run_device, _shared_lfsr_seed

        weights = []
        for i in range(4):
            run = run_device(config, i, _shared_lfsr_seed(config, i))
            weights.append(int(run.golden.bits.sum()))
        assert max(weights) - min(weights) <= 1


class TestBench:
    def test_bench_report(self, tmp_path):
        config = tiny_config(tmp_path, ro_count=16)
        report = bench(config)
        assert isinstance(report, BenchReport)
        assert report.characterization_model_sec == pytest.approx(
            3520 * 32 * 0.003
        )
        assert report.selection_wall_sec > 0
        assert report.p2_much_less_than_p1

    def test_reject_settings_reach_bench(self, tmp_path, monkeypatch):
        kept = {}

        def spy(prof, **kwargs):
            clean = reject(prof, **kwargs)
            kept[kwargs.get("mode", "fixed")] = clean.z_bar
            return clean

        reject = pipeline.reject_erroneous
        monkeypatch.setattr(pipeline, "reject_erroneous", spy)
        bench(tiny_config(tmp_path))
        bench(tiny_config(tmp_path, reject_mode="quantile", reject_quantile=0.5))
        # the median ratio as threshold keeps about half the pool; the fixed
        # default keeps all but the erroneous few percent
        assert kept["quantile"] < 0.6 * kept["fixed"]

    def test_bench_times_device_zero_chain_with_its_micd(self, tmp_path, synth_calls,
                                                         micd_calls):
        config = tiny_config(tmp_path, ro_count=16)
        report = bench(config)
        assert len(synth_calls) == 1 and micd_calls == [1]
        run = pipeline.run_device(config, 0, pipeline._shared_lfsr_seed(config, 0))
        assert report.kmeans_iterations == run.kmeans.iterations
        assert report.relocation_iterations == run.relocated.iterations

    def test_single_site_model_minimal(self, tmp_path):
        # characterization model scales down to a single site
        config = tiny_config(tmp_path)
        report = bench(config)
        per_site = report.characterization_model_sec / 3520
        assert per_site == pytest.approx(32 * 0.003)

    def test_relocation_iterations_grow_with_m(self, tmp_path):
        iters = {}
        for m in (8, 64):
            config = tiny_config(tmp_path, ro_count=m)
            iters[m] = bench(config).relocation_iterations
        assert iters[64] > iters[8]

    def test_kmeans_scaling_returns_timings(self):
        out = kmeans_scaling([500, 2000], m=8, seed=1)
        assert len(out) == 2
        assert all(t > 0 for _, t in out)


class TestCli:
    def test_run_verb(self, tmp_path, capsys):
        out = tmp_path / "cli_run"
        rc = main([
            "run", "--preset", "zybo", "--devices", "2", "--ro-count", "8",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        assert (out / "manifest.json").exists()
        assert "reliability" in capsys.readouterr().out

    def test_sweep_kappa_verb(self, tmp_path, capsys):
        rc = main([
            "sweep-kappa", "--preset", "zybo", "--devices", "2", "--ro-count", "8",
            "--seed", "3", "--out", str(tmp_path / "cli_sweep"),
        ])
        assert rc == 0
        assert "full-pass" in capsys.readouterr().out

    def test_bench_verb(self, tmp_path, capsys):
        rc = main([
            "bench", "--preset", "zybo", "--devices", "1", "--ro-count", "8",
            "--out", str(tmp_path / "cli_bench"),
        ])
        assert rc == 0
        assert "characterization_model_sec" in capsys.readouterr().out

    def test_sweep_m_verb(self, tmp_path, capsys):
        rc = main([
            "sweep-m", "--preset", "zybo", "--devices", "2",
            "--seed", "3", "--out", str(tmp_path / "cli_sweep_m"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        for m in (8, 16, 32, 64):
            assert f"M={m}" in out
        # no SP 800-22 test applies at M = 8 (15 bits) or M = 16 (63 bits)
        assert out.count("nist=NA") == 2
        rows = (tmp_path / "cli_sweep_m" / "m_sweep.csv").read_text().splitlines()
        assert [r.split(",")[-1] for r in rows[1:3]] == ["NA", "NA"]

    def test_device_spec_file_flag(self, tmp_path):
        spec_file = tmp_path / "device.json"
        spec_file.write_text('{"preset": "zybo", "site_count": 256}')
        out = tmp_path / "cli_spec_run"
        rc = main([
            "run", "--devices", "2", "--ro-count", "8", "--seed", "3",
            "--device-spec", str(spec_file), "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["device_spec_file"] == str(spec_file)

    def test_ingest_verb(self, tmp_path, capsys):
        csv = tmp_path / "chip.csv"
        csv.write_text(
            "clb_x,clb_y,corner,mhz_1\n0,0,TL,400.0\n0,0,TR,405.0\n"
        )
        rc = main(["ingest", str(csv)])
        assert rc == 0
        assert "2 sites" in capsys.readouterr().out

    def test_nist_verb_on_run_dump(self, tmp_path, capsys):
        out = tmp_path / "cli_run2"
        main([
            "run", "--preset", "zybo", "--devices", "2", "--ro-count", "8",
            "--seed", "3", "--out", str(out),
        ])
        rc = main(["nist", str(out / "device_000" / "responses.csv")])
        captured = capsys.readouterr().out
        assert "pass rate" in captured
        assert rc in (0, 2)  # tiny 15-bit dumps cannot pass the basic floor

    def test_config_file_flow(self, tmp_path):
        config = tiny_config(tmp_path, devices=2)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(config.to_json())
        rc = main([
            "run", "--config", str(cfg_path), "--devices", "2",
            "--preset", "zybo", "--ro-count", "8", "--seed", "5",
            "--out", str(tmp_path / "cfg_run"),
        ])
        assert rc == 0

    def test_config_file_alone_then_flag_override(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "preset": "zybo", "devices": 3, "ro_count": 8, "global_seed": 5,
            "out_dir": str(tmp_path / "from_file"),
        }))
        assert main(["run", "--config", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "from_file" / "manifest.json").read_text())
        assert manifest["config"] == json.loads(PipelineConfig.from_json(
            cfg_path.read_text()).to_json())
        assert len(manifest["devices"]) == 3

        out = tmp_path / "flagged"
        assert main(["run", "--config", str(cfg_path), "--devices", "2",
                     "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["devices"], config["ro_count"], config["preset"]) == (2, 8, "zybo")

    @pytest.mark.parametrize("text", ['{"preset": "zybo",', None, "[1, 2]"])
    def test_bad_device_spec_exits_2_naming_file(self, tmp_path, capsys, text):
        spec_file = tmp_path / "device.json"
        if text is not None:  # None: the file does not exist
            spec_file.write_text(text)
        rc = main(["run", "--devices", "1", "--ro-count", "8",
                   "--device-spec", str(spec_file), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"ropuf run: {spec_file}: " in capsys.readouterr().err

    def test_bad_config_file_exits_2_naming_file_and_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"devices": 3, "ro_cont": 8}')
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert f"{cfg_path}: unknown config key 'ro_cont'" in capsys.readouterr().err
        missing = tmp_path / "missing.json"
        assert main(["run", "--config", str(missing)]) == 2
        assert f"{missing}: " in capsys.readouterr().err


def load_spans():
    """perfbench/spans.py, the benchmark's tracer, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


class TestTracerContract:
    """The benchmark's tracer wraps layer functions by module attribute and
    reads fields of what they return; a refactor must keep both."""

    def test_every_wrapped_name_resolves(self):
        for module, attr, _ in load_spans().WRAPPED:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)

    def test_traced_tiny_run_summarizes(self, tmp_path, monkeypatch):
        spans = load_spans()
        for module, attr, _ in spans.WRAPPED:
            # registers the original, which monkeypatch restores afterwards
            monkeypatch.setattr(importlib.import_module(module), attr,
                                getattr(importlib.import_module(module), attr))
        tracer = spans.Tracer()
        tracer.install()
        config = tiny_config(tmp_path)
        with tracer.span(spans.ROOT_SPAN):
            run_pipeline(config)
        layers, _ = spans.summarize(tracer.spans, tracer.counts)
        assert layers["characterize.characterize.calls"] == config.devices
        assert layers["select.relocate_centroids.calls"] == config.devices
        assert layers["nist.run_suite.calls"] == 1
        assert 0.0 < layers["characterize.kept_ratio"] <= 1.0
        assert layers["pipeline.write.calls"] == 3 * config.devices
        assert layers["trace.wall_s"] > 0.0
