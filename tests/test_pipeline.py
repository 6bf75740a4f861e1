import fnmatch
import gc
import hashlib
import importlib
import importlib.util
import json
import logging
import os
import re
import shutil
import stat
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ropufsim.pipeline as pipeline
import ropufsim.select as select
from ropufsim.characterize import (
    DEFAULT_THRESHOLD,
    FrequencyProfile,
    characterize,
    ingest_csv,
    reject_erroneous,
)
from ropufsim.chipmodel import (
    DEFAULT_T_ON_US,
    REFERENCE_ENV,
    ConfigError,
    build_fabric,
    get_preset,
    synth_chip,
)
from ropufsim.cli import main
from ropufsim.pipeline import (
    BenchReport,
    PipelineConfig,
    bench,
    generator_words,
    run_pipeline,
    seed_table,
    sweep_kappa,
    sweep_m,
)
from ropufsim.puf import challenge_width, generate_response


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


def device_profile(config: PipelineConfig, index: int) -> FrequencyProfile:
    """Device ``index``'s characterization before rejection, as the chain
    built it; a run keeps none."""
    table = pipeline._SeedTable(config.global_seed, [index], [], 0)
    _, prof = pipeline._candidate_pool(config, table, 0, pipeline._device_spec(config),
                                       pipeline._StageTimes())
    return prof


def tree_sha256(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


# Stages a run logs, in order, and a written run's order: it writes device
# 0's profile as soon as the device's pool is built.
STAGES = ("seeds", "synth", "characterize", "reject", "kmeans", "relocation", "assign/place",
          "respond", "evaluate", "nist", "write")
WRITTEN_STAGES = (*STAGES[:4], "write", *STAGES[4:-1])

# Artifact tree of tiny_config with out_dir="run".  Only a change that
# announces a behaviour change may move it.  Last moved when the MICD trace
# came from prefix sums: only the last digits of micd_trace changed.
TINY_RUN_SHA256 = "9d622df496d5cd512c4b50dc2d3c632906b8750cfe24b2a38f32aab3d1f2e70f"


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
        ("kappa", True),
        ("samples", 1),
        ("env_mode", "diagonal"),
        ("seeding", "spectral"),
        ("seeding", "kmeanspp"),
        ("seeding", "random"),
        ("workers", 0),
        ("global_seed", -1),
        ("global_seed", "2026"),
        ("temps", (25.0, float("nan"))),
        ("temps", 35.0),
        ("volts", (980.0, "1000")),
        ("volts", (1000.0, float("inf"))),
        ("ro_count", 4),    # no width-2 LFSR polynomial
        ("ro_count", 128),  # no width-12 LFSR polynomial
        ("preset", ["basys3"]),
        ("preset", "artix"),
        ("out_dir", 5),
        ("out_dir", ""),
        ("device_spec_file", ["a"]),
        ("device_spec_file", 0),
        ("device_spec_file", ""),
    ])
    def test_bad_field_rejected_before_device_work(self, tmp_path, synth_calls,
                                                   field, value):
        config = tiny_config(tmp_path, **{field: value})
        with pytest.raises(ConfigError, match=rf"^{field} must .*got {re.escape(repr(value))}$"):
            run_pipeline(config)
        assert synth_calls == []

    def test_every_verb_validates_first(self, tmp_path, synth_calls, capsys):
        config = tiny_config(tmp_path, kappa=0.3)
        for verb in (bench, lambda c: pipeline.run_device(c, 0)):
            with pytest.raises(ConfigError, match="^kappa must"):
                verb(config)
        # sweep_kappa judges every ratio and reads no kappa
        for field, value in (("samples", 1), ("seeding", "bogus")):
            for verb in (sweep_kappa, lambda c: pipeline.run_device(c, 0)):
                with pytest.raises(ConfigError, match=f"^{field} must"):
                    verb(tiny_config(tmp_path, **{field: value}))
        rc = main(["run", "--preset", "zybo", "--devices", "0", "--out", str(tmp_path / "cli")])
        assert rc == 2
        assert "devices must be an integer >= 1, got 0" in capsys.readouterr().err
        assert synth_calls == []
        assert not (tmp_path / "cli").exists()

    def test_bad_config_file_field_exits_two(self, tmp_path, monkeypatch, synth_calls,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text('{"preset": ["basys3"]}')
        assert main(["run", "--config", "cfg.json"]) == 2
        assert "preset must be one of" in capsys.readouterr().err
        assert synth_calls == []
        assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    @pytest.mark.parametrize("text,message", [
        ('{"devices": 3, "ro_cont": 8}', "unknown config key 'ro_cont'"),
        ('[3, 8]', "must be a JSON object"),
        ('{"devices": 3,', "not valid JSON"),
    ])
    def test_from_json_rejects_what_is_no_config(self, text, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            PipelineConfig.from_json(text)

    def test_format_2_manifest_config_refused(self, tmp_path, synth_calls, capsys):
        # format 2 recorded seven fields that format 3 fixes as constants
        v2 = json.loads(tiny_config(tmp_path).to_json())
        v2.update(t_on_us=122.87, reject_mode="fixed", reject_threshold=0.002,
                  reject_quantile=0.95, lfsr_seed_policy="shared", k_max=100,
                  relocation_max_iter=200)
        text = json.dumps(v2, indent=2, sort_keys=True)
        with pytest.raises(ConfigError, match=r"^unknown config key 'k_max'$"):
            PipelineConfig.from_json(text)
        (tmp_path / "v2.json").write_text(text)
        assert main(["run", "--config", str(tmp_path / "v2.json")]) == 2
        assert "v2.json: unknown config key 'k_max'" in capsys.readouterr().err
        assert synth_calls == []
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key,value", [
        ("t_on_us", 122.87),
        ("reject_mode", "fixed"),
        ("reject_threshold", 0.002),
        ("reject_quantile", 0.95),
        ("lfsr_seed_policy", "shared"),
        ("k_max", 100),
        ("relocation_max_iter", 200),
    ])
    def test_format_2_field_refused_before_device_work(self, tmp_path, synth_calls, capsys,
                                                       key, value):
        # each field format 3 fixes as a constant is unknown, even at its old default
        with pytest.raises(TypeError, match=key):
            tiny_config(tmp_path, **{key: value})
        v2 = json.loads(tiny_config(tmp_path).to_json())
        v2[key] = value
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(v2, indent=2, sort_keys=True))
        with pytest.raises(ConfigError, match=rf"^unknown config key '{key}'$"):
            PipelineConfig.from_json(path.read_text())
        assert main(["run", "--config", str(path)]) == 2
        assert f"v2.json: unknown config key '{key}'" in capsys.readouterr().err
        assert synth_calls == []
        assert not (tmp_path / "run").exists()

    def test_seed_derivation_stable(self):
        def device_seeds(global_seed, index):
            return seed_table(global_seed, index, np.arange(6)).tolist()

        assert device_seeds(5, 0) == device_seeds(5, 0)
        assert device_seeds(5, 0) != device_seeds(5, 1)


def numpy_seed(path) -> tuple[int, list[int]]:
    """The reference for seed_table: numpy's derived seed of ``path`` and the
    PCG64 state words default_rng of that seed starts from."""
    seed = int(np.random.SeedSequence(list(path)).generate_state(1)[0])
    state = np.random.PCG64(seed).state["state"]
    return seed, [state["state"] >> 64, state["state"] & (2**64 - 1),
                  state["inc"] >> 64, state["inc"] & (2**64 - 1)]


class TestSeedTable:
    """seed_table and generator_words compute numpy's SeedSequence hash and
    PCG64 seeding in arrays; numpy is the reference here and nowhere in the
    chain."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n), min_size=1, max_size=6)))
    @example([[0]])
    @example([[2**32 + 5, 0, 1], [0, 7, 2**64 - 1], [4, 2**32 - 1, 2**32]])
    def test_matches_numpy(self, paths):
        # element j of every path in one column, so paths whose elements take
        # one or two words share a call
        seeds = seed_table(*(np.array(col, dtype=np.uint64) for col in zip(*paths)))
        words = generator_words(seeds)
        assert [(s, w) for s, w in zip(seeds.tolist(), words.tolist())] \
            == [numpy_seed(path) for path in paths]
        assert int(seed_table(*paths[-1])) == numpy_seed(paths[-1])[0]

    @pytest.mark.parametrize("global_seed", [0, 5, 2**32 + 1, 2**64 - 1, 2**64, 2**100 + 3])
    def test_device_grid_matches_numpy(self, global_seed):
        seeds = seed_table(global_seed, np.arange(3)[:, None], np.arange(6))
        words = generator_words(seeds)
        assert seed_table(global_seed, 2, np.arange(6)).tolist() == seeds[2].tolist()
        for index in range(3):
            for stage in range(6):
                assert (int(seeds[index, stage]), words[index, stage].tolist()) \
                    == numpy_seed([global_seed, index, stage])

    def test_restated_generator_draws_as_default_rng(self):
        seeds = seed_table(7, np.arange(4)[:, None], np.arange(5))
        words = generator_words(seeds)
        table = pipeline._SeedTable(7, [0], [], 0)
        for seed, w in zip(seeds.ravel().tolist(), words.reshape(-1, 4)):
            want = np.random.default_rng(seed)
            got = table.draw(w)
            assert got.standard_normal(510).tobytes() == want.standard_normal(510).tobytes()
            # a buffered 32-bit half is dropped when the generator is re-stated
            assert got.integers(0, 1000, 3, dtype=np.uint32).tolist() \
                == want.integers(0, 1000, 3, dtype=np.uint32).tolist()

    def test_negative_element_raises_as_numpy_does(self):
        for path in ([3, -1], [-2**40]):
            with pytest.raises(ValueError, match="^expected non-negative integer$"):
                np.random.SeedSequence(path)
            with pytest.raises(ValueError, match="^expected non-negative integer$"):
                seed_table(*path)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            seed_table(3, np.array([0, -1]))

    def test_default_run_responds_without_default_rng(self, monkeypatch):
        calls, responding = [], []
        default_rng, respond = np.random.default_rng, pipeline._respond

        def rng_spy(*args, **kwargs):
            calls.append(bool(responding))
            return default_rng(*args, **kwargs)

        def respond_spy(*args, **kwargs):
            responding.append(True)
            try:
                return respond(*args, **kwargs)
            finally:
                responding.pop()

        monkeypatch.setattr(np.random, "default_rng", rng_spy)
        monkeypatch.setattr(pipeline, "_respond", respond_spy)
        _, _, runs = run_pipeline(PipelineConfig(), write=False)
        assert len(runs) == 54 and len(runs[0].sweep_responses) == 19
        assert True not in calls
        # synth, select, assign and place seed or pass on a generator of their own
        assert len(calls) <= 5 * len(runs)


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
        chip = synth_chip(get_preset("zybo"), runs[0].seeds["synth"], device_id=runs[0].device_id)
        assert runs[0].plan.layout is chip.layout  # the family's shared layout, not the chip

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

    @pytest.mark.parametrize("block", [1, 2])
    def test_block_chips_freed_before_next_block(self, tmp_path, monkeypatch, block):
        # with the cyclic collector off, a chip is gone only once nothing
        # refers to it: at each synth, only the current block's earlier
        # chips may still be alive
        live = weakref.WeakSet()
        counts = []
        synth = pipeline.synth_chip

        def spy(*args, **kwargs):
            counts.append(len(live))
            chip = synth(*args, **kwargs)
            live.add(chip)
            return chip

        monkeypatch.setattr(pipeline, "synth_chip", spy)
        monkeypatch.setattr(pipeline, "_BLOCK_DEVICES", block)
        gc.disable()
        try:
            run_pipeline(tiny_config(tmp_path, devices=5), write=False)
        finally:
            gc.enable()
        assert counts == [i % block for i in range(5)]

    def test_run_device_is_run_pipelines_device(self, tmp_path):
        config = tiny_config(tmp_path)
        _, _, runs = run_pipeline(config, write=False)
        for i, want in enumerate(runs):
            got = pipeline.run_device(config, i)
            assert got.seeds == want.seeds
            assert got.selection_json == want.selection_json
            assert np.array_equal(got.golden.bits, want.golden.bits)
            assert len(got.sweep_responses) == len(want.sweep_responses) == 5
            for g, w in zip(got.sweep_responses, want.sweep_responses):
                assert g.env == w.env
                assert np.array_equal(g.bits, w.bits)

    @pytest.mark.parametrize("size", ["tiny", "default"])
    def test_written_run_leaves_numpy_ma_unimported(self, tmp_path, size):
        # numpy's np.unique without return_index imports numpy.ma; no stage
        # of a run needs it, so a fresh interpreter never loads it.  Some
        # numpy paths depend on the input size, so the default basys3 M = 32
        # run is checked as well as the tiny one.
        config = (tiny_config(tmp_path) if size == "tiny"
                  else PipelineConfig(out_dir=str(tmp_path / "run")))
        script = (
            "import sys\n"
            "from ropufsim.pipeline import PipelineConfig, run_pipeline\n"
            f"run_pipeline(PipelineConfig.from_json({config.to_json()!r}))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(pipeline.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert (Path(config.out_dir) / "manifest.json").exists()
        assert out.stdout.strip() == "False"

    def test_stage_times_logged_at_debug(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="ropufsim")
        run_pipeline(tiny_config(tmp_path))
        # the helper thread's seconds and the write stage's wait for it come first
        tree, *stages = caplog.messages
        assert re.fullmatch(r"run of 3 devices: tree made in \d+\.\d{4} host s on a helper "
                            r"thread; write waited \d+\.\d{4} host s for it", tree)
        logged = [re.fullmatch(r"run of 3 devices: stage (\S+) +\d+\.\d{4} host s", m)
                  for m in stages]
        assert [m[1] for m in logged] == list(WRITTEN_STAGES)
        caplog.clear()
        run_pipeline(tiny_config(tmp_path), write=False)
        assert len(caplog.messages) == len(STAGES) - 1  # no write stage
        caplog.clear()
        sweep_kappa(tiny_config(tmp_path), write=False)
        sweep_m(tiny_config(tmp_path), write=False)
        bench(tiny_config(tmp_path))
        # bench times device 0's chain: its seeds, pool, kmeans and relocation
        assert [re.search(r"stage (\S+) ", m)[1] for m in caplog.messages] == [
            *STAGES[:10], *STAGES[:10], *STAGES[:6]]

    def test_micd_trace_same_with_and_without_files(self, tmp_path):
        config = tiny_config(tmp_path)
        run_pipeline(config)
        _, _, runs = run_pipeline(config, write=False)
        for i, run in enumerate(runs):
            selection = json.loads(
                (Path(config.out_dir) / f"device_{i:03d}" / "selection.json").read_text()
            )
            trace = selection["kmeans"]["micd_trace"]
            assert trace == run.kmeans.micd_trace
            assert len(trace) == run.kmeans.iterations
            assert all(x >= 0 for x in trace)

    def test_responses_count_over_default_window(self, tmp_path):
        # a 0.1 us window quantizes counts to 10 MHz, so it flips bits that
        # the default 122.87 us window resolves
        config = tiny_config(tmp_path, devices=1, ro_count=16)
        _, _, (run,) = run_pipeline(config, write=False)
        assert device_profile(config, 0).t_on_us == DEFAULT_T_ON_US
        chip = synth_chip(get_preset("zybo"), run.seeds["synth"], device_id=run.device_id)

        def golden(**window):
            rng = np.random.default_rng(int(seed_table(run.seeds["response"], 0, 0)))
            return generate_response(
                run.plan, chip, pipeline._shared_lfsr_seed(config), REFERENCE_ENV,
                rng=rng, **window,
            ).bits

        assert np.array_equal(run.golden.bits, golden())
        assert np.array_equal(run.golden.bits, golden(t_on_us=DEFAULT_T_ON_US))
        assert not np.array_equal(run.golden.bits, golden(t_on_us=0.1))

    def test_pool_rejects_at_default_threshold(self, tmp_path):
        config = tiny_config(tmp_path)
        _, _, runs = run_pipeline(config, write=False)
        for i, run in enumerate(runs):
            clean = reject_erroneous(device_profile(config, i), threshold=DEFAULT_THRESHOLD)
            assert (run.kept_sites, run.rejected) == (clean.z_bar, clean.rejected_count)
            assert run.rejected > 0

    def test_pool_order_is_stable_sort_of_means_with_ties(self, tmp_path, monkeypatch):
        # S1 rounded to multiples of 4096 counts: long runs of equal means
        # at sites scattered over the fabric
        def tied(chip, m, rng):
            prof = characterize(chip, m=m, rng=rng)
            s1 = np.rint(prof.sum_count / 4096) * 4096
            s2 = np.maximum(prof.sum_count_sq, -(-(s1 * s1) // m))
            return FrequencyProfile(prof.site_refs, s1, s2, m, prof.t_on_us)

        monkeypatch.setattr(pipeline, "characterize", tied)
        config = tiny_config(tmp_path)
        table = pipeline._SeedTable(config.global_seed, [0], [], 0)
        pool, prof = pipeline._candidate_pool(config, table, 0, pipeline._device_spec(config),
                                              pipeline._StageTimes())
        kept = reject_erroneous(prof).kept
        mean = kept.mean
        _, first, counts = np.unique(mean, return_index=True, return_counts=True)
        tied_runs = counts > 1
        assert tied_runs.sum() > 10 and counts.max() > 20
        # the largest tie holds sites that are not neighbours in site order
        assert np.any(np.diff(np.flatnonzero(mean == mean[first[np.argmax(counts)]])) > 1)
        order = np.argsort(mean, kind="stable")
        assert pool.nu.tobytes() == mean[order].tobytes()
        assert pool.nu_refs.tolist() == kept.site_refs[order].tolist()

    def test_kmeans_runs_default_iteration_limit(self, tmp_path, monkeypatch):
        configs = []
        batched = pipeline.batched_kmeans

        def spy(freqs, cfgs, refs):
            configs.extend(cfgs)
            return batched(freqs, cfgs, refs)

        monkeypatch.setattr(pipeline, "batched_kmeans", spy)
        _, _, runs = run_pipeline(tiny_config(tmp_path), write=False)
        assert len(configs) == len(runs) == 3
        assert {c.k_max for c in configs} == {select.SelectionConfig(8).k_max} == {100}
        assert all(run.kmeans.iterations <= 100 for run in runs)

    def test_reference_kmeans_bits_pinned(self):
        # the chosen sites and both traces of all 54 K-means results of the
        # default run, every float by its hex form; pinned before the snap and
        # the MICD moved into one pass of the EM log
        config = PipelineConfig()
        [kms] = pipeline._chain(config, [config.ro_count], range(config.devices),
                                lambda _, sel: sel.kmeans, pipeline._StageTimes())
        h = hashlib.sha256()
        for km in kms:
            h.update(" ".join(map(str, km.refs.tolist())).encode() + b"\n")
            for trace in (km.min_diff_trace, km.micd_trace):
                h.update(" ".join(map(float.hex, trace)).encode() + b"\n")
        assert len(kms) == 54
        assert h.hexdigest() == "924db82f4eb94b5b02e78973b047e02c243b9a361e8dc6233715d00adedd2052"

    def test_every_device_shares_one_lfsr_seed(self, tmp_path):
        config = tiny_config(tmp_path)
        _, _, runs = run_pipeline(config, write=False)
        period = (1 << challenge_width(config.ro_count)) - 1
        want = int(seed_table(config.global_seed, 10_000, pipeline.STAGE_LFSR)) % period + 1
        assert {r.challenge_seed for run in runs for r in (run.golden, *run.sweep_responses)} \
            == {want}
        other = pipeline._shared_lfsr_seed(tiny_config(tmp_path, global_seed=6))
        assert 1 <= other <= period

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

    def test_manifest_health_fields(self, tmp_path):
        config = tiny_config(tmp_path)
        _, _, runs = run_pipeline(config)
        manifest = json.loads((Path(config.out_dir) / "manifest.json").read_text())
        assert manifest["format_version"] == 3
        assert set(manifest["config"]) == {
            "preset", "devices", "ro_count", "kappa", "seeding", "samples", "temps", "volts",
            "env_mode", "global_seed", "workers", "out_dir", "device_spec_file",
        }
        for i, (entry, run) in enumerate(zip(manifest["devices"], runs)):
            characterized = len(device_profile(config, i))
            assert entry["excluded_sites"] + characterized == 3520  # zybo sites
            assert entry["excluded_sites"] == run.excluded_sites > 0
            assert entry["rejected"] + entry["kept_sites"] == characterized
            assert entry["kmeans_iterations"] == run.kmeans.iterations > 0
            assert entry["relocation_iterations"] == run.relocated.iterations

    def test_written_run_leaves_no_strings_on_the_shared_layout(self, tmp_path):
        # profile rows come from characterize's row template, so the
        # family's shared layout keeps its per-site arrays alone
        run_pipeline(tiny_config(tmp_path, preset="basys3", devices=1))
        layout = build_fabric(get_preset("basys3"))
        assert len(layout) == 5696
        assert {name: type(v) for name, v in vars(layout).items()
                if not (isinstance(v, np.ndarray) and v.dtype.kind in "biuf")} == {}

    def test_profiles_reingest_exactly(self, tmp_path):
        # each device's profile.csv gives back its characterization's means
        # and sigmas bit for bit, so the run's threshold keeps the same sites
        config = tiny_config(tmp_path)
        _, _, runs = run_pipeline(config)
        for i, run in enumerate(runs):
            back = ingest_csv(str(Path(config.out_dir) / f"device_{i:03d}" / "profile.csv"))
            prof = device_profile(config, i)
            assert np.array_equal(back.nominal_freq, prof.mean)
            assert np.array_equal(back.meas_sigma_site, prof.sigma)
            kept = prof.site_refs[back.meas_sigma_site / back.nominal_freq <= DEFAULT_THRESHOLD]
            assert np.array_equal(kept, reject_erroneous(prof).kept.site_refs)
            assert len(kept) == run.kept_sites

    def test_golden_bits_equal_sweep_row_at_its_kappa(self, tmp_path, monkeypatch):
        # run and sweep-kappa seed assign, place and respond from the ratio's
        # grid index, so run's golden responses are its ratio's sweep row
        suites = []

        def spy(bits, *args, **kwargs):
            suites.append(np.array(bits))
            return suite(bits, *args, **kwargs)

        suite = pipeline.run_suite
        monkeypatch.setattr(pipeline, "run_suite", spy)
        for kappa in (0.0, 0.5, 1.0):
            suites.clear()
            config = tiny_config(tmp_path, kappa=kappa, devices=4)
            sweep_kappa(config, write=False)
            _, _, runs = run_pipeline(config, write=False)
            index = pipeline.valid_kappas(config.ro_count).index(kappa)
            assert np.array_equal(suites[-1], suites[index])
            assert np.array_equal(np.stack([r.golden.bits for r in runs]), suites[index])

    def test_no_profile_outlives_a_run(self, tmp_path):
        # each profile is written, when at all, as soon as its pool is built;
        # nothing a verb returns holds one
        def live_profiles():
            gc.collect()
            return [o for o in gc.get_objects() if isinstance(o, FrequencyProfile)]

        before = live_profiles()
        config = tiny_config(tmp_path)
        results = [run_pipeline(config), run_pipeline(config, write=False),
                   sweep_kappa(config, write=False), sweep_m(config, write=False)]
        assert len(results[0][2]) == config.devices
        assert [o for o in live_profiles() if not any(o is b for b in before)] == []

    def test_workers_other_than_one_rejected(self, tmp_path, synth_calls, capsys):
        # there is no process pool: a run is one process whatever the config
        with pytest.raises(ConfigError, match=r"^workers must be 1, as devices run in "
                                              r"blocks in one process, got 2$"):
            run_pipeline(tiny_config(tmp_path, workers=2))
        assert synth_calls == []
        with pytest.raises(SystemExit):
            main(["run", "--workers", "2", "--out", str(tmp_path / "cli")])
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def tree_snapshot(root: Path) -> dict:
    """Every path under ``root``, with a file's bytes and None for a directory."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


class TestTreeOnHelperThread:
    """A written run makes out_dir first and the tree's directories and empty
    files on a helper thread; a failed run leaves no trace and no thread."""

    @pytest.fixture(autouse=True)
    def no_thread_left(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @pytest.fixture
    def bad_spec(self, tmp_path) -> str:
        # draws a non-positive nominal frequency, so the chain raises at synth
        spec_file = tmp_path / "device.json"
        spec_file.write_text(json.dumps({"preset": "zybo", "mean_freq_base": 10.0}))
        return str(spec_file)

    @pytest.fixture
    def fails_in_second_block(self, monkeypatch):
        """Blocks of 2 devices, and a relocation that raises in the second
        block, once the first block's profiles are staged."""
        relocate = pipeline.relocate_centroids
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            if len(calls) > 2:
                raise RuntimeError("relocation failed in the second block")
            return relocate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "_BLOCK_DEVICES", 2)
        monkeypatch.setattr(pipeline, "relocate_centroids", spy)

    @pytest.fixture
    def fails_in_write_stage(self, monkeypatch):
        """A save_responses that raises on device 1, once the writer has
        written the manifest and device 0's files."""
        save = pipeline.save_responses

        def spy(path, sets):
            if "device_001" in path:
                raise RuntimeError("save_responses failed on device 1")
            save(path, sets)

        return lambda: monkeypatch.setattr(pipeline, "save_responses", spy)

    def staged(self, root: Path) -> dict:
        return {p.relative_to(root): p.stat().st_size for p in root.rglob("profile.csv.part")}

    def test_tiny_tree_has_no_empty_file(self, tmp_path):
        config = tiny_config(tmp_path)
        run_pipeline(config)
        files = [p for p in Path(config.out_dir).rglob("*") if p.is_file()]
        assert len(files) == 1 + 4 * config.devices + 4
        assert [p for p in files if p.stat().st_size == 0] == []
        assert list(Path(config.out_dir).rglob("*.part")) == []

    def test_tiny_tree_has_no_executable_file(self, tmp_path):
        config = tiny_config(tmp_path)
        umask = os.umask(0o022)
        try:
            run_pipeline(config)
        finally:
            os.umask(umask)
        modes = {p.relative_to(config.out_dir): stat.S_IMODE(p.stat().st_mode)
                 for p in Path(config.out_dir).rglob("*") if p.is_file()}
        assert len(modes) == 1 + 4 * config.devices + 4
        assert {p: oct(m) for p, m in modes.items() if m & 0o111} == {}

    @pytest.mark.parametrize("verb", [run_pipeline, sweep_kappa, sweep_m],
                             ids=["run", "sweep-kappa", "sweep-m"])
    def test_verb_removes_every_killed_verbs_staged_files(self, tmp_path, monkeypatch, verb):
        # a six-device run killed after staging left its directories and
        # every staged file, device_003/ to device_005/ and reports/ included,
        # and each killed sweep its staged CSV
        monkeypatch.chdir(tmp_path)
        out = Path("run")
        for rel in [*pipeline._run_paths(6), "kappa_sweep.csv", "m_sweep.csv"]:
            if rel.endswith("/"):
                (out / rel).mkdir(parents=True)
            else:
                (out / (rel + ".part")).write_text("staged by a killed verb")
        verb(tiny_config(tmp_path, out_dir="run"))
        assert list(out.rglob("*.part")) == []
        if verb is run_pipeline:
            assert tree_sha256(out) == TINY_RUN_SHA256
        # the same tree, directories included, as the verb writes into an empty directory
        (tmp_path / "fresh").mkdir()
        monkeypatch.chdir(tmp_path / "fresh")
        verb(tiny_config(tmp_path, out_dir="run"))
        assert tree_snapshot(tmp_path / "fresh" / "run") == tree_snapshot(tmp_path / "run")

    @pytest.mark.parametrize("verb", [run_pipeline, sweep_kappa, sweep_m],
                             ids=["run", "sweep-kappa", "sweep-m"])
    def test_artifact_names_cover_everything_a_verb_writes(self, tmp_path, verb):
        # so every other verb removes what this one leaves staged when killed
        config = tiny_config(tmp_path)
        verb(config)
        root = Path(config.out_dir)
        written = [p.relative_to(root).as_posix() + "/" * p.is_dir() for p in root.rglob("*")]
        assert written
        assert [rel for rel in written if not any(
            fnmatch.fnmatchcase(rel, name) for name in pipeline._ARTIFACT_NAMES)] == []

    def test_chain_waits_for_a_slow_helper(self, tmp_path, monkeypatch, caplog):
        # the helper starts late, so the chain reaches device 0's staged
        # profile before the thread has made it, and waits; thread switches
        # are forced often so that the two threads interleave finely
        make = pipeline._Tree.run

        def late(self):
            time.sleep(0.2)
            make(self)

        monkeypatch.setattr(pipeline._Tree, "run", late)
        monkeypatch.chdir(tmp_path)
        caplog.set_level(logging.DEBUG, logger="ropufsim")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.perf_counter()
            run_pipeline(tiny_config(tmp_path, out_dir="run"))
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - t0 < 30.0
        assert tree_sha256(Path("run")) == TINY_RUN_SHA256
        write = [float(m.split()[-3]) for m in caplog.messages if " stage write " in m]
        assert write[0] > 0.1  # device 0's profile waited for the thread

    def test_failed_run_after_staging_leaves_no_out_dir(self, tmp_path, monkeypatch,
                                                        fails_in_second_block):
        config = tiny_config(tmp_path, out_dir=str(tmp_path / "new" / "run"))
        seen = []
        export = pipeline.export_profile_csv

        def spy(layout, prof, path):
            export(layout, prof, path)
            seen.append(self.staged(Path(config.out_dir)))

        monkeypatch.setattr(pipeline, "export_profile_csv", spy)
        with pytest.raises(RuntimeError, match="second block"):
            run_pipeline(config)
        # all three devices' profiles were staged, none of them empty
        assert len(seen) == config.devices
        assert len(seen[-1]) == config.devices and all(seen[-1].values())
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_after_staging_leaves_earlier_tree_as_it_was(
            self, tmp_path, fails_in_second_block):
        config = tiny_config(tmp_path, devices=2)
        run_pipeline(config)
        before = tree_snapshot(Path(config.out_dir))
        with pytest.raises(RuntimeError, match="second block"):
            run_pipeline(replace(config, devices=3))
        assert tree_snapshot(Path(config.out_dir)) == before

    def test_failed_write_stage_leaves_earlier_tree_as_it_was(self, tmp_path,
                                                              fails_in_write_stage):
        # an earlier seed's tree: every file of the failed run differs from it
        config = tiny_config(tmp_path)
        run_pipeline(replace(config, global_seed=4))
        before = tree_snapshot(Path(config.out_dir))
        fails_in_write_stage()
        with pytest.raises(RuntimeError, match="device 1"):
            run_pipeline(config)
        assert tree_snapshot(Path(config.out_dir)) == before

    def test_failed_write_stage_leaves_no_out_dir(self, tmp_path, fails_in_write_stage):
        config = tiny_config(tmp_path, out_dir=str(tmp_path / "new" / "run"))
        fails_in_write_stage()
        with pytest.raises(RuntimeError, match="device 1"):
            run_pipeline(config)
        assert list(tmp_path.iterdir()) == []

    def test_unusable_out_dir_fails_before_device_work(self, tmp_path, synth_calls, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "out"
        with pytest.raises(NotADirectoryError) as info:
            run_pipeline(tiny_config(tmp_path, out_dir=str(out)))
        assert info.value.filename == str(out)
        assert main(["run", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"ropuf run: {out}: Not a directory\n"
        assert synth_calls == []
        assert afile.read_bytes() == b""

    def test_failed_chain_leaves_no_out_dir(self, tmp_path, bad_spec):
        config = tiny_config(tmp_path, out_dir=str(tmp_path / "new" / "run"),
                             device_spec_file=bad_spec)
        with pytest.raises(ConfigError, match="drew a nominal frequency"):
            run_pipeline(config)
        assert [p.name for p in tmp_path.iterdir()] == ["device.json"]

    def test_failed_chain_leaves_earlier_tree_as_it_was(self, tmp_path, bad_spec):
        config = tiny_config(tmp_path, devices=2)
        run_pipeline(config)
        before = tree_snapshot(Path(config.out_dir))
        # a larger population's tree would add device_002/ and device_003/
        with pytest.raises(ConfigError, match="drew a nominal frequency"):
            run_pipeline(replace(config, devices=4, device_spec_file=bad_spec))
        assert tree_snapshot(Path(config.out_dir)) == before

    def test_regular_file_in_tree_raises_naming_it(self, tmp_path, capsys):
        config = tiny_config(tmp_path, devices=4)
        root = Path(config.out_dir)
        root.mkdir()
        (root / "device_003").write_text("not a directory")
        with pytest.raises(OSError, match=re.escape(str(root / "device_003"))):
            run_pipeline(config)
        assert tree_snapshot(root) == {Path("device_003"): b"not a directory"}
        (tmp_path / "tiny.json").write_text(config.to_json())
        assert main(["run", "--config", str(tmp_path / "tiny.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ropuf run: {root / 'device_003'}") and err.count("\n") == 1
        assert tree_snapshot(root) == {Path("device_003"): b"not a directory"}

    def test_regular_file_at_a_device_directory_fails_before_commit(
            self, tmp_path, monkeypatch, capsys):
        # a regular file standing at an earlier tree's device directory fails
        # the run, naming that path, before commit, and the earlier tree stays
        # as it was
        config = tiny_config(tmp_path)
        run_pipeline(replace(config, global_seed=4))
        root = Path(config.out_dir)
        device = root / "device_001"
        shutil.rmtree(device)
        device.write_text("not a directory")
        before = tree_snapshot(root)
        commits = []
        commit = pipeline._Tree.commit

        def spy(tree):
            commits.append(tree)
            commit(tree)

        monkeypatch.setattr(pipeline._Tree, "commit", spy)
        with pytest.raises(NotADirectoryError) as info:
            run_pipeline(config)
        assert info.value.filename == str(device)
        assert commits == []
        assert tree_snapshot(root) == before
        (tmp_path / "tiny.json").write_text(config.to_json())
        assert main(["run", "--config", str(tmp_path / "tiny.json")]) == 2
        assert capsys.readouterr().err == f"ropuf run: {device}: Not a directory\n"
        assert commits == []
        assert tree_snapshot(root) == before
        assert list(root.rglob("*.part")) == []

    def test_directory_at_a_file_name_fails_before_commit(self, tmp_path):
        # commit could not rename a staged file onto a directory, so the run
        # fails before it and leaves the earlier tree as it was
        config = tiny_config(tmp_path)
        run_pipeline(replace(config, global_seed=4))
        selection = Path(config.out_dir) / "device_001" / "selection.json"
        selection.unlink()
        selection.mkdir()
        before = tree_snapshot(Path(config.out_dir))
        with pytest.raises(IsADirectoryError) as info:
            run_pipeline(config)
        assert info.value.filename == str(selection)
        assert tree_snapshot(Path(config.out_dir)) == before


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

    def test_kappa_sweep_ignores_config_kappa(self, tmp_path):
        # the sweep judges every ratio, so a config's kappa is never read,
        # even one off every grid
        config = json.loads(tiny_config(tmp_path).to_json())
        del config["kappa"]
        texts = []
        for name, extra in (("plain", {}), ("off_grid", {"kappa": 0.3})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**config, **extra, "out_dir": str(tmp_path / name)}))
            assert main(["sweep-kappa", "--config", str(path)]) == 0
            texts.append((tmp_path / name / "kappa_sweep.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_m_sweep_pinned_with_one_pool_per_device(self, tmp_path, synth_calls):
        # m_sweep.csv of a 6-device zybo sweep, whose min-diff and r_avg
        # columns follow the characterized means; each device is synthesized once
        out = tmp_path / "m"
        assert main(["sweep-m", "--preset", "zybo", "--devices", "6", "--seed", "3",
                     "--out", str(out)]) == 0
        assert hashlib.sha256((out / "m_sweep.csv").read_bytes()).hexdigest() == (
            "5805f0c3bd1abf4e3ef40b20c975861ad41304d1a22d1465e86343193aac2498"
        )
        assert len(synth_calls) == 6

    @pytest.mark.parametrize("verb, sweep", [("sweep-kappa", sweep_kappa), ("sweep-m", sweep_m)])
    def test_unusable_out_dir_fails_before_device_work(self, tmp_path, synth_calls, capsys,
                                                       verb, sweep):
        afile = tmp_path / "afile"
        afile.write_text("")
        out = afile / "out"
        with pytest.raises(NotADirectoryError) as info:
            sweep(tiny_config(tmp_path, out_dir=str(out)))
        assert info.value.filename == str(out)
        assert main([verb, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"ropuf {verb}: {out}: Not a directory\n"
        assert synth_calls == []
        assert afile.read_bytes() == b""

    @pytest.mark.parametrize("sweep, csv", [(sweep_kappa, "kappa_sweep.csv"),
                                            (sweep_m, "m_sweep.csv")])
    def test_sweep_replaces_earlier_csv(self, tmp_path, sweep, csv):
        config = tiny_config(tmp_path, out_dir=str(tmp_path / "sweep"))
        sweep(replace(config, global_seed=4))
        earlier = (tmp_path / "sweep" / csv).read_bytes()
        sweep(config)
        assert [p.name for p in (tmp_path / "sweep").iterdir()] == [csv]
        text = (tmp_path / "sweep" / csv).read_bytes()
        assert text != earlier
        sweep(replace(config, out_dir=str(tmp_path / "fresh")))
        assert (tmp_path / "fresh" / csv).read_bytes() == text

    @pytest.mark.parametrize("sweep", [sweep_kappa, sweep_m])
    def test_failed_sweep_leaves_earlier_csv_as_it_was(self, tmp_path, monkeypatch, sweep):
        config = tiny_config(tmp_path, out_dir=str(tmp_path / "sweep"))
        sweep(replace(config, global_seed=4))
        before = tree_snapshot(tmp_path / "sweep")

        def fail(*args):  # the CSV's rows are formatted after all device work
            raise RuntimeError("formatting failed")

        monkeypatch.setattr(pipeline, "format_rate", fail)
        with pytest.raises(RuntimeError, match="formatting failed"):
            sweep(config)
        assert tree_snapshot(tmp_path / "sweep") == before

    @pytest.mark.parametrize("sweep", [sweep_kappa, sweep_m])
    def test_failed_sweep_leaves_no_out_dir(self, tmp_path, sweep):
        # draws a non-positive nominal frequency, so the chain raises at synth
        spec_file = tmp_path / "device.json"
        spec_file.write_text(json.dumps({"preset": "zybo", "mean_freq_base": 10.0}))
        config = tiny_config(tmp_path, out_dir=str(tmp_path / "new" / "sweep"),
                             device_spec_file=str(spec_file))
        with pytest.raises(ConfigError, match="drew a nominal frequency"):
            sweep(config)
        assert [p.name for p in tmp_path.iterdir()] == ["device.json"]

    def test_kappa_zero_identical_ones_count(self, tmp_path):
        # ordered-only assignment leaves the multiset of compared rank pairs
        # fixed, so every device's golden response has the same weight +-1
        config = tiny_config(tmp_path, devices=4, ro_count=16, kappa=0.0)
        from ropufsim.pipeline import run_device

        weights = []
        for i in range(4):
            run = run_device(config, i)
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

    def test_bench_times_device_zero_chain(self, tmp_path, synth_calls):
        config = tiny_config(tmp_path, ro_count=16)
        report = bench(config)
        assert len(synth_calls) == 1
        run = pipeline.run_device(config, 0)
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


class TestCli:
    @pytest.mark.parametrize("seeding", ["kmeanspp", "random"])
    def test_removed_seeding_exits_2_naming_seeding(self, tmp_path, capsys, synth_calls, seeding):
        out = tmp_path / "cli"
        rc = main(["run", "--preset", "zybo", "--devices", "1", "--seeding", seeding,
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "ropuf run: seeding must be one of ['linear', 'uniform_density', 'random_select'], "
            f"got {seeding!r}\n")
        assert synth_calls == []
        assert not out.exists()

    def test_bench_has_no_kmeans_scaling_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--kmeans-scaling", "500,2000"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kmeans-scaling" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, flag", [
        # bench always runs device 0's chain to relocation and writes nothing
        *(("bench", flag) for flag in (["--devices", "1"], ["--kappa", "1.0"],
                                       ["--env-mode", "cross"], ["--out", "X"])),
        # sweep-kappa judges golden responses at every ratio
        ("sweep-kappa", ["--kappa", "0.25"]), ("sweep-kappa", ["--env-mode", "cross"]),
        # sweep-m runs every M
        ("sweep-m", ["--ro-count", "64"]), ("sweep-m", ["--ro-count", "12"]),
    ])
    def test_verb_rejects_flags_it_does_not_read(self, verb, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_run_verb(self, tmp_path, capsys):
        out = tmp_path / "cli_run"
        rc = main([
            "run", "--preset", "zybo", "--devices", "2", "--ro-count", "8",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        assert (out / "manifest.json").exists()
        assert "reliability" in capsys.readouterr().out

    def test_run_verbose_logs_stage_times_to_stderr_only(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = ["run", "--preset", "zybo", "--devices", "3", "--ro-count", "8", "--seed", "5",
                "--out", "run", "--config", "tiny.json"]
        config = tiny_config(tmp_path, out_dir="run")
        Path("tiny.json").write_text(config.to_json())
        assert main([*args, "-v"]) == 0
        err = capsys.readouterr().err
        assert re.findall(r"stage (\S+) ", err) == list(WRITTEN_STAGES)
        assert tree_sha256(Path("run")) == TINY_RUN_SHA256
        assert main(args) == 0  # the logger is quiet again
        assert capsys.readouterr().err == ""
        assert not logging.getLogger("ropufsim").handlers

    def test_sweep_kappa_verb(self, tmp_path, capsys):
        rc = main([
            "sweep-kappa", "--preset", "zybo", "--devices", "2", "--ro-count", "8",
            "--seed", "3", "--out", str(tmp_path / "cli_sweep"),
        ])
        assert rc == 0
        assert "full-pass" in capsys.readouterr().out

    def test_bench_verb(self, capsys):
        rc = main(["bench", "--preset", "zybo", "--ro-count", "8"])
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

    def test_sweep_m_config_error_names_its_m(self, tmp_path, synth_calls, capsys):
        # every M's config is checked before any device work, and the ratio
        # 0.375 is off the M = 8 grid
        out = tmp_path / "cli_sweep_m"
        assert main(["sweep-m", "--kappa", "0.375", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "ropuf sweep-m: ro_count 8: kappa must be one of [0.0, 0.5, 1.0], got 0.375\n"
        )
        assert synth_calls == []
        assert not out.exists()

    def test_inexact_moments_exit_2_naming_samples(self, tmp_path, capsys):
        # 3000 samples of a count near 5e4 square beyond 2**53
        rc = main(["run", "--preset", "zybo", "--devices", "1", "--ro-count", "8",
                   "--samples", "3000", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"ropuf run: t_on_us=\S+ with samples=3000 .*; take fewer samples\n",
                            err)

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

    def test_ingest_verb_on_run_profile(self, tmp_path, capsys):
        config = tiny_config(tmp_path, devices=1)
        _, _, (run,) = run_pipeline(config)
        rc = main(["ingest", str(Path(config.out_dir) / "device_000" / "profile.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        prof = device_profile(config, 0)
        sigma = prof.sigma
        assert f"sigma span {(sigma.max() - sigma.min()) * 1e3:.3f} kHz" in out
        assert (f"sigma/mean > 0.002 rejects {run.rejected} of {len(prof)} sites"
                in out)
        assert run.rejected > 0

    def test_malformed_ingest_exits_2_naming_line(self, tmp_path, capsys):
        csv = tmp_path / "chip.csv"
        csv.write_text("# samples=2\nclb_x,clb_y,corner,sum_count,sum_count_sq\n")
        assert main(["ingest", str(csv)]) == 2
        assert f"ropuf ingest: {csv}:2: " in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "clb_x,clb_y,corner,mhz_1\n0,0,TL,400.0\n1,0,TL,-3.0\n",
        "clb_x,clb_y,corner,mhz_1\n0,0,TL,400.0\n1,0,TL,nan\n",
        "clb_x,clb_y,corner,mhz_1\n0,0,TL,400.0\n1,0,TL,inf\n",
        "clb_x,clb_y,corner,class,mhz_1\n0,0,TL,L12,400.0\n1,0,TL,L,410.0\n",
    ], ids=["negative", "nan", "inf", "class"])
    def test_bad_mhz_or_class_ingest_exits_2_naming_line(self, tmp_path, capsys, text):
        csv = tmp_path / "chip.csv"
        csv.write_text(text)
        assert main(["ingest", str(csv)]) == 2
        err = capsys.readouterr().err
        assert f"ropuf ingest: {csv}:3: malformed row (" in err
        assert "Traceback" not in err

    def test_nist_verb_on_run_dump(self, tmp_path, capsys):
        out = tmp_path / "cli_run2"
        main([
            "run", "--preset", "zybo", "--devices", "2", "--ro-count", "8",
            "--seed", "3", "--out", str(out),
        ])
        rc = main(["nist", str(out / "device_000" / "responses.csv")])
        captured = capsys.readouterr().out
        assert "pass rate" in captured
        assert rc in (0, 1)  # tiny 15-bit dumps cannot pass the basic floor

    @pytest.mark.parametrize("data,where", [
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev,35,1000,zz\n",
         ":2: malformed response line"),
        (b"device_id,temp_c,vcc_mv,hexbits\ndev,35,1000,7fff\n", ":1: bad response dump header"),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\ndev\xff,35,1000,7fff\n", ":2: not UTF-8 text"),
        (b"device_id,temp_c,vcc_mv,hexbits(k=15)\n", ": no responses in dump\n"),
    ], ids=["hex", "header", "utf8", "empty"])
    def test_malformed_nist_dump_exits_2_naming_line(self, tmp_path, capsys, data, where):
        dump = tmp_path / "responses.csv"
        dump.write_bytes(data)
        assert main(["nist", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"ropuf nist: {dump}{where}")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_non_utf8_ingest_exits_2_naming_line(self, tmp_path, capsys):
        csv = tmp_path / "chip.csv"
        csv.write_bytes(b"clb_x,clb_y,corner,mhz_1\n0,0,TL,400.0\n1,0,TL,4\xff0.0\n")
        assert main(["ingest", str(csv)]) == 2
        assert capsys.readouterr().err == f"ropuf ingest: {csv}:3: not UTF-8 text\n"

    @pytest.mark.parametrize("verb", ["nist", "ingest"])
    def test_unreadable_file_exits_2_naming_path(self, tmp_path, capsys, verb):
        missing = tmp_path / "missing.csv"
        for path in (missing, tmp_path):  # no such file; a directory
            assert main([verb, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"ropuf {verb}: {path}: ")
            assert "Traceback" not in err

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

    @pytest.mark.parametrize("spec,message", [
        ({"preset": "zybo", "site_count": "10"}, "site_count must be an integer, got '10'"),
        ({"preset": "zybo", "meas_sigma": None}, "meas_sigma must be a finite number, got None"),
        ({"preset": "zybo", "temp_coeff_sigma": -1e-5},
         "temp_coeff_sigma must be non-negative, got -1e-05"),
        ({"preset": "nope"}, "unknown device preset 'nope'"),
        ({"preset": "zybo", "kind": "a,b"},
         "kind must be non-empty, without commas or whitespace, got 'a,b'"),
        ({"preset": "zybo", "kind": ""},
         "kind must be non-empty, without commas or whitespace, got ''"),
    ])
    def test_bad_device_spec_value_exits_2_naming_file_and_field(
        self, tmp_path, capsys, spec, message
    ):
        spec_file = tmp_path / "device.json"
        spec_file.write_text(json.dumps(spec))
        rc = main(["run", "--devices", "1", "--ro-count", "8",
                   "--device-spec", str(spec_file), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"ropuf run: {spec_file}: {message}" in capsys.readouterr().err

    def test_spec_drawing_non_positive_frequency_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "device.json"
        spec_file.write_text(json.dumps({"preset": "zybo", "mean_freq_base": 10.0}))
        rc = main(["run", "--devices", "1", "--ro-count", "8", "--seed", "3",
                   "--device-spec", str(spec_file), "--out", str(tmp_path / "out")])
        assert rc == 2
        seed = int(seed_table(3, 0, pipeline.STAGE_SYNTH))
        assert re.search(rf"^ropuf run: device spec 'zybo' drew a nominal frequency of "
                         rf"-\d+\.\d{{3}} MHz at device seed {seed}; ",
                         capsys.readouterr().err, re.M)

    def test_bad_config_file_exits_2_naming_file_and_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"devices": 3, "ro_cont": 8}')
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert f"{cfg_path}: unknown config key 'ro_cont'" in capsys.readouterr().err
        missing = tmp_path / "missing.json"
        assert main(["run", "--config", str(missing)]) == 2
        assert f"{missing}: " in capsys.readouterr().err


def load_perfbench(name):
    """A module of perfbench/, the benchmark, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerContract:
    """The benchmark's tracer wraps layer functions by module attribute and
    reads fields of what they return, and its repetitions build their
    configs by field name; a refactor must keep all three."""

    def test_every_wrapped_name_resolves(self):
        for module, attr, _ in load_perfbench("spans").WRAPPED:
            assert callable(getattr(importlib.import_module(module), attr)), (module, attr)

    def test_every_workload_config_validates(self, monkeypatch):
        rep = load_perfbench("rep")
        monkeypatch.setattr(sys, "path", list(sys.path))  # setup prepends src/
        configs = [made["config"] for made in (rep.setup(w, 2026) for w in rep.WORKLOADS)
                   if "config" in made]
        assert configs
        for config in configs:
            config.validate()
            assert config.workers == 1

    def test_traced_tiny_run_summarizes(self, tmp_path, monkeypatch):
        spans = load_perfbench("spans")
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
        assert layers["placement.randomize_placement.calls"] == config.devices
        assert layers["nist.run_suite.calls"] == 1
        assert 0.0 < layers["characterize.kept_ratio"] <= 1.0
        assert layers["pipeline.write.calls"] == 3 * config.devices
        assert layers["trace.wall_s"] > 0.0
