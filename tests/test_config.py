"""Campaign configuration: parsing, defaults, hashing, calibration wiring."""

import dataclasses
import math

import pytest
import yaml

from memlink.config import (
    CAL_BACKGROUND_RATE,
    CAL_DARK_A,
    CAL_DARK_B,
    CAL_DARK_MONITOR,
    CAL_DOUBLE_AMP_SCALE,
    DEFAULT_TRIALS,
    SCENARIOS,
    CampaignConfig,
    ConfigError,
    ExperimentBundle,
    calibrated_bundle,
    config_from_mapping,
    config_hash,
    config_to_mapping,
    load_config,
    save_config,
)


class TestCampaignConfig:
    def test_default_trials_resolution(self):
        for scenario in SCENARIOS:
            cfg = CampaignConfig(scenario=scenario)
            assert cfg.trials == DEFAULT_TRIALS[scenario]

    def test_bell_default_is_ten_million(self):
        assert CampaignConfig(scenario="bell").trials == 10_000_000

    def test_explicit_trials_kept(self):
        assert CampaignConfig(trials=123).trials == 123

    def test_default_seed(self):
        assert CampaignConfig().seed == 20260823

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig(scenario="warp")

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig(trials=0)
        with pytest.raises(ConfigError):
            CampaignConfig(seed=-1)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig(mode="fast")

    def test_bad_sweep_rejected(self):
        with pytest.raises(ConfigError):
            CampaignConfig(sweep_us=())
        with pytest.raises(ConfigError):
            CampaignConfig(sweep_us=(-5.0,))


class TestCalibratedBundle:
    def test_fitted_values_switched_in(self):
        b = calibrated_bundle()
        assert b.source.double_amp_scale == CAL_DOUBLE_AMP_SCALE
        assert b.channel.background_rate == CAL_BACKGROUND_RATE
        assert b.detection.det_monitor.dark_rate == CAL_DARK_MONITOR
        assert b.detection.det_a.dark_rate == CAL_DARK_A
        assert b.detection.dark_b == CAL_DARK_B

    def test_measured_values_untouched(self):
        b = calibrated_bundle()
        d = ExperimentBundle()
        assert b.source.chi == d.source.chi
        assert b.channel.fiber_loss_db == d.channel.fiber_loss_db
        assert b.eit == d.eit
        assert b.coherence == d.coherence

    def test_respects_custom_base(self):
        base = ExperimentBundle(
            source=dataclasses.replace(ExperimentBundle().source, chi=0.1))
        b = calibrated_bundle(base)
        assert b.source.chi == 0.1
        assert b.source.double_amp_scale == CAL_DOUBLE_AMP_SCALE

    @pytest.mark.parametrize("key", [
        "source.double_amp_scale", "channel.background_rate",
        "detectors.monitor.dark_rate", "detectors.node_a.dark_rate",
        "detectors.node_b.dark_rate"])
    def test_refuses_to_replace_a_configured_noise_value(self, key):
        raw = 0.05
        for part in reversed(key.split(".")):
            raw = {part: raw}
        base = config_from_mapping(raw).bundle
        with pytest.raises(ConfigError, match=f"{key} .*calibrated: false"):
            calibrated_bundle(base)


class TestMappingRoundTrip:
    def test_roundtrip_preserves_config(self, tmp_path):
        cfg = CampaignConfig(scenario="mains", trials=5000, seed=99,
                             sweep_us=(10.0, 20.0), mode="mc")
        path = tmp_path / "campaign.yaml"
        save_config(cfg, str(path))
        loaded = load_config(str(path))
        assert loaded.scenario == cfg.scenario
        assert loaded.trials == cfg.trials
        assert loaded.seed == cfg.seed
        assert loaded.sweep_us == cfg.sweep_us
        assert loaded.mode == cfg.mode
        assert loaded.bundle == cfg.bundle
        assert config_hash(loaded) == config_hash(cfg)

    def test_roundtrip_with_section_overrides(self, tmp_path):
        raw = {
            "scenario": "lifetime",
            "source": {"chi": 0.08, "phi0": 0.2},
            "coherence": {"t1_s": math.inf, "mains_synced": True},
            "detectors": {"node_a": {"eta_det": 0.2}},
        }
        cfg = config_from_mapping(raw)
        assert cfg.bundle.source.chi == 0.08
        assert cfg.bundle.coherence.t1_s == math.inf
        assert cfg.bundle.detection.det_a.eta_det == 0.2
        path = tmp_path / "roundtrip.yaml"
        save_config(cfg, str(path))
        assert load_config(str(path)).bundle == cfg.bundle

    def test_cli_overrides_win(self):
        raw = {"scenario": "bell", "trials": 100}
        cfg = config_from_mapping(raw, overrides={"trials": 500, "seed": 7})
        assert cfg.trials == 500
        assert cfg.seed == 7

    def test_none_overrides_ignored(self):
        cfg = config_from_mapping({"trials": 100}, overrides={"trials": None})
        assert cfg.trials == 100

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, "yes"])
    def test_calibrated_must_be_a_bool_or_null(self, value):
        # a quoted "false" is a truthy string that would switch the
        # calibrated bundle in
        with pytest.raises(ConfigError, match="calibrated"):
            config_from_mapping({"scenario": "lifetime",
                                 "calibrated": value})
        for ok in (True, False, None):
            cfg = config_from_mapping({"scenario": "lifetime",
                                       "calibrated": ok})
            assert cfg.calibrated is ok

    @pytest.mark.parametrize("key", ["trials", "seed"])
    @pytest.mark.parametrize("value", [2.7, 1.9, True, False, math.inf,
                                       math.nan])
    def test_counts_refuse_bools_and_fractions(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping({key: value})

    @pytest.mark.parametrize("key", ["trials", "seed"])
    def test_whole_float_counts_accepted(self, key):
        cfg = config_from_mapping({key: 1e6})
        assert getattr(cfg, key) == 1_000_000
        assert isinstance(getattr(cfg, key), int)

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"scneario": "bell"})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"source": {"chii": 0.05}})
        with pytest.raises(ConfigError):
            config_from_mapping({"detectors": {"node_c": {}}})

    def test_invalid_section_value_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"source": {"chi": 2.0}})

    @pytest.mark.parametrize("sweep, match", [
        ("[0, abc]", "sweep_us times must be numbers"),
        ("[0, .nan, 10]", "sweep_us times must be finite"),
        ("[0, .inf]", "sweep_us times must be finite"),
    ], ids=["non-numeric", "nan", "infinite"])
    def test_bad_sweep_entry_rejected(self, tmp_path, sweep, match):
        path = tmp_path / "campaign.yaml"
        path.write_text(f"scenario: lifetime\nsweep_us: {sweep}\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match=match):
            load_config(str(path))

    def test_non_mapping_section_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"source": [1, 2]})

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/campaign.yaml")

    def test_malformed_yaml_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_non_mapping_root_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = load_config(str(path))
        assert cfg.scenario == "bell"
        assert cfg.bundle == ExperimentBundle()


# (section path, key, a value the key once took): values no output read
REMOVED_KEYS = (
    [(("source",), "bias_field_gauss", 6.93e-3),
     (("eit",), "dephasing_rate_hz", 0.0)]
    + [(("timeline",), key, value) for key, value in (
        ("cycle_rate_hz", 10.0), ("prep_s", 0.097), ("window_s", 0.003),
        ("attempts_per_window", 25), ("distribution_delay_s", 103e-6),
        ("mains_synced", True))]
    + [(("detectors", node), key, value)
       for node in ("monitor", "node_a", "node_b")
       for key, value in (("window_s", 50e-9), ("labels", ["+", "-"]))]
    # node B's efficiency is the EIT readout chain, not a detector value
    + [(("detectors", "node_b"), "eta_det", 0.26830634148636107)]
)


class TestSyncConsistency:
    def test_contradictory_sync_rejected(self):
        # coherence.mains_synced is the only line-trigger flag, so a
        # timeline that contradicts it cannot be written at all
        raw = {
            "coherence": {"mains_synced": False},
            "timeline": {"mains_synced": True},
        }
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_mapping(raw)


class TestRemovedKeys:
    @pytest.mark.parametrize(
        "path,key,value", REMOVED_KEYS,
        ids=[".".join(path + (key,)) for path, key, _ in REMOVED_KEYS])
    def test_removed_key_rejected(self, tmp_path, path, key, value):
        raw = {key: value}
        for section in reversed(path):
            raw = {section: raw}
        cfg_path = tmp_path / "removed.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(str(cfg_path))


class TestConfigHash:
    def test_stable_across_calls(self):
        cfg = CampaignConfig()
        assert config_hash(cfg) == config_hash(CampaignConfig())

    def test_sensitive_to_physics(self):
        base = CampaignConfig()
        other = CampaignConfig(seed=base.seed + 1)
        assert config_hash(base) != config_hash(other)
        tweaked = config_from_mapping({"source": {"chi": 0.06}})
        assert config_hash(tweaked) != config_hash(base)

    def test_out_dir_excluded(self):
        a = CampaignConfig(out_dir="results")
        b = CampaignConfig(out_dir="elsewhere")
        assert config_hash(a) == config_hash(b)

    def test_mapping_contains_all_sections(self):
        mapping = config_to_mapping(CampaignConfig())
        for key in ("scenario", "trials", "seed", "source", "channel",
                    "coherence", "geometry", "eit", "detectors", "timeline"):
            assert key in mapping

    @pytest.mark.parametrize("mode", ("auto", "analytic", "mc"))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_c_emitter_writes_safe_dump_text(self, scenario, mode):
        if not hasattr(yaml, "CSafeDumper"):
            pytest.skip("PyYAML built without libyaml")
        for bundle in (ExperimentBundle(), calibrated_bundle()):
            mapping = config_to_mapping(CampaignConfig(
                scenario=scenario, mode=mode, bundle=bundle))
            assert (yaml.dump(mapping, Dumper=yaml.CSafeDumper,
                              sort_keys=True)
                    == yaml.safe_dump(mapping, sort_keys=True))

    def test_hash_without_libyaml_is_the_same(self, monkeypatch):
        configs = [CampaignConfig(scenario=s, bundle=calibrated_bundle())
                   for s in SCENARIOS] + [CampaignConfig()]
        hashes = [config_hash(cfg) for cfg in configs]
        monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
        assert [config_hash(cfg) for cfg in configs] == hashes
