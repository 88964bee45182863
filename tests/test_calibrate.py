"""Noise-parameter fitting against the measured figures of merit."""

import dataclasses
import math

import numpy as np
import pytest

from memlink import calibrate as cal
from memlink import detection, memory_a, source
from memlink.config import (CAL_BACKGROUND_RATE, CAL_DARK_A, CAL_DARK_B,
                            CAL_DARK_MONITOR, CAL_DOUBLE_AMP_SCALE,
                            NOISE_PARAMS, ConfigError, ExperimentBundle,
                            calibrated_bundle)


class TestForwardModel:
    def test_calibrated_model_reproduces_targets(self):
        preds = cal.model_predictions(calibrated_bundle(ExperimentBundle()))
        np.testing.assert_allclose(preds["g2_source"], 14.200000050620021,
                                   rtol=1e-9)
        np.testing.assert_allclose(preds["g2_transferred"],
                                   13.200188738128736, rtol=1e-9)
        np.testing.assert_allclose(preds["g2_stored"], 12.597655764953629,
                                   rtol=1e-9)
        np.testing.assert_allclose(preds["chsh"], 2.508476224825978,
                                   rtol=1e-9)
        np.testing.assert_allclose(preds["fidelity"], 0.9188050994963761,
                                   rtol=1e-9)

    def test_prediction_keys_cover_default_targets(self):
        preds = cal.model_predictions(ExperimentBundle())
        assert set(preds) == set(cal.DEFAULT_TARGETS)

    def test_uncalibrated_model_shows_less_noise(self):
        # the measured defaults carry almost no click noise, so every
        # stage sits near the bare source correlation until the floors
        # are fitted in
        preds = cal.model_predictions(ExperimentBundle())
        cal_preds = cal.model_predictions(
            calibrated_bundle(ExperimentBundle()))
        for stage in ("source", "transferred", "stored"):
            assert preds[f"g2_{stage}"] > cal_preds[f"g2_{stage}"]
        assert 17.0 < preds["g2_source"] < 19.0

    def test_readout_efficiency_of_node_b_reaches_predictions(self):
        # node B's detectors see the EIT readout chain after map-out, so
        # the published readout efficiency moves the stored-stage figures
        base = calibrated_bundle()
        lower = dataclasses.replace(base, eit=dataclasses.replace(
            base.eit, readout_eta_b=0.10))
        preds = cal.model_predictions(base)
        moved = cal.model_predictions(lower)
        assert moved["g2_source"] == preds["g2_source"]
        assert moved["g2_stored"] != preds["g2_stored"]
        assert moved["chsh"] != preds["chsh"]


class TestPassThrough:
    def test_zero_free_params_keeps_defaults(self):
        res = cal.calibrate(free_params=())
        assert res.params == {}
        assert res.converged
        assert res.message == "no free parameters"
        assert res.bundle == ExperimentBundle()

    def test_pass_through_reports_residuals_and_cost(self):
        res = cal.calibrate(free_params=())
        preds = cal.model_predictions(ExperimentBundle())
        assert set(res.residuals) == set(cal.DEFAULT_TARGETS)
        for name, (target, sigma) in cal.DEFAULT_TARGETS.items():
            np.testing.assert_allclose(res.residuals[name],
                                       (preds[name] - target) / sigma,
                                       rtol=1e-12)
        np.testing.assert_allclose(
            res.cost,
            0.5 * sum(v * v for v in res.residuals.values()), rtol=1e-12)


class TestSingleParameterFit:
    def test_monitor_floor_absorbs_g2_target(self):
        res = cal.calibrate(targets={"g2_source": (14.2, 0.5)},
                            free_params=("dark_monitor",))
        assert res.converged
        assert list(res.residuals) == ["g2_source"]
        assert abs(res.residuals["g2_source"]) < 1e-3
        assert 0.0 < res.params["dark_monitor"] < 2e-2


@pytest.fixture(scope="module")
def joint_fit():
    return cal.calibrate()


def central_differences(residuals, x, rel_step=1e-4):
    """(m, n) central-difference Jacobian of residuals at x."""
    cols = []
    for i, value in enumerate(x):
        step = np.zeros_like(x)
        step[i] = rel_step * abs(value)
        cols.append((residuals(x + step) - residuals(x - step))
                    / (2.0 * step[i]))
    return np.stack(cols, axis=1)


FROZEN = {name: value for name, _, value, _ in NOISE_PARAMS}


class TestJacobian:
    @pytest.mark.parametrize("point", [cal._X0, FROZEN],
                             ids=["start", "calibrated"])
    def test_all_five_match_central_differences(self, point):
        residuals, jacobian = cal._weighted_problem(
            cal.DEFAULT_TARGETS, cal.FREE_PARAMS)
        x = np.array([point[name] for name in cal.FREE_PARAMS])
        np.testing.assert_allclose(jacobian(x),
                                   central_differences(residuals, x),
                                   rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("targets, free", [
        ({"g2_source": (14.2, 0.5)}, ("dark_monitor",)),
        ({"chsh": (2.73, 0.2), "g2_stored": (12.6, 2.0)}, cal.FREE_PARAMS),
    ], ids=["one-parameter", "target-subset"])
    def test_selection_matches_central_differences(self, targets, free):
        residuals, jacobian = cal._weighted_problem(targets, free)
        x = np.array([FROZEN[name] for name in free])
        jac = jacobian(x)
        assert jac.shape == (len(targets), len(free))
        np.testing.assert_allclose(jac, central_differences(residuals, x),
                                   rtol=1e-6, atol=0.0)

    def test_fit_needs_few_model_evaluations(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(bundle, *polys):
                calls.append(fn.__name__)
                return fn(bundle, *polys)
            return wrapper

        for name in ("_model_pass", "model_predictions"):
            monkeypatch.setattr(cal, name, counted(getattr(cal, name)))
        res = cal.calibrate()
        assert res.converged
        assert res.njev > 0
        # each Jacobian reuses the pass of the residual at its point, so
        # one pass per residual of the solver plus the final prediction
        assert calls.count("_model_pass") == res.nfev + 1
        assert calls.count("_model_pass") <= 90
        assert calls.count("model_predictions") == 1


    def test_model_pass_batches_settings_per_stage(self, monkeypatch):
        # counts, not timings: one fit builds the noise polynomial once,
        # pulling node A's POVM rows of every setting back once per stage,
        # and a pass at other noise values builds nothing
        for module in (detection, cal):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
        calls = []

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(memory_a.StoredReadout, "effects")
        counted(source, "atom_photon_state")
        counted(cal, "trial_polynomials")
        assert cal.calibrate().converged
        assert calls.count("trial_polynomials") == 1
        # three stages: source, transferred, stored
        assert calls.count("effects") <= 3
        calls.clear()
        cal._model_pass(cal.bundle_with({"double_amp_scale": 0.77,
                                         "dark_a": 1.3e-4}))
        assert calls == []


class TestJointFit:
    def test_joint_fit_recovers_frozen_constants(self):
        res = cal.calibrate()
        assert res.converged
        frozen = {
            "double_amp_scale": CAL_DOUBLE_AMP_SCALE,
            "dark_monitor": CAL_DARK_MONITOR,
            "background_rate": CAL_BACKGROUND_RATE,
            "dark_a": CAL_DARK_A,
            "dark_b": CAL_DARK_B,
        }
        for name, value in frozen.items():
            np.testing.assert_allclose(res.params[name], value, rtol=1e-5)
        # the node A floor rails at its cap; see the bound comment
        np.testing.assert_allclose(res.params["dark_a"], 6e-4, rtol=1e-6)
        for stage in ("source", "transferred", "stored"):
            assert abs(res.residuals[f"g2_{stage}"]) < 0.05
        assert abs(res.residuals["fidelity"]) < 1.0
        # the double-excitation admixture that sets g2 near 14 also caps
        # the model's S below the measured center, so this residual
        # settles just past one sigma and cannot be traded away
        assert abs(res.residuals["chsh"]) < 1.2


class TestLoadTargets:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "targets.yaml"
        path.write_text(
            "g2_source: {value: 14.2, sigma: 0.5}\n"
            "chsh: {value: 2.73, sigma: 0.2}\n", encoding="utf-8")
        targets = cal.load_targets(str(path))
        assert targets == {"g2_source": (14.2, 0.5), "chsh": (2.73, 0.2)}

    def test_unknown_name_rejected(self, tmp_path):
        path = tmp_path / "targets.yaml"
        path.write_text("g3_source: {value: 1.0, sigma: 0.1}\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown target"):
            cal.load_targets(str(path))

    def test_missing_sigma_rejected(self, tmp_path):
        path = tmp_path / "targets.yaml"
        path.write_text("chsh: {value: 2.73}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="value and sigma"):
            cal.load_targets(str(path))

    def test_scalar_entry_rejected(self, tmp_path):
        path = tmp_path / "targets.yaml"
        path.write_text("chsh: 2.73\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="value and sigma"):
            cal.load_targets(str(path))

    def test_non_positive_sigma_rejected(self, tmp_path):
        path = tmp_path / "targets.yaml"
        path.write_text("chsh: {value: 2.73, sigma: 0.0}\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="positive sigma"):
            cal.load_targets(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "targets.yaml"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError, match="map names"):
            cal.load_targets(str(path))

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "targets.yaml"
        path.write_text("chsh: {value: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed"):
            cal.load_targets(str(path))

    @pytest.mark.parametrize("entry, match", [
        ("{value: abc, sigma: 0.2}", "finite number as value, got 'abc'"),
        ("{value: 2.73, sigma: .nan}", "finite number as sigma, got nan"),
        ("{value: .inf, sigma: 0.2}", "finite number as value, got inf"),
    ], ids=["non-numeric-value", "nan-sigma", "infinite-value"])
    def test_non_finite_entry_rejected(self, tmp_path, entry, match):
        path = tmp_path / "targets.yaml"
        path.write_text(f"chsh: {entry}\n", encoding="utf-8")
        with pytest.raises(ConfigError,
                           match=f"target 'chsh' needs a {match}"):
            cal.load_targets(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            cal.load_targets(str(tmp_path / "absent.yaml"))


class TestBundleWith:
    def test_each_parameter_lands_in_its_section(self):
        params = {"double_amp_scale": 0.5, "dark_monitor": 1e-3,
                  "background_rate": 2e-4, "dark_a": 1e-5, "dark_b": 2e-6}
        bundle = cal.bundle_with(params)
        assert bundle.source.double_amp_scale == 0.5
        assert bundle.detection.det_monitor.dark_rate == 1e-3
        assert bundle.channel.background_rate == 2e-4
        assert bundle.detection.det_a.dark_rate == 1e-5
        assert bundle.detection.dark_b == 2e-6

    def test_empty_params_return_defaults(self):
        assert cal.bundle_with({}) == ExperimentBundle()

    def test_calibrated_values_are_the_bundle_of_the_cal_constants(self):
        # one table feeds the fit, the calibrated bundle and the refusal
        fitted = {name: value for name, _, value, _ in NOISE_PARAMS}
        assert cal.bundle_with(fitted) == calibrated_bundle()


class TestValidation:
    def test_unknown_free_parameter_rejected(self):
        with pytest.raises(ConfigError, match="unknown free parameters"):
            cal.calibrate(free_params=("dark_c",))

    @pytest.mark.parametrize("targets, match", [
        ({}, "must map names to value/sigma"),
        ({"foo": (1.0, 1.0)}, "unknown target 'foo'"),
        ({"chsh": (2.73, 0.0)}, "target 'chsh' needs a positive sigma"),
        ({"chsh": (math.nan, 0.2)}, "finite number as value, got nan"),
        ({"chsh": 2.73}, "target 'chsh' needs value and sigma"),
    ], ids=["empty", "unknown-name", "zero-sigma", "nan-value", "scalar"])
    def test_bad_targets_rejected(self, targets, match):
        # the check load_targets runs on a file, on a dict argument
        with pytest.raises(ConfigError, match=match):
            cal.calibrate(targets)

    def test_repeated_free_parameter_rejected(self):
        with pytest.raises(ConfigError, match="repeated free parameters"):
            cal.calibrate(free_params=("dark_a", "dark_a"))

    def test_ladder_outweighing_one_named_by_the_model(self):
        # 0.054 + 0.002187 s^2 of ladder weight at the default chi
        with pytest.raises(source.SourceConfigError, match="ladder weight"):
            cal.model_predictions(cal.bundle_with({"double_amp_scale": 25.0}))

    def test_free_parameter_catalog(self):
        assert cal.FREE_PARAMS == ("double_amp_scale", "dark_monitor",
                                   "background_rate", "dark_a", "dark_b")


class TestReportLines:
    def test_fitted_report_structure(self):
        res = cal.calibrate(targets={"g2_source": (14.2, 0.5)},
                            free_params=("dark_monitor",))
        lines = cal.report_lines(res)
        assert lines[0] == "calibration report"
        assert any(line.startswith("  dark_monitor = ") for line in lines)
        assert any("g2_source: model" in line for line in lines)
        assert any(line.startswith("solver: converged") for line in lines)

    def test_joint_report_gives_sigmas_bounds_and_evaluations(self,
                                                              joint_fit):
        lines = cal.report_lines(joint_fit)
        assert joint_fit.at_bound == {"dark_a": "upper"}
        assert "  dark_a = 0.0006 (at upper bound)" in lines
        assert set(joint_fit.sigmas) == set(cal.FREE_PARAMS) - {"dark_a"}
        for name, sigma in joint_fit.sigmas.items():
            assert sigma > 0.0
            assert (f"  {name} = {joint_fit.params[name]:.6g} "
                    f"+/- {sigma:.2g}") in lines
        assert len(joint_fit.correlations) == 6
        assert all(-1.0 <= c <= 1.0 for c in joint_fit.correlations.values())
        assert "correlations:" in lines
        assert joint_fit.njev > 0
        assert (f"solver evaluations: {joint_fit.nfev} residual, "
                f"{joint_fit.njev} Jacobian") in lines

    def test_sigma_is_target_sigma_over_slope_for_one_parameter(self):
        target = {"g2_source": (14.2, 0.5)}
        res = cal.calibrate(targets=target, free_params=("dark_monitor",))
        residuals, _ = cal._weighted_problem(target, ("dark_monitor",))
        slope = central_differences(
            residuals, np.array([res.params["dark_monitor"]]))[0, 0]
        np.testing.assert_allclose(res.sigmas["dark_monitor"],
                                   1.0 / abs(slope), rtol=1e-6)
        assert res.correlations == {}

    def test_constant_no_target_reads_has_infinite_sigma(self):
        # node B's dark rate never reaches the source checkpoint
        res = cal.calibrate(targets={"g2_source": (14.2, 0.5)},
                            free_params=("dark_b",))
        assert res.sigmas == {"dark_b": math.inf}
        assert "  dark_b = 1e-05 +/- inf" in cal.report_lines(res)

    def test_pass_through_report_notes_no_parameters(self):
        res = cal.calibrate(free_params=())
        lines = cal.report_lines(res)
        assert "  (none; defaults passed through)" in lines
