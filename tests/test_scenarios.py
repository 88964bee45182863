"""Campaign runner checks: scenario outputs, file formats and verdicts."""

import dataclasses
import math
import os

import numpy as np
import pytest

from memlink import channel as link
from memlink import scenarios
from memlink.calibrate import model_predictions
from memlink.config import (CampaignConfig, ExperimentBundle,
                            calibrated_bundle, config_hash)
from memlink.constants import CODATA
from memlink.detection import PATTERNS, BasisSetting, trial_distributions
from memlink.scenarios import bell_delay_s, run_experiment


def run(tmp_path, scenario, sub="out", **kwargs):
    cfg = CampaignConfig(scenario=scenario, out_dir=str(tmp_path / sub),
                         **kwargs)
    return cfg, run_experiment(cfg)


def kv_of(result):
    path = os.path.join(result.out_dir, "summary.kv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    out = {}
    for line in lines:
        key, _, value = line.partition("=")
        out[key] = value
    return out


def csv_rows(result, name):
    path = os.path.join(result.out_dir, name)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def leading_float(text):
    """Parse the value out of an 'x +/- s' or plain formatted string."""
    return float(text.split()[0])


def verdict_names(result):
    return [name for name, _, _ in result.verdicts]


class TestBellDelay:
    def test_default_is_first_revival_after_flight(self):
        bundle = ExperimentBundle()
        delay = bell_delay_s(bundle)
        np.testing.assert_allclose(delay, 1.0309918472477012e-4, rtol=1e-12)
        assert delay >= link.latency(bundle.channel)

    def test_integer_multiple_of_bias_precession_period(self):
        bundle = ExperimentBundle()
        rate = (CODATA.zeeman_rate_rad_per_s_gauss
                * bundle.coherence.bias_field_gauss)
        period = 2.0 * math.pi / rate
        k = bell_delay_s(bundle) / period
        np.testing.assert_allclose(k, round(k), atol=1e-9)

    def test_strong_field_skips_to_second_revival(self):
        bundle = ExperimentBundle()
        coh = dataclasses.replace(bundle.coherence, bias_field_gauss=0.010)
        strong = dataclasses.replace(bundle, coherence=coh)
        delay = bell_delay_s(strong)
        np.testing.assert_allclose(delay, 1.4289547002853138e-4, rtol=1e-12)
        assert delay >= link.latency(bundle.channel)

    def test_zero_field_returns_flight_time(self):
        bundle = ExperimentBundle()
        coh = dataclasses.replace(bundle.coherence, bias_field_gauss=0.0)
        quiet = dataclasses.replace(bundle, coherence=coh)
        assert bell_delay_s(quiet) == link.latency(bundle.channel)


class TestBudgetScenario:
    def test_passes_with_expected_verdicts(self, tmp_path):
        _, res = run(tmp_path, "budget")
        assert res.passed and res.error is None
        assert verdict_names(res) == [
            "channel-efficiency", "entangling-efficiency",
            "coincidence-model"]
        assert all(ok for _, ok, _ in res.verdicts)

    def test_entangling_efficiency_from_measured_factors(self, tmp_path):
        _, res = run(tmp_path, "budget")
        assert res.summary["entangling_efficiency_from_factors"] == \
            "0.000312821"
        expected = 6.1e-6 / (0.15 * 0.13)
        np.testing.assert_allclose(
            leading_float(res.summary["entangling_efficiency_from_factors"]),
            expected, rtol=5e-6)

    def test_channel_efficiency_summary(self, tmp_path):
        _, res = run(tmp_path, "budget")
        assert res.summary["channel_efficiency"] == "0.0403618"

    def test_model_coincidence_within_band(self, tmp_path):
        _, res = run(tmp_path, "budget")
        p_model = leading_float(res.summary["coincidence_probability_model"])
        assert abs(p_model - 6.1e-6) <= 0.20 * 6.1e-6

    def test_chain_table_lists_every_factor(self, tmp_path):
        _, res = run(tmp_path, "budget")
        header, rows = csv_rows(res, "budget_chain.csv")
        assert header == scenarios.CSV_HEADER
        assert len(rows) == 10
        assert [float(r[0]) for r in rows] == [float(i) for i in range(10)]
        np.testing.assert_allclose(float(rows[3][1]), 0.0403618, rtol=1e-5)
        np.testing.assert_allclose(float(rows[7][1]), 0.000312821, rtol=1e-5)


class TestDirectFiberScenario:
    def test_conversion_advantage_exceeds_ten_thousand(self, tmp_path):
        _, res = run(tmp_path, "direct-fiber-compare")
        assert res.passed
        assert verdict_names(res) == ["telecom-advantage"]
        assert leading_float(res.summary["advantage_ratio"]) > 1e4

    def test_summary_values(self, tmp_path):
        _, res = run(tmp_path, "direct-fiber-compare")
        tele = leading_float(res.summary["telecom_efficiency"])
        direct = leading_float(res.summary["direct_visible_transmission"])
        ratio = leading_float(res.summary["advantage_ratio"])
        np.testing.assert_allclose(tele, 0.040361783214991544, rtol=1e-5)
        np.testing.assert_allclose(direct, 6.683439175686149e-08, rtol=1e-5)
        np.testing.assert_allclose(ratio, tele / direct, rtol=1e-4)
        assert res.summary["length_km"] == "20.5"

    def test_compare_table_rows(self, tmp_path):
        _, res = run(tmp_path, "direct-fiber-compare")
        header, rows = csv_rows(res, "direct-fiber-compare_compare.csv")
        assert header == scenarios.CSV_HEADER
        assert len(rows) == 3


class TestBellScenario:
    def test_analytic_mode_matches_density_matrix_values(self, tmp_path):
        _, res = run(tmp_path, "bell", mode="analytic")
        assert res.passed
        np.testing.assert_allclose(
            leading_float(res.summary["chsh_s"]), 2.50848, atol=2e-5)
        np.testing.assert_allclose(
            leading_float(res.summary["fidelity"]), 0.918805, atol=5e-6)

    def test_monte_carlo_defaults_meet_targets(self, tmp_path):
        _, res = run(tmp_path, "bell")
        assert res.passed
        assert verdict_names(res) == ["chsh", "fidelity"]
        s_val = leading_float(res.summary["chsh_s"])
        f_val = leading_float(res.summary["fidelity"])
        assert 2.0 < s_val <= 2.0 * math.sqrt(2.0)
        assert 0.8 < f_val <= 1.0

    def test_summary_layout(self, tmp_path):
        _, res = run(tmp_path, "bell")
        for a, b in scenarios.CHSH_SETTINGS + scenarios.CORR_SETTINGS:
            assert f"correlator_{a}_{b}" in res.summary
        assert res.summary["delay_us"] == "103.099"
        assert res.summary["trials_per_setting"] == str(10_000_000 // 7)

    def test_correlator_table_has_one_row_per_setting(self, tmp_path):
        _, res = run(tmp_path, "bell")
        header, rows = csv_rows(res, "bell_correlators.csv")
        assert header == scenarios.CSV_HEADER
        assert len(rows) == 7


class TestFidelityScenario:
    def test_three_setting_campaign(self, tmp_path):
        _, res = run(tmp_path, "fidelity", trials=2_000_000)
        assert res.passed
        assert verdict_names(res) == ["fidelity"]
        keys = [k for k in res.summary if k.startswith("correlator_")]
        assert sorted(keys) == [
            "correlator_X_X", "correlator_Y_Y", "correlator_Z_Z"]
        assert res.summary["delay_us"] == "103.099"


class TestLifetimeScenario:
    def test_frozen_default_reproduces_theory(self, tmp_path):
        _, res = run(tmp_path, "lifetime")
        assert res.passed
        assert verdict_names(res) == ["lifetime-frozen"]
        assert res.summary["frozen"] == "true"
        assert res.summary["fit_model"] == "gaussian-decay"
        tau_fit = leading_float(res.summary["tau_fit_us"])
        tau_th = leading_float(res.summary["tau_theory_us"])
        assert abs(tau_fit - 586.0) <= 0.02 * 586.0
        assert abs(tau_fit - tau_th) <= 0.10 * tau_th

    def test_unfrozen_memory_lands_in_fast_class(self, tmp_path):
        base = ExperimentBundle()
        geo = dataclasses.replace(base.geometry, frozen=False)
        bundle = dataclasses.replace(base, geometry=geo)
        cfg = CampaignConfig(scenario="lifetime", bundle=bundle,
                             out_dir=str(tmp_path / "unfrozen"))
        res = run_experiment(cfg)
        assert res.passed
        assert verdict_names(res) == ["lifetime-unfrozen"]
        assert 30.0 <= leading_float(res.summary["tau_fit_us"]) <= 45.0

    def test_custom_sweep_axis_sets_table_rows(self, tmp_path):
        sweep = tuple(float(t) for t in range(0, 901, 100))
        _, res = run(tmp_path, "lifetime", sweep_us=sweep)
        _, rows = csv_rows(res, "lifetime_sweep.csv")
        assert len(rows) == len(sweep)
        assert [float(r[0]) for r in rows] == list(sweep)


class TestCorrelationSweepScenario:
    def test_analytic_default_recovers_configured_times(self, tmp_path):
        _, res = run(tmp_path, "correlation-sweep")
        assert res.passed
        assert verdict_names(res) == [
            "xx-frequency", "t1-recovery", "t2star-recovery"]
        t1 = leading_float(res.summary["t1_recovered_us"])
        t2 = leading_float(res.summary["t2star_recovered_us"])
        assert abs(t1 - 1200.0) <= 0.05 * 1200.0
        assert abs(t2 - 856.7) <= 0.05 * 856.7

    def test_fitted_oscillation_tracks_bias_field(self, tmp_path):
        cfg, res = run(tmp_path, "correlation-sweep")
        f_fit = leading_float(res.summary["xx_frequency_per_us"])
        f_exp = (CODATA.zeeman_hz_per_gauss
                 * cfg.bundle.coherence.bias_field_gauss * 1e-6)
        assert abs(f_fit - f_exp) <= 0.01 * f_exp

    def test_monte_carlo_mode_consistent(self, tmp_path):
        cfg, res = run(tmp_path, "correlation-sweep", mode="mc",
                       trials=5_000_000_000)
        assert res.passed
        f_fit = leading_float(res.summary["xx_frequency_per_us"])
        f_exp = (CODATA.zeeman_hz_per_gauss
                 * cfg.bundle.coherence.bias_field_gauss * 1e-6)
        assert abs(f_fit - f_exp) <= 0.01 * f_exp

    def test_tables_cover_default_sweep(self, tmp_path):
        _, res = run(tmp_path, "correlation-sweep")
        for name in ("zz", "xx"):
            header, rows = csv_rows(res, f"correlation-sweep_{name}.csv")
            assert header == scenarios.CSV_HEADER
            assert len(rows) == 25


class TestMainsScenario:
    def test_sync_ratio_exceeds_five(self, tmp_path):
        _, res = run(tmp_path, "mains")
        assert res.passed
        assert verdict_names(res) == ["sync-ratio"]
        ratio = leading_float(res.summary["envelope_ratio"])
        assert 5.0 < ratio < 10.0

    def test_arm_amplitudes_recorded(self, tmp_path):
        _, res = run(tmp_path, "mains")
        assert res.summary["amplitude_unsynced_gauss"] == "0.00161"
        assert res.summary["amplitude_synced_gauss"] == "0.00035"
        tau_sync = leading_float(res.summary["tau_synced_us"])
        tau_free = leading_float(res.summary["tau_unsynced_us"])
        assert tau_sync > tau_free > 0.0

    def test_envelope_tables(self, tmp_path):
        _, res = run(tmp_path, "mains")
        for name in ("unsynced", "synced"):
            header, rows = csv_rows(res, f"mains_{name}.csv")
            assert header == scenarios.CSV_HEADER
            assert len(rows) == 25


class TestCheckpointsScenario:
    def test_stage_targets_at_default_trials(self, tmp_path):
        _, res = run(tmp_path, "checkpoints")
        assert res.passed
        assert verdict_names(res) == [
            "g2-source", "g2-transferred", "g2-stored", "snr-drop"]
        for (target, band), stage in zip(
                scenarios.G2_TARGETS, ("source", "transferred", "stored")):
            value = leading_float(res.summary[f"g2_{stage}"])
            assert abs(value - target) <= band + 0.5

    def test_signal_to_noise_declines_with_storage(self, tmp_path):
        _, res = run(tmp_path, "checkpoints")
        stored = leading_float(res.summary["snr_stored"])
        transferred = leading_float(res.summary["snr_transferred"])
        assert stored < transferred

    def test_tables_have_one_row_per_stage(self, tmp_path):
        _, res = run(tmp_path, "checkpoints")
        for name in ("g2", "snr"):
            header, rows = csv_rows(res, f"checkpoints_{name}.csv")
            assert header == scenarios.CSV_HEADER
            assert len(rows) == 3


class TestRunnerOutputs:
    def test_byte_identical_across_output_directories(self, tmp_path):
        ra = run(tmp_path, "bell", sub="a")[1]
        rb = run(tmp_path, "bell", sub="b")[1]
        names_a = sorted(os.path.basename(f) for f in ra.files)
        names_b = sorted(os.path.basename(f) for f in rb.files)
        assert names_a == names_b == [
            "bell_correlators.csv", "summary.kv", "summary.txt"]
        for name in names_a:
            with open(os.path.join(ra.out_dir, name), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(rb.out_dir, name), "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b

    def test_seed_changes_sampled_outputs(self, tmp_path):
        ra = run(tmp_path, "bell", sub="s1", seed=1)[1]
        rb = run(tmp_path, "bell", sub="s2", seed=2)[1]
        assert kv_of(ra) != kv_of(rb)

    def test_header_records_configuration(self, tmp_path):
        cfg, res = run(tmp_path, "budget")
        kv = kv_of(res)
        assert kv["scenario"] == "budget"
        assert kv["seed"] == "20260823"
        assert kv["trials"] == str(cfg.trials)
        assert kv["mode"] == "analytic"
        assert kv["calibrated"] == "false"
        assert kv["config_hash"] == config_hash(cfg)
        assert kv["status"] == "PASS"

    def test_sampled_scenarios_default_to_calibrated_model(self, tmp_path):
        _, res = run(tmp_path, "bell")
        kv = kv_of(res)
        assert kv["mode"] == "mc"
        assert kv["calibrated"] == "true"

    def test_summary_kv_sorted_and_parseable(self, tmp_path):
        _, res = run(tmp_path, "checkpoints")
        path = os.path.join(res.out_dir, "summary.kv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        keys = [line.partition("=")[0] for line in lines]
        assert keys == sorted(keys)
        assert all("=" in line for line in lines)
        for name, ok, _ in res.verdicts:
            assert f"verdict_{name}={'PASS' if ok else 'FAIL'}" in lines

    def test_summary_txt_structure(self, tmp_path):
        _, res = run(tmp_path, "budget")
        path = os.path.join(res.out_dir, "summary.txt")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "campaign: budget"
        assert any(line.startswith("config_hash: ") for line in lines)
        assert any(line.startswith("[PASS] channel-efficiency") for line in
                   lines)
        assert lines[-1] == "status: PASS"

    def test_csv_values_round_trip_at_six_digits(self, tmp_path):
        _, res = run(tmp_path, "checkpoints")
        header, rows = csv_rows(res, "checkpoints_g2.csv")
        assert header == scenarios.CSV_HEADER
        for row in rows:
            assert len(row) == 4
            for field in row[:3]:
                assert field == f"{float(field):.6g}"
            assert row[3] == str(int(row[3]))

    def test_failed_scenario_reports_error(self, tmp_path):
        _, res = run(tmp_path, "bell", trials=7)
        assert not res.passed
        assert res.error
        assert res.verdicts == []
        assert res.scenario == "bell"
        kv = kv_of(res)
        assert kv["status"] == "ERROR"
        assert "error" in kv
        names = sorted(os.path.basename(f) for f in res.files)
        assert names == ["summary.kv", "summary.txt"]


class TestFigureTargets:
    def test_catalog_constants(self):
        assert scenarios.CSV_HEADER == "t_us,value,sigma,n"
        assert scenarios.CHSH_TARGET == (2.73, 0.20)
        assert scenarios.FIDELITY_TARGET == (0.90, 0.03)
        assert scenarios.G2_TARGETS == ((14.2, 0.5), (13.2, 1.4),
                                        (12.6, 2.0))
        assert scenarios.PAIR_COINCIDENCE_P == 6.1e-6
        assert scenarios.CHANNEL_EFFICIENCY_TARGET == (0.040, 0.001)
        assert scenarios.MAINS_AMPLITUDE_FREE_G == 1.61e-3
        assert scenarios.MAINS_AMPLITUDE_SYNCED_G == 0.35e-3

    def test_measurement_settings(self):
        assert scenarios.CHSH_SETTINGS == (
            ("A0", "B0"), ("A0", "B1"), ("A1", "B0"), ("A1", "B1"))
        assert scenarios.CORR_SETTINGS == (
            ("X", "X"), ("Y", "Y"), ("Z", "Z"))


class TestAnalyticModeIsTheCalibrateModel:
    def test_printed_values_are_the_model_predictions(self, tmp_path):
        # analytic campaigns tally exact expected counts, so they print
        # the forward model that calibrate fits, digit for digit
        model = model_predictions(calibrated_bundle())
        printed = {}
        for scenario in ("checkpoints", "bell", "fidelity"):
            _, res = run(tmp_path, scenario, sub=scenario, mode="analytic")
            assert kv_of(res)["calibrated"] == "true"
            printed.update({f"{scenario}.{k}": v.split()[0]
                            for k, v in res.summary.items()})
        for stage in ("source", "transferred", "stored"):
            assert (printed[f"checkpoints.g2_{stage}"]
                    == f"{model[f'g2_{stage}']:.6g}")
        assert printed["bell.chsh_s"] == f"{model['chsh']:.6g}"
        assert printed["bell.fidelity"] == f"{model['fidelity']:.6g}"
        assert printed["fidelity.fidelity"] == f"{model['fidelity']:.6g}"


SIGN = {"plus": 1.0, "minus": -1.0}


def expected_correlator(probs, n):
    """Exact correlator, sigma and coincidence count of n attempts,
    summed pattern by pattern with double clicks discarded."""
    total = signed = 0.0
    for (a, b), p in zip(PATTERNS, probs):
        if a in SIGN and b in SIGN:
            total += p * n
            signed += SIGN[a] * SIGN[b] * p * n
    value = signed / total
    return value, math.sqrt((1.0 - value * value) / total), total


def expected_lifetime_rows(bundle, sweep, n):
    rows = []
    for probs in trial_distributions(bundle, (None,), sweep * 1e-6)[0]:
        n_b = k = 0.0
        for (a, b), p in zip(PATTERNS, probs):
            n_b += p * n if b != "none" else 0.0
            k += p * n if "none" not in (a, b) else 0.0
        p_t = (k + 1.0) / (n_b + 2.0)
        rows.append((k / n_b, math.sqrt(p_t * (1.0 - p_t) / n_b),
                     round(n_b)))
    return rows


def expected_correlator_rows(bundle, sweep, n, setting):
    rows = []
    for probs in trial_distributions(bundle, (BasisSetting(*setting),),
                                     sweep * 1e-6)[0]:
        value, sigma, total = expected_correlator(probs, n)
        rows.append((value, sigma, round(total)))
    return rows


def expected_envelope_rows(bundle, sweep, n, arm):
    amplitude, synced = {
        "unsynced": (scenarios.MAINS_AMPLITUDE_FREE_G, False),
        "synced": (scenarios.MAINS_AMPLITUDE_SYNCED_G, True)}[arm]
    coh = dataclasses.replace(bundle.coherence, t1_s=math.inf,
                              mains_amplitude_gauss=amplitude,
                              mains_synced=synced)
    arm_bundle = dataclasses.replace(bundle, coherence=coh)
    rows = []
    for x, y in zip(expected_correlator_rows(arm_bundle, sweep, n,
                                             ("X", "X")),
                    expected_correlator_rows(arm_bundle, sweep, n,
                                             ("X", "Y"))):
        env = math.hypot(x[0], y[0])
        sigma = math.sqrt((x[0] * x[1]) ** 2 + (y[0] * y[1]) ** 2) / env
        rows.append((env, sigma, x[2] + y[2]))
    return rows


class TestAnalyticSweepErrors:
    """The analytic sweeps print the sigma and n of their expected
    counts at the campaign's trials per point, not 0."""

    @pytest.mark.parametrize("scenario, table, batches, expected", [
        ("lifetime", "sweep", 1, expected_lifetime_rows),
        ("correlation-sweep", "zz", 2,
         lambda b, s, n: expected_correlator_rows(b, s, n, ("Z", "Z"))),
        ("correlation-sweep", "xx", 2,
         lambda b, s, n: expected_correlator_rows(b, s, n, ("X", "X"))),
        ("mains", "unsynced", 4,
         lambda b, s, n: expected_envelope_rows(b, s, n, "unsynced")),
        ("mains", "synced", 4,
         lambda b, s, n: expected_envelope_rows(b, s, n, "synced")),
    ], ids=["lifetime", "correlation-sweep-zz", "correlation-sweep-xx",
            "mains-unsynced", "mains-synced"])
    def test_sigma_and_n_are_expected_count_values(self, scenario, table,
                                                   batches, expected):
        cfg = CampaignConfig(scenario=scenario, mode="analytic")
        bundle = scenarios._resolve_bundle(cfg)
        out = scenarios._DISPATCH[scenario](cfg, bundle,
                                            scenarios._Streams(None))
        rows = out.tables[table]
        sweep = np.array([t_us for t_us, *_ in rows])
        want = expected(bundle, sweep, cfg.trials // (batches * len(sweep)))
        assert len(rows) == len(want) == 25
        for (_, value, sigma, n), (w_value, w_sigma, w_n) in zip(rows, want):
            assert sigma > 0.0
            np.testing.assert_allclose([value, sigma], [w_value, w_sigma],
                                       rtol=1e-12)
            assert n == w_n
