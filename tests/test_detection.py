"""Detection layer: basis projection, trial distributions, click records."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from memlink import channel as link
from memlink import detection, dualrail, memory_a, memory_b, source
from memlink.config import ExperimentBundle, calibrated_bundle
from memlink.detection import (
    EXPORT_HEADER,
    PATTERN_NAMES,
    TICK_S,
    BasisSetting,
    ClickRecord,
    CountsTable,
    DetectionConfig,
    DetectionConfigError,
    DetectorParams,
    accumulate,
    analytic_counts,
    expected_click_probs,
    expected_outcome_probs,
    noise_distribution,
    project_basis,
    sample_counts,
    simulate_trial,
    trial_distribution,
)
from memlink.estimators import correlator
from memlink.memory_b import EITParams
from memlink.qcore import (KrausChannel, apply_channel, expectation,
                           pure_state, tensor)
from memlink.scenarios import bell_delay_s

IDEAL_PAIR = pure_state([1.0, 0.0, 0.0, 1.0], ("d,U", "d,D", "u,U", "u,D"))
SQRT_HALF = 1.0 / math.sqrt(2.0)


def noise_free_bundle():
    """All technical noise off, storage asymmetry removed."""
    base = ExperimentBundle()
    return dataclasses.replace(
        base,
        source=dataclasses.replace(base.source, double_amp_scale=0.0),
        eit=EITParams(eta_up=0.25, eta_down=0.25),
    )


def conditional_correlator(bundle, setting, delay_s=0.0, stage="stored"):
    dist = trial_distribution(bundle, setting, delay_s, stage)
    bins = expected_outcome_probs(dist)
    return (bins[0] + bins[3] - bins[1] - bins[2]) / bins.sum()


class TestProjectBasis:
    def test_all_settings_dichotomic(self):
        for a in ("Z", "X", "Y", "A0", "A1"):
            for b in ("Z", "X", "Y", "B0", "B1"):
                obs_a, obs_b = project_basis(BasisSetting(a, b))
                assert obs_a.is_dichotomic()
                assert obs_b.is_dichotomic()

    def test_tilted_setting_squares_to_identity(self):
        _, obs_b = project_basis(BasisSetting("A0", "B0"))
        np.testing.assert_allclose(obs_b.mat @ obs_b.mat, np.eye(2),
                                   atol=1e-12)

    def test_chsh_members_resolve_to_paulis(self):
        obs_a0, _ = project_basis(BasisSetting("A0", "B0"))
        obs_a1, _ = project_basis(BasisSetting("A1", "B0"))
        np.testing.assert_allclose(obs_a0.mat, np.diag([1.0, -1.0]))
        np.testing.assert_allclose(obs_a1.mat,
                                   np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_ideal_state_correlators(self):
        values = {("Z", "Z"): 1.0, ("X", "X"): 1.0, ("Y", "Y"): -1.0}
        for (a, b), want in values.items():
            obs_a, obs_b = project_basis(BasisSetting(a, b))
            got = expectation(IDEAL_PAIR, tensor(obs_a, obs_b))
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_ideal_state_fidelity_formula(self):
        corr = {}
        for name in (("X", "X"), ("Y", "Y"), ("Z", "Z")):
            obs_a, obs_b = project_basis(BasisSetting(*name))
            corr[name[0]] = expectation(IDEAL_PAIR, tensor(obs_a, obs_b))
        f = (1.0 + corr["X"] - corr["Y"] + corr["Z"]) / 4.0
        np.testing.assert_allclose(f, 1.0, atol=1e-12)

    def test_ideal_state_tilted_expectation(self):
        obs_a, obs_b = project_basis(BasisSetting("A0", "B0"))
        got = expectation(IDEAL_PAIR, tensor(obs_a, obs_b))
        np.testing.assert_allclose(got, SQRT_HALF, atol=1e-12)

    def test_ideal_state_reaches_tsirelson(self):
        s = 0.0
        for a, b, sign in (("A0", "B0", 1), ("A0", "B1", 1),
                           ("A1", "B0", 1), ("A1", "B1", -1)):
            obs_a, obs_b = project_basis(BasisSetting(a, b))
            s += sign * expectation(IDEAL_PAIR, tensor(obs_a, obs_b))
        np.testing.assert_allclose(s, 2.0 * math.sqrt(2.0), atol=1e-12)

    def test_corr_sign_convention_flips_z(self):
        cfg = DetectionConfig(z_b_up_sign_corr=-1.0)
        _, obs_b = project_basis(BasisSetting("Z", "Z"), cfg)
        np.testing.assert_allclose(obs_b.mat, np.diag([-1.0, 1.0]))

    def test_invalid_names_rejected(self):
        with pytest.raises(DetectionConfigError):
            BasisSetting("B0", "Z")
        with pytest.raises(DetectionConfigError):
            BasisSetting("Z", "A1")

    def test_setting_key(self):
        assert BasisSetting("A1", "B0").key == "A1,B0"


class TestConfigValidation:
    def test_detector_params(self):
        with pytest.raises(DetectionConfigError):
            DetectorParams(eta_det=1.5)
        with pytest.raises(DetectionConfigError):
            DetectorParams(dark_rate=1.0)
        with pytest.raises(DetectionConfigError):
            DetectorParams(window_s=0.0)

    def test_double_click_policy_names(self):
        with pytest.raises(DetectionConfigError):
            DetectionConfig(double_click_policy="drop")

    def test_sign_values(self):
        with pytest.raises(DetectionConfigError):
            DetectionConfig(z_b_up_sign_chsh=0.5)


class TestCountsTable:
    def build(self, rows):
        t = CountsTable()
        for key, a, b, n in rows:
            t._bucket(key)
            t.trials[key] += n
            t.singles_a[key] += n
            t.singles_b[key] += n
            t.coincidences[key] += n
            t.add_outcome(key, a, b, n)
        return t

    def test_outcome_bin_order(self):
        t = CountsTable()
        t._bucket("Z,Z")
        t.add_outcome("Z,Z", 1, 1, 10)
        t.add_outcome("Z,Z", 1, -1, 20)
        t.add_outcome("Z,Z", -1, 1, 30)
        t.add_outcome("Z,Z", -1, -1, 40)
        np.testing.assert_array_equal(t.outcome_counts["Z,Z"],
                                      [10, 20, 30, 40])

    def test_merge_is_commutative_and_total(self):
        t1 = self.build([("Z,Z", 1, 1, 5), ("X,X", 1, -1, 3)])
        t1.noise_windows, t1.noise_counts = 100, 7
        t2 = self.build([("Z,Z", -1, -1, 2)])
        t2.noise_windows, t2.noise_counts = 50, 1
        left = t1 + t2
        right = t2 + t1
        for key in ("Z,Z", "X,X"):
            np.testing.assert_array_equal(left.outcome_counts[key],
                                          right.outcome_counts[key])
            assert left.trials[key] == right.trials[key]
        np.testing.assert_array_equal(left.outcome_counts["Z,Z"],
                                      [5, 0, 0, 2])
        assert left.noise_windows == 150
        assert left.noise_counts == 8
        left.check()

    def test_check_rejects_outcome_excess(self):
        t = CountsTable()
        t._bucket("Z,Z")
        t.trials["Z,Z"] = 10
        t.coincidences["Z,Z"] = 1
        t.add_outcome("Z,Z", 1, 1, 5)
        with pytest.raises(ValueError):
            t.check()

    def test_check_rejects_coincidences_beyond_trials(self):
        t = CountsTable()
        t._bucket("Z,Z")
        t.trials["Z,Z"] = 1
        t.coincidences["Z,Z"] = 2
        with pytest.raises(ValueError):
            t.check()


class TestClickRecords:
    def record(self):
        return ClickRecord(trial_id=7, setting=BasisSetting("Z", "X"),
                           detectors=("a+", "b-"), ticks=(41200, 41200),
                           post_selected=True)

    def test_export_line_format(self):
        lines = self.record().export_lines()
        assert lines == ["7\tZ,X\ta+\t103000.0\t1",
                         "7\tZ,X\tb-\t103000.0\t1"]
        assert len(EXPORT_HEADER.split("\t")) == 5

    def test_empty_record_exports_nothing(self):
        rec = ClickRecord(trial_id=1, setting=BasisSetting(),
                          detectors=(), ticks=(), post_selected=False)
        assert rec.export_lines() == []


class TestTrialDistribution:
    def test_probabilities_normalized(self):
        dist = trial_distribution(calibrated_bundle(), BasisSetting(),
                                  103e-6, "stored")
        np.testing.assert_allclose(dist.base.sum(), 1.0, atol=1e-9)
        assert dist.base.min() >= 0.0

    def test_synced_distribution_has_no_fourier_terms(self):
        dist = trial_distribution(ExperimentBundle(), BasisSetting(),
                                  103e-6, "stored")
        assert dist.swing == 0.0
        assert dist.fourier == ()

    def test_unsynced_mean_matches_numerical_phase_average(self):
        base = ExperimentBundle()
        bundle = dataclasses.replace(
            base,
            coherence=dataclasses.replace(
                base.coherence, mains_synced=False,
                mains_amplitude_gauss=1.61e-3),
        )
        dist = trial_distribution(bundle, BasisSetting("X", "X"),
                                  60e-6, "stored")
        assert dist.swing > 0.0
        u = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        numeric = dist.probabilities(dist.swing * np.sin(u)).mean(axis=0)
        np.testing.assert_allclose(dist.mean_probabilities(), numeric,
                                   atol=1e-9)

    def test_pattern_index(self):
        dist = trial_distribution(ExperimentBundle(), BasisSetting(),
                                  0.0, "source")
        assert dist.patterns[dist.index("plus", "none")] == ("plus", "none")
        assert len(dist.patterns) == 16

    def test_unknown_stage_rejected(self):
        with pytest.raises(DetectionConfigError):
            trial_distribution(ExperimentBundle(), BasisSetting(),
                               0.0, "midway")


class TestNoiseFreeOracles:
    def test_coincidence_probability_matches_budget(self):
        delay = link.latency(ExperimentBundle().channel)
        for bundle in (ExperimentBundle(), calibrated_bundle()):
            dist = trial_distribution(bundle, BasisSetting(), delay, "stored")
            ab = expected_click_probs(dist)["ab"]
            np.testing.assert_allclose(ab, 6.1e-6, rtol=0.2)

    def test_conditional_correlators_are_ideal(self):
        bundle = noise_free_bundle()
        for setting, want in ((BasisSetting("Z", "Z"), 1.0),
                              (BasisSetting("X", "X"), 1.0),
                              (BasisSetting("Y", "Y"), -1.0)):
            got = conditional_correlator(bundle, setting)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_chsh_reaches_tsirelson(self):
        bundle = noise_free_bundle()
        s = (conditional_correlator(bundle, BasisSetting("A0", "B0"))
             + conditional_correlator(bundle, BasisSetting("A0", "B1"))
             + conditional_correlator(bundle, BasisSetting("A1", "B0"))
             - conditional_correlator(bundle, BasisSetting("A1", "B1")))
        np.testing.assert_allclose(s, 2.0 * math.sqrt(2.0), atol=1e-10)

    def test_xx_follows_zeeman_phase(self):
        from memlink.memory_a import zeeman_phase_increment
        base = noise_free_bundle()
        bundle = dataclasses.replace(
            base,
            coherence=dataclasses.replace(
                base.coherence, t1_s=math.inf, t2_star_s=math.inf,
                temperature_k=0.0, mains_amplitude_gauss=0.0),
        )
        for delay in (10e-6, 25e-6, 60e-6):
            got = conditional_correlator(bundle, BasisSetting("X", "X"),
                                         delay_s=delay)
            phi = zeeman_phase_increment(bundle.coherence, delay)
            np.testing.assert_allclose(got, math.cos(phi), atol=1e-10)

    def test_post_selection_invariant_under_efficiency_scaling(self):
        bundle = noise_free_bundle()
        det = bundle.detection
        halved = dataclasses.replace(
            bundle,
            detection=dataclasses.replace(
                det,
                det_a=dataclasses.replace(det.det_a, eta_det=0.075),
                det_b=dataclasses.replace(det.det_b, eta_det=0.13),
            ),
        )
        for setting in (BasisSetting("Z", "Z"), BasisSetting("X", "X"),
                        BasisSetting("A0", "B0")):
            full = conditional_correlator(bundle, setting, delay_s=40e-6)
            half = conditional_correlator(halved, setting, delay_s=40e-6)
            np.testing.assert_allclose(half, full, atol=1e-10)


class TestSampling:
    def test_sampled_counts_match_analytic_within_four_sigma(self):
        bundle = calibrated_bundle()
        n = 200_000
        rng = np.random.default_rng(101)
        sampled = sample_counts(bundle, BasisSetting("Z", "Z"), n, rng,
                                delay_s=103e-6)
        expected = analytic_counts(bundle, BasisSetting("Z", "Z"), n,
                                   delay_s=103e-6)
        key = "Z,Z"
        for name in ("singles_a", "singles_b", "coincidences"):
            got = getattr(sampled, name)[key]
            want = getattr(expected, name)[key]
            sigma = math.sqrt(max(want, 1.0))
            assert abs(got - want) <= 4.0 * sigma, (name, got, want)

    def test_sampling_reproducible(self):
        bundle = calibrated_bundle()
        a = sample_counts(bundle, BasisSetting("X", "X"), 50_000,
                          np.random.default_rng(5), delay_s=103e-6)
        b = sample_counts(bundle, BasisSetting("X", "X"), 50_000,
                          np.random.default_rng(5), delay_s=103e-6)
        np.testing.assert_array_equal(a.outcome_counts["X,X"],
                                      b.outcome_counts["X,X"])
        assert a.trials == b.trials

    def test_tables_pass_conservation_check(self):
        bundle = calibrated_bundle()
        t = sample_counts(bundle, BasisSetting("Z", "Z"), 100_000,
                          np.random.default_rng(17), delay_s=103e-6,
                          noise_windows=100_000)
        t.check()
        assert t.noise_windows == 100_000
        assert t.noise_counts >= 0

    def test_noise_counts_linear_in_dark_rate(self):
        base = ExperimentBundle()

        def noise_rate(dark):
            det = base.detection
            bundle = dataclasses.replace(
                base,
                detection=dataclasses.replace(
                    det, det_b=dataclasses.replace(det.det_b,
                                                   dark_rate=dark)),
            )
            dist = noise_distribution(bundle, BasisSetting())
            return expected_click_probs(dist)["b"]

        r1 = noise_rate(2e-6)
        r2 = noise_rate(4e-6)
        np.testing.assert_allclose(r2 / r1, 2.0, rtol=0.05)

    def test_analytic_counts_deterministic(self):
        bundle = calibrated_bundle()
        a = analytic_counts(bundle, BasisSetting("Y", "Y"), 300_000,
                            delay_s=103e-6, noise_windows=300_000)
        b = analytic_counts(bundle, BasisSetting("Y", "Y"), 300_000,
                            delay_s=103e-6, noise_windows=300_000)
        np.testing.assert_array_equal(a.outcome_counts["Y,Y"],
                                      b.outcome_counts["Y,Y"])
        assert a.noise_counts == b.noise_counts

    def test_double_click_policies_at_distribution_level(self):
        bundle = calibrated_bundle()
        dist = trial_distribution(bundle, BasisSetting("Z", "Z"), 103e-6,
                                  "stored")
        discard = expected_outcome_probs(dist, policy="discard")
        random_split = expected_outcome_probs(dist, policy="random")
        assert discard.sum() <= random_split.sum() + 1e-15
        coincidence = expected_click_probs(dist)["ab"]
        np.testing.assert_allclose(random_split.sum(), coincidence,
                                   rtol=1e-12)


class TestSimulateTrial:
    def test_deterministic_given_seed(self):
        bundle = calibrated_bundle()
        recs_a = [simulate_trial(bundle, BasisSetting("Z", "Z"),
                                 np.random.default_rng(1000 + i), trial_id=i)
                  for i in range(40)]
        recs_b = [simulate_trial(bundle, BasisSetting("Z", "Z"),
                                 np.random.default_rng(1000 + i), trial_id=i)
                  for i in range(40)]
        assert recs_a == recs_b

    def test_stored_stage_timestamps_share_the_delay(self):
        bundle = noise_free_bundle()
        rng = np.random.default_rng(2)
        for _ in range(200):
            rec = simulate_trial(bundle, BasisSetting("Z", "Z"), rng,
                                 start_time_s=1e-3)
            for tick in rec.ticks:
                assert tick == int(round((1e-3 + 103e-6) / TICK_S))

    def test_source_stage_monitor_clicks_at_emission(self):
        bundle = noise_free_bundle()
        rng = np.random.default_rng(3)
        seen_monitor = False
        for _ in range(400):
            rec = simulate_trial(bundle, BasisSetting("Z", "Z"), rng,
                                 start_time_s=2e-3, stage="source")
            for det, tick in zip(rec.detectors, rec.ticks):
                if det.startswith("m"):
                    seen_monitor = True
                    assert tick == int(round(2e-3 / TICK_S))
                else:
                    assert tick == int(round((2e-3 + 103e-6) / TICK_S))
        assert seen_monitor

    def test_post_selected_flag_tracks_far_node(self):
        bundle = calibrated_bundle()
        rng = np.random.default_rng(4)
        for i in range(300):
            rec = simulate_trial(bundle, BasisSetting("Z", "Z"), rng,
                                 trial_id=i, stage="transferred")
            b_clicks = [d for d in rec.detectors if d.startswith("b")]
            assert rec.post_selected == bool(b_clicks)
            assert rec.trial_id == i


class TestAccumulate:
    def make_record(self, trial_id, detectors, post):
        return ClickRecord(trial_id=trial_id, setting=BasisSetting("Z", "Z"),
                           detectors=detectors,
                           ticks=tuple(0 for _ in detectors),
                           post_selected=post)

    def fixture_records(self):
        return [
            self.make_record(0, ("a+", "b+"), True),
            self.make_record(1, ("a-", "b+"), True),
            self.make_record(2, ("a+",), False),
            self.make_record(3, ("b-",), True),
            self.make_record(4, (), False),
            self.make_record(5, ("a+", "a-", "b+"), True),
        ]

    def test_empty_input(self):
        table = accumulate([])
        assert table.outcome_counts == {}
        table.check()

    def test_hand_counted_fixture(self):
        table = accumulate(self.fixture_records())
        key = "Z,Z"
        assert table.trials[key] == 6
        assert table.singles_a[key] == 4
        assert table.singles_b[key] == 4
        assert table.coincidences[key] == 3
        # the double-click record is discarded from the outcome bins
        np.testing.assert_array_equal(table.outcome_counts[key],
                                      [1, 0, 1, 0])
        table.check()

    def test_order_independent(self):
        records = self.fixture_records()
        forward = accumulate(records)
        backward = accumulate(list(reversed(records)))
        key = "Z,Z"
        np.testing.assert_array_equal(forward.outcome_counts[key],
                                      backward.outcome_counts[key])
        assert forward.trials == backward.trials
        assert forward.coincidences == backward.coincidences

    def test_sharded_merge_matches_single_pass(self):
        records = self.fixture_records()
        merged = accumulate(records[:3]) + accumulate(records[3:])
        whole = accumulate(records)
        key = "Z,Z"
        np.testing.assert_array_equal(merged.outcome_counts[key],
                                      whole.outcome_counts[key])
        assert merged.trials[key] == whole.trials[key]
        assert merged.singles_a[key] == whole.singles_a[key]
        assert merged.singles_b[key] == whole.singles_b[key]

    def test_random_policy_rejected_after_the_fact(self):
        records = [self.make_record(0, ("a+", "a-", "b+"), True)]
        with pytest.raises(ValueError):
            accumulate(records, policy="random")

    def test_simulated_records_accumulate_consistently(self):
        bundle = calibrated_bundle()
        rng = np.random.default_rng(6)
        records = [simulate_trial(bundle, BasisSetting("Z", "Z"), rng,
                                  trial_id=i, stage="transferred")
                   for i in range(5000)]
        table = accumulate(records)
        table.check()
        key = "Z,Z"
        assert table.trials[key] == 5000
        coincident = sum(
            1 for r in records
            if any(d.startswith("a") for d in r.detectors)
            and any(d.startswith("b") for d in r.detectors)
        )
        assert table.coincidences[key] == coincident


class TestSampledInvariance:
    def test_correlator_insensitive_to_detector_efficiency(self):
        bundle = noise_free_bundle()
        det = bundle.detection
        halved = dataclasses.replace(
            bundle,
            detection=dataclasses.replace(
                det,
                det_a=dataclasses.replace(det.det_a,
                                          eta_det=det.det_a.eta_det / 2.0),
            ),
        )
        n = 20_000_000
        t_full = sample_counts(bundle, BasisSetting("Z", "Z"), n,
                               np.random.default_rng(8), delay_s=0.0,
                               stage="transferred")
        t_half = sample_counts(halved, BasisSetting("Z", "Z"), n,
                               np.random.default_rng(9), delay_s=0.0,
                               stage="transferred")
        c_full = correlator(t_full, "Z,Z")
        c_half = correlator(t_half, "Z,Z")
        combined = math.hypot(c_full.sigma, c_half.sigma)
        assert abs(c_full.value - c_half.value) <= 3.0 * combined


# ---------------------------------------------------------------------------
# reference walk: the whole chain re-evaluated for every call, the POVMs
# as explicit Kronecker products.  The staged engine must agree with it.

STAGES = ("source", "transferred", "stored")
REFERENCE_SETTINGS = (None, ("Z", "Z"), ("X", "X"), ("X", "Y"),
                      ("Y", "Y"), ("A0", "B0"), ("A1", "B1"))


def reference_bundles():
    base = ExperimentBundle()
    return {
        "default": base,
        "calibrated": calibrated_bundle(),
        "unsynced": dataclasses.replace(
            base, coherence=dataclasses.replace(
                base.coherence, mains_synced=False,
                mains_amplitude_gauss=1.61e-3)),
        "background-tau": dataclasses.replace(
            base,
            channel=dataclasses.replace(base.channel, background_rate=1e-3),
            coherence=dataclasses.replace(
                base.coherence, tau_mode1_s=150e-6, tau_mode2_s=90e-6)),
        "no-t1-t2": dataclasses.replace(
            base, coherence=dataclasses.replace(
                base.coherence, t1_s=math.inf, t2_star_s=math.inf)),
        "random-doubles": dataclasses.replace(
            base, detection=dataclasses.replace(
                base.detection, double_click_policy="random")),
    }


def reference_delays():
    return (0.0, 5e-6, bell_delay_s(ExperimentBundle()), 400e-6)


def _plus_minus_columns(obs):
    vals, vecs = np.linalg.eigh(obs.mat)
    return vecs[:, np.argsort(vals)[::-1]]


def reference_distribution(bundle, setting, delay_s, stage):
    """(base, fourier, swing) from a fresh walk through every stage."""
    s = source.atom_photon_state(bundle.source)
    cutoff = s.cutoff
    atom_dim = dualrail.sector_dim(cutoff)
    collect = link.photon_loss_joint(cutoff, bundle.source.collection,
                                     atom_dim)
    s = source.AtomPhotonState(state=apply_channel(s.state, collect),
                               cutoff=cutoff, ladder_weight=s.ladder_weight)
    if stage != "source":
        s = memory_b.timebin_to_spatial(link.transmit(s, bundle.channel))
    if stage == "stored":
        s = memory_b.map_out(memory_b.map_in(s, bundle.eit), bundle.eit)
    q = memory_a.decohere(memory_a.AtomQubitA(state=s.state, cutoff=cutoff),
                          delay_s, bundle.coherence, bundle.geometry,
                          include_mains=False)
    det = bundle.detection
    eta_a = det.det_a.eta_det
    loss_a = dualrail.loss_channel(cutoff, q.mode_weights[0] * eta_a,
                                   q.mode_weights[1] * eta_a)
    rest = q.rest_dim
    lifted = KrausChannel([np.kron(k, np.eye(rest)) for k in loss_a.operators])
    rho = apply_channel(q.state, lifted).mat

    if setting is None:
        basis_a = basis_b = None
    else:
        obs_a, obs_b = project_basis(BasisSetting(*setting), det)
        basis_a = _plus_minus_columns(obs_a)
        basis_b = _plus_minus_columns(obs_b)
    far = det.det_monitor if stage == "source" else det.det_b
    povm_a = dualrail.detection_povm(cutoff, basis_a, eta=1.0,
                                     dark=det.det_a.dark_rate)
    povm_b = dualrail.detection_povm(cutoff, basis_b, eta=far.eta_det,
                                     dark=far.dark_rate)

    nu = np.repeat(dualrail.mode2_count_vector(cutoff), rest)
    dn = nu[:, None] - nu[None, :]
    coh = bundle.coherence
    if coh.mains_synced or coh.mains_amplitude_gauss == 0.0:
        phi = memory_a.mains_phase_increment(coh, 0.0, delay_s,
                                             coh.mains_phase_rad)
        rho = rho * np.exp(-1j * phi * dn)
        swing = 0.0
    else:
        swing = memory_a.mains_swing_amplitude(coh, delay_s)
    coeffs = np.array([
        [np.sum(rho * (dn == k) * np.kron(povm_a[a], povm_b[b]).T)
         for a in PATTERN_NAMES for b in PATTERN_NAMES]
        for k in (0, 1, 2)])
    base = np.real(coeffs[0])
    if swing == 0.0:
        base = base + 2.0 * np.real(coeffs[1]) + 2.0 * np.real(coeffs[2])
        fourier = ()
    else:
        fourier = (coeffs[1], coeffs[2])
    return np.clip(base, 0.0, None), fourier, swing


class TestEngineMatchesReference:
    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("name", sorted(reference_bundles()))
    def test_base_and_fourier_agree(self, name, stage):
        bundle = reference_bundles()[name]
        for setting in REFERENCE_SETTINGS:
            basis = None if setting is None else BasisSetting(*setting)
            for delay in reference_delays():
                dist = trial_distribution(bundle, basis, delay, stage)
                base, fourier, swing = reference_distribution(
                    bundle, setting, delay, stage)
                where = f"{name} {stage} {setting} {delay:g}"
                assert dist.patterns == tuple(
                    (a, b) for a in PATTERN_NAMES for b in PATTERN_NAMES)
                assert dist.swing == swing, where
                np.testing.assert_allclose(dist.base, base, rtol=0.0,
                                           atol=1e-12, err_msg=where)
                assert len(dist.fourier) == len(fourier), where
                for got, want in zip(dist.fourier, fourier):
                    np.testing.assert_allclose(got, want, rtol=0.0,
                                               atol=1e-12, err_msg=where)

    @pytest.mark.parametrize("stage", STAGES)
    def test_noise_distribution_is_the_source_off_walk(self, stage):
        bundle = calibrated_bundle()
        off = dataclasses.replace(bundle, source=dataclasses.replace(
            bundle.source, chi=1e-12, double_amp_scale=0.0))
        for setting in REFERENCE_SETTINGS:
            basis = None if setting is None else BasisSetting(*setting)
            dist = noise_distribution(bundle, basis, stage)
            base, _, _ = reference_distribution(off, setting, 0.0, stage)
            np.testing.assert_allclose(dist.base, base, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# cache discipline: every cache is a bounded, module-level lru_cache that
# a cold start can empty, and no traced public function hides one.

TRACED_PUBLIC = (
    (source, "atom_photon_state"), (link, "photon_loss_joint"),
    (link, "transmit"), (memory_b, "map_in"), (memory_b, "map_out"),
    (memory_a, "decohere"), (dualrail, "loss_channel"),
    (dualrail, "detection_povm"), (detection, "trial_distribution"),
)


def memlink_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "memlink" or name.startswith("memlink.")]


def memlink_caches():
    """Every lru_cache bound in a memlink module's globals."""
    return list({id(v): v for mod in memlink_modules()
                 for v in vars(mod).values()
                 if callable(getattr(v, "cache_clear", None))
                 and hasattr(v, "cache_info")}.values())


def container_sizes():
    """Length of every dict, list and set held by a memlink module or by
    a class defined in one."""
    sizes = {}
    for mod in memlink_modules():
        owners = [(mod.__name__, vars(mod))]
        owners += [(f"{mod.__name__}.{name}", vars(value))
                   for name, value in vars(mod).items()
                   if isinstance(value, type)
                   and value.__module__ == mod.__name__]
        for owner, namespace in owners:
            for attr, value in namespace.items():
                if isinstance(value, (dict, list, set)):
                    sizes[f"{owner}.{attr}"] = len(value)
    return sizes


class TestCacheDiscipline:
    def test_chain_evaluated_once_then_shared(self, monkeypatch):
        for fn in memlink_caches():
            fn.cache_clear()
        calls = []
        original = source.atom_photon_state

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(source, "atom_photon_state", counting)
        bundle = calibrated_bundle()
        delay = bell_delay_s(bundle)
        first = trial_distribution(bundle, BasisSetting("X", "X"), delay)
        assert len(calls) == 1
        assert trial_distribution(bundle, BasisSetting("X", "X"),
                                  delay) is first
        assert len(calls) == 1
        # other settings, delays, stages and a detector-only change all
        # reuse the one source state
        det = bundle.detection
        darker = dataclasses.replace(bundle, detection=dataclasses.replace(
            det, det_b=dataclasses.replace(det.det_b, dark_rate=1e-3)))
        for b in (bundle, darker):
            for setting in (None, BasisSetting("Z", "Z"),
                            BasisSetting("A1", "B0")):
                for delay in (0.0, 50e-6):
                    for stage in STAGES:
                        trial_distribution(b, setting, delay, stage)
        assert len(calls) == 1

    def test_every_cache_is_bounded(self):
        caches = memlink_caches()
        assert caches
        for fn in caches:
            assert fn.cache_info().maxsize is not None, fn.__qualname__

    def test_no_module_or_class_container_grows(self):
        before = container_sizes()
        base = ExperimentBundle()
        for k, rate in enumerate((2e-4, 3e-4, 4e-4)):
            bundle = dataclasses.replace(
                base, channel=dataclasses.replace(
                    base.channel, background_rate=rate))
            for stage in STAGES:
                trial_distribution(bundle, BasisSetting("X", "Y"),
                                   10e-6 * (k + 1), stage)
                noise_distribution(bundle, None, stage)
        assert container_sizes() == before

    def test_traced_public_functions_are_not_cache_wrappers(self):
        for mod, name in TRACED_PUBLIC:
            fn = getattr(mod, name)
            assert not hasattr(fn, "cache_info"), f"{mod.__name__}.{name}"
            assert not hasattr(fn, "__wrapped__"), f"{mod.__name__}.{name}"
