"""Detection layer: basis projection, trial distributions, tallies."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from scipy.special import j0

from memlink import channel as link
from memlink import detection, dualrail, memory_a, memory_b, source
from memlink import calibrate as cal
from memlink.config import (NOISE_PARAMS, ExperimentBundle, calibrated_bundle,
                            with_noise)
from memlink.detection import (
    PATTERN_NAMES,
    PATTERNS,
    BasisSetting,
    CountsTable,
    DetectionConfig,
    DetectionConfigError,
    DetectorParams,
    noise_distribution,
    tally,
    tally_noise,
    trial_distributions,
)
from memlink.estimators import correlator
from memlink.memory_b import EITParams
from memlink.scenarios import (CHSH_SETTINGS, CORR_SETTINGS, bell_delay_s,
                               stage_delays)
from oracles import (apply_channel, decohere_state, detection_povm, embedded,
                     expectation, partial_trace, project_basis, pure_state)

IDEAL_PAIR = pure_state([1.0, 0.0, 0.0, 1.0])
SQRT_HALF = 1.0 / math.sqrt(2.0)


def noise_free_bundle():
    """All technical noise off, storage asymmetry removed."""
    base = ExperimentBundle()
    return dataclasses.replace(
        base,
        source=dataclasses.replace(base.source, double_amp_scale=0.0),
        eit=EITParams(eta_up=0.25, eta_down=0.25),
    )


def ideal_expectation(a, b):
    """<A x B> of the ideal pair for the named basis setting."""
    obs_a, obs_b = project_basis(BasisSetting(a, b))
    return expectation(IDEAL_PAIR, np.kron(obs_a, obs_b))


def assert_conserved(t):
    """No negative bin, no more signed outcomes than coincidences and no
    more coincidences than trials."""
    assert t.outcome_counts.min() >= 0
    assert t.outcome_counts.sum() <= t.coincidences <= t.trials


def distribution(bundle, setting, delay_s, stage="stored"):
    """The 16 phase-averaged pattern probabilities of one setting at one
    delay."""
    return trial_distributions(bundle, (setting,), (delay_s,), stage)[0, 0]


def conditional_correlator(bundle, setting, delay_s=0.0, stage="stored"):
    bins = tally(distribution(bundle, setting, delay_s, stage),
                 1).outcome_counts
    return (bins[0] + bins[3] - bins[1] - bins[2]) / bins.sum()


def batch(bundle, setting, n, delay_s, rng=None, stage="stored",
          noise_windows=0):
    """Tallies of n attempts at one setting, sampled with an rng and
    expected without one, plus node B's clicks in the noise windows."""
    table = tally(distribution(bundle, setting, delay_s, stage), n,
                  bundle.detection.double_click_policy, rng)
    return tally_noise(table, noise_distribution(bundle, setting, stage),
                       noise_windows, rng)


class TestProjectBasis:
    def test_all_settings_dichotomic(self):
        for a in ("Z", "X", "Y", "A0", "A1"):
            for b in ("Z", "X", "Y", "B0", "B1"):
                for obs in project_basis(BasisSetting(a, b)):
                    np.testing.assert_allclose(obs @ obs, np.eye(2),
                                               atol=1e-12)

    def test_tilted_setting_squares_to_identity(self):
        _, obs_b = project_basis(BasisSetting("A0", "B0"))
        np.testing.assert_allclose(obs_b @ obs_b, np.eye(2),
                                   atol=1e-12)

    def test_chsh_members_resolve_to_paulis(self):
        obs_a0, _ = project_basis(BasisSetting("A0", "B0"))
        obs_a1, _ = project_basis(BasisSetting("A1", "B0"))
        np.testing.assert_allclose(obs_a0, np.diag([1.0, -1.0]))
        np.testing.assert_allclose(obs_a1,
                                   np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_ideal_state_correlators(self):
        values = {("Z", "Z"): 1.0, ("X", "X"): 1.0, ("Y", "Y"): -1.0}
        for (a, b), want in values.items():
            np.testing.assert_allclose(ideal_expectation(a, b), want,
                                       atol=1e-12)

    def test_ideal_state_fidelity_formula(self):
        corr = {name: ideal_expectation(name, name) for name in "XYZ"}
        f = (1.0 + corr["X"] - corr["Y"] + corr["Z"]) / 4.0
        np.testing.assert_allclose(f, 1.0, atol=1e-12)

    def test_ideal_state_tilted_expectation(self):
        np.testing.assert_allclose(ideal_expectation("A0", "B0"), SQRT_HALF,
                                   atol=1e-12)

    def test_ideal_state_reaches_tsirelson(self):
        s = 0.0
        for a, b, sign in (("A0", "B0", 1), ("A0", "B1", 1),
                           ("A1", "B0", 1), ("A1", "B1", -1)):
            s += sign * ideal_expectation(a, b)
        np.testing.assert_allclose(s, 2.0 * math.sqrt(2.0), atol=1e-12)

    def test_corr_sign_convention_flips_z(self):
        cfg = DetectionConfig(z_b_up_sign_corr=-1.0)
        _, obs_b = project_basis(BasisSetting("Z", "Z"), cfg)
        np.testing.assert_allclose(obs_b, np.diag([-1.0, 1.0]))

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

    def test_povm_dark_rate_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="dark-count probability"):
            detection._povm_terms(2, ((None, 1.0),), 1.0, 1.0)

    def test_double_click_policy_names(self):
        with pytest.raises(DetectionConfigError):
            DetectionConfig(double_click_policy="drop")

    def test_sign_values(self):
        with pytest.raises(DetectionConfigError):
            DetectionConfig(z_b_up_sign_chsh=0.5)


class TestCountsTable:
    def table(self, trials, coincidences, bins):
        return CountsTable(outcome_counts=np.array(bins), trials=trials,
                           singles_a=trials, singles_b=trials,
                           coincidences=coincidences)

    def test_outcome_bin_order(self):
        # [++, +-, -+, --], node A's sign first
        counts = np.zeros(len(PATTERNS), dtype=np.int64)
        for n, pattern in zip((10, 20, 30, 40),
                              (("plus", "plus"), ("plus", "minus"),
                               ("minus", "plus"), ("minus", "minus"))):
            counts[PATTERNS.index(pattern)] = n
        t = detection._tally_counts(counts, "discard",
                                    np.random.default_rng(0))
        assert isinstance(t, CountsTable)
        np.testing.assert_array_equal(t.outcome_counts, [10, 20, 30, 40])

    def test_check_rejects_outcome_excess(self):
        t = self.table(trials=10, coincidences=1, bins=[5, 0, 0, 0])
        with pytest.raises(AssertionError):
            assert_conserved(t)

    def test_check_rejects_coincidences_beyond_trials(self):
        t = self.table(trials=1, coincidences=2, bins=[0, 0, 0, 0])
        with pytest.raises(AssertionError):
            assert_conserved(t)


def phase_resolved(bundle, setting, delay_s, stage="stored"):
    """(c, swing): the coefficients c[k] of the parts dn = k = 0, 1, 2 of
    one setting's 16 pattern probabilities at one delay, from the
    engine's contraction before its phase average, and the mains
    swing."""
    cutoff = bundle.source.fock_cutoff
    coeffs, swing = detection._contract(
        bundle, detection._setting_keys((setting,)), (delay_s,), stage,
        detection._prefix(bundle, stage)[None],
        lambda bases, eta, dark: detection._povm_terms(cutoff, bases, eta,
                                                       dark))
    return coeffs[0, 0].reshape(3, -1), float(swing[0])


def folded(coeffs):
    """Pattern probabilities of parts whose phase is fixed."""
    return np.clip(np.real(coeffs[0]) + 2.0 * np.real(coeffs[1])
                   + 2.0 * np.real(coeffs[2]), 0.0, None)


class TestTrialDistribution:
    def test_probabilities_normalized(self):
        probs = distribution(calibrated_bundle(), BasisSetting(), 103e-6)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)
        assert probs.min() >= 0.0

    def test_synced_distribution_has_no_fourier_terms(self):
        # a synced phase is fixed: no swing is left to average over, and
        # the distribution is its parts folded at that phase
        bundle = ExperimentBundle()
        coeffs, swing = phase_resolved(bundle, BasisSetting(), 103e-6)
        assert swing == 0.0
        np.testing.assert_allclose(
            distribution(bundle, BasisSetting(), 103e-6), folded(coeffs),
            rtol=0.0, atol=1e-12)

    def test_unsynced_mean_matches_numerical_phase_average(self):
        base = ExperimentBundle()
        bundle = dataclasses.replace(
            base,
            coherence=dataclasses.replace(
                base.coherence, mains_synced=False,
                mains_amplitude_gauss=1.61e-3),
        )
        coeffs, swing = phase_resolved(bundle, BasisSetting("X", "X"),
                                       60e-6)
        assert swing > 0.0
        u = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        phi = swing * np.sin(u)[:, None]
        series = np.clip(np.real(coeffs[0]), 0.0, None) + sum(
            2.0 * np.real(np.exp(-1j * k * phi) * coeffs[k])
            for k in (1, 2))
        numeric = np.clip(series, 0.0, None).mean(axis=0)
        np.testing.assert_allclose(
            distribution(bundle, BasisSetting("X", "X"), 60e-6), numeric,
            atol=1e-9)

    def test_pattern_index(self):
        dists = trial_distributions(ExperimentBundle(), (BasisSetting(),),
                                    (0.0,), "source")
        assert PATTERNS.index(("plus", "none")) == 3
        assert PATTERNS.index(("none", "plus")) == 12
        assert dists.shape == (1, 1, len(PATTERNS)) == (1, 1, 16)

    def test_empty_delay_vector_gives_empty_array(self):
        dists = trial_distributions(ExperimentBundle(),
                                    (BasisSetting("X", "X"),), [])
        assert dists.shape == (1, 0, 16)

    def test_unknown_stage_rejected(self):
        with pytest.raises(DetectionConfigError):
            distribution(ExperimentBundle(), BasisSetting(), 0.0, "midway")


class TestNoiseFreeOracles:
    def test_coincidence_probability_matches_budget(self):
        delay = link.latency(ExperimentBundle().channel)
        for bundle in (ExperimentBundle(), calibrated_bundle()):
            ab = tally(distribution(bundle, BasisSetting(), delay),
                       1).coincidences
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
            ),
            eit=dataclasses.replace(bundle.eit, readout_eta_b=0.065),
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
        sampled = batch(bundle, BasisSetting("Z", "Z"), n, 103e-6, rng)
        expected = batch(bundle, BasisSetting("Z", "Z"), n, 103e-6)
        for name in ("singles_a", "singles_b", "coincidences"):
            got = getattr(sampled, name)
            want = getattr(expected, name)
            sigma = math.sqrt(max(want, 1.0))
            assert abs(got - want) <= 4.0 * sigma, (name, got, want)

    def test_sampling_reproducible(self):
        bundle = calibrated_bundle()
        a = batch(bundle, BasisSetting("X", "X"), 50_000, 103e-6,
                   np.random.default_rng(5))
        b = batch(bundle, BasisSetting("X", "X"), 50_000, 103e-6,
                   np.random.default_rng(5))
        np.testing.assert_array_equal(a.outcome_counts, b.outcome_counts)
        assert a.trials == b.trials

    def test_tables_pass_conservation_check(self):
        bundle = calibrated_bundle()
        t = batch(bundle, BasisSetting("Z", "Z"), 100_000, 103e-6,
                   np.random.default_rng(17), noise_windows=100_000)
        assert_conserved(t)
        assert t.noise_windows == 100_000
        assert t.noise_counts >= 0

    def test_noise_counts_linear_in_dark_rate(self):
        base = ExperimentBundle()

        def noise_rate(dark):
            det = base.detection
            bundle = dataclasses.replace(
                base,
                detection=dataclasses.replace(det, dark_b=dark),
            )
            dist = noise_distribution(bundle, BasisSetting())
            return tally(dist, 1).singles_b

        r1 = noise_rate(2e-6)
        r2 = noise_rate(4e-6)
        np.testing.assert_allclose(r2 / r1, 2.0, rtol=0.05)

    def test_analytic_counts_deterministic(self):
        bundle = calibrated_bundle()
        a = batch(bundle, BasisSetting("Y", "Y"), 300_000, 103e-6,
                   noise_windows=300_000)
        b = batch(bundle, BasisSetting("Y", "Y"), 300_000, 103e-6,
                   noise_windows=300_000)
        np.testing.assert_array_equal(a.outcome_counts, b.outcome_counts)
        assert a.noise_counts == b.noise_counts

    def test_expected_counts_are_unrounded_means(self):
        # no count is rounded: every tally is the trial count times the
        # pattern probabilities summed over the patterns it reads
        bundle = calibrated_bundle()
        n = 300_000_000
        for stage in ("source", "stored"):
            table = batch(bundle, None, n, 103e-6, stage=stage,
                           noise_windows=n)
            mean = distribution(bundle, None, 103e-6, stage)
            noise = noise_distribution(bundle, None, stage)
            want = {"singles_a": 0.0, "singles_b": 0.0, "coincidences": 0.0,
                    "noise_counts": 0.0}
            for (a, b), p, q in zip(PATTERNS, mean, noise):
                want["singles_a"] += p * n if a != "none" else 0.0
                want["singles_b"] += p * n if b != "none" else 0.0
                want["coincidences"] += (p * n if "none" not in (a, b)
                                         else 0.0)
                want["noise_counts"] += q * n if b != "none" else 0.0
            for name, value in want.items():
                np.testing.assert_allclose(getattr(table, name), value,
                                           rtol=1e-12, err_msg=stage)
            assert table.trials == table.noise_windows == n

    def test_double_click_policies_at_distribution_level(self):
        bundle = calibrated_bundle()
        dist = distribution(bundle, BasisSetting("Z", "Z"), 103e-6)
        discard = tally(dist, 1, "discard").outcome_counts
        random_split = tally(dist, 1, "random").outcome_counts
        assert discard.sum() <= random_split.sum() + 1e-15
        coincidence = tally(dist, 1).coincidences
        np.testing.assert_allclose(random_split.sum(), coincidence,
                                   rtol=1e-12)


class TestAccumulate:
    """Pattern-count vectors folded into a CountsTable by the tally table."""

    FIXTURE = (
        (("plus", "plus"), 1),
        (("minus", "plus"), 1),
        (("plus", "none"), 1),
        (("none", "minus"), 1),
        (("none", "none"), 1),
        (("both", "plus"), 1),
    )

    def counts(self, rows):
        out = np.zeros(len(PATTERNS), dtype=np.int64)
        for pattern, n in rows:
            out[PATTERNS.index(pattern)] += n
        return out

    def tally(self, rows, policy="discard", seed=0):
        return detection._tally_counts(self.counts(rows), policy,
                                       np.random.default_rng(seed))

    def test_empty_input(self):
        table = self.tally(())
        assert table.trials == 0
        assert table.coincidences == 0
        np.testing.assert_array_equal(table.outcome_counts, 0)
        assert_conserved(table)

    def test_hand_counted_fixture(self):
        table = self.tally(self.FIXTURE)
        assert table.trials == 6
        assert table.singles_a == 4
        assert table.singles_b == 4
        assert table.coincidences == 3
        # the double-click pattern is discarded from the outcome bins
        np.testing.assert_array_equal(table.outcome_counts, [1, 0, 1, 0])
        assert_conserved(table)

    def test_sharded_merge_matches_single_pass(self):
        # the discard tally is linear: two batches tallied apart add up
        # to the batches tallied together
        first, second = self.FIXTURE[:3], self.FIXTURE[3:] + ((
            ("both", "both"), 4), (("minus", "minus"), 2))
        parts = [self.tally(rows) for rows in (first, second)]
        whole = self.tally(first + second)
        for name in ("trials", "singles_a", "singles_b", "coincidences"):
            assert (getattr(parts[0], name) + getattr(parts[1], name)
                    == getattr(whole, name))
        np.testing.assert_array_equal(
            parts[0].outcome_counts + parts[1].outcome_counts,
            whole.outcome_counts)

    def test_random_split_keeps_bins_summing_to_coincidences(self):
        rows = self.FIXTURE + ((("plus", "both"), 37),
                               (("both", "both"), 101),
                               (("both", "none"), 9))
        discard = self.tally(rows)
        for seed in range(5):
            table = self.tally(rows, policy="random", seed=seed)
            assert table.outcome_counts.sum() == table.coincidences
            for name in ("trials", "singles_a", "singles_b", "coincidences"):
                assert getattr(table, name) == getattr(discard, name)
            assert_conserved(table)
        a = self.tally(rows, policy="random", seed=3)
        b = self.tally(rows, policy="random", seed=3)
        np.testing.assert_array_equal(a.outcome_counts, b.outcome_counts)

    def test_expected_tallies_are_the_table_rows(self):
        # the float reductions read the same table as the integer ones
        rows = self.FIXTURE + ((("both", "both"), 2),)
        probs = self.counts(rows) / 8.0
        clicks = tally(probs, 1)
        assert ((clicks.singles_a, clicks.singles_b, clicks.coincidences)
                == (0.75, 0.75, 0.625))
        np.testing.assert_array_equal(
            tally(probs, 1, "discard").outcome_counts, [1 / 8, 0, 1 / 8, 0])
        # (both, plus) splits over ++ and -+, (both, both) over all four
        np.testing.assert_array_equal(
            tally(probs, 1, "random").outcome_counts,
            [1 / 8 + 1 / 16 + 1 / 16, 1 / 16, 1 / 8 + 1 / 16 + 1 / 16, 1 / 16])


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
        t_full = batch(bundle, BasisSetting("Z", "Z"), n, 0.0,
                        np.random.default_rng(8), stage="transferred")
        t_half = batch(halved, BasisSetting("Z", "Z"), n, 0.0,
                        np.random.default_rng(9), stage="transferred")
        c_full = correlator(t_full)
        c_half = correlator(t_half)
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


def _plus_minus_rotation(cutoff, obs):
    """Sector unitary into the +1 / -1 eigenmodes of a 2x2 observable."""
    vals, vecs = np.linalg.eigh(obs)
    basis = vecs[:, np.argsort(vals)[::-1]]
    return dualrail.mode_rotation(cutoff, basis.conj().T)


def photon_loss(rho, cutoff, eta1, eta2):
    """Loss on the photonic factor, as operators padded with the
    identity on the atomic one."""
    ops = dualrail.loss_channel(cutoff, eta1, eta2).operators
    return apply_channel(rho, embedded(ops, dualrail.sector_dim(cutoff), 1))


def reference_distribution(bundle, setting, delay_s, stage):
    """(base, fourier, swing) from a fresh forward walk through every
    stage, on the whole joint matrix."""
    cutoff = bundle.source.fock_cutoff
    atom_dim = dualrail.sector_dim(cutoff)
    rho = source.atom_photon_state(bundle.source).state
    collect = bundle.source.collection
    rho = photon_loss(rho, cutoff, collect, collect)
    if stage != "source":
        eta = link.channel_efficiency(bundle.channel)
        rho = photon_loss(rho, cutoff, eta, eta)
        bg_rate = bundle.channel.background_rate
        if bg_rate > 0.0:
            i1, i2 = dualrail.qubit_indices(cutoff)
            bg = np.zeros((atom_dim, atom_dim))
            bg[i1, i1] = bg[i2, i2] = 0.5
            marginal = partial_trace(rho, (atom_dim, atom_dim), keep=0)
            rho = (1.0 - bg_rate) * rho + bg_rate * np.kron(marginal, bg)
    if stage == "stored":
        rho = photon_loss(rho, cutoff, *bundle.eit.map_in())
        rho = photon_loss(rho, cutoff, *bundle.eit.map_out())
    rho, weights = decohere_state(rho, cutoff, delay_s, bundle.coherence,
                                  bundle.geometry)
    det = bundle.detection
    eta_a = det.det_a.eta_det
    loss_a = dualrail.loss_channel(cutoff, weights[0] * eta_a,
                                   weights[1] * eta_a)
    rest = rho.shape[0] // atom_dim
    rho = apply_channel(rho, embedded(loss_a.operators, 1, rest))

    if setting is None:
        rot_a = rot_b = None
    else:
        obs_a, obs_b = project_basis(BasisSetting(*setting), det)
        rot_a = _plus_minus_rotation(cutoff, obs_a)
        rot_b = _plus_minus_rotation(cutoff, obs_b)
    if stage == "source":
        eta_b, dark_b = det.det_monitor.eta_det, det.det_monitor.dark_rate
    else:
        eta_b, dark_b = bundle.eit.detection_residual(), det.dark_b
    povm_a = detection_povm(cutoff, rot_a, eta=1.0, dark=det.det_a.dark_rate)
    povm_b = detection_povm(cutoff, rot_b, eta=eta_b, dark=dark_b)

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


def phase_averaged(base, fourier, swing):
    """The reference's probabilities averaged over a per-trial phase
    swing * sin(uniform), which takes exp(-i k phi) to J0(k swing)."""
    if not fourier:
        return base
    return np.clip(base + sum(2.0 * j0(k * swing) * np.real(coeff)
                              for k, coeff in enumerate(fourier, start=1)),
                   0.0, None)


class TestEngineMatchesReference:
    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("name", sorted(reference_bundles()))
    def test_base_and_fourier_agree(self, name, stage):
        # every setting and delay from one call, against the reference's
        # phase average; the phase-resolved parts through StoredReadout
        bundle = reference_bundles()[name]
        bases = [None if setting is None else BasisSetting(*setting)
                 for setting in REFERENCE_SETTINGS]
        dists = trial_distributions(bundle, bases, reference_delays(),
                                    stage)
        assert dists.shape == (len(bases), len(reference_delays()),
                               len(PATTERNS))
        for setting, basis, row in zip(REFERENCE_SETTINGS, bases, dists):
            for delay, probs in zip(reference_delays(), row):
                base, fourier, swing = reference_distribution(
                    bundle, setting, delay, stage)
                where = f"{name} {stage} {setting} {delay:g}"
                np.testing.assert_allclose(
                    probs, phase_averaged(base, fourier, swing), rtol=0.0,
                    atol=1e-12, err_msg=where)
                coeffs, got_swing = phase_resolved(bundle, basis, delay,
                                                   stage)
                assert got_swing == swing, where
                if swing == 0.0:
                    got_base, got_fourier = folded(coeffs), ()
                else:
                    got_base = np.clip(np.real(coeffs[0]), 0.0, None)
                    got_fourier = tuple(coeffs[1:])
                np.testing.assert_allclose(got_base, base, rtol=0.0,
                                           atol=1e-12, err_msg=where)
                assert len(got_fourier) == len(fourier), where
                for got, want in zip(got_fourier, fourier):
                    np.testing.assert_allclose(got, want, rtol=0.0,
                                               atol=1e-12, err_msg=where)

    @pytest.mark.parametrize("stage", STAGES)
    def test_noise_distribution_is_the_source_off_walk(self, stage):
        bundle = calibrated_bundle()
        off = dataclasses.replace(bundle, source=dataclasses.replace(
            bundle.source, chi=1e-12, double_amp_scale=0.0))
        for setting in REFERENCE_SETTINGS:
            basis = None if setting is None else BasisSetting(*setting)
            probs = noise_distribution(bundle, basis, stage)
            base, _, _ = reference_distribution(off, setting, 0.0, stage)
            np.testing.assert_allclose(probs, base, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# cache discipline: every cache is a bounded, module-level lru_cache that
# a cold start can empty, and no traced public function hides one.

TRACED_PUBLIC = (
    (source, "atom_photon_state"), (link, "photon_loss_joint"),
    (link, "transmit"), (memory_b, "map_in"), (memory_b, "map_out"),
    (memory_a, "decohere"), (dualrail, "loss_channel"),
    (detection, "trial_distributions"),
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
        # one call evaluates the chain once and shares its state among
        # every setting and delay it is asked for, at each stage
        calls = []
        original = source.atom_photon_state

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(source, "atom_photon_state", counting)
        bundle = calibrated_bundle()
        settings = (None, BasisSetting("Z", "Z"), BasisSetting("A1", "B0"))
        for stage in STAGES:
            for n in (1, 3):
                for delays in ((0.0,), (0.0, 50e-6, bell_delay_s(bundle))):
                    calls.clear()
                    trial_distributions(bundle, settings[:n], delays, stage)
                    assert len(calls) == 1, (stage, n, delays)

    def test_basis_rotation_shared_across_dark_rates(self, monkeypatch):
        # a dark-rate step, as calibrate takes, rebuilds the POVM stack
        # but not the basis rotation behind it
        for fn in memlink_caches():
            fn.cache_clear()
        calls = []
        original = dualrail.mode_rotation

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dualrail, "mode_rotation", counting)
        base = ExperimentBundle()
        for dark in (1e-4, 2e-4, 3e-4):
            det = base.detection
            bundle = dataclasses.replace(base, detection=dataclasses.replace(
                det, det_a=dataclasses.replace(det.det_a, dark_rate=dark)))
            trial_distributions(bundle, (BasisSetting("X", "Y"),), (0.0,))
        assert len(calls) == 2  # one per node

    def test_distributions_pull_back_only_node_a_povms(self, monkeypatch):
        # a sweep pulls back node A's four POVM elements per distinct
        # basis (A0 and A1 are Z and X), and no dark-rate slopes beside
        for fn in memlink_caches():
            fn.cache_clear()
        rows = []
        original = memory_a.StoredReadout.effects

        def counting(readout, povm):
            rows.append(len(povm))
            return original(readout, povm)

        monkeypatch.setattr(memory_a.StoredReadout, "effects", counting)
        settings = tuple(BasisSetting(a, "Z")
                         for a in ("Z", "X", "Y", "A0", "A1"))
        trial_distributions(calibrated_bundle(), settings,
                            np.linspace(0.0, 400e-6, 49))
        assert rows == [4 * 3]

    def test_only_the_caches_that_workloads_hit(self):
        # each kept cache hits within one campaign or one calibrate()
        # (this module imports calibrate); a new one names its hits here.
        # Arrays they return are shared, so read-only.
        base = with_noise(ExperimentBundle(),
                          {name: 0.0 for name, *_ in NOISE_PARAMS})
        calls = {
            "memlink.detection._rotation": (2, "X", 1.0),
            "memlink.detection._povm_polynomial": (2, (("X", 1.0),), 0.5),
            "memlink.calibrate._noise_polynomial": (base,),
            "memlink.dualrail.occupations": (2,),
            "memlink.dualrail.index_of": (2,),
        }
        caches = {f"{fn.__module__}.{fn.__qualname__}": fn
                  for fn in memlink_caches()}
        assert sorted(caches) == sorted(calls)
        for name, args in calls.items():
            out = caches[name](*args)
            for arr in out if isinstance(out, tuple) else (out,):
                if isinstance(arr, np.ndarray):
                    assert not arr.flags.writeable, name

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
                trial_distributions(bundle, (BasisSetting("X", "Y"),),
                                    (10e-6 * (k + 1),), stage)
                noise_distribution(bundle, None, stage)
        assert container_sizes() == before

    def test_traced_public_functions_are_not_cache_wrappers(self):
        for mod, name in TRACED_PUBLIC:
            fn = getattr(mod, name)
            assert not hasattr(fn, "cache_info"), f"{mod.__name__}.{name}"
            assert not hasattr(fn, "__wrapped__"), f"{mod.__name__}.{name}"


# every setting calibrate reads: the bare basis, then CHSH and correlators
CAL_SETTINGS = (None,) + tuple(BasisSetting(*pair)
                               for pair in CHSH_SETTINGS + CORR_SETTINGS)


def from_polynomial(bundle, settings, delays):
    """{stage: (S, 6, 16)}: the pattern probabilities of the settings at
    each stage's delay from ``trial_polynomials`` of the bundle with its
    noise values zeroed, evaluated at the bundle's noise values, then
    their derivatives by each FREE_PARAMS constant."""
    base = with_noise(bundle, dict.fromkeys(cal.FREE_PARAMS, 0.0))
    coeffs = detection.trial_polynomials(
        base, [(settings, delay) for delay in delays])
    feats = detection.trial_features(bundle)
    return {stage: np.einsum("mk,ksp->smp", f, c)
            for stage, f, c in zip(STAGES, feats, coeffs)}


def with_mains(bundle, synced):
    return dataclasses.replace(bundle, coherence=dataclasses.replace(
        bundle.coherence, mains_synced=synced))


class TestTrialPolynomials:
    """The noise polynomial against the engine it stands in for."""

    @pytest.mark.parametrize("cutoff", [2, 3])
    @pytest.mark.parametrize("synced", [True, False],
                             ids=["synced", "free-running-mains"])
    def test_values_match_engine_inside_bounds(self, synced, cutoff):
        rng = np.random.default_rng(20 + cutoff)
        base = ExperimentBundle()
        base = with_mains(dataclasses.replace(base, source=dataclasses.replace(
            base.source, fock_cutoff=cutoff)), synced)
        delays = [t for _, t in stage_delays(base)]
        worst = 0.0
        for _ in range(20):
            bundle = with_noise(base, {
                name: rng.uniform(*cal._BOUNDS[name])
                for name in cal.FREE_PARAMS})
            poly = from_polynomial(bundle, CAL_SETTINGS, delays)
            for stage, delay in zip(STAGES, delays):
                engine = trial_distributions(bundle, CAL_SETTINGS, (delay,),
                                             stage)[:, 0]
                worst = max(worst, np.abs(poly[stage][:, 0] - engine).max())
        assert worst <= 1e-12

    def test_ignore_the_bundles_noise_values(self):
        noisy = calibrated_bundle()
        clean = with_noise(noisy, dict.fromkeys(cal.FREE_PARAMS, 0.0))
        checkpoints = [(CAL_SETTINGS, t) for _, t in stage_delays(noisy)]
        for got, want in zip(
                detection.trial_polynomials(noisy, checkpoints),
                detection.trial_polynomials(clean, checkpoints)):
            np.testing.assert_array_equal(got, want)


class TestTrialTangents:
    """Exact derivatives of the pattern distributions by each calibrated
    constant, from the noise polynomial (the calibration Jacobian's
    engine), against central differences of ``trial_distributions``."""

    STEPS = {"double_amp_scale": 1e-4, "dark_monitor": 1e-8,
             "background_rate": 1e-7, "dark_a": 1e-7, "dark_b": 1e-8}

    @pytest.mark.parametrize("synced", [True, False],
                             ids=["synced", "free-running-mains"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_match_central_differences(self, stage, synced):
        bundle = with_mains(calibrated_bundle(), synced)
        # long enough for a large mains swing, short of the T2* washout
        delay = 300e-6
        tangents = from_polynomial(bundle, CAL_SETTINGS,
                                   [delay] * 3)[stage][:, 1:]
        assert tangents.shape == (len(CAL_SETTINGS), 5, 16)
        frozen = {name: value for name, _, value, _ in NOISE_PARAMS}
        for m, name in enumerate(cal.FREE_PARAMS):
            step = self.STEPS[name]
            up, down = (trial_distributions(
                with_noise(bundle, {name: frozen[name] + sign * step}),
                CAL_SETTINGS, (delay,), stage)[:, 0] for sign in (1.0, -1.0))
            np.testing.assert_allclose(tangents[:, m],
                                       (up - down) / (2.0 * step),
                                       rtol=1e-5, atol=1e-12)
