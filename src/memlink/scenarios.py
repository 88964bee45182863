"""Campaign scenarios: sweeps, tables and verdicts for each figure.

Each scenario turns a CampaignConfig into CSV tables (columns
``t_us,value,sigma,n`` at six significant digits), a key-value summary
and a list of pass/fail verdicts.  Identical configurations and seeds
produce byte-identical outputs: nothing here reads clocks, hostnames or
dictionary order.

Scenario catalog (fixed): lifetime, correlation-sweep, checkpoints,
bell, fidelity, budget, mains, direct-fiber-compare.  New studies are
config compositions (sweep axis, parameter overrides), not new code.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import channel as link
from . import estimators, fitting, memory_a
from .config import (CampaignConfig, ExperimentBundle, calibrated_bundle,
                     config_hash)
from .constants import CODATA
from .detection import (BasisSetting, noise_distribution, tally,
                        tally_noise, trial_distributions)
from .estimators import EstimateWithError

CSV_HEADER = "t_us,value,sigma,n"

CHSH_SETTINGS = (("A0", "B0"), ("A0", "B1"), ("A1", "B0"), ("A1", "B1"))
CORR_SETTINGS = (("X", "X"), ("Y", "Y"), ("Z", "Z"))

# published figure-of-merit anchors used as verdict targets
G2_TARGETS = ((14.2, 0.5), (13.2, 1.4), (12.6, 2.0))
CHSH_TARGET = (2.73, 0.20)
FIDELITY_TARGET = (0.90, 0.03)
PAIR_COINCIDENCE_P = 6.1e-6     # measured per-attempt pair coincidence
CHANNEL_EFFICIENCY_TARGET = (0.040, 0.001)
# stray-field amplitudes measured with and without line triggering
MAINS_AMPLITUDE_FREE_G = 1.61e-3
MAINS_AMPLITUDE_SYNCED_G = 0.35e-3

_MC_SCENARIOS = ("bell", "fidelity", "checkpoints")


@dataclass
class ScenarioOutput:
    tables: dict[str, list[tuple]] = field(default_factory=dict)
    summary: dict[str, str] = field(default_factory=dict)
    verdicts: list[tuple[str, bool, str]] = field(default_factory=list)


@dataclass
class CampaignResult:
    scenario: str
    passed: bool
    out_dir: str
    files: list[str]
    summary: dict[str, str]
    verdicts: list[tuple[str, bool, str]]
    error: str | None = None


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{float(x):.6g}"


class _Streams:
    """Deterministic per-batch random generators from one master seed.

    With no seed every batch gets None, which ``detection.tally`` reads
    as the exact expectation: this is the whole of ``analytic`` mode.
    """

    def __init__(self, master_seed: int | None):
        self._seed = master_seed
        self._next = 0

    def take(self) -> np.random.Generator | None:
        if self._seed is None:
            return None
        seq = np.random.SeedSequence(self._seed, spawn_key=(self._next,))
        self._next += 1
        return np.random.default_rng(seq)


def bell_delay_s(bundle: ExperimentBundle) -> float:
    """Earliest readout time with zero accumulated bias-field phase.

    The two-node correlators rotate at the Zeeman rate of the emitting
    node's bias field, so the joint analysis is timed at the first full
    phase revolution that falls after the photon has crossed the link.
    The receiving node's analysis electronics settle well within one
    revolution, so only the flight time bounds the choice.
    """
    earliest = link.latency(bundle.channel)
    rate = (CODATA.zeeman_rate_rad_per_s_gauss
            * bundle.coherence.bias_field_gauss)
    if rate <= 0.0:
        return earliest
    period = 2.0 * math.pi / rate
    k = max(1, math.ceil(earliest / period - 1e-12))
    return k * period


def stage_delays(bundle: ExperimentBundle) -> tuple:
    """(checkpoint, delay) of the three g2 checkpoints: the source, the
    far end of the link and the stored qubit at the Bell delay."""
    tl = bundle.timeline
    return (
        ("source", tl.analysis_delay_s),
        ("transferred", link.latency(bundle.channel) + tl.analysis_delay_s),
        ("stored", bell_delay_s(bundle)),
    )


def _correlator(bundle, probs, n_trials: int, rng) -> EstimateWithError:
    """Post-selected correlator of n_trials attempts from one attempt's
    pattern probabilities."""
    return estimators.correlator(
        tally(probs, n_trials, bundle.detection.double_click_policy, rng))


def _exact_series(bundle, setting: BasisSetting,
                  sweep_us: np.ndarray) -> np.ndarray:
    """Exact correlator of one trial at each delay of the sweep."""
    (dists,) = trial_distributions(bundle, (setting,), sweep_us * 1e-6)
    return np.array([_correlator(bundle, probs, 1, None).value
                     for probs in dists])


def _resolve_mode(cfg: CampaignConfig) -> str:
    if cfg.mode != "auto":
        return cfg.mode
    return "mc" if cfg.scenario in _MC_SCENARIOS else "analytic"


def _resolve_bundle(cfg: CampaignConfig) -> ExperimentBundle:
    use_cal = cfg.calibrated
    if use_cal is None:
        use_cal = cfg.scenario in _MC_SCENARIOS
    return calibrated_bundle(cfg.bundle) if use_cal else cfg.bundle


def _sweep_us(cfg: CampaignConfig, default: np.ndarray) -> np.ndarray:
    if cfg.sweep_us is not None:
        return np.asarray(cfg.sweep_us, dtype=float)
    return default


# ---------------------------------------------------------------------------
# scenarios


def _scn_lifetime(cfg, bundle, streams) -> ScenarioOutput:
    """Retrieval efficiency vs storage time; Gaussian 1/e fit."""
    frozen = bundle.geometry.frozen
    span = 900.0 if frozen else 80.0
    sweep = _sweep_us(cfg, np.linspace(0.0, span, 25))
    tau_th = memory_a.mode_lifetimes(bundle.coherence, bundle.geometry)
    tau_th_s = 0.5 * (tau_th[0] + tau_th[1])

    rows = []
    values = []
    rng = streams.take()
    n_pt = max(cfg.trials // len(sweep), 1)
    policy = bundle.detection.double_click_policy
    (dists,) = trial_distributions(bundle, (None,), sweep * 1e-6)
    for t_us, probs in zip(sweep, dists):
        est = estimators.retrieval(tally(probs, n_pt, policy, rng))
        rows.append((t_us, est.value, est.sigma, est.n_samples))
        values.append(est.value)

    fit = fitting.fit_decay(sweep, np.array(values), "gaussian-decay")
    tau_fit_us = fit.one_over_e_time
    out = ScenarioOutput(tables={"sweep": rows})
    out.summary["tau_fit_us"] = _fmt(tau_fit_us)
    out.summary["tau_theory_us"] = _fmt(tau_th_s * 1e6)
    out.summary["frozen"] = str(frozen).lower()
    out.summary["fit_model"] = fit.model
    if frozen:
        ok = (math.isfinite(tau_fit_us)
              and abs(tau_fit_us - tau_th_s * 1e6) <= 0.10 * tau_th_s * 1e6)
        out.verdicts.append((
            "lifetime-frozen", ok,
            f"1/e time {_fmt(tau_fit_us)} us vs theory "
            f"{_fmt(tau_th_s * 1e6)} us (10% band)"))
    else:
        ok = 30.0 <= tau_fit_us <= 45.0
        out.verdicts.append((
            "lifetime-unfrozen", ok,
            f"1/e time {_fmt(tau_fit_us)} us inside 30-45 us"))
    return out


def _scn_correlation_sweep(cfg, bundle, streams) -> ScenarioOutput:
    """<ZZ> and <XX> vs storage time with decay/oscillation fits.

    The showcase tables use the bundle as configured.  The T1/T2*
    recovery checks fit synthetic sweeps with the other decay channels
    switched off, because the full model is deliberately not a pure
    exponential (double excitations dilute the correlator by a slowly
    age-dependent amount).
    """
    sweep = _sweep_us(cfg, np.linspace(0.0, 400.0, 25))
    rng = streams.take()
    n_pt = max(cfg.trials // (2 * len(sweep)), 1)
    table_rows = {"zz": [], "xx": []}
    series = {"zz": [], "xx": []}
    settings = (BasisSetting("Z", "Z"), BasisSetting("X", "X"))
    for name, dists in zip(("zz", "xx"), trial_distributions(
            bundle, settings, sweep * 1e-6)):
        for t_us, probs in zip(sweep, dists):
            try:
                est = _correlator(bundle, probs, n_pt, rng)
            except estimators.EstimatorError:
                # no coincidences landed in this point's windows; keep
                # the dropout in the table but out of the fits
                value, sigma, n = math.nan, math.inf, 0
            else:
                value, sigma, n = est.value, est.sigma, est.n_samples
            table_rows[name].append((t_us, value, sigma, n))
            series[name].append(value)

    out = ScenarioOutput(tables=table_rows)
    coh = bundle.coherence

    zz = np.array(series["zz"])
    zz_ok = np.isfinite(zz)
    t1_fit = fitting.fit_decay(sweep[zz_ok], zz[zz_ok], "exponential-decay")
    out.summary["t1_fit_us"] = _fmt(t1_fit.one_over_e_time)
    out.summary["t1_config_us"] = _fmt(coh.t1_s * 1e6)

    xx = np.array(series["xx"])
    xx_ok = np.isfinite(xx)
    osc = fitting.fit_oscillation(sweep[xx_ok], xx[xx_ok])
    f_exp_per_us = (CODATA.zeeman_hz_per_gauss
                    * coh.bias_field_gauss * 1e-6)
    out.summary["xx_frequency_per_us"] = _fmt(osc.frequency)
    out.summary["xx_frequency_expected_per_us"] = _fmt(f_exp_per_us)
    out.summary["xx_envelope_us"] = _fmt(osc.one_over_e_time)
    ok = (f_exp_per_us > 0
          and abs(osc.frequency - f_exp_per_us) <= 0.01 * f_exp_per_us)
    out.verdicts.append((
        "xx-frequency", ok,
        f"fitted {_fmt(osc.frequency)} per us vs Zeeman "
        f"{_fmt(f_exp_per_us)} per us (1% band)"))

    singles = dataclasses.replace(bundle.source, double_amp_scale=0.0)
    if math.isfinite(coh.t1_s):
        # Asymmetric storage efficiencies leave <ZZ> a small constant
        # baseline at long times; symmetrize them so the synthetic curve
        # is a pure exponential.
        eta = 0.5 * (bundle.eit.eta_up + bundle.eit.eta_down)
        sym = dataclasses.replace(bundle.eit, eta_up=eta, eta_down=eta)
        t1_bundle = dataclasses.replace(bundle, source=singles, eit=sym)
        t1_sweep = np.linspace(0.0, 2.0 * coh.t1_s * 1e6, 25)
        iso = fitting.fit_decay(
            t1_sweep, _exact_series(t1_bundle, BasisSetting("Z", "Z"),
                                    t1_sweep),
            "exponential-decay")
        out.summary["t1_recovered_us"] = _fmt(iso.one_over_e_time)
        ok = (math.isfinite(iso.one_over_e_time)
              and abs(iso.one_over_e_time - coh.t1_s * 1e6)
              <= 0.05 * coh.t1_s * 1e6)
        out.verdicts.append((
            "t1-recovery", ok,
            f"fitted {_fmt(iso.one_over_e_time)} us vs configured "
            f"{_fmt(coh.t1_s * 1e6)} us (5% band)"))

    if math.isfinite(coh.t2_star_s):
        t2_coh = dataclasses.replace(coh, t1_s=math.inf,
                                     mains_amplitude_gauss=0.0)
        t2_bundle = dataclasses.replace(bundle, source=singles,
                                        coherence=t2_coh)
        t2_us = coh.t2_star_s * 1e6
        t2_sweep = np.linspace(0.0, 400.0, 49)
        iso = fitting.fit_oscillation(
            t2_sweep, _exact_series(t2_bundle, BasisSetting("X", "X"),
                                    t2_sweep))
        out.summary["t2star_recovered_us"] = _fmt(iso.one_over_e_time)
        ok = abs(iso.one_over_e_time - t2_us) <= 0.05 * t2_us
        out.verdicts.append((
            "t2star-recovery", ok,
            f"envelope {_fmt(iso.one_over_e_time)} us vs configured "
            f"{_fmt(t2_us)} us (5% band)"))
    return out


def _scn_checkpoints(cfg, bundle, streams) -> ScenarioOutput:
    """Write/read g2 and write-photon SNR at the three link stages."""
    checkpoints = stage_delays(bundle)
    n_stage = max(cfg.trials // 3, 1)
    g2_rows, snr_rows = [], []
    g2_list, snr_list = [], []
    out = ScenarioOutput()
    for idx, (stage, delay) in enumerate(checkpoints):
        rng = streams.take()
        ((probs,),) = trial_distributions(bundle, (None,), (delay,), stage)
        table = tally(probs, n_stage, bundle.detection.double_click_policy,
                      rng)
        table = tally_noise(table, noise_distribution(bundle, None, stage),
                            n_stage, rng)
        g2 = estimators.g2_wr(table)
        ratio = estimators.snr(table)
        g2_rows.append((float(idx), g2.value, g2.sigma, g2.n_samples))
        snr_rows.append((float(idx), ratio.value, ratio.sigma,
                         ratio.n_samples))
        g2_list.append(g2)
        snr_list.append(ratio)
        out.summary[f"g2_{stage}"] = str(g2)
        out.summary[f"snr_{stage}"] = str(ratio)
    out.tables["g2"] = g2_rows
    out.tables["snr"] = snr_rows

    for (target, band), est, (stage, _) in zip(G2_TARGETS, g2_list,
                                               checkpoints):
        ok = est.compatible(target, band, n_sigma=1.0)
        out.verdicts.append((
            f"g2-{stage}", ok,
            f"{est} vs {target} +/- {band} (1 combined sigma)"))
    # The storage step should not improve the signal-to-noise ratio; one
    # combined sigma of slack keeps the check meaningful when the noise
    # window statistics are thin.
    slack = math.hypot(snr_list[2].sigma, snr_list[1].sigma)
    drop = snr_list[2].value < snr_list[1].value + slack
    out.verdicts.append((
        "snr-drop", drop,
        f"stored SNR {snr_list[2]} at or below transferred SNR "
        f"{snr_list[1]} (1 combined sigma)"))
    return out


def _correlator_campaign(cfg, bundle, settings, streams
                         ) -> tuple[dict[str, EstimateWithError],
                                    ScenarioOutput]:
    """One correlator per setting at the Bell delay, with its table row
    and summary line, and the delay in the summary."""
    delay = bell_delay_s(bundle)
    n_setting = max(cfg.trials // len(settings), 1)
    bases = [BasisSetting(a, b) for a, b in settings]
    dists = trial_distributions(bundle, bases, (delay,), "stored")[:, 0]
    est = {setting.key: _correlator(bundle, probs, n_setting, streams.take())
           for setting, probs in zip(bases, dists)}
    rows = [(float(i), e.value, e.sigma, e.n_samples)
            for i, e in enumerate(est.values())]
    out = ScenarioOutput(tables={"correlators": rows})
    for key, e in est.items():
        out.summary[f"correlator_{key.replace(',', '_')}"] = str(e)
    out.summary["delay_us"] = _fmt(delay * 1e6)
    return est, out


def _fidelity_verdict(est, out: ScenarioOutput) -> None:
    f_val = estimators.fidelity(est["X,X"], est["Y,Y"], est["Z,Z"])
    out.summary["fidelity"] = str(f_val)
    out.verdicts.append((
        "fidelity", f_val.compatible(*FIDELITY_TARGET, n_sigma=1.0),
        f"F = {f_val} vs {FIDELITY_TARGET[0]} +/- {FIDELITY_TARGET[1]} "
        f"(1 combined sigma)"))


def _scn_bell(cfg, bundle, streams) -> ScenarioOutput:
    """CHSH S and Bell-state fidelity at the phase-revival delay."""
    settings = CHSH_SETTINGS + CORR_SETTINGS
    est, out = _correlator_campaign(cfg, bundle, settings, streams)
    s_val = estimators.chsh(est["A0,B0"], est["A0,B1"],
                            est["A1,B0"], est["A1,B1"])
    out.summary["chsh_s"] = str(s_val)
    out.summary["trials_per_setting"] = str(
        max(cfg.trials // len(settings), 1))
    out.verdicts.append((
        "chsh", s_val.compatible(*CHSH_TARGET, n_sigma=1.0),
        f"S = {s_val} vs {CHSH_TARGET[0]} +/- {CHSH_TARGET[1]} "
        f"(1 combined sigma)"))
    _fidelity_verdict(est, out)
    return out


def _scn_fidelity(cfg, bundle, streams) -> ScenarioOutput:
    """Bell-state fidelity alone (X, Y, Z correlators)."""
    est, out = _correlator_campaign(cfg, bundle, CORR_SETTINGS, streams)
    _fidelity_verdict(est, out)
    return out


def _scn_budget(cfg, bundle, streams) -> ScenarioOutput:
    """Efficiency chain bookkeeping against the published factors."""
    ch = bundle.channel
    eta_ch = link.channel_efficiency(ch)
    eta_a = bundle.detection.det_a.eta_det
    eta_b = bundle.eit.readout_eta_b
    ent_from_factors = PAIR_COINCIDENCE_P / (eta_a * eta_b)

    delay = bell_delay_s(bundle)
    # expected coincidences of one attempt
    p_cc_model = tally(trial_distributions(bundle, (None,), (delay,))[0, 0],
                       1).coincidences
    ent_model = p_cc_model / (eta_a * eta_b)

    rows = [
        (0.0, ch.eta_dfg, 0.0, 0),
        (1.0, link.fiber_transmission(ch.fiber_loss_db), 0.0, 0),
        (2.0, ch.eta_sfg, 0.0, 0),
        (3.0, eta_ch, 0.0, 0),
        (4.0, eta_a, 0.0, 0),
        (5.0, eta_b, 0.0, 0),
        (6.0, PAIR_COINCIDENCE_P, 0.0, 0),
        (7.0, ent_from_factors, 0.0, 0),
        (8.0, p_cc_model, 0.0, 0),
        (9.0, ent_model, 0.0, 0),
    ]
    out = ScenarioOutput(tables={"chain": rows})
    out.summary["channel_efficiency"] = _fmt(eta_ch)
    out.summary["entangling_efficiency_from_factors"] = _fmt(ent_from_factors)
    out.summary["coincidence_probability_model"] = _fmt(p_cc_model)
    out.summary["entangling_efficiency_model"] = _fmt(ent_model)

    tgt, band = CHANNEL_EFFICIENCY_TARGET
    ok_eta = abs(eta_ch - tgt) <= band
    out.verdicts.append((
        "channel-efficiency", ok_eta,
        f"{_fmt(eta_ch)} vs {tgt} +/- {band}"))
    recomputed = PAIR_COINCIDENCE_P / (eta_a * eta_b)
    out.verdicts.append((
        "entangling-efficiency", ent_from_factors == recomputed,
        f"{_fmt(ent_from_factors)} = {_fmt(PAIR_COINCIDENCE_P)} / "
        f"({_fmt(eta_a)} x {_fmt(eta_b)})"))
    ok_model = abs(p_cc_model - PAIR_COINCIDENCE_P) <= 0.20 * PAIR_COINCIDENCE_P
    out.verdicts.append((
        "coincidence-model", ok_model,
        f"model {_fmt(p_cc_model)} vs measured "
        f"{_fmt(PAIR_COINCIDENCE_P)} (20% band)"))
    return out


def _mains_envelope(bundle, sweep_us, n_pt, rng):
    """Storage-time envelope from the X-basis quadrature pair."""
    xs, ys = [], []
    rows = []
    quadratures = (BasisSetting("X", "X"), BasisSetting("X", "Y"))
    for t_us, dist_x, dist_y in zip(
            sweep_us, *trial_distributions(bundle, quadratures,
                                           sweep_us * 1e-6)):
        # the Y quadrature is drawn only once the X draw has coincidences
        try:
            env = estimators.envelope(
                _correlator(bundle, dist_x, n_pt, rng),
                _correlator(bundle, dist_y, n_pt, rng))
        except estimators.EstimatorError:
            rows.append((t_us, math.nan, math.inf, 0))
            continue
        rows.append((t_us, env.value, env.sigma, env.n_samples))
        xs.append(t_us)
        ys.append(env.value)
    return rows, np.asarray(xs), np.asarray(ys)


def _scn_mains(cfg, bundle, streams) -> ScenarioOutput:
    """Line-noise dephasing with and without sequence triggering.

    Both arms disable amplitude damping so the fitted envelope isolates
    the phase noise; each arm uses the stray-field amplitude measured
    for that triggering mode.
    """
    sweep = _sweep_us(cfg, np.linspace(0.0, 450.0, 25))
    n_pt = max(cfg.trials // (2 * len(sweep) * 2), 1)
    arms = {
        "unsynced": dataclasses.replace(
            bundle.coherence, mains_amplitude_gauss=MAINS_AMPLITUDE_FREE_G,
            mains_synced=False, t1_s=math.inf),
        "synced": dataclasses.replace(
            bundle.coherence, mains_amplitude_gauss=MAINS_AMPLITUDE_SYNCED_G,
            mains_synced=True, t1_s=math.inf),
    }
    out = ScenarioOutput()
    taus = {}
    for name, coh in arms.items():
        arm_bundle = dataclasses.replace(bundle, coherence=coh)
        rng = streams.take()
        rows, xs, ys = _mains_envelope(arm_bundle, sweep, n_pt, rng)
        out.tables[name] = rows
        fit = fitting.fit_decay(xs, ys, "gaussian-decay")
        taus[name] = fit.one_over_e_time
        out.summary[f"tau_{name}_us"] = _fmt(fit.one_over_e_time)
        out.summary[f"amplitude_{name}_gauss"] = _fmt(
            coh.mains_amplitude_gauss)
    ratio = taus["synced"] / taus["unsynced"]
    out.summary["envelope_ratio"] = _fmt(ratio)
    out.verdicts.append((
        "sync-ratio", ratio > 5.0,
        f"synced/unsynced envelope ratio {_fmt(ratio)} > 5"))
    return out


def _scn_direct_fiber(cfg, bundle, streams) -> ScenarioOutput:
    """Telecom conversion versus sending the native photon directly."""
    ch = bundle.channel
    eta_tele = link.channel_efficiency(ch)
    eta_direct = link.direct_transmission(ch.length_km)
    ratio = eta_tele / eta_direct
    rows = [
        (0.0, eta_tele, 0.0, 0),
        (1.0, eta_direct, 0.0, 0),
        (2.0, ratio, 0.0, 0),
    ]
    out = ScenarioOutput(tables={"compare": rows})
    out.summary["telecom_efficiency"] = _fmt(eta_tele)
    out.summary["direct_visible_transmission"] = _fmt(eta_direct)
    out.summary["advantage_ratio"] = _fmt(ratio)
    out.summary["length_km"] = _fmt(ch.length_km)
    out.verdicts.append((
        "telecom-advantage", ratio > 1e4,
        f"conversion advantage {_fmt(ratio)} over direct fiber"))
    return out


_DISPATCH = {
    "lifetime": _scn_lifetime,
    "correlation-sweep": _scn_correlation_sweep,
    "checkpoints": _scn_checkpoints,
    "bell": _scn_bell,
    "fidelity": _scn_fidelity,
    "budget": _scn_budget,
    "mains": _scn_mains,
    "direct-fiber-compare": _scn_direct_fiber,
}


# ---------------------------------------------------------------------------
# runner


def _write_csv(path: str, rows: list[tuple]) -> None:
    lines = [CSV_HEADER]
    for t_us, value, sigma, n in rows:
        lines.append(f"{_fmt(t_us)},{_fmt(value)},{_fmt(sigma)},{int(n)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_summaries(out_dir: str, scenario: str, header: dict,
                     summary: dict, verdicts, status: str) -> list[str]:
    kv_path = os.path.join(out_dir, "summary.kv")
    txt_path = os.path.join(out_dir, "summary.txt")
    kv = dict(header)
    kv.update(summary)
    for name, ok, _ in verdicts:
        kv[f"verdict_{name}"] = "PASS" if ok else "FAIL"
    kv["status"] = status
    with open(kv_path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(kv):
            fh.write(f"{key}={kv[key]}\n")

    lines = [f"campaign: {scenario}"]
    for key in ("config_hash", "seed", "trials", "mode", "calibrated"):
        lines.append(f"{key}: {header[key]}")
    lines.append("")
    for key in sorted(summary):
        lines.append(f"{key}: {summary[key]}")
    if verdicts:
        lines.append("")
        for name, ok, detail in verdicts:
            tag = "PASS" if ok else "FAIL"
            lines.append(f"[{tag}] {name}: {detail}")
    lines.append("")
    lines.append(f"status: {status}")
    with open(txt_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return [kv_path, txt_path]


def run_experiment(cfg: CampaignConfig) -> CampaignResult:
    """Run one campaign: tables, summary and verdicts under cfg.out_dir."""
    bundle = _resolve_bundle(cfg)
    mode = _resolve_mode(cfg)
    streams = _Streams(cfg.seed if mode == "mc" else None)
    os.makedirs(cfg.out_dir, exist_ok=True)
    header = {
        "scenario": cfg.scenario,
        "config_hash": config_hash(cfg),
        "seed": str(cfg.seed),
        "trials": str(cfg.trials),
        "mode": mode,
        "calibrated": str(bundle != cfg.bundle).lower(),
    }
    try:
        out = _DISPATCH[cfg.scenario](cfg, bundle, streams)
    except Exception as exc:
        files = _write_summaries(cfg.out_dir, cfg.scenario, header,
                                 {"error": str(exc)}, [], "ERROR")
        return CampaignResult(scenario=cfg.scenario, passed=False,
                              out_dir=cfg.out_dir, files=files,
                              summary={"error": str(exc)}, verdicts=[],
                              error=str(exc))

    files = []
    for name in sorted(out.tables):
        path = os.path.join(cfg.out_dir, f"{cfg.scenario}_{name}.csv")
        _write_csv(path, out.tables[name])
        files.append(path)
    passed = all(ok for _, ok, _ in out.verdicts)
    status = "PASS" if passed else "FAIL"
    files.extend(_write_summaries(cfg.out_dir, cfg.scenario, header,
                                  out.summary, out.verdicts, status))
    return CampaignResult(scenario=cfg.scenario, passed=passed,
                          out_dir=cfg.out_dir, files=files,
                          summary=out.summary, verdicts=out.verdicts)
