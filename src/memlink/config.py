"""Campaign configuration: parameter bundles, YAML files, hashing.

A campaign is fully described by an ExperimentBundle (all physics and
detector parameters) plus the scenario name, trial count, master seed
and sweep axis.  Two configs with the same hash produce byte-identical
output files; the hash is computed over a canonical YAML serialization
that excludes the output directory.

The calibrated noise values live here as module constants; they are the
output of the ``calibrate`` command and feed the ``bell``,
``fidelity`` and ``checkpoints`` campaigns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import yaml

from .channel import ChannelParams
from .detection import DetectionConfig, DetectorParams
from .memory_a import CoherenceParams, FreezingGeometry
from .memory_b import EITParams
from .source import SourceParams
from .timeline import TrialTimeline

SCENARIOS = ("lifetime", "correlation-sweep", "checkpoints", "bell",
             "fidelity", "budget", "mains", "direct-fiber-compare")

# Noise parameters fitted by the calibrate command against the target
# correlation figures (write/read g2 at the three checkpoints, CHSH S
# and Bell-state fidelity).  Everything else in the default bundle is a
# lab-measured value.
CAL_DOUBLE_AMP_SCALE = 0.66016904
CAL_DARK_MONITOR = 1.2433172e-3
CAL_BACKGROUND_RATE = 1.5070684e-4
CAL_DARK_A = 6.0e-4
CAL_DARK_B = 1.7975279e-6


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


@dataclass(frozen=True)
class ExperimentBundle:
    """Every parameter of the two-node link in one hashable object."""

    source: SourceParams = SourceParams()
    channel: ChannelParams = ChannelParams()
    coherence: CoherenceParams = CoherenceParams()
    geometry: FreezingGeometry = FreezingGeometry()
    eit: EITParams = EITParams()
    detection: DetectionConfig = dataclasses.field(
        default_factory=DetectionConfig)
    timeline: TrialTimeline = TrialTimeline()


# Default Monte Carlo trial counts per scenario.  The Bell campaign is
# pinned at 1e7 attempts; the checkpoint and fidelity campaigns default
# higher because their figures sit on rare stored-stage coincidences and
# the extra attempts cost little.
DEFAULT_TRIALS = {
    "lifetime": 10_000_000,
    "correlation-sweep": 10_000_000,
    "checkpoints": 300_000_000,
    "bell": 10_000_000,
    "fidelity": 1_000_000_000,
    "budget": 10_000_000,
    "mains": 10_000_000,
    "direct-fiber-compare": 10_000_000,
}


@dataclass(frozen=True)
class CampaignConfig:
    """One runnable campaign: scenario, bundle, trials, seed, outputs.

    ``trials=None`` resolves to the scenario's entry in DEFAULT_TRIALS.
    """

    scenario: str = "bell"
    bundle: ExperimentBundle = dataclasses.field(
        default_factory=ExperimentBundle)
    trials: int | None = None
    seed: int = 20260823
    sweep_us: tuple[float, ...] | None = None
    out_dir: str = "results"
    mode: str = "auto"
    calibrated: bool | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}"
            )
        if self.trials is None:
            object.__setattr__(self, "trials", DEFAULT_TRIALS[self.scenario])
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.mode not in ("auto", "mc", "analytic"):
            raise ConfigError(f"mode must be auto/mc/analytic, not {self.mode}")
        if self.sweep_us is not None:
            if len(self.sweep_us) < 1:
                raise ConfigError("sweep_us must not be empty")
            if not all(math.isfinite(t) for t in self.sweep_us):
                raise ConfigError("sweep_us times must be finite")
            if any(t < 0 for t in self.sweep_us):
                raise ConfigError("sweep_us times must be non-negative")


# The calibrated noise values, one row each: the name ``calibrate``
# fits it under, its config key, its fitted value and the attribute path
# to it in an ExperimentBundle.
NOISE_PARAMS = (
    ("double_amp_scale", "source.double_amp_scale", CAL_DOUBLE_AMP_SCALE,
     ("source", "double_amp_scale")),
    ("dark_monitor", "detectors.monitor.dark_rate", CAL_DARK_MONITOR,
     ("detection", "det_monitor", "dark_rate")),
    ("background_rate", "channel.background_rate", CAL_BACKGROUND_RATE,
     ("channel", "background_rate")),
    ("dark_a", "detectors.node_a.dark_rate", CAL_DARK_A,
     ("detection", "det_a", "dark_rate")),
    ("dark_b", "detectors.node_b.dark_rate", CAL_DARK_B,
     ("detection", "dark_b")),
)


def _replaced(obj, path: tuple[str, ...], value):
    """Copy of a nested frozen dataclass with the attribute at path set."""
    head, *rest = path
    if rest:
        value = _replaced(getattr(obj, head), tuple(rest), value)
    return dataclasses.replace(obj, **{head: value})


def with_noise(base: ExperimentBundle,
               values: dict[str, float]) -> ExperimentBundle:
    """``base`` with the named noise values (NOISE_PARAMS names) set."""
    b = base
    for name, _, _, path in NOISE_PARAMS:
        if name in values:
            b = _replaced(b, path, float(values[name]))
    return b


def _noise_values(b: ExperimentBundle) -> dict[str, float]:
    """The values ``calibrated_bundle`` replaces, by config key."""
    out = {}
    for _, key, _, path in NOISE_PARAMS:
        value = b
        for attr in path:
            value = getattr(value, attr)
        out[key] = value
    return out


def calibrated_bundle(base: ExperimentBundle | None = None
                      ) -> ExperimentBundle:
    """Default bundle with the fitted noise values switched in.

    Raises ConfigError when ``base`` sets one of those values away from
    its default, since calibration would silently replace it.
    """
    b = base or ExperimentBundle()
    defaults = _noise_values(ExperimentBundle())
    for key, value in _noise_values(b).items():
        if value != defaults[key]:
            raise ConfigError(
                f"{key} = {value!r} would be replaced by its calibrated "
                f"value; set calibrated: false to keep it")
    return with_noise(b, {name: cal for name, _, cal, _ in NOISE_PARAMS})


# ---------------------------------------------------------------------------
# (de)serialization

_SECTION_TYPES = {
    "source": SourceParams,
    "channel": ChannelParams,
    "coherence": CoherenceParams,
    "geometry": FreezingGeometry,
    "eit": EITParams,
    "timeline": TrialTimeline,
}

_DETECTOR_KEYS = ("monitor", "node_a", "node_b", "double_click_policy",
                  "z_b_up_sign_chsh", "z_b_up_sign_corr")
_TOP_KEYS = ("scenario", "trials", "seed", "sweep_us", "out_dir", "mode",
             "calibrated", "source", "channel", "coherence", "geometry",
             "eit", "detectors", "timeline")


def _section_mapping(mapping, section: str, keys) -> dict:
    """A config section as a mapping with only the given keys."""
    if mapping is None:
        return {}
    if not isinstance(mapping, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    unknown = set(mapping) - set(keys)
    if unknown:
        raise ConfigError(
            f"unknown keys in section {section!r}: {sorted(unknown)}"
        )
    return mapping


def _build_section(cls, mapping: dict, section: str, defaults=None):
    """Instantiate a parameter dataclass from a config mapping."""
    mapping = _section_mapping(mapping, section,
                               (f.name for f in dataclasses.fields(cls)))
    try:
        if defaults is not None:
            return dataclasses.replace(defaults, **mapping)
        return cls(**mapping)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"section {section!r}: {exc}") from exc


def _build_detection(mapping: dict | None) -> DetectionConfig:
    """Node B takes only a dark rate: its efficiency comes from ``eit``."""
    extras = dict(_section_mapping(mapping, "detectors", _DETECTOR_KEYS))
    base = DetectionConfig()
    det_monitor = _build_section(DetectorParams, extras.pop("monitor", None),
                                 "detectors.monitor", defaults=base.det_monitor)
    det_a = _build_section(DetectorParams, extras.pop("node_a", None),
                           "detectors.node_a", defaults=base.det_a)
    node_b = _section_mapping(extras.pop("node_b", None), "detectors.node_b",
                              ("dark_rate",))
    try:
        return DetectionConfig(det_monitor=det_monitor, det_a=det_a,
                               dark_b=node_b.get("dark_rate", base.dark_b),
                               **extras)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"section 'detectors': {exc}") from exc


def load_config(path: str, overrides: dict | None = None) -> CampaignConfig:
    """Read a campaign config file, applying CLI overrides on top."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return config_from_mapping(raw, overrides)


def _whole(key: str, value) -> int:
    """An integer config value; a bool or a fractional number is refused
    rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def config_from_mapping(raw: dict,
                        overrides: dict | None = None) -> CampaignConfig:
    unknown = set(raw) - set(_TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    raw = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value

    sections = {}
    for name, cls in _SECTION_TYPES.items():
        sections[name] = _build_section(cls, raw.get(name), name)
    detection = _build_detection(raw.get("detectors"))

    bundle = ExperimentBundle(
        source=sections["source"], channel=sections["channel"],
        coherence=sections["coherence"], geometry=sections["geometry"],
        eit=sections["eit"], detection=detection,
        timeline=sections["timeline"])

    sweep = raw.get("sweep_us")
    if sweep is not None:
        if not isinstance(sweep, (list, tuple)):
            raise ConfigError("sweep_us must be a list of times")
        try:
            sweep = tuple(float(v) for v in sweep)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sweep_us times must be numbers: {exc}"
                              ) from exc
    raw_trials = raw.get("trials")
    calibrated = raw.get("calibrated")
    if calibrated is not None and not isinstance(calibrated, bool):
        raise ConfigError(
            f"calibrated must be true, false or null, got {calibrated!r}")
    try:
        return CampaignConfig(
            scenario=raw.get("scenario", "bell"), bundle=bundle,
            trials=(None if raw_trials is None
                    else _whole("trials", raw_trials)),
            seed=_whole("seed", raw.get("seed", 20260823)), sweep_us=sweep,
            out_dir=str(raw.get("out_dir", "results")),
            mode=raw.get("mode", "auto"), calibrated=calibrated)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def _plain(obj):
    """Recursively convert to YAML-safe primitives with stable types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def config_to_mapping(cfg: CampaignConfig) -> dict:
    det = cfg.bundle.detection
    mapping = {
        "scenario": cfg.scenario,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "mode": cfg.mode,
        "calibrated": cfg.calibrated,
        "sweep_us": list(cfg.sweep_us) if cfg.sweep_us is not None else None,
        "out_dir": cfg.out_dir,
        "source": _plain(cfg.bundle.source),
        "channel": _plain(cfg.bundle.channel),
        "coherence": _plain(cfg.bundle.coherence),
        "geometry": _plain(cfg.bundle.geometry),
        "eit": _plain(cfg.bundle.eit),
        "detectors": {
            "monitor": _plain(det.det_monitor),
            "node_a": _plain(det.det_a),
            "node_b": {"dark_rate": det.dark_b},
            "double_click_policy": det.double_click_policy,
            "z_b_up_sign_chsh": det.z_b_up_sign_chsh,
            "z_b_up_sign_corr": det.z_b_up_sign_corr,
        },
        "timeline": _plain(cfg.bundle.timeline),
    }
    return mapping


def _dump(mapping: dict, stream=None):
    """``yaml.safe_dump(mapping, stream, sort_keys=True)``, on libyaml's
    emitter when PyYAML was built with it: the same text, in about a
    third of the time of the pure-Python emitter."""
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    return yaml.dump(mapping, stream, Dumper=dumper, sort_keys=True)


def save_config(cfg: CampaignConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _dump(config_to_mapping(cfg), fh)


def config_hash(cfg: CampaignConfig) -> str:
    """Stable hash of everything that can influence output bytes.

    The hash is over the YAML text of the config's mapping without
    ``out_dir``, keys sorted; that text is the same on either emitter,
    so a hash does not depend on whether libyaml is installed.
    """
    mapping = config_to_mapping(cfg)
    mapping.pop("out_dir", None)
    canonical = _dump(mapping)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
