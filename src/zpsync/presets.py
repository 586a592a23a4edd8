"""Flat key/value experiment configuration and the named presets.

Config files hold one ``key = value`` pair per line with TOML-style scalars
(quoted strings, numbers, booleans, flat lists). Named presets ship as data
files next to this module, one per canned experiment; command-line flags
override file values.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

from .channel import DelayProfile, NoiseMixture
from .harness import ExperimentSpec
from .waveform import ConfigError, SystemConfig

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1")

_CONFIG_KEYS = {
    "n_data",
    "n_zero",
    "n_taps",
    "n_blocks",
    "n_tx",
    "n_rx",
    "mod_order",
    "signal_power",
    "sample_rate_hz",
    "snr_db",
    "gaussian_source",
}
_KNOWN_KEYS = _CONFIG_KEYS | {
    "command",
    "axis",
    "values",
    "trials",
    "estimators",
    "d_min",
    "d_max",
    "workers",
    "noise",
    "p0",
    "var_nominal",
    "var_impulse",
    "pdp_scale",
    "pdp_decay",
    "pdp_normalized",
    "pdp_powers",
    "ks",
    "alphas",
    "sizes",
}


class ConfigFileError(ConfigError):
    """Config file problem; carries file and line context."""


def _parse_scalar(token: str, where: str):
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if token in ("true", "false"):
        return token == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise ConfigFileError(f"{where}: cannot parse value {token!r}") from None


def parse_flat_config(text: str, source: str = "<config>") -> dict:
    """Parse a flat key/value config document."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if "=" not in line:
            raise ConfigFileError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigFileError(f"{where}: unknown key {key!r}")
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1].strip()
            items = [t for t in (s.strip() for s in inner.split(",")) if t]
            out[key] = [_parse_scalar(t, where) for t in items]
        else:
            out[key] = _parse_scalar(value, where)
    return out


def load_config_file(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigFileError(f"config file not found: {path}")
    return parse_flat_config(path.read_text(), source=str(path))


def load_preset(name: str) -> dict:
    if name not in PRESET_NAMES:
        raise ConfigFileError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    text = resources.files("zpsync").joinpath(f"presets/{name}.toml").read_text()
    return parse_flat_config(text, source=f"preset:{name}")


def merge_settings(*layers: dict) -> dict:
    """Later layers override earlier ones; None values never override."""
    merged: dict = {}
    for layer in layers:
        for key, value in layer.items():
            if value is not None:
                merged[key] = value
    return merged


def config_from_settings(settings: dict) -> SystemConfig:
    kwargs = {k: settings[k] for k in _CONFIG_KEYS if k in settings}
    return SystemConfig(**kwargs)


def profile_from_settings(settings: dict, n_taps: int) -> DelayProfile:
    if "pdp_powers" in settings:
        return DelayProfile(np.asarray(settings["pdp_powers"], dtype=float))
    return DelayProfile.exponential(
        scale=float(settings.get("pdp_scale", 1.0)),
        decay=float(settings.get("pdp_decay", 0.05)),
        n_taps=n_taps,
        normalized=bool(settings.get("pdp_normalized", True)),
    )


def mixture_from_settings(settings: dict) -> NoiseMixture:
    kind = settings.get("noise", "impulsive")
    if kind == "gaussian":
        return NoiseMixture.gaussian(float(settings.get("var_nominal", 1.0)))
    if kind == "impulsive":
        return NoiseMixture.impulsive(
            p_nominal=float(settings.get("p0", 0.99)),
            var_nominal=float(settings.get("var_nominal", 1.0)),
            var_impulse=float(settings.get("var_impulse", 100.0)),
        )
    raise ConfigFileError(f"noise must be 'gaussian' or 'impulsive', got {kind!r}")


def spec_from_settings(settings: dict, master_seed: int, workers: int = 1) -> ExperimentSpec:
    config = config_from_settings(settings)
    axis = settings.get("axis", "snr_db")
    values = settings.get("values")
    if values is None:
        raise ConfigFileError("sweep needs 'values' (the axis points)")
    if axis == "antennas":
        values = tuple(parse_antennas(v) for v in values)
    else:
        values = tuple(values)
    return ExperimentSpec(
        config=config,
        profile=profile_from_settings(settings, config.n_taps),
        mixture=mixture_from_settings(settings),
        axis=axis,
        values=values,
        trials=int(settings.get("trials", 500)),
        master_seed=master_seed,
        estimators=tuple(settings.get("estimators", ["aml"])),
        d_min=int(settings.get("d_min", -30)),
        d_max=int(settings.get("d_max", 30)),
        workers=workers,
    )


def parse_antennas(token) -> tuple[int, int]:
    """Parse an antenna pair like '2x2' into (n_tx, n_rx)."""
    if isinstance(token, (tuple, list)) and len(token) == 2:
        return int(token[0]), int(token[1])
    parts = str(token).lower().split("x")
    try:
        n_tx, n_rx = map(int, parts)
    except ValueError:
        raise ConfigFileError(f"antenna pair must look like '2x2', got {token!r}") from None
    return n_tx, n_rx
