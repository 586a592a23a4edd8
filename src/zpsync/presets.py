"""Flat key/value experiment configuration and the named presets.

Config files are flat TOML documents (top-level ``key = value`` pairs of
strings, numbers, booleans and lists), read with the standard library's
``tomllib``. Named presets ship as data files next to this module, one per
canned experiment; command-line flags override file values.
"""

from __future__ import annotations

import tomllib
import typing
from importlib import resources
from pathlib import Path

import numpy as np

from .channel import DelayProfile, NoiseMixture
from .harness import ExperimentSpec
from .waveform import ConfigError, SystemConfig

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1")

# Expected type of each known key: a tuple of the scalar types it accepts,
# or a one-item list holding that tuple for a list of such scalars. bool is
# its own type here, so true/false is never taken for an integer.
_INT = (int,)
_FLOAT = (int, float)
_BOOL = (bool,)
_STR = (str,)
# the link keys are SystemConfig's fields, typed from its annotations
_CONFIG_KEYS = {
    name: {int: _INT, float: _FLOAT, bool: _BOOL}[kind]
    for name, kind in typing.get_type_hints(SystemConfig).items()
}
_KEY_TYPES = {
    **_CONFIG_KEYS,
    "axis": _STR,
    "values": [_FLOAT + _STR],
    "trials": _INT,
    "estimators": [_STR],
    "d_min": _INT,
    "d_max": _INT,
    "noise": _STR,
    "p0": _FLOAT,
    "var_impulse": _FLOAT,
    "pdp_decay": _FLOAT,
    "pdp_powers": [_FLOAT],
    "ks": [_INT],
    "sizes": [_INT],
}


class ConfigFileError(ConfigError):
    """Config file problem; carries file and line context."""


def parse_flat_config(text: str, source: str = "<config>") -> dict:
    """Parse a flat TOML config document: known top-level keys only, each
    with a value of its expected type.

    Errors name the file and, for a bare key, the line that assigns it."""
    lines: dict = {}  # bare key -> the lines that assign it
    for lineno, line in enumerate(text.splitlines(), start=1):
        key, eq, _ = line.partition("=")
        if eq and key.strip().isidentifier():
            lines.setdefault(key.strip(), []).append(lineno)
    try:
        out = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        # tomllib's message gives the line but not the key set twice
        repeated = [f"{key!r} on lines {at}" for key, at in lines.items() if len(at) > 1]
        note = "; repeated: " + ", ".join(repeated) if repeated else ""
        raise ConfigFileError(f"{source}: cannot parse: {exc}{note}") from None
    for key, value in out.items():
        where = f"{source}:{lines[key][0]}" if key in lines else source
        if key not in _KEY_TYPES:
            raise ConfigFileError(f"{where}: unknown key {key!r}")
        _check_type(key, value, where)
    return out


def _check_type(key: str, value, where: str) -> None:
    expected = _KEY_TYPES[key]
    if isinstance(expected, list):
        ok = isinstance(value, list) and all(type(v) in expected[0] for v in value)
        wanted = "a list of " + " or ".join(t.__name__ for t in expected[0])
    else:
        ok = type(value) in expected
        wanted = " or ".join(t.__name__ for t in expected)
    if not ok:
        raise ConfigFileError(f"{where}: {key!r} must be {wanted}, got {value!r}")


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
    """Later layers override earlier ones."""
    return {key: value for layer in layers for key, value in layer.items()}


def config_from_settings(settings: dict) -> SystemConfig:
    return SystemConfig(**{k: settings[k] for k in _CONFIG_KEYS if k in settings})


def profile_from_settings(settings: dict, n_taps: int) -> DelayProfile:
    """The tap powers of ``pdp_powers`` as given, or else an exponential
    profile of decay ``pdp_decay`` normalized to unit total power."""
    if "pdp_powers" in settings:
        profile = DelayProfile(np.asarray(settings["pdp_powers"], dtype=float))
        if profile.n_taps != n_taps:
            raise ConfigError(f"profile has {profile.n_taps} taps but config expects {n_taps}")
        return profile
    decay = float(settings.get("pdp_decay", 0.05))
    return DelayProfile.exponential(1.0, decay, n_taps, normalized=True)


def mixture_from_settings(settings: dict) -> NoiseMixture:
    """The base noise mixture. Every run rescales it to its SNR, so it is
    shaped only by ``p0`` and ``var_impulse``, the ratio of impulse power to
    nominal power."""
    kind = settings.get("noise", "impulsive")
    if kind == "gaussian":
        return NoiseMixture.gaussian()
    if kind == "impulsive":
        return NoiseMixture.impulsive(
            p_nominal=float(settings.get("p0", 0.99)),
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
        values = [parse_antennas(v) for v in values]
    return ExperimentSpec(
        config=config,
        profile=profile_from_settings(settings, config.n_taps),
        mixture=mixture_from_settings(settings),
        axis=axis,
        values=values,
        trials=settings.get("trials", 500),
        master_seed=master_seed,
        estimators=tuple(settings.get("estimators", ["aml"])),
        d_min=settings.get("d_min", -30),
        d_max=settings.get("d_max", 30),
        workers=workers,
    )


def parse_antennas(token) -> tuple[int, int]:
    """Parse an antenna pair like '2x2' into (n_tx, n_rx)."""
    parts = str(token).lower().split("x")
    try:
        n_tx, n_rx = map(int, parts)
    except ValueError:
        raise ConfigFileError(f"antenna pair must look like '2x2', got {token!r}") from None
    return n_tx, n_rx
