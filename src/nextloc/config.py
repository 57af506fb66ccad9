"""Flat key=value run configuration with strict keys and layered overrides.

Precedence: command-line flags > config file > a base layer (the showcase's
battery settings) > built-in defaults.  Unknown keys are an error rather than
silently ignored, so a typo cannot quietly fall back to a default.
"""

import dataclasses
import hashlib
import json
import math

from .dataset import check_settings


class ConfigError(ValueError):
    pass


def _optional_int(text):
    return None if str(text).lower() in ("none", "") else int(text)


def _bool(text):
    if isinstance(text, bool):
        return text
    lowered = str(text).strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _int_tuple(text):
    if isinstance(text, (tuple, list)):
        return tuple(int(x) for x in text)
    return tuple(int(x) for x in str(text).split(",") if x != "")


@dataclasses.dataclass
class TrainSettings:
    """What training both networks reads: their sizes, the user side's decay
    rates (alpha per day, beta per km) and the optimiser's settings."""
    dim: int = 10
    slot_dim: int = 4
    alpha: float = 0.1
    beta: float = 100.0
    epochs: int = 150
    lr: float = 1e-3
    optimizer: str = "adam"
    batch_size: int | None = None


@dataclasses.dataclass
class RunConfig(TrainSettings):
    format: str = "gowalla"
    min_records: int = 100
    min_poi_records: int = 0        # 0 disables the optional place filter
    split_ratio: float = 0.8
    window: int = 20
    slots: int = 24
    fusion: str = "maxpool"
    variant: str = "full"
    top_ks: tuple = (1, 5, 10)
    s_u_mode: str = "stepwise"      # user-side rows advance through test time


#: Fields whose default's type cannot parse their text; the rest use it.
_CONVERTERS = {"batch_size": _optional_int, "top_ks": _int_tuple}
#: The least value of each integer setting (a None batch_size is full-batch).
_AT_LEAST = {"min_records": 1, "min_poi_records": 0, "dim": 1, "slot_dim": 1, "epochs": 0,
             "batch_size": 1}


def parse_flat_file(path) -> dict:
    """Read 'key = value' lines; '#' starts a comment, blank lines ignored."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text") from exc
    out = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def coerce_into(cls, mapping: dict, converters: dict | None = None):
    """Build a dataclass instance from string values, rejecting unknown keys."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    values = {}
    for key, text in mapping.items():
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r} for {cls.__name__}; "
                              f"valid keys: {', '.join(sorted(fields))}")
        if converters and key in converters:
            convert = converters[key]
        else:
            convert = type(getattr(cls(), key) if fields[key].default is dataclasses.MISSING
                           else fields[key].default)
            if convert is bool:
                convert = _bool  # bool("False") is True; parse the words instead
        try:
            values[key] = convert(text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from exc
    return cls(**values)


def load_run_config(file_path=None, overrides: dict | None = None, base=None,
                    choices: dict | None = None) -> RunConfig:
    """The one reader of run settings: defaults, ``base`` (a dataclass of
    RunConfig keys), the file, then ``overrides`` (None falls through), all
    converted, then checked; ``choices`` maps a key to its allowed values."""
    merged = dataclasses.asdict(base) if base is not None else {}
    if file_path:
        merged.update(parse_flat_file(file_path))
    merged.update({key: value for key, value in (overrides or {}).items() if value is not None})
    cfg = coerce_into(RunConfig, merged, _CONVERTERS)
    for key, least in _AT_LEAST.items():
        value = getattr(cfg, key)
        if value is not None and value < least:
            raise ConfigError(f"{key} must be at least {least}, got {value}")
    if not (math.isfinite(cfg.lr) and cfg.lr > 0):
        raise ConfigError(f"lr must be finite and positive, got {cfg.lr}")
    for key in ("alpha", "beta"):    # decay rates: a negative one grows without bound
        if not (math.isfinite(getattr(cfg, key)) and getattr(cfg, key) >= 0):
            raise ConfigError(f"{key} must be finite and non-negative, got {getattr(cfg, key)}")
    if not cfg.top_ks or min(cfg.top_ks) < 1:
        raise ConfigError(f"top_ks must be one or more values of at least 1, got {cfg.top_ks}")
    check_settings(cfg.split_ratio, cfg.window, cfg.slots)
    for key, allowed in (choices or {}).items():
        if getattr(cfg, key) not in allowed:
            raise ConfigError(f"unknown {key} {getattr(cfg, key)!r}; "
                              f"expected one of {', '.join(allowed)}")
    return cfg


def config_hash(config) -> str:
    """Stable content hash of a config, a dataclass or a dict of its keys,
    for run manifests."""
    values = dataclasses.asdict(config) if dataclasses.is_dataclass(config) else config
    payload = json.dumps(values, sort_keys=True, default=list)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
