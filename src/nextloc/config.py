"""Flat key=value run configuration with strict keys and layered overrides.

Precedence: command-line flags > config file > built-in defaults.  Unknown
keys are an error rather than silently ignored, so a typo cannot quietly fall
back to a default.
"""

import dataclasses
import hashlib
import json


class ConfigError(ValueError):
    pass


def _int(text):
    return int(text)


def _float(text):
    return float(text)


def _str(text):
    return str(text)


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
class RunConfig:
    format: str = "gowalla"
    min_records: int = 100
    min_poi_records: int = 0        # 0 disables the optional place filter
    split_ratio: float = 0.8
    window: int = 20
    slots: int = 24
    dim: int = 10
    slot_dim: int = 4
    alpha: float = 0.1
    beta: float = 100.0
    optimizer: str = "adam"
    lr: float = 1e-3
    epochs: int = 150
    batch_size: int | None = None
    fusion: str = "maxpool"
    variant: str = "full"
    seeds: tuple = (0, 1, 2, 3, 4)
    top_ks: tuple = (1, 5, 10)
    s_u_mode: str = "stepwise"      # user-side rows advance through test time


_CONVERTERS = {
    "format": _str,
    "min_records": _int,
    "min_poi_records": _int,
    "split_ratio": _float,
    "window": _int,
    "slots": _int,
    "dim": _int,
    "slot_dim": _int,
    "alpha": _float,
    "beta": _float,
    "optimizer": _str,
    "lr": _float,
    "epochs": _int,
    "batch_size": _optional_int,
    "fusion": _str,
    "variant": _str,
    "seeds": _int_tuple,
    "top_ks": _int_tuple,
    "s_u_mode": _str,
}


def parse_flat_file(path) -> dict:
    """Read 'key = value' lines; '#' starts a comment, blank lines ignored."""
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
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


def load_run_config(file_path=None, overrides: dict | None = None) -> RunConfig:
    merged = {}
    if file_path:
        merged.update(parse_flat_file(file_path))
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    cfg = coerce_into(RunConfig, merged, _CONVERTERS)
    if cfg.epochs < 0:
        raise ConfigError(f"epochs must be at least 0, got {cfg.epochs}")
    if not cfg.top_ks or min(cfg.top_ks) < 1:
        raise ConfigError(f"top_ks must be one or more values of at least 1, got {cfg.top_ks}")
    return cfg


def config_hash(config) -> str:
    """Stable content hash of a config, a dataclass or a dict of its keys,
    for run manifests."""
    values = dataclasses.asdict(config) if dataclasses.is_dataclass(config) else config
    payload = json.dumps(values, sort_keys=True, default=list)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
