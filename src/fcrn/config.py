"""Run configuration: JSON document with published defaults, dotted overrides."""
from __future__ import annotations

import copy
import json

DEFAULTS = {
    "seed": 0,
    "out_dir": "out",
    "data": {
        "subjects": None,
        "curves": None,
    },
    "grid": {"width": 5.0, "max_time": 100.0},
    "train": {
        "head": "csm",
        "n_causes": 2,
        "cause": 1,
        "hidden": [32, 64, 32],
        "lr": 0.001,
        "batch_size": 64,
        "max_epochs": 500,
        "patience": 20,
        "val_fraction": 0.1,
        "n_basis": 3,
        "basis_grid_search": False,
        "basis_grid": [2, 3, 4, 5, 6, 7, 8],
        "time_encoding": "scalar",
        "use_functional": True,
        "normalize_curves": True,
    },
    "mvi": {
        "enabled": True,
        "eta": 0.003,
        "decay": 0.1,
        "milestones": [50, 100],
        "noise": True,
        "pred_weight": 1.0,
        "i_repeats": 1,
        "corr_threshold": 0.2,
        "k_max": 5,
        "ridge": 1e-3,
        "max_epochs": 150,
    },
    "simulate": {
        "n": 1000,
        "n_train": 800,
        "n_test": 200,
        "functional": True,
        "missing_rate": 0.0,
    },
    "evaluate": {
        "t0": 0.0,
        "horizons": [100.0],
    },
}


class ConfigError(ValueError):
    """A config file, override or key that does not fit DEFAULTS."""


def load_config(path=None, overrides=()):
    """Merge defaults, an optional JSON file, and dotted-path overrides.

    Raises ConfigError for unparsable JSON, a malformed override, or a key
    that DEFAULTS does not have.
    """
    cfg = copy.deepcopy(DEFAULTS)
    if path:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError("%s: invalid JSON: %s" % (path, e))
        if not isinstance(doc, dict):
            raise ConfigError("%s: config must be a JSON object" % path)
        _deep_update(cfg, doc)
    for item in overrides:
        if "=" not in item:
            raise ConfigError("override %r is not of the form key.path=value" % item)
        key, _, raw = item.partition("=")
        value = _parse_value(raw.strip())
        for part in reversed(key.strip().split(".")):
            value = {part: value}
        _deep_update(cfg, value)
    return cfg


def _deep_update(base, update, prefix=""):
    for k, v in update.items():
        if k not in base:
            raise ConfigError("unknown config key %r" % (prefix + k))
        is_section = isinstance(base[k], dict)
        if is_section != isinstance(v, dict):
            raise ConfigError("config key %r must %sbe an object"
                              % (prefix + k, "" if is_section else "not "))
        if is_section:
            _deep_update(base[k], v, prefix + k + ".")
        else:
            base[k] = v


def _parse_value(raw):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def dump_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)
        fh.write("\n")
