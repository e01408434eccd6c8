"""Run configuration: JSON document with published defaults, dotted overrides."""
from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math

from .impute import ImputeSettings
from .model import TrainSettings
from .simulate import MAX_MISSING_RATE, SimConfig


def _defaults(settings, skip=(), only=None):
    """{field: default} of a settings dataclass, tuples as JSON lists,
    without the fields in skip or, when only is given, not in only."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in dataclasses.fields(settings)
            if f.name not in skip and (only is None or f.name in only)}


# train, mvi and simulate take their defaults from the settings dataclasses
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
        "cause": 1,
        **_defaults(TrainSettings, skip=("seed", "n_basis")),
        "basis_grid": [TrainSettings.n_basis],
        "use_functional": True,
    },
    "mvi": _defaults(ImputeSettings, skip=("rel_tol",)),
    "simulate": _defaults(SimConfig, only=("n", "n_train", "n_test", "functional",
                                           "missing_rate")),
    "evaluate": {
        "t0": 0.0,
        "horizons": [100.0],
    },
}


# (test, rule) of the values that type-check but that no run can use, by
# dotted key; a list passes when every item does
RANGES = {
    "seed": (lambda v: 0 <= v < 2 ** 32, "in [0, 2**32 - 1]"),
    "train.head": (lambda v: v in ("csm", "sdm"), 'one of "csm", "sdm"'),
    "train.time_encoding": (lambda v: v in ("scalar", "onehot"),
                            'one of "scalar", "onehot"'),
    "train.val_fraction": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "simulate.missing_rate": (lambda v: 0 <= v < MAX_MISSING_RATE,
                              "in [0, %g)" % MAX_MISSING_RATE),
    **{key: (lambda v: 0 < v < math.inf, "positive and finite") for key in (
        "train.batch_size", "train.max_epochs", "train.cause", "train.hidden",
        "train.basis_grid", "train.lr", "train.patience", "grid.width",
        "grid.max_time", "mvi.i_repeats", "mvi.max_epochs", "evaluate.horizons",
        "simulate.n")},
    **{key: (lambda v: 0 <= v < math.inf, "non-negative and finite") for key in (
        "simulate.n_train", "simulate.n_test", "evaluate.t0")},
}


# most characters of a rejected value, key or override that a ConfigError quotes
QUOTE_CHARS = 60

# most intervals grid.max_time / grid.width may give: on a 2-vCPU host a
# 30-subject one-hot train plus predict took ~3 s and ~200 MB at 1000, and
# ~10 s and ~540 MB at 2000 (the one-hot time feature is L columns wide)
MAX_INTERVALS = 1000


class ConfigError(ValueError):
    """A config file, override, key or value that does not fit DEFAULTS."""


def load_config(path=None, overrides=()):
    """Merge defaults, an optional JSON file, and dotted-path overrides.

    Raises ConfigError for unparsable JSON, a malformed override, a key
    that DEFAULTS does not have, a value whose JSON type differs from its
    DEFAULTS entry (see _fits), a value out of its RANGES entry, an
    empty train.basis_grid or evaluate.horizons, or a grid of more than
    MAX_INTERVALS intervals.
    """
    cfg = copy.deepcopy(DEFAULTS)
    if path:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError("%s: invalid JSON: %s" % (path, e))
            except RecursionError:
                raise ConfigError("%s: JSON nested too deeply" % path)
        if not isinstance(doc, dict):
            raise ConfigError("%s: config must be a JSON object" % path)
        _deep_update(cfg, doc, DEFAULTS)
    for item in overrides:
        if "=" not in item:
            raise ConfigError("override %s is not of the form key.path=value"
                              % _quote(item, repr))
        key, _, raw = item.partition("=")
        key = key.strip()
        value = _parse_value(key, raw.strip())
        for part in reversed(key.split(".")):
            value = {part: value}
        _deep_update(cfg, value, DEFAULTS)
    for key, (test, rule) in RANGES.items():
        value = functools.reduce(dict.__getitem__, key.split("."), cfg)
        if not all(map(test, value if isinstance(value, list) else [value])):
            raise ConfigError("config key %r must be %s, not %s"
                              % (key, rule, _quote(value)))
    for section, name in (("train", "basis_grid"), ("evaluate", "horizons")):
        if not cfg[section][name]:
            raise ConfigError("config key '%s.%s' must not be empty" % (section, name))
    max_time, width = cfg["grid"]["max_time"], cfg["grid"]["width"]
    if max_time / width - 1e-12 > MAX_INTERVALS:  # L as build_time_grid counts it
        raise ConfigError("config keys 'grid.max_time' %g and 'grid.width' %g give "
                          "more than %d intervals" % (max_time, width, MAX_INTERVALS))
    return cfg


def _deep_update(base, update, defaults, prefix=""):
    for k, v in update.items():
        if k not in base:
            raise ConfigError("unknown config key %s" % _quote(prefix + k, repr))
        is_section = isinstance(base[k], dict)
        if is_section != isinstance(v, dict):
            raise ConfigError("config key %r must %sbe an object"
                              % (prefix + k, "" if is_section else "not "))
        if is_section:
            _deep_update(base[k], v, defaults[k], prefix + k + ".")
        elif not _fits(v, defaults[k]):
            raise ConfigError("config key %r must be %s like its default %s, not %s"
                              % (prefix + k, _kind(defaults[k]),
                                 json.dumps(defaults[k]), _quote(v)))
        else:
            base[k] = v


def _quote(value, dump=json.dumps):
    """dump(value), JSON by default, cut to QUOTE_CHARS characters ending in '...'."""
    text = dump(value)
    return text if len(text) <= QUOTE_CHARS else text[:QUOTE_CHARS - 3] + "..."


def _fits(value, default):
    """Whether value has the JSON type of default.

    An integer fits a float default, a bool never fits a number, null
    fits only a null default, and a null default (an optional file path)
    takes a string or null. A list fits a list default when every item
    fits the default's first item.
    """
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and (
            not default or all(_fits(item, default[0]) for item in value))
    return isinstance(value, type(default))


def _kind(default):
    if default is None:
        return "a string or null"
    return {bool: "a boolean", int: "an integer", float: "a number",
            str: "a string", list: "a list"}[type(default)]


def _parse_value(key, raw):
    """Override value raw as JSON, or as the string itself if it is no JSON."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw
    except RecursionError:
        raise ConfigError("override %s: value nested too deeply" % _quote(key, repr))


def dump_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=2)
        fh.write("\n")
