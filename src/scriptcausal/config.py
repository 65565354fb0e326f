"""The one table of settings: each run key's default and the values it
accepts, plus the model-file header keys that no run sets.

A run's settings come from its command-line flags, then its JSON config
file (--config), then the table's defaults. A model records a slice of the
run keys in its file header, named by its ``CONFIG_KEYS`` map (model key ->
table key), together with its sizes and phase; loading the file checks that
header against the same table.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
from typing import NamedTuple

from .errors import ConfigError, DataFormatError, read_json


class Setting(NamedTuple):
    """A key's default, whose type is the key's type, and its range."""

    default: object
    least: float | None = None    # the least accepted number
    below: float | None = None    # every accepted number is less than this
    choices: tuple = ()           # the accepted strings


TABLE = {
    "seed": Setting(0, 0),
    "run_log": Setting("runs.log"),
    "min_count": Setting(10, 1),
    "ratios": Setting([0.9, 0.05, 0.05]),
    "window": Setting(2, 1),               # PMI skip-bigram window
    "history_window": Setting(10, 0),
    "oot_threshold": Setting(3),
    "adjustment_n": Setting(2000, 1),
    "emb_dim": Setting(300, 1),
    "hidden_dim": Setting(300, 1),
    "lm_emb_dim": Setting(300, 1),
    "lm_hidden_dim": Setting(512, 1),
    "lm_layers": Setting(2, 1),
    "lm_dropout": Setting(0.1, 0, 1),
    "lr": Setting(0.001, 0),
    "lr_schedule": Setting(None),          # null or [[lr > 0, epochs >= 1], ...]
    "finetune_lr": Setting(1e-5, 0),
    "clip_norm": Setting(10.0, 0),
    "batch_size": Setting(512, 1),
    "lm_batch_size": Setting(64, 1),
    "patience": Setting(3, 1),
    "max_epochs": Setting(30, 1),
    "cutoffs": Setting([0, 50, 100, 125, 150, 200, 500]),
    "recall_n": Setting(100, 1),
    "cloze_count": Setting(2000, 1),
    "sheet_targets": Setting(150, 1),
    "per_system": Setting(2, 1),
    "exclude_top": Setting(20, 0),
    "topk": Setting(10, 1),
    "factual_only": Setting(False),
    # header keys only
    "vocab_size": Setting(1, 1),
    "tokens": Setting(["<unk>"]),          # the text channel's tokens, by id
    "phase": Setting("pretrained", choices=("pretrained", "finetuned")),
}


# echoes a refused value or key in a bounded length
_ECHO = reprlib.Repr()
_ECHO.maxlevel, _ECHO.maxstring = 2, 60


def same(keys: str) -> dict:
    """The map of the space-separated ``keys`` onto themselves."""
    return {key: key for key in keys.split()}


RUN_KEYS = {key: key for key in TABLE
            if key not in ("vocab_size", "tokens", "phase")}


def defaults(names: dict) -> dict:
    """The table's default of each key of ``names``."""
    return {name: TABLE[key].default for name, key in names.items()}


def _fits(value, default) -> bool:
    """Whether ``value`` may stand where ``default`` does: bools are not
    numbers, an int may stand for a float, and so may a list's elements for
    the default's. A None default stands for ``lr_schedule``: None or a
    list of [lr, epochs] pairs."""
    if default is None:
        return value is None or isinstance(value, list) and all(
            isinstance(s, list) and len(s) == 2 and _fits(s[0], 0.0)
            and _fits(s[1], 0) for s in value)
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(x, default[0]) for x in value)
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    return isinstance(value, (int, float) if isinstance(default, float)
                      else type(default))


def _finite(value) -> bool:
    """Whether every number in ``value``, lists included, is finite."""
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _problem(value, setting: Setting):
    """Why the table refuses ``value`` for ``setting``; None if it does not."""
    default = setting.default
    if not _fits(value, default):
        return "must be " + ("null or a list of [lr, epochs] pairs" if default is None
                             else f"a list of {type(default[0]).__name__}"
                             if isinstance(default, list) else type(default).__name__)
    if not _finite(value):
        return "must be finite"
    if setting.least is not None and value < setting.least:
        return f"must be >= {setting.least}"
    if setting.below is not None and value >= setting.below:
        return f"must be < {setting.below}"
    if setting.choices and value not in setting.choices:
        return f"must be one of {', '.join(setting.choices)}"
    if default is None and not all(lr > 0 and n >= 1 for lr, n in value or ()):
        return "needs lr > 0 and epochs >= 1 in every stage"
    if setting is TABLE["tokens"]:
        rule, seen = "must be distinct strings, '<unk>' first", set()
        for token in value:
            if token in seen:
                return f"{rule}; {_ECHO.repr(token)} repeats"
            seen.add(token)
        if value[:1] != default:
            return rule


def check(values, names: dict, error=ConfigError, what="config key"):
    """Raise ``error`` naming the key unless ``values`` is a dict with
    exactly the keys of ``names``, each holding a value that the table
    accepts for its table key ``names[key]``."""
    if not isinstance(values, dict):
        raise error(f"{what}s must form one JSON object, not a {type(values).__name__}")
    unknown = sorted(values.keys() - names.keys())
    if unknown:
        raise error(f"{what} {_ECHO.repr(unknown[0])} is unknown")
    for key, name in names.items():
        if key not in values:
            raise error(f"{what} {key!r} is missing")
        problem = _problem(values[key], TABLE[name])
        if problem:
            raise error(f"{what} {key!r} {problem}, got {_ECHO.repr(values[key])}")


class RunConfig:
    """Effective settings: CLI > config file > defaults."""

    def __init__(self, config_path=None, overrides=None):
        self.values = defaults(RUN_KEYS)
        if config_path:
            loaded = read_json(config_path, "config file")
            if not isinstance(loaded, dict):
                raise DataFormatError(
                    f"{config_path}: config file must hold one JSON object")
            self.values.update(loaded)
        self.values.update((key, value) for key, value in (overrides or {}).items()
                           if value is not None)
        check(self.values, RUN_KEYS)

    def __getitem__(self, key):
        return self.values[key]

    def slice(self, names: dict) -> dict:
        """The values of ``names``'s table keys under its model keys."""
        return {name: self.values[key] for name, key in names.items()}

    def hash(self) -> str:
        blob = json.dumps(self.values, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
