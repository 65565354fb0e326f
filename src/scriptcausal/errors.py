"""Exception taxonomy shared across the package, the input readers that
map undecodable or malformed text onto it, and the writers' file opener.

The CLI maps these onto exit codes: ConfigError -> 1, DataFormatError -> 2,
NumericalError -> 3.
"""

import json
from contextlib import contextmanager


class ScriptCausalError(Exception):
    """Base class for all package errors."""


class ConfigError(ScriptCausalError):
    """Invalid configuration, arguments, or preconditions."""


class DataFormatError(ScriptCausalError):
    """Malformed input file or serialized artifact."""


class NumericalError(ScriptCausalError):
    """Non-finite values or other numerical failure."""


@contextmanager
def open_input(path, mode="r"):
    """``path`` opened for reading, as UTF-8 text unless ``mode`` is "rb".
    Text in it that is not UTF-8 raises DataFormatError naming the file, and
    a DataFormatError raised in the body is raised again naming the file."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text ({e.reason})") from e
    except DataFormatError as e:
        raise DataFormatError(f"{path}: {e}") from e


@contextmanager
def open_output(path, mode="w"):
    """``path`` opened for writing, as UTF-8 text unless ``mode`` is "wb".
    An OSError that names no file, as a write or the flush at close raises
    on a full disk, is raised again naming ``path``."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
    except OSError as e:
        if e.filename is None:
            e.filename = path
        raise


def read_json(path, what, build=lambda value: value):
    """``build`` of the JSON value in the file ``path``, which holds a
    ``what``; a DataFormatError that ``build`` raises names the file."""
    with open_input(path) as f:
        try:
            value = json.load(f)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"{what} is not valid JSON: {e}") from e
        return build(value)
